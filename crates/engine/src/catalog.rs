//! The multi-tenant publication [`Catalog`]: one server, many releases.
//!
//! A catalog owns N named releases, each a full [`QueryService`] with its
//! own answer cache, counters and (optionally) live stream —
//! per-tenant isolation is enforced by construction, because tenants
//! simply never share state. Sessions route by release name using the
//! rp/3 catalog verbs (see [`crate::protocol`]): `use` rebinds the
//! session, `verb@release` qualifies a single request, and un-qualified
//! verbs keep their rp/2 meaning against the session's current release
//! (initially the catalog's default), so old transcripts replay
//! unchanged.
//!
//! A catalog is also how a single release is served:
//! [`Catalog::single`] builds a one-entry *bare* catalog, which speaks
//! the single-release dialect of the protocol — its `HELLO` carries no
//! `release=` token, the catalog verbs answer `unknown-release`, and
//! every request, parse errors and refusals included, is charged to the
//! release's own counters.
//!
//! ## Leases and lifecycle
//!
//! Every request checks out a [`Lease`] on its target release: a cheap
//! `Arc` clone plus a busy count on the tenant. [`Catalog::close`] sets
//! the release *closing* (new checkouts are refused), then blocks until
//! the busy count drains to zero before dropping the tenant — a close can
//! therefore never race an in-flight request's `Arc`. Hot-reload
//! ([`Catalog::reload`] / [`Catalog::reload_from_source`]) is the
//! opposite trade: it atomically swaps the service `Arc` without waiting,
//! so sessions holding the old lease finish against the old release while
//! new checkouts see the new one — no tenant's session is ever dropped by
//! another tenant's reload. [`Catalog::reload_from_source`] on a
//! streaming release additionally **seals** the old service's WAL write
//! handle before reopening the log from disk ([`QueryService::seal`]):
//! old leaseholders keep querying but degrade to read-only, so the old
//! handle can never append concurrently with — or be truncated under —
//! the rebuilt release's writer. A concurrent reload of the same release
//! is refused ([`CatalogError::Reloading`]) for the same reason.
//!
//! ## The routing fast path
//!
//! A [`CatalogSession`] caches its current release's service and lease
//! accounting, validated per request against the catalog's *epoch* — a
//! counter bumped by every open, close and reload. A hit costs a handful
//! of uncontended atomic operations instead of the catalog lock; any
//! topology change invalidates the cache, and a close that races the
//! cache is caught by re-checking the closing flag *after* the busy
//! increment (the increment-then-check / flag-then-wait handshake with
//! [`Catalog::close`]), so the drain guarantee is identical to the slow
//! path's.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::obs::{Counter, Event};
use crate::protocol::{
    is_release_name, ErrorCode, ReleaseEntry, Request, Response, Stat, PROTOCOL_VERSION,
};
use crate::publication::Publication;
use crate::service::{QueryService, ServiceConfig, SessionStats};
use crate::stream::{StreamConfig, StreamError, StreamPublisher};

/// A failure of a catalog operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// No open release has this name.
    UnknownRelease(String),
    /// The release is draining towards [`Catalog::close`]; new checkouts
    /// (and a second concurrent close) are refused.
    Closing(String),
    /// [`Catalog::open`] was given a name that is already open.
    AlreadyOpen(String),
    /// The name does not satisfy [`is_release_name`].
    BadName(String),
    /// [`Catalog::close`] refused the default release — the anchor of
    /// every rp/2-compatible session.
    DefaultRelease(String),
    /// [`Catalog::reload_from_source`] on a release opened without a
    /// source artifact path.
    NoSource(String),
    /// Loading a source artifact failed (`name`, detail).
    Load(String, String),
    /// A concurrent [`Catalog::reload_from_source`] on the same release
    /// is still rebuilding it. Two rebuilds of a streaming release would
    /// race two write handles onto one WAL file, so the second caller is
    /// refused instead.
    Reloading(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownRelease(name) => write!(f, "no release named `{name}`"),
            CatalogError::Closing(name) => write!(f, "release `{name}` is closing"),
            CatalogError::AlreadyOpen(name) => write!(f, "release `{name}` is already open"),
            CatalogError::BadName(name) => write!(
                f,
                "bad release name `{name}`: need a token without whitespace, `;`, `=` or `@`"
            ),
            CatalogError::DefaultRelease(name) => {
                write!(f, "cannot close the default release `{name}`")
            }
            CatalogError::NoSource(name) => {
                write!(f, "release `{name}` has no source artifact to reload from")
            }
            CatalogError::Load(name, detail) => {
                write!(f, "reloading release `{name}` failed: {detail}")
            }
            CatalogError::Reloading(name) => {
                write!(f, "release `{name}` is already reloading")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

impl CatalogError {
    /// The wire error this failure maps to when it reaches a session.
    /// Only routing and reload failures can: the rest guard the
    /// programmatic `open`/`close` API.
    fn wire(self) -> Response {
        let code = match self {
            CatalogError::UnknownRelease(_) | CatalogError::Closing(_) => ErrorCode::UnknownRelease,
            _ => ErrorCode::Internal,
        };
        Response::Error {
            code,
            message: self.to_string(),
        }
    }
}

/// Where a release can be rebuilt from on
/// [`Catalog::reload_from_source`].
#[derive(Debug, Clone)]
enum TenantSource {
    /// A static publication artifact.
    Artifact {
        /// The `.rppub` file the release was loaded from.
        path: PathBuf,
        /// Service knobs to rebuild with.
        config: ServiceConfig,
    },
    /// A live stream: base artifact plus its WAL. Reloading reopens the
    /// stream from disk — replaying exactly the durable prefix — which
    /// is how a degraded release (poisoned WAL) recovers.
    Stream {
        /// The base `.rppub` artifact.
        artifact: PathBuf,
        /// The write-ahead log of the live release.
        wal: PathBuf,
        /// Stream knobs (residency bound, group commit) to reopen with.
        stream_config: StreamConfig,
        /// Where `flush` persists snapshots, if anywhere.
        state_out: Option<PathBuf>,
        /// Service knobs to rebuild with.
        config: ServiceConfig,
    },
}

/// One hosted release: its service, where it can be reloaded from, and
/// its lease accounting.
#[derive(Debug)]
struct Tenant {
    service: Arc<QueryService>,
    /// Source for [`Catalog::reload_from_source`]; `None` for
    /// programmatic opens.
    source: Option<TenantSource>,
    /// Outstanding [`Lease`]s (in-flight requests and session banners).
    /// Shared with leases and route caches so releasing one never takes
    /// the catalog lock.
    busy: Arc<AtomicU64>,
    /// Set by [`Catalog::close`]: refuse new checkouts, drain, drop.
    closing: Arc<AtomicBool>,
    /// Held by an in-flight [`Catalog::reload_from_source`] (which runs
    /// outside the catalog lock): a second concurrent reload is refused
    /// rather than racing a second rebuild onto the same WAL file.
    reloading: Arc<AtomicBool>,
}

impl Tenant {
    fn new(service: Arc<QueryService>, source: Option<TenantSource>) -> Self {
        Self {
            service,
            source,
            busy: Arc::new(AtomicU64::new(0)),
            closing: Arc::new(AtomicBool::new(false)),
            reloading: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// A catalog of named releases behind one server. See the
/// [module docs](self) for the lease/close/reload lifecycle.
#[derive(Debug)]
pub struct Catalog {
    default: String,
    /// Set by [`Catalog::single`]: the catalog serves one unnamed release.
    bare: bool,
    state: Mutex<BTreeMap<String, Tenant>>,
    drained: Condvar,
    /// Bumped by every open, close and reload; sessions revalidate their
    /// cached route against it (see the [module docs](self)).
    epoch: AtomicU64,
}

/// Drops one unit of lease accounting. Waking [`Catalog::close`] takes
/// the lock only on the transition to zero of a closing tenant — the
/// lock round-trip (not the notify itself) is what guarantees the waiter
/// is parked on the condvar before the wakeup fires.
fn release_unit(catalog: &Catalog, busy: &AtomicU64, closing: &AtomicBool) {
    if busy.fetch_sub(1, Ordering::SeqCst) == 1 && closing.load(Ordering::SeqCst) {
        drop(catalog.state_guard());
        catalog.drained.notify_all();
    }
}

impl Catalog {
    /// Acquires the catalog state lock, recovering from poison instead
    /// of propagating the panic to every session thread. Safe because
    /// every critical section over this lock is a single map operation
    /// plus atomic flag updates — there is no multi-step invariant a
    /// mid-section panic could tear — and [`Catalog::close`] re-checks
    /// its drain predicate in a loop after every wakeup.
    fn state_guard(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Tenant>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.state.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Creates an empty catalog whose sessions start on `default` (open
    /// it before serving). The default release can never be closed.
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadName`] if `default` is not a release name.
    pub fn new(default: &str) -> Result<Self, CatalogError> {
        if !is_release_name(default) {
            return Err(CatalogError::BadName(default.to_string()));
        }
        Ok(Self {
            default: default.to_string(),
            bare: false,
            state: Mutex::new(BTreeMap::new()),
            drained: Condvar::new(),
            epoch: AtomicU64::new(0),
        })
    }

    /// A *bare* catalog serving `service` as its only release (see the
    /// [module docs](self)). The release is registered under the default
    /// name `default`, which never reaches the wire.
    pub fn single(service: Arc<QueryService>) -> Self {
        let name = "default".to_string();
        Self {
            default: name.clone(),
            bare: true,
            state: Mutex::new(BTreeMap::from([(name, Tenant::new(service, None))])),
            drained: Condvar::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current topology epoch (see the [module docs](self)).
    fn epoch_now(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Invalidates every session's cached route.
    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The release every session starts bound to.
    pub fn default_name(&self) -> &str {
        &self.default
    }

    /// Opens `name` over an existing service (no reload source).
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadName`] or [`CatalogError::AlreadyOpen`].
    pub fn open(&self, name: &str, service: Arc<QueryService>) -> Result<(), CatalogError> {
        self.insert(name, service, None)
    }

    /// Loads the artifact at `path` and opens it as `name`, remembering
    /// the path so [`Catalog::reload_from_source`] can hot-swap it later.
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadName`], [`CatalogError::AlreadyOpen`] or
    /// [`CatalogError::Load`].
    pub fn open_path(
        &self,
        name: &str,
        path: &Path,
        config: ServiceConfig,
    ) -> Result<(), CatalogError> {
        let publication = Publication::load_from_path(path)
            .map_err(|e| CatalogError::Load(name.to_string(), e.to_string()))?;
        let service = Arc::new(QueryService::from_publication(&publication, config));
        self.insert(
            name,
            service,
            Some(TenantSource::Artifact {
                path: path.to_path_buf(),
                config,
            }),
        )
    }

    /// Opens a *streaming* release as `name`: loads the base artifact at
    /// `artifact`, attaches (creating or replaying) the WAL at `wal`,
    /// and remembers both so [`Catalog::reload_from_source`] can rebuild
    /// the release from disk — the recovery path when its stream
    /// degrades after a storage fault.
    ///
    /// # Errors
    ///
    /// [`CatalogError::BadName`], [`CatalogError::AlreadyOpen`] or
    /// [`CatalogError::Load`].
    pub fn open_stream_path(
        &self,
        name: &str,
        artifact: &Path,
        wal: &Path,
        stream_config: StreamConfig,
        state_out: Option<PathBuf>,
        config: ServiceConfig,
    ) -> Result<(), CatalogError> {
        let source = TenantSource::Stream {
            artifact: artifact.to_path_buf(),
            wal: wal.to_path_buf(),
            stream_config,
            state_out,
            config,
        };
        let service = build_source(name, &source)?;
        self.insert(name, service, Some(source))
    }

    fn insert(
        &self,
        name: &str,
        service: Arc<QueryService>,
        source: Option<TenantSource>,
    ) -> Result<(), CatalogError> {
        if !is_release_name(name) {
            return Err(CatalogError::BadName(name.to_string()));
        }
        let mut state = self.state_guard();
        if state.contains_key(name) {
            return Err(CatalogError::AlreadyOpen(name.to_string()));
        }
        state.insert(name.to_string(), Tenant::new(service, source));
        self.bump_epoch();
        Ok(())
    }

    /// Checks out a lease on `name` for one request (or session banner).
    /// The lease pins the release against [`Catalog::close`] until
    /// dropped; a reload does *not* wait for it (the lease keeps the old
    /// service alive through its `Arc`).
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownRelease`] or [`CatalogError::Closing`].
    pub fn checkout(&self, name: &str) -> Result<Lease<'_>, CatalogError> {
        let state = self.state_guard();
        let tenant = state
            .get(name)
            .ok_or_else(|| CatalogError::UnknownRelease(name.to_string()))?;
        if tenant.closing.load(Ordering::SeqCst) {
            return Err(CatalogError::Closing(name.to_string()));
        }
        tenant.busy.fetch_add(1, Ordering::SeqCst);
        Ok(Lease {
            catalog: self,
            name: name.to_string(),
            service: Arc::clone(&tenant.service),
            busy: Arc::clone(&tenant.busy),
            closing: Arc::clone(&tenant.closing),
        })
    }

    /// Closes `name` gracefully: marks it closing (new checkouts answer
    /// `unknown-release`), *blocks* until every outstanding lease drops,
    /// then removes the tenant. In-flight requests therefore always
    /// finish against a live service — close never races the `Arc` drop.
    ///
    /// # Errors
    ///
    /// [`CatalogError::DefaultRelease`] (the default cannot close),
    /// [`CatalogError::UnknownRelease`] or [`CatalogError::Closing`]
    /// (a concurrent close is already draining it).
    pub fn close(&self, name: &str) -> Result<(), CatalogError> {
        if name == self.default {
            return Err(CatalogError::DefaultRelease(name.to_string()));
        }
        let mut state = self.state_guard();
        {
            let tenant = state
                .get(name)
                .ok_or_else(|| CatalogError::UnknownRelease(name.to_string()))?;
            if tenant.closing.swap(true, Ordering::SeqCst) {
                return Err(CatalogError::Closing(name.to_string()));
            }
        }
        self.bump_epoch();
        while state
            .get(name)
            .map(|t| t.busy.load(Ordering::SeqCst))
            .unwrap_or(0)
            > 0
        {
            state = match self.drained.wait(state) {
                Ok(guard) => guard,
                // The predicate loop re-checks the drain condition, so
                // recovering a poisoned wait cannot return early.
                Err(poisoned) => {
                    self.state.clear_poison();
                    poisoned.into_inner()
                }
            };
        }
        state.remove(name);
        Ok(())
    }

    /// Hot-swaps `name` to a new service without waiting: new checkouts
    /// see `service` immediately, outstanding leases finish against the
    /// old one (kept alive by their `Arc` clones). Returns the new
    /// `(records, groups)`. The reload source is left unchanged.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownRelease`] or [`CatalogError::Closing`].
    pub fn reload(
        &self,
        name: &str,
        service: Arc<QueryService>,
    ) -> Result<(u64, u64), CatalogError> {
        let summary = service.release_summary();
        let mut state = self.state_guard();
        let tenant = state
            .get_mut(name)
            .ok_or_else(|| CatalogError::UnknownRelease(name.to_string()))?;
        if tenant.closing.load(Ordering::SeqCst) {
            return Err(CatalogError::Closing(name.to_string()));
        }
        tenant.service = service;
        self.bump_epoch();
        Ok((summary.1, summary.2))
    }

    /// Reloads `name` from the source it was opened with
    /// ([`Catalog::open_path`] or [`Catalog::open_stream_path`]). The
    /// load runs *outside* the catalog lock, so a slow disk never stalls
    /// other tenants' routing; the swap itself is [`Catalog::reload`].
    ///
    /// For a streaming release this is the **recovery path**, and it is
    /// equally safe on a *healthy* live release: before the WAL is
    /// reopened from disk the old service is **sealed**
    /// ([`QueryService::seal`] — flush, then latch its write handle
    /// refused, atomically with respect to inserts). The old handle can
    /// therefore never append concurrently with the reopened one, and
    /// the reopen's end-of-log repositioning cannot truncate an
    /// acknowledged commit racing in through it. Sessions still leased
    /// to the old service keep querying it; their `insert`/`flush` get
    /// the degraded error until they route to the new service. On a
    /// degraded stream the seal's flush refuses — the poisoned WAL
    /// wrote its last good byte long ago — and the reopen recovers
    /// exactly the durable prefix.
    ///
    /// If the rebuild itself fails, the sealed old service stays
    /// installed: queries keep answering, writes refuse, and a later
    /// `reload` retries recovery — never a corrupt WAL.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownRelease`], [`CatalogError::Closing`],
    /// [`CatalogError::NoSource`], [`CatalogError::Reloading`] (a
    /// concurrent reload of the same release) or [`CatalogError::Load`].
    pub fn reload_from_source(&self, name: &str) -> Result<(u64, u64), CatalogError> {
        let (source, old_service, reloading) = {
            let state = self.state_guard();
            let tenant = state
                .get(name)
                .ok_or_else(|| CatalogError::UnknownRelease(name.to_string()))?;
            if tenant.closing.load(Ordering::SeqCst) {
                return Err(CatalogError::Closing(name.to_string()));
            }
            let source = tenant
                .source
                .clone()
                .ok_or_else(|| CatalogError::NoSource(name.to_string()))?;
            // Claim the rebuild before leaving the lock: two concurrent
            // rebuilds would race two write handles onto one WAL file.
            if tenant.reloading.swap(true, Ordering::SeqCst) {
                return Err(CatalogError::Reloading(name.to_string()));
            }
            (
                source,
                Arc::clone(&tenant.service),
                Arc::clone(&tenant.reloading),
            )
        };
        let result = (|| {
            if matches!(source, TenantSource::Stream { .. }) {
                // Quiesce before reopening: flush any open commit batch,
                // then seal the old write handle so nothing can append
                // to (or be truncated out of) the WAL while — and after
                // — the rebuild reopens it. Best-effort by design: a
                // degraded stream refuses the flush but is already
                // write-refusing, which is the property the reopen
                // needs.
                let _ = old_service.seal();
                let obs = crate::obs::global();
                obs.inc(Counter::CatalogSeal);
                obs.trace(Event::CatalogSeal);
            }
            let service = build_source(name, &source)?;
            self.reload(name, service)
        })();
        reloading.store(false, Ordering::SeqCst);
        if result.is_ok() {
            let obs = crate::obs::global();
            obs.inc(Counter::CatalogReload);
            obs.trace(Event::CatalogReload);
        }
        result
    }

    /// Lists the open (non-closing) releases, sorted by name.
    pub fn list(&self) -> Vec<ReleaseEntry> {
        let state = self.state_guard();
        state
            .iter()
            .filter(|(_, tenant)| !tenant.closing.load(Ordering::SeqCst))
            .map(|(name, tenant)| {
                let (sa, records, groups, _p) = tenant.service.release_summary();
                ReleaseEntry {
                    name: name.clone(),
                    sa,
                    records,
                    groups,
                    live: tenant.service.is_streaming(),
                }
            })
            .collect()
    }

    /// Outstanding leases on `name`, or `None` if it is not open. Meant
    /// for tests and monitoring of the close/drain lifecycle.
    pub fn busy(&self, name: &str) -> Option<u64> {
        let state = self.state_guard();
        state.get(name).map(|t| t.busy.load(Ordering::SeqCst))
    }

    /// Checkpoints every release that has a live stream (WAL sync +
    /// snapshot, exactly like a client `flush`), returning per-release
    /// outcomes. Server shutdown paths call this.
    pub fn checkpoint_all(&self) -> Vec<(String, Result<Option<u64>, StreamError>)> {
        let services: Vec<(String, Arc<QueryService>)> = {
            let state = self.state_guard();
            state
                .iter()
                .map(|(name, t)| (name.clone(), Arc::clone(&t.service)))
                .collect()
        };
        services
            .into_iter()
            .map(|(name, service)| {
                let outcome = service.checkpoint();
                (name, outcome)
            })
            .collect()
    }
}

/// Builds a fresh service from a tenant's reload source. Streams are
/// reopened with passthrough (fault-free) I/O: recovery must never
/// re-enter an injected schedule.
fn build_source(name: &str, source: &TenantSource) -> Result<Arc<QueryService>, CatalogError> {
    let load = |e: &dyn std::fmt::Display| CatalogError::Load(name.to_string(), e.to_string());
    match source {
        TenantSource::Artifact { path, config } => {
            let publication = Publication::load_from_path(path).map_err(|e| load(&e))?;
            Ok(Arc::new(QueryService::from_publication(
                &publication,
                *config,
            )))
        }
        TenantSource::Stream {
            artifact,
            wal,
            stream_config,
            state_out,
            config,
        } => {
            let publication = Publication::load_from_path(artifact).map_err(|e| load(&e))?;
            let stream =
                StreamPublisher::open(publication, wal, *stream_config).map_err(|e| load(&e))?;
            Ok(Arc::new(QueryService::streaming(
                stream,
                state_out.clone(),
                *config,
            )))
        }
    }
}

/// A checked-out release: dereferences to its [`QueryService`] and holds
/// the release open (against [`Catalog::close`]) until dropped.
#[derive(Debug)]
pub struct Lease<'a> {
    catalog: &'a Catalog,
    name: String,
    service: Arc<QueryService>,
    busy: Arc<AtomicU64>,
    closing: Arc<AtomicBool>,
}

impl Lease<'_> {
    /// The catalog name this lease was checked out under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::ops::Deref for Lease<'_> {
    type Target = QueryService;

    fn deref(&self) -> &QueryService {
        &self.service
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        release_unit(self.catalog, &self.busy, &self.closing);
    }
}

/// One session's routing state over a [`Catalog`]: the current release,
/// the rp/3 verb dispatch, and the session's counter totals. Transports
/// build one per connection and feed it lines.
///
/// Every request counts in the session's [`totals`](Self::totals).
/// Tenant-bound requests also count in the target release's own counters
/// (via [`QueryService::handle`]); catalog-level verbs (`use`,
/// `releases`, `reload`, routing failures, parse errors) charge no
/// tenant — except on a bare catalog, which charges them to its one
/// release.
#[derive(Debug)]
pub struct CatalogSession<'a> {
    catalog: &'a Catalog,
    current: String,
    /// Cached route for the current release, valid while its epoch
    /// matches the catalog's (see the [module docs](self)).
    route: Option<RouteCache>,
    totals: SessionStats,
}

/// A session's memoised checkout target: the current release's service
/// and lease accounting, tagged with the catalog epoch it was read at.
#[derive(Debug)]
struct RouteCache {
    epoch: u64,
    service: Arc<QueryService>,
    busy: Arc<AtomicU64>,
    closing: Arc<AtomicBool>,
}

impl RouteCache {
    fn from_lease(epoch: u64, lease: &Lease<'_>) -> Self {
        Self {
            epoch,
            service: Arc::clone(&lease.service),
            busy: Arc::clone(&lease.busy),
            closing: Arc::clone(&lease.closing),
        }
    }
}

impl<'a> CatalogSession<'a> {
    /// Starts a session bound to the catalog's default release.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            current: catalog.default_name().to_string(),
            route: None,
            totals: SessionStats::default(),
        }
    }

    /// This session's counters so far.
    pub fn totals(&self) -> SessionStats {
        self.totals
    }

    /// The release un-qualified verbs currently route to.
    pub fn current(&self) -> &str {
        &self.current
    }

    /// The session banner: the current release's parameters plus its
    /// catalog name as the trailing `release=` token (none on a bare
    /// catalog). Sending it opens the session, so the session start is
    /// charged to the current release. An unopened default yields the
    /// routing error instead (the transport should close).
    pub fn hello(&mut self) -> Response {
        match self.catalog.checkout(&self.current) {
            Ok(lease) => {
                QueryService::charge(Some(&lease), &mut self.totals, Stat::Sessions);
                let (sa, records, groups, p) = lease.release_summary();
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    sa,
                    records,
                    groups,
                    p,
                    release: (!self.catalog.bare).then(|| self.current.clone()),
                }
            }
            Err(e) => e.wire(),
        }
    }

    /// Handles one raw request line — the catalog counterpart of
    /// [`QueryService::handle_line`], with the same stage timing. Returns
    /// `None` for blank lines.
    pub fn handle_line(&mut self, line: &str) -> Option<Response> {
        crate::service::answer_line(line, |parsed| match parsed {
            Ok(request) => self.handle(&request),
            Err(e) => self.answer_locally(Response::from(e)),
        })
    }

    /// Counts a response the routing layer produced itself (a catalog
    /// verb, a routing failure, a parse error): into the session only on
    /// a named catalog, and into the one release's counters as well on a
    /// bare catalog.
    pub(crate) fn answer_locally(&mut self, response: Response) -> Response {
        if !self.catalog.bare {
            QueryService::count(None, &response, &mut self.totals);
            return response;
        }
        self.route_current(|service, totals| {
            QueryService::count(Some(service), &response, totals);
            response
        })
    }

    /// Handles one typed request: catalog verbs are answered here,
    /// everything else checks out the target release and delegates.
    pub fn handle(&mut self, request: &Request) -> Response {
        let response = match request {
            Request::Use(_) | Request::Releases | Request::Reload(_) | Request::At { .. }
                if self.catalog.bare =>
            {
                Response::Error {
                    code: ErrorCode::UnknownRelease,
                    message: "this server hosts a single release; catalog verbs need \
                              `rpctl serve --release NAME=PATH ...`"
                        .to_string(),
                }
            }
            Request::Use(name) => {
                // Epoch before checkout: if a reload slips in between,
                // the cache is tagged stale and the next request re-routes.
                let epoch = self.catalog.epoch_now();
                match self.catalog.checkout(name) {
                    Ok(lease) => {
                        let (sa, records, groups, p) = lease.release_summary();
                        self.current = name.clone();
                        self.route = Some(RouteCache::from_lease(epoch, &lease));
                        Response::Using {
                            release: name.clone(),
                            sa,
                            records,
                            groups,
                            p,
                        }
                    }
                    Err(e) => e.wire(),
                }
            }
            Request::Releases => Response::Releases(self.catalog.list()),
            Request::Reload(name) => match self.catalog.reload_from_source(name) {
                Ok((records, groups)) => Response::Reloaded {
                    release: name.clone(),
                    records,
                    groups,
                },
                Err(e) => e.wire(),
            },
            Request::At { release, inner } => match self.catalog.checkout(release) {
                Ok(lease) => return lease.handle(inner, &mut self.totals),
                Err(e) => e.wire(),
            },
            unqualified => {
                return self.route_current(|service, totals| service.handle(unqualified, totals))
            }
        };
        self.answer_locally(response)
    }

    /// Runs `answer` against the current release and this session's
    /// totals: the cached fast path when the epoch still matches, a full
    /// checkout (which repopulates the cache) otherwise.
    fn route_current(
        &mut self,
        answer: impl FnOnce(&QueryService, &mut SessionStats) -> Response,
    ) -> Response {
        let epoch = self.catalog.epoch_now();
        if let Some(route) = self.route.as_ref().filter(|r| r.epoch == epoch) {
            route.busy.fetch_add(1, Ordering::SeqCst);
            // Re-check *after* the increment: a close that set the flag
            // before this point either saw our unit (and waits for the
            // release below) or we see its flag and back off to the slow
            // path, which answers `unknown-release`.
            if route.closing.load(Ordering::SeqCst) {
                release_unit(self.catalog, &route.busy, &route.closing);
            } else {
                crate::obs::global().inc(Counter::CatalogRouteFast);
                let response = answer(&route.service, &mut self.totals);
                release_unit(self.catalog, &route.busy, &route.closing);
                return response;
            }
        }
        self.route = None;
        crate::obs::global().inc(Counter::CatalogRouteSlow);
        match self.catalog.checkout(&self.current) {
            Ok(lease) => {
                self.route = Some(RouteCache::from_lease(epoch, &lease));
                answer(&lease, &mut self.totals)
            }
            Err(e) => {
                let response = e.wire();
                QueryService::count(None, &response, &mut self.totals);
                response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::Publisher;
    use rp_table::{Attribute, Schema, TableBuilder};
    use std::time::{Duration, Instant};

    /// Scales by group *count*, not group size: every group stays at 200
    /// records (under its Equation-10 threshold, so SPS degenerates to UP
    /// and published counts are exact) while total `records` distinguish
    /// the releases.
    fn publication(rows: u32) -> Publication {
        const JOBS: [&str; 6] = ["eng", "doc", "law", "art", "vet", "cop"];
        let groups = (rows / 200) as usize;
        let schema = Schema::new(vec![
            Attribute::new("Job", JOBS[..groups].iter().copied()),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_codes(&[i % groups as u32, (i / groups as u32) % 2])
                .unwrap();
        }
        Publisher::new(b.build()).sa(1).seed(3).publish().unwrap()
    }

    fn service(rows: u32) -> Arc<QueryService> {
        Arc::new(QueryService::from_publication(
            &publication(rows),
            ServiceConfig::default(),
        ))
    }

    fn two_tenant_catalog() -> Catalog {
        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog.open("beta", service(800)).unwrap();
        catalog
    }

    #[test]
    fn open_close_list_lifecycle() {
        let catalog = two_tenant_catalog();
        let names: Vec<String> = catalog.list().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert_eq!(catalog.list()[0].records, 400);
        assert_eq!(catalog.list()[1].records, 800);
        assert_eq!(
            catalog.open("beta", service(200)).unwrap_err(),
            CatalogError::AlreadyOpen("beta".into())
        );
        assert_eq!(
            catalog.open("not a token", service(200)).unwrap_err(),
            CatalogError::BadName("not a token".into())
        );
        assert_eq!(
            catalog.open("with@at", service(200)).unwrap_err(),
            CatalogError::BadName("with@at".into())
        );
        assert_eq!(
            catalog.close("alpha").unwrap_err(),
            CatalogError::DefaultRelease("alpha".into())
        );
        catalog.close("beta").unwrap();
        assert_eq!(
            catalog.close("beta").unwrap_err(),
            CatalogError::UnknownRelease("beta".into())
        );
        assert!(catalog.checkout("beta").is_err());
        assert_eq!(catalog.list().len(), 1);
    }

    #[test]
    fn session_routes_by_use_and_qualifier() {
        let catalog = two_tenant_catalog();
        let mut s = CatalogSession::new(&catalog);

        let Response::Hello {
            release, records, ..
        } = s.hello()
        else {
            panic!("expected hello");
        };
        assert_eq!(release.as_deref(), Some("alpha"));
        assert_eq!(records, 400);

        // Un-qualified: current (default) release. The SA-only query's
        // support is the whole release, so tenants are distinguishable.
        let r = s.handle_line("count Disease=flu").unwrap();
        let Response::Answer(a) = r else {
            panic!("{r:?}")
        };
        assert_eq!(a.support, 400);

        // Qualified: routes without rebinding.
        let r = s.handle_line("count@beta Disease=flu").unwrap();
        let Response::Answer(a) = r else {
            panic!("{r:?}")
        };
        assert_eq!(a.support, 800);
        assert_eq!(s.current(), "alpha");

        // `use` rebinds and reports the target's parameters.
        let r = s.handle_line("use beta").unwrap();
        let Response::Using {
            release,
            records,
            sa,
            ..
        } = r
        else {
            panic!("{r:?}")
        };
        assert_eq!(release, "beta");
        assert_eq!(records, 800);
        assert_eq!(sa, "Disease");
        assert_eq!(s.current(), "beta");
        let r = s.handle_line("count Disease=flu").unwrap();
        let Response::Answer(a) = r else {
            panic!("{r:?}")
        };
        assert_eq!(a.support, 800);

        // Unknown names are structured errors, session keeps serving.
        for line in ["use gamma", "count@gamma Disease=flu", "reload gamma"] {
            let r = s.handle_line(line).unwrap();
            let Response::Error { code, .. } = r else {
                panic!("{r:?}")
            };
            assert_eq!(code, ErrorCode::UnknownRelease, "line `{line}`");
        }
        assert_eq!(s.totals().errors, 3);
    }

    #[test]
    fn tenant_stats_and_caches_are_isolated() {
        let catalog = two_tenant_catalog();
        let alpha = catalog.checkout("alpha").unwrap();
        let beta = catalog.checkout("beta").unwrap();
        let mut s = CatalogSession::new(&catalog);

        // Same query twice on alpha (miss + hit), once on beta (miss):
        // identical canonical keys must not cross tenants.
        s.handle_line("count Job=eng Disease=flu");
        s.handle_line("count Job=eng Disease=flu");
        s.handle_line("count@beta Job=eng Disease=flu");
        assert_eq!(alpha.stats().cache_misses, 1);
        assert_eq!(alpha.stats().cache_hits, 1);
        assert_eq!(alpha.stats().requests, 2);
        assert_eq!(beta.stats().cache_misses, 1);
        assert_eq!(beta.stats().cache_hits, 0);
        assert_eq!(beta.stats().requests, 1);
        assert_eq!(alpha.cached_answers(), 1);
        assert_eq!(beta.cached_answers(), 1);

        // Catalog verbs charge no tenant.
        s.handle_line("releases");
        s.handle_line("use beta");
        assert_eq!(alpha.stats().requests, 2);
        assert_eq!(beta.stats().requests, 1);
        assert_eq!(s.totals().requests, 5);
        assert_eq!(s.totals().answered, 5);
    }

    /// Regression (ISSUE 7 satellite): close on a release with live
    /// leases must drain — block until busy hits zero — instead of racing
    /// the Arc drop.
    #[test]
    fn close_drains_outstanding_leases() {
        let catalog = Arc::new({
            let c = Catalog::new("alpha").unwrap();
            c.open("alpha", service(400)).unwrap();
            c.open("beta", service(800)).unwrap();
            c
        });
        let hold = Duration::from_millis(200);
        let worker = {
            let catalog = Arc::clone(&catalog);
            std::thread::spawn(move || {
                let lease = catalog.checkout("beta").unwrap();
                // The request is "in flight" for `hold`; the service must
                // stay answerable the whole time.
                std::thread::sleep(hold);
                let mut stats = SessionStats::default();
                let r = lease.handle(
                    &Request::parse("count Job=eng Disease=flu")
                        .unwrap()
                        .unwrap(),
                    &mut stats,
                );
                assert!(!r.is_error(), "{r:?}");
            })
        };
        // Wait until the worker holds its lease, then close.
        let deadline = Instant::now() + Duration::from_secs(5);
        while catalog.busy("beta") != Some(1) {
            assert!(Instant::now() < deadline, "worker never checked out");
            std::thread::yield_now();
        }
        let started = Instant::now();
        catalog.close("beta").unwrap();
        assert!(
            started.elapsed() >= hold / 2,
            "close returned before the lease drained"
        );
        assert_eq!(catalog.busy("beta"), None, "tenant removed after drain");
        worker.join().unwrap();
        // While closing/closed, new checkouts answer unknown-release.
        let mut s = CatalogSession::new(&catalog);
        let r = s.handle_line("use beta").unwrap();
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::UnknownRelease,
                ..
            }
        ));
    }

    #[test]
    fn reload_swaps_without_dropping_outstanding_leases() {
        let catalog = two_tenant_catalog();
        let old_lease = catalog.checkout("beta").unwrap();
        let (records, _groups) = catalog.reload("beta", service(1200)).unwrap();
        assert_eq!(records, 1200);
        // The outstanding lease still answers against the old release...
        let mut stats = SessionStats::default();
        let q = Request::parse("count Disease=flu").unwrap().unwrap();
        let Response::Answer(a) = old_lease.handle(&q, &mut stats) else {
            panic!("old lease must keep answering");
        };
        assert_eq!(a.support, 800, "old view");
        // ...while new checkouts see the new one.
        let new_lease = catalog.checkout("beta").unwrap();
        let Response::Answer(a) = new_lease.handle(&q, &mut stats) else {
            panic!("expected answer");
        };
        assert_eq!(a.support, 1200, "new view");
        // And the other tenant never noticed.
        let alpha = catalog.checkout("alpha").unwrap();
        assert_eq!(alpha.stats().requests, 0);
    }

    #[test]
    fn reload_from_source_rereads_the_artifact() {
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("beta.rppub");
        publication(400).save_to_path(&path).unwrap();

        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog
            .open_path("beta", &path, ServiceConfig::default())
            .unwrap();
        assert_eq!(catalog.list()[1].records, 400);

        // Republish the artifact in place, then hot-reload by name.
        publication(800).save_to_path(&path).unwrap();
        let mut s = CatalogSession::new(&catalog);
        let r = s.handle_line("reload beta").unwrap();
        let Response::Reloaded {
            release, records, ..
        } = r
        else {
            panic!("{r:?}");
        };
        assert_eq!(release, "beta");
        assert_eq!(records, 800);
        assert_eq!(catalog.list()[1].records, 800);

        // A programmatic open has no source.
        let r = s.handle_line("reload alpha").unwrap();
        let Response::Error { code, message } = r else {
            panic!("{r:?}")
        };
        assert_eq!(code, ErrorCode::Internal);
        assert!(message.contains("no source artifact"), "{message}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_recovers_a_degraded_streaming_tenant() {
        use crate::fault::{FaultHandle, FaultSchedule};
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("live.rppub");
        let wal = dir.join("live.rpwal");
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(format!("{}.spill", wal.display()));
        publication(400).save_to_path(&artifact).unwrap();

        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog
            .open_stream_path(
                "live",
                &artifact,
                &wal,
                StreamConfig::default(),
                None,
                ServiceConfig::default(),
            )
            .unwrap();
        assert!(catalog.list()[1].live, "streaming tenant reports live");

        // Swap in a fault-injected replacement; the reload source stays
        // registered. The WAL already exists, so the reopened log's
        // first flush-time fsync is sync 1 on this schedule.
        let faults: FaultHandle = Arc::new(FaultSchedule::fsync_at(1));
        let base = Publication::load_from_path(&artifact).unwrap();
        let stream =
            StreamPublisher::open_with(base, &wal, StreamConfig::default(), faults).unwrap();
        catalog
            .reload(
                "live",
                Arc::new(QueryService::streaming(
                    stream,
                    None,
                    ServiceConfig::default(),
                )),
            )
            .unwrap();

        let mut s = CatalogSession::new(&catalog);
        // The insert is acked (buffered); the flush hits the scripted
        // fsync failure and the tenant degrades.
        let r = s.handle_line("insert@live Job=eng Disease=flu").unwrap();
        assert!(!r.is_error(), "{r:?}");
        let r = s.handle_line("flush@live").unwrap();
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::Degraded,
                    ..
                }
            ),
            "{r:?}"
        );
        // Degraded: writes refuse, queries keep answering, and the
        // other tenant is untouched.
        let r = s.handle_line("insert@live Job=eng Disease=flu").unwrap();
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::Degraded,
                    ..
                }
            ),
            "{r:?}"
        );
        let r = s.handle_line("count@live Job=eng Disease=flu").unwrap();
        assert!(!r.is_error(), "{r:?}");
        let r = s.handle_line("count Job=eng Disease=flu").unwrap();
        assert!(!r.is_error(), "default tenant unaffected: {r:?}");
        // `reload` rebuilds the stream from the artifact + WAL on disk:
        // the release accepts writes again.
        let r = s.handle_line("reload live").unwrap();
        assert!(matches!(r, Response::Reloaded { .. }), "{r:?}");
        let r = s.handle_line("insert@live Job=eng Disease=flu").unwrap();
        assert!(!r.is_error(), "recovered release ingests: {r:?}");
        let r = s.handle_line("flush@live").unwrap();
        assert!(matches!(r, Response::Flushed { .. }), "{r:?}");
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn reloading_a_healthy_streaming_tenant_seals_the_old_write_handle() {
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("healthy.rppub");
        let wal = dir.join("healthy.rpwal");
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(format!("{}.spill", wal.display()));
        publication(400).save_to_path(&artifact).unwrap();

        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog
            .open_stream_path(
                "live",
                &artifact,
                &wal,
                StreamConfig::default(),
                None,
                ServiceConfig::default(),
            )
            .unwrap();

        let mut s = CatalogSession::new(&catalog);
        let mut stats = SessionStats::default();
        // Acked-but-unsynced tail (no flush): the reload must not lose it.
        for _ in 0..3 {
            let r = s.handle_line("insert@live Job=eng Disease=flu").unwrap();
            assert!(!r.is_error(), "{r:?}");
        }
        // A lease checked out *before* the reload keeps the old service
        // alive — exactly the writer that must not race the reopened WAL.
        let old_lease = catalog.checkout("live").unwrap();
        let (records, _) = catalog.reload_from_source("live").unwrap();
        assert_eq!(records, 403, "the unsynced tail was flushed, not lost");

        // The old service is sealed: its leaseholder's writes refuse...
        let ins = Request::parse("insert Job=eng Disease=flu")
            .unwrap()
            .unwrap();
        let r = old_lease.handle(&ins, &mut stats);
        assert!(
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::Degraded,
                    ..
                }
            ),
            "{r:?}"
        );
        // ...while its queries keep answering.
        let q = Request::parse("count Job=eng Disease=flu")
            .unwrap()
            .unwrap();
        assert!(!old_lease.handle(&q, &mut stats).is_error());
        // The reopened service owns the WAL exclusively: it ingests,
        // flushes, and serves the full durable history.
        let r = s.handle_line("insert@live Job=eng Disease=flu").unwrap();
        assert!(!r.is_error(), "{r:?}");
        let r = s.handle_line("flush@live").unwrap();
        assert!(matches!(r, Response::Flushed { .. }), "{r:?}");
        assert_eq!(catalog.list()[1].records, 404);
        let _ = std::fs::remove_file(&artifact);
    }

    #[test]
    fn a_concurrent_reload_of_the_same_release_is_refused() {
        let dir = std::env::temp_dir().join(format!("rp-catalog-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("guard.rppub");
        publication(400).save_to_path(&path).unwrap();
        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", service(400)).unwrap();
        catalog
            .open_path("beta", &path, ServiceConfig::default())
            .unwrap();
        // Simulate a rebuild still in flight on another thread.
        {
            let state = catalog.state.lock().unwrap();
            state
                .get("beta")
                .unwrap()
                .reloading
                .store(true, Ordering::SeqCst);
        }
        assert_eq!(
            catalog.reload_from_source("beta").unwrap_err(),
            CatalogError::Reloading("beta".into())
        );
        // The finished rebuild releases the claim; reload works again.
        {
            let state = catalog.state.lock().unwrap();
            state
                .get("beta")
                .unwrap()
                .reloading
                .store(false, Ordering::SeqCst);
        }
        catalog.reload_from_source("beta").unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn catalog_verbs_on_a_bare_service_answer_unknown_release() {
        let release = service(400);
        let catalog = Catalog::single(Arc::clone(&release));
        let mut s = CatalogSession::new(&catalog);
        let Response::Hello { release: name, .. } = s.hello() else {
            panic!("expected hello");
        };
        assert_eq!(name, None, "a bare catalog's banner names no release");
        for line in [
            "use beta",
            "releases",
            "reload beta",
            "count@beta Job=eng Disease=flu",
            "garbage",
        ] {
            let r = s.handle_line(line).unwrap();
            let Response::Error { code, .. } = r else {
                panic!("expected error for `{line}`, got {r:?}");
            };
            let want = if line == "garbage" {
                ErrorCode::UnknownCommand
            } else {
                ErrorCode::UnknownRelease
            };
            assert_eq!(code, want, "line `{line}`");
        }
        // Refusals and parse errors are the release's own requests.
        assert_eq!(release.stats().requests, 5);
        assert_eq!(release.stats().errors, 5);
        assert_eq!(s.totals().errors, 5);
    }

    #[test]
    fn routed_lines_record_the_service_stage_histograms() {
        use crate::obs::Hist;
        let obs = crate::obs::global();
        let stages = [
            Hist::ServiceParse,
            Hist::ServiceExecute,
            Hist::ServiceHandle,
        ];
        let counts = || stages.map(|hist| obs.summary(hist).count);
        let before = counts();
        let catalog = two_tenant_catalog();
        let mut s = CatalogSession::new(&catalog);
        // Sampling records one line in 8, so route a few samples' worth.
        for _ in 0..4 * crate::obs::SAMPLE_EVERY {
            s.handle_line("count@beta Job=eng Disease=flu");
        }
        let after = counts();
        for ((hist, before), after) in stages.iter().zip(before).zip(after) {
            assert!(after > before, "{}: {before} -> {after}", hist.name());
        }
    }
}

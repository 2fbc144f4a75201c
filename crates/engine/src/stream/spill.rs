//! The cold-group spill store: bounds the *owner-side* resident memory of
//! a stream.
//!
//! Queries need every group's **published** histogram, so that stays
//! resident; what a cold group can shed is its secret state — the raw
//! histogram, the RNG cursor, the compliance status and the
//! re-publication baseline. When the hot set exceeds the configured
//! residency bound, the least-recently-inserted group's secret state is
//! stored here and reloaded the next time an insert touches the group.
//!
//! ## Page and buffer management
//!
//! The store is a small page-managed heap, not an append-only log:
//!
//! * the file is an array of fixed [`PAGE_SIZE`] pages; a record owns an
//!   *extent* — one or more contiguous pages — and records re-spill **in
//!   place** when they still fit their extent, so the file stops growing
//!   under churn (`churn_does_not_grow_the_file` below);
//! * pages freed by [`forget`](SpillStore::forget) go on a free list and
//!   are reused before the file's high-water mark moves;
//! * all I/O goes through a bounded buffer pool ([`POOL_FRAMES`] frames)
//!   with clock (second-chance) eviction and dirty write-back — hot
//!   records never touch the disk, and an evicted page is written back
//!   whole, so any page the pool later reloads is complete on disk.
//!
//! A record is a newline-terminated line; a read that finds no trailing
//! newline inside the extent is a **torn record** and fails loudly with
//! [`StreamError::Format`] instead of silently truncating the state.
//!
//! The store is *working state*, not part of the durability contract:
//! the WAL and the v2 snapshot are, and the store is never fsynced. On
//! restart the spill file is recreated empty, and spilling never changes
//! a single published byte — the round trip is lossless
//! (`spill_round_trip_is_lossless` below, and the determinism suite
//! exercises it end to end).

use std::collections::{BTreeSet, HashMap};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use rp_core::incremental::GroupStatus;

use crate::fault::{self, CheckedFile, FaultHandle};
use crate::obs::Hist;
use crate::stream::StreamError;

/// Fixed page size of the spill heap.
const PAGE_SIZE: usize = 4096;

/// Buffer-pool capacity in frames (pages): 64 × 4 KiB = 256 KiB of
/// cached spill state regardless of how many groups go cold.
const POOL_FRAMES: usize = 64;

/// The secret state of one spilled group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpilledGroup {
    /// Raw SA histogram.
    pub raw_hist: Vec<u64>,
    /// The group's RNG cursor.
    pub rng_state: u64,
    /// Compliance status at spill time.
    pub status: GroupStatus,
    /// Raw records covered by the last SPS re-publication.
    pub republished_len: u64,
}

/// A record's location: `pages` contiguous pages starting at `page`,
/// holding `len` bytes of record (newline included).
#[derive(Debug, Clone, Copy)]
struct Extent {
    page: u64,
    pages: u64,
    len: usize,
}

impl Extent {
    fn page_span(len: usize) -> u64 {
        (len.div_ceil(PAGE_SIZE)) as u64
    }
}

/// One buffer-pool slot.
#[derive(Debug)]
struct Frame {
    page: u64,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    /// Clock reference bit: set on use, cleared as the hand sweeps by.
    referenced: bool,
}

/// Page-managed on-disk store of spilled group state: an in-memory
/// `key → extent` index over a paged file, fronted by a clock-evicting
/// buffer pool.
#[derive(Debug)]
pub(crate) struct SpillStore {
    file: CheckedFile,
    index: HashMap<Vec<u32>, Extent>,
    /// Pages below the high-water mark currently owned by no record.
    free: BTreeSet<u64>,
    /// File high-water mark, in pages.
    pages: u64,
    frames: Vec<Frame>,
    /// `page → frame slot` for pages resident in the pool.
    resident: HashMap<u64, usize>,
    /// Clock hand over `frames`.
    hand: usize,
    m: usize,
}

impl SpillStore {
    /// Creates (or truncates) the spill file with passthrough I/O.
    #[cfg(test)]
    pub fn create(path: &Path, m: usize) -> std::io::Result<Self> {
        Self::create_with(path, m, fault::passthrough())
    }

    /// Creates (or truncates) the spill file behind an injectable
    /// fault policy: page
    /// write-backs consult `faults` before touching the disk. Spill
    /// page I/O is idempotent (a full-page rewrite at a fixed offset),
    /// so transient injected faults are absorbed by bounded retry —
    /// unlike a WAL fsync, which is never retried.
    pub fn create_with(path: &Path, m: usize, faults: FaultHandle) -> std::io::Result<Self> {
        // rp-analyze: allow(fault-facade, "facade entry point: the handle is wrapped in CheckedFile below, so every page write-back consults the fault schedule")
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file: CheckedFile::new(file, faults),
            index: HashMap::new(),
            free: BTreeSet::new(),
            pages: 0,
            frames: Vec::new(),
            resident: HashMap::new(),
            hand: 0,
            m,
        })
    }

    /// Number of groups currently indexed.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether a group's state is held here.
    #[cfg(test)]
    pub fn contains(&self, key: &[u32]) -> bool {
        self.index.contains_key(key)
    }

    /// File high-water mark in pages (the file never grows past
    /// `pages × PAGE_SIZE` bytes).
    #[cfg(test)]
    pub fn file_pages(&self) -> u64 {
        self.pages
    }

    /// Writes every dirty frame back and empties the pool, so the file
    /// alone holds the store's content. Test-only: production code never
    /// needs the file and the pool to agree (the pool is authoritative).
    #[cfg(test)]
    pub fn flush_and_drop_cache(&mut self) -> std::io::Result<()> {
        for slot in 0..self.frames.len() {
            if self.frames[slot].dirty {
                self.write_back(slot)?;
            }
        }
        self.frames.clear();
        self.resident.clear();
        self.hand = 0;
        Ok(())
    }

    /// Stores a group's secret state. A key that is already spilled and
    /// whose new record fits its old extent is rewritten **in place**;
    /// otherwise the old pages are freed and the record goes to the
    /// first fitting free run (or extends the file as a last resort).
    pub fn spill(&mut self, key: &[u32], group: &SpilledGroup) -> std::io::Result<()> {
        assert_eq!(group.raw_hist.len(), self.m, "raw histogram arity");
        let _span = crate::obs::global().span(Hist::SpillPageWrite);
        let mut line = String::from("g");
        for &code in key {
            line.push('\t');
            line.push_str(&code.to_string());
        }
        for &c in &group.raw_hist {
            line.push('\t');
            line.push_str(&c.to_string());
        }
        let status = match group.status {
            GroupStatus::Compliant => 'c',
            GroupStatus::NeedsResampling => 'f',
        };
        line.push_str(&format!(
            "\t{}\t{}\t{}\n",
            group.rng_state, status, group.republished_len
        ));
        let bytes = line.as_bytes();
        let need = Extent::page_span(bytes.len());
        let extent = match self.index.get(key).copied() {
            // In-place rewrite: the record still fits where it lives.
            Some(old) if need <= old.pages => {
                for excess in old.page + need..old.page + old.pages {
                    self.free.insert(excess);
                }
                Extent {
                    page: old.page,
                    pages: need,
                    len: bytes.len(),
                }
            }
            other => {
                if let Some(old) = other {
                    self.free_extent(old);
                }
                self.allocate(bytes.len())
            }
        };
        self.write_record(extent, bytes)?;
        self.index.insert(key.to_vec(), extent);
        Ok(())
    }

    /// Reads a group's latest spilled state without removing it from the
    /// index (used when snapshotting the whole stream).
    pub fn read(&mut self, key: &[u32]) -> Result<SpilledGroup, StreamError> {
        let _span = crate::obs::global().span(Hist::SpillPageRead);
        let extent = *self
            .index
            .get(key)
            .ok_or_else(|| StreamError::Mismatch(format!("group {key:?} is not spilled")))?;
        let buf = self.read_record(extent)?;
        // A record must close with its newline; anything else is a torn
        // write (or foreign truncation of the file) and the state cannot
        // be trusted. Fail loudly rather than hand back a prefix.
        match buf.split_last() {
            Some((b'\n', body)) => {
                let line = std::str::from_utf8(body)
                    .map_err(|_| StreamError::Mismatch("spill record is not UTF-8".into()))?;
                self.parse(key, line)
            }
            _ => Err(StreamError::Format {
                line: extent.page as usize + 1,
                message: format!(
                    "torn spill record for group {key:?}: no trailing newline in its extent"
                ),
            }),
        }
    }

    /// Removes a group from the index (it is hot again) and returns its
    /// pages to the free list for reuse.
    pub fn forget(&mut self, key: &[u32]) {
        if let Some(extent) = self.index.remove(key) {
            self.free_extent(extent);
        }
    }

    // -- page allocation ---------------------------------------------------

    fn free_extent(&mut self, extent: Extent) {
        for page in extent.page..extent.page + extent.pages {
            self.free.insert(page);
        }
    }

    /// First-fit allocation: the lowest free run of enough contiguous
    /// pages, else fresh pages past the high-water mark.
    fn allocate(&mut self, len: usize) -> Extent {
        let need = Extent::page_span(len);
        let mut run_start = None;
        let mut run_len = 0u64;
        for &page in &self.free {
            match run_start {
                Some(start) if page == start + run_len => run_len += 1,
                _ => {
                    run_start = Some(page);
                    run_len = 1;
                }
            }
            if run_len == need {
                let start = run_start.expect("run in progress");
                for p in start..start + need {
                    self.free.remove(&p);
                }
                return Extent {
                    page: start,
                    pages: need,
                    len,
                };
            }
        }
        let start = self.pages;
        self.pages += need;
        Extent {
            page: start,
            pages: need,
            len,
        }
    }

    // -- buffer pool -------------------------------------------------------

    /// Pins `page` into the pool, loading it from the file (or zeroes,
    /// for a page that never reached the disk) on a miss.
    fn frame_for(&mut self, page: u64) -> std::io::Result<usize> {
        if let Some(&slot) = self.resident.get(&page) {
            self.frames[slot].referenced = true;
            return Ok(slot);
        }
        let slot = if self.frames.len() < POOL_FRAMES {
            self.frames.push(Frame {
                page,
                data: Box::new([0u8; PAGE_SIZE]),
                dirty: false,
                referenced: true,
            });
            self.frames.len() - 1
        } else {
            // Clock sweep: clear reference bits until a cold frame turns
            // up, write it back if dirty, take its slot.
            let victim = loop {
                let here = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                let frame = &mut self.frames[here];
                if frame.referenced {
                    frame.referenced = false;
                } else {
                    break here;
                }
            };
            if self.frames[victim].dirty {
                self.write_back(victim)?;
            }
            self.resident.remove(&self.frames[victim].page);
            let frame = &mut self.frames[victim];
            frame.page = page;
            frame.dirty = false;
            frame.referenced = true;
            frame.data.fill(0);
            victim
        };
        // Load whatever the file holds; a short read (sparse hole or a
        // page evicted-before-written neighbor) leaves zeroes, which is
        // exactly what an unwritten page is.
        self.file.seek(SeekFrom::Start(page * PAGE_SIZE as u64))?;
        let mut filled = 0;
        while filled < PAGE_SIZE {
            let n = self.file.read(&mut self.frames[slot].data[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        self.resident.insert(page, slot);
        Ok(slot)
    }

    /// Writes one frame's full page back to the file. The rewrite is
    /// idempotent — a whole page at a fixed offset — so a transient
    /// fault (even a torn attempt) is safely absorbed by retrying the
    /// seek-and-write wholesale; only a persistent fault surfaces.
    fn write_back(&mut self, slot: usize) -> std::io::Result<()> {
        let page = self.frames[slot].page;
        let offset = page * PAGE_SIZE as u64;
        let file = &mut self.file;
        let data = &self.frames[slot].data;
        fault::with_retry(|| -> std::io::Result<()> {
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(&data[..])
        })?;
        self.frames[slot].dirty = false;
        Ok(())
    }

    fn write_record(&mut self, extent: Extent, bytes: &[u8]) -> std::io::Result<()> {
        for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
            let slot = self.frame_for(extent.page + i as u64)?;
            self.frames[slot].data[..chunk.len()].copy_from_slice(chunk);
            self.frames[slot].dirty = true;
        }
        Ok(())
    }

    fn read_record(&mut self, extent: Extent) -> Result<Vec<u8>, StreamError> {
        let mut buf = Vec::with_capacity(extent.len);
        let mut remaining = extent.len;
        for i in 0..extent.pages {
            let take = remaining.min(PAGE_SIZE);
            let slot = self.frame_for(extent.page + i)?;
            buf.extend_from_slice(&self.frames[slot].data[..take]);
            remaining -= take;
        }
        Ok(buf)
    }

    fn parse(&self, key: &[u32], line: &str) -> Result<SpilledGroup, StreamError> {
        let bad = |message: String| StreamError::Mismatch(format!("spill record: {message}"));
        let mut parts = line.split('\t');
        if parts.next() != Some("g") {
            return Err(bad("missing `g` tag".into()));
        }
        for &expected in key {
            let got: u32 = parts
                .next()
                .ok_or_else(|| bad("short key".into()))?
                .parse()
                .map_err(|e| bad(format!("bad key code: {e}")))?;
            if got != expected {
                return Err(bad(format!("key mismatch (index corruption): {got}")));
            }
        }
        let mut raw_hist = Vec::with_capacity(self.m);
        for _ in 0..self.m {
            raw_hist.push(
                parts
                    .next()
                    .ok_or_else(|| bad("short histogram".into()))?
                    .parse()
                    .map_err(|e| bad(format!("bad count: {e}")))?,
            );
        }
        let rng_state: u64 = parts
            .next()
            .ok_or_else(|| bad("missing rng state".into()))?
            .parse()
            .map_err(|e| bad(format!("bad rng state: {e}")))?;
        let status = match parts.next() {
            Some("c") => GroupStatus::Compliant,
            Some("f") => GroupStatus::NeedsResampling,
            other => return Err(bad(format!("bad status {other:?}"))),
        };
        let republished_len: u64 = parts
            .next()
            .ok_or_else(|| bad("missing republished_len".into()))?
            .parse()
            .map_err(|e| bad(format!("bad republished_len: {e}")))?;
        if parts.next().is_some() {
            return Err(bad("trailing fields".into()));
        }
        Ok(SpilledGroup {
            raw_hist,
            rng_state,
            status,
            republished_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rp-spill-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn group(seed: u64) -> SpilledGroup {
        SpilledGroup {
            raw_hist: vec![seed, seed + 1, 0],
            rng_state: seed * 31,
            status: if seed.is_multiple_of(2) {
                GroupStatus::Compliant
            } else {
                GroupStatus::NeedsResampling
            },
            republished_len: seed / 2,
        }
    }

    #[test]
    fn spill_round_trip_is_lossless() {
        let mut store = SpillStore::create(&tmp("roundtrip.spill"), 3).unwrap();
        for k in 0..20u64 {
            store.spill(&[k as u32, 1], &group(k)).unwrap();
        }
        assert_eq!(store.len(), 20);
        for k in (0..20u64).rev() {
            assert_eq!(store.read(&[k as u32, 1]).unwrap(), group(k));
        }
    }

    #[test]
    fn latest_record_wins_and_forget_removes() {
        let mut store = SpillStore::create(&tmp("latest.spill"), 3).unwrap();
        store.spill(&[5], &group(1)).unwrap();
        store.spill(&[5], &group(2)).unwrap();
        assert_eq!(store.read(&[5]).unwrap(), group(2));
        assert_eq!(store.len(), 1);
        store.forget(&[5]);
        assert!(!store.contains(&[5]));
        assert!(store.read(&[5]).is_err());
    }

    #[test]
    fn interleaved_reads_do_not_corrupt_writes() {
        let mut store = SpillStore::create(&tmp("interleave.spill"), 3).unwrap();
        store.spill(&[0], &group(3)).unwrap();
        let _ = store.read(&[0]).unwrap();
        store.spill(&[1], &group(4)).unwrap();
        assert_eq!(store.read(&[0]).unwrap(), group(3));
        assert_eq!(store.read(&[1]).unwrap(), group(4));
    }

    #[test]
    fn round_trip_survives_pool_eviction() {
        let mut store = SpillStore::create(&tmp("evict.spill"), 3).unwrap();
        // 4× the pool capacity: most records' pages get evicted (written
        // back) and must reload from the file intact.
        let n = (POOL_FRAMES * 4) as u64;
        for k in 0..n {
            store.spill(&[k as u32], &group(k)).unwrap();
        }
        for k in 0..n {
            assert_eq!(store.read(&[k as u32]).unwrap(), group(k), "key {k}");
        }
    }

    #[test]
    fn churn_does_not_grow_the_file() {
        let mut store = SpillStore::create(&tmp("churn.spill"), 3).unwrap();
        for k in 0..8u64 {
            store.spill(&[k as u32], &group(k)).unwrap();
        }
        let high_water = store.file_pages();
        // Spill/reload/re-spill cycles reuse freed pages and rewrite
        // in place: an append-only store would grow without bound here.
        for round in 0..200u64 {
            let k = round % 8;
            store.forget(&[k as u32]);
            store.spill(&[k as u32], &group(round)).unwrap();
        }
        assert_eq!(store.len(), 8);
        assert_eq!(
            store.file_pages(),
            high_water,
            "churn over a fixed working set must not move the high-water mark"
        );
        for k in 0..8u64 {
            let expected = 192 + k; // last round that touched this key
            assert_eq!(store.read(&[k as u32]).unwrap(), group(expected));
        }
    }

    #[test]
    fn transient_write_faults_are_absorbed_by_retry() {
        use crate::fault::{FaultKind, FaultSchedule};
        let faults = std::sync::Arc::new(FaultSchedule::write_at(1, FaultKind::Eio));
        let mut store =
            SpillStore::create_with(&tmp("transient.spill"), 3, faults.clone()).unwrap();
        // Enough records to force eviction write-backs through the
        // scripted fault; the retry's second attempt succeeds.
        let n = (POOL_FRAMES * 2) as u64;
        for k in 0..n {
            store.spill(&[k as u32], &group(k)).unwrap();
        }
        for k in 0..n {
            assert_eq!(store.read(&[k as u32]).unwrap(), group(k), "key {k}");
        }
        assert_eq!(faults.injected(), 1, "the scripted fault did fire");
    }

    #[test]
    fn persistent_write_faults_error_loudly() {
        use crate::fault::FaultSchedule;
        // Period 1: every operation faults, so bounded retry gives up.
        let faults = std::sync::Arc::new(FaultSchedule::sampled(5, 1));
        let mut store = SpillStore::create_with(&tmp("persistent.spill"), 3, faults).unwrap();
        let n = (POOL_FRAMES * 2) as u64;
        let mut failed = false;
        for k in 0..n {
            if store.spill(&[k as u32], &group(k)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "eviction write-backs surface the persistent fault");
    }

    #[test]
    fn torn_record_fails_loudly_instead_of_truncating() {
        let path = tmp("torn.spill");
        let mut store = SpillStore::create(&path, 3).unwrap();
        store.spill(&[9], &group(6)).unwrap();
        store.flush_and_drop_cache().unwrap();
        // Overwrite the record's trailing newline on disk — the classic
        // torn-write shape a crash mid-write leaves behind.
        let mut bytes = std::fs::read(&path).unwrap();
        let nl = bytes.iter().position(|&b| b == b'\n').expect("newline");
        bytes[nl] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let err = store.read(&[9]).unwrap_err();
        assert!(matches!(err, StreamError::Format { .. }), "{err:?}");
        assert!(err.to_string().contains("torn spill record"), "{err}");
    }
}

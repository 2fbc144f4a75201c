//! Every way a serve session ends is counted exactly once: quit, end of
//! input, a transport read error, a transport write error and a banner
//! error each add one `serve.sessions_opened`, one
//! `serve.sessions_closed` and one `serve.session` observation, so
//! `opened − closed` is the number of live sessions.
//!
//! This binary holds a single test, so the process-global registry has
//! no other writers while it runs.

use std::io::{self, BufReader, Read, Write};
use std::sync::Arc;

use rp_repro::engine::{obs, serve, Catalog, Publisher, QueryService, ServiceConfig};
use rp_repro::table::{Attribute, Schema, TableBuilder};

fn single_catalog() -> Catalog {
    let schema = Schema::new(vec![
        Attribute::new("Job", ["eng", "doc"]),
        Attribute::new("Disease", ["flu", "none"]),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..200u32 {
        b.push_codes(&[i % 2, (i / 2) % 2]).unwrap();
    }
    let publication = Publisher::new(b.build())
        .sa(1)
        .seed(5)
        .publish()
        .expect("fixture publishes");
    Catalog::single(Arc::new(QueryService::from_publication(
        &publication,
        ServiceConfig { cache_entries: 8 },
    )))
}

/// The session counters as one `(opened, closed, session count)` triple.
fn session_counts() -> (u64, u64, u64) {
    let registry = obs::global();
    let counter = |name: &str| {
        registry
            .counter_values()
            .into_iter()
            .find(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    let sessions = registry
        .histogram_summaries()
        .into_iter()
        .find(|&(n, _)| n == "serve.session")
        .expect("missing histogram serve.session")
        .1
        .count;
    (
        counter("serve.sessions_opened"),
        counter("serve.sessions_closed"),
        sessions,
    )
}

/// A peer that resets the connection on the first read.
struct ResetReader;

impl Read for ResetReader {
    fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
        Err(io::ErrorKind::ConnectionReset.into())
    }
}

/// A peer that takes the banner line, then fails every later write.
#[derive(Default)]
struct BannerThenBrokenPipe {
    banner_done: bool,
}

impl Write for BannerThenBrokenPipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.banner_done {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.banner_done = buf.contains(&b'\n');
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_session_exit_path_is_counted_once() {
    let catalog = single_catalog();
    let before = session_counts();

    // Quit, and end of input without a quit.
    serve(&catalog, &b"ping\nquit\n"[..], io::sink()).expect("quit session");
    serve(&catalog, &b"ping\n"[..], io::sink()).expect("EOF session");
    // A transport read error, then a transport write error after the banner.
    serve(&catalog, BufReader::new(ResetReader), io::sink()).expect_err("reset read");
    serve(&catalog, &b"ping\n"[..], BannerThenBrokenPipe::default()).expect_err("broken write");
    // A named catalog whose default release is not open: the banner is
    // the routing error and the session ends at once.
    let empty = Catalog::new("alpha").expect("valid default name");
    let mut out = Vec::new();
    serve(&empty, &b"ping\n"[..], &mut out).expect("banner-error session");
    assert!(String::from_utf8(out).unwrap().starts_with("error "));

    let after = session_counts();
    let delta = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    assert_eq!(delta, (5, 5, 5), "(opened, closed, serve.session) deltas");
}

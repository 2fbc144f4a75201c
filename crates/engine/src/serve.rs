//! The line-oriented session loop: one transport function shared by
//! every surface.
//!
//! [`serve`] drives a [`Catalog`] over any `BufRead`/`Write` pair —
//! stdin/stdout for `rpctl serve`, a `TcpStream` for each connection of
//! [`crate::server::Server`]. A single release is served as a one-entry
//! catalog ([`Catalog::single`]), so there is exactly one loop, and
//! because both surfaces run it over the same shared catalog, a given
//! request stream produces byte-identical response bytes on either
//! transport (the root integration suite proves it).
//!
//! A session opens with the versioned `HELLO` banner, then answers one
//! request per line until `quit` or end of input:
//!
//! ```text
//! HELLO rp/5 sa=Disease records=6000 groups=6 p=0.5
//! > info
//! publication sa=Disease records=6000 groups=6 p=0.5 lambda=0.3 delta=0.3 seed=7
//! > count Job=engineer Disease=asthma
//! est=412.331 support=2000 observed=309 f=0.2061655 ci95=0.162,0.249
//! > garbage
//! error code=unknown-command unknown command `garbage`; try count/batch/info/stats/ping/quit
//! > quit
//! bye
//! ```
//!
//! Protocol-level failures answer a structured `error code=...` line and
//! the loop keeps serving — a bad request must never take a session down.
//! That includes unreadable bytes: a line that is not UTF-8, or whose
//! newline does not arrive within 64 KiB, answers `error code=parse` (an
//! over-long line is skipped up to its newline), so one session's read
//! buffer stays bounded. Only transport I/O errors abort the session.
//! That includes the per-connection read/write deadlines
//! [`crate::server::Server`] may arm: when a socket read times out, the
//! blocking read surfaces `WouldBlock`/`TimedOut`, the server treats the
//! session as idle and reaps it cleanly (the connection slot is released;
//! nothing is logged as a failure). Degraded backends still serve —
//! writes answer `error code=degraded` while reads keep flowing (see
//! [`crate::service::QueryService`]).

use std::io::{self, BufRead, Read, Write};

use crate::catalog::{Catalog, CatalogSession};
use crate::obs::{Counter, Event, Hist};
use crate::protocol::{ErrorCode, Response};
use crate::service::SessionStats;

/// Longest request line a session reads, newline included. A line whose
/// newline has not arrived within this many bytes is refused and skipped.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Runs one serve session over `catalog`: the `HELLO` banner, then
/// request/response lines from `input` to `output` until `quit` or end
/// of input. Requests route through a [`CatalogSession`] that starts on
/// the catalog's default release, which is charged the session start.
/// Returns the session's counter totals (each release keeps its own).
///
/// If the catalog's default release is not open, the banner position
/// carries the routing error and the session ends immediately.
///
/// # Errors
///
/// Returns only I/O errors on the transport; protocol-level problems are
/// reported to the client as `error code=...` lines.
pub fn serve<R: BufRead, W: Write>(
    catalog: &Catalog,
    mut input: R,
    mut output: W,
) -> io::Result<SessionStats> {
    let obs = crate::obs::global();
    obs.inc(Counter::ServeSessionsOpened);
    obs.trace(Event::SessionOpen);
    let _open = OpenSession {
        start: obs.now_ns(),
    };
    let mut routing = CatalogSession::new(catalog);
    let banner = routing.hello();
    writeln!(output, "{}", banner.encode())?;
    output.flush()?;
    if banner.is_error() {
        return Ok(routing.totals());
    }
    let mut buf = Vec::new();
    while let Some(line) = read_request(&mut input, &mut buf)? {
        // Always-on per-request latency (parse through write+flush):
        // records into `serve.request` when the guard drops at the end
        // of this iteration — including the `bye` break path.
        let _request_span = obs.span(Hist::ServeRequest);
        let response = match line {
            Ok(line) => routing.handle_line(line),
            Err(unreadable) => Some(routing.answer_locally(unreadable)),
        };
        let Some(response) = response else {
            continue; // blank line
        };
        let t0 = obs.sampled_start(Hist::ServeEncode);
        let text = response.encode();
        if let Some(t0) = t0 {
            obs.record_since(Hist::ServeEncode, t0);
        }
        writeln!(output, "{text}")?;
        output.flush()?;
        if matches!(response, Response::Bye) {
            break;
        }
    }
    Ok(routing.totals())
}

/// The one close site of a session: dropped on every exit from [`serve`]
/// — quit, end of input, a banner error, a transport error or a read
/// timeout — so each opened session is counted closed exactly once.
struct OpenSession {
    start: u64,
}

impl Drop for OpenSession {
    fn drop(&mut self) {
        let obs = crate::obs::global();
        obs.inc(Counter::ServeSessionsClosed);
        obs.trace(Event::SessionClose);
        obs.record_since(Hist::ServeSession, self.start);
    }
}

/// Reads the next request line into `buf`, stripping its `\n` (and a
/// `\r` before it) exactly as `BufRead::lines` does. Returns `None` at
/// end of input, and the `error code=parse` answer for a line that is not
/// UTF-8 or is longer than [`MAX_LINE_BYTES`] — the rest of which is
/// skipped unbuffered — so `buf` never holds more than the cap.
fn read_request<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, Response>>> {
    let parse_error = |message: String| Response::Error {
        code: ErrorCode::Parse,
        message,
    };
    buf.clear();
    if input
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', buf)?
        == 0
    {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() == MAX_LINE_BYTES {
        input.skip_until(b'\n')?;
        return Ok(Some(Err(parse_error(format!(
            "request line longer than {MAX_LINE_BYTES} bytes; skipped"
        )))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|_| {
        parse_error("request line is not valid UTF-8".to_string())
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Response, PROTOCOL_VERSION};
    use crate::publisher::Publisher;
    use crate::service::{QueryService, ServiceConfig};
    use rp_table::{Attribute, Schema, TableBuilder};
    use std::sync::Arc;

    fn fixture_publication() -> crate::publication::Publication {
        let schema = Schema::new(vec![
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        // Balanced SA frequencies keep both 200-record groups under their
        // Equation-10 threshold, so SPS degenerates to UP and the
        // published record counts stay exact — the tests rely on that.
        let mut b = TableBuilder::new(schema);
        for i in 0..400u32 {
            b.push_codes(&[i % 2, (i / 2) % 2]).unwrap();
        }
        Publisher::new(b.build()).sa(1).seed(3).publish().unwrap()
    }

    fn fixture_service() -> QueryService {
        QueryService::from_publication(&fixture_publication(), ServiceConfig::default())
    }

    fn run(input: &str) -> (String, SessionStats) {
        run_bytes(input.as_bytes())
    }

    fn run_bytes(input: &[u8]) -> (String, SessionStats) {
        let catalog = Catalog::single(Arc::new(fixture_service()));
        let mut out = Vec::new();
        let stats = serve(&catalog, input, &mut out).unwrap();
        (String::from_utf8(out).unwrap(), stats)
    }

    #[test]
    fn session_opens_with_versioned_hello() {
        let (out, stats) = run("quit\n");
        let banner = out.lines().next().unwrap();
        let parsed = Response::parse(banner).unwrap();
        assert!(
            matches!(parsed, Response::Hello { version, .. } if version == PROTOCOL_VERSION),
            "{banner}"
        );
        assert!(out.ends_with("bye\n"), "{out}");
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn answers_count_lines() {
        let (out, stats) = run("count Job=eng Disease=flu\nquit\n");
        let answer = out.lines().nth(1).unwrap();
        assert!(answer.starts_with("est="), "{answer}");
        assert!(answer.contains("support=200"), "{answer}");
        assert!(answer.contains("ci95="), "{answer}");
        assert_eq!(stats.answered, 2); // the query + quit's bye
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn verb_is_optional_and_blank_lines_skipped() {
        let (out, stats) = run("\n\nJob=doc Disease=none\n");
        assert!(out.lines().nth(1).unwrap().starts_with("est="), "{out}");
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn info_reports_parameters() {
        let (out, _) = run("info\nquit\n");
        let info = out.lines().nth(1).unwrap();
        assert!(info.contains("sa=Disease"), "{info}");
        assert!(info.contains("records=400"), "{info}");
        assert!(info.contains("p=0.5"), "{info}");
        assert!(info.contains("lambda=0.3"), "{info}");
        assert!(info.contains("seed=3"), "{info}");
    }

    #[test]
    fn errors_do_not_stop_the_loop() {
        let (out, stats) = run("garbage\nJob=eng\ncount Job=eng Disease=flu\n");
        let lines: Vec<&str> = out.lines().skip(1).collect();
        assert!(lines[0].starts_with("error code=unknown-command"), "{out}");
        assert!(lines[1].starts_with("error code=bad-query"), "{out}");
        assert!(lines[2].starts_with("est="), "{out}");
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.answered, 1);
    }

    #[test]
    fn batch_answers_on_one_line() {
        let (out, stats) = run("batch Job=eng Disease=flu; Job=doc Disease=none\nquit\n");
        let line = out.lines().nth(1).unwrap();
        let parsed = Response::parse(line).unwrap();
        let Response::Batch(answers) = parsed else {
            panic!("expected batch response: {line}");
        };
        assert_eq!(answers.len(), 2);
        assert_eq!(stats.answered, 2);
    }

    #[test]
    fn input_end_without_quit_is_a_clean_session() {
        let (out, stats) = run("ping\n");
        assert!(out.ends_with("pong\n"), "{out}");
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn unreadable_lines_answer_parse_errors_and_stay_within_the_cap() {
        let mut input = b"\xff\n".to_vec();
        input.extend(std::iter::repeat_n(b'x', 1 << 20));
        input.extend(b"\ncount Job=eng Disease=flu\r\n");
        let (out, stats) = run_bytes(&input);
        let lines: Vec<&str> = out.lines().skip(1).collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].starts_with("error code=parse"), "{out}");
        assert!(lines[0].contains("UTF-8"), "{out}");
        assert!(lines[1].starts_with("error code=parse"), "{out}");
        assert!(lines[1].contains("longer than"), "{out}");
        assert!(lines[2].starts_with("est="), "{out}");
        assert_eq!((stats.requests, stats.errors), (3, 2));
        // The same reader the loop uses never buffers past the cap, even
        // across the 1 MiB line.
        let mut reader = &input[..];
        let mut buf = Vec::new();
        let mut read = 0;
        while read_request(&mut reader, &mut buf).unwrap().is_some() {
            assert!(buf.capacity() <= 2 * MAX_LINE_BYTES, "{}", buf.capacity());
            read += 1;
        }
        assert_eq!(read, 3);
    }

    /// The nine counters of one `stats` line, minus `sessions`.
    fn counts(s: &SessionStats) -> [u64; 8] {
        [
            s.requests,
            s.answered,
            s.errors,
            s.cache_hits,
            s.cache_misses,
            s.inserts,
            s.degraded,
            s.faults,
        ]
    }

    #[test]
    fn a_bare_session_counts_exactly_what_its_release_counts() {
        use crate::fault::{FaultHandle, FaultSchedule};
        use crate::stream::{StreamConfig, StreamPublisher};
        let dir = std::env::temp_dir().join(format!("rp-serve-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("counts.rpwal");
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(format!("{}.spill", wal.display()));
        // `Wal::create_with` consumes syncs 1-2, so the flush's fsync is
        // sync 3: scripted to fail and degrade the release.
        let faults: FaultHandle = Arc::new(FaultSchedule::fsync_at(3));
        let stream = StreamPublisher::open_with(
            fixture_publication(),
            &wal,
            StreamConfig::default(),
            faults,
        )
        .unwrap();
        let release = Arc::new(QueryService::streaming(
            stream,
            None,
            ServiceConfig::default(),
        ));
        let catalog = Catalog::single(Arc::clone(&release));
        let mut input = b"count Job=eng Disease=flu\n\
            count Disease=flu Job=eng\n\
            batch Job=eng Disease=flu; Job=doc Disease=none\n\
            count Job\n"
            .to_vec();
        input.extend(b"\xff\n");
        input.extend(
            b"use beta\n\
            insert Job=doc Disease=none\n\
            flush\n\
            insert Job=doc Disease=none\n\
            quit\n",
        );
        let mut out = Vec::new();
        let totals = serve(&catalog, &input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 11, "{text}");
        let stats = release.stats();
        assert_eq!(counts(&totals), counts(&stats), "{text}");
        // requests, answered, errors, hits, misses, inserts, degraded, faults
        assert_eq!(counts(&stats), [10, 5, 5, 1, 1, 1, 2, 2], "{text}");
        assert_eq!(stats.sessions, 1);
    }

    #[test]
    fn a_named_session_counts_its_tenants_plus_its_local_answers() {
        let alpha = Arc::new(fixture_service());
        let beta = Arc::new(fixture_service());
        let catalog = Catalog::new("alpha").unwrap();
        catalog.open("alpha", Arc::clone(&alpha)).unwrap();
        catalog.open("beta", Arc::clone(&beta)).unwrap();
        // Local answers: `releases`, `use beta`, `use gamma`,
        // `count@gamma`, the parse error and the non-UTF-8 line.
        let mut input = b"count Job=eng Disease=flu\n\
            count Job=eng Disease=flu\n\
            releases\n\
            count@beta Job=doc Disease=none\n\
            use beta\n\
            batch Job=eng Disease=flu; Job=doc Disease=none\n\
            insert Job=eng Disease=flu\n\
            use gamma\n\
            count@gamma Disease=flu\n\
            count Job\n"
            .to_vec();
        input.extend(b"\xff\nstats\nquit\n");
        let mut out = Vec::new();
        let totals = serve(&catalog, &input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 14, "{text}");
        let (a, b) = (counts(&alpha.stats()), counts(&beta.stats()));
        let local: [u64; 8] = [6, 2, 4, 0, 0, 0, 0, 0];
        let sum: Vec<u64> = (0..8).map(|i| a[i] + b[i] + local[i]).collect();
        assert_eq!(counts(&totals).to_vec(), sum, "{text}");
        // requests, answered, errors, hits, misses, inserts, degraded, faults
        assert_eq!(a, [2, 2, 0, 1, 1, 0, 0, 0], "{text}");
        assert_eq!(b, [5, 4, 1, 0, 1, 0, 0, 0], "{text}");
        assert_eq!((alpha.stats().sessions, beta.stats().sessions), (1, 0));
    }

    #[test]
    fn engine_without_publication_serves_too() {
        use crate::engine::QueryEngine;

        let schema = Schema::new(vec![
            Attribute::new("Job", ["eng", "doc"]),
            Attribute::new("Disease", ["flu", "none"]),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..400u32 {
            b.push_codes(&[i % 2, (i / 2) % 2]).unwrap();
        }
        let publication = Publisher::new(b.build()).sa(1).seed(3).publish().unwrap();
        let service = QueryService::new(
            Arc::new(QueryEngine::new(&publication)),
            None,
            ServiceConfig::default(),
        );
        let catalog = Catalog::single(Arc::new(service));
        let mut out = Vec::new();
        let stats = serve(&catalog, &b"info\n"[..], &mut out).unwrap();
        assert_eq!(stats.answered, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("records=400"), "{text}");
        assert!(!text.contains("seed="), "{text}");
    }
}

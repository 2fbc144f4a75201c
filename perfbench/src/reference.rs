//! A transport reference, measured beside the workload on the same CPU.
//!
//! On a shared virtual host the cost of a loopback round trip moves by
//! half or more between phases of seconds to minutes, and a whole run can
//! fall into a slow phase, so no estimator over one run's own latencies
//! can remove it. The closed loops therefore interleave, every [`EVERY`]
//! requests, a few round trips of a fixed line through a trivial echo
//! process pinned beside the server. It reads and writes a line the way
//! `rpctl serve` does (a buffered reader, one write and flush per line, no
//! `TCP_NODELAY`), so it pays the same syscalls, socket path and
//! cross-process wake-ups as a request, and none of the program's work.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Stdio};
use std::time::Instant;

/// Requests between two reference samples.
pub const EVERY: u64 = 64;
/// Echo round trips per sample.
const ROUND_TRIPS: usize = 4;
/// The echoed line: as long as a typical `count` answer.
const LINE: &[u8] = b"est=1234.5678 support=4321 sd=12.3456 n=300000 p=0.5 lambda=0.31\n";

/// The echo child and this side's connection to it.
pub struct Reference {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
    child: Child,
}

impl Reference {
    /// Starts `exe --echo` pinned to `cpu` and connects to it.
    pub fn start(exe: &Path, cpu: Option<usize>) -> Result<Self, String> {
        let mut child = crate::server::pinned(exe, cpu)
            .arg("--echo")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("echo reference: {e}"))?;
        let mut port = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut port);
        }
        let connected = port
            .trim()
            .parse::<u16>()
            .map_err(|_| "echo reference printed no port".to_string())
            .and_then(|port| {
                TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("echo connect: {e}"))
            });
        let writer = match connected {
            Ok(w) => w,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let reader = writer
            .set_nodelay(true)
            .and_then(|()| writer.set_read_timeout(Some(crate::client::RESPONSE_TIMEOUT)))
            .and_then(|()| writer.try_clone())
            .map(BufReader::new);
        match reader {
            Ok(reader) => Ok(Self {
                reader,
                writer,
                buf: Vec::with_capacity(LINE.len()),
                child,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("echo socket options: {e}"))
            }
        }
    }

    /// One sample: [`ROUND_TRIPS`] echo round trips, each latency pushed
    /// to `out` in nanoseconds.
    pub fn sample(&mut self, out: &mut Vec<u64>) -> Result<(), String> {
        for _ in 0..ROUND_TRIPS {
            self.buf.clear();
            let sent = Instant::now();
            self.writer
                .write_all(LINE)
                .map_err(|e| format!("echo send: {e}"))?;
            self.reader
                .read_until(b'\n', &mut self.buf)
                .map_err(|e| format!("echo recv: {e}"))?;
            out.push(sent.elapsed().as_nanos() as u64);
            if self.buf != LINE {
                return Err("echo returned another line".into());
            }
        }
        Ok(())
    }

    /// The echo child's CPU time so far, in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        crate::server::cpu_ns(self.child.id())
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The body of `--echo`: prints the port it listens on, then echoes every
/// line of one connection until it closes.
pub fn echo() {
    let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
        return;
    };
    let Ok(addr) = listener.local_addr() else {
        return;
    };
    println!("{}", addr.port());
    let _ = std::io::stdout().flush();
    let Ok((stream, _)) = listener.accept() else {
        return;
    };
    let Ok(out) = stream.try_clone() else {
        return;
    };
    let mut out = std::io::BufWriter::new(out);
    let mut input = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return,
        }
        if write!(out, "{line}").and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

//! One rp/5 session over loopback TCP, as the load generator drives it.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a response may take before it counts as a timeout failure.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// An open session: the `HELLO` banner already read.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    /// The banner line.
    pub hello: String,
}

impl Conn {
    /// Connects, disables Nagle on the client side, and reads the banner.
    pub fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(RESPONSE_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Self {
            reader,
            writer: stream,
            out: Vec::with_capacity(512),
            hello: String::new(),
        };
        let mut hello = String::new();
        conn.recv(&mut hello)?;
        if !hello.starts_with("HELLO rp/") {
            return Err(format!("unexpected banner `{hello}`"));
        }
        conn.hello = hello;
        Ok(conn)
    }

    /// Sends one request line (newline appended) in a single write.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.queue(line);
        self.send_queued()
    }

    /// Appends one request line to the pending output.
    pub fn queue(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    /// Sends every queued line in a single write.
    pub fn send_queued(&mut self) -> Result<(), String> {
        let mut rest = &self.out[..];
        let started = Instant::now();
        while !rest.is_empty() {
            match self.writer.write(rest) {
                Ok(0) => return Err("send: connection closed".into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => wait(started)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        self.out.clear();
        Ok(())
    }

    /// Whether a whole response line is already buffered, so the next
    /// [`Conn::recv`] needs no read call.
    pub fn has_buffered_line(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    /// Reads one response line into `buf` (newline stripped).
    pub fn recv(&mut self, buf: &mut String) -> Result<(), String> {
        buf.clear();
        let started = Instant::now();
        loop {
            // On a would-block, `read_line` has kept any partial line in
            // `buf`; the retry appends the rest.
            match self.reader.read_line(buf) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(_) if buf.ends_with('\n') => {
                    buf.pop();
                    return Ok(());
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => wait(started)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::TimedOut => {
                    return Err(format!("timeout after {RESPONSE_TIMEOUT:?}"));
                }
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// One request, one response.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        let mut buf = String::new();
        self.recv(&mut buf)?;
        Ok(buf)
    }
}

/// One polling step: yield the CPU (to the other generator thread, if it
/// has work), or fail once the response is overdue.
fn wait(started: Instant) -> Result<(), String> {
    if started.elapsed() > RESPONSE_TIMEOUT {
        return Err(format!("timeout after {RESPONSE_TIMEOUT:?}"));
    }
    std::thread::yield_now();
    Ok(())
}

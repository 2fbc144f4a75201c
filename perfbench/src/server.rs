//! The system under test as a child process: `rpctl publish` on the
//! generated CSV, then `rpctl serve --listen 127.0.0.1:0`, with its
//! resource use read from `/proc`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

use crate::client::Conn;

/// How the server is started.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// `--wal FILE` (streaming), or `None` for the static release.
    pub wal: Option<PathBuf>,
    /// `--max-resident N` (streaming only).
    pub max_resident: Option<usize>,
    /// The CPU publish and the server are pinned to (through `taskset`),
    /// if any.
    pub cpu: Option<usize>,
}

/// The CPU the whole run is pinned to: publish, server and load generator.
/// On a host that allows this process two or more CPUs (and has
/// `taskset`), it is the first; otherwise `None` and nothing is pinned.
/// Every run then places its threads the same way, and each request's
/// wake-ups stay on one CPU instead of crossing to the other. On a 2-vCPU
/// host this halved the run-to-run spread of `count_hot`'s median latency
/// (18% to 9% over ten runs) against server and generator on separate CPUs.
pub fn pinned_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpus: Vec<usize> = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|list| list.trim().split(',').flat_map(cpu_range).collect())
        .unwrap_or_default();
    let taskset = Command::new("taskset")
        .arg("-V")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    match cpus[..] {
        [first, _, ..] if taskset => Some(first),
        _ => None,
    }
}

/// Pins every thread of this process (and the threads it spawns later)
/// to `cpu`.
pub fn pin_self(cpu: Option<usize>) -> Result<(), String> {
    let Some(cpu) = cpu else {
        return Ok(());
    };
    let status = Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("taskset could not pin the generator to CPU {cpu}"))
    }
}

/// An idle-priority busy loop on the pinned CPU for the length of a run. A
/// virtual CPU that halts when idle must be woken through the hypervisor,
/// and on a loaded host that wake-up alone took milliseconds, swamping the
/// request it delays. With a `SCHED_IDLE` spinner the CPU never halts,
/// while any runnable publish, server or generator thread still preempts
/// the spinner at once. Dropping it kills and reaps the spinner.
pub struct Spinner(Child);

impl Spinner {
    /// Starts `exe --spin` under `chrt --idle 0` on `cpu` (`None` when
    /// unpinned or when `chrt` is missing).
    pub fn start(exe: &Path, cpu: Option<usize>) -> Option<Self> {
        Command::new("chrt")
            .args(["--idle", "0", "taskset", "-c", &cpu?.to_string()])
            .arg(exe)
            .arg("--spin")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .ok()
            .map(Self)
    }
}

impl Drop for Spinner {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The body of `--spin`: busy-wait until the parent process is gone (the
/// spinner is then reparented), checking every ~100 ms.
pub fn spin() {
    let ppid = || {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        stat.rsplit_once(')')?
            .1
            .split_whitespace()
            .nth(1)?
            .parse::<u32>()
            .ok()
    };
    let parent = ppid();
    while parent.is_some() && ppid() == parent {
        let t = Instant::now();
        while t.elapsed().as_millis() < 100 {
            std::hint::spin_loop();
        }
    }
}

/// The CPUs of one `Cpus_allowed_list` item (`3` or `0-7`).
fn cpu_range(item: &str) -> Vec<usize> {
    let mut ends = item.split('-').map(|n| n.trim().parse::<usize>());
    match (ends.next(), ends.next()) {
        (Some(Ok(a)), None) => vec![a],
        (Some(Ok(a)), Some(Ok(b))) if a <= b => (a..=b).collect(),
        _ => Vec::new(),
    }
}

/// A running `rpctl serve`. Dropping it SIGKILLs the child and waits for it.
pub struct Server {
    child: Child,
    /// Kept open so the child never blocks on (or dies of) a closed stderr.
    _stderr: BufReader<ChildStderr>,
    /// The bound listen address.
    pub addr: SocketAddr,
    /// The first connection, opened during set-up (it read the `HELLO`).
    pub first: Option<Conn>,
}

/// `program`, pinned to `cpu` through `taskset` when given (taskset execs
/// the program in place, so the child's pid stays the program's).
pub fn pinned(program: &Path, cpu: Option<usize>) -> Command {
    match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", &cpu.to_string()]).arg(program);
            c
        }
        None => Command::new(program),
    }
}

/// Runs `rpctl publish --no-generalize` on `csv`, writing `artifact`.
/// Pinned to `cpu`, publish groups on that one CPU's thread (its default
/// thread count is the CPUs it may use).
fn publish(
    rpctl: &Path,
    csv: &Path,
    artifact: &Path,
    seed: u64,
    cpu: Option<usize>,
) -> Result<(), String> {
    let out = pinned(rpctl, cpu)
        .arg("publish")
        .arg("--input")
        .arg(csv)
        .args(["--sa", crate::gen::SA, "--no-generalize", "--seed"])
        .arg(seed.to_string())
        .arg("--output")
        .arg(artifact)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", rpctl.display()))?;
    if !out.status.success() {
        return Err(format!(
            "rpctl publish failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

impl Server {
    /// Starts `rpctl serve` on `artifact` and returns once its listener
    /// is bound and the first connection has read the `HELLO` banner.
    pub fn start(rpctl: &Path, artifact: &Path, spec: &ServeSpec) -> Result<Self, String> {
        let mut cmd = pinned(rpctl, spec.cpu);
        cmd.arg("serve")
            .arg("--publication")
            .arg(artifact)
            .args(["--listen", "127.0.0.1:0"]);
        if let Some(wal) = &spec.wal {
            cmd.arg("--wal").arg(wal);
        }
        if let Some(n) = spec.max_resident {
            cmd.arg("--max-resident").arg(n.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        let mut log = String::new();
        while addr.is_none() {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            log.push_str(&line);
            addr = line
                .strip_prefix("listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok());
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{cmd:?} did not start: {}", log.trim()));
        };
        let mut server = Self {
            child,
            _stderr: stderr,
            addr,
            first: None,
        };
        server.first = Some(server.connect()?);
        Ok(server)
    }

    /// Opens one more session (reads and checks the `HELLO` banner).
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's CPU time so far.
    pub fn cpu(&self) -> Cpu {
        Cpu::of(&format!("/proc/{}/stat", self.pid()))
    }

    /// The child's CPU time so far, in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        cpu_ns(self.pid())
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILLs the child and waits until it has exited.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.first = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Publishes and serves once, timing from the start of `rpctl publish` to
/// the first `HELLO` (the `setup_s` metric).
pub fn set_up(
    rpctl: &Path,
    csv: &Path,
    artifact: &Path,
    seed: u64,
    spec: &ServeSpec,
) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    publish(rpctl, csv, artifact, seed, spec.cpu)?;
    let server = Server::start(rpctl, artifact, spec)?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// CPU time of every thread of process `pid` so far, in nanoseconds (the
/// first field of each `/proc/<pid>/task/<tid>/schedstat`; 0 if
/// unreadable).
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// User and system CPU time of a process, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// `utime`.
    pub user: u64,
    /// `stime`.
    pub sys: u64,
}

impl Cpu {
    /// Reads fields 14 and 15 of a `/proc/.../stat` file (0 if unreadable).
    pub fn of(path: &str) -> Self {
        let stat = std::fs::read_to_string(path).unwrap_or_default();
        // The command name (field 2) may hold spaces; fields restart after
        // its closing parenthesis, at field 3.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let field = |n: usize| fields.get(n - 3).and_then(|v| v.parse().ok()).unwrap_or(0);
        Self {
            user: field(14),
            sys: field(15),
        }
    }

    /// This process's own CPU time so far.
    pub fn own() -> Self {
        Self::of("/proc/self/stat")
    }

    /// Ticks spent since `earlier`, as `(user, sys)` seconds.
    pub fn since(self, earlier: Cpu) -> (f64, f64) {
        let tick = ticks_per_second();
        (
            self.user.saturating_sub(earlier.user) as f64 / tick,
            self.sys.saturating_sub(earlier.sys) as f64 / tick,
        )
    }
}

/// `sysconf(_SC_CLK_TCK)`, read once through `getconf` (100 if unavailable).
fn ticks_per_second() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|&t| t > 0.0)
            .unwrap_or(100.0)
    })
}

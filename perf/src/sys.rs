//! Processes the benchmark drives: timed `llhsc` CLI runs with per-child
//! resource usage, and the `llhsc serve` daemon with its `/proc`
//! counters. Linux only.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use llhsc_service::Json;

/// A request that takes longer than this counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

// The workspace has no libc crate; these are the few calls std does not
// expose: reaping a child with its own resource usage, waiting without
// reaping, killing by pid and the clock-tick rate of /proc/<pid>/stat.
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn waitid(idtype: i32, id: u32, infop: *mut u8, options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;
/// `sizeof(siginfo_t)` on Linux.
const SIGINFO_BYTES: usize = 128;

/// Kills the child it is armed with once that child's deadline passes.
///
/// The child is disarmed before it is reaped, and the kill happens under
/// the same lock, so a pid is never signalled after it could have been
/// reused.
#[derive(Default)]
pub struct Watchdog {
    armed: Mutex<Option<(i32, Instant, bool)>>,
    stop: AtomicBool,
}

impl Watchdog {
    /// Polls until [`Watchdog::stop`]; run it on its own thread.
    pub fn run(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
            let mut slot = self.armed.lock().expect("watchdog lock");
            if let Some((pid, deadline, fired)) = slot.as_mut() {
                if !*fired && Instant::now() >= *deadline {
                    // SAFETY: `pid` is an unreaped child of this process
                    // (see the type docs), so it names that child.
                    unsafe { kill(*pid, SIGKILL) };
                    *fired = true;
                }
            }
        }
    }

    /// Ends [`Watchdog::run`].
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn arm(&self, pid: i32, deadline: Instant) {
        *self.armed.lock().expect("watchdog lock") = Some((pid, deadline, false));
    }

    /// Disarms; `true` when the child was killed.
    fn disarm(&self) -> bool {
        self.armed
            .lock()
            .expect("watchdog lock")
            .take()
            .is_some_and(|(_, _, fired)| fired)
    }
}

/// One finished `llhsc` process.
#[derive(Debug, Clone)]
pub struct CliRun {
    /// Spawn to exit.
    pub wall: Duration,
    /// Exit code; `None` when killed by a signal.
    pub code: Option<i32>,
    /// Killed by the watchdog.
    pub timed_out: bool,
    /// User plus system CPU time of the process.
    pub cpu: Duration,
    /// Peak resident set size of the process, in KiB.
    pub maxrss_kb: u64,
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// Everything it wrote to stderr.
    pub stderr: String,
}

/// Runs `llhsc ARGS…` to completion, timing spawn → exit and reading the
/// child's own resource usage.
pub fn run_cli(bin: &Path, args: &[&str], watchdog: &Watchdog) -> io::Result<CliRun> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    watchdog.arm(pid, started + TIMEOUT);
    let mut info = [0u8; SIGINFO_BYTES];
    loop {
        // SAFETY: `info` is a writable buffer of siginfo_t's size and
        // `pid` is this process's child; WNOWAIT leaves it unreaped.
        let r = unsafe { waitid(P_PID, pid as u32, info.as_mut_ptr(), WEXITED | WNOWAIT) };
        if r == 0 {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            watchdog.disarm();
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
    }
    let wall = started.elapsed();
    let timed_out = watchdog.disarm();
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is an exited, unreaped child; both out-pointers are
    // valid for writes of their types.
    if unsafe { wait4(pid, &mut status, 0, &mut usage) } != pid {
        return Err(io::Error::last_os_error());
    }
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)?;
    }
    if let Some(mut err) = child.stderr.take() {
        err.read_to_string(&mut stderr)?;
    }
    let cpu = |t: &Timeval| Duration::from_micros((t.sec * 1_000_000 + t.usec).max(0) as u64);
    Ok(CliRun {
        wall,
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        timed_out,
        cpu: cpu(&usage.utime) + cpu(&usage.stime),
        maxrss_kb: usage.maxrss.max(0) as u64,
        stdout,
        stderr,
    })
}

/// A running `llhsc serve`.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's last stdout line never hits a closed
    /// pipe.
    stdout: BufReader<ChildStdout>,
    /// The loopback address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `llhsc serve` on an ephemeral loopback port with 2 workers
    /// and returns it with the time from spawn to the first `ping`
    /// reply. Slow-request capture is disabled; `scratch` receives
    /// anything the daemon would still write.
    pub fn spawn(bin: &Path, scratch: &Path) -> io::Result<(Daemon, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(["--slow-threshold-us", &u64::MAX.to_string()])
            .arg("--slow-trace-dir")
            .arg(scratch)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // The banner names the picked port:
        // `llhsc-service listening on ADDR (N workers)`.
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split_whitespace().nth(3)?.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "unexpected daemon banner {line:?}"
            )));
        };
        let daemon = Daemon {
            child,
            stdout,
            addr,
        };
        let (frame, _) = daemon
            .connect()?
            .call(&Json::obj([("op", "ping".into())]))?;
        if frame.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(io::Error::other(format!("bad ping reply {frame}")));
        }
        Ok((daemon, started.elapsed()))
    }

    /// Opens a connection.
    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// User plus system CPU time the daemon has used so far.
    pub fn cpu(&self) -> io::Result<Duration> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<u64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse().ok())
            .collect();
        if fields.len() != 2 {
            return Err(io::Error::other("unreadable /proc stat"));
        }
        // SAFETY: sysconf only reads a configuration value.
        let ticks = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
        Ok(Duration::from_micros(
            (fields[0] + fields[1]) * 1_000_000 / ticks,
        ))
    }

    /// Peak resident set size so far (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM"))
    }

    /// Asks the daemon to drain and stop, and waits for it to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let result = self
            .connect()
            .and_then(|mut c| c.call(&Json::obj([("op", "shutdown".into())])).map(drop));
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait()?;
        result?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only when `shutdown` was not: never leave a daemon
        // behind. After a clean shutdown both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking the daemon's JSON-lines protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Sends one request line and waits for its response line, returning
    /// the frame and the send → response time.
    pub fn call(&mut self, request: &Json) -> io::Result<(Json, Duration)> {
        self.call_line(&request.to_string())
    }

    /// [`Conn::call`] with an already rendered request.
    pub fn call_line(&mut self, line: &str) -> io::Result<(Json, Duration)> {
        let started = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let elapsed = started.elapsed();
        let frame = Json::parse(response.trim_end()).map_err(io::Error::other)?;
        Ok((frame, elapsed))
    }
}

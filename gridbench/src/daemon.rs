//! The daemon under test as a child process, and the client side of its
//! two codecs.
//!
//! The daemon is the `gridband serve` binary built from the checkout, so
//! its RSS and CPU time are its own. Every client socket sets
//! `TCP_NODELAY`; the daemon's accepted sockets are left as the daemon
//! configures them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use gridband_serve::metrics::StatsSnapshot;
use gridband_serve::protocol::{decode_server, encode_client, ClientMsg, ServerMsg};
use gridband_serve::wire::{
    decode_server_payload, encode_client_frame, FrameBuf, WireMode, WIRE_MAGIC,
};

pub type Res<T> = Result<T, String>;

/// Build `gridband` from the checkout's workspace and return its path.
/// The binary goes to a target directory of its own so this build and
/// the benchmark's own never invalidate each other.
pub fn build_daemon() -> Res<PathBuf> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run from the root of a gridband checkout".into());
    }
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "gridbench/target".into());
    let target = Path::new(&base).join("daemon");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "gridband-cli", "--bin", "gridband", "--target-dir"])
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemon failed: {status}"));
    }
    let bin = target.join("release").join("gridband");
    bin.canonicalize()
        .map_err(|e| format!("daemon binary {}: {e}", bin.display()))
}

/// A running daemon. Dropping it kills the process and reaps it.
pub struct Daemon {
    child: Child,
    _stderr: BufReader<ChildStderr>,
    pub addr: String,
    /// Spawn → first `Stats` reply, seconds.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawn `bin serve <flags>` on an ephemeral port and wait for its
    /// first `Stats` reply.
    pub fn spawn(bin: &Path, flags: &[String]) -> Res<Daemon> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon exited before listening ({flags:?})"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
            }
        }
        let mut d = Daemon {
            child,
            _stderr: stderr,
            addr: addr.expect("loop exits with an address"),
            setup_s: 0.0,
        };
        let mut conn = Conn::connect(&d.addr, WireMode::Binary)?;
        conn.stats()?;
        d.setup_s = t0.elapsed().as_secs_f64();
        Ok(d)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Daemon user+system CPU time so far, seconds.
    pub fn cpu_s(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the whole line.
        let rest = stat.rsplit(')').next().unwrap_or("");
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) / clock_ticks()
    }

    /// Peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILL the daemon and wait for it to end.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

extern "C" {
    fn sysconf(name: std::os::raw::c_int) -> std::os::raw::c_long;
}

fn clock_ticks() -> f64 {
    const SC_CLK_TCK: std::os::raw::c_int = 2;
    // SAFETY: sysconf only reads a process-wide constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Encode one client message in the given codec.
pub fn encode(wire: WireMode, msg: &ClientMsg) -> Vec<u8> {
    match wire {
        WireMode::Json => {
            let mut line = encode_client(msg).into_bytes();
            line.push(b'\n');
            line
        }
        WireMode::Binary => encode_client_frame(msg),
    }
}

/// Incremental reply decoder for one connection.
pub struct Rx {
    wire: WireMode,
    frames: FrameBuf,
    line: Vec<u8>,
}

impl Rx {
    pub fn new(wire: WireMode) -> Rx {
        Rx {
            wire,
            frames: FrameBuf::new(),
            line: Vec::new(),
        }
    }

    /// Append received bytes and decode every complete message.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<ServerMsg>) -> Res<()> {
        match self.wire {
            WireMode::Json => {
                self.line.extend_from_slice(bytes);
                let mut from = 0;
                while let Some(nl) = self.line[from..].iter().position(|&b| b == b'\n') {
                    let text = std::str::from_utf8(&self.line[from..from + nl])
                        .map_err(|e| format!("reply is not UTF-8: {e}"))?;
                    out.push(decode_server(text).map_err(|e| format!("bad reply line: {e}"))?);
                    from += nl + 1;
                }
                self.line.drain(..from);
            }
            WireMode::Binary => {
                self.frames.extend(bytes);
                while let Some(p) = self.frames.next_frame().map_err(|e| e.to_string())? {
                    out.push(decode_server_payload(&p).map_err(|e| e.to_string())?);
                }
            }
        }
        Ok(())
    }
}

/// One client connection.
pub struct Conn {
    pub stream: TcpStream,
    pub wire: WireMode,
    rx: Rx,
    buf: Vec<ServerMsg>,
}

impl Conn {
    pub fn connect(addr: &str, wire: WireMode) -> Res<Conn> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        if wire == WireMode::Binary {
            stream.write_all(&WIRE_MAGIC).map_err(|e| e.to_string())?;
        }
        Ok(Conn {
            stream,
            wire,
            rx: Rx::new(wire),
            buf: Vec::new(),
        })
    }

    pub fn send(&mut self, msg: &ClientMsg) -> Res<()> {
        self.stream
            .write_all(&encode(self.wire, msg))
            .map_err(|e| format!("send: {e}"))
    }

    /// The next reply, blocking.
    pub fn recv(&mut self) -> Res<ServerMsg> {
        while self.buf.is_empty() {
            let mut chunk = [0u8; 64 * 1024];
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            self.rx.feed(&chunk[..n], &mut self.buf)?;
            self.buf.reverse();
        }
        Ok(self.buf.pop().expect("buffer checked non-empty"))
    }

    pub fn stats(&mut self) -> Res<StatsSnapshot> {
        self.send(&ClientMsg::Stats)?;
        loop {
            match self.recv()? {
                ServerMsg::Stats(s) => return Ok(s),
                ServerMsg::Error { code, message } => {
                    return Err(format!("daemon error {code}: {message}"))
                }
                _ => {}
            }
        }
    }
}

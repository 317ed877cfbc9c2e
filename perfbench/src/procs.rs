//! The processes under test: spawning `privmech-serve` and `privmech-router`,
//! small request/reply calls to them, and what `/proc` says about them.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use privmech_serve::frame::{read_frame, write_frame};
use privmech_serve::json::{self, Json};

/// A spawned server or router, shut down over the wire or killed on drop.
pub struct Proc {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawn `bin` with `args`, and wait for its `<banner> ADDR` line.
    pub fn spawn(bin: &Path, args: &[String], banner: &str) -> io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot start {}: {e}", bin.display()))
            })?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines.next();
        let addr = match &first {
            Some(Ok(line)) => line.strip_prefix(banner).map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} did not print its address: {first:?}", bin.display()),
            ));
        };
        // Keep reading stdout so the child never blocks on a full pipe; the
        // thread ends when the child closes it.
        let drain = std::thread::spawn(move || lines.for_each(drop));
        Ok(Proc {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// A `privmech-serve` with its default configuration, on an ephemeral
    /// port.
    pub fn serve(bin_dir: &Path) -> io::Result<Proc> {
        let args = ["--addr".to_string(), "127.0.0.1:0".to_string()];
        Proc::spawn(
            &bin_dir.join("privmech-serve"),
            &args,
            "privmech-serve listening on ",
        )
    }

    /// A `privmech-router` over `shards`, on an ephemeral port.
    pub fn router(bin_dir: &Path, shards: &[&str]) -> io::Result<Proc> {
        let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        for shard in shards {
            args.push("--shard".to_string());
            args.push((*shard).to_string());
        }
        Proc::spawn(
            &bin_dir.join("privmech-router"),
            &args,
            "privmech-router listening on ",
        )
    }

    /// The listen address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the process to exit after a `shutdown` was sent to it (or,
    /// for a shard, broadcast through its router).
    pub fn wait(mut self) -> io::Result<()> {
        let status = self.child.wait()?;
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "{} exited with {status}",
                self.addr
            )))
        }
    }

    /// Ask the process to stop and wait for it.
    pub fn shutdown(self) -> io::Result<()> {
        call(&self.addr, Json::obj().with("op", Json::str("shutdown")))?;
        self.wait()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // Reached when a run fails before shutdown: never leave a child behind.
        if self.drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(drain) = self.drain.take() {
                let _ = drain.join();
            }
        }
    }
}

/// Open a connection with Nagle off.
pub fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    Ok(stream)
}

/// Send one request on a fresh connection (a v2 envelope is added) and
/// return the reply's `result`.
pub fn call(addr: &str, body: Json) -> io::Result<Json> {
    let mut stream = connect(addr)?;
    let mut request = Json::obj()
        .with("v", Json::num_u64(2))
        .with("id", Json::num_u64(0));
    if let (Json::Obj(dst), Json::Obj(src)) = (&mut request, body) {
        dst.extend(src);
    }
    write_frame(&mut stream, json::to_string(&request).as_bytes())?;
    let frame = read_frame(&mut stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))?;
    let text = String::from_utf8(frame)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply is not UTF-8"))?;
    let reply = json::parse(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(io::Error::other(format!("request failed: {text}")));
    }
    Ok(reply.get("result").cloned().unwrap_or(Json::Null))
}

/// Write raw frame bytes and read one frame back, timing the round trip.
pub fn round_trip(stream: &mut TcpStream, frame: &[u8]) -> io::Result<Duration> {
    let start = Instant::now();
    stream.write_all(frame)?;
    read_frame(stream)?.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "closed"))?;
    Ok(start.elapsed())
}

fn read_proc(path: &str) -> io::Result<String> {
    let mut text = String::new();
    std::fs::File::open(path)?.read_to_string(&mut text)?;
    Ok(text)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), MiB.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    let status = read_proc(&format!("/proc/{pid}/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of process `pid`, in seconds (all threads).
pub fn cpu_seconds(pid: u32, ticks_per_sec: f64) -> io::Result<f64> {
    let stat = read_proc(&format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stat"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Ok((ticks(11) + ticks(12)) / ticks_per_sec)
}

/// The kernel's clock-tick rate for `/proc` CPU times.
#[must_use]
pub fn clock_ticks() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.trim().parse().ok())
        .unwrap_or(100.0)
}

/// The one-minute load average.
#[must_use]
pub fn load_average() -> f64 {
    read_proc("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// First line of a command's output, or `"unknown"`.
#[must_use]
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

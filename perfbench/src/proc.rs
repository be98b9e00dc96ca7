//! Running the `ips` binary: `ips build` to a snapshot, and `ips serve` on
//! `listen=127.0.0.1:0` with every other setting at its default.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The `(cs, s)` spec every workload uses: s = 0.8, c = 0.6, signed.
pub const S: f64 = 0.8;
pub const C: f64 = 0.6;

/// `ips build` of an ALSH snapshot (the command's default family, one shard)
/// over a CSV data file; returns the wall time of the whole process.
pub fn build(ips: &Path, data: &Path, snapshot: &Path, seed: u64) -> Result<Duration, String> {
    let start = Instant::now();
    let out = Command::new(ips)
        .arg("build")
        .arg(format!("data={}", data.display()))
        .arg(format!("snapshot={}", snapshot.display()))
        .arg(format!("s={S}"))
        .arg(format!("c={C}"))
        .arg(format!("seed={seed}"))
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", ips.display()))?;
    let elapsed = start.elapsed();
    if !out.status.success() {
        return Err(format!(
            "ips build failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(elapsed)
}

/// A running `ips serve` process. Dropping it kills the process and waits
/// for it; [`Server::shutdown`] stops it through the protocol instead.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts `ips serve snapshot=<snapshot> listen=127.0.0.1:0` and returns
    /// once it prints its listening line, with the time that took.
    pub fn start(ips: &Path, snapshot: &Path) -> Result<(Self, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(ips)
            .arg("serve")
            .arg(format!("snapshot={}", snapshot.display()))
            .arg("listen=127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", ips.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("ips serve exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or("");
                match addr.parse::<SocketAddr>() {
                    Ok(a) => break a,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparsable listening line `{}`", line.trim()));
                    }
                }
            }
        };
        let elapsed = start.elapsed();
        Ok((
            Self {
                child,
                addr,
                _stdout: stdout,
            },
            elapsed,
        ))
    }

    /// Sends `shutdown` on a fresh connection and waits for the process to
    /// exit (killing it after 10 s). Callers close their own connections
    /// first. The shutdown connection is one more accepted connection.
    pub fn shutdown(mut self) -> Result<(), String> {
        let result = crate::gen::Conn::connect(self.addr)
            .and_then(|mut c| c.call("shutdown"))
            .map_err(|e| format!("shutdown: {e}"))
            .and_then(|reply| match reply.as_str() {
                "bye" => Ok(()),
                other => Err(format!("shutdown answered `{other}`")),
            });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return result,
                Ok(Some(status)) => return Err(format!("ips serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("ips serve did not stop after shutdown".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A working directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(out: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = out.join(format!("work-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

//! The load generator: one thread drives every connection.
//!
//! Pacing sleeps in `ppoll(2)` until the next request is due, with a
//! nanosecond timeout, and the same call wakes up when a reply is readable.
//! Socket read timeouts are never used for pacing: `SO_RCVTIMEO` rounds to
//! the kernel tick, which showed up as milliseconds of false latency.
//!
//! The serve protocol answers one line per single-vector request, in order
//! per connection, so replies are matched to requests first-in first-out.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until one of `fds` is ready or `timeout` passes (forever when
/// `None`), setting each entry's `revents`. An interrupted wait reports
/// nothing ready.
fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ts = timeout.map(|d| Timespec {
        tv_sec: d.as_secs() as i64,
        tv_nsec: d.subsec_nanos() as i64,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)` pollfd
    // records whose length is passed as `nfds`; `ts_ptr` is null or points at
    // `ts`, which outlives the call; a null signal mask leaves the mask as is.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, ts_ptr, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        for f in fds.iter_mut() {
            f.revents = 0;
        }
    }
    Ok(())
}

/// One client connection to the server.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests sent on this connection and not yet answered, oldest first.
    pending: VecDeque<usize>,
    /// The server closed the connection.
    closed: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut conn = Self {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
            closed: false,
        };
        // Every session opens with a banner line; consume it.
        conn.call_raw(None)?;
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut off = 0;
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let mut fd = [PollFd {
                        fd: self.stream.as_raw_fd(),
                        events: POLLOUT,
                        revents: 0,
                    }];
                    wait(&mut fd, Some(Duration::from_millis(100)))?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what is available. A closed connection is an error only once
    /// every complete line it delivered has been taken.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(());
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn closed_error(&self) -> io::Result<()> {
        if self.closed {
            Err(io::ErrorKind::UnexpectedEof.into())
        } else {
            Ok(())
        }
    }

    fn take_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=pos).take(pos).collect();
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Sends `line` (when given) and blocks for one reply line.
    fn call_raw(&mut self, line: Option<&str>) -> io::Result<String> {
        if let Some(line) = line {
            self.send(line)?;
        }
        loop {
            if let Some(reply) = self.take_line() {
                return Ok(reply);
            }
            self.closed_error()?;
            let mut fd = [PollFd {
                fd: self.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }];
            wait(&mut fd, Some(Duration::from_secs(60)))?;
            if fd[0].revents == 0 {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.fill()?;
        }
    }

    /// One request, one reply line, nothing else in flight.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        assert!(self.pending.is_empty(), "call() with requests in flight");
        self.call_raw(Some(line))
    }
}

/// One scheduled request: which connection sends it, when it is due
/// (nanoseconds after the phase starts) and the protocol line.
pub struct Req {
    pub conn: usize,
    pub due_ns: u64,
    pub line: String,
}

/// What happened to one request. Times are nanoseconds after the phase
/// started; `recv_ns` is `None` when no reply came.
#[derive(Debug, Clone)]
pub struct Done {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: Option<u64>,
    pub reply: String,
}

impl Done {
    /// Latency from when the request was due, in microseconds.
    pub fn latency_us(&self) -> Option<f64> {
        self.recv_ns
            .map(|r| r.saturating_sub(self.due_ns) as f64 / 1e3)
    }

    /// How late the generator sent it, in microseconds.
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Dues of a Poisson arrival process at `rate` per second over `seconds`,
/// drawn from `rng` (independent users arrive independently).
pub fn poisson_dues(rng: &mut impl rand::Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

fn read_ready(
    conns: &mut [Conn],
    fds: &[PollFd],
    start: Instant,
    done: &mut [Done],
) -> io::Result<()> {
    for (c, fd) in conns.iter_mut().zip(fds) {
        if fd.revents == 0 {
            continue;
        }
        c.fill()?;
        let now = start.elapsed().as_nanos() as u64;
        while let Some(reply) = c.take_line() {
            let Some(idx) = c.pending.pop_front() else {
                return Err(io::Error::other(format!("unsolicited reply `{reply}`")));
            };
            done[idx].recv_ns = Some(now);
            done[idx].reply = reply;
        }
        if !c.pending.is_empty() {
            c.closed_error()?;
        }
    }
    Ok(())
}

fn poll_fds(conns: &[Conn]) -> Vec<PollFd> {
    conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect()
}

/// Open loop: sends every request when it is due, whatever is still
/// outstanding, then waits up to `grace` after the last due time for the
/// remaining replies. `reqs` must be sorted by due time.
pub fn open_loop(conns: &mut [Conn], reqs: &[Req], grace: Duration) -> io::Result<Vec<Done>> {
    let mut done: Vec<Done> = reqs
        .iter()
        .map(|r| Done {
            due_ns: r.due_ns,
            sent_ns: 0,
            recv_ns: None,
            reply: String::new(),
        })
        .collect();
    let start = Instant::now();
    let last_due = reqs.last().map_or(0, |r| r.due_ns);
    let give_up = Duration::from_nanos(last_due) + grace;
    let mut next = 0;
    let mut fds = poll_fds(conns);
    loop {
        let mut now = start.elapsed();
        while next < reqs.len() && reqs[next].due_ns <= now.as_nanos() as u64 {
            let r = &reqs[next];
            conns[r.conn].send(&r.line)?;
            conns[r.conn].pending.push_back(next);
            done[next].sent_ns = start.elapsed().as_nanos() as u64;
            next += 1;
            now = start.elapsed();
        }
        let outstanding = conns.iter().any(|c| !c.pending.is_empty());
        if next == reqs.len() && !outstanding {
            break;
        }
        if now >= give_up {
            break;
        }
        let timeout = if next < reqs.len() {
            Duration::from_nanos(reqs[next].due_ns).saturating_sub(now)
        } else {
            give_up - now
        };
        for f in fds.iter_mut() {
            f.revents = 0;
        }
        wait(&mut fds, Some(timeout))?;
        read_ready(conns, &fds, start, &mut done)?;
    }
    for c in conns.iter_mut() {
        c.pending.clear();
    }
    Ok(done)
}

/// Closed loop: every connection keeps exactly one request outstanding and
/// sends the next as soon as its reply arrives, for `duration`. `line(k)`
/// gives the k-th request line. Returns every finished request.
pub fn closed_loop(
    conns: &mut [Conn],
    mut line: impl FnMut(usize) -> String,
    duration: Duration,
) -> io::Result<Vec<Done>> {
    let mut done: Vec<Done> = Vec::new();
    let start = Instant::now();
    let mut fds = poll_fds(conns);
    let mut issue = |c: &mut Conn, done: &mut Vec<Done>| -> io::Result<()> {
        let k = done.len();
        c.send(&line(k))?;
        c.pending.push_back(k);
        let t = start.elapsed().as_nanos() as u64;
        done.push(Done {
            due_ns: t,
            sent_ns: t,
            recv_ns: None,
            reply: String::new(),
        });
        Ok(())
    };
    for c in conns.iter_mut() {
        issue(c, &mut done)?;
    }
    let end = duration;
    loop {
        let now = start.elapsed();
        let outstanding = conns.iter().any(|c| !c.pending.is_empty());
        if !outstanding || now >= end + Duration::from_secs(30) {
            break;
        }
        for f in fds.iter_mut() {
            f.revents = 0;
        }
        wait(&mut fds, Some(Duration::from_millis(100)))?;
        for (c, fd) in conns.iter_mut().zip(&fds) {
            if fd.revents == 0 {
                continue;
            }
            c.fill()?;
            while let Some(reply) = c.take_line() {
                let Some(idx) = c.pending.pop_front() else {
                    return Err(io::Error::other(format!("unsolicited reply `{reply}`")));
                };
                done[idx].recv_ns = Some(start.elapsed().as_nanos() as u64);
                done[idx].reply = reply;
                if start.elapsed() < end {
                    issue(c, &mut done)?;
                }
            }
            if !c.pending.is_empty() {
                c.closed_error()?;
            }
        }
    }
    for c in conns.iter_mut() {
        c.pending.clear();
    }
    Ok(done)
}

//! A minimal HTTP/1.1 client for `deepseq-serve serve`, and the handle that
//! starts and stops the server process.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variables that would move the server off its defaults.
const PROGRAM_ENV: [&str; 4] = [
    "DEEPSEQ_THREADS",
    "DEEPSEQ_KERNEL",
    "DEEPSEQ_TRACE",
    "DEEPSEQ_FAULT",
];

/// Clears the program's tuning variables from this process, so the
/// in-process layers and the server both run on their defaults.
pub fn clear_program_env() {
    for var in PROGRAM_ENV {
        std::env::remove_var(var);
    }
}

/// One response: status code and body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads the whole response.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Reply> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = Vec::with_capacity(head.len() + body.len());
        bytes.extend_from_slice(head.as_bytes());
        bytes.extend_from_slice(body);
        self.writer.write_all(&bytes)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_data(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad_data(format!("bad content-length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }

    /// `GET /metrics`, parsed into series → value.
    pub fn metrics(&mut self) -> io::Result<Metrics> {
        let reply = self.request("GET", "/metrics", b"")?;
        if reply.status != 200 {
            return Err(bad_data(format!("/metrics answered {}", reply.status)));
        }
        Ok(Metrics::parse(&String::from_utf8_lossy(&reply.body)))
    }
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A `/metrics` snapshot: Prometheus series (with labels) → value.
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    fn parse(text: &str) -> Metrics {
        let mut map = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.to_string(), v);
                }
            }
        }
        Metrics(map)
    }

    fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self − earlier` for one series.
    pub fn delta(&self, earlier: &Metrics, series: &str) -> f64 {
        self.get(series) - earlier.get(series)
    }
}

/// A running `deepseq-serve serve` process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the server on a binary checkpoint with every other setting at
    /// its default, and waits for its `listening <addr>` line.
    pub fn spawn(binary: &Path, checkpoint: &Path) -> io::Result<Server> {
        let mut command = Command::new(binary);
        command
            .arg("serve")
            .arg("--checkpoint")
            .arg(checkpoint)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for var in PROGRAM_ENV {
            command.env_remove(var);
        }
        let mut child = command.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(bad_data(format!(
                    "server did not report an address: {line:?}"
                )))
            }
        }
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to drain over `conn`, closes the connection and waits
    /// for the process to exit (killing it after 30 s).
    pub fn stop(mut self, conn: Conn) -> io::Result<()> {
        let mut conn = conn;
        let reply = conn.request("POST", "/admin/drain", b"");
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if self.child.try_wait()?.is_some() {
                break;
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(bad_data("server did not exit after drain".into()));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        reply.map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn peak_rss_mib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

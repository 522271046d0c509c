//! The `hdl serve` child processes and the newline-JSON client that
//! drives them.

use hdl_server::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One `hdl serve --listen` child process.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub root: PathBuf,
}

impl Server {
    /// Spawns `hdl serve` on an ephemeral port with its persist root at
    /// `root`, and waits for the resolved address on its stdout.
    pub fn spawn(hdl: &Path, root: &Path, extra: &[String]) -> io::Result<Server> {
        std::fs::create_dir_all(root)?;
        let mut child = Command::new(hdl)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0", "--persist-root"])
            .arg(root)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "hdl serve did not start: {line:?}"
            )));
        };
        Ok(Server {
            addr: addr.to_owned(),
            child,
            _stdout: stdout,
            root: root.to_owned(),
        })
    }

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).unwrap_or_default()
    }

    /// utime + stime of the process so far, in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        let stat = self.proc_file("stat");
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = fields
            .get(11..13)
            .map(|f| f.iter().filter_map(|x| x.parse::<u64>().ok()).sum())
            .unwrap_or(0);
        ticks as f64 / clock_ticks_per_second()
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = self.proc_file("status");
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        kb / 1024.0
    }

    /// Asks the server to drain and waits for it to exit; kills it if
    /// it has not exited within ten seconds.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Conn::connect(&self.addr) {
            let _ = c.call(r#"{"op":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
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

fn clock_ticks_per_second() -> f64 {
    // Linux reports utime/stime in USER_HZ, which is 100 on every
    // mainstream architecture.
    100.0
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// One client connection speaking the newline-JSON protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: Vec::with_capacity(1 << 16),
            line: String::new(),
        })
    }

    /// Queues one request line; [`Conn::flush`] sends everything queued
    /// in one write.
    pub fn queue(&mut self, request: &str) {
        self.buf.extend_from_slice(request.as_bytes());
        self.buf.push(b'\n');
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Reads one reply line and parses it.
    pub fn recv(&mut self) -> io::Result<Json> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(self.line.trim_end()).map_err(io::Error::other)
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, request: &str) -> io::Result<Json> {
        self.queue(request);
        self.flush()?;
        self.recv()
    }
}

/// Whether a reply carries `"ok":true`.
pub fn is_ok(reply: &Json) -> bool {
    matches!(reply.get("ok"), Some(Json::Bool(true)))
}

/// Renders one request object.
pub fn request(fields: Vec<(&str, Json)>) -> String {
    Json::obj(fields).to_string()
}

pub fn open_request(tenant: &str, sync: Option<u64>) -> String {
    let mut fields = vec![("op", Json::str("open")), ("tenant", Json::str(tenant))];
    if let Some(n) = sync {
        fields.push(("sync", Json::num(n as f64)));
    }
    request(fields)
}

pub fn load_request(program: &str) -> String {
    request(vec![
        ("op", Json::str("load")),
        ("program", Json::str(program)),
    ])
}

pub fn retract_request(fact: &str) -> String {
    request(vec![
        ("op", Json::str("retract")),
        ("fact", Json::str(fact)),
    ])
}

pub fn query_request(q: &str, engine: Option<&str>) -> String {
    let mut fields = vec![("op", Json::str("query")), ("q", Json::str(q))];
    if let Some(e) = engine {
        fields.push(("engine", Json::str(e)));
    }
    request(fields)
}

/// All `rec(K, V)` facts a tenant holds, rendered back to fact text and
/// sorted — compared against the client's acked-minus-retracted set.
/// Asked of the bottom-up engine: the default top-down engine takes
/// minutes to enumerate a relation of tens of thousands of facts.
pub fn tenant_facts(conn: &mut Conn) -> io::Result<Vec<String>> {
    let reply = conn.call(&request(vec![
        ("op", Json::str("answers")),
        ("pattern", Json::str("rec(K, V)")),
        ("engine", Json::str("bottom-up")),
    ]))?;
    if !is_ok(&reply) {
        return Err(io::Error::other(format!("answers failed: {reply}")));
    }
    let mut facts: Vec<String> = match reply.get("rows") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .map(|row| match row {
                Json::Arr(cols) => format!(
                    "rec({}, {})",
                    cols.first().and_then(Json::as_str).unwrap_or(""),
                    cols.get(1).and_then(Json::as_str).unwrap_or("")
                ),
                _ => String::new(),
            })
            .collect(),
        _ => Vec::new(),
    };
    facts.sort();
    Ok(facts)
}

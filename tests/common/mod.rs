//! Helpers shared by the tests that drive the real `hdl` binary. Each
//! test crate compiles this module and uses only some of it.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

pub const HDL: &str = env!("CARGO_BIN_EXE_hdl");

/// A scratch directory under the system temp dir, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// A fresh, empty directory named after this process and `tag`.
    pub fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "hdl-test-{}-{}",
            std::process::id(),
            tag.replace(':', "_")
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spawns `cmd` — an `hdl serve --listen` invocation — with stdout
/// piped, and returns the child with the resolved address it prints
/// first (`listening on ADDR`).
pub fn spawn_listening(cmd: &mut Command) -> (Child, String) {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hdl serve --listen");
    let stdout = child.stdout.take().expect("piped stdout");
    let line = BufReader::new(stdout)
        .lines()
        .next()
        .expect("server prints its address")
        .expect("read address line");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("expected `listening on ADDR`, got: {line}"))
        .to_owned();
    (child, addr)
}

/// A running `hdl serve --listen 127.0.0.1:0` child plus the address it
/// printed. Kills the child on drop so a failed assertion cannot leak a
/// listener.
pub struct ServerProc {
    pub child: Child,
    pub addr: String,
}

impl ServerProc {
    /// Starts `hdl serve --listen 127.0.0.1:0 extra…` with stderr piped.
    pub fn start(extra: &[&str]) -> ServerProc {
        let mut cmd = Command::new(HDL);
        cmd.arg("serve")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .args(extra)
            .stderr(Stdio::piped())
            .env_remove("HDL_CRASH_AT");
        let (child, addr) = spawn_listening(&mut cmd);
        assert!(
            !addr.ends_with(":0"),
            "port 0 must resolve to a real port: {addr}"
        );
        ServerProc { child, addr }
    }

    /// Waits for exit and returns (status ok, stderr text).
    pub fn wait(mut self) -> (bool, String) {
        let mut stderr = String::new();
        let status = self.child.wait().expect("wait for server");
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        // Disarm the drop kill: the process is already gone.
        (status.success(), stderr)
    }

    pub fn sigterm(&self) {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A tenant connection that tolerates the server dying under it — or
/// being dead already by the time it connects.
pub struct NetClient {
    reader: Option<BufReader<TcpStream>>,
    pub alive: bool,
    pub submitted: usize,
    pub acked: usize,
}

impl NetClient {
    /// Connects to `addr` and opens `tenant`; `alive` is false if either
    /// failed.
    pub fn open(addr: &str, tenant: &str) -> NetClient {
        let mut c = NetClient {
            reader: None,
            alive: false,
            submitted: 0,
            acked: 0,
        };
        let Ok(stream) = TcpStream::connect(addr) else {
            return c;
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        c.reader = Some(BufReader::new(stream));
        c.alive = true;
        let open = format!("{{\"op\":\"open\",\"tenant\":\"{tenant}\"}}\n");
        if !c.send_raw(&open) || !c.recv().is_some_and(|r| r.contains("\"ok\":true")) {
            c.alive = false;
        }
        c
    }

    pub fn send_raw(&mut self, data: &str) -> bool {
        match self.reader.as_mut() {
            Some(reader) => reader.get_mut().write_all(data.as_bytes()).is_ok(),
            None => false,
        }
    }

    pub fn recv(&mut self) -> Option<String> {
        let reader = self.reader.as_mut()?;
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line),
        }
    }

    /// Sends one request line and returns the reply line.
    pub fn round_trip(&mut self, line: &str) -> Option<String> {
        if !self.send_raw(&format!("{line}\n")) {
            return None;
        }
        self.recv()
    }

    /// Pipelines one window of `load` mutations for facts
    /// `f(<prefix>x<from>..)` and counts acks until the socket dies.
    /// Every written line counts as submitted whether or not it arrived
    /// — submitted is an upper bound by construction.
    pub fn burst(&mut self, prefix: &str, from: usize, len: usize) {
        let mut window = String::new();
        for i in from..from + len {
            window.push_str(&format!(
                "{{\"op\":\"load\",\"program\":\"f({prefix}x{i}).\"}}\n"
            ));
        }
        self.submitted += len;
        if !self.send_raw(&window) {
            self.alive = false;
            return;
        }
        for _ in 0..len {
            match self.recv() {
                Some(reply) if reply.contains("\"ok\":true") => self.acked += 1,
                _ => {
                    self.alive = false;
                    return;
                }
            }
        }
    }
}

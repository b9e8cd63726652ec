//! An in-process `serve` daemon driven over a pair of OS pipes, exactly as
//! `soctdc serve` is driven over stdio: the daemon runs
//! `serve::server::run_with_io` on its own thread, and a reader thread
//! turns its NDJSON output into parsed lines the client waits on.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use serve::json::{self, Value};
use serve::ServeConfig;

/// How long the client waits for any one line before declaring the daemon
/// stalled. Far above any op; it only keeps a hung daemon from hanging the
/// benchmark.
const LINE_TIMEOUT: Duration = Duration::from_secs(60);

/// One line of daemon output: the raw text and its parse.
pub struct Line {
    /// The line as the daemon wrote it.
    pub text: String,
    /// Its JSON value.
    pub value: Value,
}

/// A running daemon plus the client end of its pipes.
pub struct Daemon {
    input: Option<std::io::PipeWriter>,
    lines: Receiver<Result<Line, String>>,
    pending: VecDeque<Line>,
    daemon: Option<JoinHandle<i32>>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
}

impl Daemon {
    /// Starts a daemon rooted at `root` with `workers` planning threads
    /// and waits for its `ready` event.
    pub fn start(root: &Path, workers: usize) -> Result<Daemon, String> {
        let (in_read, in_write) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
        let (out_read, out_write) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
        let mut config = ServeConfig::new(root);
        config.workers = workers;
        let daemon = std::thread::Builder::new()
            .name("serve-daemon".into())
            .spawn(move || {
                let mut input = BufReader::new(in_read);
                serve::server::run_with_io(&config, &mut input, Box::new(out_write))
            })
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("serve-reader".into())
            .spawn(move || {
                for text in BufReader::new(out_read).lines() {
                    let line = text.map_err(|e| e.to_string()).and_then(|text| {
                        json::parse(&text)
                            .map(|value| Line { text, value })
                            .map_err(|e| format!("daemon wrote invalid JSON: {e}"))
                    });
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("spawn reader: {e}"))?;
        let mut d = Daemon {
            input: Some(in_write),
            lines,
            pending: VecDeque::new(),
            daemon: Some(daemon),
            reader: Some(reader),
            next_id: 1,
        };
        d.wait_event(|v| field_str(v, "event") == Some("ready"))?;
        Ok(d)
    }

    /// Writes one request line (an `id` is added) and returns the line
    /// that was sent.
    pub fn send(&mut self, mut fields: Vec<(&str, Value)>) -> Result<(u64, String), String> {
        let id = self.next_id;
        self.next_id += 1;
        fields.insert(0, ("id", Value::Int(i64::try_from(id).unwrap_or(0))));
        let line = json::obj(fields).to_json();
        let input = self.input.as_mut().ok_or("daemon input closed")?;
        input
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| input.flush())
            .map_err(|e| format!("write to daemon: {e}"))?;
        Ok((id, line))
    }

    /// Sends a request and waits for its acknowledgment; fails on an
    /// error response.
    pub fn request(&mut self, fields: Vec<(&str, Value)>) -> Result<(String, Line), String> {
        let (id, sent) = self.send(fields)?;
        let ack = self.wait(|v| field_u64(v, "id") == Some(id) && v.field("ok").is_some())?;
        if ack.value.field("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("daemon refused `{sent}`: {}", ack.text));
        }
        Ok((sent, ack))
    }

    /// Waits for the next event line matching `pred` (earlier unmatched
    /// lines stay queued).
    pub fn wait_event(&mut self, pred: impl Fn(&Value) -> bool) -> Result<Line, String> {
        self.wait(|v| v.field("event").is_some() && pred(v))
    }

    fn wait(&mut self, pred: impl Fn(&Value) -> bool) -> Result<Line, String> {
        if let Some(pos) = self.pending.iter().position(|l| pred(&l.value)) {
            return Ok(self.pending.remove(pos).expect("position is in range"));
        }
        loop {
            let line = match self.lines.recv_timeout(LINE_TIMEOUT) {
                Ok(line) => line?,
                Err(RecvTimeoutError::Timeout) => return Err("daemon stalled".into()),
                Err(RecvTimeoutError::Disconnected) => return Err("daemon exited".into()),
            };
            if pred(&line.value) {
                return Ok(line);
            }
            self.pending.push_back(line);
        }
    }

    /// Closes the daemon's input (it drains its queue and exits), waits
    /// for `bye`, and joins both threads. Returns the daemon's exit code.
    pub fn close(mut self) -> Result<i32, String> {
        self.input = None;
        self.wait_event(|v| field_str(v, "event") == Some("bye"))?;
        let code = self
            .daemon
            .take()
            .map(JoinHandle::join)
            .transpose()
            .map_err(|_| "daemon thread panicked")?
            .unwrap_or(0);
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "reader thread panicked")?;
        }
        Ok(code)
    }
}

/// String field `key` of `v`.
pub fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.field(key).and_then(Value::as_str)
}

/// Unsigned field `key` of `v`.
pub fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.field(key).and_then(Value::as_u64)
}

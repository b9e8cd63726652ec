//! The planning engine's shared caches (`tdcsoc::Engine`) are invisible in
//! plans: a `serve` miss, a `serve` hit, `soctdc plan` and a fleet manifest
//! plan one request to the same bytes, one profile cache serves all three,
//! and a session whose design changes under the same name is planned from
//! its new content — a cache keyed by session name or file path would
//! serve the stale SOC and fail here.
//!
//! Every surface runs as a real `soctdc` subprocess.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use serve::json::Value;
use soc_tdc::model::benchmarks::Design;
use soc_tdc::model::itc02::write_itc02;
use soc_tdc::model::Soc;

fn soctdc() -> &'static str {
    env!("CARGO_BIN_EXE_soctdc")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soc-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A running `soctdc serve` with one planning worker.
struct Daemon {
    root: PathBuf,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    next_id: u64,
    /// Lines read past while waiting for another: a fast job's event can
    /// overtake its own ack.
    backlog: Vec<String>,
    /// The `ready` event the daemon started with.
    ready: String,
}

impl Daemon {
    fn start(root: &Path) -> Daemon {
        let mut child = Command::new(soctdc())
            .args(["serve", "--workers", "1", "--root"])
            .arg(root)
            .env_remove("SOCTDC_FAULT")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn soctdc serve");
        let stdin = child.stdin.take().expect("daemon stdin");
        let stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
        let mut daemon = Daemon {
            root: root.to_path_buf(),
            child,
            stdin,
            stdout,
            next_id: 1,
            backlog: Vec::new(),
            ready: String::new(),
        };
        daemon.ready = daemon.read_until(|line| line.contains(r#""event":"ready""#));
        daemon
    }

    fn read_until(&mut self, wanted: impl Fn(&str) -> bool) -> String {
        if let Some(i) = self.backlog.iter().position(|line| wanted(line)) {
            return self.backlog.remove(i);
        }
        loop {
            let mut line = String::new();
            let n = self.stdout.read_line(&mut line).expect("daemon stdout");
            assert!(n > 0, "daemon closed stdout");
            let line = line.trim().to_string();
            if wanted(&line) {
                return line;
            }
            self.backlog.push(line);
        }
    }

    /// Sends one request (its `id` is filled in) and returns the ack.
    fn request(&mut self, fields: &str) -> String {
        let id = self.next_id;
        self.next_id += 1;
        writeln!(self.stdin, r#"{{"id":{id},{fields}}}"#).expect("daemon stdin");
        self.stdin.flush().expect("daemon stdin");
        let tag = format!(r#""id":{id},"#);
        self.read_until(|line| line.contains(&tag))
    }

    fn open(&mut self, session: &str, source: &str, seed: u64) {
        let ack = self.request(&format!(
            r#""op":"open","session":"{session}",{source},"seed":{seed},"density":0.5"#
        ));
        assert!(ack.contains(r#""ok":true"#), "open failed: {ack}");
    }

    /// Plans `session` per-core at `width` with no deadline; returns the
    /// completion event and, when it is `plan-done`, the plan text.
    fn plan(&mut self, session: &str, width: u32) -> (String, Option<String>) {
        let ack = self.request(&format!(
            r#""op":"plan","session":"{session}","mode":"per-core","width":{width},"budget_ms":0"#
        ));
        let request = ack
            .split(r#""request":""#)
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("plan not queued: {ack}"))
            .to_string();
        let tag = format!(r#""request":"{request}""#);
        let event =
            self.read_until(|line| line.contains("\"event\":\"plan-") && line.contains(&tag));
        let text = std::fs::read_to_string(
            self.root
                .join("sessions")
                .join(session)
                .join("plans")
                .join(format!("{request}.plan")),
        )
        .ok();
        (event, text)
    }

    fn plan_text(&mut self, session: &str, width: u32) -> String {
        match self.plan(session, width) {
            (event, Some(text)) if event.contains(r#""event":"plan-done""#) => text,
            (event, _) => panic!("plan failed: {event}"),
        }
    }

    /// The `status` counter `field`.
    fn counter(&mut self, field: &str) -> String {
        let status = self.request(r#""op":"status""#);
        let tag = format!(r#""{field}":"#);
        status
            .split(&tag)
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .unwrap_or_else(|| panic!("no {field} in {status}"))
            .to_string()
    }

    fn shutdown(mut self) {
        self.request(r#""op":"shutdown""#);
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn benchmark(name: &str) -> String {
    format!(r#""benchmark":"{name}""#)
}

fn itc02(soc: &Soc) -> String {
    let text = Value::Str(write_itc02(soc)).to_json();
    format!(r#""itc02":{text}"#)
}

/// d695, and d695 without its last five cores: two small ITC'02 uploads.
fn d695_and_half() -> (Soc, Soc) {
    let d695 = Design::D695.build();
    let half = Soc::new("d695-half", d695.cores()[..5].to_vec());
    (d695, half)
}

/// Runs `soctdc` with whitespace-separated `args`, which must succeed,
/// and returns its standard output.
fn run_soctdc(args: &str) -> String {
    let output = Command::new(soctdc())
        .args(args.split_whitespace())
        .output()
        .expect("run soctdc");
    assert!(output.status.success(), "soctdc {args} failed");
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// d695, seed 1, per-core, W=24 — through a serve miss, a serve hit,
/// `soctdc plan` and a one-line fleet manifest, at workers 1 and 2.
#[test]
fn one_request_plans_identically_on_every_surface() {
    let dir = tmp_dir("surfaces");
    let mut daemon = Daemon::start(&dir.join("serve"));
    daemon.open("s", &benchmark("d695"), 1);
    let miss = daemon.plan_text("s", 24);
    assert_eq!(daemon.counter("soc_misses"), "1");
    let hit = daemon.plan_text("s", 24);
    assert_eq!(daemon.counter("soc_hits"), "1");
    daemon.shutdown();
    assert_eq!(miss, hit, "a serve cache hit planned differently");

    let manifest = dir.join("batch.txt");
    std::fs::write(&manifest, "design d695 widths=24 seeds=1 mode=per-core\n").unwrap();
    for workers in ["1", "2"] {
        let plan_out = dir.join(format!("cli-{workers}.plan"));
        run_soctdc(&format!(
            "plan --design d695 --seed 1 --width 24 --mode per-core --sample 24 --mcand 24 \
             --workers {workers} --plan-out {}",
            plan_out.display()
        ));
        let cli = std::fs::read_to_string(&plan_out).unwrap();
        assert_eq!(cli, miss, "soctdc plan at workers {workers}");

        let plan_dir = dir.join(format!("fleet-{workers}"));
        run_soctdc(&format!(
            "fleet --manifest {} --workers {workers} --plan-dir {}",
            manifest.display(),
            plan_dir.display()
        ));
        let fleet = std::fs::read_to_string(plan_dir.join("d695-w24-seed1.plan")).unwrap();
        assert_eq!(fleet, miss, "fleet at workers {workers}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A serve session's per-core W=24 plan of d695 fills `<root>/cache`;
/// `soctdc plan` and a fleet run pointed at that directory find all ten
/// core profiles there and plan serve's bytes.
#[test]
fn one_profile_cache_serves_every_surface() {
    let dir = tmp_dir("profiles");
    let root = dir.join("serve");
    let mut daemon = Daemon::start(&root);
    daemon.open("s", &benchmark("d695"), 1);
    let served = daemon.plan_text("s", 24);
    daemon.shutdown();
    let cache = root.join("cache");

    let plan_out = dir.join("cli.plan");
    let cli = run_soctdc(&format!(
        "plan --design d695 --seed 1 --width 24 --sample 24 --mcand 24 \
         --profile-cache {} --plan-out {}",
        cache.display(),
        plan_out.display()
    ));
    assert!(
        cli.contains("profile cache: 10 hits, 0 partial, 0 misses"),
        "{cli}"
    );
    assert_eq!(std::fs::read_to_string(&plan_out).unwrap(), served);

    let manifest = dir.join("batch.txt");
    std::fs::write(&manifest, "design d695 widths=24 seeds=1\n").unwrap();
    let plan_dir = dir.join("fleet");
    let fleet = run_soctdc(&format!(
        "fleet --manifest {} --workers 2 --profile-cache {} --plan-dir {}",
        manifest.display(),
        cache.display(),
        plan_dir.display()
    ));
    assert!(
        fleet.contains("profile cache: 10 hits, 0 partial, 0 misses"),
        "{fleet}"
    );
    let planned = std::fs::read_to_string(plan_dir.join("d695-w24-seed1.plan")).unwrap();
    assert_eq!(planned, served);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-opening a session name with another seed, and re-uploading other
/// ITC'02 text under the same name, plans the new content exactly as a
/// fresh daemon does.
#[test]
fn a_reopened_session_plans_its_new_content() {
    let dir = tmp_dir("reopen");
    let mut warm = Daemon::start(&dir.join("warm"));
    warm.open("b", &benchmark("d695"), 1);
    let seed1 = warm.plan_text("b", 16);
    warm.open("b", &benchmark("d695"), 2);
    let seed2 = warm.plan_text("b", 16);
    let (d695, half) = d695_and_half();
    warm.open("u", &itc02(&d695), 1);
    let first = warm.plan_text("u", 16);
    warm.open("u", &itc02(&half), 1);
    let reuploaded = warm.plan_text("u", 16);
    warm.shutdown();
    assert_ne!(
        seed1, seed2,
        "the seeds must plan differently to be told apart"
    );
    assert_ne!(first, reuploaded);

    let mut fresh = Daemon::start(&dir.join("fresh"));
    fresh.open("b", &benchmark("d695"), 2);
    assert_eq!(fresh.plan_text("b", 16), seed2, "re-seeded session");
    fresh.open("u", &itc02(&half), 1);
    assert_eq!(fresh.plan_text("u", 16), reuploaded, "re-uploaded session");
    fresh.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cached session whose `design.itc02` is overwritten with text that
/// does not parse fails its next plan and is quarantined on restart.
#[test]
fn a_design_corrupted_after_a_cached_plan_fails_and_quarantines() {
    let root = tmp_dir("corrupt");
    let mut daemon = Daemon::start(&root);
    daemon.open("u", &itc02(&d695_and_half().0), 1);
    daemon.plan_text("u", 16);
    std::fs::write(root.join("sessions/u/design.itc02"), "not itc02").unwrap();
    let (event, _) = daemon.plan("u", 16);
    assert!(event.contains(r#""event":"plan-failed""#), "{event}");
    daemon.shutdown();

    let daemon = Daemon::start(&root);
    assert!(
        daemon.ready.contains(r#""recovered_sessions":0"#),
        "{}",
        daemon.ready
    );
    assert!(
        daemon.ready.contains(r#""quarantined":1"#),
        "{}",
        daemon.ready
    );
    let quarantined: Vec<String> = std::fs::read_dir(root.join("quarantine"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        quarantined
            .iter()
            .any(|name| name.ends_with("design.itc02")),
        "{quarantined:?}"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

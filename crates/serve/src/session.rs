//! Persistent session directories and crash recovery.
//!
//! Every uploaded design lives in its own session directory under the
//! daemon's root:
//!
//! ```text
//! root/
//!   sessions/<name>/
//!     meta.json        session descriptor (source, seed, density)
//!     design.itc02     uploaded ITC'02 text (upload sessions only)
//!     inflight/NNNN.json   accepted-but-unfinished plan requests
//!     plans/NNNN.plan      completed plans, one file per request
//!   cache/             on-disk profile cache (managed by the planner)
//!   quarantine/        corrupt files moved aside during recovery
//! ```
//!
//! All writes are atomic (a unique temp file, renamed into place) and a plan
//! request is journaled into `inflight/` *before* planning starts, so a
//! crash at any instant leaves either a completed artifact or a journaled
//! request — never a half-written one. [`SessionStore::recover`] walks the
//! tree on startup, quarantines anything that fails validation, and hands
//! back the journaled requests for re-execution.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use robust::CacheStats;
use tdcsoc::{Engine, Job, JobError, Plan, PlanControl, PlanRequest, PlanStats};
use tdcsoc::{SocContent, SocSource};

use crate::json::{self, obj, Value};

/// A daemon-level failure surfaced to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request was malformed or referenced something invalid.
    BadRequest(String),
    /// The referenced session or artifact does not exist.
    NotFound(String),
    /// An I/O failure the daemon could not work around.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::NotFound(m) => write!(f, "not found: {m}"),
            ServeError::Io(m) => write!(f, "io: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Where a session's design comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSource {
    /// A built-in benchmark by name (`d695`, `p93791`, …).
    Benchmark(String),
    /// Uploaded ITC'02 text, stored verbatim in the session dir.
    Itc02(String),
}

/// A recovered or newly created session descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Session name (also the directory name).
    pub name: String,
    /// `"benchmark"` or `"itc02"`.
    pub kind: String,
    /// Benchmark name for benchmark sessions.
    pub benchmark: Option<String>,
    /// Cube-synthesis seed.
    pub seed: u64,
    /// Care-bit density for synthesized cubes / ITC'02 parsing.
    pub density: f64,
}

impl SessionMeta {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("name", Value::Str(self.name.clone())),
            ("kind", Value::Str(self.kind.clone())),
            ("seed", Value::int(self.seed)),
            ("density", Value::Num(self.density)),
        ];
        if let Some(b) = &self.benchmark {
            pairs.push(("benchmark", Value::Str(b.clone())));
        }
        obj(pairs)
    }

    fn from_value(v: &Value) -> Option<SessionMeta> {
        let name = v.field("name")?.as_str()?.to_string();
        let kind = v.field("kind")?.as_str()?.to_string();
        if kind != "benchmark" && kind != "itc02" {
            return None;
        }
        Some(SessionMeta {
            name,
            benchmark: v
                .field("benchmark")
                .and_then(Value::as_str)
                .map(str::to_string),
            kind,
            seed: v.field("seed")?.as_u64()?,
            density: v.field("density")?.as_f64()?,
        })
    }
}

/// One journaled-but-unfinished plan request found during recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct InflightRequest {
    /// Owning session.
    pub session: String,
    /// Request id (the `NNNN` in `inflight/NNNN.json`).
    pub request: String,
    /// The original request object, as journaled.
    pub body: Value,
}

/// What [`SessionStore::recover`] found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Names of sessions that validated and are being served again.
    pub sessions: Vec<String>,
    /// Journaled requests to re-execute, oldest first.
    pub inflight: Vec<InflightRequest>,
    /// Files moved to `quarantine/` because they failed validation.
    pub quarantined: Vec<String>,
}

/// The daemon's persistent state root, with the planning engine that
/// serves every session's plans for the store's life: one SOC cache, and
/// the profile cache under `cache/`.
#[derive(Debug)]
pub struct SessionStore {
    root: PathBuf,
    /// Serializes request-id allocation with its journal write.
    journal: Mutex<()>,
    engine: Engine,
}

/// Validates a client-supplied name used as a path component: short,
/// non-empty, `[A-Za-z0-9._-]` only, no leading dot. Rejecting everything
/// else closes path traversal by construction.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

/// Atomic write ([`robust::write_atomic`]: a unique temp name next to the
/// target, then a rename into place).
fn write_atomic(path: &Path, contents: &str) -> Result<(), ServeError> {
    robust::write_atomic(path, contents.as_bytes()).map_err(|e| ServeError::Io(e.to_string()))
}

impl SessionStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory tree cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let root = root.into();
        for sub in ["sessions", "cache", "quarantine"] {
            std::fs::create_dir_all(root.join(sub)).map_err(|e| ServeError::Io(e.to_string()))?;
        }
        Ok(SessionStore {
            engine: Engine::new(Some(root.join("cache"))),
            root,
            journal: Mutex::new(()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shared on-disk profile-cache directory.
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    fn session_dir(&self, name: &str) -> PathBuf {
        self.root.join("sessions").join(name)
    }

    /// Moves `path` into `quarantine/` under the first free `NNNN-<name>`
    /// ([`robust::quarantine`]), so no earlier run's evidence is replaced;
    /// best-effort. Returns the quarantined file's display name when the
    /// move happened (never for a missing file).
    fn quarantine(&self, path: &Path) -> Option<String> {
        robust::quarantine(path, &self.root.join("quarantine"))
    }

    /// Creates a session directory, persisting its descriptor and (for
    /// uploads) the design text. Overwrites an existing session of the
    /// same name atomically — the descriptor is written last.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for invalid names, unknown benchmarks,
    /// or ITC'02 text that does not parse; [`ServeError::Io`] on write
    /// failures.
    pub fn create_session(
        &self,
        name: &str,
        source: &DesignSource,
        seed: u64,
        density: f64,
    ) -> Result<SessionMeta, ServeError> {
        if !valid_name(name) {
            return Err(ServeError::BadRequest(format!(
                "invalid session name `{name}`"
            )));
        }
        if !(0.0..=1.0).contains(&density) {
            return Err(ServeError::BadRequest(format!(
                "density {density} outside [0,1]"
            )));
        }
        // Validate before persisting: a design that cannot parse must be
        // rejected at upload, not at plan time.
        let (kind, benchmark) = match source {
            DesignSource::Benchmark(bench) => {
                SocSource::builtin(bench).map_err(ServeError::BadRequest)?;
                ("benchmark", Some(bench.clone()))
            }
            DesignSource::Itc02(text) => {
                let content = SocContent::Itc02(text.clone());
                content.parse(density).map_err(ServeError::BadRequest)?;
                ("itc02", None)
            }
        };
        let meta = SessionMeta {
            name: name.to_string(),
            kind: kind.to_string(),
            benchmark,
            seed,
            density,
        };
        let dir = self.session_dir(name);
        for sub in ["plans", "inflight"] {
            std::fs::create_dir_all(dir.join(sub)).map_err(|e| ServeError::Io(e.to_string()))?;
        }
        if let DesignSource::Itc02(text) = source {
            write_atomic(&dir.join("design.itc02"), text)?;
        }
        write_atomic(&dir.join("meta.json"), &meta.to_value().to_json())?;
        Ok(meta)
    }

    /// Loads a session descriptor, or `None` when it does not exist or
    /// does not validate (the caller decides whether to quarantine).
    pub fn load_meta(&self, name: &str) -> Option<SessionMeta> {
        if !valid_name(name) {
            return None;
        }
        let text = std::fs::read_to_string(self.session_dir(name).join("meta.json")).ok()?;
        let meta = SessionMeta::from_value(&json::parse(&text).ok()?)?;
        // The descriptor must agree with the directory it lives in.
        (meta.name == name).then_some(meta)
    }

    /// The session's SOC source: its benchmark, or its uploaded
    /// `design.itc02`, which the engine re-reads on every plan and keys by
    /// content, so an edited design is rebuilt, or fails.
    fn source(&self, meta: &SessionMeta) -> Result<SocSource, ServeError> {
        match (&meta.kind[..], &meta.benchmark) {
            ("benchmark", Some(bench)) => SocSource::builtin(bench).map_err(ServeError::NotFound),
            ("itc02", _) => {
                let path = self.session_dir(&meta.name).join("design.itc02");
                Ok(SocSource::Itc02File(path.to_string_lossy().into_owned()))
            }
            _ => Err(ServeError::BadRequest(format!(
                "session `{}` has a malformed descriptor",
                meta.name
            ))),
        }
    }

    /// Plans the session's SOC in `mode` at TAM width `width` through the
    /// store's engine, under the caller's `control`; a failure reads as the
    /// `plan-failed` event reports it.
    pub(crate) fn plan(
        &self,
        meta: &SessionMeta,
        mode: &str,
        width: u32,
        control: PlanControl,
    ) -> Result<(Plan, PlanStats), String> {
        let job = Job {
            source: self.source(meta).map_err(|e| e.to_string())?,
            seed: meta.seed,
            density: meta.density,
            mode: mode.to_string(),
            request: PlanRequest::tam_width(width),
        };
        self.engine.plan(&job, control).map_err(|e| match e {
            JobError::Read(_) => {
                ServeError::NotFound(format!("design for `{}`", meta.name)).to_string()
            }
            JobError::Build(m) => ServeError::BadRequest(m).to_string(),
            JobError::Plan(e) => format!("plan: {e}"),
            e => e.to_string(),
        })
    }

    /// Hit, miss and eviction counters of the store's SOC cache.
    pub fn soc_stats(&self) -> CacheStats {
        self.engine.soc_stats()
    }

    /// Lists the names of sessions with a readable, valid descriptor.
    pub fn session_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = std::fs::read_dir(self.root.join("sessions")) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if self.load_meta(&name).is_some() {
                    names.push(name);
                }
            }
        }
        names.sort();
        names
    }

    /// Allocates the next request id for `session`: one past the highest
    /// id present in `plans/` or `inflight/`, zero-padded to 4 digits.
    pub fn next_request_id(&self, session: &str) -> String {
        let dir = self.session_dir(session);
        let mut max = 0u64;
        for sub in ["plans", "inflight"] {
            if let Ok(entries) = std::fs::read_dir(dir.join(sub)) {
                for entry in entries.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if let Some(stem) = name.split('.').next() {
                        if let Ok(n) = stem.parse::<u64>() {
                            max = max.max(n);
                        }
                    }
                }
            }
        }
        format!("{:04}", max.saturating_add(1))
    }

    /// Allocates the next request id for `session` and journals `body`
    /// under it, as one step under the store's lock, so concurrent callers
    /// never share an id.
    ///
    /// # Errors
    ///
    /// As [`SessionStore::journal_inflight`].
    pub fn journal_next(&self, session: &str, body: &Value) -> Result<String, ServeError> {
        let _guard = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        let request = self.next_request_id(session);
        self.journal_inflight(session, &request, body)?;
        Ok(request)
    }

    /// Journals an accepted plan request before execution (atomic).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the journal cannot be written — the caller
    /// must then reject the request rather than run it un-journaled.
    pub fn journal_inflight(
        &self,
        session: &str,
        request: &str,
        body: &Value,
    ) -> Result<(), ServeError> {
        let dir = self.session_dir(session).join("inflight");
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::Io(e.to_string()))?;
        write_atomic(&dir.join(format!("{request}.json")), &body.to_json())
    }

    /// Persists a completed plan (atomic) and clears its journal entry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the plan cannot be persisted (the journal
    /// entry is then kept, so the request is retried on restart).
    pub fn complete(
        &self,
        session: &str,
        request: &str,
        plan_text: &str,
    ) -> Result<(), ServeError> {
        let dir = self.session_dir(session);
        std::fs::create_dir_all(dir.join("plans")).map_err(|e| ServeError::Io(e.to_string()))?;
        write_atomic(
            &dir.join("plans").join(format!("{request}.plan")),
            plan_text,
        )?;
        let _ = std::fs::remove_file(dir.join("inflight").join(format!("{request}.json")));
        Ok(())
    }

    /// Drops a journaled request without a plan (used when re-execution
    /// finds the request itself invalid — retrying would never succeed).
    pub fn abandon_inflight(&self, session: &str, request: &str) {
        let path = self
            .session_dir(session)
            .join("inflight")
            .join(format!("{request}.json"));
        let _ = std::fs::remove_file(path);
    }

    /// Reads a completed plan's text.
    pub fn plan_text(&self, session: &str, request: &str) -> Option<String> {
        if !valid_name(session) || !valid_name(request) {
            return None;
        }
        std::fs::read_to_string(
            self.session_dir(session)
                .join("plans")
                .join(format!("{request}.plan")),
        )
        .ok()
    }

    /// Completed plan ids for a session, sorted.
    pub fn plan_ids(&self, session: &str) -> Vec<String> {
        let mut ids = Vec::new();
        if let Ok(entries) = std::fs::read_dir(self.session_dir(session).join("plans")) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(stem) = name.strip_suffix(".plan") {
                    ids.push(stem.to_string());
                }
            }
        }
        ids.sort();
        ids
    }

    /// Walks the whole tree after a (possibly unclean) shutdown:
    ///
    /// * sessions whose descriptor or design fails validation have the
    ///   corrupt file quarantined and are dropped from service;
    /// * completed plans that no longer parse are quarantined (the session
    ///   survives — the plan can be requested again);
    /// * journaled inflight requests are collected for re-execution;
    ///   unparsable journal entries are quarantined.
    pub fn recover(&self) -> Recovery {
        let mut recovery = Recovery::default();
        let mut sessions: BTreeMap<String, PathBuf> = BTreeMap::new();
        if let Ok(entries) = std::fs::read_dir(self.root.join("sessions")) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if valid_name(&name) {
                    sessions.insert(name, entry.path());
                }
            }
        }
        for (name, dir) in sessions {
            // Descriptor first; without it nothing else is trustworthy.
            let Some(meta) = self.load_meta(&name) else {
                let quarantined = self.quarantine(&dir.join("meta.json"));
                recovery.quarantined.extend(quarantined);
                continue;
            };
            // The design must actually build (catches corrupt uploads); a
            // good one stays cached for the session's first plan.
            let source = self.source(&meta).ok();
            let built = source.and_then(|s| self.engine.soc(&s, meta.seed, meta.density).ok());
            if built.is_none() {
                let quarantined = self.quarantine(&dir.join("design.itc02"));
                recovery.quarantined.extend(quarantined);
                continue;
            }
            // Completed plans must still parse.
            for id in self.plan_ids(&name) {
                let path = dir.join("plans").join(format!("{id}.plan"));
                let ok = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| tdcsoc::parse_plan(&text).ok())
                    .is_some();
                if !ok {
                    recovery.quarantined.extend(self.quarantine(&path));
                }
            }
            // Journaled requests come back for re-execution.
            let mut journaled = Vec::new();
            if let Ok(entries) = std::fs::read_dir(dir.join("inflight")) {
                for entry in entries.flatten() {
                    let fname = entry.file_name().to_string_lossy().into_owned();
                    let Some(stem) = fname.strip_suffix(".json") else {
                        continue;
                    };
                    match std::fs::read_to_string(entry.path())
                        .ok()
                        .and_then(|text| json::parse(&text).ok())
                    {
                        Some(body) => journaled.push(InflightRequest {
                            session: name.clone(),
                            request: stem.to_string(),
                            body,
                        }),
                        None => recovery.quarantined.extend(self.quarantine(&entry.path())),
                    }
                }
            }
            journaled.sort_by(|a, b| a.request.cmp(&b.request));
            recovery.inflight.extend(journaled);
            recovery.sessions.push(name);
        }
        recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("serve-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_load_and_list() {
        let root = tmp_root("basic");
        let store = SessionStore::open(&root).unwrap();
        let meta = store
            .create_session("s1", &DesignSource::Benchmark("d695".into()), 1, 0.5)
            .unwrap();
        assert_eq!(store.load_meta("s1"), Some(meta.clone()));
        assert_eq!(store.session_names(), vec!["s1".to_string()]);
        assert_eq!(
            store.source(&meta).unwrap(),
            SocSource::Builtin("d695".into())
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rejects_bad_names_and_benchmarks() {
        let root = tmp_root("names");
        let store = SessionStore::open(&root).unwrap();
        for bad in ["", "../x", "a/b", ".hidden", &"x".repeat(65)] {
            assert!(
                store
                    .create_session(bad, &DesignSource::Benchmark("d695".into()), 1, 0.5)
                    .is_err(),
                "{bad:?}"
            );
        }
        assert!(store
            .create_session("ok", &DesignSource::Benchmark("nope".into()), 1, 0.5)
            .is_err());
        assert!(store
            .create_session("ok", &DesignSource::Itc02("not itc02".into()), 1, 0.5)
            .is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn request_ids_increment_and_journal_roundtrips() {
        let root = tmp_root("journal");
        let store = SessionStore::open(&root).unwrap();
        store
            .create_session("s", &DesignSource::Benchmark("d695".into()), 1, 0.5)
            .unwrap();
        let r1 = store.next_request_id("s");
        assert_eq!(r1, "0001");
        let body = obj(vec![("op", Value::Str("plan".into()))]);
        store.journal_inflight("s", &r1, &body).unwrap();
        assert_eq!(store.next_request_id("s"), "0002");
        let rec = store.recover();
        assert_eq!(rec.inflight.len(), 1);
        assert_eq!(rec.inflight.first().unwrap().body, body);
        store.complete("s", &r1, "# placeholder\n").unwrap();
        // A completed (but unparsable) plan is quarantined on recovery;
        // the journal entry is gone either way.
        let rec = store.recover();
        assert!(rec.inflight.is_empty());
        assert_eq!(rec.quarantined.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_meta_is_quarantined() {
        let root = tmp_root("corrupt");
        let store = SessionStore::open(&root).unwrap();
        store
            .create_session("s", &DesignSource::Benchmark("d695".into()), 1, 0.5)
            .unwrap();
        std::fs::write(root.join("sessions/s/meta.json"), "{broken").unwrap();
        let rec = store.recover();
        assert!(rec.sessions.is_empty());
        assert_eq!(rec.quarantined.len(), 1);
        assert!(root.join("quarantine").read_dir().unwrap().count() == 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_builds_the_soc_the_first_plan_hits() {
        let root = tmp_root("recover-soc");
        let bench = DesignSource::Benchmark("d695".into());
        let first = SessionStore::open(&root).unwrap();
        first.create_session("s", &bench, 1, 0.5).unwrap();
        let d695 = soc_model::benchmarks::Design::D695.build();
        let upload = DesignSource::Itc02(soc_model::itc02::write_itc02(&d695));
        let meta_u = first.create_session("u", &upload, 1, 0.5).unwrap();
        let store = SessionStore::open(&root).unwrap();
        assert_eq!(store.recover().sessions, ["s", "u"]);
        let meta = store.load_meta("s").unwrap();
        let plan =
            |meta: &SessionMeta, mode: &str| store.plan(meta, mode, 16, PlanControl::default());
        plan(&meta, "no-tdc").unwrap();
        let socs = store.soc_stats();
        assert_eq!((socs.misses, socs.hits), (2, 1), "recovery built both");
        // Failures read as the `plan-failed` event reports them.
        assert_eq!(plan(&meta, "warp").unwrap_err(), "unknown mode `warp`");
        let design = root.join("sessions/u/design.itc02");
        std::fs::write(&design, "not itc02").unwrap();
        assert!(plan(&meta_u, "no-tdc")
            .unwrap_err()
            .starts_with("bad request: itc02:"));
        std::fs::remove_file(&design).unwrap();
        assert_eq!(
            plan(&meta_u, "no-tdc").unwrap_err(),
            "not found: design for `u`"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_keeps_every_run_s_evidence() {
        let root = tmp_root("requarantine");
        for corrupt in ["{first", "{second"] {
            let store = SessionStore::open(&root).unwrap();
            store
                .create_session("s", &DesignSource::Benchmark("d695".into()), 1, 0.5)
                .unwrap();
            std::fs::write(root.join("sessions/s/meta.json"), corrupt).unwrap();
            assert_eq!(store.recover().quarantined.len(), 1);
        }
        let mut kept: Vec<String> = std::fs::read_dir(root.join("quarantine"))
            .unwrap()
            .map(|entry| std::fs::read_to_string(entry.unwrap().path()).unwrap())
            .collect();
        kept.sort();
        assert_eq!(kept, ["{first", "{second"]);
        let _ = std::fs::remove_dir_all(&root);
    }
}

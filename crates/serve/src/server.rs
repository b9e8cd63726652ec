//! The planning daemon: stdio NDJSON front end, optional HTTP/1.1
//! listener, bounded worker pool, and crash recovery.
//!
//! ```text
//!           stdin lines ──┐                       ┌── worker 0 ──┐
//!   TCP connections ──────┼──> BoundedQueue ──────┼── worker 1 ──┼──> SessionStore
//!   recovered inflight ───┘    (load shedding)    └── …          ┘    (atomic writes)
//! ```
//!
//! Every accepted plan request is journaled to the session's `inflight/`
//! directory *before* it is queued, so a crash at any point is recoverable:
//! on the next start [`SessionStore::recover`] re-enqueues the journaled
//! requests and the daemon finishes them. Each request runs under its own
//! [`robust::Deadline`] (from `budget_ms`) and [`robust::CancelToken`]
//! (tripped when an HTTP client disconnects mid-plan), which the planner
//! cascade turns into `Degraded`/`Interrupted` plans rather than failures.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use robust::{BoundedCache, CacheLimits, CancelToken, Deadline};
use tdcsoc::{profile_tag, PlanControl, PlanRequest, ProfileCacheConfig};

use crate::fault::FaultPlan;
use crate::http;
use crate::json::{obj, Value};
use crate::proto::{self, Request};
use crate::queue::{BoundedQueue, PushError};
use crate::session::SessionStore;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Persistent state root (sessions, caches, quarantine).
    pub root: PathBuf,
    /// Optional `host:port` for the HTTP listener.
    pub http: Option<String>,
    /// Planning worker threads.
    pub workers: usize,
    /// Request-queue capacity; pushes beyond it are shed with
    /// `retry_after_ms`.
    pub queue_cap: usize,
    /// Wall-clock budget applied to plan requests that do not carry one.
    pub default_budget_ms: u64,
    /// Entry/byte caps for the in-memory plan-text memo.
    pub memo_limits: CacheLimits,
}

impl ServeConfig {
    /// A daemon rooted at `root` with conservative defaults: two workers,
    /// a 16-deep queue, 30 s default budget, 256-entry/8 MiB plan memo,
    /// no HTTP listener.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeConfig {
            root: root.into(),
            http: None,
            workers: 2,
            queue_cap: 16,
            default_budget_ms: 30_000,
            memo_limits: CacheLimits::new(256, 8 << 20),
        }
    }
}

pub use tdcsoc::planner_for;

/// A queued planning job. Journaled before queuing, so it survives a
/// crash; the reply channel (HTTP) or the event stream (stdio) carries
/// the completion.
struct PlanJob {
    session: String,
    request: String,
    mode: String,
    width: u32,
    budget_ms: u64,
    token: CancelToken,
    reply: Option<mpsc::Sender<Value>>,
}

#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
}

/// Shared daemon state; its store holds the one SOC cache for the
/// daemon's life.
struct Ctx {
    store: SessionStore,
    queue: BoundedQueue<PlanJob>,
    faults: FaultPlan,
    stdout: Mutex<Box<dyn Write + Send>>,
    memo: Mutex<BoundedCache<String, String>>,
    counters: Counters,
    default_budget_ms: u64,
    shutting_down: AtomicBool,
}

impl Ctx {
    /// Writes one NDJSON line to the stdio front end.
    fn emit(&self, value: &Value) {
        let mut out = self.stdout.lock().expect("stdout poisoned");
        let _ = writeln!(out, "{}", value.to_json());
        let _ = out.flush();
    }

    /// Conservative client-facing retry hint: assume every queued job
    /// consumes its full budget on a single worker. Deliberately derived
    /// from queue state only — the daemon never reads a wall clock.
    fn retry_after_ms(&self, depth: usize) -> u64 {
        let per_job = self.default_budget_ms.max(100);
        u64::try_from(depth)
            .unwrap_or(u64::MAX)
            .saturating_mul(per_job)
            .min(600_000)
    }
}

/// Validates, journals, and enqueues a plan request. On success returns
/// the allocated request id; on shed load returns the retry hint.
fn enqueue_plan(
    ctx: &Arc<Ctx>,
    session: &str,
    mode: &str,
    width: u32,
    budget_ms: Option<u64>,
    reply: Option<mpsc::Sender<Value>>,
) -> Result<(String, CancelToken), (String, Option<u64>)> {
    if ctx.store.load_meta(session).is_none() {
        return Err((format!("unknown session `{session}`"), None));
    }
    if planner_for(mode).is_none() {
        return Err((format!("unknown mode `{mode}`"), None));
    }
    let budget_ms = budget_ms.unwrap_or(ctx.default_budget_ms);
    let body = obj(vec![
        ("op", Value::Str("plan".into())),
        ("session", Value::Str(session.to_string())),
        ("mode", Value::Str(mode.to_string())),
        ("width", Value::Int(i64::from(width))),
        (
            "budget_ms",
            Value::Int(i64::try_from(budget_ms).unwrap_or(i64::MAX)),
        ),
    ]);
    // Journal BEFORE queueing: from here on a crash is recoverable.
    let request = ctx
        .store
        .journal_next(session, &body)
        .map_err(|e| (e.to_string(), None))?;
    ctx.faults.point("after-journal");
    let token = CancelToken::never();
    let job = PlanJob {
        session: session.to_string(),
        request: request.clone(),
        mode: mode.to_string(),
        width,
        budget_ms,
        token: token.clone(),
        reply,
    };
    match ctx.queue.try_push(job) {
        Ok(_) => Ok((request, token)),
        Err(PushError::Full { depth }) => {
            // Shed: un-journal so the rejected request is not replayed.
            ctx.store.abandon_inflight(session, &request);
            ctx.counters.shed.fetch_add(1, Ordering::SeqCst);
            Err(("queue full".to_string(), Some(ctx.retry_after_ms(depth))))
        }
        Err(PushError::Closed) => {
            ctx.store.abandon_inflight(session, &request);
            Err(("shutting down".to_string(), None))
        }
    }
}

/// Executes one job end to end: load the session's SOC, plan under the
/// job's deadline/token, persist the plan, clear the journal entry.
fn run_job(ctx: &Arc<Ctx>, job: &PlanJob) -> Value {
    ctx.faults.point("plan-started");
    let fail = |msg: String| -> Value {
        ctx.counters.failed.fetch_add(1, Ordering::SeqCst);
        // The request itself is bad; replaying it on restart would fail
        // identically, so drop the journal entry.
        ctx.store.abandon_inflight(&job.session, &job.request);
        obj(vec![
            ("event", Value::Str("plan-failed".into())),
            ("session", Value::Str(job.session.clone())),
            ("request", Value::Str(job.request.clone())),
            ("error", Value::Str(msg)),
        ])
    };
    let Some(meta) = ctx.store.load_meta(&job.session) else {
        return fail(format!("unknown session `{}`", job.session));
    };
    let (soc, density) = match ctx.store.load_soc(&meta) {
        Ok(loaded) => loaded,
        Err(e) => return fail(e.to_string()),
    };
    let Some(planner) = planner_for(&job.mode) else {
        return fail(format!("unknown mode `{}`", job.mode));
    };
    // `budget_ms: 0` means *no* deadline (the fully deterministic plan),
    // not an already-expired one.
    let deadline = match job.budget_ms {
        0 => Deadline::none(),
        ms => Deadline::within(Duration::from_millis(ms)),
    };
    let control = PlanControl {
        deadline,
        token: job.token.clone(),
        profile_cache: Some(ProfileCacheConfig::new(
            ctx.store.cache_dir(),
            profile_tag(&soc, meta.seed, density),
        )),
        ..PlanControl::default()
    };
    let request = PlanRequest::tam_width(job.width);
    let (plan, stats) = match planner.plan_with_stats(&soc, &request, &control) {
        Ok(result) => result,
        Err(e) => return fail(format!("plan: {e}")),
    };
    let text = tdcsoc::write_plan(&plan);
    ctx.faults.point("before-plan-write");
    if let Err(e) = ctx.store.complete(&job.session, &job.request, &text) {
        // Persisting failed but the journal entry is intact: the request
        // will be replayed on the next start, so report it as retryable.
        ctx.counters.failed.fetch_add(1, Ordering::SeqCst);
        return obj(vec![
            ("event", Value::Str("plan-failed".into())),
            ("session", Value::Str(job.session.clone())),
            ("request", Value::Str(job.request.clone())),
            ("error", Value::Str(format!("persist: {e}"))),
            ("retryable", Value::Bool(true)),
        ]);
    }
    ctx.faults.point("after-plan-write");
    let weight = text.len().saturating_add(64);
    ctx.memo.lock().expect("memo poisoned").insert(
        format!("{}/{}", job.session, job.request),
        text,
        weight,
    );
    ctx.counters.completed.fetch_add(1, Ordering::SeqCst);
    obj(vec![
        ("event", Value::Str("plan-done".into())),
        ("session", Value::Str(job.session.clone())),
        ("request", Value::Str(job.request.clone())),
        ("outcome", Value::Str(plan.outcome.to_string())),
        (
            "test_time",
            Value::Int(i64::try_from(plan.test_time).unwrap_or(i64::MAX)),
        ),
        (
            "volume_bits",
            Value::Int(i64::try_from(plan.volume_bits).unwrap_or(i64::MAX)),
        ),
        // Plan-time stream verification totals (0 streams would mean an
        // uncompressed plan, not a skipped check — serve never opts out).
        (
            "verified_streams",
            Value::Int(i64::try_from(stats.streams_verified).unwrap_or(i64::MAX)),
        ),
        (
            "verified_words",
            Value::Int(i64::try_from(stats.stream_words).unwrap_or(i64::MAX)),
        ),
        // Profile-cache effectiveness: how much of the plan was answered
        // from prior requests' work (incremental rebuilds across sessions).
        (
            "profile_hits",
            Value::Int(i64::try_from(stats.profile_hits).unwrap_or(i64::MAX)),
        ),
        (
            "profile_partial",
            Value::Int(i64::try_from(stats.profile_partial_hits).unwrap_or(i64::MAX)),
        ),
        (
            "profile_misses",
            Value::Int(i64::try_from(stats.profile_misses).unwrap_or(i64::MAX)),
        ),
    ])
}

/// Worker loop: pop, execute, deliver (reply channel for HTTP, event
/// line for stdio/recovered jobs).
fn worker_loop(ctx: Arc<Ctx>) {
    while let Some(job) = ctx.queue.pop() {
        let result = run_job(&ctx, &job);
        match &job.reply {
            Some(tx) => {
                // A dropped receiver means the client went away; the plan
                // is persisted either way.
                let _ = tx.send(result);
            }
            None => ctx.emit(&result),
        }
    }
}

/// Reads a completed plan, memoized through the bounded plan cache.
fn plan_text_cached(ctx: &Arc<Ctx>, session: &str, request: &str) -> Option<String> {
    let key = format!("{session}/{request}");
    if let Some(text) = ctx.memo.lock().expect("memo poisoned").get(&key) {
        return Some(text.clone());
    }
    let text = ctx.store.plan_text(session, request)?;
    let weight = text.len().saturating_add(64);
    ctx.memo
        .lock()
        .expect("memo poisoned")
        .insert(key, text.clone(), weight);
    Some(text)
}

fn status_value(ctx: &Arc<Ctx>) -> Value {
    let stats = ctx.memo.lock().expect("memo poisoned").stats();
    let socs = ctx.store.soc_stats();
    let as_int = |n: u64| Value::Int(i64::try_from(n).unwrap_or(i64::MAX));
    let usize_int = |n: usize| Value::Int(i64::try_from(n).unwrap_or(i64::MAX));
    obj(vec![
        ("sessions", usize_int(ctx.store.session_names().len())),
        ("queue_depth", usize_int(ctx.queue.len())),
        ("queue_capacity", usize_int(ctx.queue.capacity())),
        (
            "completed",
            as_int(ctx.counters.completed.load(Ordering::SeqCst)),
        ),
        ("failed", as_int(ctx.counters.failed.load(Ordering::SeqCst))),
        ("shed", as_int(ctx.counters.shed.load(Ordering::SeqCst))),
        ("memo_hits", as_int(stats.hits)),
        ("memo_misses", as_int(stats.misses)),
        ("memo_evictions", as_int(stats.evictions)),
        ("soc_hits", as_int(socs.hits)),
        ("soc_misses", as_int(socs.misses)),
        ("soc_evictions", as_int(socs.evictions)),
    ])
}

/// Handles one decoded request from the stdio front end, returning the
/// acknowledgment line. Plan requests are acknowledged as queued; their
/// completion arrives later as an event line.
fn handle_stdio(ctx: &Arc<Ctx>, id: u64, request: &Request) -> Value {
    match request {
        Request::Ping => proto::ok(id, Value::Str("pong".into())),
        Request::Status => proto::ok(id, status_value(ctx)),
        Request::Sessions => proto::ok(
            id,
            Value::Arr(
                ctx.store
                    .session_names()
                    .into_iter()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        Request::Open {
            session,
            source,
            seed,
            density,
        } => match ctx.store.create_session(session, source, *seed, *density) {
            Ok(meta) => proto::ok(
                id,
                obj(vec![
                    ("session", Value::Str(meta.name)),
                    ("kind", Value::Str(meta.kind)),
                ]),
            ),
            Err(e) => proto::err(id, &e.to_string(), None),
        },
        Request::Plan {
            session,
            mode,
            width,
            budget_ms,
        } => match enqueue_plan(ctx, session, mode, *width, *budget_ms, None) {
            Ok((request, _token)) => proto::ok(
                id,
                obj(vec![
                    ("state", Value::Str("queued".into())),
                    ("request", Value::Str(request)),
                ]),
            ),
            Err((msg, retry)) => proto::err(id, &msg, retry),
        },
        Request::GetPlan { session, request } => match plan_text_cached(ctx, session, request) {
            Some(text) => proto::ok(
                id,
                obj(vec![
                    ("request", Value::Str(request.clone())),
                    ("plan", Value::Str(text)),
                ]),
            ),
            None => proto::err(id, &format!("no plan `{session}/{request}`"), None),
        },
        Request::Shutdown => {
            ctx.shutting_down.store(true, Ordering::SeqCst);
            ctx.queue.close();
            proto::ok(id, Value::Str("draining".into()))
        }
    }
}

/// True when the HTTP peer has disconnected (used to cancel in-flight
/// plans whose requester is gone).
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Serves one HTTP connection (one request per connection).
fn handle_http_connection(ctx: &Arc<Ctx>, stream: TcpStream) {
    let respond =
        |mut stream: &TcpStream, status: u16, reason: &str, retry: Option<u64>, body: &Value| {
            let text = http::response(status, reason, retry, &body.to_json());
            let _ = stream.write_all(text.as_bytes());
            let _ = stream.flush();
        };
    let request = {
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(e) => {
                let body = proto::err(0, &e.to_string(), None);
                respond(&stream, 400, "Bad Request", None, &body);
                return;
            }
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/status") => {
            respond(&stream, 200, "OK", None, &proto::ok(0, status_value(ctx)));
        }
        ("GET", "/sessions") => {
            let body = proto::ok(
                0,
                Value::Arr(
                    ctx.store
                        .session_names()
                        .into_iter()
                        .map(Value::Str)
                        .collect(),
                ),
            );
            respond(&stream, 200, "OK", None, &body);
        }
        ("GET", path) => {
            // /session/<name>/plan/<request>
            let mut parts = path.split('/').skip(1);
            match (
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
            ) {
                (Some("session"), Some(session), Some("plan"), Some(request), None) => {
                    match plan_text_cached(ctx, session, request) {
                        Some(text) => {
                            respond(&stream, 200, "OK", None, &proto::ok(0, Value::Str(text)))
                        }
                        None => respond(
                            &stream,
                            404,
                            "Not Found",
                            None,
                            &proto::err(0, "no such plan", None),
                        ),
                    }
                }
                _ => respond(
                    &stream,
                    404,
                    "Not Found",
                    None,
                    &proto::err(0, "no such path", None),
                ),
            }
        }
        ("POST", "/rpc") => {
            let Ok(text) = std::str::from_utf8(&request.body) else {
                respond(
                    &stream,
                    400,
                    "Bad Request",
                    None,
                    &proto::err(0, "body is not utf-8", None),
                );
                return;
            };
            let (id, decoded) = proto::decode(text);
            match decoded {
                Err(e) => respond(
                    &stream,
                    400,
                    "Bad Request",
                    None,
                    &proto::err(id, &e.to_string(), None),
                ),
                // Plans run synchronously over HTTP: journal, queue, wait
                // for the worker, watching for client disconnects.
                Ok(Request::Plan {
                    session,
                    mode,
                    width,
                    budget_ms,
                }) => {
                    let (tx, rx) = mpsc::channel();
                    match enqueue_plan(ctx, &session, &mode, width, budget_ms, Some(tx)) {
                        Err((msg, retry)) => {
                            let (status, reason) = if retry.is_some() {
                                (429, "Too Many Requests")
                            } else {
                                (400, "Bad Request")
                            };
                            let secs = retry.map(|ms| ms.div_ceil(1000));
                            respond(&stream, status, reason, secs, &proto::err(id, &msg, retry));
                        }
                        Ok((_request_id, token)) => loop {
                            match rx.recv_timeout(Duration::from_millis(200)) {
                                Ok(result) => {
                                    respond(&stream, 200, "OK", None, &proto::ok(id, result));
                                    break;
                                }
                                Err(mpsc::RecvTimeoutError::Timeout) => {
                                    // Disconnected requester → cancel; the
                                    // worker still persists the best
                                    // incumbent (Interrupted outcome).
                                    if peer_gone(&stream) {
                                        token.cancel();
                                    }
                                }
                                Err(mpsc::RecvTimeoutError::Disconnected) => {
                                    respond(
                                        &stream,
                                        500,
                                        "Internal Server Error",
                                        None,
                                        &proto::err(id, "worker lost", None),
                                    );
                                    break;
                                }
                            }
                        },
                    }
                }
                Ok(other) => {
                    let ack = handle_stdio(ctx, id, &other);
                    let ok = ack.field("ok").and_then(Value::as_bool).unwrap_or(false);
                    let (status, reason) = if ok {
                        (200, "OK")
                    } else {
                        (400, "Bad Request")
                    };
                    respond(&stream, status, reason, None, &ack);
                }
            }
        }
        _ => respond(
            &stream,
            405,
            "Method Not Allowed",
            None,
            &proto::err(0, "unsupported method", None),
        ),
    }
}

/// Re-enqueues requests journaled by a previous (crashed) process. When
/// the queue is full the job runs inline — recovered work is never shed.
fn reenqueue_recovered(ctx: &Arc<Ctx>, inflight: Vec<crate::session::InflightRequest>) {
    for req in inflight {
        let mode = req
            .body
            .field("mode")
            .and_then(Value::as_str)
            .unwrap_or("per-core")
            .to_string();
        let width = req
            .body
            .field("width")
            .and_then(Value::as_u64)
            .and_then(|w| u32::try_from(w).ok())
            .unwrap_or(16);
        let budget_ms = req
            .body
            .field("budget_ms")
            .and_then(Value::as_u64)
            .unwrap_or(ctx.default_budget_ms);
        let job = PlanJob {
            session: req.session,
            request: req.request,
            mode,
            width,
            budget_ms,
            token: CancelToken::never(),
            reply: None,
        };
        // Cannot fail: the queue was sized to hold every recovered job
        // (see `run_with_io`) and is still open at startup.
        let _ = ctx.queue.try_push(job);
    }
}

/// Runs the daemon until stdin closes or a `shutdown` request drains it.
/// Returns a process exit code.
pub fn run(config: &ServeConfig) -> i32 {
    run_with_io(
        config,
        &mut BufReader::new(std::io::stdin()),
        Box::new(std::io::stdout()),
    )
}

/// [`run`] with injectable stdio, for tests.
pub fn run_with_io(
    config: &ServeConfig,
    input: &mut dyn BufRead,
    output: Box<dyn Write + Send>,
) -> i32 {
    let store = match SessionStore::open(&config.root) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("soctdc serve: cannot open state root: {e}");
            return 2;
        }
    };
    let recovery = store.recover();
    // Size the queue so every recovered job fits alongside new work;
    // recovered work must never be shed.
    let capacity = config
        .queue_cap
        .max(recovery.inflight.len().saturating_add(1));
    let ctx = Arc::new(Ctx {
        store,
        queue: BoundedQueue::new(capacity),
        faults: FaultPlan::from_env(),
        stdout: Mutex::new(output),
        memo: Mutex::new(BoundedCache::new(config.memo_limits)),
        counters: Counters::default(),
        default_budget_ms: config.default_budget_ms.max(1),
        shutting_down: AtomicBool::new(false),
    });

    ctx.emit(&obj(vec![
        ("event", Value::Str("ready".into())),
        (
            "recovered_sessions",
            Value::Int(i64::try_from(recovery.sessions.len()).unwrap_or(0)),
        ),
        (
            "recovered_inflight",
            Value::Int(i64::try_from(recovery.inflight.len()).unwrap_or(0)),
        ),
        (
            "quarantined",
            Value::Int(i64::try_from(recovery.quarantined.len()).unwrap_or(0)),
        ),
    ]));
    reenqueue_recovered(&ctx, recovery.inflight);

    let mut workers = Vec::new();
    for _ in 0..config.workers.max(1) {
        let ctx = Arc::clone(&ctx);
        workers.push(std::thread::spawn(move || worker_loop(ctx)));
    }

    // Optional HTTP listener; its accept loop exits when the socket
    // errors or the process does.
    if let Some(addr) = &config.http {
        match TcpListener::bind(addr) {
            Ok(listener) => {
                if let Ok(local) = listener.local_addr() {
                    ctx.emit(&obj(vec![
                        ("event", Value::Str("http-listening".into())),
                        ("addr", Value::Str(local.to_string())),
                    ]));
                }
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || {
                    for stream in listener.incoming() {
                        let Ok(stream) = stream else { continue };
                        if ctx.shutting_down.load(Ordering::SeqCst) {
                            break;
                        }
                        let ctx = Arc::clone(&ctx);
                        std::thread::spawn(move || handle_http_connection(&ctx, stream));
                    }
                });
            }
            Err(e) => {
                eprintln!("soctdc serve: cannot bind {addr}: {e}");
                return 2;
            }
        }
    }

    // Stdio front end on this thread: one request per line.
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => break, // stdin closed: drain and exit
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let (id, decoded) = proto::decode(trimmed);
                let ack = match decoded {
                    Ok(request) => handle_stdio(&ctx, id, &request),
                    Err(e) => proto::err(id, &e.to_string(), None),
                };
                ctx.emit(&ack);
                if ctx.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }

    ctx.shutting_down.store(true, Ordering::SeqCst);
    ctx.queue.close();
    for worker in workers {
        let _ = worker.join();
    }
    ctx.emit(&obj(vec![("event", Value::Str("bye".into()))]));
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DesignSource;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("serve-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_ctx(root: &PathBuf) -> Arc<Ctx> {
        Arc::new(Ctx {
            store: SessionStore::open(root).unwrap(),
            queue: BoundedQueue::new(2),
            faults: FaultPlan::none(),
            stdout: Mutex::new(Box::new(Vec::new())),
            memo: Mutex::new(BoundedCache::new(CacheLimits::new(8, 1 << 20))),
            counters: Counters::default(),
            default_budget_ms: 1000,
            shutting_down: AtomicBool::new(false),
        })
    }

    #[test]
    fn mode_keywords_match_the_cli() {
        for mode in [
            "no-tdc", "per-core", "per-tam", "fixed4", "reseed", "fdr", "select",
        ] {
            assert!(planner_for(mode).is_some(), "{mode}");
        }
        assert!(planner_for("warp").is_none());
    }

    #[test]
    fn ping_status_sessions_and_open() {
        let root = tmp_root("ops");
        let ctx = test_ctx(&root);
        let ack = handle_stdio(&ctx, 1, &Request::Ping);
        assert_eq!(ack.field("ok"), Some(&Value::Bool(true)));

        let ack = handle_stdio(
            &ctx,
            2,
            &Request::Open {
                session: "s1".into(),
                source: DesignSource::Benchmark("d695".into()),
                seed: 1,
                density: 0.5,
            },
        );
        assert_eq!(ack.field("ok"), Some(&Value::Bool(true)));

        let ack = handle_stdio(&ctx, 3, &Request::Sessions);
        assert_eq!(
            ack.field("result"),
            Some(&Value::Arr(vec![Value::Str("s1".into())]))
        );

        let ack = handle_stdio(&ctx, 4, &Request::Status);
        let status = ack.field("result").unwrap();
        assert_eq!(status.field("sessions").and_then(Value::as_i64), Some(1));
        assert_eq!(status.field("queue_depth").and_then(Value::as_i64), Some(0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn plan_requests_queue_and_shed() {
        let root = tmp_root("shed");
        let ctx = test_ctx(&root);
        handle_stdio(
            &ctx,
            1,
            &Request::Open {
                session: "s".into(),
                source: DesignSource::Benchmark("d695".into()),
                seed: 1,
                density: 0.5,
            },
        );
        // Capacity 2: two queued, third shed with a retry hint.
        for id in [2u64, 3] {
            let ack = handle_stdio(
                &ctx,
                id,
                &Request::Plan {
                    session: "s".into(),
                    mode: "no-tdc".into(),
                    width: 8,
                    budget_ms: Some(100),
                },
            );
            assert_eq!(ack.field("ok"), Some(&Value::Bool(true)), "{ack:?}");
        }
        let ack = handle_stdio(
            &ctx,
            4,
            &Request::Plan {
                session: "s".into(),
                mode: "no-tdc".into(),
                width: 8,
                budget_ms: Some(100),
            },
        );
        assert_eq!(ack.field("ok"), Some(&Value::Bool(false)));
        assert!(ack.field("retry_after_ms").and_then(Value::as_u64).unwrap() > 0);
        // The shed request's journal entry is gone: replay would double-run.
        let rec = ctx.store.recover();
        assert_eq!(rec.inflight.len(), 2);
        // Unknown session / mode are rejected before journaling.
        let ack = handle_stdio(
            &ctx,
            5,
            &Request::Plan {
                session: "nope".into(),
                mode: "no-tdc".into(),
                width: 8,
                budget_ms: None,
            },
        );
        assert_eq!(ack.field("ok"), Some(&Value::Bool(false)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn worker_completes_a_plan_end_to_end() {
        let root = tmp_root("e2e");
        let ctx = test_ctx(&root);
        handle_stdio(
            &ctx,
            1,
            &Request::Open {
                session: "s".into(),
                source: DesignSource::Benchmark("d695".into()),
                seed: 1,
                density: 0.5,
            },
        );
        let (request, _token) = enqueue_plan(&ctx, "s", "no-tdc", 16, Some(2_000), None).unwrap();
        let job = ctx.queue.pop().unwrap();
        let result = run_job(&ctx, &job);
        assert_eq!(
            result.field("event"),
            Some(&Value::Str("plan-done".into())),
            "{result:?}"
        );
        // Plan persisted, journal cleared, memo primed.
        let text = plan_text_cached(&ctx, "s", &request).unwrap();
        assert!(tdcsoc::parse_plan(&text).is_ok());
        assert!(ctx.store.recover().inflight.is_empty());
        assert!(ctx.memo.lock().unwrap().stats().hits >= 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn repeat_plans_on_a_session_hit_the_soc_cache() {
        let root = tmp_root("soc-cache");
        let ctx = test_ctx(&root);
        handle_stdio(
            &ctx,
            1,
            &Request::Open {
                session: "s".into(),
                source: DesignSource::Benchmark("d695".into()),
                seed: 1,
                density: 0.5,
            },
        );
        let soc_counters = || {
            let status = status_value(&ctx);
            ["soc_hits", "soc_misses", "soc_evictions"]
                .map(|field| status.field(field).and_then(Value::as_u64).unwrap())
        };
        assert_eq!(soc_counters(), [0, 0, 0]);
        let mut plans = Vec::new();
        for expected in [[0, 1, 0], [1, 1, 0]] {
            let (request, _) = enqueue_plan(&ctx, "s", "no-tdc", 16, Some(0), None).unwrap();
            let job = ctx.queue.pop().unwrap();
            let done = run_job(&ctx, &job);
            assert_eq!(done.field("event"), Some(&Value::Str("plan-done".into())));
            assert_eq!(soc_counters(), expected);
            plans.push(ctx.store.plan_text("s", &request).unwrap());
        }
        assert_eq!(plans[0], plans[1], "a cache hit must plan like a miss");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_enqueues_get_distinct_request_ids() {
        const THREADS: usize = 8;
        let root = tmp_root("ids");
        let ctx = Arc::new(Ctx {
            queue: BoundedQueue::new(THREADS),
            ..Arc::into_inner(test_ctx(&root)).unwrap()
        });
        ctx.store
            .create_session("s", &DesignSource::Benchmark("d695".into()), 1, 0.5)
            .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..20 {
            let start = std::sync::Barrier::new(THREADS);
            let ids: Vec<String> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            enqueue_plan(&ctx, "s", "no-tdc", 8, Some(0), None)
                                .map(|(request, _)| request)
                                .unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for id in ids {
                assert!(
                    seen.insert(id.clone()),
                    "round {round}: id {id} issued twice"
                );
            }
            while !ctx.queue.is_empty() {
                ctx.queue.pop();
            }
        }
        assert_eq!(ctx.store.recover().inflight.len(), 20 * THREADS);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stdio_loop_smoke() {
        let root = tmp_root("loop");
        let config = ServeConfig {
            workers: 1,
            queue_cap: 2,
            default_budget_ms: 1_000,
            ..ServeConfig::new(&root)
        };
        let input = "{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"shutdown\"}\n";
        let code = run_with_io(
            &config,
            &mut BufReader::new(input.as_bytes()),
            Box::new(Vec::new()),
        );
        assert_eq!(code, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}

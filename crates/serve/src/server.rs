//! The hardened request loop: fair scheduling, admission control, panic
//! quarantine, deadlines, and graceful drain.
//!
//! A [`Server`] owns one [`SessionPool`] and a scheduler of per-client
//! FIFO queues served round-robin, so one heavy tenant cannot starve the
//! rest. `load`/`status`/`shutdown` are answered synchronously on the
//! reader thread; `slice` requests are queued and executed by a worker
//! pool.
//!
//! One exception spares a closed-loop client (an IDE or CLI caller that
//! waits for each answer) the hand-off to a worker: in stream
//! mode ([`Server::serve`]) with one worker, the reader answers a `slice`
//! itself when no job is queued or executing and its input buffer holds
//! nothing after the line. It is the same job, admitted from the same
//! queue depth and counted as in flight, so drains wait for it. The one
//! worker finds nothing to run meanwhile, since the reader enqueues
//! nothing while it executes, so still one query runs at a time. The
//! price is intake: a `load`, `reload`, `status` or `stats` line sent
//! during that query waits for it, where the reader would have answered
//! it while the worker ran the query. With more workers every slice
//! queues, because a reader busy with a query would leave a slice sent
//! meanwhile unread instead of starting it on an idle worker. Pipelined
//! input still queues, which keeps the queue depth that admission
//! control reads. Socket mode ([`Server::serve_listener`]) always
//! queues: it has one reader per connection, so answering in place there
//! could run more than `workers` queries at once.
//!
//! Robustness layers, outermost first:
//!
//! * **Malformed input** — the reader consumes raw bytes line by line
//!   (bounded, lossy UTF-8), so garbage, truncated JSON, or oversized
//!   lines each produce one structured error response and the loop keeps
//!   reading. Nothing a client sends can disconnect it or panic the
//!   process.
//! * **Admission control** — under queue pressure the fleet walks the
//!   PR 2 degradation ladder instead of refusing service: beyond
//!   `degrade_pending` queued queries, CS requests are answered
//!   context-insensitively ([`Admission::DegradeCi`]); beyond
//!   `truncate_pending`, a hard step cap yields truncated-but-sound
//!   results ([`Admission::Truncate`]). A client that exhausts its
//!   `client_step_budget` is degraded the same way while others ride
//!   unaffected.
//! * **Panic isolation** — each query attempt runs under `catch_unwind`.
//!   A panic quarantines the session (dropped and rebuilt from retained
//!   sources on next use) and the request is retried on the fresh
//!   session up to `retries` times before a structured `panic` error is
//!   returned. Sibling requests never notice.
//! * **Deterministic fault injection** — the PR 2 [`FaultInjection`]
//!   shape extends into the request path: a config-level fault panics
//!   the Nth slice request's first `attempts` attempts, and chaos-mode
//!   requests may carry `"chaos":{"panics":n}` themselves. The chaos
//!   suite is built on this.
//! * **Graceful shutdown** — EOF, a `shutdown` request, or an external
//!   signal flag all stop intake, drain every queued and in-flight
//!   query (each still gets its response), then acknowledge.
//!
//! [`FaultInjection`]: thinslice::FaultInjection

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::pool::{Checkout, PoolConfig, PoolError, SessionPool};
use crate::protocol::{
    engine_str, error_line, kind_str, load_line, parse_request, reload_line, shutdown_line,
    slice_line, stats_line, status_line, Admission, Op, ProgramRef, SliceRequest, SlowQueryRow,
    SourceFile, StatsSnapshot, StatusSnapshot, TenantRow,
};
use thinslice::{report, Budget, Engine, FaultInjection, Query, QueryPolicy, SliceResult};
use thinslice_util::govern::Completeness;
use thinslice_util::telemetry::{
    FlightKind, FlightRecorder, Histogram, HistogramSummary, Telemetry,
};
use thinslice_util::{panic_message, FxHashMap};

/// How many slow queries the log retains (oldest dropped first).
const SLOW_LOG_CAP: usize = 32;

/// How many of a latency row's newest samples its p50 and p95 cover.
const LATENCY_WINDOW: usize = 1024;

/// How many flight-recorder events a `stats` response tails.
const EVENT_TAIL: usize = 32;

/// A writer shared between the reader thread and the workers; response
/// lines are serialized under its lock and flushed per line.
pub type SharedOut = Arc<Mutex<dyn Write + Send>>;

/// Wraps a writer for [`Server::serve`].
pub fn shared_out<W: Write + Send + 'static>(w: W) -> SharedOut {
    Arc::new(Mutex::new(w))
}

/// Server tuning knobs. The default is a deterministic single-worker
/// daemon with admission thresholds suited to interactive load.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing slice queries.
    pub workers: usize,
    /// Session-pool sizing (cap, watermark, points-to config).
    pub pool: PoolConfig,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Step quota applied to requests that do not carry their own.
    pub default_step_budget: Option<u64>,
    /// Queue depth at which CS requests degrade to CI (`usize::MAX`
    /// disables the rung).
    pub degrade_pending: usize,
    /// Queue depth at which requests additionally get a hard step cap.
    pub truncate_pending: usize,
    /// The step cap applied at the [`Admission::Truncate`] rung.
    pub truncate_step_cap: u64,
    /// Cumulative per-client step allowance (graph nodes visited);
    /// clients over it are served at the truncate rung.
    pub client_step_budget: Option<u64>,
    /// How many times a panicked request is retried on a rebuilt
    /// session before a `panic` error response.
    pub retries: u32,
    /// Whether request-carried `"chaos"` fault fields are honoured.
    pub chaos: bool,
    /// Config-level deterministic fault: the `query`-th slice request
    /// (arrival order, 0-based) panics for its first `attempts` attempts.
    pub fault: Option<FaultInjection>,
    /// Reject programs whose summed source bytes exceed this.
    pub max_program_bytes: usize,
    /// Collect telemetry; `status` responses then embed a
    /// `thinslice.run_report.v1` report.
    pub trace: bool,
    /// Flight-recorder ring capacity in events; 0 disables the recorder
    /// entirely (the `stats` op then reports an empty event tail).
    pub recorder_capacity: usize,
    /// Slow-query threshold in milliseconds: requests at or over it are
    /// captured into the slow-query log and the flight recorder.
    /// [`None`] disables the log; 0 captures every request.
    pub slow_ms: Option<u64>,
    /// Emit a `stats` snapshot to stderr every this-many seconds while
    /// serving (the operator's drive-by view; [`None`] disables it).
    pub stats_interval: Option<u64>,
    /// After an external-signal drain, flush and `exit(0)` instead of
    /// returning (the CLI sets this; a reader blocked on stdin cannot be
    /// joined). Never affects EOF or `shutdown`-request paths.
    pub exit_on_signal: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            pool: PoolConfig::default(),
            default_deadline_ms: None,
            default_step_budget: None,
            degrade_pending: 64,
            truncate_pending: 256,
            truncate_step_cap: 50_000,
            client_step_budget: None,
            retries: 1,
            chaos: false,
            fault: None,
            max_program_bytes: 4 * 1024 * 1024,
            trace: false,
            recorder_capacity: 256,
            slow_ms: None,
            stats_interval: None,
            exit_on_signal: false,
        }
    }
}

/// What one [`Server::serve`] run did (reported on stderr by the CLI).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Successful responses written.
    pub served: u64,
    /// Error responses written.
    pub errors: u64,
    /// Query panics caught (injected or real).
    pub panics: u64,
}

struct Job {
    id: Option<u64>,
    client: String,
    req: SliceRequest,
    admission: Admission,
    /// When the job entered the queue, for the slow-query log's
    /// queue-time stage breakdown.
    enqueued: Instant,
    out: SharedOut,
}

/// One tenant's live aggregation (under the observability lock).
#[derive(Default)]
struct TenantAgg {
    requests: u64,
    errors: u64,
    retries: u64,
    degraded: u64,
    shed: u64,
    spent_steps: u64,
    latency: LatencyRow,
}

/// One row of the daemon's latency tables. Count, sum and max are running
/// totals; p50 and p95 are taken over the newest [`LATENCY_WINDOW`]
/// samples, held in a ring that grows with the row's first samples and
/// then stays put, so a row's memory and the cost of summarising it under
/// the observability lock do not grow with uptime, and a row with few
/// samples holds few.
#[derive(Default)]
struct LatencyRow {
    count: u64,
    sum: f64,
    max: f64,
    /// The newest samples; sample `n` (0-based) lives in slot
    /// `n % LATENCY_WINDOW`.
    window: Vec<f64>,
}

impl LatencyRow {
    fn record(&mut self, v: f64) {
        if self.window.len() < LATENCY_WINDOW {
            self.window.push(v);
        } else {
            self.window[(self.count % LATENCY_WINDOW as u64) as usize] = v;
        }
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// The row's summary; percentiles are nearest-rank over the window.
    fn summary(&self) -> HistogramSummary {
        let mut newest = Histogram::new();
        for &v in &self.window {
            newest.record(v);
        }
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            p50: newest.percentile(50.0),
            p95: newest.percentile(95.0),
            max: self.max,
        }
    }
}

/// Wall-clock stage breakdown of one completed request, in microseconds
/// (plus the step spend charged for it).
struct ObservedTiming {
    queue_us: u64,
    exec_us: u64,
    spend: u64,
}

/// The observability plane's mutable state. One mutex, touched once per
/// completed request and once per `stats` snapshot — never while a query
/// runs, so an idle daemon (and the query itself) pays nothing for it.
#[derive(Default)]
struct Obs {
    /// Per-tenant tables, keyed by client name (sorted iteration gives
    /// the stats doc its deterministic row order).
    tenants: BTreeMap<String, TenantAgg>,
    /// Per-program latency rows, keyed by pool hash.
    session_lat: BTreeMap<String, LatencyRow>,
    /// The slow-query log, oldest first, capped at [`SLOW_LOG_CAP`].
    slow: VecDeque<SlowQueryRow>,
}

struct Ack {
    id: Option<u64>,
    drained: usize,
    out: SharedOut,
}

#[derive(Default)]
struct Sched {
    /// Per-client FIFO queues, in first-seen client order; served
    /// round-robin from `rr`.
    queues: Vec<(String, VecDeque<Job>)>,
    rr: usize,
    pending: usize,
    in_flight: usize,
    accepting: bool,
    /// Cumulative step spend (graph nodes visited) per client.
    spent: FxHashMap<String, u64>,
}

/// What [`Server::ingest`] decided about one request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Keep reading.
    Continue,
    /// A `shutdown` request was accepted: stop reading and drain.
    Shutdown,
}

/// The long-lived daemon core. Drivable in-process (the chaos suite
/// feeds it a byte buffer) or from the CLI over stdin/socket.
pub struct Server {
    cfg: ServeConfig,
    telemetry: Telemetry,
    pool: Mutex<SessionPool>,
    sched: Mutex<Sched>,
    cv: Condvar,
    shutdown: Arc<AtomicBool>,
    input_done: AtomicBool,
    shutdown_ack: Mutex<Option<Ack>>,
    slice_seq: AtomicU64,
    served: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    /// Always-on flight recorder ([`None`] when `recorder_capacity` is 0).
    recorder: Option<Arc<FlightRecorder>>,
    /// Per-tenant tables, per-session latency, slow-query log.
    obs: Mutex<Obs>,
    /// When the server was built, for `uptime_ms`.
    start: Instant,
}

impl Server {
    /// Builds a server; nothing runs until [`Server::serve`].
    pub fn new(cfg: ServeConfig) -> Server {
        let telemetry = if cfg.trace {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let recorder = (cfg.recorder_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(cfg.recorder_capacity)));
        let mut pool = SessionPool::new(cfg.pool.clone(), telemetry.clone());
        pool.set_recorder(recorder.clone());
        Server {
            cfg,
            telemetry,
            pool: Mutex::new(pool),
            sched: Mutex::new(Sched {
                accepting: true,
                ..Sched::default()
            }),
            cv: Condvar::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            input_done: AtomicBool::new(false),
            shutdown_ack: Mutex::new(None),
            slice_seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            recorder,
            obs: Mutex::new(Obs::default()),
            start: Instant::now(),
        }
    }

    fn flight(&self, kind: FlightKind, label: &str, a: u64, b: u64) {
        if let Some(rec) = &self.recorder {
            rec.record(kind, label, a, b);
        }
    }

    /// Attributes one error response to a tenant's table.
    fn tenant_err(&self, client: &str) {
        let mut obs = self.obs.lock().unwrap();
        row(&mut obs.tenants, client).errors += 1;
    }

    /// The external shutdown flag; a signal handler stores `true` and
    /// the serve loop drains and exits. Clone freely.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    fn write_ok(&self, out: &SharedOut, line: &str) {
        self.served.fetch_add(1, Ordering::Relaxed);
        Self::write_raw(out, line);
    }

    fn write_err(&self, out: &SharedOut, id: Option<u64>, code: &str, message: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        Self::write_raw(out, &error_line(id, code, message));
    }

    fn write_raw(out: &SharedOut, line: &str) {
        let mut o = out.lock().unwrap();
        let _ = writeln!(o, "{line}");
        let _ = o.flush();
    }

    fn admission_for(&self, pending: usize) -> Admission {
        if pending >= self.cfg.truncate_pending {
            Admission::Truncate
        } else if pending >= self.cfg.degrade_pending {
            Admission::DegradeCi
        } else {
            Admission::Full
        }
    }

    fn sources_size(sources: &[SourceFile]) -> usize {
        sources.iter().map(|s| s.name.len() + s.text.len()).sum()
    }

    fn handle_load(&self, id: Option<u64>, sources: Vec<SourceFile>, out: &SharedOut) {
        let size = Self::sources_size(&sources);
        if size > self.cfg.max_program_bytes {
            self.write_err(
                out,
                id,
                "too_large",
                &format!(
                    "program is {size} bytes (limit {})",
                    self.cfg.max_program_bytes
                ),
            );
            return;
        }
        match self.pool.lock().unwrap().register(sources) {
            Ok(r) => self.write_ok(out, &load_line(id, &r.hash, r.cached, r.resident)),
            Err(e) => self.write_err(out, id, "compile", &e.to_string()),
        }
    }

    /// Answers a `reload` synchronously on the reader thread, like `load`:
    /// the pool swaps the entry's sources under its existing key and
    /// updates (or rebuilds) the session before the response is written,
    /// so every later query on that key sees the new program.
    fn handle_reload(
        &self,
        id: Option<u64>,
        program: String,
        sources: Vec<SourceFile>,
        out: &SharedOut,
    ) {
        let size = Self::sources_size(&sources);
        if size > self.cfg.max_program_bytes {
            self.write_err(
                out,
                id,
                "too_large",
                &format!(
                    "program is {size} bytes (limit {})",
                    self.cfg.max_program_bytes
                ),
            );
            return;
        }
        match self.pool.lock().unwrap().reload(&program, sources) {
            Ok(r) => self.write_ok(
                out,
                &reload_line(id, &r.hash, &r.content, r.rebuilt, &r.stats, r.resident),
            ),
            Err(PoolError::UnknownProgram) => self.write_err(
                out,
                id,
                "unknown_program",
                &format!("program {program:?} was never loaded"),
            ),
            Err(PoolError::Compile(e)) => self.write_err(out, id, "compile", &e.to_string()),
        }
    }

    fn status_snapshot(&self, pool: &SessionPool) -> StatusSnapshot {
        StatusSnapshot {
            programs: pool.programs(),
            live_sessions: pool.live_sessions(),
            quarantined: pool.quarantined(),
            resident: pool.resident_total(),
            evictions: pool.stats.evictions,
            rebuilds: pool.stats.rebuilds,
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            pool_capacity: pool.capacity(),
            uptime_ms: self.start.elapsed().as_millis() as u64,
        }
    }

    fn handle_status(&self, id: Option<u64>, out: &SharedOut) {
        let snap = self.status_snapshot(&self.pool.lock().unwrap());
        let report = self.cfg.trace.then(|| self.telemetry.report().to_json());
        self.write_ok(out, &status_line(id, &snap, report.as_deref()));
    }

    /// Gathers the full observability snapshot. Pool and observability
    /// locks are taken one after the other, never nested, and never
    /// while a query is executing.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let (status, mut sessions, pool_stats) = {
            let pool = self.pool.lock().unwrap();
            (self.status_snapshot(&pool), pool.session_rows(), pool.stats)
        };
        let obs = self.obs.lock().unwrap();
        for row in &mut sessions {
            if let Some(h) = obs.session_lat.get(&row.program) {
                row.latency_us = h.summary();
            }
        }
        let tenants = obs
            .tenants
            .iter()
            .map(|(client, t)| TenantRow {
                client: client.clone(),
                requests: t.requests,
                errors: t.errors,
                retries: t.retries,
                degraded: t.degraded,
                shed: t.shed,
                spent_steps: t.spent_steps,
                latency_us: t.latency.summary(),
            })
            .collect();
        let slow = obs.slow.iter().cloned().collect();
        drop(obs);
        let (recorded, recorder_capacity, events) = match &self.recorder {
            Some(rec) => (rec.recorded(), rec.capacity(), rec.tail(EVENT_TAIL)),
            None => (0, 0, Vec::new()),
        };
        StatsSnapshot {
            uptime_ms: status.uptime_ms,
            status,
            pool_hits: pool_stats.hits,
            pool_misses: pool_stats.misses,
            pool_builds: pool_stats.builds,
            pool_quarantines: pool_stats.quarantines,
            pool_reloads: pool_stats.reloads,
            pool_reloads_incremental: pool_stats.reloads_incremental,
            snapshot_hits: pool_stats.snapshot_hits,
            snapshot_misses: pool_stats.snapshot_misses,
            snapshot_writes: pool_stats.snapshot_writes,
            snapshot_discarded_corrupt: pool_stats.snapshot_discarded_corrupt,
            recorded,
            recorder_capacity,
            tenants,
            sessions,
            slow,
            events,
        }
    }

    fn handle_stats(&self, id: Option<u64>, out: &SharedOut) {
        self.write_ok(out, &stats_line(id, &self.stats_snapshot()));
    }

    /// A compact human rendering of the current snapshot, for the
    /// `--stats-interval` stderr ticker.
    pub fn stats_text(&self) -> String {
        let s = self.stats_snapshot();
        let mut out = format!(
            "thinslice-serve up {:.1}s · pool {}/{} sessions ({} quarantined, resident {}) · \
             served {} errors {} panics {} · recorder {}/{} events",
            s.uptime_ms as f64 / 1000.0,
            s.status.live_sessions,
            s.status.pool_capacity,
            s.status.quarantined,
            s.status.resident,
            s.status.served,
            s.status.errors,
            s.status.panics,
            s.recorded.min(s.recorder_capacity as u64),
            s.recorder_capacity,
        );
        if !s.tenants.is_empty() {
            out.push_str(&format!(
                "\n  {:<16} {:>6} {:>5} {:>5} {:>5} {:>5} {:>10} {:>9} {:>9} {:>9}",
                "CLIENT", "REQ", "ERR", "RETRY", "DEGR", "SHED", "STEPS", "p50us", "p95us", "maxus"
            ));
            for t in &s.tenants {
                out.push_str(&format!(
                    "\n  {:<16} {:>6} {:>5} {:>5} {:>5} {:>5} {:>10} {:>9.0} {:>9.0} {:>9.0}",
                    t.client,
                    t.requests,
                    t.errors,
                    t.retries,
                    t.degraded,
                    t.shed,
                    t.spent_steps,
                    t.latency_us.p50,
                    t.latency_us.p95,
                    t.latency_us.max,
                ));
            }
        }
        if !s.slow.is_empty() {
            out.push_str(&format!("\n  slow queries ({}):", s.slow.len()));
            for q in &s.slow {
                out.push_str(&format!(
                    "\n    id={} client={} {}/{} {} queue {}us exec {}us total {}us spend {}",
                    q.id.map_or("null".to_string(), |n| n.to_string()),
                    q.client,
                    q.kind,
                    q.engine,
                    q.completeness,
                    q.queue_us,
                    q.exec_us,
                    q.total_us,
                    q.spend,
                ));
            }
        }
        out
    }

    fn handle_shutdown(&self, id: Option<u64>, out: &SharedOut) {
        let mut sched = self.sched.lock().unwrap();
        if !sched.accepting {
            drop(sched);
            self.write_err(out, id, "shutting_down", "shutdown already in progress");
            return;
        }
        sched.accepting = false;
        let drained = sched.pending + sched.in_flight;
        drop(sched);
        *self.shutdown_ack.lock().unwrap() = Some(Ack {
            id,
            drained,
            out: out.clone(),
        });
        self.cv.notify_all();
    }

    /// Queues a slice for the workers or, when it comes `alone` to an idle
    /// one-worker daemon, runs it on the calling thread before returning.
    fn submit_slice(
        &self,
        id: Option<u64>,
        client: String,
        req: SliceRequest,
        out: &SharedOut,
        alone: bool,
    ) {
        if let ProgramRef::Inline(sources) = &req.program {
            let size = Self::sources_size(sources);
            if size > self.cfg.max_program_bytes {
                self.tenant_err(&client);
                self.write_err(
                    out,
                    id,
                    "too_large",
                    &format!(
                        "program is {size} bytes (limit {})",
                        self.cfg.max_program_bytes
                    ),
                );
                return;
            }
        }
        let mut chaos_panics = req.chaos_panics;
        if chaos_panics > 0 && !self.cfg.chaos {
            self.tenant_err(&client);
            self.write_err(
                out,
                id,
                "chaos_disabled",
                "request carries a chaos fault but the server was not started with --chaos",
            );
            return;
        }
        let seq = self.slice_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(fault) = &self.cfg.fault {
            if fault.query as u64 == seq {
                chaos_panics = chaos_panics.max(fault.attempts);
            }
        }
        let mut req = req;
        req.chaos_panics = chaos_panics;

        let mut sched = self.sched.lock().unwrap();
        if !sched.accepting {
            drop(sched);
            self.tenant_err(&client);
            self.write_err(out, id, "shutting_down", "server is draining; resend later");
            return;
        }
        let admission = self.admission_for(sched.pending);
        let job = Job {
            id,
            client,
            req,
            admission,
            enqueued: Instant::now(),
            out: out.clone(),
        };
        if alone && self.cfg.workers <= 1 && sched.pending == 0 && sched.in_flight == 0 {
            sched.in_flight += 1;
            drop(sched);
            self.run_job(job);
            return;
        }
        match sched.queues.iter_mut().find(|(c, _)| *c == job.client) {
            Some((_, q)) => q.push_back(job),
            None => sched
                .queues
                .push((job.client.clone(), VecDeque::from([job]))),
        }
        sched.pending += 1;
        drop(sched);
        self.cv.notify_all();
    }

    /// Handles one request line: synchronous ops are answered in place,
    /// slice queries are queued for the workers. Total over arbitrary
    /// input — every failure is a structured error response.
    pub fn ingest(&self, line: &str, out: &SharedOut) -> Ingest {
        self.ingest_line(line, out, false)
    }

    /// [`Server::ingest`] for the stream reader, which sets `alone` when
    /// its input buffer holds nothing after `line`: such a slice may be
    /// answered on the reader thread (see the module docs).
    fn ingest_line(&self, line: &str, out: &SharedOut, alone: bool) -> Ingest {
        match parse_request(line) {
            Err(e) => {
                self.write_err(out, e.id, e.code, &e.message);
                Ingest::Continue
            }
            Ok(req) => match req.op {
                Op::Load { sources } => {
                    self.handle_load(req.id, sources, out);
                    Ingest::Continue
                }
                Op::Reload { program, sources } => {
                    self.handle_reload(req.id, program, sources, out);
                    Ingest::Continue
                }
                Op::Status => {
                    self.handle_status(req.id, out);
                    Ingest::Continue
                }
                Op::Stats => {
                    self.handle_stats(req.id, out);
                    Ingest::Continue
                }
                Op::Shutdown => {
                    self.handle_shutdown(req.id, out);
                    Ingest::Shutdown
                }
                Op::Slice(sr) => {
                    self.submit_slice(req.id, req.client, sr, out, alone);
                    Ingest::Continue
                }
            },
        }
    }

    fn pop_job(sched: &mut Sched) -> Option<Job> {
        if sched.pending == 0 || sched.queues.is_empty() {
            return None;
        }
        let n = sched.queues.len();
        for step in 0..n {
            let i = (sched.rr + step) % n;
            if let Some(job) = sched.queues[i].1.pop_front() {
                sched.rr = (i + 1) % n;
                sched.pending -= 1;
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut sched = self.sched.lock().unwrap();
                loop {
                    if let Some(job) = Self::pop_job(&mut sched) {
                        sched.in_flight += 1;
                        break job;
                    }
                    if !sched.accepting {
                        return;
                    }
                    sched = self.cv.wait(sched).unwrap();
                }
            };
            self.run_job(job);
        }
    }

    /// Executes a job already counted in `in_flight`, then retires it.
    /// Workers wait on the condvar for jobs and the serve loop for the end
    /// of input, so only a drain waits for a completion: the condvar is
    /// woken only when this completion ends one.
    fn run_job(&self, job: Job) {
        self.execute(job);
        let mut sched = self.sched.lock().unwrap();
        sched.in_flight -= 1;
        let drained = !sched.accepting && sched.pending == 0 && sched.in_flight == 0;
        drop(sched);
        if drained {
            self.cv.notify_all();
        }
    }

    /// Checks out the job's session under one pool guard, registering
    /// inline sources on first use.
    fn checkout(&self, job: &Job) -> Result<Checkout, (&'static str, String)> {
        let mut pool = self.pool.lock().unwrap();
        let registered;
        let hash = match &job.req.program {
            ProgramRef::Hash(h) => h,
            ProgramRef::Inline(sources) => {
                registered = pool
                    .register(sources.clone())
                    .map_err(|e| ("compile", e.to_string()))?;
                &registered.hash
            }
        };
        pool.checkout(hash).map_err(|e| checkout_error(hash, e))
    }

    fn execute(&self, job: Job) {
        let started = Instant::now();
        let queue_us = started.duration_since(job.enqueued).as_micros() as u64;
        let mut co = match self.checkout(&job) {
            Ok(co) => co,
            Err((code, msg)) => {
                self.tenant_err(&job.client);
                self.write_err(&job.out, job.id, code, &msg);
                return;
            }
        };
        let hash = co.hash().to_string();
        // A client over its cumulative allowance is load-shed to the
        // truncate rung; other tenants are unaffected.
        let mut admission = job.admission;
        if let Some(allowance) = self.cfg.client_step_budget {
            let sched = self.sched.lock().unwrap();
            if sched.spent.get(&job.client).copied().unwrap_or(0) >= allowance {
                admission = Admission::Truncate;
            }
        }
        let admission_kind = match admission {
            Admission::Full => FlightKind::RequestAdmitted,
            Admission::DegradeCi => FlightKind::RequestDegraded,
            Admission::Truncate => FlightKind::RequestShed,
        };
        self.flight(admission_kind, &job.client, job.id.unwrap_or(0), queue_us);

        let mut attempt: u32 = 0;
        loop {
            if job.req.chaos_panics > attempt {
                self.flight(
                    FlightKind::FaultInjected,
                    &job.client,
                    job.id.unwrap_or(0),
                    u64::from(attempt),
                );
            }
            // The response is rendered under the same guard as the query,
            // and before checkin: its lines borrow the session's program.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if job.req.chaos_panics > attempt {
                    panic!("injected chaos panic (attempt {attempt})");
                }
                let (slice, engine, spend) = self.run_query(co.session(), &job.req, admission)?;
                let degraded =
                    slice.degraded || (job.req.engine == Engine::Cs && engine == Engine::Ci);
                let response = slice_line(
                    job.id,
                    &hash,
                    engine,
                    job.req.kind,
                    admission,
                    degraded,
                    slice.completeness,
                    &report::stmt_lines(co.session().program(), &slice.stmts),
                );
                Ok::<_, String>((slice, engine, spend, response))
            }));
            match outcome {
                Ok(Ok((slice, engine, spend, response))) => {
                    self.pool.lock().unwrap().checkin(co);
                    {
                        let mut sched = self.sched.lock().unwrap();
                        match sched.spent.get_mut(&job.client) {
                            Some(spent) => *spent += spend,
                            None => {
                                sched.spent.insert(job.client.clone(), spend);
                            }
                        }
                    }
                    if let Completeness::Truncated { frontier, .. } = slice.completeness {
                        self.flight(
                            FlightKind::BudgetExhausted,
                            &job.client,
                            frontier as u64,
                            spend,
                        );
                    }
                    let timing = ObservedTiming {
                        queue_us,
                        exec_us: started.elapsed().as_micros() as u64,
                        spend,
                    };
                    self.observe(&job, &hash, admission, engine, &slice, attempt, timing);
                    self.write_ok(&job.out, &response);
                    return;
                }
                Ok(Err(msg)) => {
                    self.pool.lock().unwrap().checkin(co);
                    self.tenant_err(&job.client);
                    self.write_err(&job.out, job.id, "seed", &msg);
                    return;
                }
                Err(payload) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    self.pool.lock().unwrap().quarantine(co);
                    attempt += 1;
                    if attempt > self.cfg.retries {
                        self.tenant_err(&job.client);
                        self.write_err(
                            &job.out,
                            job.id,
                            "panic",
                            &format!(
                                "query panicked on {attempt} attempts ({}); session \
                                 quarantined and will rebuild on the next request",
                                panic_message(payload.as_ref())
                            ),
                        );
                        return;
                    }
                    // Retry: the checkout rebuilds the quarantined
                    // session from sources.
                    co = match self.pool.lock().unwrap().checkout(&hash) {
                        Ok(co) => co,
                        Err(e) => {
                            let (code, msg) = checkout_error(&hash, e);
                            self.tenant_err(&job.client);
                            self.write_err(&job.out, job.id, code, &msg);
                            return;
                        }
                    };
                }
            }
        }
    }

    /// Folds one completed request into the per-tenant and per-session
    /// tables, and into the slow-query log when it crossed `slow_ms`.
    /// Runs after the query, outside every other lock — the response
    /// bytes are already fixed, so observation cannot perturb them.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &self,
        job: &Job,
        hash: &str,
        admission: Admission,
        engine: Engine,
        slice: &SliceResult,
        retries: u32,
        timing: ObservedTiming,
    ) {
        let total_us = timing.queue_us + timing.exec_us;
        let degraded = slice.degraded || (job.req.engine == Engine::Cs && engine == Engine::Ci);
        {
            let mut obs = self.obs.lock().unwrap();
            let t = row(&mut obs.tenants, &job.client);
            t.requests += 1;
            t.retries += u64::from(retries);
            if degraded {
                t.degraded += 1;
            }
            if admission == Admission::Truncate {
                t.shed += 1;
            }
            t.spent_steps += timing.spend;
            t.latency.record(total_us as f64);
            row(&mut obs.session_lat, hash).record(total_us as f64);
        }
        let Some(slow_ms) = self.cfg.slow_ms else {
            return;
        };
        if total_us < slow_ms.saturating_mul(1000) {
            return;
        }
        self.flight(FlightKind::SlowQuery, &job.client, total_us, timing.spend);
        let row = SlowQueryRow {
            id: job.id,
            client: job.client.clone(),
            program: hash.to_string(),
            kind: kind_str(job.req.kind).to_string(),
            engine: engine_str(engine).to_string(),
            admission: admission.as_str().to_string(),
            completeness: match slice.completeness {
                Completeness::Complete => "complete".to_string(),
                Completeness::Truncated { .. } => "truncated".to_string(),
            },
            seeds: job.req.seeds.len(),
            queue_us: timing.queue_us,
            exec_us: timing.exec_us,
            total_us,
            spend: timing.spend,
        };
        let mut obs = self.obs.lock().unwrap();
        if obs.slow.len() == SLOW_LOG_CAP {
            obs.slow.pop_front();
        }
        obs.slow.push_back(row);
    }

    /// Runs one query attempt on a checked-out session. Returns the
    /// result, the engine actually used, and the step spend charged to
    /// the client.
    fn run_query(
        &self,
        session: &mut thinslice::AnalysisSession,
        req: &SliceRequest,
        admission: Admission,
    ) -> Result<(SliceResult, Engine, u64), String> {
        let mut seeds = Vec::new();
        for sr in &req.seeds {
            match session.seed_at_line(&sr.file, sr.line) {
                Some(s) => seeds.extend(s),
                None => return Err(format!("no statements at {}:{}", sr.file, sr.line)),
            }
        }
        let engine = match (admission, req.engine) {
            (Admission::DegradeCi | Admission::Truncate, Engine::Cs) => Engine::Ci,
            (_, e) => e,
        };
        let mut budget = Budget::default();
        if let Some(ms) = req.deadline_ms.or(self.cfg.default_deadline_ms) {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(steps) = req.step_budget.or(self.cfg.default_step_budget) {
            budget = budget.with_step_limit(steps);
        }
        if admission == Admission::Truncate {
            budget = budget.cap_steps(self.cfg.truncate_step_cap);
        }
        let policy = QueryPolicy {
            budget: (!budget.is_unlimited()).then_some(budget),
            degrade: req.degrade,
        };
        let query = Query::new(seeds, req.kind, engine).with_policy(policy);
        let slice = session.query(&query);
        let spend = slice.nodes_visited as u64;
        Ok((slice, engine, spend))
    }

    /// Emits the `--stats-interval` stderr snapshot when one is due.
    /// Costs a clock read per loop tick when disabled or not yet due —
    /// the zero-overhead-when-idle invariant in practice.
    fn stats_tick(&self, last: &mut Instant) {
        let Some(secs) = self.cfg.stats_interval else {
            return;
        };
        if last.elapsed() < Duration::from_secs(secs.max(1)) {
            return;
        }
        *last = Instant::now();
        eprintln!("{}", self.stats_text());
    }

    fn begin_drain(&self) {
        self.sched.lock().unwrap().accepting = false;
        self.cv.notify_all();
    }

    fn wait_drained(&self) {
        let mut sched = self.sched.lock().unwrap();
        while sched.pending > 0 || sched.in_flight > 0 {
            sched = self.cv.wait(sched).unwrap();
        }
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    /// Runs the daemon over one input stream until EOF, a `shutdown`
    /// request, or the external [`Server::shutdown_flag`]. All three
    /// paths stop intake, drain every queued and in-flight query (each
    /// still receives its response), then return the run's summary —
    /// after writing the `shutdown` acknowledgement when one is owed.
    ///
    /// `input` may be any reader: the server buffers it itself, because
    /// whether a line has input buffered behind it decides which thread
    /// answers a slice (see the module docs).
    pub fn serve<R: Read + Send>(&self, input: R, out: SharedOut) -> ServeSummary {
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers.max(1) {
                scope.spawn(|| self.worker_loop());
            }
            {
                let out = out.clone();
                scope.spawn(move || {
                    self.reader_loop(input, &out);
                    self.input_done.store(true, Ordering::Relaxed);
                    self.cv.notify_all();
                });
            }
            // Wait for the input to end or the signal flag; the timeout
            // bounds how long a signal waits behind a blocked read.
            let mut last_snapshot = Instant::now();
            loop {
                let sched = self.sched.lock().unwrap();
                if self.input_done.load(Ordering::Relaxed) || self.shutdown.load(Ordering::Relaxed)
                {
                    break;
                }
                let _ = self
                    .cv
                    .wait_timeout(sched, Duration::from_millis(25))
                    .unwrap();
                self.stats_tick(&mut last_snapshot);
            }
            let signalled =
                self.shutdown.load(Ordering::Relaxed) && !self.input_done.load(Ordering::Relaxed);
            self.begin_drain();
            self.wait_drained();
            // Persist every live session so a restarted daemon
            // warm-starts with all forced stages intact.
            self.pool.lock().unwrap().persist_all();
            if let Some(ack) = self.shutdown_ack.lock().unwrap().take() {
                self.write_ok(&ack.out, &shutdown_line(ack.id, ack.drained));
            }
            let summary = self.summary();
            if signalled && self.cfg.exit_on_signal {
                // The reader thread may be blocked on stdin forever; the
                // scope could never join it. Everything is drained and
                // flushed, so exiting the process is the clean option.
                let _ = out.lock().unwrap().flush();
                eprintln!(
                    "thinslice-serve: signal received; drained in-flight queries \
                     (served {}, errors {}, panics {}); exiting",
                    summary.served, summary.errors, summary.panics
                );
                std::process::exit(0);
            }
            summary
        })
    }

    /// Serves a Unix-domain socket: each accepted connection gets its own
    /// reader thread and writes responses back on that connection, while
    /// all connections share the worker pool, session pool, and admission
    /// state. A `shutdown` request from any client — or the external
    /// [`Server::shutdown_flag`] — stops intake on every connection,
    /// drains, acknowledges, and returns.
    #[cfg(unix)]
    pub fn serve_listener(&self, listener: std::os::unix::net::UnixListener) -> ServeSummary {
        // Non-blocking accept so the loop can observe the shutdown flag.
        let _ = listener.set_nonblocking(true);
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers.max(1) {
                scope.spawn(|| self.worker_loop());
            }
            let mut last_snapshot = Instant::now();
            loop {
                if self.shutdown.load(Ordering::Relaxed) || !self.sched.lock().unwrap().accepting {
                    break;
                }
                self.stats_tick(&mut last_snapshot);
                match listener.accept() {
                    Ok((stream, _)) => {
                        let out: SharedOut = match stream.try_clone() {
                            Ok(w) => Arc::new(Mutex::new(w)),
                            Err(_) => continue,
                        };
                        scope.spawn(move || self.conn_loop(stream, &out));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => break,
                }
            }
            self.begin_drain();
            self.wait_drained();
            self.pool.lock().unwrap().persist_all();
            if let Some(ack) = self.shutdown_ack.lock().unwrap().take() {
                self.write_ok(&ack.out, &shutdown_line(ack.id, ack.drained));
            }
            self.summary()
        })
    }

    /// One socket connection's read loop: bounded lines, lossy UTF-8,
    /// oversized lines discarded after a structured error. Reads carry a
    /// short timeout so the loop can notice a daemon-wide drain even
    /// while its client is idle.
    #[cfg(unix)]
    fn conn_loop(&self, stream: std::os::unix::net::UnixStream, out: &SharedOut) {
        use crate::protocol::MAX_LINE_BYTES;
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let mut reader = std::io::BufReader::new(stream);
        let mut buf: Vec<u8> = Vec::new();
        let mut skipping = false; // discarding the rest of an oversized line
        loop {
            if self.shutdown.load(Ordering::Relaxed) || !self.sched.lock().unwrap().accepting {
                return;
            }
            let (consumed, line_end) = {
                let chunk = match reader.fill_buf() {
                    Ok([]) => return, // client disconnected
                    Ok(c) => c,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock
                                | std::io::ErrorKind::TimedOut
                                | std::io::ErrorKind::Interrupted
                        ) =>
                    {
                        continue;
                    }
                    Err(_) => return,
                };
                let (consumed, line_end) = match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => (pos + 1, true),
                    None => (chunk.len(), false),
                };
                if !skipping {
                    buf.extend_from_slice(&chunk[..consumed]);
                }
                (consumed, line_end)
            };
            reader.consume(consumed);
            if !line_end {
                if !skipping && buf.len() > MAX_LINE_BYTES {
                    self.write_err(
                        out,
                        None,
                        "too_large",
                        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    );
                    buf.clear();
                    skipping = true;
                }
                continue;
            }
            if skipping {
                skipping = false;
                continue;
            }
            if buf.len().saturating_sub(1) > MAX_LINE_BYTES {
                self.write_err(
                    out,
                    None,
                    "too_large",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                buf.clear();
                continue;
            }
            let stop = {
                let text = String::from_utf8_lossy(&buf);
                let line = text.trim_end_matches(['\n', '\r']);
                !line.trim().is_empty() && self.ingest(line, out) == Ingest::Shutdown
            };
            buf.clear();
            if stop {
                return;
            }
        }
    }

    /// Reads raw bytes line by line (bounded, lossy UTF-8) and ingests
    /// each. Oversized lines are answered and skipped without being
    /// buffered whole; invalid UTF-8 becomes a parse error response.
    fn reader_loop<R: Read>(&self, input: R, out: &SharedOut) {
        use crate::protocol::MAX_LINE_BYTES;
        let mut input = BufReader::new(input);
        let mut buf: Vec<u8> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            buf.clear();
            let mut limited = (&mut input).take((MAX_LINE_BYTES + 1) as u64);
            match limited.read_until(b'\n', &mut buf) {
                Ok(0) => return, // EOF
                Ok(_) => {
                    let hit_cap = buf.len() > MAX_LINE_BYTES
                        || (buf.len() == MAX_LINE_BYTES + 1 && buf.last() != Some(&b'\n'));
                    if hit_cap && buf.last() != Some(&b'\n') {
                        self.write_err(
                            out,
                            None,
                            "too_large",
                            &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                        );
                        if !skip_to_newline(&mut input) {
                            return;
                        }
                        continue;
                    }
                    let text = String::from_utf8_lossy(&buf);
                    let line = text.trim_end_matches(['\n', '\r']);
                    if line.trim().is_empty() {
                        continue;
                    }
                    let alone = input.buffer().is_empty();
                    if let Ingest::Shutdown = self.ingest_line(line, out, alone) {
                        return;
                    }
                }
                Err(_) => return, // unrecoverable I/O error on the stream
            }
        }
    }
}

/// The error response a failed checkout of `hash` gets: entries are never
/// removed, so an unknown hash is one no `load` registered.
fn checkout_error(hash: &str, e: PoolError) -> (&'static str, String) {
    match e {
        PoolError::UnknownProgram => (
            "unknown_program",
            format!("program {hash:?} is not registered; send a load request first"),
        ),
        PoolError::Compile(e) => ("compile", e.to_string()),
    }
}

/// The row of `map` under `key`, inserted empty on the key's first use:
/// the key is copied into the map only then, not on every lookup.
fn row<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// Discards input up to and including the next newline; `false` on EOF.
fn skip_to_newline<R: BufRead>(input: &mut R) -> bool {
    let mut byte = [0u8; 1];
    loop {
        match input.read(&mut byte) {
            Ok(0) | Err(_) => return false,
            Ok(_) if byte[0] == b'\n' => return true,
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLICE: &str = r#"{"op":"slice","id":1,"sources":[{"name":"t.mj","text":"class Main { static void main() {\nint x = 1;\nprint(x);\n} }"}],"seed":{"file":"t.mj","line":3}}"#;

    /// A server configured for `workers` workers that never start, and
    /// the bytes it writes.
    fn idle_server(workers: usize) -> (Server, SharedOut, Arc<Mutex<Vec<u8>>>) {
        let written = Arc::new(Mutex::new(Vec::new()));
        let out: SharedOut = written.clone();
        let cfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        (Server::new(cfg), out, written)
    }

    fn pending(server: &Server) -> usize {
        server.sched.lock().unwrap().pending
    }

    #[test]
    fn an_idle_reader_answers_a_lone_slice_itself() {
        let (server, out, written) = idle_server(1);
        assert_eq!(server.ingest_line(SLICE, &out, true), Ingest::Continue);
        let response = String::from_utf8(written.lock().unwrap().clone()).unwrap();
        assert!(response.contains(r#""op":"slice""#), "{response}");
        assert!(response.contains(r#""ok":true"#), "{response}");
        assert_eq!(pending(&server), 0);
        assert_eq!(server.sched.lock().unwrap().in_flight, 0);
    }

    #[test]
    fn a_slice_with_input_behind_it_is_queued() {
        let (server, out, written) = idle_server(1);
        server.ingest_line(SLICE, &out, false);
        assert_eq!(pending(&server), 1);
        assert!(written.lock().unwrap().is_empty());
    }

    #[test]
    fn a_lone_slice_is_queued_while_the_daemon_is_busy() {
        let (server, out, written) = idle_server(1);
        server.ingest_line(SLICE, &out, false);
        server.ingest_line(SLICE, &out, true);
        assert_eq!(pending(&server), 2, "queued behind a queued job");
        assert!(written.lock().unwrap().is_empty());

        let (server, out, written) = idle_server(1);
        server.sched.lock().unwrap().in_flight = 1;
        server.ingest_line(SLICE, &out, true);
        assert_eq!(pending(&server), 1, "queued while a job executes");
        assert!(written.lock().unwrap().is_empty());
    }

    #[test]
    fn a_lone_slice_is_queued_when_more_than_one_worker_could_run_it() {
        let (server, out, written) = idle_server(2);
        server.ingest_line(SLICE, &out, true);
        assert_eq!(pending(&server), 1);
        assert!(written.lock().unwrap().is_empty());
    }

    #[test]
    fn ingest_always_queues() {
        let (server, out, written) = idle_server(1);
        server.ingest(SLICE, &out);
        assert_eq!(pending(&server), 1);
        assert!(written.lock().unwrap().is_empty());
    }

    #[test]
    fn latency_rows_keep_running_totals_and_a_bounded_window() {
        let mut row = LatencyRow::default();
        let samples: Vec<f64> = (0..10_000u32).map(|i| f64::from(10_000 - i)).collect();
        let mut newest = Histogram::new();
        for &v in &samples {
            row.record(v);
        }
        for &v in &samples[samples.len() - LATENCY_WINDOW..] {
            newest.record(v);
        }
        let s = row.summary();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.sum, samples.iter().sum::<f64>());
        assert_eq!(s.max, 10_000.0);
        assert_eq!(
            (s.p50, s.p95),
            (newest.percentile(50.0), newest.percentile(95.0))
        );
        assert_eq!((s.p50, s.p95), (512.0, 973.0));
        assert_eq!(row.window.len(), LATENCY_WINDOW);

        let mut one = LatencyRow::default();
        one.record(7.0);
        assert_eq!(one.window.len(), 1, "a row holds only the slots it used");
        assert!(one.window.capacity() < LATENCY_WINDOW);
        let s = one.summary();
        assert_eq!(
            (s.count, s.sum, s.p50, s.p95, s.max),
            (1, 7.0, 7.0, 7.0, 7.0)
        );
    }
}

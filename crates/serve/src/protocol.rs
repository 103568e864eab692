//! The line-delimited JSON request/response protocol.
//!
//! One request per line, one response line per request. Requests are
//! essentially a [`Query`] plus a program reference; responses carry the
//! schema tag [`RESPONSE_SCHEMA`] and — for traced status requests — embed
//! a full `thinslice.run_report.v1` report.
//!
//! Hardening contract: **every** malformed input becomes a structured
//! error response, never a disconnect or a panic. [`parse_request`] is a
//! total function over arbitrary bytes-as-UTF-8; its error carries the
//! request `id` whenever one could still be extracted, so clients can
//! correlate failures.
//!
//! Response serialization is deterministic: fixed key order, no
//! timestamps, no latencies. That is what lets the chaos suite assert
//! that non-faulted responses are bit-identical between a faulted and a
//! fault-free run. (Wall-clock figures belong in telemetry reports, not
//! in slice responses.)
//!
//! # Examples
//!
//! ```
//! use thinslice_serve::protocol::{parse_request, Op};
//!
//! let req = parse_request(
//!     r#"{"op":"slice","id":7,"program":"deadbeefdeadbeef",
//!        "seed":{"file":"t.mj","line":3}}"#,
//! )
//! .unwrap();
//! assert_eq!(req.id, Some(7));
//! assert!(matches!(req.op, Op::Slice(_)));
//!
//! let err = parse_request("{not json").unwrap_err();
//! assert_eq!(err.code, "parse");
//! ```
//!
//! [`Query`]: thinslice::Query

use std::fmt::Write as _;

use thinslice::report::Line;
use thinslice::{Engine, SliceKind, UpdateStats};
use thinslice_util::govern::Completeness;
use thinslice_util::telemetry::{
    escape_into, FlightEvent, HistogramSummary, Json, RUN_REPORT_SCHEMA,
};

/// Schema tag carried by every response line.
pub const RESPONSE_SCHEMA: &str = "thinslice.serve_response.v1";

/// Schema tag of the observability document embedded in a `stats`
/// response (and accepted standalone by `validate-report`).
pub const SERVE_STATS_SCHEMA: &str = "thinslice.serve_stats.v3";

/// Hard cap on one request line; longer lines are answered with a
/// `too_large` error without being parsed.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// One named source file of a program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceFile {
    /// File name as referenced by seeds (`"t.mj"`).
    pub name: String,
    /// Full source text.
    pub text: String,
}

/// How a slice request names its program: inline sources (registered on
/// first use) or the hash returned by an earlier `load`.
#[derive(Debug, Clone)]
pub enum ProgramRef {
    /// Sources carried in the request itself.
    Inline(Vec<SourceFile>),
    /// The 16-hex-digit program hash from a `load` response.
    Hash(String),
}

/// A seed position: every non-synthetic statement on that source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedRef {
    /// Source file name.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
}

/// The slice-query payload of a `slice` request.
#[derive(Debug, Clone)]
pub struct SliceRequest {
    /// The program to slice.
    pub program: ProgramRef,
    /// Seed positions (at least one).
    pub seeds: Vec<SeedRef>,
    /// Slice kind (default thin).
    pub kind: SliceKind,
    /// Requested engine (default CI); admission control may degrade CS
    /// to CI under load.
    pub engine: Engine,
    /// Per-request wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-request step quota.
    pub step_budget: Option<u64>,
    /// Whether a budget-exhausted CS query degrades to CI (default true).
    pub degrade: bool,
    /// Deterministic fault injection: panic this many times before
    /// succeeding. Only honoured by a server started in chaos mode.
    pub chaos_panics: u32,
}

/// A parsed request operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Register a program; responds with its hash.
    Load {
        /// The program's source files (at least one).
        sources: Vec<SourceFile>,
    },
    /// Answer a slice query.
    Slice(SliceRequest),
    /// Swap a registered program's sources in place, incrementally
    /// re-analysing the resident session. The pool key (`program`) is
    /// preserved — the entry's lineage continues — while the reported
    /// `content` hash tracks the current sources.
    Reload {
        /// The pool key from the original `load`.
        program: String,
        /// The edited source files (at least one).
        sources: Vec<SourceFile>,
    },
    /// Report pool/served counters (and a run report when tracing).
    Status,
    /// Report the live observability plane: per-tenant tables, histogram
    /// quantiles, slow-query log, and the flight-recorder tail.
    Stats,
    /// Drain all queued queries, answer them, acknowledge, exit.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Tenant name for fair scheduling and per-client budgets.
    pub client: String,
    /// The operation.
    pub op: Op,
}

/// A structured request error: always answered, never a disconnect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The request id, when it could still be extracted.
    pub id: Option<u64>,
    /// Stable machine-readable code (`parse`, `protocol`, `too_large`…).
    pub code: &'static str,
    /// Human-readable detail naming the offending token.
    pub message: String,
}

impl RequestError {
    fn new(id: Option<u64>, code: &'static str, message: impl Into<String>) -> RequestError {
        RequestError {
            id,
            code,
            message: message.into(),
        }
    }
}

fn str_field(v: &Json, id: Option<u64>, key: &str) -> Result<String, RequestError> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(other) => Err(RequestError::new(
            id,
            "protocol",
            format!("field \"{key}\" must be a string, got {other:?}"),
        )),
        None => Err(RequestError::new(
            id,
            "protocol",
            format!("missing required field \"{key}\""),
        )),
    }
}

fn opt_u64_field(v: &Json, id: Option<u64>, key: &str) -> Result<Option<u64>, RequestError> {
    match v.get(key) {
        None => Ok(None),
        Some(j) => j.as_u64().map(Some).ok_or_else(|| {
            RequestError::new(
                id,
                "protocol",
                format!("field \"{key}\" must be a non-negative integer, got {j:?}"),
            )
        }),
    }
}

fn parse_sources(v: &Json, id: Option<u64>) -> Result<Vec<SourceFile>, RequestError> {
    let arr = match v.get("sources") {
        Some(Json::Arr(items)) => items,
        Some(other) => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!("field \"sources\" must be an array, got {other:?}"),
            ))
        }
        None => {
            return Err(RequestError::new(
                id,
                "protocol",
                "missing required field \"sources\"",
            ))
        }
    };
    if arr.is_empty() {
        return Err(RequestError::new(id, "protocol", "\"sources\" is empty"));
    }
    arr.iter()
        .map(|item| {
            Ok(SourceFile {
                name: str_field(item, id, "name")?,
                text: str_field(item, id, "text")?,
            })
        })
        .collect()
}

fn parse_seed_obj(item: &Json, id: Option<u64>) -> Result<SeedRef, RequestError> {
    let file = str_field(item, id, "file")?;
    let line = match item.get("line").and_then(Json::as_u64) {
        Some(n) if n >= 1 && n <= u64::from(u32::MAX) => n as u32,
        _ => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!(
                    "seed \"line\" must be a positive integer, got {:?}",
                    item.get("line")
                ),
            ))
        }
    };
    Ok(SeedRef { file, line })
}

fn parse_slice(v: &Json, id: Option<u64>) -> Result<SliceRequest, RequestError> {
    let program = match (v.get("program"), v.get("sources")) {
        (Some(_), Some(_)) => {
            return Err(RequestError::new(
                id,
                "protocol",
                "give either \"program\" or \"sources\", not both",
            ))
        }
        (Some(Json::Str(h)), None) => ProgramRef::Hash(h.clone()),
        (Some(other), None) => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!("field \"program\" must be a string hash, got {other:?}"),
            ))
        }
        (None, Some(_)) => ProgramRef::Inline(parse_sources(v, id)?),
        (None, None) => {
            return Err(RequestError::new(
                id,
                "protocol",
                "slice needs a \"program\" hash or inline \"sources\"",
            ))
        }
    };

    let mut seeds = Vec::new();
    match (v.get("seed"), v.get("seeds")) {
        (Some(_), Some(_)) => {
            return Err(RequestError::new(
                id,
                "protocol",
                "give either \"seed\" or \"seeds\", not both",
            ))
        }
        (Some(s), None) => seeds.push(parse_seed_obj(s, id)?),
        (None, Some(Json::Arr(items))) if !items.is_empty() => {
            for item in items {
                seeds.push(parse_seed_obj(item, id)?);
            }
        }
        (None, Some(other)) => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!("field \"seeds\" must be a non-empty array, got {other:?}"),
            ))
        }
        (None, None) => {
            return Err(RequestError::new(
                id,
                "protocol",
                "slice needs a \"seed\" or \"seeds\"",
            ))
        }
    }

    let kind = match v.get("kind") {
        None => SliceKind::Thin,
        Some(Json::Str(s)) => match s.as_str() {
            "thin" => SliceKind::Thin,
            "data" => SliceKind::TraditionalData,
            "full" => SliceKind::TraditionalFull,
            other => {
                return Err(RequestError::new(
                    id,
                    "protocol",
                    format!("unknown kind \"{other}\" (expected thin|data|full)"),
                ))
            }
        },
        Some(other) => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!("field \"kind\" must be a string, got {other:?}"),
            ))
        }
    };
    let engine = match v.get("engine") {
        None => Engine::Ci,
        Some(Json::Str(s)) => match s.as_str() {
            "ci" => Engine::Ci,
            "cs" => Engine::Cs,
            other => {
                return Err(RequestError::new(
                    id,
                    "protocol",
                    format!("unknown engine \"{other}\" (expected ci|cs)"),
                ))
            }
        },
        Some(other) => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!("field \"engine\" must be a string, got {other:?}"),
            ))
        }
    };
    let degrade = match v.get("degrade") {
        None => true,
        Some(Json::Bool(b)) => *b,
        Some(other) => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!("field \"degrade\" must be a boolean, got {other:?}"),
            ))
        }
    };
    let chaos_panics = match v.get("chaos") {
        None => 0,
        Some(c) => opt_u64_field(c, id, "panics")?
            .unwrap_or(0)
            .min(u64::from(u32::MAX)) as u32,
    };
    Ok(SliceRequest {
        program,
        seeds,
        kind,
        engine,
        deadline_ms: opt_u64_field(v, id, "deadline_ms")?,
        step_budget: opt_u64_field(v, id, "step_budget")?,
        degrade,
        chaos_panics,
    })
}

/// Parses one request line. Total over arbitrary input: every failure is
/// a [`RequestError`] carrying a stable code, a message naming the
/// offending token, and the request id when one could be extracted.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(RequestError::new(
            None,
            "too_large",
            format!(
                "request line is {} bytes (limit {MAX_LINE_BYTES})",
                line.len()
            ),
        ));
    }
    let v = Json::parse(line)
        .map_err(|e| RequestError::new(None, "parse", format!("malformed JSON: {e}")))?;
    if v.as_obj().is_none() {
        return Err(RequestError::new(
            None,
            "protocol",
            format!("request must be a JSON object, got {v:?}"),
        ));
    }
    let id = match v.get("id") {
        None | Some(Json::Null) => None,
        Some(j) => Some(j.as_u64().ok_or_else(|| {
            RequestError::new(
                None,
                "protocol",
                format!("field \"id\" must be a non-negative integer, got {j:?}"),
            )
        })?),
    };
    let client = match v.get("client") {
        None => "anon".to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(other) => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!("field \"client\" must be a string, got {other:?}"),
            ))
        }
    };
    let op = match str_field(&v, id, "op")?.as_str() {
        "load" => Op::Load {
            sources: parse_sources(&v, id)?,
        },
        "slice" => Op::Slice(parse_slice(&v, id)?),
        "reload" => Op::Reload {
            program: str_field(&v, id, "program")?,
            sources: parse_sources(&v, id)?,
        },
        "status" => Op::Status,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        other => {
            return Err(RequestError::new(
                id,
                "protocol",
                format!(
                    "unknown op \"{other}\" (expected load|slice|reload|status|stats|shutdown)"
                ),
            ))
        }
    };
    Ok(Request { id, client, op })
}

// ---- response serialization ----

/// The protocol spelling of an engine.
pub fn engine_str(e: Engine) -> &'static str {
    match e {
        Engine::Ci => "ci",
        Engine::Cs => "cs",
    }
}

/// The protocol spelling of a slice kind.
pub fn kind_str(k: SliceKind) -> &'static str {
    match k {
        SliceKind::Thin => "thin",
        SliceKind::TraditionalData => "data",
        SliceKind::TraditionalFull => "full",
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

fn id_json(id: Option<u64>) -> String {
    match id {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn head(id: Option<u64>, ok: bool, op: Option<&str>) -> String {
    let mut s = String::new();
    head_into(&mut s, id, ok, op);
    s
}

/// Appends a response's opening keys, `schema` to `op`, to `out`.
fn head_into(out: &mut String, id: Option<u64>, ok: bool, op: Option<&str>) {
    out.push_str("{\"schema\":");
    escape_into(out, RESPONSE_SCHEMA);
    match id {
        Some(n) => {
            let _ = write!(out, ",\"id\":{n}");
        }
        None => out.push_str(",\"id\":null"),
    }
    out.push_str(if ok { ",\"ok\":true" } else { ",\"ok\":false" });
    if let Some(op) = op {
        out.push_str(",\"op\":");
        escape_into(out, op);
    }
}

/// Serializes a structured error response.
pub fn error_line(id: Option<u64>, code: &str, message: &str) -> String {
    format!(
        "{},\"error\":{{\"code\":{},\"message\":{}}}}}",
        head(id, false, None),
        esc(code),
        esc(message)
    )
}

/// Serializes a successful `load` response.
pub fn load_line(id: Option<u64>, program: &str, cached: bool, resident: usize) -> String {
    format!(
        "{},\"program\":{},\"cached\":{cached},\"resident\":{resident}}}",
        head(id, true, Some("load")),
        esc(program)
    )
}

/// Which invalidation path a `reload` took; reported in the response.
pub fn reload_path(rebuilt: bool, stats: &UpdateStats) -> &'static str {
    if rebuilt {
        "rebuild"
    } else if stats.noop {
        "noop"
    } else if stats.structural || stats.undiffed {
        "structural"
    } else {
        "incremental"
    }
}

/// Serializes a successful `reload` response: the preserved pool key, the
/// new content hash, the invalidation path, and the work/reuse counters
/// from the session update (all zero for a non-resident rebuild).
/// Deterministic: fixed key order, no timing fields.
pub fn reload_line(
    id: Option<u64>,
    program: &str,
    content: &str,
    rebuilt: bool,
    stats: &UpdateStats,
    resident: usize,
) -> String {
    format!(
        "{},\"program\":{},\"content\":{},\"path\":{},\"methods_total\":{},\
         \"methods_changed\":{},\"pta_reused\":{},\"ci_graph_reused\":{},\
         \"cs_graph_reused\":{},\"constraints_total\":{},\"constraints_retracted\":{},\
         \"constraints_readded\":{},\"csr_segments_total\":{},\"csr_segments_refrozen\":{},\
         \"memo_invalidated\":{},\"memo_kept\":{},\"resident\":{resident}}}",
        head(id, true, Some("reload")),
        esc(program),
        esc(content),
        esc(reload_path(rebuilt, stats)),
        stats.methods_total,
        stats.methods_changed,
        stats.pta_reused,
        stats.ci_graph_reused,
        stats.cs_graph_reused,
        stats.constraints_total,
        stats.constraints_retracted,
        stats.constraints_readded,
        stats.csr_segments_total,
        stats.csr_segments_refrozen,
        stats.memo_entries_invalidated,
        stats.memo_entries_kept,
    )
}

/// Serializes a `reload` *request* line as a client sends it (used by the
/// CLI's one-shot reload client). Round-trips through [`parse_request`].
pub fn reload_request_line(id: u64, client: &str, program: &str, sources: &[SourceFile]) -> String {
    let mut s = format!(
        "{{\"op\":\"reload\",\"id\":{id},\"client\":{},\"program\":{},\"sources\":[",
        esc(client),
        esc(program)
    );
    for (i, f) in sources.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"name\":{},\"text\":{}}}", esc(&f.name), esc(&f.text));
    }
    s.push_str("]}");
    s
}

/// The admission-control level a request was executed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Served exactly as requested.
    Full,
    /// Load shed one rung: CS requests answered context-insensitively.
    DegradeCi,
    /// Load shed two rungs: CI engine plus a hard step cap (truncated
    /// but sound results) — the fleet-wide PR 2 ladder.
    Truncate,
}

impl Admission {
    /// The protocol spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Admission::Full => "full",
            Admission::DegradeCi => "degrade-ci",
            Admission::Truncate => "truncate",
        }
    }
}

/// Serializes a successful `slice` response. Deterministic: no timing
/// fields, fixed key order, statements in the canonical `stmt_lines`
/// order. Writes into one buffer, copying each line's JSON literal from
/// the program's line memo.
#[allow(clippy::too_many_arguments)]
pub fn slice_line(
    id: Option<u64>,
    program: &str,
    engine: Engine,
    kind: SliceKind,
    admission: Admission,
    degraded: bool,
    completeness: Completeness,
    stmts: &[Line<'_>],
) -> String {
    // The fixed keys take under 250 bytes; each line adds its literal and
    // a comma.
    let lines: usize = stmts.iter().map(|line| line.json().len() + 1).sum();
    let mut s = String::with_capacity(256 + program.len() + lines);
    head_into(&mut s, id, true, Some("slice"));
    s.push_str(",\"program\":");
    escape_into(&mut s, program);
    s.push_str(",\"engine\":");
    escape_into(&mut s, engine_str(engine));
    s.push_str(",\"kind\":");
    escape_into(&mut s, kind_str(kind));
    s.push_str(",\"admission\":");
    escape_into(&mut s, admission.as_str());
    s.push_str(if degraded {
        ",\"degraded\":true"
    } else {
        ",\"degraded\":false"
    });
    match completeness {
        Completeness::Complete => s.push_str(",\"completeness\":\"complete\""),
        Completeness::Truncated { reason, frontier } => {
            let _ = write!(
                s,
                ",\"completeness\":\"truncated\",\"reason\":{},\"frontier\":{frontier}",
                esc(&reason.to_string())
            );
        }
    }
    let _ = write!(s, ",\"stmt_count\":{},\"stmts\":[", stmts.len());
    for (i, line) in stmts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(line.json());
    }
    s.push_str("]}");
    s
}

/// Deterministic counters reported by a `status` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusSnapshot {
    /// Programs registered (live or evicted; sources retained).
    pub programs: usize,
    /// Sessions currently resident.
    pub live_sessions: usize,
    /// Programs currently quarantined (rebuilt on next request).
    pub quarantined: usize,
    /// Total resident estimate across live sessions (elements).
    pub resident: usize,
    /// Sessions evicted by LRU/watermark pressure so far.
    pub evictions: u64,
    /// Quarantine rebuilds performed so far.
    pub rebuilds: u64,
    /// Successful responses written so far.
    pub served: u64,
    /// Error responses written so far.
    pub errors: u64,
    /// Query panics caught so far.
    pub panics: u64,
    /// The pool's session cap, so occupancy is `live_sessions` of
    /// `pool_capacity` without consulting server config.
    pub pool_capacity: usize,
    /// Milliseconds since the server was built. Wall-clock (like the
    /// embedded trace report, status is excluded from bit-identity
    /// comparisons).
    pub uptime_ms: u64,
}

/// Serializes a `status` response; `report` (when tracing) must be a
/// `thinslice.run_report.v1` JSON document and is embedded verbatim.
pub fn status_line(id: Option<u64>, s: &StatusSnapshot, report: Option<&str>) -> String {
    let mut line = format!(
        "{},\"programs\":{},\"live_sessions\":{},\"quarantined\":{},\"resident\":{},\
         \"evictions\":{},\"rebuilds\":{},\"served\":{},\"errors\":{},\"panics\":{},\
         \"pool_capacity\":{},\"uptime_ms\":{}",
        head(id, true, Some("status")),
        s.programs,
        s.live_sessions,
        s.quarantined,
        s.resident,
        s.evictions,
        s.rebuilds,
        s.served,
        s.errors,
        s.panics,
        s.pool_capacity,
        s.uptime_ms,
    );
    if let Some(r) = report {
        let _ = write!(line, ",\"report\":{r}");
    }
    line.push('}');
    line
}

/// Serializes the final `shutdown` acknowledgement; `drained` is how many
/// queries were still queued or in flight when shutdown was requested,
/// all of which were answered before this line.
pub fn shutdown_line(id: Option<u64>, drained: usize) -> String {
    format!(
        "{},\"drained\":{drained}}}",
        head(id, true, Some("shutdown"))
    )
}

// ---- stats document (`thinslice.serve_stats.v3`) ----

/// One tenant's row in a stats document: request counters and the
/// latency quantiles of everything this client ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantRow {
    /// The client name requests carried.
    pub client: String,
    /// Slice requests answered successfully.
    pub requests: u64,
    /// Error responses attributed to this client.
    pub errors: u64,
    /// Panic retries spent on this client's requests.
    pub retries: u64,
    /// Requests answered below the requested engine (degrade-ci rung or
    /// in-query degradation).
    pub degraded: u64,
    /// Requests answered at the truncate rung.
    pub shed: u64,
    /// Cumulative step spend (graph nodes visited).
    pub spent_steps: u64,
    /// Wall-clock latency quantiles in microseconds.
    pub latency_us: HistogramSummary,
}

/// One program's row in a stats document: pool residency and
/// per-session latency quantiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionRow {
    /// The 16-hex-digit pool key (hash of the sources first loaded).
    pub program: String,
    /// The 16-hex-digit hash of the *current* sources. Equal to
    /// `program` until a `reload` swaps the sources under the same key.
    pub content: String,
    /// Whether a session is currently resident.
    pub live: bool,
    /// Whether the program is quarantined (rebuild pending).
    pub quarantined: bool,
    /// Resident estimate in elements (0 while evicted).
    pub resident: usize,
    /// Wall-clock latency quantiles of queries on this program, in
    /// microseconds.
    pub latency_us: HistogramSummary,
}

/// One slow-query log entry: a request that exceeded the `--slow-ms`
/// threshold, with its query shape, stage breakdown, and completeness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlowQueryRow {
    /// The request's correlation id.
    pub id: Option<u64>,
    /// The client that sent it.
    pub client: String,
    /// The program hash it ran against.
    pub program: String,
    /// Slice kind (protocol spelling).
    pub kind: String,
    /// Engine actually used (protocol spelling).
    pub engine: String,
    /// Admission level it executed under (protocol spelling).
    pub admission: String,
    /// `complete` or `truncated`.
    pub completeness: String,
    /// Seed positions in the request.
    pub seeds: usize,
    /// Stage breakdown: time spent queued before a worker picked it up.
    pub queue_us: u64,
    /// Stage breakdown: time inside query execution (all attempts).
    pub exec_us: u64,
    /// End-to-end latency from enqueue to response.
    pub total_us: u64,
    /// Step spend (graph nodes visited).
    pub spend: u64,
}

/// Everything a `stats` response reports, gathered by the server under
/// its locks and serialized by [`stats_doc`].
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Milliseconds since the server was built.
    pub uptime_ms: u64,
    /// The same counters `status` reports.
    pub status: StatusSnapshot,
    /// Pool checkouts served by a live session.
    pub pool_hits: u64,
    /// Pool checkouts that had to (re)build a session.
    pub pool_misses: u64,
    /// Sessions built in total.
    pub pool_builds: u64,
    /// Sessions poisoned by a panicking query.
    pub pool_quarantines: u64,
    /// Reload ops applied so far.
    pub pool_reloads: u64,
    /// Reloads that updated a resident session in place (vs rebuilt).
    pub pool_reloads_incremental: u64,
    /// Session builds satisfied by a warm-start snapshot restore.
    pub snapshot_hits: u64,
    /// Builds that looked for a snapshot and found no file.
    pub snapshot_misses: u64,
    /// Snapshot files persisted (build/reload/evict/drain).
    pub snapshot_writes: u64,
    /// Snapshot files found but discarded as corrupt or stale.
    pub snapshot_discarded_corrupt: u64,
    /// Flight-recorder events ever recorded (0 when disabled).
    pub recorded: u64,
    /// Flight-recorder ring capacity (0 when disabled).
    pub recorder_capacity: usize,
    /// Per-tenant tables, in client name order.
    pub tenants: Vec<TenantRow>,
    /// Per-program tables, in hash order.
    pub sessions: Vec<SessionRow>,
    /// The slow-query log, oldest first (bounded).
    pub slow: Vec<SlowQueryRow>,
    /// The flight-recorder tail, oldest first.
    pub events: Vec<FlightEvent>,
}

fn summary_json(s: &HistogramSummary) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"max\":{}}}",
        s.count, s.sum, s.p50, s.p95, s.max
    )
}

/// Serializes a [`StatsSnapshot`] as a standalone
/// `thinslice.serve_stats.v3` JSON document (fixed key order).
pub fn stats_doc(s: &StatsSnapshot) -> String {
    let mut d = format!(
        "{{\"schema\":{},\"uptime_ms\":{},\"pool\":{{\"programs\":{},\"live_sessions\":{},\
         \"capacity\":{},\"quarantined\":{},\"resident\":{},\"hits\":{},\"misses\":{},\
         \"builds\":{},\"evictions\":{},\"quarantines\":{},\"rebuilds\":{},\
         \"reloads\":{},\"reloads_incremental\":{},\"snapshot_hits\":{},\
         \"snapshot_misses\":{},\"snapshot_writes\":{},\"snapshot_discarded_corrupt\":{}}},\
         \"server\":{{\"served\":{},\"errors\":{},\"panics\":{},\"recorded\":{},\
         \"recorder_capacity\":{}}}",
        esc(SERVE_STATS_SCHEMA),
        s.uptime_ms,
        s.status.programs,
        s.status.live_sessions,
        s.status.pool_capacity,
        s.status.quarantined,
        s.status.resident,
        s.pool_hits,
        s.pool_misses,
        s.pool_builds,
        s.status.evictions,
        s.pool_quarantines,
        s.status.rebuilds,
        s.pool_reloads,
        s.pool_reloads_incremental,
        s.snapshot_hits,
        s.snapshot_misses,
        s.snapshot_writes,
        s.snapshot_discarded_corrupt,
        s.status.served,
        s.status.errors,
        s.status.panics,
        s.recorded,
        s.recorder_capacity,
    );
    d.push_str(",\"tenants\":[");
    for (i, t) in s.tenants.iter().enumerate() {
        if i > 0 {
            d.push(',');
        }
        let _ = write!(
            d,
            "{{\"client\":{},\"requests\":{},\"errors\":{},\"retries\":{},\"degraded\":{},\
             \"shed\":{},\"spent_steps\":{},\"latency_us\":{}}}",
            esc(&t.client),
            t.requests,
            t.errors,
            t.retries,
            t.degraded,
            t.shed,
            t.spent_steps,
            summary_json(&t.latency_us),
        );
    }
    d.push_str("],\"sessions\":[");
    for (i, r) in s.sessions.iter().enumerate() {
        if i > 0 {
            d.push(',');
        }
        let _ = write!(
            d,
            "{{\"program\":{},\"content\":{},\"live\":{},\"quarantined\":{},\"resident\":{},\
             \"latency_us\":{}}}",
            esc(&r.program),
            esc(&r.content),
            r.live,
            r.quarantined,
            r.resident,
            summary_json(&r.latency_us),
        );
    }
    d.push_str("],\"slow\":[");
    for (i, q) in s.slow.iter().enumerate() {
        if i > 0 {
            d.push(',');
        }
        let _ = write!(
            d,
            "{{\"id\":{},\"client\":{},\"program\":{},\"kind\":{},\"engine\":{},\
             \"admission\":{},\"completeness\":{},\"seeds\":{},\"queue_us\":{},\
             \"exec_us\":{},\"total_us\":{},\"spend\":{}}}",
            id_json(q.id),
            esc(&q.client),
            esc(&q.program),
            esc(&q.kind),
            esc(&q.engine),
            esc(&q.admission),
            esc(&q.completeness),
            q.seeds,
            q.queue_us,
            q.exec_us,
            q.total_us,
            q.spend,
        );
    }
    d.push_str("],\"events\":[");
    for (i, e) in s.events.iter().enumerate() {
        if i > 0 {
            d.push(',');
        }
        let _ = write!(
            d,
            "{{\"seq\":{},\"kind\":{},\"label\":{},\"a\":{},\"b\":{}}}",
            e.seq,
            esc(e.kind.as_str()),
            esc(e.label()),
            e.a,
            e.b,
        );
    }
    d.push_str("]}");
    d
}

/// Serializes a `stats` response: the standard envelope with the
/// `thinslice.serve_stats.v3` document embedded under `"stats"`.
pub fn stats_line(id: Option<u64>, snapshot: &StatsSnapshot) -> String {
    format!(
        "{},\"stats\":{}}}",
        head(id, true, Some("stats")),
        stats_doc(snapshot)
    )
}

// ---- response validation (validate-report satellite) ----

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
}

fn need_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field \"{key}\""))
}

/// Validates one server response line against the
/// `thinslice.serve_response.v1` shape, returning a one-line summary.
///
/// An embedded `report` must itself carry the `thinslice.run_report.v1`
/// schema tag with `spans`/`metrics` sections (full report validation is
/// `validate-report`'s file mode).
///
/// # Errors
///
/// Returns a description of the first shape violation.
pub fn validate_response_line(line: &str) -> Result<String, String> {
    let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let schema = need_str(&v, "schema")?;
    if schema != RESPONSE_SCHEMA {
        return Err(format!(
            "schema is {schema:?}, expected {RESPONSE_SCHEMA:?}"
        ));
    }
    let id = match v.get("id") {
        Some(Json::Null) | None => "null".to_string(),
        Some(j) => j
            .as_u64()
            .ok_or_else(|| format!("field \"id\" must be integer or null, got {j:?}"))?
            .to_string(),
    };
    let ok = match v.get("ok") {
        Some(Json::Bool(b)) => *b,
        other => return Err(format!("field \"ok\" must be a boolean, got {other:?}")),
    };
    if !ok {
        let err = v.get("error").ok_or("error response missing \"error\"")?;
        let code = need_str(err, "code")?;
        need_str(err, "message")?;
        return Ok(format!("error id={id} code={code}"));
    }
    let op = need_str(&v, "op")?;
    match op {
        "load" => {
            let program = need_str(&v, "program")?;
            if program.len() != 16 || !program.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!(
                    "\"program\" must be a 16-hex-digit hash, got {program:?}"
                ));
            }
            need_u64(&v, "resident")?;
            Ok(format!("ok load id={id} program={program}"))
        }
        "reload" => {
            for key in ["program", "content"] {
                let hash = need_str(&v, key)?;
                if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!(
                        "\"{key}\" must be a 16-hex-digit hash, got {hash:?}"
                    ));
                }
            }
            let path = need_str(&v, "path")?;
            if !matches!(path, "noop" | "incremental" | "structural" | "rebuild") {
                return Err(format!("unknown reload path {path:?}"));
            }
            for key in [
                "methods_total",
                "methods_changed",
                "constraints_total",
                "constraints_retracted",
                "constraints_readded",
                "csr_segments_total",
                "csr_segments_refrozen",
                "memo_invalidated",
                "memo_kept",
                "resident",
            ] {
                need_u64(&v, key)?;
            }
            for key in ["pta_reused", "ci_graph_reused", "cs_graph_reused"] {
                if !matches!(v.get(key), Some(Json::Bool(_))) {
                    return Err(format!("field {key:?} must be a boolean"));
                }
            }
            Ok(format!("ok reload id={id} path={path}"))
        }
        "slice" => {
            need_str(&v, "program")?;
            let engine = need_str(&v, "engine")?;
            if !matches!(engine, "ci" | "cs") {
                return Err(format!("unknown engine {engine:?}"));
            }
            let kind = need_str(&v, "kind")?;
            if !matches!(kind, "thin" | "data" | "full") {
                return Err(format!("unknown kind {kind:?}"));
            }
            let admission = need_str(&v, "admission")?;
            if !matches!(admission, "full" | "degrade-ci" | "truncate") {
                return Err(format!("unknown admission level {admission:?}"));
            }
            match need_str(&v, "completeness")? {
                "complete" => {}
                "truncated" => {
                    need_str(&v, "reason")?;
                    need_u64(&v, "frontier")?;
                }
                other => return Err(format!("unknown completeness {other:?}")),
            }
            let count = need_u64(&v, "stmt_count")?;
            let stmts = v
                .get("stmts")
                .and_then(Json::as_arr)
                .ok_or("missing or non-array field \"stmts\"")?;
            if stmts.len() as u64 != count {
                return Err(format!(
                    "stmt_count is {count} but \"stmts\" has {} entries",
                    stmts.len()
                ));
            }
            if let Some(bad) = stmts.iter().find(|s| s.as_str().is_none()) {
                return Err(format!("\"stmts\" entries must be strings, got {bad:?}"));
            }
            Ok(format!("ok slice id={id} stmts={count}"))
        }
        "status" => {
            for key in [
                "programs",
                "live_sessions",
                "quarantined",
                "resident",
                "evictions",
                "rebuilds",
                "served",
                "errors",
                "panics",
            ] {
                need_u64(&v, key)?;
            }
            if let Some(report) = v.get("report") {
                let rschema =
                    need_str(report, "schema").map_err(|e| format!("embedded report: {e}"))?;
                if rschema != RUN_REPORT_SCHEMA {
                    return Err(format!(
                        "embedded report schema is {rschema:?}, expected {RUN_REPORT_SCHEMA:?}"
                    ));
                }
            }
            Ok(format!("ok status id={id}"))
        }
        "stats" => {
            let doc = v.get("stats").ok_or("stats response missing \"stats\"")?;
            let summary = validate_stats_doc(doc).map_err(|e| format!("embedded stats: {e}"))?;
            Ok(format!("ok stats id={id} ({summary})"))
        }
        "shutdown" => {
            need_u64(&v, "drained")?;
            Ok(format!("ok shutdown id={id}"))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

fn need_summary(v: &Json, key: &str) -> Result<(), String> {
    let s = v.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
    need_u64(s, "count")?;
    for f in ["sum", "p50", "p95", "max"] {
        s.get(f)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{key}: missing or non-number field {f:?}"))?;
    }
    Ok(())
}

/// Validates a `thinslice.serve_stats.v3` document (standalone or as
/// extracted from a `stats` response), returning a one-line summary.
///
/// # Errors
///
/// Returns a description of the first shape violation.
pub fn validate_stats_doc(v: &Json) -> Result<String, String> {
    let schema = need_str(v, "schema")?;
    if schema != SERVE_STATS_SCHEMA {
        return Err(format!(
            "schema is {schema:?}, expected {SERVE_STATS_SCHEMA:?}"
        ));
    }
    need_u64(v, "uptime_ms")?;
    let pool = v.get("pool").ok_or("missing \"pool\" section")?;
    for key in [
        "programs",
        "live_sessions",
        "capacity",
        "quarantined",
        "resident",
        "hits",
        "misses",
        "builds",
        "evictions",
        "quarantines",
        "rebuilds",
        "reloads",
        "reloads_incremental",
        "snapshot_hits",
        "snapshot_misses",
        "snapshot_writes",
        "snapshot_discarded_corrupt",
    ] {
        need_u64(pool, key).map_err(|e| format!("pool: {e}"))?;
    }
    let server = v.get("server").ok_or("missing \"server\" section")?;
    for key in [
        "served",
        "errors",
        "panics",
        "recorded",
        "recorder_capacity",
    ] {
        need_u64(server, key).map_err(|e| format!("server: {e}"))?;
    }
    let tenants = v
        .get("tenants")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array field \"tenants\"")?;
    for t in tenants {
        need_str(t, "client").map_err(|e| format!("tenant: {e}"))?;
        for key in [
            "requests",
            "errors",
            "retries",
            "degraded",
            "shed",
            "spent_steps",
        ] {
            need_u64(t, key).map_err(|e| format!("tenant: {e}"))?;
        }
        need_summary(t, "latency_us").map_err(|e| format!("tenant: {e}"))?;
    }
    let sessions = v
        .get("sessions")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array field \"sessions\"")?;
    for s in sessions {
        for key in ["program", "content"] {
            let hash = need_str(s, key).map_err(|e| format!("session: {e}"))?;
            if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!(
                    "session \"{key}\" must be a 16-hex-digit hash, got {hash:?}"
                ));
            }
        }
        need_u64(s, "resident").map_err(|e| format!("session: {e}"))?;
        for key in ["live", "quarantined"] {
            if !matches!(s.get(key), Some(Json::Bool(_))) {
                return Err(format!("session: field {key:?} must be a boolean"));
            }
        }
        need_summary(s, "latency_us").map_err(|e| format!("session: {e}"))?;
    }
    let slow = v
        .get("slow")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array field \"slow\"")?;
    for q in slow {
        for key in [
            "client",
            "program",
            "kind",
            "engine",
            "admission",
            "completeness",
        ] {
            need_str(q, key).map_err(|e| format!("slow: {e}"))?;
        }
        for key in ["seeds", "queue_us", "exec_us", "total_us", "spend"] {
            need_u64(q, key).map_err(|e| format!("slow: {e}"))?;
        }
    }
    let events = v
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array field \"events\"")?;
    let mut prev_seq = None;
    for e in events {
        let seq = need_u64(e, "seq").map_err(|e| format!("event: {e}"))?;
        need_str(e, "kind").map_err(|e| format!("event: {e}"))?;
        need_str(e, "label").map_err(|e| format!("event: {e}"))?;
        need_u64(e, "a").map_err(|e| format!("event: {e}"))?;
        need_u64(e, "b").map_err(|e| format!("event: {e}"))?;
        if let Some(p) = prev_seq {
            if seq <= p {
                return Err(format!("event tail out of order: seq {seq} after {p}"));
            }
        }
        prev_seq = Some(seq);
    }
    Ok(format!(
        "tenants={} sessions={} slow={} events={}",
        tenants.len(),
        sessions.len(),
        slow.len(),
        events.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_util::govern::ExhaustReason;

    #[test]
    fn parses_a_full_slice_request() {
        let req = parse_request(
            r#"{"op":"slice","id":3,"client":"ui","program":"0011223344556677",
               "seeds":[{"file":"a.mj","line":4},{"file":"a.mj","line":9}],
               "kind":"data","engine":"cs","deadline_ms":250,"step_budget":5000,
               "degrade":false,"chaos":{"panics":2}}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(3));
        assert_eq!(req.client, "ui");
        let Op::Slice(s) = req.op else {
            panic!("expected slice")
        };
        assert!(matches!(s.program, ProgramRef::Hash(ref h) if h == "0011223344556677"));
        assert_eq!(s.seeds.len(), 2);
        assert_eq!(s.kind, SliceKind::TraditionalData);
        assert_eq!(s.engine, Engine::Cs);
        assert_eq!(s.deadline_ms, Some(250));
        assert_eq!(s.step_budget, Some(5000));
        assert!(!s.degrade);
        assert_eq!(s.chaos_panics, 2);
    }

    #[test]
    fn defaults_are_thin_ci_degrading() {
        let req = parse_request(
            r#"{"op":"slice","sources":[{"name":"t.mj","text":"class M {}"}],
               "seed":{"file":"t.mj","line":1}}"#,
        )
        .unwrap();
        assert_eq!(req.id, None);
        assert_eq!(req.client, "anon");
        let Op::Slice(s) = req.op else {
            panic!("expected slice")
        };
        assert!(matches!(s.program, ProgramRef::Inline(ref f) if f.len() == 1));
        assert_eq!(s.kind, SliceKind::Thin);
        assert_eq!(s.engine, Engine::Ci);
        assert!(s.degrade);
        assert_eq!(s.chaos_panics, 0);
    }

    #[test]
    fn malformed_inputs_become_structured_errors() {
        for (line, code, needle) in [
            ("{not json", "parse", "malformed JSON"),
            ("", "parse", "malformed JSON"),
            ("[1,2]", "protocol", "must be a JSON object"),
            ("42", "protocol", "must be a JSON object"),
            (r#"{"op":"warp"}"#, "protocol", "unknown op \"warp\""),
            (r#"{"id":1}"#, "protocol", "missing required field \"op\""),
            (r#"{"op":"slice","id":1}"#, "protocol", "\"program\""),
            (
                r#"{"op":"slice","id":1,"program":"x","seed":{"file":"t.mj","line":0}}"#,
                "protocol",
                "positive integer",
            ),
            (
                r#"{"op":"slice","id":1,"program":"x","seed":{"file":"t.mj","line":2},"kind":"fat"}"#,
                "protocol",
                "unknown kind \"fat\"",
            ),
            (
                r#"{"op":"slice","id":1,"program":"x","seed":{"file":"t.mj","line":2},"engine":"warp"}"#,
                "protocol",
                "unknown engine \"warp\"",
            ),
            (r#"{"op":"load","id":1,"sources":[]}"#, "protocol", "empty"),
            (
                r#"{"op":"load","id":1,"sources":[{"name":"t.mj"}]}"#,
                "protocol",
                "\"text\"",
            ),
            (r#"{"op":"slice","id":"x"}"#, "protocol", "\"id\""),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, code, "line {line:?} → {err:?}");
            assert!(
                err.message.contains(needle),
                "line {line:?}: message {:?} should mention {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn errors_echo_the_request_id_once_extractable() {
        let err = parse_request(r#"{"op":"slice","id":9,"program":"x"}"#).unwrap_err();
        assert_eq!(err.id, Some(9));
        let err = parse_request("][").unwrap_err();
        assert_eq!(err.id, None);
    }

    #[test]
    fn oversized_lines_are_rejected_without_parsing() {
        let line = format!(
            "{{\"op\":\"load\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.code, "too_large");
        assert!(err.message.contains("limit"));
    }

    #[test]
    fn response_lines_are_deterministic_and_validate() {
        let e = error_line(Some(4), "parse", "malformed JSON: bad \"quote\"");
        assert_eq!(
            e,
            "{\"schema\":\"thinslice.serve_response.v1\",\"id\":4,\"ok\":false,\
             \"error\":{\"code\":\"parse\",\"message\":\"malformed JSON: bad \\\"quote\\\"\"}}"
        );
        assert!(validate_response_line(&e)
            .unwrap()
            .starts_with("error id=4"));

        let l = load_line(Some(1), "00112233aabbccdd", true, 420);
        assert!(validate_response_line(&l).unwrap().contains("load"));

        // A program whose line 2 reads `int x = 1`, so its memo lends the
        // line `t.mj:2: int x = 1`.
        let program = thinslice_ir::compile(&[(
            "t.mj",
            "class Main { static void main() {\nint x = 1\n; print(x); } }",
        )])
        .unwrap();
        let span = program.instr(program.stmts_at_line("t.mj", 2)[0]).span;
        let line = program.source_line(program.line_slot(span).unwrap());
        assert_eq!(&*line, "t.mj:2: int x = 1");

        let s = slice_line(
            Some(2),
            "00112233aabbccdd",
            Engine::Cs,
            SliceKind::Thin,
            Admission::Full,
            false,
            Completeness::Complete,
            &[line],
        );
        assert_eq!(validate_response_line(&s).unwrap(), "ok slice id=2 stmts=1");
        // Byte-for-byte stability is what the chaos suite leans on.
        assert_eq!(
            s,
            slice_line(
                Some(2),
                "00112233aabbccdd",
                Engine::Cs,
                SliceKind::Thin,
                Admission::Full,
                false,
                Completeness::Complete,
                &[line],
            )
        );

        let t = slice_line(
            None,
            "00112233aabbccdd",
            Engine::Ci,
            SliceKind::TraditionalFull,
            Admission::Truncate,
            true,
            Completeness::Truncated {
                reason: ExhaustReason::StepQuota,
                frontier: 17,
            },
            &[],
        );
        assert!(t.contains("\"completeness\":\"truncated\""));
        assert!(t.contains("\"reason\":\"step quota\""));
        assert!(t.contains("\"frontier\":17"));
        assert_eq!(
            validate_response_line(&t).unwrap(),
            "ok slice id=null stmts=0"
        );

        let st = status_line(Some(5), &StatusSnapshot::default(), None);
        assert_eq!(validate_response_line(&st).unwrap(), "ok status id=5");

        let sd = shutdown_line(Some(6), 3);
        assert_eq!(validate_response_line(&sd).unwrap(), "ok shutdown id=6");
    }

    #[test]
    fn parses_a_reload_request() {
        let req = parse_request(
            r#"{"op":"reload","id":11,"program":"0011223344556677",
               "sources":[{"name":"t.mj","text":"class M {}"}]}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(11));
        let Op::Reload { program, sources } = req.op else {
            panic!("expected reload")
        };
        assert_eq!(program, "0011223344556677");
        assert_eq!(sources.len(), 1);
        // Both fields are required.
        for line in [
            r#"{"op":"reload","id":1,"program":"0011223344556677"}"#,
            r#"{"op":"reload","id":1,"sources":[{"name":"t.mj","text":"class M {}"}]}"#,
        ] {
            assert_eq!(parse_request(line).unwrap_err().code, "protocol");
        }
    }

    #[test]
    fn reload_request_lines_round_trip() {
        let files = vec![SourceFile {
            name: "a \"b\".mj".into(),
            text: "class M {\n\tint x;\n}".into(),
        }];
        let line = reload_request_line(7, "cli", "0011223344556677", &files);
        let req = parse_request(&line).unwrap();
        assert_eq!(req.id, Some(7));
        assert_eq!(req.client, "cli");
        let Op::Reload { program, sources } = req.op else {
            panic!("expected reload")
        };
        assert_eq!(program, "0011223344556677");
        assert_eq!(sources, files);
    }

    #[test]
    fn reload_lines_serialize_and_validate() {
        let stats = UpdateStats {
            methods_total: 4,
            methods_changed: 1,
            pta_reused: true,
            ci_graph_reused: true,
            cs_graph_reused: true,
            constraints_total: 20,
            csr_segments_total: 6,
            memo_entries_kept: 3,
            ..UpdateStats::default()
        };
        let line = reload_line(
            Some(8),
            "0011223344556677",
            "ffeeddccbbaa9988",
            false,
            &stats,
            420,
        );
        assert_eq!(
            validate_response_line(&line).unwrap(),
            "ok reload id=8 path=incremental"
        );
        // Deterministic serialization (no timing fields).
        assert_eq!(
            line,
            reload_line(
                Some(8),
                "0011223344556677",
                "ffeeddccbbaa9988",
                false,
                &stats,
                420,
            )
        );
        assert!(line.contains("\"content\":\"ffeeddccbbaa9988\""));
        assert!(line.contains("\"pta_reused\":true"));
        // Path classification covers all four outcomes.
        assert_eq!(reload_path(true, &stats), "rebuild");
        assert_eq!(reload_path(false, &UpdateStats::default()), "incremental");
        let noop = UpdateStats {
            noop: true,
            ..UpdateStats::default()
        };
        assert_eq!(reload_path(false, &noop), "noop");
        let structural = UpdateStats {
            structural: true,
            ..UpdateStats::default()
        };
        assert_eq!(reload_path(false, &structural), "structural");
    }

    #[test]
    fn stats_lines_serialize_and_validate() {
        use thinslice_util::telemetry::{FlightKind, FlightRecorder};
        let rec = FlightRecorder::new(4);
        rec.record(FlightKind::SessionBuilt, "00112233aabbccdd", 42, 0);
        rec.record(FlightKind::RequestAdmitted, "ui", 7, 1);
        let snap = StatsSnapshot {
            uptime_ms: 1234,
            status: StatusSnapshot {
                programs: 1,
                live_sessions: 1,
                pool_capacity: 8,
                served: 3,
                ..StatusSnapshot::default()
            },
            pool_hits: 2,
            pool_builds: 1,
            recorded: rec.recorded(),
            recorder_capacity: rec.capacity(),
            tenants: vec![TenantRow {
                client: "ui".to_string(),
                requests: 3,
                spent_steps: 120,
                latency_us: HistogramSummary {
                    count: 3,
                    sum: 450.0,
                    p50: 150.0,
                    p95: 200.0,
                    max: 200.0,
                },
                ..TenantRow::default()
            }],
            sessions: vec![SessionRow {
                program: "00112233aabbccdd".to_string(),
                content: "ffeeddccbbaa9988".to_string(),
                live: true,
                resident: 42,
                ..SessionRow::default()
            }],
            slow: vec![SlowQueryRow {
                id: Some(9),
                client: "ui".to_string(),
                program: "00112233aabbccdd".to_string(),
                kind: "thin".to_string(),
                engine: "ci".to_string(),
                admission: "full".to_string(),
                completeness: "complete".to_string(),
                seeds: 1,
                queue_us: 10,
                exec_us: 90,
                total_us: 100,
                spend: 12,
            }],
            events: rec.snapshot(),
            ..StatsSnapshot::default()
        };
        // The standalone document validates under its own schema.
        let doc = stats_doc(&snap);
        let parsed = Json::parse(&doc).expect("stats doc parses");
        assert_eq!(
            validate_stats_doc(&parsed).unwrap(),
            "tenants=1 sessions=1 slow=1 events=2"
        );
        // The response line validates under the envelope schema.
        let line = stats_line(Some(5), &snap);
        assert_eq!(
            validate_response_line(&line).unwrap(),
            "ok stats id=5 (tenants=1 sessions=1 slow=1 events=2)"
        );
    }

    #[test]
    fn stats_validation_rejects_shape_violations() {
        let reject = |doc: &str, needle: &str| {
            let v = Json::parse(doc).unwrap();
            let err = validate_stats_doc(&v).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        reject("{\"schema\":\"other.v1\"}", "schema");
        reject(
            "{\"schema\":\"thinslice.serve_stats.v3\",\"uptime_ms\":1}",
            "pool",
        );
        // An out-of-order event tail is caught.
        let doc = stats_doc(&StatsSnapshot::default());
        let bad = doc.replace(
            "\"events\":[]",
            "\"events\":[{\"seq\":2,\"kind\":\"slow_query\",\"label\":\"\",\"a\":0,\"b\":0},\
             {\"seq\":1,\"kind\":\"slow_query\",\"label\":\"\",\"a\":0,\"b\":0}]",
        );
        reject(&bad, "out of order");
        // A stats response whose document is broken fails line validation.
        let line = format!(
            "{},\"stats\":{{\"schema\":\"wrong.v1\"}}}}",
            "{\"schema\":\"thinslice.serve_response.v1\",\"id\":1,\"ok\":true,\"op\":\"stats\""
        );
        assert!(validate_response_line(&line)
            .unwrap_err()
            .contains("embedded stats"));
    }

    #[test]
    fn validation_rejects_shape_violations() {
        assert!(validate_response_line("{oops").is_err());
        assert!(validate_response_line("{\"schema\":\"other.v1\"}").is_err());
        // stmt_count disagreeing with the array is caught.
        let bad = "{\"schema\":\"thinslice.serve_response.v1\",\"id\":1,\"ok\":true,\
                   \"op\":\"slice\",\"program\":\"00112233aabbccdd\",\"engine\":\"ci\",\
                   \"kind\":\"thin\",\"admission\":\"full\",\"degraded\":false,\
                   \"completeness\":\"complete\",\"stmt_count\":2,\"stmts\":[\"a\"]}";
        let err = validate_response_line(bad).unwrap_err();
        assert!(err.contains("stmt_count"), "{err}");
        // An embedded report must carry the run-report schema.
        let bad_report = status_line(
            Some(1),
            &StatusSnapshot::default(),
            Some("{\"schema\":\"wrong.v1\"}"),
        );
        assert!(validate_response_line(&bad_report).is_err());
    }
}

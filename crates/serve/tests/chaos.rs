//! Chaos suite for the slice server.
//!
//! The contract under test (ISSUE 7 acceptance criteria): under injected
//! panics, deadline storms, oversized programs, and truncated/garbage
//! request lines, the daemon never exits, quarantined sessions rebuild on
//! the next request, every non-faulted response is bit-identical to the
//! same request served by a fault-free daemon, and graceful shutdown
//! drains all in-flight queries.
//!
//! Determinism ground rules: slice and load responses carry no timing or
//! load-dependent fields, so they are compared byte-for-byte across runs.
//! `status` and `shutdown` responses intentionally report load-dependent
//! counters (serve order, drain depth) and are excluded from bit-identity
//! comparisons — their *presence* is still asserted.

use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};

use thinslice::{AnalysisSession, Engine, FaultInjection, Query, SliceKind};
use thinslice_serve::pool::PoolConfig;
use thinslice_serve::protocol::validate_response_line;
use thinslice_serve::{ServeConfig, ServeSummary, Server};
use thinslice_util::telemetry::Json;

/// A shared byte sink the server writes response lines into.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one scripted server session; returns (response lines, summary).
/// Every response line is schema-validated on the way out.
fn run_script(cfg: ServeConfig, script: &[String]) -> (Vec<String>, ServeSummary) {
    let sink = Sink::default();
    let out: thinslice_serve::SharedOut = Arc::new(Mutex::new(sink.clone()));
    let server = Server::new(cfg);
    let input = script.join("\n") + "\n";
    let summary = server.serve(Cursor::new(input.into_bytes()), out);
    let bytes = sink.0.lock().unwrap().clone();
    let lines: Vec<String> = String::from_utf8(bytes)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect();
    for line in &lines {
        validate_response_line(line).unwrap_or_else(|e| panic!("invalid response {line:?}: {e}"));
    }
    (lines, summary)
}

/// Feeds a script one line at a time, yielding line N+1 only once N
/// responses are in the sink: a closed-loop client. Synchronous ops
/// (load/reload/stats) are handled inline on the reader thread, so an
/// unpaced script can race a reload against a slice still queued for a
/// worker. Under lockstep pacing the daemon is idle and nothing is
/// buffered behind each line, so at one worker every slice is answered
/// on the reader thread too, in script order. Requires every request to
/// produce exactly one response line.
struct LockstepInput {
    lines: Vec<Vec<u8>>,
    next: usize,
    sink: Sink,
    pending: Vec<u8>,
}

impl std::io::Read for LockstepInput {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            if self.next >= self.lines.len() {
                return Ok(0);
            }
            loop {
                let answered = self
                    .sink
                    .0
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|b| **b == b'\n')
                    .count();
                if answered >= self.next {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            self.pending = self.lines[self.next].clone();
            self.pending.push(b'\n');
            self.next += 1;
        }
        let n = buf.len().min(self.pending.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

/// [`run_script`], but each request waits for the previous response.
fn run_script_lockstep(cfg: ServeConfig, script: &[String]) -> (Vec<String>, ServeSummary) {
    let sink = Sink::default();
    let out: thinslice_serve::SharedOut = Arc::new(Mutex::new(sink.clone()));
    let server = Server::new(cfg);
    let input = LockstepInput {
        lines: script.iter().map(|l| l.clone().into_bytes()).collect(),
        next: 0,
        sink: sink.clone(),
        pending: Vec::new(),
    };
    let summary = server.serve(input, out);
    let bytes = sink.0.lock().unwrap().clone();
    let lines: Vec<String> = String::from_utf8(bytes)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect();
    for line in &lines {
        validate_response_line(line).unwrap_or_else(|e| panic!("invalid response {line:?}: {e}"));
    }
    (lines, summary)
}

/// Runs a script paced both ways: pipelined ([`run_script`], most slices
/// queued for a worker) and closed-loop ([`run_script_lockstep`], where a
/// one-worker config answers every slice on the reader thread). Asserts
/// that the two runs give the same summary and the same answers, and
/// returns the pipelined run.
fn run_both(cfg: ServeConfig, script: &[String]) -> (Vec<String>, ServeSummary) {
    let (lines, summary) = run_script(cfg.clone(), script);
    let (closed_lines, closed_summary) = run_script_lockstep(cfg, script);
    assert_eq!(
        answers(&lines),
        answers(&closed_lines),
        "pipelined ≡ closed-loop answers"
    );
    assert_eq!(summary, closed_summary, "pipelined ≡ closed-loop summary");
    (lines, summary)
}

/// Load, slice and error responses by id: everything but `status` and
/// `shutdown`, whose counters depend on load.
fn answers(lines: &[String]) -> std::collections::BTreeMap<u64, String> {
    let mut map = by_id(lines);
    map.retain(|_, line| !matches!(field(line, "op").as_str(), Some("status" | "shutdown")));
    map
}

/// Indexes responses by id (every scripted request carries a unique id).
fn by_id(lines: &[String]) -> std::collections::BTreeMap<u64, String> {
    let mut map = std::collections::BTreeMap::new();
    for line in lines {
        let v = Json::parse(line).unwrap();
        if let Some(id) = v.get("id").and_then(Json::as_u64) {
            assert!(
                map.insert(id, line.clone()).is_none(),
                "duplicate response for id {id}"
            );
        }
    }
    map
}

fn field(line: &str, key: &str) -> Json {
    Json::parse(line)
        .unwrap()
        .get(key)
        .cloned()
        .unwrap_or(Json::Null)
}

fn program(n: u32) -> String {
    // A little call structure so CS and CI genuinely differ in work done.
    format!(
        "class Main {{ static int id(int a) {{ return a; }} \
         static void main() {{\nint x = {n};\nint y = Main.id(x) + {n};\nint z = y * 2;\nprint(z);\n}} }}"
    )
}

fn src_json(n: u32) -> String {
    let text = program(n)
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("[{{\"name\":\"p{n}.mj\",\"text\":\"{text}\"}}]")
}

fn load(id: u64, n: u32) -> String {
    format!(
        "{{\"op\":\"load\",\"id\":{id},\"sources\":{}}}",
        src_json(n)
    )
}

fn slice(id: u64, n: u32, line: u32, extra: &str) -> String {
    format!(
        "{{\"op\":\"slice\",\"id\":{id},\"sources\":{},\"seed\":{{\"file\":\"p{n}.mj\",\"line\":{line}}}{extra}}}",
        src_json(n)
    )
}

fn shutdown(id: u64) -> String {
    format!("{{\"op\":\"shutdown\",\"id\":{id}}}")
}

fn chaos_cfg() -> ServeConfig {
    ServeConfig {
        chaos: true,
        ..ServeConfig::default()
    }
}

#[test]
fn garbage_and_truncated_lines_get_structured_errors_not_disconnects() {
    let script = vec![
        "{not json at all".to_string(),
        "][".to_string(),
        "42".to_string(),
        "\"just a string\"".to_string(),
        r#"{"op":"warp","id":90}"#.to_string(),
        r#"{"op":"slice","id":91}"#.to_string(),
        // Truncated mid-object, as if the client died mid-write.
        r#"{"op":"slice","id":92,"sources":[{"name":"t.mj","te"#.to_string(),
        // The daemon must still serve real work after all of that.
        load(1, 1),
        slice(2, 1, 4, ""),
        shutdown(3),
    ];
    let (lines, summary) = run_script(ServeConfig::default(), &script);
    assert_eq!(lines.len(), script.len(), "one response per request line");
    assert_eq!(summary.errors, 7);
    assert_eq!(summary.served, 3);
    let map = by_id(&lines);
    assert_eq!(field(&map[&90], "ok"), Json::Bool(false));
    assert_eq!(field(&map[&91], "ok"), Json::Bool(false));
    assert_eq!(field(&map[&2], "ok"), Json::Bool(true));
    assert_eq!(
        field(&map[&2], "completeness"),
        Json::Str("complete".into())
    );
}

#[test]
fn deeply_nested_lines_get_parse_errors_not_a_crash() {
    // 10,000 nested arrays: 10 KB, far under the line limit, but deep
    // enough to overflow the stack of a parser without a nesting limit.
    let script = vec!["[".repeat(10_000), r#"{"op":"status","id":1}"#.to_string()];
    let (lines, summary) = run_script(ServeConfig::default(), &script);
    assert_eq!(lines.len(), script.len(), "one response per request line");
    assert_eq!((summary.errors, summary.served), (1, 1));
    let refused = lines
        .iter()
        .find(|l| field(l, "id") == Json::Null)
        .expect("the nested line is answered");
    assert_eq!(field(refused, "ok"), Json::Bool(false));
    assert_eq!(
        field(refused, "error").get("code").and_then(Json::as_str),
        Some("parse")
    );
    assert_eq!(field(&by_id(&lines)[&1], "ok"), Json::Bool(true));
}

#[test]
fn injected_panic_quarantines_rebuilds_and_siblings_stay_bit_identical() {
    // Request 4 panics on more attempts than the server retries, so it
    // hard-fails; request 5 re-queries the same program afterwards.
    let faulted: Vec<String> = vec![
        load(1, 1),
        slice(2, 1, 3, ""),
        slice(3, 2, 4, ""),
        slice(4, 1, 4, r#","chaos":{"panics":3}"#),
        slice(5, 1, 4, ""),
        shutdown(6),
    ];
    let clean: Vec<String> = faulted
        .iter()
        .map(|l| l.replace(r#","chaos":{"panics":3}"#, ""))
        .collect();

    let (f_lines, f_summary) = run_both(chaos_cfg(), &faulted);
    let (c_lines, c_summary) = run_script(chaos_cfg(), &clean);
    let f = by_id(&f_lines);
    let c = by_id(&c_lines);

    // The faulted request hard-failed with a structured panic error...
    assert_eq!(field(&f[&4], "ok"), Json::Bool(false));
    let err = field(&f[&4], "error");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("panic"));
    assert!(err
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("quarantined"));
    assert_eq!(f_summary.panics, 2, "initial attempt + one retry");
    assert_eq!(c_summary.panics, 0);

    // ...the daemon stayed up, the quarantined session rebuilt, and every
    // non-faulted response is bit-identical to the fault-free run.
    for id in [1u64, 2, 3, 5] {
        assert_eq!(f[&id], c[&id], "response {id} must be bit-identical");
    }
    assert!(
        f.contains_key(&6) && c.contains_key(&6),
        "both runs drained"
    );
}

#[test]
fn single_panic_recovers_via_retry_with_identical_response() {
    // One injected panic is absorbed by the retry on a rebuilt session:
    // the client sees the same successful response as a fault-free run.
    let faulted = vec![
        load(1, 1),
        slice(2, 1, 4, r#","chaos":{"panics":1}"#),
        shutdown(3),
    ];
    let clean: Vec<String> = faulted
        .iter()
        .map(|l| l.replace(r#","chaos":{"panics":1}"#, ""))
        .collect();
    let (f_lines, f_summary) = run_both(chaos_cfg(), &faulted);
    let (c_lines, _) = run_script(chaos_cfg(), &clean);
    assert_eq!(f_summary.panics, 1);
    assert_eq!(f_summary.errors, 0, "the retry hid the fault entirely");
    assert_eq!(by_id(&f_lines)[&2], by_id(&c_lines)[&2]);
}

#[test]
fn config_level_fault_injection_extends_batch_fault_shape() {
    // The PR 2 FaultInjection shape, applied to the server's request
    // path: the 1st slice request (0-based) panics once and recovers.
    let script = vec![
        load(1, 1),
        slice(2, 1, 3, ""),
        slice(3, 1, 4, ""),
        shutdown(4),
    ];
    let cfg = ServeConfig {
        fault: Some(FaultInjection {
            query: 1,
            attempts: 1,
        }),
        ..ServeConfig::default()
    };
    let (f_lines, f_summary) = run_both(cfg, &script);
    let (c_lines, _) = run_script(ServeConfig::default(), &script);
    assert_eq!(f_summary.panics, 1);
    assert_eq!(f_summary.errors, 0);
    let (f, c) = (by_id(&f_lines), by_id(&c_lines));
    for id in [1u64, 2, 3] {
        assert_eq!(f[&id], c[&id]);
    }
}

#[test]
fn chaos_fields_are_rejected_when_chaos_mode_is_off() {
    let script = vec![slice(1, 1, 3, r#","chaos":{"panics":1}"#), shutdown(2)];
    let (lines, summary) = run_script(ServeConfig::default(), &script);
    let map = by_id(&lines);
    assert_eq!(field(&map[&1], "ok"), Json::Bool(false));
    assert_eq!(
        field(&map[&1], "error").get("code").and_then(Json::as_str),
        Some("chaos_disabled")
    );
    assert_eq!(summary.panics, 0);
}

#[test]
fn deadline_storm_never_takes_the_daemon_down() {
    let mut script = vec![load(1, 1)];
    for i in 0..40 {
        script.push(slice(10 + i, 1, 4, r#","deadline_ms":0"#));
    }
    script.push(slice(90, 1, 4, ""));
    script.push(shutdown(99));
    let (lines, summary) = run_script(ServeConfig::default(), &script);
    assert_eq!(lines.len(), script.len(), "every request answered");
    assert_eq!(
        summary.errors, 0,
        "deadline exhaustion degrades, never errors"
    );
    let map = by_id(&lines);
    for i in 0..40u64 {
        assert_eq!(field(&map[&(10 + i)], "ok"), Json::Bool(true));
    }
    // After the storm the daemon still serves an ungoverned query fully.
    assert_eq!(
        field(&map[&90], "completeness"),
        Json::Str("complete".into())
    );
    assert!(
        map.contains_key(&99),
        "shutdown acknowledged after the storm"
    );
}

#[test]
fn oversized_programs_are_refused_structurally() {
    let cfg = ServeConfig {
        max_program_bytes: 256,
        ..ServeConfig::default()
    };
    let big = "x".repeat(4096);
    let script = vec![
        format!(
            "{{\"op\":\"load\",\"id\":1,\"sources\":[{{\"name\":\"big.mj\",\"text\":\"{big}\"}}]}}"
        ),
        format!(
            "{{\"op\":\"slice\",\"id\":2,\"sources\":[{{\"name\":\"big.mj\",\"text\":\"{big}\"}}],\"seed\":{{\"file\":\"big.mj\",\"line\":1}}}}"
        ),
        slice(3, 1, 4, ""),
        shutdown(4),
    ];
    let (lines, _) = run_script(cfg, &script);
    let map = by_id(&lines);
    for id in [1u64, 2] {
        assert_eq!(
            field(&map[&id], "error").get("code").and_then(Json::as_str),
            Some("too_large"),
            "response {id}"
        );
    }
    assert_eq!(
        field(&map[&3], "ok"),
        Json::Bool(true),
        "small programs still served"
    );
}

#[test]
fn duplicate_source_file_names_are_compile_errors() {
    use thinslice_serve::pool::program_hash;
    use thinslice_serve::protocol::SourceFile;

    // Two files named alike would make a seed `file:line` ambiguous, and
    // `<stdlib>` names the prepended standard library.
    let main = src_json(1);
    let main = &main[1..main.len() - 1];
    let helper = "{\"name\":\"p1.mj\",\"text\":\"class Helper {\\nint f;\\n}\"}";
    let stdlib = main.replace("p1.mj", "<stdlib>");
    let hash = program_hash(&[SourceFile {
        name: "p1.mj".into(),
        text: program(1),
    }]);
    let script = vec![
        format!("{{\"op\":\"load\",\"id\":1,\"sources\":[{main},{helper}]}}"),
        format!("{{\"op\":\"load\",\"id\":2,\"sources\":[{stdlib}]}}"),
        format!(
            "{{\"op\":\"slice\",\"id\":3,\"sources\":[{main},{helper}],\"seed\":{{\"file\":\"p1.mj\",\"line\":4}}}}"
        ),
        load(4, 1),
        format!(
            "{{\"op\":\"reload\",\"id\":5,\"program\":\"{hash}\",\"sources\":[{main},{helper}]}}"
        ),
        slice(6, 1, 4, ""),
        shutdown(7),
    ];
    // Lockstep: the reload must reach the pool after the load.
    let (lines, _) = run_script_lockstep(ServeConfig::default(), &script);
    let map = by_id(&lines);
    for (id, name) in [(1u64, "p1.mj"), (2, "<stdlib>"), (3, "p1.mj"), (5, "p1.mj")] {
        let error = field(&map[&id], "error");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("compile"),
            "response {id}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(&format!("duplicate source file `{name}`")),
            "response {id}: {message}"
        );
    }
    assert_eq!(field(&map[&4], "ok"), Json::Bool(true));
    assert_eq!(
        field(&map[&6], "ok"),
        Json::Bool(true),
        "a refused reload leaves the loaded program serving"
    );
}

#[test]
fn admission_ladder_degrades_cs_to_ci_then_truncates_fleet_wide() {
    // Pin the first rung: any queue depth degrades CS to CI.
    let cfg = ServeConfig {
        degrade_pending: 0,
        ..ServeConfig::default()
    };
    let script = vec![slice(1, 1, 4, r#","engine":"cs""#), shutdown(2)];
    let (lines, _) = run_both(cfg, &script);
    let map = by_id(&lines);
    assert_eq!(field(&map[&1], "admission"), Json::Str("degrade-ci".into()));
    assert_eq!(field(&map[&1], "engine"), Json::Str("ci".into()));
    assert_eq!(field(&map[&1], "degraded"), Json::Bool(true));

    // Pin the second rung: a one-step cap truncates (soundly) as well.
    let cfg = ServeConfig {
        degrade_pending: 0,
        truncate_pending: 0,
        truncate_step_cap: 1,
        ..ServeConfig::default()
    };
    let (lines, summary) = run_both(cfg, &script);
    let map = by_id(&lines);
    assert_eq!(field(&map[&1], "admission"), Json::Str("truncate".into()));
    assert_eq!(
        field(&map[&1], "completeness"),
        Json::Str("truncated".into())
    );
    assert_eq!(field(&map[&1], "reason"), Json::Str("step quota".into()));
    assert_eq!(summary.errors, 0, "truncation is degradation, not refusal");
}

#[test]
fn per_client_budget_sheds_the_heavy_tenant_only() {
    let cfg = ServeConfig {
        client_step_budget: Some(1),
        ..ServeConfig::default()
    };
    let with_client = |id: u64, client: &str| slice(id, 1, 4, &format!(",\"client\":\"{client}\""));
    let script = vec![
        with_client(1, "heavy"),
        with_client(2, "heavy"),
        with_client(3, "light"),
        shutdown(4),
    ];
    let (lines, _) = run_both(cfg, &script);
    let map = by_id(&lines);
    assert_eq!(field(&map[&1], "admission"), Json::Str("full".into()));
    assert_eq!(
        field(&map[&2], "admission"),
        Json::Str("truncate".into()),
        "second heavy-tenant request is load-shed"
    );
    assert_eq!(
        field(&map[&3], "admission"),
        Json::Str("full".into()),
        "other tenants ride unaffected"
    );
}

#[test]
fn graceful_shutdown_drains_every_queued_query() {
    let mut script = vec![load(1, 1)];
    for i in 0..10 {
        script.push(slice(10 + i, 1, 4, ""));
    }
    script.push(shutdown(50));
    // Lines queued after the shutdown request must NOT be read.
    script.push(slice(60, 1, 4, ""));
    let (lines, summary) = run_script(ServeConfig::default(), &script);
    let map = by_id(&lines);
    for i in 0..10u64 {
        assert_eq!(
            field(&map[&(10 + i)], "ok"),
            Json::Bool(true),
            "queued query {} drained with a real answer",
            10 + i
        );
    }
    assert!(map.contains_key(&50), "shutdown acknowledged last");
    assert!(!map.contains_key(&60), "intake stopped at shutdown");
    assert_eq!(summary.served, 12);
    // EOF (no shutdown request) drains identically, just without an ack.
    let script: Vec<String> = script[..script.len() - 2].to_vec();
    let (lines, _) = run_script(ServeConfig::default(), &script);
    assert_eq!(lines.len(), script.len());
}

#[test]
fn evicted_then_requeried_sessions_answer_bit_identically() {
    // Session-granularity LRU/watermark coverage (satellite 3): with a
    // one-session cap, alternating programs forces an eviction + rebuild
    // on every request; a roomy pool keeps everything warm. Responses
    // must be bit-identical either way.
    let mut script = vec![load(1, 1), load(2, 2)];
    let mut id = 10;
    for round in 0..3 {
        for n in [1u32, 2] {
            script.push(slice(id, n, 3 + round % 2, ""));
            id += 1;
        }
    }
    script.push(shutdown(99));

    let thrash = ServeConfig {
        pool: PoolConfig {
            max_sessions: 1,
            ..PoolConfig::default()
        },
        ..ServeConfig::default()
    };
    let squeeze = ServeConfig {
        pool: PoolConfig {
            resident_watermark: Some(1),
            ..PoolConfig::default()
        },
        ..ServeConfig::default()
    };
    let warm = ServeConfig::default();

    let (t_lines, _) = run_script(thrash, &script);
    let (s_lines, _) = run_script(squeeze, &script);
    let (w_lines, _) = run_script(warm, &script);
    let (t, s, w) = (by_id(&t_lines), by_id(&s_lines), by_id(&w_lines));
    for rid in 10..id {
        assert_eq!(t[&rid], w[&rid], "LRU-evicted answer {rid} ≡ warm");
        assert_eq!(s[&rid], w[&rid], "watermark-evicted answer {rid} ≡ warm");
    }
}

#[test]
fn multi_worker_runs_match_single_worker_responses() {
    let mut script = vec![load(1, 1), load(2, 2), load(3, 3)];
    let mut id = 10;
    for n in [1u32, 2, 3] {
        for line in [3u32, 4, 5] {
            script.push(slice(
                id,
                n,
                line,
                &format!(
                    ",\"client\":\"c{n}\",\"engine\":\"{}\"",
                    if id % 2 == 0 { "cs" } else { "ci" }
                ),
            ));
            id += 1;
        }
    }
    script.push(shutdown(99));
    let parallel = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let (p_lines, _) = run_script(parallel, &script);
    let (s_lines, _) = run_script(ServeConfig::default(), &script);
    let (p, s) = (by_id(&p_lines), by_id(&s_lines));
    for rid in (1..4).chain(10..id) {
        assert_eq!(p[&rid], s[&rid], "response {rid}: 4 workers ≡ 1 worker");
    }
}

#[test]
fn traced_status_embeds_a_valid_run_report() {
    let cfg = ServeConfig {
        trace: true,
        ..ServeConfig::default()
    };
    let script = vec![
        load(1, 1),
        slice(2, 1, 4, ""),
        r#"{"op":"status","id":3}"#.to_string(),
        shutdown(4),
    ];
    let (lines, _) = run_script(cfg, &script);
    let map = by_id(&lines);
    let report = field(&map[&3], "report");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some(thinslice_util::telemetry::RUN_REPORT_SCHEMA)
    );
    // Round-trip through the real report parser, not just the shape check.
    let status = &map[&3];
    let start = status.find("\"report\":").unwrap() + "\"report\":".len();
    let report_text = &status[start..status.len() - 1];
    thinslice_util::RunReport::from_json(report_text).expect("embedded report parses");
}

#[test]
fn status_reports_pool_occupancy_and_uptime() {
    let script = vec![
        load(1, 1),
        r#"{"op":"status","id":2}"#.to_string(),
        shutdown(3),
    ];
    let (lines, _) = run_script(ServeConfig::default(), &script);
    let map = by_id(&lines);
    let status = &map[&2];
    // New occupancy/uptime fields ride along; the PR 7 fields survive.
    assert_eq!(field(status, "pool_capacity").as_u64(), Some(8));
    assert!(field(status, "uptime_ms").as_u64().is_some());
    assert_eq!(field(status, "programs").as_u64(), Some(1));
    assert_eq!(field(status, "live_sessions").as_u64(), Some(1));
    assert_eq!(field(status, "evictions").as_u64(), Some(0));
}

#[test]
fn stats_op_is_answered_inline_during_chaos() {
    // `stats` mid-stream, with faults flying: still one valid response
    // per request (run_script schema-validates the embedded document).
    let cfg = chaos_cfg();
    let script = vec![
        load(1, 1),
        slice(2, 1, 4, r#","chaos":{"panics":1}"#),
        r#"{"op":"stats","id":3}"#.to_string(),
        slice(4, 1, 5, ""),
        shutdown(5),
    ];
    let (lines, summary) = run_script(cfg, &script);
    let map = by_id(&lines);
    assert_eq!(field(&map[&3], "op").as_str(), Some("stats"));
    let doc = field(&map[&3], "stats");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("thinslice.serve_stats.v3")
    );
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.panics, 1);
}

/// Drains a script, then asks the same server for `stats` — so the
/// tables deterministically cover every completed request.
fn stats_after(cfg: ServeConfig, script: &[String]) -> Json {
    let sink = Sink::default();
    let out: thinslice_serve::SharedOut = Arc::new(Mutex::new(sink.clone()));
    let server = Server::new(cfg);
    let input = script.join("\n") + "\n";
    server.serve(Cursor::new(input.into_bytes()), out.clone());
    sink.0.lock().unwrap().clear();
    server.ingest(r#"{"op":"stats","id":9999}"#, &out);
    let bytes = sink.0.lock().unwrap().clone();
    let line = String::from_utf8(bytes).unwrap().trim().to_string();
    validate_response_line(&line).unwrap_or_else(|e| panic!("invalid stats {line:?}: {e}"));
    field(&line, "stats")
}

#[test]
fn stats_reports_tenant_tables_and_slow_queries() {
    let cfg = ServeConfig {
        chaos: true,
        slow_ms: Some(0), // every request is "slow": the log must fill
        ..ServeConfig::default()
    };
    let script = vec![
        load(1, 1),
        slice(10, 1, 4, r#","client":"alpha","engine":"cs""#),
        slice(11, 1, 5, r#","client":"alpha""#),
        slice(12, 1, 4, r#","client":"beta","chaos":{"panics":1}"#),
        slice(
            13,
            1,
            4,
            r#","client":"beta","step_budget":1,"degrade":false"#,
        ),
        shutdown(99),
    ];
    let doc = stats_after(cfg, &script);

    // Per-tenant tables, sorted by client, with latency quantiles.
    let tenants = doc.get("tenants").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = tenants
        .iter()
        .map(|t| t.get("client").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["alpha", "beta"]);
    let alpha = &tenants[0];
    assert_eq!(alpha.get("requests").and_then(Json::as_u64), Some(2));
    assert!(alpha.get("spent_steps").and_then(Json::as_u64).unwrap() > 0);
    let lat = alpha.get("latency_us").unwrap();
    assert_eq!(lat.get("count").and_then(Json::as_u64), Some(2));
    assert!(lat.get("max").and_then(Json::as_f64).unwrap() > 0.0);
    let beta = &tenants[1];
    assert_eq!(beta.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(beta.get("retries").and_then(Json::as_u64), Some(1));

    // Per-session table: one program, live, with its latency histogram.
    let sessions = doc.get("sessions").and_then(Json::as_arr).unwrap();
    assert_eq!(sessions.len(), 1);
    let sess = &sessions[0];
    assert_eq!(
        sess.get("program").and_then(Json::as_str).unwrap().len(),
        16
    );
    assert_eq!(sess.get("live"), Some(&Json::Bool(true)));
    assert!(sess.get("resident").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        sess.get("latency_us")
            .and_then(|l| l.get("count"))
            .and_then(Json::as_u64),
        Some(4)
    );

    // Slow-query log: every slice crossed the 0ms threshold, capturing
    // query shape, stage breakdown, and completeness.
    let slow = doc.get("slow").and_then(Json::as_arr).unwrap();
    assert_eq!(slow.len(), 4);
    assert!(slow
        .iter()
        .any(|q| { q.get("completeness").and_then(Json::as_str) == Some("truncated") }));
    for q in slow {
        let total = q.get("total_us").and_then(Json::as_u64).unwrap();
        let queue = q.get("queue_us").and_then(Json::as_u64).unwrap();
        let exec = q.get("exec_us").and_then(Json::as_u64).unwrap();
        assert_eq!(total, queue + exec);
    }

    // Flight-recorder tail: the lifecycle is in there.
    let events = doc.get("events").and_then(Json::as_arr).unwrap();
    let kinds: std::collections::BTreeSet<&str> = events
        .iter()
        .map(|e| e.get("kind").and_then(Json::as_str).unwrap())
        .collect();
    for kind in [
        "session_built",
        "request_admitted",
        "fault_injected",
        "session_quarantined",
        "budget_exhausted",
        "slow_query",
    ] {
        assert!(kinds.contains(kind), "missing {kind} in {kinds:?}");
    }
    assert!(
        doc.get("server")
            .and_then(|s| s.get("recorded"))
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    assert_eq!(
        doc.get("pool")
            .and_then(|p| p.get("quarantines"))
            .and_then(Json::as_u64),
        Some(1)
    );
}

#[test]
fn tenant_spend_is_the_visited_node_count_of_each_answer() {
    // The daemon charges each answered slice the number of graph nodes it
    // visited, so an unbudgeted tenant's spend is the sum a fresh session
    // reports for the same seeds, kinds and engines.
    let shapes = [
        ("thin", SliceKind::Thin, "ci", Engine::Ci),
        ("data", SliceKind::TraditionalData, "ci", Engine::Ci),
        ("full", SliceKind::TraditionalFull, "ci", Engine::Ci),
        ("thin", SliceKind::Thin, "cs", Engine::Cs),
    ];
    let text = program(1);
    let mut fresh = AnalysisSession::new(&[("p1.mj", text.as_str())]).unwrap();
    let mut script = vec![load(1, 1)];
    let mut want = 0u64;
    for (i, (kind_name, kind, engine_name, engine)) in shapes.into_iter().enumerate() {
        for line in [3, 5] {
            let id = 10 + 2 * i as u64 + u64::from(line == 5);
            let extra =
                format!(r#","client":"gamma","kind":"{kind_name}","engine":"{engine_name}""#);
            script.push(slice(id, 1, line, &extra));
            let seeds = fresh.seed_at_line("p1.mj", line).unwrap();
            want += fresh.query(&Query::new(seeds, kind, engine)).nodes_visited as u64;
        }
    }
    script.push(shutdown(99));
    let doc = stats_after(ServeConfig::default(), &script);
    let tenants = doc.get("tenants").and_then(Json::as_arr).unwrap();
    assert_eq!(tenants.len(), 1);
    let gamma = &tenants[0];
    assert_eq!(gamma.get("client").and_then(Json::as_str), Some("gamma"));
    assert_eq!(gamma.get("requests").and_then(Json::as_u64), Some(8));
    assert!(want > 0);
    assert_eq!(gamma.get("spent_steps").and_then(Json::as_u64), Some(want));
}

#[test]
fn observability_knobs_do_not_perturb_responses() {
    // The acceptance bar: with the recorder on (default), off, and with
    // the slow-query log armed, every load/slice/error response is
    // byte-identical. Only `stats` itself may differ.
    let cfg_default = ServeConfig::default();
    let cfg_off = ServeConfig {
        recorder_capacity: 0,
        ..ServeConfig::default()
    };
    let cfg_armed = ServeConfig {
        recorder_capacity: 1024,
        slow_ms: Some(0),
        ..ServeConfig::default()
    };
    let script = vec![
        load(1, 1),
        slice(10, 1, 4, r#","client":"a","engine":"cs""#),
        slice(11, 1, 5, r#","client":"b""#),
        r#"{"op":"slice","id":12}"#.to_string(), // structured error
        shutdown(99),
    ];
    let (d_lines, _) = run_script(cfg_default, &script);
    let (o_lines, _) = run_script(cfg_off, &script);
    let (a_lines, _) = run_script(cfg_armed, &script);
    let (d, o, a) = (by_id(&d_lines), by_id(&o_lines), by_id(&a_lines));
    for rid in [1, 10, 11, 12] {
        assert_eq!(d[&rid], o[&rid], "response {rid}: recorder off ≡ default");
        assert_eq!(d[&rid], a[&rid], "response {rid}: log armed ≡ default");
    }
}

/// End-to-end `reload`: a hash-addressed slice after the reload answers
/// for the edited program, bit-identical to a fresh daemon that loaded
/// the edit directly, and the stats doc exposes the new content hash.
#[test]
fn reload_serves_the_edited_program_under_the_original_key() {
    use thinslice_serve::pool::program_hash;
    use thinslice_serve::protocol::SourceFile;

    let files = |n: u32| {
        vec![SourceFile {
            name: format!("p{n}.mj"),
            text: program(n),
        }]
    };
    let h1 = program_hash(&files(1));
    let h2 = program_hash(&files(2));
    let reload = format!(
        "{{\"op\":\"reload\",\"id\":2,\"program\":\"{h1}\",\"sources\":{}}}",
        src_json(2)
    );
    let hash_slice = |id: u64, hash: &str| {
        format!(
            "{{\"op\":\"slice\",\"id\":{id},\"program\":\"{hash}\",\"seed\":{{\"file\":\"p2.mj\",\"line\":4}}}}"
        )
    };
    let script = vec![
        load(1, 1),
        slice(10, 1, 4, ""), // warm the lazy stages before the edit
        reload,
        hash_slice(11, &h1), // key lineage: still addressed by h1
        format!("{{\"op\":\"stats\",\"id\":3}}"),
        shutdown(99),
    ];
    // Lockstep: the reload must not race the queued slice before it.
    let (lines, _) = run_script_lockstep(ServeConfig::default(), &script);
    let r = by_id(&lines);
    assert_eq!(field(&r[&2], "program"), Json::Str(h1.clone()));
    assert_eq!(field(&r[&2], "content"), Json::Str(h2.clone()));
    assert_eq!(field(&r[&2], "path"), Json::Str("incremental".into()));
    assert_eq!(field(&r[&2], "pta_reused"), Json::Bool(true));

    // Fresh daemon loads program 2 directly; slices must be byte-equal
    // modulo the program hash they are addressed by.
    let fresh_script = vec![load(1, 2), hash_slice(11, &h2), shutdown(99)];
    let (fresh_lines, _) = run_script(ServeConfig::default(), &fresh_script);
    let f = by_id(&fresh_lines);
    assert_eq!(
        r[&11].replace(&h1, "_"),
        f[&11].replace(&h2, "_"),
        "post-reload slice ≡ fresh daemon on the edited program"
    );

    // The stats session row shows lineage key and current content hash.
    let doc = field(&r[&3], "stats");
    let sessions = doc.get("sessions").and_then(Json::as_arr).unwrap();
    let row = &sessions[0];
    assert_eq!(row.get("program").and_then(Json::as_str), Some(h1.as_str()));
    assert_eq!(row.get("content").and_then(Json::as_str), Some(h2.as_str()));
    let pool = doc.get("pool").unwrap();
    assert_eq!(pool.get("reloads").and_then(Json::as_u64), Some(1));
    assert_eq!(
        pool.get("reloads_incremental").and_then(Json::as_u64),
        Some(1)
    );
}

/// A fresh scratch directory for one test's snapshot store.
fn snap_dir(test: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ts_chaos_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn snap_cfg(dir: &str) -> ServeConfig {
    ServeConfig {
        pool: PoolConfig {
            snapshot_dir: Some(dir.to_string()),
            ..PoolConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn pool_counter(doc: &Json, key: &str) -> u64 {
    doc.get("pool")
        .and_then(|p| p.get(key))
        .and_then(Json::as_u64)
        .unwrap()
}

/// Snapshot chaos: a daemon pointed at truncated, bit-flipped, and
/// version-skewed snapshot files stays up, rebuilds from sources, and
/// answers bit-identically to a daemon with no snapshot directory.
#[test]
fn corrupt_snapshot_files_fall_back_to_clean_rebuilds() {
    use thinslice::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
    use thinslice::SnapshotStore;
    use thinslice_serve::pool::program_hash;
    use thinslice_serve::protocol::SourceFile;

    let dir = snap_dir("corrupt");
    let script = vec![
        load(1, 1),
        slice(2, 1, 4, ""),
        slice(3, 1, 5, ""),
        shutdown(9),
    ];

    // Seed the store with a genuine snapshot, then keep a pristine
    // baseline from a snapshot-free daemon.
    let (_, _) = run_script(snap_cfg(&dir), &script);
    let (base_lines, _) = run_script(ServeConfig::default(), &script);
    let base = by_id(&base_lines);

    let h = program_hash(&[SourceFile {
        name: "p1.mj".to_string(),
        text: program(1),
    }]);
    let path = SnapshotStore::new(&dir).path(&h);
    let pristine = std::fs::read(&path).expect("daemon persisted a snapshot");

    // Three sabotage modes: truncation, a mid-file bit flip, and a
    // well-formed file written under a future format version.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x08;
    let mut skewed = thinslice_util::SnapshotWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION + 1, &h);
    skewed.section("config", vec![1, 2, 3]);
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", pristine[..pristine.len() / 3].to_vec()),
        ("bit-flipped", flipped),
        ("version-skewed", skewed.finish()),
    ];
    for (label, bytes) in cases {
        std::fs::write(&path, &bytes).unwrap();
        let (lines, summary) = run_script(snap_cfg(&dir), &script);
        assert_eq!(summary.errors, 0, "{label}: corruption never errors");
        let got = by_id(&lines);
        for id in [1u64, 2, 3] {
            assert_eq!(
                got[&id], base[&id],
                "{label}: response {id} ≡ snapshot-free daemon"
            );
        }
    }

    // The discard is visible in the stats document.
    std::fs::write(&path, &pristine[..pristine.len() / 3]).unwrap();
    let doc = stats_after(snap_cfg(&dir), &script[..script.len() - 1]);
    assert_eq!(pool_counter(&doc, "snapshot_discarded_corrupt"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm start end to end: a restarted daemon restores the persisted
/// session (counted as a snapshot hit), answers bit-identically, and a
/// `reload` invalidates the now-stale on-disk snapshot.
#[test]
fn warm_started_daemon_matches_cold_and_reload_invalidates_the_snapshot() {
    use thinslice::SnapshotStore;
    use thinslice_serve::pool::program_hash;
    use thinslice_serve::protocol::SourceFile;

    let dir = snap_dir("warm");
    let files = |n: u32| {
        vec![SourceFile {
            name: format!("p{n}.mj"),
            text: program(n),
        }]
    };
    let h1 = program_hash(&files(1));
    let h2 = program_hash(&files(2));
    let script = vec![load(1, 1), slice(2, 1, 4, ""), shutdown(9)];

    // First daemon builds cold and persists on build + drain.
    run_script(snap_cfg(&dir), &script);
    let store = SnapshotStore::new(&dir);
    assert!(store.path(&h1).exists());

    // Restarted daemon warm-starts; responses ≡ a snapshot-free daemon.
    let (warm_lines, _) = run_script(snap_cfg(&dir), &script);
    let (cold_lines, _) = run_script(ServeConfig::default(), &script);
    let (warm, cold) = (by_id(&warm_lines), by_id(&cold_lines));
    assert_eq!(warm[&2], cold[&2], "warm slice ≡ cold slice, byte-equal");
    // The load ack differs only in `resident`: the restored session
    // carries the stages the previous run's queries forced, so its
    // estimate is honestly larger than a cold build's.
    for key in ["ok", "program", "cached"] {
        assert_eq!(field(&warm[&1], key), field(&cold[&1], key), "load {key}");
    }
    assert!(
        field(&warm[&1], "resident").as_u64() >= field(&cold[&1], "resident").as_u64(),
        "restored session carries at least the cold session's stages"
    );
    let doc = stats_after(snap_cfg(&dir), &script[..script.len() - 1]);
    assert_eq!(pool_counter(&doc, "snapshot_hits"), 1, "restored from disk");
    assert_eq!(pool_counter(&doc, "snapshot_discarded_corrupt"), 0);

    // A reload supersedes the on-disk snapshot for the old content and
    // persists one for the new content under the preserved pool key.
    let reload = format!(
        "{{\"op\":\"reload\",\"id\":3,\"program\":\"{h1}\",\"sources\":{}}}",
        src_json(2)
    );
    let script = vec![load(1, 1), slice(2, 1, 4, ""), reload, shutdown(9)];
    run_script_lockstep(snap_cfg(&dir), &script);
    assert!(
        !store.path(&h1).exists(),
        "reload invalidates the stale snapshot"
    );
    assert!(
        store.path(&h2).exists(),
        "and persists the edited program's snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicking query quarantines its session; the rebuild must come from
/// the retained sources, not from the snapshot store — the stored session
/// may be exactly what panicked — and still answer like a fault-free
/// daemon.
#[test]
fn quarantined_sessions_rebuild_from_sources_not_the_snapshot() {
    let dir = snap_dir("quarantine");
    // Seed the store with the program's snapshot.
    run_script(
        snap_cfg(&dir),
        &[load(1, 1), slice(2, 1, 4, ""), shutdown(9)],
    );
    let cfg = || ServeConfig {
        chaos: true,
        ..snap_cfg(&dir)
    };
    // The load warm-starts; request 2's first attempt panics, quarantines
    // the session and is retried on the rebuild; request 3 reuses it.
    let faulted = vec![
        load(1, 1),
        slice(2, 1, 4, r#","chaos":{"panics":1}"#),
        slice(3, 1, 5, ""),
    ];
    let doc = stats_after(cfg(), &faulted);
    assert_eq!(pool_counter(&doc, "quarantines"), 1);
    assert_eq!(pool_counter(&doc, "rebuilds"), 1);
    assert_eq!(
        pool_counter(&doc, "snapshot_hits"),
        1,
        "only the load restored from the store"
    );

    let mut script = faulted.clone();
    script.push(shutdown(9));
    let clean: Vec<String> = script
        .iter()
        .map(|l| l.replace(r#","chaos":{"panics":1}"#, ""))
        .collect();
    let (f_lines, f_summary) = run_script(cfg(), &script);
    let (c_lines, _) = run_script(ServeConfig::default(), &clean);
    assert_eq!(f_summary.panics, 1);
    let (f, c) = (by_id(&f_lines), by_id(&c_lines));
    for id in [2u64, 3] {
        assert_eq!(f[&id], c[&id], "response {id} ≡ fault-free daemon");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Escapes `text` as the body of a JSON string.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// [`json_escape`], then every non-ASCII character as `\u` escapes, one
/// outside the Basic Multilingual Plane as a surrogate pair: what Python's
/// `json.dumps` sends by default.
fn json_escape_ascii(text: &str) -> String {
    let mut out = String::new();
    for c in json_escape(text).chars() {
        if c.is_ascii() {
            out.push(c);
        } else {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        }
    }
    out
}

/// A program with U+1F600 in a comment and in a sliced string literal is
/// one program whether its load escapes the character as a surrogate pair
/// or sends it raw, and its slice lists the literal intact.
#[test]
fn surrogate_pair_escapes_load_the_same_program_as_raw_utf8() {
    let text = "class Main { static void main() {\n// \u{1f600} in a comment\n\
                String s = \"smile \u{1f600}\";\nprint(s);\n} }";
    let load = |id: u64, escaped: &str| {
        format!(r#"{{"op":"load","id":{id},"sources":[{{"name":"u.mj","text":"{escaped}"}}]}}"#)
    };
    let pairs = json_escape_ascii(text);
    assert_eq!(pairs.matches("\\ud83d\\ude00").count(), 2, "{pairs}");
    let hash = thinslice_serve::pool::program_hash(&[thinslice_serve::protocol::SourceFile {
        name: "u.mj".to_string(),
        text: text.to_string(),
    }]);
    let script = vec![
        load(1, &json_escape(text)),
        load(2, &pairs),
        format!(r#"{{"op":"slice","id":3,"program":"{hash}","seed":{{"file":"u.mj","line":4}}}}"#),
    ];
    let (lines, summary) = run_script(ServeConfig::default(), &script);
    assert_eq!((summary.errors, summary.served), (0, 3), "{lines:?}");
    let map = by_id(&lines);
    assert_eq!(field(&map[&1], "program"), Json::Str(hash.clone()));
    assert_eq!(field(&map[&2], "program"), Json::Str(hash));
    assert_eq!(field(&map[&2], "cached"), Json::Bool(true));
    let stmts = field(&map[&3], "stmts");
    let listed: Vec<&str> = stmts
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(
        listed.contains(&"u.mj:3: String s = \"smile \u{1f600}\";"),
        "{listed:?}"
    );
}

/// A slice naming a hash no `load` registered gets one `unknown_program`
/// error, charged to its tenant, and the daemon answers the next request.
#[test]
fn a_slice_of_an_unregistered_hash_is_one_unknown_program_error() {
    let script = vec![
        load(1, 1),
        r#"{"op":"slice","id":2,"program":"0123456789abcdef","seed":{"file":"p1.mj","line":4},"client":"gamma"}"#
            .to_string(),
        slice(3, 1, 4, r#","client":"gamma""#),
        r#"{"op":"stats","id":4}"#.to_string(),
    ];
    let (lines, summary) = run_script_lockstep(ServeConfig::default(), &script);
    assert_eq!(lines.len(), script.len(), "one response per request line");
    assert_eq!((summary.errors, summary.served), (1, 3));
    let map = by_id(&lines);
    assert_eq!(field(&map[&2], "ok"), Json::Bool(false));
    let error = field(&map[&2], "error");
    assert_eq!(
        error.get("code"),
        Some(&Json::Str("unknown_program".into()))
    );
    assert_eq!(
        error.get("message").and_then(Json::as_str),
        Some("program \"0123456789abcdef\" is not registered; send a load request first")
    );
    assert_eq!(field(&map[&3], "ok"), Json::Bool(true));
    let stats = field(&map[&4], "stats");
    let tenants = stats.get("tenants").and_then(Json::as_arr).unwrap();
    let gamma = tenants
        .iter()
        .find(|t| t.get("client").and_then(Json::as_str) == Some("gamma"))
        .expect("gamma has a row");
    assert_eq!(gamma.get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(gamma.get("requests").and_then(Json::as_u64), Some(1));
}

/// A step-budgeted CS request gets the same response bytes from a fresh
/// daemon, from one that has answered another tenant's CS traffic on the
/// same program, and after a quarantine rebuild, at one and two workers:
/// the pool's promise that eviction, quarantine and cold starts are
/// observationally equivalent, applied to governed requests.
#[test]
fn budgeted_cs_answers_do_not_depend_on_daemon_history() {
    let bench = thinslice_suite::benchmark_named("nanoxml").unwrap();
    let files: Vec<thinslice_serve::protocol::SourceFile> = bench
        .sources
        .iter()
        .map(|(name, text)| thinslice_serve::protocol::SourceFile {
            name: name.to_string(),
            text: text.to_string(),
        })
        .collect();
    let hash = thinslice_serve::pool::program_hash(&files);
    let sources: Vec<String> = files
        .iter()
        .map(|f| {
            format!(
                "{{\"name\":\"{}\",\"text\":\"{}\"}}",
                json_escape(&f.name),
                json_escape(&f.text)
            )
        })
        .collect();
    let load = format!(
        "{{\"op\":\"load\",\"id\":1,\"sources\":[{}]}}",
        sources.join(",")
    );
    // Every print line, and the first print's full CS visit count.
    let mut session = AnalysisSession::new(&bench.sources).unwrap();
    let file = bench.sources[0].0;
    let lines: Vec<u32> = (1..=bench.sources[0].1.lines().count() as u32)
        .filter(|&line| {
            session.seed_at_line(file, line).is_some_and(|seeds| {
                seeds.iter().any(|&st| {
                    matches!(
                        session.program().instr(st).kind,
                        thinslice_ir::InstrKind::Print { .. }
                    )
                })
            })
        })
        .collect();
    assert!(lines.len() > 2, "nanoxml prints on {lines:?}");
    let seeds = session.seed_at_line(file, lines[0]).unwrap();
    let full = session
        .query(&Query::new(seeds, SliceKind::Thin, Engine::Cs))
        .nodes_visited;
    let request = |id: u64, line: u32, extra: &str| {
        format!(
            "{{\"op\":\"slice\",\"id\":{id},\"program\":\"{hash}\",\
             \"seed\":{{\"file\":\"{file}\",\"line\":{line}}},\"engine\":\"cs\"{extra}}}"
        )
    };
    let traffic = |first: u64| -> Vec<String> {
        (lines.iter().zip(first..))
            .map(|(&line, id)| request(id, line, r#","client":"alpha""#))
            .collect()
    };
    let budget = format!(r#","client":"beta","step_budget":{}"#, full / 2);
    let budgeted = |panics: &str| {
        vec![
            request(
                50,
                lines[0],
                &format!(r#"{budget},"degrade":false{panics}"#),
            ),
            request(51, lines[0], &budget),
        ]
    };
    let fresh: Vec<String> = [vec![load.clone()], budgeted("")].concat();
    let warm: Vec<String> = [vec![load.clone()], traffic(10), budgeted("")].concat();
    // Request 50's first attempt panics on the warm session, which is
    // quarantined; the retry runs on the rebuild, which request 51 then
    // reaches after more of alpha's traffic.
    let quarantine: Vec<String> = [
        vec![load],
        traffic(10),
        budgeted(r#","chaos":{"panics":1}"#)[..1].to_vec(),
        traffic(100),
        budgeted("")[1..].to_vec(),
    ]
    .concat();
    let answers_of = |workers: usize, script: &[String]| {
        let cfg = ServeConfig {
            workers,
            ..chaos_cfg()
        };
        let map = by_id(&run_script(cfg, script).0);
        [map[&50].clone(), map[&51].clone()]
    };
    let want = answers_of(1, &fresh);
    assert_eq!(
        field(&want[0], "completeness"),
        Json::Str("truncated".into())
    );
    assert_eq!(field(&want[1], "degraded"), Json::Bool(true));
    for workers in [1, 2] {
        for (name, script) in [
            ("fresh", &fresh),
            ("warm", &warm),
            ("quarantine", &quarantine),
        ] {
            assert_eq!(
                answers_of(workers, script),
                want,
                "{name} daemon at {workers} workers"
            );
        }
    }
}

//! Hand-rolled telemetry: tracing spans, a metrics registry, and
//! machine-readable run reports.
//!
//! External observability crates (`tracing`, `metrics`, `criterion`) are
//! unavailable offline, so — like [`crate::par`] and the `fx` hashes — this
//! module re-implements the small slice of them the pipeline needs:
//!
//! * [`Telemetry`] — a cheaply clonable handle threaded through the analysis
//!   stages. A *disabled* handle (the default) carries no allocation and
//!   every operation is a branch on `None`, so instrumented code paths stay
//!   bit-identical to uninstrumented ones.
//! * [`Span`] — an RAII guard measuring wall-clock time for one named stage
//!   (`tel.span("pta.solve")`), with nesting tracked via a span stack and
//!   per-span counters attached through [`Span::add`].
//! * [`MetricsRegistry`] — named monotonic counters, last-write gauges and
//!   sample-keeping [`Histogram`]s, plus a list of structured
//!   [`TelemetryEvent`]s (e.g. budget exhaustions from [`crate::govern`]).
//! * [`RunReport`] — an owned snapshot of everything above with a hand-rolled
//!   JSON writer *and* parser (no `serde`), so reports round-trip through
//!   files and external tooling.
//!
//! # Examples
//!
//! ```
//! use thinslice_util::telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! {
//!     let mut span = tel.span("pta.solve");
//!     span.add("worklist.pops", 42);
//! }
//! tel.count("sdg.edges", 7);
//! tel.record("batch.query_us", 120.0);
//! let report = tel.report();
//! assert_eq!(report.counters["sdg.edges"], 7);
//! let json = report.to_json();
//! assert_eq!(thinslice_util::telemetry::RunReport::from_json(&json).unwrap(), report);
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies the JSON schema emitted by [`RunReport::to_json`].
pub const RUN_REPORT_SCHEMA: &str = "thinslice.run_report.v1";

// ---------------------------------------------------------------------------
// Telemetry handle
// ---------------------------------------------------------------------------

/// A shareable telemetry handle.
///
/// Disabled handles ([`Telemetry::disabled`], also [`Default`]) make every
/// operation a no-op; enabled handles ([`Telemetry::enabled`]) share one
/// trace + registry across clones, so batch workers on different threads
/// aggregate into the same report.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    trace: Mutex<Trace>,
    metrics: Mutex<MetricsRegistry>,
}

#[derive(Debug, Default)]
struct Trace {
    spans: Vec<SpanRecord>,
    /// Indices into `spans` of the currently open spans, innermost last.
    stack: Vec<usize>,
}

impl Telemetry {
    /// A handle where every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle recording spans and metrics from now on.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                trace: Mutex::new(Trace::default()),
                metrics: Mutex::new(MetricsRegistry::default()),
            })),
        }
    }

    /// Whether this handle records anything. Use to gate work whose only
    /// purpose is producing telemetry (e.g. post-hoc edge counting).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a named span; timing stops when the returned guard drops.
    ///
    /// Spans opened while another span guard is live nest under it (their
    /// recorded `depth` is one greater). Span guards must be dropped in
    /// reverse order of creation — the natural shape of scoped stage code.
    pub fn span(&self, name: &str) -> Span<'_> {
        let Some(inner) = self.inner.as_ref() else {
            return Span {
                tel: self,
                idx: usize::MAX,
                start: None,
            };
        };
        let start = Instant::now();
        let start_us = start.duration_since(inner.epoch).as_micros() as u64;
        let mut trace = inner.trace.lock().unwrap();
        let depth = trace.stack.len() as u32;
        let idx = trace.spans.len();
        trace.spans.push(SpanRecord {
            name: name.to_string(),
            depth,
            start_us,
            dur_us: 0,
            counters: Vec::new(),
        });
        trace.stack.push(idx);
        Span {
            tel: self,
            idx,
            start: Some(start),
        }
    }

    /// Adds `n` to the named monotonic counter. `n == 0` is dropped so
    /// reports only list metrics that actually fired.
    pub fn count(&self, name: &str, n: u64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if n == 0 {
            return;
        }
        inner.metrics.lock().unwrap().count(name, n);
    }

    /// Sets the named gauge to `v` (last write wins).
    pub fn gauge(&self, name: &str, v: u64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        inner.metrics.lock().unwrap().gauge(name, v);
    }

    /// Records one sample into the named histogram.
    pub fn record(&self, name: &str, v: f64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        inner.metrics.lock().unwrap().record(name, v);
    }

    /// Appends a structured event (e.g. a budget exhaustion).
    pub fn event(&self, name: &str, fields: &[(&str, String)]) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        inner.metrics.lock().unwrap().push_event(TelemetryEvent {
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Summarises the named histogram, if any samples were recorded.
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        let inner = self.inner.as_ref()?;
        let metrics = inner.metrics.lock().unwrap();
        metrics.histograms.get(name).map(Histogram::summary)
    }

    /// Snapshots everything recorded so far into an owned [`RunReport`].
    ///
    /// Open spans are included with their duration measured up to now.
    pub fn report(&self) -> RunReport {
        let Some(inner) = self.inner.as_ref() else {
            return RunReport::default();
        };
        let now = Instant::now();
        let trace = inner.trace.lock().unwrap();
        let mut spans = trace.spans.clone();
        for &open in &trace.stack {
            let s = &mut spans[open];
            s.dur_us = now
                .duration_since(inner.epoch)
                .as_micros()
                .saturating_sub(u128::from(s.start_us)) as u64;
        }
        drop(trace);
        let metrics = inner.metrics.lock().unwrap();
        RunReport {
            spans,
            counters: metrics.counters.clone(),
            gauges: metrics.gauges.clone(),
            histograms: metrics
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
            events: metrics.events.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One completed (or still-open) span in the trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Dotted stage name, e.g. `"pta.solve"`.
    pub name: String,
    /// Nesting depth: 0 for top-level spans.
    pub depth: u32,
    /// Start offset from the handle's creation, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Per-span counters attached via [`Span::add`], in insertion order.
    pub counters: Vec<(String, u64)>,
}

/// RAII guard for a span opened by [`Telemetry::span`].
///
/// Dropping the guard closes the span and records its duration.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span<'t> {
    tel: &'t Telemetry,
    idx: usize,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Adds `n` to a counter attached to this span (zero increments are
    /// dropped). Counters with the same name accumulate.
    pub fn add(&mut self, name: &str, n: u64) {
        let (Some(inner), Some(_)) = (self.tel.inner.as_ref(), self.start) else {
            return;
        };
        if n == 0 {
            return;
        }
        let mut trace = inner.trace.lock().unwrap();
        let counters = &mut trace.spans[self.idx].counters;
        if let Some(slot) = counters.iter_mut().find(|(k, _)| k == name) {
            slot.1 += n;
        } else {
            counters.push((name.to_string(), n));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some(inner), Some(start)) = (self.tel.inner.as_ref(), self.start) else {
            return;
        };
        let dur_us = start.elapsed().as_micros() as u64;
        let mut trace = inner.trace.lock().unwrap();
        trace.spans[self.idx].dur_us = dur_us;
        // Close this span on the stack; tolerate out-of-order drops by
        // removing wherever it sits.
        if let Some(pos) = trace.stack.iter().rposition(|&i| i == self.idx) {
            trace.stack.remove(pos);
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Named counters, gauges, histograms and events.
///
/// [`Telemetry`] owns one behind a mutex; the registry is also usable
/// standalone (the bench harness aggregates into a private one).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    events: Vec<TelemetryEvent>,
}

impl MetricsRegistry {
    /// Adds `n` to a monotonic counter.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets a gauge (last write wins).
    pub fn gauge(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records one histogram sample.
    pub fn record(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Appends an event.
    pub fn push_event(&mut self, e: TelemetryEvent) {
        self.events.push(e);
    }

    /// Read access to a histogram, if it has samples.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

/// A structured event with ordered string fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Dotted event name, e.g. `"govern.exhausted"`.
    pub name: String,
    /// Ordered `(key, value)` pairs.
    pub fields: Vec<(String, String)>,
}

impl TelemetryEvent {
    /// Looks up a field value by key.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A histogram that keeps its raw samples.
///
/// Sample counts in this pipeline are small (one per query / bench round),
/// so exact percentiles beat bucketing. This is the single source of truth
/// for percentile math: the bench harness and the batch footer both read
/// their medians/percentiles from here.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().cloned().fold(0.0, f64::max)
    }

    /// Nearest-rank percentile: the smallest sample ≥ `p` percent of the
    /// distribution (0.0 when empty). `percentile(50.0)` is the median.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The median sample (nearest-rank).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Folds another histogram's samples into this one. Workers keep
    /// private histograms on their own hot paths; the aggregator merges
    /// them before computing quantiles, so percentile math always runs
    /// over the union of samples rather than an average of per-worker
    /// percentiles (which would be statistically meaningless).
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Snapshot summary with the percentiles reports care about.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count() as u64,
            sum: self.sum(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            max: self.max(),
        }
    }
}

/// Summary statistics of one [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Longest label a [`FlightEvent`] keeps inline. Longer labels are
/// truncated (at a UTF-8 boundary) rather than heap-allocated, so the
/// per-event cost stays bounded regardless of what callers pass in.
pub const FLIGHT_LABEL_BYTES: usize = 24;

/// What happened, for one [`FlightEvent`].
///
/// The variants mirror the daemon's decision points: admission control,
/// the degradation ladder, pool lifecycle, budget exhaustion, injected
/// faults and the slow-query log. `Copy` and field-free so recording one
/// never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlightKind {
    /// A request was admitted at full fidelity.
    RequestAdmitted,
    /// A request was degraded (e.g. context-sensitive → insensitive).
    RequestDegraded,
    /// A request was shed (truncated or rejected) under load.
    RequestShed,
    /// A session finished building in the pool.
    SessionBuilt,
    /// A session was evicted from the pool.
    SessionEvicted,
    /// A session was quarantined after a panic.
    SessionQuarantined,
    /// A resident session was incrementally updated to edited sources.
    SessionUpdated,
    /// A query exhausted its step budget or deadline.
    BudgetExhausted,
    /// A configured fault was injected.
    FaultInjected,
    /// A request exceeded the slow-query threshold.
    SlowQuery,
}

impl FlightKind {
    /// Stable lower-snake name used in JSON renderings of the ring.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::RequestAdmitted => "request_admitted",
            FlightKind::RequestDegraded => "request_degraded",
            FlightKind::RequestShed => "request_shed",
            FlightKind::SessionBuilt => "session_built",
            FlightKind::SessionEvicted => "session_evicted",
            FlightKind::SessionQuarantined => "session_quarantined",
            FlightKind::SessionUpdated => "session_updated",
            FlightKind::BudgetExhausted => "budget_exhausted",
            FlightKind::FaultInjected => "fault_injected",
            FlightKind::SlowQuery => "slow_query",
        }
    }
}

/// One entry in the [`FlightRecorder`] ring.
///
/// Fixed-size and `Copy`: the numeric payloads are two bare `u64`s whose
/// meaning depends on [`FlightKind`] (documented at each recording site),
/// and the label is an inline, truncated byte array — no heap allocation
/// per event, ever.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Monotonic sequence number, assigned at record time. Never reused;
    /// gaps in a snapshot mean the ring wrapped and overwrote entries.
    pub seq: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Primary numeric payload (kind-dependent, e.g. latency in µs).
    pub a: u64,
    /// Secondary numeric payload (kind-dependent, e.g. resident bytes).
    pub b: u64,
    label: [u8; FLIGHT_LABEL_BYTES],
    label_len: u8,
}

impl FlightEvent {
    const EMPTY: FlightEvent = FlightEvent {
        seq: 0,
        kind: FlightKind::RequestAdmitted,
        a: 0,
        b: 0,
        label: [0; FLIGHT_LABEL_BYTES],
        label_len: 0,
    };

    /// The (possibly truncated) label recorded with the event, typically
    /// a client name, program hash or fault site.
    pub fn label(&self) -> &str {
        // Truncation in `FlightRecorder::record` lands on a char
        // boundary, so this is always valid UTF-8.
        std::str::from_utf8(&self.label[..self.label_len as usize]).unwrap_or("")
    }
}

/// An always-on, fixed-capacity ring buffer of [`FlightEvent`]s.
///
/// The ring is allocated once at construction; recording overwrites the
/// slot at `seq % capacity` and never allocates, so the recorder can stay
/// on the daemon's hot path permanently. Sequence numbers are assigned
/// under the same lock that writes the slot, so a [`snapshot`] is always
/// a contiguous, strictly-ordered suffix of everything ever recorded —
/// the oldest `total - capacity` events are the only ones lost.
///
/// [`snapshot`]: FlightRecorder::snapshot
///
/// ```
/// use thinslice_util::telemetry::{FlightKind, FlightRecorder};
///
/// let rec = FlightRecorder::new(2);
/// rec.record(FlightKind::SessionBuilt, "abc", 1, 0);
/// rec.record(FlightKind::RequestAdmitted, "tenant-a", 2, 0);
/// rec.record(FlightKind::RequestShed, "tenant-b", 3, 0); // overwrites seq 0
/// let snap = rec.snapshot();
/// assert_eq!(snap.len(), 2);
/// assert_eq!(snap[0].seq, 1);
/// assert_eq!(snap[1].label(), "tenant-b");
/// assert_eq!(rec.recorded(), 3);
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<FlightRing>,
}

#[derive(Debug)]
struct FlightRing {
    /// Next sequence number to assign == total events ever recorded.
    next_seq: u64,
    slots: Box<[FlightEvent]>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (clamped to ≥ 1).
    /// This is the only allocation the recorder ever performs.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder {
            inner: Mutex::new(FlightRing {
                next_seq: 0,
                slots: vec![FlightEvent::EMPTY; cap].into_boxed_slice(),
            }),
        }
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().slots.len()
    }

    /// Records one event and returns its sequence number. Labels longer
    /// than [`FLIGHT_LABEL_BYTES`] are truncated at a char boundary;
    /// nothing is allocated. Safe to call from any number of threads —
    /// sequence numbers are unique and slot writes are ordered by them.
    pub fn record(&self, kind: FlightKind, label: &str, a: u64, b: u64) -> u64 {
        let mut cut = label.len().min(FLIGHT_LABEL_BYTES);
        while !label.is_char_boundary(cut) {
            cut -= 1;
        }
        let mut ring = self.inner.lock().unwrap();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let idx = (seq % ring.slots.len() as u64) as usize;
        let slot = &mut ring.slots[idx];
        slot.seq = seq;
        slot.kind = kind;
        slot.a = a;
        slot.b = b;
        slot.label[..cut].copy_from_slice(&label.as_bytes()[..cut]);
        slot.label_len = cut as u8;
        seq
    }

    /// Total events ever recorded (not just those still resident).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// All live events, oldest first, strictly ordered by `seq`.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.tail(usize::MAX)
    }

    /// The newest `n` live events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let ring = self.inner.lock().unwrap();
        let cap = ring.slots.len() as u64;
        let live = ring.next_seq.min(cap);
        let take = live.min(n as u64);
        let mut out = Vec::with_capacity(take as usize);
        for seq in (ring.next_seq - take)..ring.next_seq {
            out.push(ring.slots[(seq % cap) as usize]);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// RunReport + JSON
// ---------------------------------------------------------------------------

/// An owned snapshot of a run's telemetry, serialisable to/from JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Completed spans in open order.
    pub spans: Vec<SpanRecord>,
    /// Monotonic counters (sorted by name).
    pub counters: BTreeMap<String, u64>,
    /// Gauges (sorted by name).
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries (sorted by name).
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Structured events in record order.
    pub events: Vec<TelemetryEvent>,
}

impl RunReport {
    /// Serialises the report as deterministic JSON (map keys sorted,
    /// `f64`s printed with round-trip precision).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.key("schema");
        w.str(RUN_REPORT_SCHEMA);
        w.key("spans");
        w.arr_open();
        for s in &self.spans {
            w.obj_open();
            w.key("name");
            w.str(&s.name);
            w.key("depth");
            w.u64(u64::from(s.depth));
            w.key("start_us");
            w.u64(s.start_us);
            w.key("dur_us");
            w.u64(s.dur_us);
            w.key("counters");
            w.obj_open();
            for (k, v) in &s.counters {
                w.key(k);
                w.u64(*v);
            }
            w.obj_close();
            w.obj_close();
        }
        w.arr_close();
        w.key("counters");
        w.obj_open();
        for (k, v) in &self.counters {
            w.key(k);
            w.u64(*v);
        }
        w.obj_close();
        w.key("gauges");
        w.obj_open();
        for (k, v) in &self.gauges {
            w.key(k);
            w.u64(*v);
        }
        w.obj_close();
        w.key("histograms");
        w.obj_open();
        for (k, h) in &self.histograms {
            w.key(k);
            w.obj_open();
            w.key("count");
            w.u64(h.count);
            w.key("sum");
            w.f64(h.sum);
            w.key("p50");
            w.f64(h.p50);
            w.key("p95");
            w.f64(h.p95);
            w.key("max");
            w.f64(h.max);
            w.obj_close();
        }
        w.obj_close();
        w.key("events");
        w.arr_open();
        for e in &self.events {
            w.obj_open();
            w.key("name");
            w.str(&e.name);
            w.key("fields");
            w.obj_open();
            for (k, v) in &e.fields {
                w.key(k);
                w.str(v);
            }
            w.obj_close();
            w.obj_close();
        }
        w.arr_close();
        w.obj_close();
        w.finish()
    }

    /// Parses a report previously produced by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct, or a schema
    /// mismatch.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let value = Json::parse(text)?;
        let top = value.as_obj().ok_or("top level must be an object")?;
        let schema = get(top, "schema")?
            .as_str()
            .ok_or("\"schema\" must be a string")?;
        if schema != RUN_REPORT_SCHEMA {
            return Err(format!("unknown schema {schema:?}"));
        }
        let mut report = RunReport::default();
        for sv in get(top, "spans")?
            .as_arr()
            .ok_or("\"spans\" must be an array")?
        {
            let so = sv.as_obj().ok_or("span must be an object")?;
            report.spans.push(SpanRecord {
                name: get(so, "name")?.as_str().ok_or("span name")?.to_string(),
                depth: get(so, "depth")?.as_u64().ok_or("span depth")? as u32,
                start_us: get(so, "start_us")?.as_u64().ok_or("span start_us")?,
                dur_us: get(so, "dur_us")?.as_u64().ok_or("span dur_us")?,
                counters: get(so, "counters")?
                    .as_obj()
                    .ok_or("span counters")?
                    .iter()
                    .map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)).ok_or("span counter"))
                    .collect::<Result<_, _>>()?,
            });
        }
        for (k, v) in get(top, "counters")?.as_obj().ok_or("\"counters\"")? {
            report
                .counters
                .insert(k.clone(), v.as_u64().ok_or("counter value")?);
        }
        for (k, v) in get(top, "gauges")?.as_obj().ok_or("\"gauges\"")? {
            report
                .gauges
                .insert(k.clone(), v.as_u64().ok_or("gauge value")?);
        }
        for (k, v) in get(top, "histograms")?.as_obj().ok_or("\"histograms\"")? {
            let h = v.as_obj().ok_or("histogram must be an object")?;
            report.histograms.insert(
                k.clone(),
                HistogramSummary {
                    count: get(h, "count")?.as_u64().ok_or("histogram count")?,
                    sum: get(h, "sum")?.as_f64().ok_or("histogram sum")?,
                    p50: get(h, "p50")?.as_f64().ok_or("histogram p50")?,
                    p95: get(h, "p95")?.as_f64().ok_or("histogram p95")?,
                    max: get(h, "max")?.as_f64().ok_or("histogram max")?,
                },
            );
        }
        for ev in get(top, "events")?.as_arr().ok_or("\"events\"")? {
            let eo = ev.as_obj().ok_or("event must be an object")?;
            report.events.push(TelemetryEvent {
                name: get(eo, "name")?.as_str().ok_or("event name")?.to_string(),
                fields: get(eo, "fields")?
                    .as_obj()
                    .ok_or("event fields")?
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|s| (k.clone(), s.to_string()))
                            .ok_or("event field")
                    })
                    .collect::<Result<_, _>>()?,
            });
        }
        Ok(report)
    }

    /// Renders an indented human-readable trace + metrics listing.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("trace:\n");
            for s in &self.spans {
                let indent = "  ".repeat(s.depth as usize + 1);
                let _ = write!(
                    out,
                    "{indent}{:<28} {:>9.3} ms",
                    s.name,
                    s.dur_us as f64 / 1000.0
                );
                for (k, v) in &s.counters {
                    let _ = write!(out, "  {k}={v}");
                }
                out.push('\n');
            }
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() || !self.histograms.is_empty() {
            out.push_str("metrics:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  counter {k} = {v}");
            }
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  gauge   {k} = {v}");
            }
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  hist    {k}: n={} p50={:.1} p95={:.1} max={:.1}",
                    h.count, h.p50, h.p95, h.max
                );
            }
        }
        if !self.events.is_empty() {
            out.push_str("events:\n");
            for e in &self.events {
                let _ = write!(out, "  {}", e.name);
                for (k, v) in &e.fields {
                    let _ = write!(out, " {k}={v}");
                }
                out.push('\n');
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON writer/parser
// ---------------------------------------------------------------------------

struct JsonWriter {
    out: String,
    /// Whether the current nesting level already has an element (needs a
    /// comma before the next one), innermost last.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::new(),
            needs_comma: vec![false],
        }
    }

    fn elem(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
    }

    fn obj_open(&mut self) {
        self.elem();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    fn obj_close(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    fn arr_open(&mut self) {
        self.elem();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    fn arr_close(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    fn key(&mut self, k: &str) {
        self.elem();
        escape_into(&mut self.out, k);
        self.out.push(':');
        // The value that follows is part of this element, not a new one.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
    }

    fn str(&mut self, s: &str) {
        self.elem();
        escape_into(&mut self.out, s);
    }

    fn u64(&mut self, v: u64) {
        self.elem();
        self.out.push_str(&v.to_string());
    }

    fn f64(&mut self, v: f64) {
        self.elem();
        // `{:?}` prints the shortest representation that round-trips, and
        // always includes a decimal point or exponent.
        self.out.push_str(&format!("{v:?}"));
    }

    fn finish(self) -> String {
        self.out
    }
}

/// Appends `s` to `out` as a JSON string literal: `"` and `\` escaped,
/// newline, tab and carriage return as `\n`, `\t`, `\r`, and every other
/// control character as `\u00XX`. Bytes that need no escape are copied in
/// runs; every escaped byte is ASCII, so each run ends on a character
/// boundary.
pub fn escape_into(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            b'\r' => Some("\\r"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escaped {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so the limit bounds its stack use
/// whatever the input; the deepest documents this workspace writes nest 5
/// levels.
pub const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON value (minimal, for [`RunReport::from_json`] and tests).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, entries in textual order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (rejecting trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset description of the first syntax error, or of
    /// the first array or object nested deeper than [`MAX_JSON_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let v = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Looks up an object key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which `depth` arrays and objects enclose.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}"
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// Decodes the string literal at `pos` as RFC 8259 defines it. Each run
/// of bytes up to the next `"`, `\` or control character is copied in one
/// step: all three are ASCII, so in a `&str` every run ends on a character
/// boundary. A raw control character (below U+0020) is an error, `\u`
/// takes exactly four hex digits, and an escaped high surrogate must be
/// followed by an escaped low one, the two decoding to one scalar.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .ok_or_else(|| "unterminated string".to_string())?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => *pos += 1,
            c => {
                return Err(format!(
                    "control character {c:#04x} in string at byte {pos}"
                ))
            }
        }
        let c = match b.get(*pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let at = *pos;
                let unit = hex4(b, pos)?;
                let code = match unit {
                    0xD800..=0xDBFF if b.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..]) => {
                        *pos += 2;
                        match hex4(b, pos)? {
                            low @ 0xDC00..=0xDFFF => {
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            }
                            _ => unit,
                        }
                    }
                    _ => unit,
                };
                char::from_u32(code)
                    .ok_or_else(|| format!("unpaired surrogate \\u{unit:04x} at byte {at}"))?
            }
            _ => return Err(format!("bad escape at byte {pos}")),
        };
        out.push(c);
        *pos += 1;
    }
}

/// The four hex digits after the `u` of a `\u` escape at `pos`, which is
/// left on the last digit.
fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let digits = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
    let mut code = 0;
    for &d in digits {
        let digit = char::from(d)
            .to_digit(16)
            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
        code = code << 4 | digit;
    }
    *pos += 4;
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        {
            let mut s = tel.span("x");
            s.add("c", 1);
        }
        tel.count("c", 5);
        tel.record("h", 1.0);
        tel.event("e", &[("k", "v".to_string())]);
        assert_eq!(tel.report(), RunReport::default());
    }

    #[test]
    fn spans_nest_and_time() {
        let tel = Telemetry::enabled();
        {
            let mut outer = tel.span("outer");
            outer.add("n", 2);
            outer.add("n", 3);
            {
                let _inner = tel.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let r = tel.report();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].name, "outer");
        assert_eq!(r.spans[0].depth, 0);
        assert_eq!(r.spans[0].counters, vec![("n".to_string(), 5)]);
        assert_eq!(r.spans[1].name, "inner");
        assert_eq!(r.spans[1].depth, 1);
        assert!(r.spans[0].dur_us >= r.spans[1].dur_us);
        assert!(r.spans[1].start_us >= r.spans[0].start_us);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.median(), 3.0);
        assert_eq!(h.percentile(95.0), 5.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(Histogram::new().percentile(50.0), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let tel = Telemetry::enabled();
        {
            let mut s = tel.span("stage.one");
            s.add("items", 7);
        }
        tel.count("edges \"quoted\"\n", 3);
        tel.gauge("nodes", 10);
        tel.record("lat_us", 1.5);
        tel.record("lat_us", 2.5);
        tel.event("govern.exhausted", &[("reason", "steps".to_string())]);
        let report = tel.report();
        let json = report.to_json();
        let back = RunReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(RunReport::from_json("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn parser_rejects_nesting_past_the_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        assert!(Json::parse(&format!("{{\"a\":{}}}", nested(MAX_JSON_DEPTH - 1))).is_ok());
        let at = MAX_JSON_DEPTH;
        let want = format!("nesting deeper than {MAX_JSON_DEPTH} levels at byte {at}");
        assert_eq!(Json::parse(&nested(MAX_JSON_DEPTH + 1)), Err(want.clone()));
        assert_eq!(
            Json::parse(&format!("{{\"a\":{}}}", nested(MAX_JSON_DEPTH))),
            Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                at + 4
            ))
        );
        // Far past the limit, and unterminated: rejected at the same byte,
        // before the parser descends further.
        assert_eq!(Json::parse(&"[".repeat(10_000)), Err(want));
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty: every quantile is 0.0, summary is all-zero.
        let empty = Histogram::new();
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(empty.percentile(p), 0.0);
        }
        assert_eq!(empty.summary(), HistogramSummary::default());

        // Single sample: every quantile is that sample.
        let mut one = Histogram::new();
        one.record(7.5);
        for p in [0.0, 1.0, 50.0, 95.0, 100.0] {
            assert_eq!(one.percentile(p), 7.5);
        }
        let s = one.summary();
        assert_eq!(
            (s.count, s.sum, s.p50, s.p95, s.max),
            (1, 7.5, 7.5, 7.5, 7.5)
        );
    }

    #[test]
    fn histogram_merge_matches_union() {
        // Three "workers" record disjoint sample sets; merged quantiles
        // must equal a single histogram fed the union.
        let mut workers = vec![Histogram::new(), Histogram::new(), Histogram::new()];
        let mut union = Histogram::new();
        for (i, w) in workers.iter_mut().enumerate() {
            for j in 0..4 {
                let v = (i * 10 + j) as f64;
                w.record(v);
                union.record(v);
            }
        }
        let mut merged = Histogram::new();
        for w in &workers {
            merged.merge(w);
        }
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.sum(), union.sum());
        for p in [0.0, 25.0, 50.0, 90.0, 95.0, 100.0] {
            assert_eq!(merged.percentile(p), union.percentile(p));
        }
        // Merging an empty histogram is a no-op.
        let before = merged.summary();
        merged.merge(&Histogram::new());
        assert_eq!(merged.summary(), before);
    }

    #[test]
    fn flight_recorder_wraps_and_orders() {
        let rec = FlightRecorder::new(4);
        assert_eq!(rec.capacity(), 4);
        assert!(rec.snapshot().is_empty());
        for i in 0..10u64 {
            let seq = rec.record(FlightKind::RequestAdmitted, "c", i, 0);
            assert_eq!(seq, i);
        }
        assert_eq!(rec.recorded(), 10);
        let snap = rec.snapshot();
        // Only the newest `capacity` events survive, strictly ordered.
        assert_eq!(
            snap.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(
            snap.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        let tail = rec.tail(2);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![8, 9]);
        assert_eq!(rec.tail(0).len(), 0);
    }

    #[test]
    fn flight_recorder_truncates_labels_on_char_boundary() {
        let rec = FlightRecorder::new(2);
        let long = "x".repeat(FLIGHT_LABEL_BYTES + 10);
        rec.record(FlightKind::SessionBuilt, &long, 0, 0);
        // Multi-byte char straddling the cut is dropped whole.
        let multi = format!("{}é", "a".repeat(FLIGHT_LABEL_BYTES - 1));
        rec.record(FlightKind::SessionBuilt, &multi, 0, 0);
        let snap = rec.snapshot();
        assert_eq!(snap[0].label(), "x".repeat(FLIGHT_LABEL_BYTES));
        assert_eq!(snap[1].label(), "a".repeat(FLIGHT_LABEL_BYTES - 1));
    }

    #[test]
    fn flight_recorder_concurrent_writers_keep_order() {
        use std::sync::Arc;
        let rec = Arc::new(FlightRecorder::new(64));
        let writers = 4;
        let per_writer = 500u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..per_writer {
                        rec.record(FlightKind::RequestAdmitted, "w", w as u64, i);
                    }
                });
            }
        });
        let total = writers as u64 * per_writer;
        assert_eq!(rec.recorded(), total);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 64);
        // The snapshot is the contiguous, strictly-increasing suffix of
        // all sequence numbers — wrap-around never reorders or drops a
        // live slot, even with racing writers.
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, total - 64 + i as u64);
        }
        // Each writer's own payloads arrive in its program order.
        for w in 0..writers as u64 {
            let mine: Vec<u64> = snap.iter().filter(|e| e.a == w).map(|e| e.b).collect();
            assert!(
                mine.windows(2).all(|p| p[0] < p[1]),
                "writer {w} reordered: {mine:?}"
            );
        }
    }
}

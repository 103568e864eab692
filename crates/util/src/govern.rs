//! Resource governance: budgets, cancellation and honest partial results.
//!
//! Demand-driven analyses must stay responsive on adversarial inputs: a
//! pathological seed can otherwise spin a worklist solver for minutes. This
//! module provides the vocabulary every pipeline stage shares:
//!
//! * [`Budget`] — a declarative resource envelope (wall-clock deadline,
//!   step quota, resident-set watermark, cancellation token),
//! * [`CancelToken`] — a shareable flag for cooperative cancellation,
//! * [`Meter`] — the per-stage enforcement state, designed so the common
//!   (unlimited) case costs one predictable branch per work item,
//! * [`Completeness`] / [`Outcome`] — how a stage labels what it returns:
//!   either the full fixpoint or a truncated prefix with the reason and the
//!   size of the abandoned frontier.
//!
//! Exhaustion never aborts: a stage that runs out of budget stops pulling
//! work, reports `Truncated`, and returns whatever sound partial result its
//! monotone worklist had accumulated.
//!
//! # Examples
//!
//! ```
//! use thinslice_util::govern::{Budget, Completeness};
//!
//! let mut meter = Budget::default().with_step_limit(3).meter();
//! let mut done = 0;
//! let mut pending = vec![1, 2, 3, 4, 5];
//! while let Some(item) = pending.pop() {
//!     if !meter.tick() {
//!         pending.push(item); // the popped item is still unprocessed
//!         break;
//!     }
//!     done += 1;
//! }
//! assert_eq!(done, 3);
//! let c = meter.completeness(pending.len());
//! assert!(matches!(c, Completeness::Truncated { frontier: 2, .. }));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a stage stopped before reaching its fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The step / edge-visit quota was used up.
    StepQuota,
    /// The resident-set watermark was exceeded.
    Memory,
    /// The shared [`CancelToken`] was triggered.
    Cancelled,
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExhaustReason::Deadline => "deadline",
            ExhaustReason::StepQuota => "step quota",
            ExhaustReason::Memory => "memory watermark",
            ExhaustReason::Cancelled => "cancelled",
        })
    }
}

/// A shareable cooperative-cancellation flag.
///
/// Cloning shares the flag: cancelling any clone cancels them all. Used by
/// `--fail-fast` batches to stop sibling workers after the first hard error.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl PartialEq for CancelToken {
    /// Tokens are equal when they share the same underlying flag, i.e.
    /// cancelling one cancels the other.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A declarative resource envelope for one analysis stage or query.
///
/// The default budget is unlimited in every dimension; limits compose by
/// builder calls. A `Budget` is inert — call [`Budget::meter`] at the start
/// of a stage to arm it (the deadline is measured from that moment).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    time_limit: Option<Duration>,
    step_limit: Option<u64>,
    resident_limit: Option<usize>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// An explicitly unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limits wall-clock time, measured from [`Budget::meter`].
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Limits the number of metered work items (worklist pops, edge visits).
    pub fn with_step_limit(mut self, steps: u64) -> Self {
        self.step_limit = Some(steps);
        self
    }

    /// Limits the tracked resident-set size (elements, not bytes) that a
    /// stage reports via [`Meter::tick_tracked`].
    pub fn with_resident_limit(mut self, elems: usize) -> Self {
        self.resident_limit = Some(elems);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The wall-clock limit, if any.
    pub fn time_limit(&self) -> Option<Duration> {
        self.time_limit
    }

    /// Tightens the step limit to at most `steps` (keeps the smaller limit).
    pub fn cap_steps(mut self, steps: u64) -> Self {
        self.step_limit = Some(self.step_limit.map_or(steps, |s| s.min(steps)));
        self
    }

    /// Whether no dimension is limited (governance can be skipped).
    pub fn is_unlimited(&self) -> bool {
        self.time_limit.is_none()
            && self.step_limit.is_none()
            && self.resident_limit.is_none()
            && self.cancel.is_none()
    }

    /// Arms the budget for one stage: the deadline clock starts now.
    pub fn meter(&self) -> Meter {
        Meter::new(self)
    }
}

/// How often the slow checks (clock, cancellation) run, in work items.
const CHECK_INTERVAL: u64 = 1024;

/// Per-stage budget enforcement.
///
/// The hot path is [`Meter::tick`] (or [`Meter::tick_tracked`]): one
/// decrement-and-branch per work item. Every `CHECK_INTERVAL` items — or
/// exactly at the step quota, whichever is sooner — the meter consults the
/// clock, the cancellation token and the resident watermark. The stride
/// adapts to the remaining quota, so small quotas are enforced exactly.
#[derive(Debug, Clone)]
pub struct Meter {
    /// Items allowed in total (`u64::MAX` when unlimited).
    step_limit: u64,
    /// Items accounted for by completed check windows.
    steps_used: u64,
    /// Size of the current check window.
    stride: u64,
    /// Items left in the current window before the next slow check.
    until_check: u64,
    deadline: Option<Instant>,
    resident_limit: usize,
    cancel: Option<CancelToken>,
    exhausted: Option<ExhaustReason>,
    /// How many slow checks (clock/cancel/watermark consultations) ran.
    checks: u64,
}

impl Meter {
    fn new(budget: &Budget) -> Self {
        let step_limit = budget.step_limit.unwrap_or(u64::MAX);
        let stride = step_limit.min(CHECK_INTERVAL);
        let mut meter = Self {
            step_limit,
            steps_used: 0,
            stride,
            until_check: stride,
            deadline: budget.time_limit.map(|d| Instant::now() + d),
            resident_limit: budget.resident_limit.unwrap_or(usize::MAX),
            cancel: budget.cancel.clone(),
            exhausted: None,
            checks: 0,
        };
        // Arming after cancellation yields an immediately-exhausted meter,
        // so fail-fast stops even queries too small to reach a slow check.
        if meter.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            meter.exhaust(ExhaustReason::Cancelled);
        }
        meter
    }

    /// A meter that never exhausts — the zero-cost default.
    pub fn unlimited() -> Self {
        Budget::default().meter()
    }

    /// Accounts for one work item; returns `false` once the budget is
    /// exhausted. After the first `false`, every further call is `false`.
    ///
    /// The caller must NOT process the item on `false`: push it back onto
    /// the frontier so the abandoned-work count stays honest.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.tick_tracked(0)
    }

    /// Like [`Meter::tick`], also reporting the stage's current tracked
    /// resident-set size (checked against the watermark at slow checks).
    #[inline]
    pub fn tick_tracked(&mut self, resident: usize) -> bool {
        if self.until_check > 0 {
            self.until_check -= 1;
            true
        } else {
            self.slow_check(resident)
        }
    }

    #[cold]
    fn slow_check(&mut self, resident: usize) -> bool {
        self.checks += 1;
        if self.exhausted.is_some() {
            return false;
        }
        // The window that just drained is now fully used.
        self.steps_used += self.stride;
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return self.exhaust(ExhaustReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return self.exhaust(ExhaustReason::Deadline);
            }
        }
        if resident > self.resident_limit {
            return self.exhaust(ExhaustReason::Memory);
        }
        let remaining = self.step_limit - self.steps_used;
        if remaining == 0 {
            return self.exhaust(ExhaustReason::StepQuota);
        }
        // Open the next window: this call admits one item itself.
        self.stride = remaining.min(CHECK_INTERVAL);
        self.until_check = self.stride - 1;
        true
    }

    /// Runs the slow checks (cancellation, deadline, resident watermark,
    /// step quota) immediately, without waiting for the current check
    /// window to drain.
    ///
    /// [`Meter::tick_tracked`] polices the watermark at `CHECK_INTERVAL`
    /// granularity, which is right for per-item worklists but useless for
    /// callers that make a handful of coarse decisions — a session pool
    /// deciding whether the fleet's resident total still fits is the
    /// motivating case. Step accounting stays exact: the consumed portion
    /// of the current window is folded into the total and a fresh window
    /// is opened, so interleaving `check_now` with `tick` never over- or
    /// under-counts.
    pub fn check_now(&mut self, resident: usize) -> bool {
        self.checks += 1;
        if self.exhausted.is_some() {
            return false;
        }
        self.steps_used += self.stride - self.until_check;
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return self.exhaust(ExhaustReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return self.exhaust(ExhaustReason::Deadline);
            }
        }
        if resident > self.resident_limit {
            return self.exhaust(ExhaustReason::Memory);
        }
        let remaining = self.step_limit - self.steps_used;
        if remaining == 0 {
            return self.exhaust(ExhaustReason::StepQuota);
        }
        // Unlike `slow_check`, this call is not tied to a work item, so the
        // fresh window starts full.
        self.stride = remaining.min(CHECK_INTERVAL);
        self.until_check = self.stride;
        true
    }

    fn exhaust(&mut self, reason: ExhaustReason) -> bool {
        self.exhausted = Some(reason);
        // Zero the window so `steps_used()` stops at the accounted total.
        self.stride = 0;
        self.until_check = 0;
        false
    }

    /// Whether the meter can never run out: no step quota, deadline,
    /// resident watermark or cancel token. Ticking it only counts, so a
    /// walk may skip its ticks without changing where it stops.
    pub fn is_unlimited(&self) -> bool {
        self.step_limit == u64::MAX
            && self.deadline.is_none()
            && self.resident_limit == usize::MAX
            && self.cancel.is_none()
    }

    /// Whether the budget has been exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted.is_some()
    }

    /// Why the budget was exhausted, if it was.
    pub fn reason(&self) -> Option<ExhaustReason> {
        self.exhausted
    }

    /// Items admitted so far (counts whole windows plus the current one's
    /// consumed portion).
    pub fn steps_used(&self) -> u64 {
        self.steps_used + (self.stride - self.until_check)
    }

    /// How many slow checks (clock, cancellation, watermark) have run —
    /// the governance-overhead figure telemetry reports.
    pub fn slow_checks(&self) -> u64 {
        self.checks
    }

    /// Labels a finished stage: [`Completeness::Complete`] if the meter
    /// never ran out, otherwise [`Completeness::Truncated`] carrying the
    /// reason and the caller-reported abandoned-frontier size.
    pub fn completeness(&self, frontier: usize) -> Completeness {
        match self.exhausted {
            None => Completeness::Complete,
            Some(reason) => Completeness::Truncated { reason, frontier },
        }
    }
}

/// Whether a stage reached its fixpoint or stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// The stage ran to its natural fixpoint; the result is exact.
    Complete,
    /// The stage stopped early; the result is a sound under-approximation.
    Truncated {
        /// What resource ran out.
        reason: ExhaustReason,
        /// Lower bound on the abandoned pending work items.
        frontier: usize,
    },
}

impl Completeness {
    /// Whether the stage ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// Combines two stage labels: complete only if both are.
    pub fn and(self, other: Completeness) -> Completeness {
        match (self, other) {
            (Completeness::Complete, c) => c,
            (c, _) => c,
        }
    }
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completeness::Complete => f.write_str("complete"),
            Completeness::Truncated { reason, frontier } => {
                write!(f, "truncated ({reason}; ~{frontier} pending)")
            }
        }
    }
}

/// A stage result labelled with its [`Completeness`].
#[derive(Debug, Clone)]
pub struct Outcome<T> {
    /// The (possibly partial) result.
    pub result: T,
    /// Whether `result` is exact or a truncated prefix.
    pub completeness: Completeness,
}

impl<T> Outcome<T> {
    /// Labels `result` as exact.
    pub fn complete(result: T) -> Self {
        Self {
            result,
            completeness: Completeness::Complete,
        }
    }

    /// Pairs `result` with an explicit label.
    pub fn new(result: T, completeness: Completeness) -> Self {
        Self {
            result,
            completeness,
        }
    }

    /// Whether the result is exact.
    pub fn is_complete(&self) -> bool {
        self.completeness.is_complete()
    }

    /// Maps the result, keeping the label.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        Outcome {
            result: f(self.result),
            completeness: self.completeness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_exhausts() {
        let mut m = Meter::unlimited();
        for _ in 0..100_000 {
            assert!(m.tick());
        }
        assert!(!m.is_exhausted());
        assert_eq!(m.completeness(0), Completeness::Complete);
    }

    #[test]
    fn step_quota_is_exact() {
        for quota in [1u64, 2, 3, 5, 1023, 1024, 1025, 4096] {
            let mut m = Budget::default().with_step_limit(quota).meter();
            let mut admitted = 0u64;
            while m.tick() {
                admitted += 1;
                assert!(admitted <= quota, "quota {quota} overrun");
            }
            assert_eq!(admitted, quota, "quota {quota}");
            assert_eq!(m.reason(), Some(ExhaustReason::StepQuota));
            // Exhaustion is sticky.
            assert!(!m.tick());
            assert_eq!(m.steps_used(), quota);
        }
    }

    #[test]
    fn zero_step_quota_admits_nothing() {
        let mut m = Budget::default().with_step_limit(0).meter();
        assert!(!m.tick());
        assert_eq!(m.reason(), Some(ExhaustReason::StepQuota));
    }

    #[test]
    fn deadline_in_the_past_exhausts() {
        let mut m = Budget::default().with_deadline(Duration::ZERO).meter();
        let mut admitted = 0u64;
        while m.tick() {
            admitted += 1;
            assert!(admitted <= 2 * CHECK_INTERVAL, "deadline never checked");
        }
        assert_eq!(m.reason(), Some(ExhaustReason::Deadline));
    }

    #[test]
    fn cancellation_is_observed() {
        let token = CancelToken::new();
        let mut m = Budget::default().with_cancel(token.clone()).meter();
        assert!(m.tick());
        token.cancel();
        let mut admitted = 0u64;
        while m.tick() {
            admitted += 1;
            assert!(admitted <= 2 * CHECK_INTERVAL, "cancel never checked");
        }
        assert_eq!(m.reason(), Some(ExhaustReason::Cancelled));
        assert!(token.is_cancelled());

        // A meter armed after cancellation starts exhausted.
        let mut late = Budget::default().with_cancel(token.clone()).meter();
        assert!(!late.tick());
        assert_eq!(late.reason(), Some(ExhaustReason::Cancelled));
    }

    #[test]
    fn resident_watermark_trips_at_slow_check() {
        let mut m = Budget::default()
            .with_resident_limit(10)
            .with_step_limit(2048)
            .meter();
        let mut admitted = 0u64;
        while m.tick_tracked(1000) {
            admitted += 1;
        }
        // The first slow check after the initial window sees the watermark.
        assert_eq!(m.reason(), Some(ExhaustReason::Memory));
        assert!(admitted <= CHECK_INTERVAL);
    }

    #[test]
    fn check_now_trips_watermark_immediately() {
        // tick_tracked would admit a whole CHECK_INTERVAL window first;
        // check_now consults the watermark on the spot.
        let mut m = Budget::default().with_resident_limit(10).meter();
        assert!(m.check_now(10));
        assert!(!m.check_now(11));
        assert_eq!(m.reason(), Some(ExhaustReason::Memory));
        // Exhaustion is sticky, even back under the watermark.
        assert!(!m.check_now(0));
        assert!(!m.tick());
    }

    #[test]
    fn check_now_keeps_step_accounting_exact() {
        let mut m = Budget::default().with_step_limit(2048).meter();
        for _ in 0..5 {
            assert!(m.tick());
        }
        assert!(m.check_now(0));
        assert_eq!(m.steps_used(), 5);
        let mut admitted = 5;
        while m.tick() {
            admitted += 1;
        }
        assert_eq!(admitted, 2048, "quota stays exact across check_now");
        assert_eq!(m.reason(), Some(ExhaustReason::StepQuota));
    }

    #[test]
    fn check_now_observes_cancellation_and_unlimited_budgets() {
        let mut m = Meter::unlimited();
        assert!(m.check_now(usize::MAX - 1));

        let token = CancelToken::new();
        let mut m = Budget::default().with_cancel(token.clone()).meter();
        assert!(m.check_now(0));
        token.cancel();
        assert!(!m.check_now(0));
        assert_eq!(m.reason(), Some(ExhaustReason::Cancelled));
    }

    #[test]
    fn cap_steps_keeps_the_smaller_limit() {
        let b = Budget::default().with_step_limit(100).cap_steps(7);
        let mut m = b.meter();
        let mut admitted = 0;
        while m.tick() {
            admitted += 1;
        }
        assert_eq!(admitted, 7);

        let b = Budget::default().with_step_limit(3).cap_steps(100);
        let mut m = b.meter();
        let mut admitted = 0;
        while m.tick() {
            admitted += 1;
        }
        assert_eq!(admitted, 3);

        assert!(!Budget::default().cap_steps(5).is_unlimited());
    }

    #[test]
    fn completeness_combinators() {
        let t = Completeness::Truncated {
            reason: ExhaustReason::StepQuota,
            frontier: 4,
        };
        assert!(Completeness::Complete.is_complete());
        assert!(!t.is_complete());
        assert_eq!(Completeness::Complete.and(t), t);
        assert_eq!(t.and(Completeness::Complete), t);
        assert_eq!(
            Completeness::Complete.and(Completeness::Complete),
            Completeness::Complete
        );
        assert_eq!(t.to_string(), "truncated (step quota; ~4 pending)");
    }

    #[test]
    fn outcome_map_keeps_label() {
        let o = Outcome::new(
            3usize,
            Completeness::Truncated {
                reason: ExhaustReason::Deadline,
                frontier: 1,
            },
        )
        .map(|n| n * 2);
        assert_eq!(o.result, 6);
        assert!(!o.is_complete());
        assert!(Outcome::complete(1).is_complete());
    }

    #[test]
    fn budget_unlimited_flag() {
        assert!(Budget::default().is_unlimited());
        assert!(!Budget::default().with_step_limit(1).is_unlimited());
        assert!(!Budget::default()
            .with_deadline(Duration::from_secs(1))
            .is_unlimited());
        assert!(!Budget::default()
            .with_cancel(CancelToken::new())
            .is_unlimited());
    }
}

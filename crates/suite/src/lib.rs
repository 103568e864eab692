#![warn(missing_docs)]

//! # thinslice-suite — the evaluation benchmarks
//!
//! MJ re-creations of the paper's benchmark suite, shaped to reproduce
//! each subject's *dependence structure* (see DESIGN.md for the
//! substitution argument):
//!
//! * Table 2 (debugging): [`programs::nanoxml`], [`programs::jtopas`],
//!   [`programs::ant`], [`programs::xmlsec`] with SIR-style injected-bug
//!   tasks;
//! * Table 3 (tough casts): [`programs::mtrt`], [`programs::jess`],
//!   [`programs::javac`], [`programs::jack`];
//! * [`generator`] — parametric programs for the scalability experiments;
//! * [`edits`] — seeded compile-safe edit scripts for the incremental
//!   re-analysis equivalence suite.
//!
//! [`runner`] executes a task with the paper's methodology and produces
//! table rows.

pub mod edits;
pub mod generator;
pub mod programs;
pub mod runner;
pub mod spec;

pub use generator::{generate, GeneratorConfig};
pub use runner::{measure, run_task, Measurement, TaskResult};
pub use spec::{line_with, Benchmark, Marker, Task, TaskKind};

/// All benchmarks, in the paper's order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        programs::nanoxml::benchmark(),
        programs::jtopas::benchmark(),
        programs::ant::benchmark(),
        programs::xmlsec::benchmark(),
        programs::mtrt::benchmark(),
        programs::jess::benchmark(),
        programs::javac::benchmark(),
        programs::jack::benchmark(),
    ]
}

/// All Table 2 (debugging) tasks.
pub fn all_bug_tasks() -> Vec<Task> {
    let mut out = programs::nanoxml::bugs();
    out.extend(programs::jtopas::bugs());
    out.extend(programs::ant::bugs());
    out.extend(programs::xmlsec::bugs());
    out
}

/// All Table 3 (tough cast) tasks.
pub fn all_cast_tasks() -> Vec<Task> {
    let mut out = programs::mtrt::casts();
    out.extend(programs::jess::casts());
    out.extend(programs::javac::casts());
    out.extend(programs::jack::casts());
    out
}

/// Looks up a benchmark by name.
pub fn benchmark_named(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_compile() {
        for b in all_benchmarks() {
            let mut s = b.session(
                thinslice_pta::PtaConfig::default(),
                thinslice::RunCtx::disabled(),
            );
            assert!(
                s.pta().callgraph.node_count() > 0,
                "{} has no reachable code",
                b.name
            );
        }
    }

    #[test]
    fn task_counts_match_the_paper() {
        // 13 sliceable bugs in Table 2 and 22 casts in Table 3.
        assert_eq!(all_bug_tasks().len(), 13);
        assert_eq!(all_cast_tasks().len(), 22);
    }

    #[test]
    fn every_task_names_a_known_benchmark() {
        for t in all_bug_tasks().iter().chain(all_cast_tasks().iter()) {
            assert!(
                benchmark_named(t.benchmark).is_some(),
                "{} references unknown benchmark {}",
                t.id,
                t.benchmark
            );
        }
    }
}

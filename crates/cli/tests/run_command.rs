//! `thinslice run` interprets the program and builds no analysis stage:
//! its run report holds no points-to or dependence-graph span, and
//! asking for the report leaves stdout as it was.

use std::path::Path;
use std::process::{Command, Output};
use thinslice_util::RunReport;

const PROGRAM: &str =
    "class Main { static void main() {\nint x = 3;\nint y = x + 4;\nprint(y);\n} }";

fn thinslice_run(src: &Path, extra: &[&Path]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_thinslice"))
        .arg("run")
        .arg(src)
        .args(extra)
        .output()
        .expect("the CLI starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn run_reports_no_analysis_stage_and_prints_what_it_printed() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_command");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("demo.mj");
    std::fs::write(&src, PROGRAM).unwrap();
    let metrics = dir.join("run.json");

    let plain = thinslice_run(&src, &[]);
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        "7\n-- outcome: Finished after 5 steps\n"
    );
    let traced = thinslice_run(&src, &[Path::new("--metrics-out"), &metrics]);
    assert_eq!(traced.stdout, plain.stdout);

    let report = RunReport::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"interp.run"), "{names:?}");
    assert!(
        !names
            .iter()
            .any(|n| n.starts_with("pta.") || n.starts_with("sdg.")),
        "run built an analysis stage: {names:?}"
    );
}

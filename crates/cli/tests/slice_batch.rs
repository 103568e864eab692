//! `thinslice slice --all-seeds` ends with a footer that names the workers
//! the batch engine ran, which can be fewer than `--threads` asks for: a
//! lane-walked batch gets one worker per group of 64 queries. A reader
//! that closes the output or the trace early ends it without an error.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The CI smoke program: 26 seed lines, one lane group.
const SMOKE: &str = "class Main {
  static void main() {
    Vector names = new Vector();
    String first = \"John\";
    names.add(first);
    String got = (String) names.get(0);
    print(got);
    int x = 3;
    int y = x + 4;
    print(y);
  }
}
";

/// A program of 245 seed lines, four lane groups.
fn wide() -> String {
    let mut text = String::from(
        "class Box { int v; Box next; }\nclass Main {\n  static void main() {\n    \
         Box b0 = new Box();\n    b0.v = 0;\n",
    );
    for i in 1..=60 {
        text += &format!(
            "    Box b{i} = new Box();\n    b{i}.next = b{p};\n    b{i}.v = b{p}.v + {i};\n    \
             if (b{i}.v > {i}) {{ print(b{i}.next.v); }}\n",
            p = i - 1
        );
    }
    text + "  }\n}\n"
}

fn write(name: &str, text: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("slice_batch");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// The batch footer of `thinslice slice <src> --all-seeds <extra>`.
fn footer(src: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_thinslice"))
        .arg("slice")
        .arg(src)
        .arg("--all-seeds")
        .args(extra)
        .output()
        .expect("the CLI starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout
        .lines()
        .find(|l| l.starts_with("-- ") && l.contains("slices in"))
        .unwrap_or_else(|| panic!("no batch footer in {stdout}"))
        .to_string()
}

#[test]
fn the_batch_footer_names_the_workers_the_engine_ran() {
    let smoke = write("smoke.mj", SMOKE);
    let wide = write("wide.mj", &wide());
    for (src, seeds, threads, cs, workers) in [
        (&smoke, 26, "8", false, 1),
        (&smoke, 26, "8", true, 1),
        (&wide, 245, "1", false, 1),
        (&wide, 245, "2", false, 2),
        (&wide, 245, "8", false, 4),
        (&wide, 245, "8", true, 4),
    ] {
        let mut extra = vec!["--threads", threads];
        if cs {
            extra.push("--cs");
        }
        let line = footer(src, &extra);
        assert!(
            line.starts_with(&format!("-- {seeds} slices in ")),
            "{extra:?}: {line}"
        );
        assert!(
            line.contains(&format!(" on {workers} thread(s) ")),
            "{extra:?}: {line}"
        );
    }
}

#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    // `thinslice slice wide.mj --all-seeds | head -1`, with a reader that
    // has gone before the first line is written.
    let wide = write("closed.mj", &wide());
    let mut child = Command::new(env!("CARGO_BIN_EXE_thinslice"))
        .arg("slice")
        .arg(&wide)
        .arg("--all-seeds")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the CLI starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the CLI exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_closed_stderr_ends_the_trace_without_a_panic() {
    // `thinslice slice wide.mj --all-seeds --trace 2>&1 | head -1` closes
    // the stream the run report goes to, here before the run starts.
    let wide = write("closed_trace.mj", &wide());
    let mut child = Command::new(env!("CARGO_BIN_EXE_thinslice"))
        .arg("slice")
        .arg(&wide)
        .arg("--all-seeds")
        .arg("--trace")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the CLI starts");
    drop(child.stderr.take());
    let out = child.wait_with_output().expect("the CLI exits");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{:?}: {stdout}", out.status);
    assert_eq!(stdout.matches(" slice: ").count(), 245, "{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("-- per-query latency: "), "{stdout}");
}

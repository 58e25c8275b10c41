//! End-to-end tests of the `nmcache` binary (spawned as a subprocess).

use std::process::Command;

fn nmcache() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nmcache"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = nmcache().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("fig1"));
    assert!(text.contains("trace-sim"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = nmcache().arg("frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn zero_steps_is_a_usage_error() {
    let out = nmcache()
        .args(["schemes", "--steps", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--steps must be positive"), "{err}");
    assert!(err.contains("USAGE"), "usage hint expected: {err}");
}

#[test]
fn missing_trace_file_is_an_io_error() {
    let out = nmcache()
        .args(["trace-sim", "--trace", "/nonexistent/never.trace"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(5), "I/O errors exit with 5");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/never.trace"), "{err}");
    assert!(err.contains("hint:"), "usage hint expected: {err}");
}

#[test]
fn unknown_suite_is_a_usage_error_code() {
    let out = nmcache()
        .args(["decay", "--suite", "bogus"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
}

#[test]
fn impossible_geometry_is_a_study_error_code() {
    // 3 KB is not a power of two; the model layer rejects it, whether it
    // reaches a circuit model or the miss-rate table.
    let campaign_out = std::env::temp_dir().join("nmcache-cli-illegal-campaign");
    let _ = std::fs::remove_dir_all(&campaign_out);
    for args in [
        "fit --l1 3",
        "fig2 --quick --l1 3000 --steps 2",
        "campaign --quick --l1-sizes 3 --l2-sizes 256 --out",
    ] {
        let mut cmd = nmcache();
        cmd.args(args.split_whitespace());
        if args.ends_with("--out") {
            cmd.arg(&campaign_out);
        }
        let out = cmd.output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args}: {err}");
        assert!(err.contains("error:"), "{args}: {err}");
        assert!(!err.contains("panicked"), "{args}: {err}");
    }
    // The illegal size is reported before the checkpoint is written.
    assert!(!campaign_out.join("checkpoint.nmck").exists());
}

#[test]
fn corrupt_binary_trace_is_a_trace_error_code() {
    let dir = std::env::temp_dir().join("nmcache-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("corrupt.bin");
    // Valid magic + version, then a truncated record.
    let mut bytes = b"NMTR".to_vec();
    bytes.push(1); // version
    bytes.extend_from_slice(&[0u8; 4]); // half a 9-byte record
    std::fs::write(&trace, &bytes).expect("trace written");
    let out = nmcache()
        .args(["trace-sim", "--trace"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4), "trace errors exit with 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace:"), "{err}");
    assert!(err.contains("offset"), "byte offset expected: {err}");
}

#[test]
fn fig1_writes_csv() {
    let dir = std::env::temp_dir().join("nmcache-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("fig1.csv");
    let out = nmcache()
        .args(["fig1", "--csv"])
        .arg(&csv)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Tox=10A"));
    assert!(text.contains("Vth=400mV"));
    let written = std::fs::read_to_string(&csv).expect("csv written");
    assert!(written.starts_with("series,"));
    assert!(written.lines().count() > 40);
}

#[test]
fn fit_reports_high_r_squared() {
    let out = nmcache().arg("fit").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("memory-array"));
    // Every R² cell should be ≥ 0.9x.
    assert!(text.contains("0.9"), "{text}");
}

#[test]
fn trace_sim_replays_a_file() {
    let dir = std::env::temp_dir().join("nmcache-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.trace");
    std::fs::write(&trace, "# demo\nR 0x40\nW 0x80\nR 0x40\n").expect("trace written");
    let out = nmcache()
        .args(["trace-sim", "--l1", "8", "--l2", "256", "--trace"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 references"));
    assert!(text.contains("Trace replay"));
}

#[test]
fn trace_sim_reports_malformed_traces() {
    let dir = std::env::temp_dir().join("nmcache-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("bad.trace");
    std::fs::write(&trace, "R 0x40\nBOGUS LINE\n").expect("trace written");
    let out = nmcache()
        .args(["trace-sim", "--trace"])
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn explore_ranks_foldings() {
    let out = nmcache()
        .args(["explore", "--l1", "32", "--steps", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Subarray foldings"));
    assert!(text.contains("mats"));
    // At least the three requested rows of numbers.
    assert!(text.lines().filter(|l| l.contains('.')).count() >= 3);
}

#[test]
fn suite_is_a_usage_error_where_no_study_reads_it() {
    let out = nmcache()
        .args(["l2-sweep", "--suite", "tpcc"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--suite applies only"), "{err}");

    let out = nmcache()
        .args(["decay", "--quick", "--suite", "tpcc"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_suite_is_rejected() {
    let out = nmcache()
        .args(["decay", "--suite", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown suite"));
}

#[test]
fn missrates_honours_suite() {
    let run = |args: &[&str]| {
        let out = nmcache().args(args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let averaged = run(&["missrates", "--quick"]);
    let tpcc = run(&["missrates", "--quick", "--suite", "tpcc"]);
    assert!(
        tpcc.contains(r#"Miss rates averaged over ["tpcc-like"]"#),
        "{tpcc}"
    );
    // Same header and sizes below the title, other rates.
    let rows = |text: &str| text.lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_ne!(rows(&averaged), rows(&tpcc));

    let out = nmcache()
        .args(["missrates", "--quick", "--suite", "nope"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
}

#[test]
fn stats_prints_one_row_per_sweep() {
    let out = nmcache()
        .args(["missrates", "--quick", "--stats"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Parallel sweeps"), "{text}");
    let row: Vec<&str> = text
        .lines()
        .find(|l| l.trim_start().starts_with("missrate-table"))
        .unwrap_or_else(|| panic!("no missrate-table row: {text}"))
        .split_whitespace()
        .collect();
    // sweep, items, workers, wall (ms), items/s, faults, retries, dead
    assert_eq!(row.len(), 8, "{row:?}");
    assert_eq!(row[1], "15", "{row:?}");
    assert_eq!(row[5..], ["0", "0", "0"], "{row:?}");
}

/// A tiny two-cell campaign invocation rooted at `dir`.
fn campaign_cmd(dir: &std::path::Path) -> Command {
    let mut cmd = nmcache();
    cmd.args([
        "campaign",
        "--l1-sizes",
        "16",
        "--l2-sizes",
        "64",
        "--schemes",
        "uniform",
        "--temps",
        "40,80",
        "--quick",
        "--checkpoint-every",
        "1",
        "--out",
    ])
    .arg(dir);
    cmd
}

fn campaign_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nmcache-cli-campaign-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn campaign_without_out_is_a_usage_error() {
    let out = nmcache()
        .args(["campaign", "--quick"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--out"), "{err}");
}

#[test]
fn campaign_interrupted_and_resumed_matches_uninterrupted() {
    // Golden: one uninterrupted run writing a CSV.
    let golden_dir = campaign_dir("golden");
    let golden_csv = golden_dir.join("table.csv");
    let out = campaign_cmd(&golden_dir)
        .arg("--csv")
        .arg(&golden_csv)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read_to_string(&golden_csv).expect("golden csv");

    // Interrupted: one cell per process, resuming from the checkpoint.
    let dir = campaign_dir("resume");
    let out = campaign_cmd(&dir)
        .args(["--max-cells", "1"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 of 2 cells done"), "{text}");
    assert!(text.contains("rerun the same command"), "{text}");

    let csv = dir.join("table.csv");
    let out = campaign_cmd(&dir)
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 computed, 1 resumed"), "{text}");
    let resumed = std::fs::read_to_string(&csv).expect("resumed csv");
    assert_eq!(resumed, golden, "resumed table must match uninterrupted");

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_corrupt_checkpoint_is_a_persistence_error_and_fresh_recovers() {
    let dir = campaign_dir("corrupt");
    let out = campaign_cmd(&dir)
        .args(["--max-cells", "1"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Flip one byte in the middle of the checkpoint.
    let ckpt = dir.join("checkpoint.nmck");
    let mut bytes = std::fs::read(&ckpt).expect("checkpoint exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&ckpt, &bytes).expect("checkpoint rewritten");

    let out = campaign_cmd(&dir).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(6), "persistence errors exit with 6");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--fresh"), "recovery hint expected: {err}");

    let out = campaign_cmd(&dir)
        .arg("--fresh")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 of 2 cells done"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thermal_runs_quickly_end_to_end() {
    let out = nmcache().arg("thermal").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Temperature sensitivity"));
    assert!(text.contains("gate fraction"));
}

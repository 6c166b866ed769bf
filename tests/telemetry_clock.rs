//! The `campaign` binary keeps one campaign clock: the telemetry sidecar's
//! `elapsed_seconds` covers the golden run and planning as well as the
//! experiments, so it accounts for most of the process wall clock even
//! when the experiments themselves take almost no time.

use bera::goofi::observer::TelemetrySnapshot;
use bera::goofi::store::telemetry_sidecar_path;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

#[test]
fn sidecar_elapsed_covers_golden_run_and_planning() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry-clock");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let store = dir.join(format!("{}-one-fault.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store);

    // One fault: the golden run and planning are nearly the whole run.
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--faults", "1", "--seed", "5", "--threads", "1"])
        .args(["--out", store.to_str().expect("utf-8 scratch path")])
        .output()
        .expect("spawn campaign binary");
    let wall = started.elapsed().as_secs_f64();
    assert!(
        out.status.success(),
        "campaign failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(telemetry_sidecar_path(&store)).expect("read sidecar");
    let snap: TelemetrySnapshot = serde_json::from_str(&json).expect("parse sidecar");
    assert_eq!(snap.completed, 1);
    assert!(
        snap.elapsed_seconds >= 0.5 * wall,
        "sidecar elapsed {:.4} s is under half the process wall clock {wall:.4} s: \
         the telemetry clock misses the golden run or planning",
        snap.elapsed_seconds
    );
}

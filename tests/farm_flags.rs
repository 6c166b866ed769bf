//! The farm manifest carries neither `--paranoid` nor `--deadline`, so a
//! farm worker could never honour them. The `campaign` binary must refuse
//! either flag in every farm mode, naming it, instead of running the farm
//! without it.

use std::path::Path;
use std::process::Command;

#[test]
fn farm_modes_refuse_paranoid_and_deadline() {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("farm-flags-{}", std::process::id()));
    let farm = dir.to_str().expect("utf-8 scratch path");
    for mode in ["--farm-init", "--worker", "--farm-merge", "--farm-tend"] {
        for (flag, value) in [("--paranoid", "25"), ("--deadline", "0.000001")] {
            let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
                .args([mode, farm, "--faults", "40", "--iterations", "60"])
                .args([flag, value])
                .output()
                .expect("spawn campaign binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !out.status.success(),
                "`{mode} {flag}` must be refused, but the run succeeded:\n{stderr}"
            );
            let error = stderr.lines().next().unwrap_or_default();
            assert!(
                error.starts_with("error:") && error.contains(flag),
                "`{mode} {flag}` must fail with an error naming {flag}, got:\n{stderr}"
            );
        }
    }
    assert!(
        !dir.exists(),
        "a refused --farm-init must not create the farm"
    );
}

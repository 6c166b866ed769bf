//! Campaign benchmark of record.
//!
//! Runs one workload — a closed batch of the paper's 9290-fault Algorithm I
//! campaign at 650 iterations — repeatedly for `--seconds`, gates every
//! repetition's durable records, and prints the end-to-end metrics (or,
//! with `--trace 1`, the per-layer metrics) with their units. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload alg1-single [--seed 20010701] [--seconds 35] [--trace 0|1]
//! ```
//!
//! See `campaign_bench/README.md` for the metrics, the workloads and the
//! layer map.

mod gate;
mod runs;
mod tracer;

use bera::tcpu::Fnv64;
use runs::{Kind, Rep};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The paper's campaign seed (DSN 2001, July 2001).
const DEFAULT_SEED: u64 = 20010701;
/// How long repetitions keep starting, by default: the length of the
/// runs the bounds in `BENCHMARK.json` were set from.
const DEFAULT_SECONDS: f64 = 35.0;
/// Faults per campaign: the paper's Algorithm I campaign.
const FAULTS: usize = bera::repro::ALG1_FAULTS;
/// Repetitions measured at the least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Faults re-run through the reference path per run.
const REFERENCE_SAMPLE: usize = 48;
/// Set-ups timed alone after each untraced repetition, besides the
/// repetition's own, so `setup_s` is a median over many samples spread
/// across the run.
const EXTRA_SETUPS: usize = 4;
/// The most of a traced wall the spans may leave unexplained.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.03;

/// `(name, unit)` of the end-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [
    ("faults_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit, better)` of the per-layer metrics, printed with
/// `--trace 1`. A metric a workload cannot observe reads 0.
const PER_LAYER: [(&str, &str, &str); 36] = [
    ("experiment.golden_ms", "ms", "lower"),
    ("experiment.simulated", "count", "lower"),
    ("experiment.restore_ms", "ms", "lower"),
    ("experiment.dirty_words_mean", "words", "lower"),
    ("experiment.drive_ms", "ms", "lower"),
    ("experiment.converged_ratio", "ratio", "higher"),
    ("experiment.classify_ms", "ms", "lower"),
    ("machine.instructions", "count", "lower"),
    ("machine.block_ratio", "ratio", "higher"),
    ("machine.minstr_per_drive_s", "Minstr/s", "higher"),
    ("planner.plan_ms", "ms", "lower"),
    ("planner.analytic_ratio", "ratio", "higher"),
    ("batch.walk_ms", "ms", "lower"),
    ("batch.members", "count", "lower"),
    ("batch.resolved_ratio", "ratio", "higher"),
    ("campaign.setup_ms", "ms", "lower"),
    ("campaign.emit_ms", "ms", "lower"),
    ("campaign.replicate_ms", "ms", "lower"),
    ("campaign.unattributed_ms", "ms", "lower"),
    ("store.append_ms", "ms", "lower"),
    ("store.finish_ms", "ms", "lower"),
    ("store.bytes", "B", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("supervisor.retried", "count", "lower"),
    ("supervisor.quarantined", "count", "lower"),
    ("farm.init_ms", "ms", "lower"),
    ("farm.startup_ms", "ms", "lower"),
    ("farm.shard_ms", "ms", "lower"),
    ("farm.critical_shards_ms", "ms", "lower"),
    ("farm.tail_ms", "ms", "lower"),
    ("farm.merge_ms", "ms", "lower"),
    ("farm.exit_lag_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("trace.reps", "count", "higher"),
];

/// Expected record digests: `workload seed digest` per line.
const EXPECTED: &str = include_str!("../expected_digests.txt");

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: campaign-bench --workload <alg1-single|alg1-double|alg1-farm> \
[--seed N (default 20010701)] [--seconds S (default 35)] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::Single,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.kind = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The median, as Python's `statistics.median` takes it.
fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so that the next [`peak_rss_mb`] covers only what ran
/// since. Linux's `clear_refs` value 5 does this.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: /proc/self/clear_refs: {e}"))
}

/// Peak resident set (`VmHWM`) of this process since the last
/// [`reset_peak_rss`], in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The expected digest of `workload`'s records at `seed`, if one is
/// stored. The farm's merged store must equal the single-process
/// campaign's bytes, so it shares `alg1-single`'s digest.
fn expected_digest(kind: Kind, seed: u64) -> Option<&'static str> {
    let name = match kind {
        Kind::Farm => Kind::Single.name(),
        k => k.name(),
    };
    EXPECTED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 3 && f[0] == name && f[1] == seed.to_string()).then_some(f[2])
    })
}

/// The checkout's root: the directory above this package.
fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The commit the checkout was made from, read from `.git` when the
/// checkout is a git work tree.
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// A digest of the program's sources (manifests, lock file, `src/`,
/// `crates/`), which identifies the code measured even where the checkout
/// carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files: Vec<PathBuf> = ["Cargo.toml", "Cargo.lock", ".cargo/config.toml"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv64::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write_bytes(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write_bytes(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

/// Formats `value` as JSON (non-finite values, which no metric should
/// produce, become 0).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn opt_num(value: Option<f64>) -> String {
    value.map_or("null".to_string(), num)
}

/// Everything a run learned, gathered for the gate and the report.
struct Run {
    reps: Vec<Rep>,
    /// Untraced repetitions' walls (the `--trace 1` baseline).
    untraced_walls: Vec<f64>,
    /// Every set-up timed: each repetition's own and the extra ones.
    setups: Vec<f64>,
    /// Each untraced repetition's peak resident set, MB.
    peak_rss: Vec<f64>,
    problems: Vec<String>,
    failed: usize,
    digest: Option<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when the correctness gate failed.
fn bench(args: &Args) -> Result<bool, String> {
    let root = checkout_root();
    let out = root.join("campaign_bench").join("out");
    let work = out.join(format!("work-{}", std::process::id()));
    let cfg = args.kind.config(args.seed);
    let workload = bera::goofi::Workload::algorithm_one();

    // The reference golden run fixes the fault list the seed samples.
    let reference = gate::reference_golden(&workload, &cfg.loop_cfg);
    let faults =
        bera::goofi::campaign::FaultList::sample(FAULTS, args.seed, reference.total_instructions);

    let mut run = Run {
        reps: Vec::new(),
        untraced_walls: Vec::new(),
        setups: Vec::new(),
        peak_rss: Vec::new(),
        problems: Vec::new(),
        failed: 0,
        digest: None,
    };
    let started = Instant::now();
    let mut rep_no = 0usize;
    let mut last_records = Vec::new();
    while run.reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        // With tracing, untraced and traced repetitions alternate, so the
        // overhead ratio compares like with like.
        let traced = args.trace && rep_no % 2 == 1;
        let dir = work.join(format!("rep-{rep_no}"));
        rep_no += 1;
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        reset_peak_rss()?;
        let rep = runs::run(args.kind, &cfg, &dir, traced)?;
        let rss = peak_rss_mb()?;

        let check = gate::check_store(&rep.store, &faults);
        run.failed = run.failed.max(check.failed());
        run.problems.extend(check.problems.iter().cloned());
        match &run.digest {
            None => run.digest = Some(check.digest.clone()),
            Some(d) if *d != check.digest => run.problems.push(format!(
                "repetition {rep_no} digest {} differs from the first repetition's {d}",
                check.digest
            )),
            Some(_) => {}
        }
        last_records = check.records;
        if let Some(layers) = &rep.layers {
            run.problems.extend(layers.problems.iter().cloned());
            run.problems.extend(unattributed_problem(layers));
        }
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
        if !args.trace {
            run.peak_rss.push(rss);
            run.setups.push(rep.setup);
            for k in 0..EXTRA_SETUPS {
                let dir = work.join(format!("setup-{rep_no}-{k}"));
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                run.setups.push(runs::setup_only(args.kind, &cfg, &dir)?);
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
            }
        }
        if args.trace && !traced {
            run.untraced_walls.push(rep.wall);
        } else {
            run.reps.push(rep);
        }
    }
    let _ = std::fs::remove_dir(&work);

    // Gate step 3: the reference path on a seeded sample.
    let sample = gate::sample_indices(FAULTS, REFERENCE_SAMPLE, args.seed);
    let mismatches = gate::reference_mismatches(
        &workload,
        &cfg.loop_cfg,
        &reference,
        args.kind.model(),
        &last_records,
        &sample,
    );
    for i in &mismatches {
        run.problems.push(format!(
            "fault {i}: record disagrees with the reference path"
        ));
    }
    run.failed += mismatches.len();
    // Gate step 2: the stored digest, when this workload and seed have one.
    let digest = run.digest.clone().unwrap_or_default();
    let expected = expected_digest(args.kind, args.seed);
    if let Some(want) = expected {
        if want != digest {
            run.problems.push(format!(
                "record digest {digest} differs from the stored {want} for {} at seed {}",
                args.kind.name(),
                args.seed
            ));
            // Which records moved is unknown; at least one did.
            run.failed = run.failed.max(1);
        }
    }

    let correct = run.failed == 0 && run.problems.is_empty();
    let metrics = if args.trace {
        per_layer_metrics(&run)
    } else {
        end_to_end_metrics(&run)
    };
    report(
        args, &run, &metrics, &digest, expected, &root, &out, correct,
    )?;
    Ok(correct)
}

/// The trace gate: spans that leave more than [`MAX_UNATTRIBUTED_SHARE`]
/// of a traced repetition's wall unexplained mean the tracer lost time.
fn unattributed_problem(layers: &runs::Layers) -> Option<String> {
    let wall = layers.get("trace.wall_ms");
    let unattributed = layers.get("campaign.unattributed_ms");
    (unattributed > MAX_UNATTRIBUTED_SHARE * wall).then(|| {
        format!(
            "trace: {unattributed:.3} ms of a {wall:.3} ms wall is in no span \
             (more than {:.0} %)",
            MAX_UNATTRIBUTED_SHARE * 100.0
        )
    })
}

fn end_to_end_metrics(run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    let per_s: Vec<f64> = run.reps.iter().map(|r| FAULTS as f64 / r.wall).collect();
    let values = [median(&per_s), median(&run.setups), median(&run.peak_rss)];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

fn per_layer_metrics(run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    let traced: Vec<&runs::Layers> = run.reps.iter().filter_map(|r| r.layers.as_ref()).collect();
    let traced_wall = median(
        &traced
            .iter()
            .map(|l| l.get("trace.wall_ms"))
            .collect::<Vec<_>>(),
    );
    let untraced_wall = median(&run.untraced_walls) * 1e3;
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let v = match name {
                "trace.overhead_ratio" => traced_wall / untraced_wall,
                "failed_ratio" => run.failed as f64 / FAULTS as f64,
                "trace.reps" => traced.len() as f64,
                _ => median(&traced.iter().map(|l| l.get(name)).collect::<Vec<_>>()),
            };
            (name, unit, v)
        })
        .collect()
}

/// Prints the metrics (the last stdout line is the result object) and
/// writes the run record — and, traced, the spans — under `out`.
#[allow(clippy::too_many_arguments)]
fn report(
    args: &Args,
    run: &Run,
    metrics: &[(&str, &str, f64)],
    digest: &str,
    expected: Option<&str>,
    root: &Path,
    out: &Path,
    correct: bool,
) -> Result<(), String> {
    let commit = commit(root).unwrap_or_else(|| "unknown".to_string());
    let source = source_digest(root);
    let name = args.kind.name();
    let mode = if args.trace { "trace" } else { "e2e" };

    let mut metrics_json = String::new();
    for (i, (metric, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            metrics_json.push_str(", ");
        }
        let _ = write!(
            metrics_json,
            "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    let mut reps_json = String::new();
    for (i, rep) in run.reps.iter().enumerate() {
        if i > 0 {
            reps_json.push_str(",\n    ");
        }
        let s = rep.sidecar.as_ref();
        let _ = write!(
            reps_json,
            "{{\"wall_s\": {}, \"setup_s\": {}, \"faults_per_s\": {}, \"peak_rss_mb\": {}, \"sidecar\": \
             {{\"elapsed_seconds\": {}, \"throughput\": {}, \"smoothed_throughput\": {}, \
             \"prune_rate\": {}}}}}",
            num(rep.wall),
            num(rep.setup),
            num(FAULTS as f64 / rep.wall),
            opt_num(run.peak_rss.get(i).copied()),
            opt_num(s.map(|s| s.elapsed_seconds)),
            opt_num(s.map(|s| s.throughput)),
            opt_num(s.and_then(|s| s.smoothed_throughput)),
            opt_num(s.map(|s| s.prune_rate())),
        );
    }
    let problems: Vec<String> = run
        .problems
        .iter()
        .map(|p| format!("\"{}\"", p.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    let record = format!(
        "{{\n  \"workload\": \"{name}\",\n  \"seed\": {},\n  \"faults\": {},\n  \
         \"commit\": \"{commit}\",\n  \"source_digest\": \"{source}\",\n  \"trace\": {},\n  \
         \"correct\": {correct},\n  \"failed\": {},\n  \"digest\": \"{digest}\",\n  \
         \"expected_digest\": {},\n  \"problems\": [{}],\n  \"metrics\": {{{metrics_json}}},\n  \
         \"untraced_walls_s\": [{}],\n  \"setup_samples_s\": [{}],\n  \"reps\": [\n    {reps_json}\n  ]\n}}\n",
        args.seed,
        FAULTS,
        args.trace,
        run.failed,
        expected.map_or("null".to_string(), |e| format!("\"{e}\"")),
        problems.join(", "),
        run.untraced_walls
            .iter()
            .map(|w| num(*w))
            .collect::<Vec<_>>()
            .join(", "),
        run.setups
            .iter()
            .map(|w| num(*w))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let stem = format!("{name}-seed{}-{mode}", args.seed);
    let record_path = out.join(format!("{stem}.json"));
    std::fs::write(&record_path, record)
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;
    if let Some(spans) = run
        .reps
        .iter()
        .rev()
        .find_map(|r| r.layers.as_ref().filter(|l| !l.spans.is_empty()))
    {
        let path = out.join(format!("{stem}-spans.json"));
        std::fs::write(&path, tracer::spans_json(&spans.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    for p in run.problems.iter().take(20) {
        eprintln!("gate: {p}");
    }
    println!(
        "{name}: seed {} commit {commit} source {source}; {} repetitions of {} faults; \
         records digest {digest} ({})",
        args.seed,
        run.reps.len(),
        FAULTS,
        match expected {
            Some(e) if e == digest => "matches the stored digest",
            Some(_) => "DIFFERS from the stored digest",
            None => "no stored digest for this seed",
        }
    );
    if let Some(s) = run.reps.last().and_then(|r| r.sidecar.as_ref()) {
        println!(
            "{name}: program sidecar (informational): elapsed_seconds {:.4} throughput {:.1} \
             smoothed_throughput {} prune_rate {:.4}",
            s.elapsed_seconds,
            s.throughput,
            s.smoothed_throughput
                .map_or("none".to_string(), |t| format!("{t:.1}")),
            s.prune_rate()
        );
    }
    for (metric, unit, value) in metrics {
        println!("{name}: {metric} = {} {unit}", num(*value));
    }
    println!("{name}: record written to {}", record_path.display());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        FAULTS, run.failed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = checkout_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the checkout root");
        let names_after = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').map_or(text.len(), |e| start + e);
            text[start..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(names_after("workloads"), kinds);
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_after("end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(names_after("per_layer"), layers);
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn lost_trace_time_fails_the_gate() {
        let layers = |unattributed: f64| runs::Layers {
            values: vec![
                ("trace.wall_ms", 1000.0),
                ("campaign.unattributed_ms", unattributed),
            ],
            spans: Vec::new(),
            problems: Vec::new(),
        };
        assert_eq!(unattributed_problem(&layers(5.0)), None);
        assert!(unattributed_problem(&layers(40.0)).is_some());
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn expected_digests_cover_both_seeds() {
        for kind in [Kind::Single, Kind::Double, Kind::Farm] {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(
                    expected_digest(kind, seed).is_some(),
                    "no digest for {} at seed {seed}",
                    kind.name()
                );
            }
        }
    }

    /// The seed kept out of development, for re-checking later claims.
    const HELD_OUT_SEED: u64 = 90210;
}

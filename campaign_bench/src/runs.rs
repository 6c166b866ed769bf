//! One repetition of each workload: a closed batch of the whole fault list,
//! timed from set-up start to a complete durable result, optionally
//! traced layer by layer.

use crate::tracer::{self, Counts, Layer, Span, Tracer};
use bera::goofi::campaign::{prepare_campaign, CampaignConfig};
use bera::goofi::farm::{init_farm, merge_farm, merged_path, run_worker, LeasePolicy};
use bera::goofi::observer::{ObserverSet, Telemetry, TelemetrySnapshot};
use bera::goofi::planner::plan_campaign;
use bera::goofi::store::{load_store, JsonlStore, StoreHeader};
use bera::goofi::{golden_run, FaultModel, Workload};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

/// Farm shards, as the campaign is split for `alg1-farm`.
pub const SHARDS: usize = 8;
/// In-process farm workers, one campaign thread each.
pub const FARM_WORKERS: usize = 2;
/// The workload key `init_farm` resolves to Algorithm I.
const FARM_WORKLOAD_KEY: &str = "alg1";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Algorithm I, single-bit faults, one process, one campaign thread.
    Single,
    /// The same with adjacent double-bit faults.
    Double,
    /// The single-bit campaign through an 8-shard farm with 2 workers.
    Farm,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Single, Kind::Double, Kind::Farm];

    /// The workload name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Single => "alg1-single",
            Kind::Double => "alg1-double",
            Kind::Farm => "alg1-farm",
        }
    }

    /// The fault model the workload injects.
    #[must_use]
    pub fn model(self) -> FaultModel {
        match self {
            Kind::Double => FaultModel::AdjacentDoubleBit,
            Kind::Single | Kind::Farm => FaultModel::SingleBit,
        }
    }

    /// The campaign configuration: the paper's defaults for its
    /// 9290-fault Algorithm I campaign at `seed`, on one campaign thread.
    #[must_use]
    pub fn config(self, seed: u64) -> CampaignConfig {
        let mut cfg = CampaignConfig::paper(bera::repro::ALG1_FAULTS, seed);
        cfg.threads = 1;
        cfg.fault_model = self.model();
        cfg
    }
}

/// What one repetition produced.
pub struct Rep {
    /// Set-up start → complete durable result, seconds.
    pub wall: f64,
    /// Set-up start → first experiment can start, seconds.
    pub setup: f64,
    /// The durable store to gate.
    pub store: PathBuf,
    /// The program's own telemetry for the campaign (the sidecar figures).
    pub sidecar: Option<TelemetrySnapshot>,
    /// Per-layer figures, when traced.
    pub layers: Option<Layers>,
}

/// Per-layer figures of one traced repetition.
pub struct Layers {
    /// `(metric name, value)` pairs; see `PER_LAYER` in `main.rs`.
    pub values: Vec<(&'static str, f64)>,
    /// The spans for the trace file.
    pub spans: Vec<Span>,
    /// Outside counts that disagree with the program's own telemetry.
    pub problems: Vec<String>,
}

impl Layers {
    /// The value of the per-layer metric `name` (0 when this workload
    /// cannot observe it).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times `f` and returns its result with the elapsed milliseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed().as_secs_f64()))
}

/// Runs one repetition of `kind` in the scratch directory `dir`.
///
/// # Errors
///
/// Any failure of the program's API, described.
pub fn run(kind: Kind, cfg: &CampaignConfig, dir: &Path, traced: bool) -> Result<Rep, String> {
    match kind {
        Kind::Single | Kind::Double => single_process(cfg, dir, traced),
        Kind::Farm => farm(cfg, dir, traced),
    }
}

/// Times the set-up alone in the scratch directory `dir`, exactly as a
/// repetition of `kind` pays it (see [`Rep::setup`]), and returns seconds.
/// `dir` is left holding what the set-up wrote.
///
/// # Errors
///
/// Any failure of the program's API, described.
pub fn setup_only(kind: Kind, cfg: &CampaignConfig, dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    match kind {
        Kind::Single | Kind::Double => {
            let workload = Workload::algorithm_one();
            let prepared = prepare_campaign(&workload, cfg);
            let header = StoreHeader::new(workload.name(), cfg, prepared.golden());
            let _store = JsonlStore::create(&dir.join("store.jsonl"), &header)
                .map_err(|e| format!("store create: {e}"))?;
            Ok(t0.elapsed().as_secs_f64())
        }
        Kind::Farm => {
            init_farm(
                &dir.join("farm"),
                FARM_WORKLOAD_KEY,
                cfg,
                SHARDS,
                LeasePolicy::default(),
            )
            .map_err(|e| format!("init_farm: {e}"))?;
            Ok(t0.elapsed().as_secs_f64())
        }
    }
}

/// `alg1-single` / `alg1-double`: the `campaign --out` path — prepare,
/// store header, stream every record through the store, finish.
fn single_process(cfg: &CampaignConfig, dir: &Path, traced: bool) -> Result<Rep, String> {
    let path = dir.join("store.jsonl");
    let golden_ms = traced.then(|| {
        let w = Workload::algorithm_one();
        timed(|| golden_run(&w, &cfg.loop_cfg)).1
    });

    let t0 = Instant::now();
    let workload = Workload::algorithm_one();
    let prepared = prepare_campaign(&workload, cfg);
    let header = StoreHeader::new(workload.name(), cfg, prepared.golden());
    let store = JsonlStore::create(&path, &header).map_err(|e| format!("store create: {e}"))?;
    let t_setup = Instant::now();
    let telemetry = Telemetry::new(cfg.faults);
    let (result, trace) = if traced {
        let tracer = Tracer::new(t0, &store);
        tracer.setup_done(t_setup);
        let mut observers = ObserverSet::new();
        observers.push(&tracer);
        observers.push(&telemetry);
        let result = prepared.run(&observers);
        drop(observers);
        (result, Some(tracer.into_trace()))
    } else {
        let mut observers = ObserverSet::new();
        observers.push(&store);
        observers.push(&telemetry);
        let result = prepared.run(&observers);
        (result, None)
    };
    store.finish().map_err(|e| format!("store finish: {e}"))?;
    let t_end = Instant::now();
    drop(result);
    let sidecar = telemetry.snapshot();

    let wall = t_end.duration_since(t0).as_secs_f64();
    let layers = match trace {
        None => None,
        Some(trace) => {
            let (spans, counts) = trace.close(t0, t_end);
            let load_ms = timed(|| load_store(&path)).1;
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            Some(single_layers(
                spans,
                &counts,
                &sidecar,
                cfg.faults,
                golden_ms.unwrap_or(0.0),
                load_ms,
                bytes,
            )?)
        }
    };
    Ok(Rep {
        wall,
        setup: t_setup.duration_since(t0).as_secs_f64(),
        store: path,
        sidecar: Some(sidecar),
        layers,
    })
}

/// The per-layer figures of a traced single-process repetition, with the
/// outside counts cross-checked against the program's telemetry.
fn single_layers(
    spans: Vec<Span>,
    c: &Counts,
    snap: &TelemetrySnapshot,
    faults: usize,
    golden_ms: f64,
    load_ms: f64,
    bytes: u64,
) -> Result<Layers, String> {
    let totals = tracer::self_times(&spans)?;
    let self_ms = |l: Layer| {
        let ns = totals.iter().find(|(x, _)| *x == l).map_or(0, |&(_, v)| v);
        ns as f64 / 1e6
    };
    let wall_ms = (spans[0].end - spans[0].start) as f64 / 1e6;
    let drive_ms = self_ms(Layer::Drive);

    let mut problems = Vec::new();
    let mut agree = |what: &str, outside: u64, inside: u64| {
        if outside != inside {
            problems.push(format!(
                "trace count {what}: observed {outside}, program telemetry {inside}"
            ));
        }
    };
    agree(
        "simulated",
        c.simulated_records as u64,
        snap.simulated() as u64,
    );
    agree("analytic", c.analytic as u64, snap.analytic as u64);
    agree("replicated", c.replicated as u64, snap.replicated as u64);
    agree("instructions", c.instructions, snap.sim_instructions);
    agree(
        "block instructions",
        c.block_instructions,
        snap.block_instructions,
    );
    agree(
        "arena restores",
        c.restores as u64,
        snap.arena_restores as u64,
    );
    agree("dirty words", c.dirty_words, snap.arena_dirty_words);
    agree(
        "full clones",
        c.full_clones as u64,
        snap.arena_full_clones as u64,
    );
    agree(
        "batch members",
        c.batch_members as u64,
        snap.batch_members as u64,
    );
    agree("split-offs", c.split_offs as u64, snap.split_offs as u64);
    agree("retried", c.retried as u64, snap.retried as u64);
    agree(
        "quarantined",
        c.quarantined as u64,
        snap.harness_failures as u64,
    );

    let values = vec![
        ("experiment.golden_ms", golden_ms),
        ("experiment.simulated", c.executed as f64),
        ("experiment.restore_ms", self_ms(Layer::Restore)),
        (
            "experiment.dirty_words_mean",
            ratio(c.dirty_words as f64, c.restores as f64),
        ),
        ("experiment.drive_ms", drive_ms),
        (
            "experiment.converged_ratio",
            ratio(c.converged as f64, c.executed as f64),
        ),
        ("experiment.classify_ms", self_ms(Layer::Classify)),
        ("machine.instructions", c.instructions as f64),
        (
            "machine.block_ratio",
            ratio(c.block_instructions as f64, c.instructions as f64),
        ),
        (
            "machine.minstr_per_drive_s",
            ratio(c.instructions as f64 / 1e6, drive_ms / 1e3),
        ),
        ("planner.plan_ms", self_ms(Layer::Plan)),
        (
            "planner.analytic_ratio",
            ratio(c.planner_analytic as f64, faults as f64),
        ),
        ("batch.walk_ms", self_ms(Layer::Walk)),
        ("batch.members", c.batch_members as f64),
        (
            "batch.resolved_ratio",
            ratio(c.batch_resolved as f64, c.batch_members as f64),
        ),
        ("campaign.setup_ms", self_ms(Layer::Setup)),
        ("campaign.emit_ms", self_ms(Layer::Emit)),
        ("campaign.replicate_ms", self_ms(Layer::Replicate)),
        ("campaign.unattributed_ms", self_ms(Layer::Campaign)),
        ("store.append_ms", self_ms(Layer::Append)),
        ("store.finish_ms", self_ms(Layer::Finish)),
        ("store.bytes", bytes as f64),
        ("store.load_ms", load_ms),
        ("supervisor.retried", c.retried as f64),
        ("supervisor.quarantined", c.quarantined as f64),
        ("trace.wall_ms", wall_ms),
    ];
    Ok(Layers {
        values,
        spans,
        problems,
    })
}

/// One line of a farm worker's progress, timestamped on arrival.
enum FarmEvent {
    Called,
    Claimed,
    Completed,
    Returned(Result<(), String>),
}

/// `alg1-farm`: `init_farm`, two in-process `run_worker` threads, and
/// `merge_farm` as soon as the last shard reports complete. The workers'
/// progress lines are the only window into them, so the farm's layers are
/// carved from those timestamps and from direct timing of the calls.
fn farm(cfg: &CampaignConfig, dir: &Path, traced: bool) -> Result<Rep, String> {
    let root = dir.join("farm");
    let direct = traced.then(|| {
        let w = Workload::algorithm_one();
        let (golden, golden_ms) = timed(|| golden_run(&w, &cfg.loop_cfg));
        let list = bera::goofi::campaign::FaultList::sample(
            cfg.faults,
            cfg.seed,
            golden.total_instructions,
        );
        let plan_ms = timed(|| plan_campaign(&list.faults, cfg, &golden)).1;
        (golden_ms, plan_ms)
    });

    let t0 = Instant::now();
    let manifest = init_farm(
        &root,
        FARM_WORKLOAD_KEY,
        cfg,
        SHARDS,
        LeasePolicy::default(),
    )
    .map_err(|e| format!("init_farm: {e}"))?;
    let t_setup = Instant::now();
    let shards = manifest.shards.len();

    let (tx, rx) = mpsc::channel::<(Instant, usize, FarmEvent)>();
    let mut events: Vec<(Instant, usize, FarmEvent)> = Vec::new();
    let mut merge = None;
    std::thread::scope(|scope| {
        for w in 0..FARM_WORKERS {
            let tx = tx.clone();
            let root = &root;
            scope.spawn(move || {
                let _ = tx.send((Instant::now(), w, FarmEvent::Called));
                let id = format!("bench-{w}");
                let result = run_worker(root, &id, 1, &mut |line: String| {
                    let now = Instant::now();
                    let event = if line.contains(": claimed shard ") {
                        FarmEvent::Claimed
                    } else if line.ends_with(" complete") {
                        FarmEvent::Completed
                    } else {
                        return;
                    };
                    let _ = tx.send((now, w, event));
                });
                let outcome = result.map(|_| ()).map_err(|e| e.to_string());
                let _ = tx.send((Instant::now(), w, FarmEvent::Returned(outcome)));
            });
        }
        drop(tx);
        // Merge the moment the last shard is durable; the workers'
        // back-off sleeps after that are not the user's wait.
        let mut completed = 0;
        while completed < shards {
            let Ok(event) = rx.recv() else { break };
            if matches!(event.2, FarmEvent::Completed) {
                completed += 1;
            }
            events.push(event);
        }
        if completed == shards {
            let t_merge = Instant::now();
            let report = merge_farm(&root).map_err(|e| format!("merge_farm: {e}"));
            merge = Some((t_merge, Instant::now(), report));
        }
    });
    events.extend(rx.try_iter());
    for (_, w, event) in &events {
        if let FarmEvent::Returned(Err(e)) = event {
            return Err(format!("farm worker {w}: {e}"));
        }
    }
    let (t_merge, t_end, report) =
        merge.ok_or("the farm workers stopped before every shard completed")?;
    let report = report?;

    let wall = t_end.duration_since(t0).as_secs_f64();
    let layers = match direct {
        None => None,
        Some((golden_ms, plan_ms)) => {
            let path = merged_path(&root);
            let load_ms = timed(|| load_store(&path)).1;
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            let snap = report
                .telemetry
                .ok_or("the merged farm has no telemetry sidecar")?;
            Some(farm_layers(
                &events,
                FarmTimes {
                    t0,
                    t_setup,
                    t_merge,
                    t_end,
                    golden_ms,
                    plan_ms,
                    load_ms,
                },
                &snap,
                bytes,
            )?)
        }
    };
    Ok(Rep {
        wall,
        setup: t_setup.duration_since(t0).as_secs_f64(),
        store: merged_path(&root),
        sidecar: report.telemetry,
        layers,
    })
}

struct FarmTimes {
    t0: Instant,
    t_setup: Instant,
    t_merge: Instant,
    t_end: Instant,
    golden_ms: f64,
    plan_ms: f64,
    load_ms: f64,
}

/// The farm's per-layer figures. Time along the critical path — the
/// worker whose shard completed last — is carved into init, that worker's
/// start-up and shards, and the merge; the rest is unattributed. Counts
/// come from the merged telemetry sidecar (the program's own), because the
/// workers' observers are internal to `run_worker`.
fn farm_layers(
    events: &[(Instant, usize, FarmEvent)],
    t: FarmTimes,
    snap: &TelemetrySnapshot,
    bytes: u64,
) -> Result<Layers, String> {
    let since = |a: Instant, b: Instant| ms(b.duration_since(a).as_secs_f64());
    let of = |w: usize, want: fn(&FarmEvent) -> bool| -> Vec<Instant> {
        events
            .iter()
            .filter(|(_, who, e)| *who == w && want(e))
            .map(|(at, _, _)| *at)
            .collect()
    };
    let called = |e: &FarmEvent| matches!(e, FarmEvent::Called);
    let claimed = |e: &FarmEvent| matches!(e, FarmEvent::Claimed);
    let completed = |e: &FarmEvent| matches!(e, FarmEvent::Completed);
    let returned = |e: &FarmEvent| matches!(e, FarmEvent::Returned(_));

    let last_completion = |w: usize| of(w, completed).last().copied();
    let critical = (0..FARM_WORKERS)
        .filter(|&w| last_completion(w).is_some())
        .max_by_key(|&w| last_completion(w))
        .ok_or("no farm shard completed")?;
    let last = last_completion(critical).expect("critical worker completed a shard");
    let other_last = (0..FARM_WORKERS)
        .filter(|&w| w != critical)
        .filter_map(last_completion)
        .max();

    let mut shard_ms: Vec<f64> = Vec::new();
    let mut critical_shards_ms = 0.0;
    for w in 0..FARM_WORKERS {
        let (starts, ends) = (of(w, claimed), of(w, completed));
        if starts.len() != ends.len() {
            return Err(format!(
                "worker {w} claimed {} shards but completed {}",
                starts.len(),
                ends.len()
            ));
        }
        for (s, e) in starts.iter().zip(&ends) {
            let d = since(*s, *e);
            shard_ms.push(d);
            if w == critical {
                critical_shards_ms += d;
            }
        }
    }
    let critical_called = of(critical, called)[0];
    let startup_ms = since(critical_called, of(critical, claimed)[0]);
    let exit_lag_ms = (0..FARM_WORKERS)
        .filter_map(|w| of(w, returned).first().copied())
        .max()
        .map_or(0.0, |r| since(last, r));

    // The spans for the trace file. Workers run concurrently, so these
    // overlap across workers and are not tiled.
    let ns = |at: Instant| u64::try_from(at.duration_since(t.t0).as_nanos()).unwrap_or(u64::MAX);
    let mut spans = vec![Span {
        layer: Layer::Campaign,
        start: 0,
        end: ns(t.t_end),
        parent: None,
        fault: None,
    }];
    let mut span = |layer: Layer, start: Instant, end: Instant| {
        spans.push(Span {
            layer,
            start: ns(start),
            end: ns(end),
            parent: Some(0),
            fault: None,
        });
    };
    span(Layer::FarmInit, t.t0, t.t_setup);
    for w in 0..FARM_WORKERS {
        let (starts, ends) = (of(w, claimed), of(w, completed));
        if let (Some(&call), Some(&first)) = (of(w, called).first(), starts.first()) {
            span(Layer::FarmStartup, call, first);
        }
        for (s, e) in starts.iter().zip(&ends) {
            span(Layer::FarmShard, *s, *e);
        }
    }
    span(Layer::FarmMerge, t.t_merge, t.t_end);

    let init_ms = since(t.t0, t.t_setup);
    let merge_ms = since(t.t_merge, t.t_end);
    let wall_ms = since(t.t0, t.t_end);
    let unattributed = wall_ms - init_ms - startup_ms - critical_shards_ms - merge_ms;
    if unattributed < 0.0 {
        return Err(format!(
            "farm spans overlap: {unattributed:.3} ms unattributed of {wall_ms:.3} ms"
        ));
    }
    let simulated = snap.simulated() as f64;
    let values = vec![
        ("experiment.golden_ms", t.golden_ms),
        ("experiment.simulated", simulated),
        ("experiment.dirty_words_mean", snap.mean_dirty_words()),
        (
            "experiment.converged_ratio",
            ratio(snap.pruned as f64, simulated),
        ),
        ("machine.instructions", snap.sim_instructions as f64),
        ("machine.block_ratio", snap.block_hit_rate()),
        ("planner.plan_ms", t.plan_ms),
        (
            "planner.analytic_ratio",
            ratio(snap.analytic as f64, snap.total as f64),
        ),
        ("batch.members", snap.batch_members as f64),
        (
            "batch.resolved_ratio",
            ratio(
                snap.batch_members.saturating_sub(snap.split_offs) as f64,
                snap.batch_members as f64,
            ),
        ),
        ("campaign.unattributed_ms", unattributed),
        ("store.bytes", bytes as f64),
        ("store.load_ms", t.load_ms),
        ("supervisor.retried", snap.retried as f64),
        ("supervisor.quarantined", snap.harness_failures as f64),
        ("farm.init_ms", init_ms),
        ("farm.startup_ms", startup_ms),
        ("farm.shard_ms", crate::median(&shard_ms)),
        ("farm.critical_shards_ms", critical_shards_ms),
        ("farm.tail_ms", other_last.map_or(0.0, |o| since(o, last))),
        ("farm.merge_ms", merge_ms),
        ("farm.exit_lag_ms", exit_lag_ms),
        ("trace.wall_ms", wall_ms),
    ];
    Ok(Layers {
        values,
        spans,
        problems: Vec::new(),
    })
}

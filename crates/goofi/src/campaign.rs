//! Campaign orchestration: fault-list sampling, parallel experiment
//! execution, and the result database.

use crate::classify::Outcome;
use crate::experiment::{
    golden_run, run_experiment_with_model, ExperimentRecord, FaultModel, FaultSpec, GoldenRun,
    LoopConfig, Provenance,
};
use crate::memo::TrajectoryMemo;
use crate::observer::{CampaignObserver, NullObserver};
use crate::planner::{
    analytic_record, paranoid_members, plan_campaign, records_equivalent, replicated_record,
    PlanAction,
};
use crate::supervisor::{run_supervised, SupervisorConfig};
use crate::workload::Workload;
use bera_stats::sampling::UniformSampler;
use bera_tcpu::scan;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Configuration of one SCIFI campaign (GOOFI's set-up phase).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of faults to inject (the paper uses 9290 for Algorithm I and
    /// 2372 for Algorithm II).
    pub faults: usize,
    /// RNG seed for the fault list; campaigns are reproducible.
    pub seed: u64,
    /// The closed-loop workload configuration.
    pub loop_cfg: LoopConfig,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Record full output sequences for every experiment (large!).
    pub detail: bool,
    /// The fault model (single bit-flip by default, as in the paper).
    pub fault_model: FaultModel,
    /// Supervised execution (panic isolation, watchdog, retry-then-
    /// quarantine); every experiment runs under it.
    pub supervisor: SupervisorConfig,
    /// Def/use fault-space pruning (see [`crate::planner`]): classify
    /// faults whose outcome follows from the golden access trace without
    /// simulating them, and simulate one representative per equivalence
    /// class of provably identical runs. On by default; outcomes are
    /// bit-identical either way (`tests/prune_equivalence.rs`), so this
    /// only trades a planning pass for campaign wall-clock. Automatically
    /// bypassed for the re-asserting fault models (intermittent, stuck-at)
    /// and parity-cache runs. With a nonzero checkpoint stride it also
    /// switches on the trajectory memo ([`crate::memo`]), which ends a run
    /// on reaching a state an earlier run of the campaign reached
    /// (`tests/memo_equivalence.rs`); `false` is the plain-simulation
    /// reference.
    pub prune: bool,
    /// Paranoid cross-check: re-simulate up to this many members of every
    /// planned equivalence class and panic if any simulated outcome
    /// disagrees with its replicated record. `0` (the default) disables
    /// the check; it exists to audit the pruning soundness argument on
    /// live campaigns.
    pub paranoid: usize,
    /// EDM-visibility analytic coverage (see [`bera_tcpu::vis`] and
    /// DESIGN.md §8h): classify faults in *untraceable* state —
    /// PC/PSR/signature/tags/buffers — from the golden run's
    /// visibility-window trace. On by default; outcomes are bit-identical
    /// either way (the equivalence suites cover the untraceable
    /// population), so this only widens the analytic share of the
    /// campaign. Only consulted where pruning is itself eligible.
    pub vis: bool,
}

impl CampaignConfig {
    /// A fresh trajectory memo when this configuration uses one: the
    /// campaign is planned and checkpointed.
    fn memo(&self) -> Option<TrajectoryMemo> {
        (self.prune && self.loop_cfg.checkpoint_stride > 0).then(TrajectoryMemo::new)
    }

    /// The paper's campaign shape with a configurable fault count.
    #[must_use]
    pub fn paper(faults: usize, seed: u64) -> Self {
        CampaignConfig {
            faults,
            seed,
            loop_cfg: LoopConfig::paper(),
            threads: 0,
            detail: false,
            fault_model: FaultModel::SingleBit,
            supervisor: SupervisorConfig::default(),
            prune: true,
            paranoid: 0,
            vis: true,
        }
    }

    /// A small single-threaded campaign over a shortened run, for tests.
    #[must_use]
    pub fn quick(faults: usize, seed: u64) -> Self {
        CampaignConfig {
            faults,
            seed,
            loop_cfg: LoopConfig::short(60),
            threads: 1,
            detail: false,
            fault_model: FaultModel::SingleBit,
            supervisor: SupervisorConfig::default(),
            prune: true,
            paranoid: 0,
            vis: true,
        }
    }
}

/// The sampled fault list (location, time) pairs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultList {
    /// The sampled faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultList {
    /// Samples `n` faults uniformly over the scan catalog and the dynamic
    /// instructions of the golden run.
    #[must_use]
    pub fn sample(n: usize, seed: u64, total_instructions: u64) -> Self {
        let mut sampler = UniformSampler::with_seed(seed);
        let catalog_len = scan::catalog().len();
        let faults = sampler
            .draw_fault_list(n, catalog_len, total_instructions)
            .into_iter()
            .map(|(location_index, inject_at)| FaultSpec {
                location_index,
                inject_at,
            })
            .collect();
        FaultList { faults }
    }
}

/// Everything a campaign produced: per-experiment records plus the golden
/// context needed to interpret them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Workload name ("Algorithm I" / "Algorithm II").
    pub workload: String,
    /// Seed the fault list was drawn with.
    pub seed: u64,
    /// Number of scannable state elements (fault location population).
    pub total_locations: usize,
    /// Dynamic instructions of the golden run (fault time population).
    pub total_instructions: u64,
    /// Golden output bit patterns, one per iteration.
    pub golden_outputs: Vec<u32>,
    /// Golden plant speed trajectory (rpm).
    pub golden_speeds: Vec<f64>,
    /// One record per injected fault.
    pub records: Vec<ExperimentRecord>,
}

impl CampaignResult {
    /// Serialises the full result database as pretty JSON (the analogue of
    /// GOOFI's SQL database dump).
    ///
    /// # Errors
    ///
    /// Returns an error if serialisation fails (it cannot for this type,
    /// but the signature is honest).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

/// A campaign whose golden run and fault list exist but whose experiments
/// have not run yet — the point at which a result store header can be
/// built and an interrupted store validated, before committing to the
/// (expensive) injection phase.
pub struct PreparedCampaign<'w> {
    workload: &'w Workload,
    cfg: CampaignConfig,
    golden: GoldenRun,
    list: FaultList,
    /// Shared by every run of this campaign, including every shard a farm
    /// worker runs through [`PreparedCampaign::run_shard`].
    memo: Option<TrajectoryMemo>,
}

/// Executes the campaign's set-up phase: golden reference run plus
/// fault-list sampling.
#[must_use]
pub fn prepare_campaign<'w>(workload: &'w Workload, cfg: &CampaignConfig) -> PreparedCampaign<'w> {
    let golden = golden_run(workload, &cfg.loop_cfg);
    let list = FaultList::sample(cfg.faults, cfg.seed, golden.total_instructions);
    PreparedCampaign {
        workload,
        cfg: cfg.clone(),
        golden,
        list,
        memo: cfg.memo(),
    }
}

impl PreparedCampaign<'_> {
    /// The logged golden reference run.
    #[must_use]
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The sampled fault list.
    #[must_use]
    pub fn faults(&self) -> &[FaultSpec] {
        &self.list.faults
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Runs every experiment and assembles the result database.
    #[must_use]
    pub fn run(self, observer: &dyn CampaignObserver) -> CampaignResult {
        self.run_resumed(Vec::new(), observer)
    }

    /// Runs only the fault indices in `shard` (a farm worker's slice of
    /// the campaign), producing records **byte-identical** to what a full
    /// single-process run would produce for those indices — including
    /// their provenance tags.
    ///
    /// The plan is computed over the *full* fault list (it is a pure
    /// function of the campaign, so every worker recomputes the identical
    /// plan and therefore the identical equivalence classes). Only
    /// in-shard indices are executed, emitted to `observer` and returned;
    /// an in-shard class member whose representative lives in another
    /// shard derives its record from a locally re-simulated *shadow* of
    /// that representative (deterministic, observer-silent, never
    /// stored).
    ///
    /// `completed` follows the [`PreparedCampaign::run_resumed`] contract
    /// (empty, or one slot per fault of the whole campaign); out-of-shard
    /// slots must be `None`. The returned vector has one slot per fault of
    /// the whole campaign with `Some` exactly at the shard's indices.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of bounds for the fault list or
    /// `completed` has the wrong length.
    #[must_use]
    pub fn run_shard(
        &self,
        shard: std::ops::Range<usize>,
        completed: Vec<Option<ExperimentRecord>>,
        observer: &dyn CampaignObserver,
    ) -> Vec<Option<ExperimentRecord>> {
        assert!(
            shard.start <= shard.end && shard.end <= self.list.faults.len(),
            "shard {}..{} out of bounds for a {}-fault campaign",
            shard.start,
            shard.end,
            self.list.faults.len()
        );
        assert!(
            completed.is_empty() || completed.len() == self.list.faults.len(),
            "resume state covers {} faults but the campaign has {}",
            completed.len(),
            self.list.faults.len()
        );
        observer.fault_list_sampled(&self.list.faults);
        run_fault_list_scoped(
            self.workload,
            &self.cfg,
            &self.golden,
            &self.list.faults,
            shard,
            completed,
            observer,
            self.memo.as_ref(),
        )
    }

    /// Like [`PreparedCampaign::run`], but skipping fault indices whose
    /// records were already completed by an interrupted run. `completed`
    /// must be empty (fresh campaign) or hold exactly one slot per fault;
    /// `Some` slots are adopted verbatim and do **not** replay their
    /// observer events, `None` slots are executed.
    ///
    /// # Panics
    ///
    /// Panics when `completed` is non-empty but its length does not match
    /// the fault list — that is two different campaigns.
    #[must_use]
    pub fn run_resumed(
        self,
        completed: Vec<Option<ExperimentRecord>>,
        observer: &dyn CampaignObserver,
    ) -> CampaignResult {
        assert!(
            completed.is_empty() || completed.len() == self.list.faults.len(),
            "resume state covers {} faults but the campaign has {}",
            completed.len(),
            self.list.faults.len()
        );
        observer.fault_list_sampled(&self.list.faults);
        let records = run_fault_list_resumed(
            self.workload,
            &self.cfg,
            &self.golden,
            &self.list.faults,
            completed,
            observer,
            self.memo.as_ref(),
        );
        // The golden run is no longer needed once the experiments are done:
        // move its logged vectors into the result instead of cloning them.
        let GoldenRun {
            outputs: golden_outputs,
            speeds: golden_speeds,
            total_instructions,
            ..
        } = self.golden;
        let result = CampaignResult {
            workload: self.workload.name().to_string(),
            seed: self.cfg.seed,
            total_locations: scan::catalog().len(),
            total_instructions,
            golden_outputs,
            golden_speeds,
            records,
        };
        observer.campaign_completed(&result);
        result
    }
}

/// Runs a full SCIFI campaign: golden run, fault-list sampling, then one
/// experiment per fault (in parallel across threads).
#[must_use]
pub fn run_scifi_campaign(workload: &Workload, cfg: &CampaignConfig) -> CampaignResult {
    run_scifi_campaign_observed(workload, cfg, &NullObserver)
}

/// Like [`run_scifi_campaign`], reporting every life-cycle event to
/// `observer` (streaming store, telemetry, progress displays).
#[must_use]
pub fn run_scifi_campaign_observed(
    workload: &Workload,
    cfg: &CampaignConfig,
    observer: &dyn CampaignObserver,
) -> CampaignResult {
    prepare_campaign(workload, cfg).run(observer)
}

/// Runs an explicit fault list (used by ablations and figure scripts),
/// with a trajectory memo of its own when `cfg` uses one.
#[must_use]
pub fn run_fault_list(
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
) -> Vec<ExperimentRecord> {
    let memo = cfg.memo();
    run_fault_list_resumed(
        workload,
        cfg,
        golden,
        faults,
        Vec::new(),
        &NullObserver,
        memo.as_ref(),
    )
}

/// Runs one experiment under the campaign's supervisor (panic isolation,
/// watchdog, retry, quarantine).
fn run_one(
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    fault: FaultSpec,
    index: usize,
    observer: &dyn CampaignObserver,
    memo: Option<&TrajectoryMemo>,
) -> ExperimentRecord {
    run_supervised(
        workload,
        &cfg.loop_cfg,
        golden,
        fault,
        cfg.fault_model,
        cfg.detail,
        index,
        observer,
        &cfg.supervisor,
        memo,
    )
}

/// Runs the fault indices of `faults` whose `completed` slot is `None`
/// (all of them when `completed` is empty), reporting events to
/// `observer`; pre-completed records are adopted without re-execution.
///
/// Execution is plan-driven ([`plan_campaign`]): analytically classified
/// faults are emitted up front without touching the simulator, only
/// plan-`Simulate` indices go through the (possibly parallel) experiment
/// scheduler, and equivalence-class members are replicated from their
/// simulated representatives afterwards. The plan is deterministic, so
/// resumes recompute identical representatives.
fn run_fault_list_resumed(
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
    completed: Vec<Option<ExperimentRecord>>,
    observer: &dyn CampaignObserver,
    memo: Option<&TrajectoryMemo>,
) -> Vec<ExperimentRecord> {
    let scope = 0..faults.len();
    run_fault_list_scoped(
        workload, cfg, golden, faults, scope, completed, observer, memo,
    )
    .into_iter()
    .map(|slot| slot.expect("every fault index was run or preloaded"))
    .collect()
}

/// The fault indices of `scope` in the order their analytic and replicated
/// records are emitted (and so appended to a result store): fault-list
/// order, except that multi-bit campaigns group them by golden checkpoint
/// window, stable within a window. Both orders are pinned by the stores
/// of record, so changing either changes store bytes.
fn emission_order(
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
    scope: std::ops::Range<usize>,
) -> Vec<usize> {
    let mut order: Vec<usize> = scope.collect();
    if cfg.fault_model != FaultModel::SingleBit {
        order.sort_by_key(|&i| {
            golden
                .checkpoint_before(faults[i].inject_at)
                .map_or(0, |c| c.iteration)
        });
    }
    order
}

/// The scoped engine behind [`run_fault_list_resumed`] (full scope) and
/// [`PreparedCampaign::run_shard`] (a farm worker's slice). The plan
/// always covers the *full* fault list so that equivalence classes and
/// therefore record provenance are identical whichever process runs which
/// slice; only in-scope indices execute experiments, emit observer events
/// and fill slots.
#[allow(clippy::too_many_arguments)]
fn run_fault_list_scoped(
    workload: &Workload,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    faults: &[FaultSpec],
    scope: std::ops::Range<usize>,
    completed: Vec<Option<ExperimentRecord>>,
    observer: &dyn CampaignObserver,
    memo: Option<&TrajectoryMemo>,
) -> Vec<Option<ExperimentRecord>> {
    let mut slots: Vec<Option<ExperimentRecord>> = if completed.is_empty() {
        let mut v = Vec::new();
        v.resize_with(faults.len(), || None);
        v
    } else {
        completed
    };
    let in_scope = |i: usize| scope.contains(&i);
    let plan = plan_campaign(faults, cfg, golden);
    // The simulation pass skips out-of-scope indices, preloaded indices
    // and everything the plan resolves without the simulator: analytic
    // records (emitted first, below) and replicated members (filled in
    // last).
    let done: Vec<bool> = slots
        .iter()
        .zip(plan.actions())
        .enumerate()
        .map(|(i, (slot, action))| {
            !in_scope(i) || slot.is_some() || !matches!(action, PlanAction::Simulate)
        })
        .collect();
    let remaining = done.iter().filter(|&&d| !d).count();
    observer.plan_computed(&plan.stats());
    observer.simulations_scheduled(remaining);
    let order = emission_order(cfg, golden, faults, scope.clone());

    // Analytic records first: they cost nothing and keep the simulation
    // scheduler's claim loop dense in real work.
    for &i in &order {
        if slots[i].is_some() {
            continue;
        }
        if let PlanAction::Analytic(outcome) = plan.action(i) {
            let mut record = analytic_record(faults[i], outcome, golden, cfg.detail);
            record.pruned_at = plan.pruned_at(i);
            observer.experiment_classified(i, &record);
            slots[i] = Some(record);
        }
    }

    let run_index = |i: usize| run_one(workload, cfg, golden, faults[i], i, observer, memo);
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        cfg.threads
    };
    if threads <= 1 || remaining < 2 {
        for i in 0..faults.len() {
            if done[i] {
                continue;
            }
            crate::fp_nofail!("campaign.claim");
            slots[i] = Some(run_index(i));
        }
    } else {
        // Dynamic work distribution: experiment run times vary by orders of
        // magnitude (a detected fault traps within microseconds, a hang burns
        // the whole instruction cap), so static chunking leaves threads idle
        // behind the slowest chunk. Each worker instead claims the next
        // unclaimed fault index from a shared atomic counter and records the
        // index with its result, so the merged record order is exactly the
        // fault-list order regardless of which worker ran what. Pre-completed
        // indices (a resume) are skipped by the claim loop.
        //
        // Each record lands in its index's shared slot the moment it
        // classifies (and so the moment observers and the store see it),
        // so a worker that dies later loses nothing it emitted: the
        // self-heal pass below re-runs exactly the claims that never
        // classified, and every index is emitted once.
        let next = AtomicUsize::new(0);
        let ran: Vec<OnceLock<ExperimentRecord>> =
            (0..faults.len()).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (next, done, ran, run_index) = (&next, &done, &ran, &run_index);
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= faults.len() {
                            break;
                        }
                        if done[i] {
                            continue;
                        }
                        // A `panic` here kills the worker with claims in
                        // flight (the self-heal path); a `crash` kills the
                        // process mid-campaign.
                        crate::fp_nofail!("campaign.claim");
                        let fresh = ran[i].set(run_index(i)).is_ok();
                        debug_assert!(fresh, "fault index {i} was claimed twice");
                    })
                })
                .collect();
            // The supervisor contains per-experiment failures, so a worker
            // can only die of something outside an experiment. Its
            // unclassified claims are re-run serially below.
            for h in handles {
                let _ = h.join();
            }
        });
        // A crash here models dying after workers died but before their
        // lost claims were re-run: the store keeps every record that
        // classified, and the claims stay a resumable gap.
        crate::fp_nofail!("campaign.self-heal");
        for (i, slot) in ran.into_iter().enumerate() {
            if let Some(record) = slot.into_inner() {
                slots[i] = Some(record);
            } else if !done[i] {
                slots[i] = Some(run_index(i));
            }
        }
    }

    // Replication pass: every in-scope representative has a record by now
    // (reps are plan-`Simulate` and always precede their members in the
    // fault list). A representative owned by another shard is simulated
    // here as an observer-silent *shadow*: deterministic, so it is
    // byte-identical to the record the owning shard stores, and memoized
    // but never emitted.
    let mut shadow: HashMap<usize, ExperimentRecord> = HashMap::new();
    for &i in &order {
        if slots[i].is_some() {
            continue;
        }
        if let PlanAction::Replicate { representative } = plan.action(i) {
            let rep = match slots[representative].as_ref() {
                Some(r) => r,
                None => shadow.entry(representative).or_insert_with(|| {
                    run_one(
                        workload,
                        cfg,
                        golden,
                        faults[representative],
                        representative,
                        &NullObserver,
                        memo,
                    )
                }),
            };
            let record = if matches!(rep.outcome, Outcome::HarnessFailure(_)) {
                // A quarantined representative proves nothing about its
                // class: fall back to simulating the member itself.
                observer.simulations_scheduled(1);
                run_one(workload, cfg, golden, faults[i], i, observer, memo)
            } else {
                let r = replicated_record(faults[i], rep);
                observer.experiment_classified(i, &r);
                r
            };
            slots[i] = Some(record);
        }
    }

    // Paranoid cross-check: re-simulate sampled class members and demand
    // semantic equality with their replicated records. The checks are
    // audits, not campaign work: the only event they fire is
    // `record_audited`.
    if cfg.paranoid > 0 {
        let golden_digest = golden.digest();
        for (rep, members) in plan.classes() {
            for m in paranoid_members(&members, cfg.paranoid, cfg.seed, golden_digest, faults[rep])
            {
                let Some(replicated) = slots[m].as_ref() else {
                    continue; // another shard's member: not ours to audit
                };
                if replicated.provenance != Provenance::Replicated {
                    continue; // fallback-simulated: nothing to audit
                }
                let fresh = run_experiment_with_model(
                    workload,
                    &cfg.loop_cfg,
                    golden,
                    faults[m],
                    cfg.fault_model,
                    cfg.detail,
                );
                assert!(
                    records_equivalent(&fresh, replicated),
                    "paranoid cross-check failed at fault index {m} \
                     (class representative {rep}): simulated {fresh:?} \
                     disagrees with replicated {replicated:?}"
                );
                observer.record_audited(m);
            }
        }
    }

    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Outcome;

    #[test]
    fn fault_list_is_reproducible() {
        let a = FaultList::sample(100, 7, 30_000);
        let b = FaultList::sample(100, 7, 30_000);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 100);
        let catalog_len = scan::catalog().len();
        assert!(a
            .faults
            .iter()
            .all(|f| f.location_index < catalog_len && f.inject_at < 30_000));
    }

    #[test]
    fn quick_campaign_classifies_every_fault() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(40, 11);
        let r = run_scifi_campaign(&w, &cfg);
        assert_eq!(r.records.len(), 40);
        assert_eq!(r.golden_outputs.len(), 60);
        // Every record has a definite outcome; sanity: not everything can
        // be overwritten.
        let overwritten = r
            .records
            .iter()
            .filter(|rec| rec.outcome == Outcome::Overwritten)
            .count();
        assert!(overwritten < 40);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let w = Workload::algorithm_one();
        let mut cfg = CampaignConfig::quick(24, 3);
        cfg.threads = 1;
        let serial = run_scifi_campaign(&w, &cfg);
        cfg.threads = 4;
        let parallel = run_scifi_campaign(&w, &cfg);
        let so: Vec<_> = serial.records.iter().map(|r| r.outcome).collect();
        let po: Vec<_> = parallel.records.iter().map(|r| r.outcome).collect();
        assert_eq!(so, po, "sharding must not change results");
    }

    #[test]
    fn json_export_roundtrips() {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(5, 1);
        let r = run_scifi_campaign(&w, &cfg);
        let json = r.to_json().unwrap();
        let back: CampaignResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records.len(), 5);
        assert_eq!(back.workload, "Algorithm I");
    }
}

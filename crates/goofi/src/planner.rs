//! Campaign planner: def/use fault-space pruning over the golden access
//! trace.
//!
//! A SCIFI campaign samples (scan bit, injection time) pairs uniformly.
//! Most of those faults land in state the workload overwrites before
//! reading, or never touches again — their outcomes are fully determined
//! by the golden run's access trace and need no simulation at all. The
//! planner walks the fault list once against
//! [`GoldenRun::trace`](crate::experiment::GoldenRun) and decides, per
//! fault, with one rule for every one-shot flip model (single, double,
//! `burst:W`):
//!
//! 1. each flipped bit maps to a *unit*: its def/use [`TraceUnit`], else
//!    (with the visibility layer on) its EDM-visibility [`VisUnit`] when a
//!    flip there stays exactly `golden ⊕ flip` between events; a bit with
//!    neither makes the whole fault simulate;
//! 2. each unit's *first golden access* at or after the injection instant
//!    decides its fate: a full-width write deposits the fault-free value
//!    over the flip (execution up to that write never observed it), a
//!    read or partial write observes it, no access leaves it untouched;
//! 3. **any first access observes** — the fault is live. Let `s` be the
//!    earliest observing instant: up to `s` the run is golden, and at `s`
//!    the state is golden plus the flips of the units not yet killed. All
//!    faults on the same scan bit with the same `s` and the same surviving
//!    units therefore have identical faulty trajectories from `s` onward,
//!    so the first of them in list order simulates and the others
//!    [`PlanAction::Replicate`] it;
//! 4. **otherwise** the fault is [`Outcome::Latent`] when some unit is
//!    never accessed again (its flip reaches the end-of-run state diff)
//!    and [`Outcome::Overwritten`] when every unit is killed.
//!
//! Single-bit campaigns add two value-level rules the multi-unit rule has
//! no unit for: signature-register flips are `Overwritten` when a control
//! transfer zeroes the register before any compare (write-first), and
//! operand-latch flips resolve by the latch's shift count.
//!
//! Pruning applies only where the trace argument is sound: one-shot flip
//! models (intermittent re-assertions and stuck-at forcing perturb state
//! after injection — they bypass the planner exactly like the convergence
//! pruner's quiescence gate), faults injected inside the traced run, and
//! campaigns without the parity-protected cache (the parity checker reads
//! cache data on every access without being part of the trace).
//!
//! The pruned campaign is provably outcome-equivalent to the unpruned one
//! (`tests/prune_equivalence.rs`), and `--paranoid N` re-simulates `N`
//! members per equivalence class at run time as a continuous cross-check.

use crate::campaign::CampaignConfig;
use crate::classify::Outcome;
use crate::experiment::{ExperimentRecord, FaultModel, FaultSpec, GoldenRun, Provenance};
use bera_tcpu::scan::{self, BitLocation};
use bera_tcpu::{Access, AccessTrace, Fnv64, TraceUnit, VisTrace, VisUnit};
use std::collections::HashMap;

/// The planner's decision for one fault-list index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Inject and run this fault on the simulator (it is either live — an
    /// equivalence-class representative — or ineligible for pruning).
    Simulate,
    /// Emit the record analytically: the outcome follows from the golden
    /// access trace alone.
    Analytic(Outcome),
    /// Copy the outcome of the simulated representative at fault-list
    /// index `representative` (always a lower index than this fault's).
    Replicate {
        /// Fault-list index of this class's simulated representative.
        representative: usize,
    },
}

/// Per-rule hit counters and timing for one planner invocation — pure
/// telemetry (never consulted for classification), surfaced through the
/// campaign observer, the telemetry sidecar and `report`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Analytic `Latent` verdicts from the def/use access trace.
    pub defuse_latent: usize,
    /// Analytic `Overwritten` verdicts from the def/use access trace.
    pub defuse_overwritten: usize,
    /// Analytic `Latent` verdicts that needed an EDM-visibility window
    /// (some flipped unit is never sampled again).
    pub vis_latent: usize,
    /// Analytic `Overwritten` verdicts that needed an EDM-visibility
    /// window (a whole-unit deposit precedes every sample).
    pub vis_overwritten: usize,
    /// Signature-register faults proven `Overwritten` by the write-first
    /// rule (a control transfer zeroes the register before any compare).
    pub sig_overwritten: usize,
    /// Operand-latch faults resolved by the value-level shift rule
    /// (either displaced off the latch or migrated bit-identically).
    pub value_resolved: usize,
    /// Live faults merged into an equivalence class via a visibility
    /// window rather than the def/use trace alone.
    pub vis_replicated: usize,
    /// Wall-clock microseconds spent planning (classification only).
    pub plan_micros: u64,
}

impl PlanStats {
    /// Total analytic verdicts attributable to the visibility/value layer
    /// (everything the def/use trace alone could not classify).
    #[must_use]
    pub fn vis_analytic(&self) -> usize {
        self.vis_latent + self.vis_overwritten + self.sig_overwritten + self.value_resolved
    }
}

/// One action per fault-list index, plus the class structure needed for
/// replication and paranoid cross-checking.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    actions: Vec<PlanAction>,
    /// Per index, the `pruned_at` iteration an analytic record carries.
    pruned_at: Vec<Option<usize>>,
    stats: PlanStats,
}

impl CampaignPlan {
    /// A plan that simulates every fault (pruning disabled or ineligible).
    #[must_use]
    pub fn simulate_all(n: usize) -> Self {
        CampaignPlan {
            actions: vec![PlanAction::Simulate; n],
            pruned_at: vec![None; n],
            stats: PlanStats::default(),
        }
    }

    /// Per-rule planner telemetry for this plan.
    #[must_use]
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The action for fault-list index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the planned fault list.
    #[must_use]
    pub fn action(&self, i: usize) -> PlanAction {
        self.actions[i]
    }

    /// The `pruned_at` metadata of the analytic record of index `i`: for a
    /// multi-bit `Overwritten` verdict, the first golden checkpoint past
    /// the last kill — the boundary where a simulation of the fault would
    /// detect the rejoin and splice the golden tail — and `None` for every
    /// other verdict.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the planned fault list.
    #[must_use]
    pub fn pruned_at(&self, i: usize) -> Option<usize> {
        self.pruned_at[i]
    }

    /// All actions, in fault-list order.
    #[must_use]
    pub fn actions(&self) -> &[PlanAction] {
        &self.actions
    }

    /// Number of faults that will be simulated.
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.count(|a| matches!(a, PlanAction::Simulate))
    }

    /// Number of faults classified analytically.
    #[must_use]
    pub fn analytic(&self) -> usize {
        self.count(|a| matches!(a, PlanAction::Analytic(_)))
    }

    /// Number of faults replicated from a class representative.
    #[must_use]
    pub fn replicated(&self) -> usize {
        self.count(|a| matches!(a, PlanAction::Replicate { .. }))
    }

    fn count(&self, pred: impl Fn(&PlanAction) -> bool) -> usize {
        self.actions.iter().filter(|a| pred(a)).count()
    }

    /// The equivalence classes with at least one replicated member:
    /// `(representative index, member indices)`, ordered by representative.
    #[must_use]
    pub fn classes(&self) -> Vec<(usize, Vec<usize>)> {
        let mut by_rep: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, a) in self.actions.iter().enumerate() {
            if let PlanAction::Replicate { representative } = *a {
                by_rep.entry(representative).or_default().push(i);
            }
        }
        let mut classes: Vec<_> = by_rep.into_iter().collect();
        classes.sort_unstable_by_key(|(rep, _)| *rep);
        classes
    }
}

/// `true` when `cfg` is eligible for def/use pruning at all: pruning
/// enabled, a one-shot flip fault model (anything that re-asserts or
/// forces perturbs state the trace does not model), and no parity cache
/// (its checker reads cache data outside the trace hooks).
#[must_use]
pub fn prune_eligible(cfg: &CampaignConfig) -> bool {
    cfg.prune
        && matches!(
            cfg.fault_model,
            FaultModel::SingleBit | FaultModel::AdjacentDoubleBit | FaultModel::Burst { .. }
        )
        && !cfg.loop_cfg.parity_cache
}

/// Plans the campaign: one [`PlanAction`] per fault of `faults`, derived
/// from `golden`'s access traces. The plan is a pure function of the fault
/// list, the configuration and the golden run, so resumed campaigns and
/// farm shards recompute the identical plan (and hence identical
/// representatives).
///
/// # Panics
///
/// Panics if a fault's `location_index` is outside the scan catalog.
#[must_use]
pub fn plan_campaign(
    faults: &[FaultSpec],
    cfg: &CampaignConfig,
    golden: &GoldenRun,
) -> CampaignPlan {
    if !prune_eligible(cfg) {
        return CampaignPlan::simulate_all(faults.len());
    }
    let started = std::time::Instant::now();
    let catalog = scan::catalog();
    let traces = Traces {
        trace: &golden.trace,
        vis: cfg.vis.then_some(&golden.vis),
    };
    let single_bit = cfg.fault_model == FaultModel::SingleBit;
    let mut stats = PlanStats::default();
    let mut pruned_at = vec![None; faults.len()];
    let mut class_reps: HashMap<ClassKey, usize> = HashMap::new();
    let mut actions = Vec::with_capacity(faults.len());
    for (i, fault) in faults.iter().enumerate() {
        let flips: Vec<BitLocation> = cfg
            .fault_model
            .locations(fault.location_index)
            .into_iter()
            .map(|j| catalog[j])
            .collect();
        let verdict = if fault.inject_at >= golden.total_instructions {
            // A fault scheduled at or past the end of the run is never
            // injected (the drive loop completes first); no trace says
            // anything about it.
            Verdict::Opaque
        } else if single_bit {
            single_bit_rules(traces.vis, flips[0], fault.inject_at, &mut stats)
                .unwrap_or_else(|| traces.classify(&flips, fault.inject_at, &mut stats))
        } else {
            traces.classify(&flips, fault.inject_at, &mut stats)
        };
        actions.push(match verdict {
            Verdict::Opaque => PlanAction::Simulate,
            Verdict::Analytic(outcome) => PlanAction::Analytic(outcome),
            Verdict::Killed { last_kill } => {
                if !single_bit {
                    pruned_at[i] = golden
                        .checkpoints
                        .iter()
                        .find(|c| c.machine.instr_count() > last_kill)
                        .map(|c| c.iteration);
                }
                PlanAction::Analytic(Outcome::Overwritten)
            }
            Verdict::Live {
                observed_at,
                surviving,
                via_vis,
            } => match class_reps.entry((fault.location_index, observed_at, surviving)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if via_vis {
                        stats.vis_replicated += 1;
                    }
                    PlanAction::Replicate {
                        representative: *e.get(),
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                    PlanAction::Simulate
                }
            },
        });
    }
    stats.plan_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    CampaignPlan {
        actions,
        pruned_at,
        stats,
    }
}

/// Equivalence-class key of a live fault: (scan-catalog bit index, first
/// observing instant, dense indices of the units still flipped there).
type ClassKey = (usize, u64, Vec<usize>);

/// What the golden traces say about one fault.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Some flipped bit is covered by no trace (or the injection time
    /// falls outside the traced run): simulate.
    Opaque,
    /// The outcome follows from the traces alone.
    Analytic(Outcome),
    /// Every flipped unit is fully overwritten before anything observes
    /// it; the last kill lands at instruction `last_kill`.
    Killed { last_kill: u64 },
    /// The fault is live: first observed at instruction `observed_at`,
    /// with the units of `surviving` (dense indices) still flipped there.
    Live {
        observed_at: u64,
        surviving: Vec<usize>,
        /// The observation involved a visibility window (telemetry only).
        via_vis: bool,
    },
}

/// A flipped bit's unit in the golden traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Trace(TraceUnit),
    Vis(VisUnit),
}

impl Unit {
    /// Dense index over both trace spaces (visibility units follow the
    /// def/use units), for class keys.
    fn index(self) -> usize {
        match self {
            Unit::Trace(u) => u.index(),
            Unit::Vis(u) => TraceUnit::COUNT + u.index(),
        }
    }
}

/// The golden traces the multi-unit rule reads: the def/use trace always,
/// the EDM-visibility trace when that layer is on.
#[derive(Clone, Copy)]
struct Traces<'a> {
    trace: &'a AccessTrace,
    vis: Option<&'a VisTrace>,
}

impl Traces<'_> {
    /// The unit carrying a flip of `bit`: its def/use unit, else a
    /// visibility unit exact between events, else `None`.
    fn unit_of(&self, bit: BitLocation) -> Option<Unit> {
        if let Some(u) = bit.trace_unit() {
            return Some(Unit::Trace(u));
        }
        self.vis?;
        bit.vis_unit()
            .filter(VisUnit::exact_between_events)
            .map(Unit::Vis)
    }

    /// The first golden event of `unit` at or after `inject_at`.
    fn first_access(&self, unit: Unit, inject_at: u64) -> Option<Access> {
        match unit {
            Unit::Trace(u) => self.trace.first_at_or_after(u, inject_at),
            Unit::Vis(u) => self.vis.and_then(|v| v.first_at_or_after(u, inject_at)),
        }
    }

    /// The multi-unit def/use rule (module docs, steps 1–4) for the flips
    /// of one fault injected at `inject_at`.
    fn classify(&self, flips: &[BitLocation], inject_at: u64, stats: &mut PlanStats) -> Verdict {
        let mut units: Vec<(Unit, Option<Access>)> = Vec::with_capacity(flips.len());
        for &bit in flips {
            let Some(unit) = self.unit_of(bit) else {
                return Verdict::Opaque;
            };
            if units.iter().all(|&(u, _)| u != unit) {
                units.push((unit, self.first_access(unit, inject_at)));
            }
        }
        let via_vis = units.iter().any(|(u, _)| matches!(u, Unit::Vis(_)));
        // Intra-instruction order is preserved per unit, so a unit whose
        // first access is a full write is killed even when another unit
        // is read at the same instant — and vice versa.
        let observed_at = units
            .iter()
            .filter_map(|(_, first)| first.filter(|a| !a.kind.is_full_write()))
            .map(|a| a.at)
            .min();
        if let Some(observed_at) = observed_at {
            let surviving = units
                .iter()
                .filter(|(_, first)| first.is_none_or(|a| a.at >= observed_at))
                .map(|(u, _)| u.index())
                .collect();
            return Verdict::Live {
                observed_at,
                surviving,
                via_vis,
            };
        }
        // Every first access is a kill; `None` when some unit has none.
        let last_kill = units
            .iter()
            .try_fold(0, |last, (_, first)| Some(first.as_ref()?.at.max(last)));
        let (latent, overwritten) = if via_vis {
            (&mut stats.vis_latent, &mut stats.vis_overwritten)
        } else {
            (&mut stats.defuse_latent, &mut stats.defuse_overwritten)
        };
        match last_kill {
            Some(last_kill) => {
                *overwritten += 1;
                Verdict::Killed { last_kill }
            }
            None => {
                *latent += 1;
                Verdict::Analytic(Outcome::Latent)
            }
        }
    }
}

/// The value-level rules for single-bit flips the multi-unit rule has no
/// unit for (needs the visibility trace). `None` hands the bit on to the
/// multi-unit rule. Soundness arguments in DESIGN.md §8h and the
/// [`bera_tcpu::vis`] module docs.
fn single_bit_rules(
    vis: Option<&VisTrace>,
    location: BitLocation,
    inject_at: u64,
    stats: &mut PlanStats,
) -> Option<Verdict> {
    let vis = vis?;
    // The operand latch is a two-slot shift register (`a ← b`,
    // `b ← clean value` on every register read). A flip in slot A is
    // deposited over by the first shift; a flip in slot B migrates —
    // bit-identically — into slot A on the first shift and is deposited
    // over by the second. Nothing ever reads the latch, so an undisplaced
    // flip is exactly a latent end-of-run scan diff.
    let shifts_needed = match location {
        BitLocation::OperandA { .. } => 1,
        BitLocation::OperandB { .. } => 2,
        BitLocation::SigReg { .. } => {
            // The signature register is folded (read-modify-written) by
            // every executed instruction, so `golden ⊕ flip` stops
            // describing the faulty value immediately: neither a latent
            // claim (folding may or may not re-converge) nor class merging
            // is sound. The one sound rule is write-first: a control
            // transfer zeroes the register — value-independently — before
            // any compare samples it.
            return Some(match vis.first_at_or_after(VisUnit::Sig, inject_at) {
                Some(a) if a.kind.is_full_write() => {
                    stats.sig_overwritten += 1;
                    Verdict::Analytic(Outcome::Overwritten)
                }
                _ => Verdict::Opaque,
            });
        }
        _ => return None,
    };
    stats.value_resolved += 1;
    Some(Verdict::Analytic(
        if vis.shifts_at_or_after(inject_at) >= shifts_needed {
            Outcome::Overwritten
        } else {
            Outcome::Latent
        },
    ))
}

/// Builds the record of an analytically classified fault. Matches what a
/// simulated run of the same fault produces field-for-field (outcome,
/// zero deviation, no detection, golden outputs), except for the pure
/// provenance metadata (`provenance`, `pruned_at`).
///
/// # Panics
///
/// Panics if `fault.location_index` is outside the scan catalog.
#[must_use]
pub fn analytic_record(
    fault: FaultSpec,
    outcome: Outcome,
    golden: &GoldenRun,
    detail: bool,
) -> ExperimentRecord {
    let location = scan::catalog()[fault.location_index];
    ExperimentRecord {
        fault,
        part: location.part(),
        location,
        outcome,
        max_deviation: 0.0,
        first_strong_iteration: None,
        detection_latency: None,
        outputs: detail.then(|| golden.outputs.clone()),
        pruned_at: None,
        provenance: Provenance::Analytic,
        harness_error: None,
    }
}

/// Builds the record of a replicated class member from its simulated
/// representative. Everything outcome-determined is copied verbatim (the
/// trajectories are identical); the detection latency is re-based from
/// the representative's injection time to the member's — both faults
/// become visible at the same first read, and any trap fires at the same
/// absolute instruction.
#[must_use]
pub fn replicated_record(fault: FaultSpec, rep: &ExperimentRecord) -> ExperimentRecord {
    debug_assert_eq!(
        fault.location_index, rep.fault.location_index,
        "replication across different scan bits is unsound"
    );
    let detection_latency = rep
        .detection_latency
        .map(|l| rep.fault.inject_at + l - fault.inject_at);
    ExperimentRecord {
        fault,
        part: rep.part,
        location: rep.location,
        outcome: rep.outcome,
        max_deviation: rep.max_deviation,
        first_strong_iteration: rep.first_strong_iteration,
        detection_latency,
        outputs: rep.outputs.clone(),
        pruned_at: None,
        provenance: Provenance::Replicated,
        harness_error: None,
    }
}

/// Semantic equality of two records of the *same fault*: everything the
/// simulation determines (outcome, deviation, first strong iteration,
/// detection latency, outputs) must agree bit-for-bit; provenance
/// metadata (`provenance`, `pruned_at`, `harness_error`) is excluded, as
/// it records *how* the classification was obtained, not what it is.
/// This is the equivalence the pruned-vs-unpruned suite and the paranoid
/// cross-check both enforce.
#[must_use]
pub fn records_equivalent(a: &ExperimentRecord, b: &ExperimentRecord) -> bool {
    a.fault == b.fault
        && a.location == b.location
        && a.part == b.part
        && a.outcome == b.outcome
        && a.max_deviation.to_bits() == b.max_deviation.to_bits()
        && a.first_strong_iteration == b.first_strong_iteration
        && a.detection_latency == b.detection_latency
        && a.outputs == b.outputs
}

/// Deterministically picks up to `n` members of an equivalence class for
/// paranoid re-simulation. The choice is *content-addressed*: keyed on
/// the campaign seed, the store's golden digest and the representative's
/// fault spec (never its fault-list position), over a sorted member
/// pool — so two runs of the same campaign, a resumed run, and a CI
/// cross-check all re-simulate exactly the same members regardless of
/// the order in which the class structure was assembled.
#[must_use]
pub fn paranoid_members(
    members: &[usize],
    n: usize,
    seed: u64,
    golden_digest: u64,
    representative: FaultSpec,
) -> Vec<usize> {
    if n == 0 || members.is_empty() {
        return Vec::new();
    }
    let mut picked: Vec<usize> = Vec::new();
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_u64(golden_digest);
    h.write_u64(representative.location_index as u64);
    h.write_u64(representative.inject_at);
    let mut state = h.finish();
    let mut pool: Vec<usize> = members.to_vec();
    pool.sort_unstable();
    while picked.len() < n && !pool.is_empty() {
        // FNV-chained index selection: cheap, deterministic, seed-mixed.
        let mut step = Fnv64::new();
        step.write_u64(state);
        state = step.finish();
        let at = (state as usize) % pool.len();
        picked.push(pool.swap_remove(at));
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::experiment::golden_run;
    use crate::workload::Workload;
    use bera_tcpu::AccessKind;

    fn quick_plan_inputs() -> (CampaignConfig, GoldenRun, Vec<FaultSpec>) {
        let w = Workload::algorithm_one();
        let cfg = CampaignConfig::quick(64, 5);
        let golden = golden_run(&w, &cfg.loop_cfg);
        let faults =
            crate::campaign::FaultList::sample(64, cfg.seed, golden.total_instructions).faults;
        (cfg, golden, faults)
    }

    #[test]
    fn plan_partitions_the_fault_list() {
        let (cfg, golden, faults) = quick_plan_inputs();
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.actions().len(), faults.len());
        assert_eq!(
            plan.simulated() + plan.analytic() + plan.replicated(),
            faults.len()
        );
        assert!(
            plan.analytic() > 0,
            "a uniform sample over the scan chain always hits state that \
             is overwritten or never used"
        );
    }

    #[test]
    fn representatives_precede_their_members() {
        let (cfg, golden, faults) = quick_plan_inputs();
        let plan = plan_campaign(&faults, &cfg, &golden);
        for (i, a) in plan.actions().iter().enumerate() {
            if let PlanAction::Replicate { representative } = *a {
                assert!(
                    representative < i,
                    "member {i} precedes rep {representative}"
                );
                assert_eq!(plan.action(representative), PlanAction::Simulate);
                assert_eq!(
                    faults[representative].location_index, faults[i].location_index,
                    "a class never spans scan bits"
                );
            }
        }
    }

    #[test]
    fn ineligible_configs_simulate_everything() {
        let (mut cfg, golden, faults) = quick_plan_inputs();
        cfg.fault_model = FaultModel::StuckAt { value: false };
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.simulated(), faults.len());

        cfg.fault_model = FaultModel::SingleBit;
        cfg.prune = false;
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.simulated(), faults.len());

        cfg.prune = true;
        cfg.loop_cfg.parity_cache = true;
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.simulated(), faults.len());
    }

    #[test]
    fn injection_past_the_run_end_is_opaque() {
        let (cfg, golden, mut faults) = quick_plan_inputs();
        for f in &mut faults {
            f.inject_at = golden.total_instructions;
        }
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.simulated(), faults.len());
    }

    #[test]
    fn a_partial_write_neither_kills_nor_merges_with_the_full_write_class() {
        // Build a synthetic trace: unit written fully at 100.
        let (cfg, mut golden, _) = quick_plan_inputs();
        let catalog = scan::catalog();
        let loc_index = catalog
            .iter()
            .position(|l| l.trace_unit().is_some())
            .expect("some location is traceable");
        let unit = catalog[loc_index].trace_unit().unwrap();
        golden.trace = AccessTrace::new();
        golden.trace.record(unit, 100, AccessKind::Write);
        let fault = FaultSpec {
            location_index: loc_index,
            inject_at: 50,
        };
        let plan = plan_campaign(&[fault], &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));

        // Narrow the write: the kill evaporates, the fault becomes live.
        golden
            .trace
            .set_kind_for_test(unit, 0, AccessKind::PartialWrite);
        let plan = plan_campaign(&[fault], &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
    }

    #[test]
    fn an_extra_read_defeats_class_merging() {
        let (cfg, mut golden, _) = quick_plan_inputs();
        let catalog = scan::catalog();
        let loc_index = catalog
            .iter()
            .position(|l| l.trace_unit().is_some())
            .expect("some location is traceable");
        let unit = catalog[loc_index].trace_unit().unwrap();
        golden.trace = AccessTrace::new();
        golden.trace.record(unit, 200, AccessKind::Read);
        let faults = [
            FaultSpec {
                location_index: loc_index,
                inject_at: 10,
            },
            FaultSpec {
                location_index: loc_index,
                inject_at: 150,
            },
        ];
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
        assert_eq!(plan.action(1), PlanAction::Replicate { representative: 0 });

        // A read between the two injection times splits the class: the
        // earlier fault is now first observed by a different access.
        golden.trace.insert_for_test(
            unit,
            Access {
                at: 100,
                kind: AccessKind::Read,
            },
        );
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
        assert_eq!(plan.action(1), PlanAction::Simulate, "class must split");
    }

    #[test]
    fn paranoid_member_choice_is_deterministic_and_bounded() {
        let members = vec![3, 9, 14, 20, 31];
        let rep = FaultSpec {
            location_index: 7,
            inject_at: 123,
        };
        let a = paranoid_members(&members, 3, 42, 0xDEAD, rep);
        let b = paranoid_members(&members, 3, 42, 0xDEAD, rep);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|m| members.contains(m)));
        let all = paranoid_members(&members, 10, 42, 0xDEAD, rep);
        assert_eq!(all.len(), members.len(), "capped at the class size");
        assert!(paranoid_members(&members, 0, 42, 0xDEAD, rep).is_empty());
        // Different seeds generally pick different subsets (not asserted
        // strictly — just that the seed participates).
        let _ = paranoid_members(&members, 3, 43, 0xDEAD, rep);
    }

    #[test]
    fn paranoid_member_choice_is_independent_of_assembly_order() {
        // The pool is sorted internally, so the picks are a function of
        // the class *contents* — not of the iteration order (e.g. a
        // HashMap walk) that produced the member list.
        let rep = FaultSpec {
            location_index: 7,
            inject_at: 123,
        };
        let forward = vec![3, 9, 14, 20, 31];
        let shuffled = vec![20, 3, 31, 9, 14];
        assert_eq!(
            paranoid_members(&forward, 3, 42, 0xDEAD, rep),
            paranoid_members(&shuffled, 3, 42, 0xDEAD, rep),
        );
        // And the golden digest participates: a different workload store
        // cross-checks a different sample.
        assert_ne!(
            paranoid_members(&forward, 2, 42, 0xDEAD, rep),
            paranoid_members(&forward, 2, 42, 0xBEEF, rep),
            "digest must perturb the sample for this fixture"
        );
    }

    fn catalog_index(pred: impl Fn(&BitLocation) -> bool) -> usize {
        scan::catalog()
            .iter()
            .position(pred)
            .expect("catalog holds the requested location")
    }

    #[test]
    fn vis_windows_classify_the_untraceable_population() {
        let (cfg, golden, _) = quick_plan_inputs();
        assert!(cfg.vis);
        // PSR bits 2..8 are never consulted by this ISA: latent.
        let psr7 = catalog_index(|l| matches!(l, BitLocation::Psr { bit: 7 }));
        // The trap bookkeeping registers are written only by the (never
        // taken in golden) trap path: latent.
        let epc = catalog_index(|l| matches!(l, BitLocation::Epc { bit: 0 }));
        let faults = [
            FaultSpec {
                location_index: psr7,
                inject_at: 10,
            },
            FaultSpec {
                location_index: epc,
                inject_at: 10,
            },
        ];
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Latent));
        assert_eq!(plan.action(1), PlanAction::Analytic(Outcome::Latent));
        assert_eq!(plan.stats().vis_latent, 2);

        // Without the visibility layer both fall back to simulation.
        let mut no_vis = cfg.clone();
        no_vis.vis = false;
        let plan = plan_campaign(&faults, &no_vis, &golden);
        assert_eq!(plan.simulated(), faults.len());
        assert_eq!(plan.stats().vis_analytic(), 0);
    }

    #[test]
    fn signature_faults_use_only_the_write_first_rule() {
        let (cfg, golden, _) = quick_plan_inputs();
        let sig = catalog_index(|l| matches!(l, BitLocation::SigReg { bit: 3 }));
        let sig_slot = golden.vis.accesses(bera_tcpu::VisUnit::Sig);
        assert!(
            !sig_slot.is_empty(),
            "the workload loops, so control transfers zero the signature"
        );
        // Find an injection instant whose first signature event is a
        // write (a control-transfer zeroing): provably overwritten. A
        // `sig` compare's zeroing write trails its same-instant sampling
        // read, so only a write that *leads* its instant qualifies.
        let first_write = sig_slot
            .iter()
            .enumerate()
            .find(|(i, a)| a.kind.is_full_write() && (*i == 0 || sig_slot[i - 1].at < a.at))
            .expect("some transfer zeroes the signature")
            .1
            .at;
        let plan = plan_campaign(
            &[FaultSpec {
                location_index: sig,
                inject_at: first_write,
            }],
            &cfg,
            &golden,
        );
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.stats().sig_overwritten, 1);

        // Past the last event the register is folded to the end of run:
        // no latent claim is sound, so the planner must simulate.
        let last = sig_slot.last().unwrap().at;
        if last + 1 < golden.total_instructions {
            let plan = plan_campaign(
                &[FaultSpec {
                    location_index: sig,
                    inject_at: last + 1,
                }],
                &cfg,
                &golden,
            );
            assert_eq!(plan.action(0), PlanAction::Simulate);
        }
    }

    #[test]
    fn operand_latch_faults_resolve_by_shift_count() {
        let (cfg, golden, _) = quick_plan_inputs();
        let op_a = catalog_index(|l| matches!(l, BitLocation::OperandA { bit: 4 }));
        let op_b = catalog_index(|l| matches!(l, BitLocation::OperandB { bit: 4 }));
        // Early in the run there are plenty of register reads left: both
        // slots are displaced with clean values.
        let early = [
            FaultSpec {
                location_index: op_a,
                inject_at: 5,
            },
            FaultSpec {
                location_index: op_b,
                inject_at: 5,
            },
        ];
        let plan = plan_campaign(&early, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.action(1), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.stats().value_resolved, 2);
        // Past the final shift nothing displaces the latch: latent.
        let last_shift_plus = golden.total_instructions - 1;
        if golden.vis.shifts_at_or_after(last_shift_plus) == 0 {
            let plan = plan_campaign(
                &[FaultSpec {
                    location_index: op_a,
                    inject_at: last_shift_plus,
                }],
                &cfg,
                &golden,
            );
            assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Latent));
        }
    }

    #[test]
    fn fetch_valid_faults_always_simulate() {
        let (cfg, golden, _) = quick_plan_inputs();
        let fv = catalog_index(|l| matches!(l, BitLocation::FetchValid));
        let plan = plan_campaign(
            &[FaultSpec {
                location_index: fv,
                inject_at: 10,
            }],
            &cfg,
            &golden,
        );
        assert_eq!(plan.action(0), PlanAction::Simulate);
    }

    // --- The multi-unit rule on synthetic traces -------------------------

    const REG3_BIT: BitLocation = BitLocation::Reg { index: 3, bit: 5 };
    const REG4_BIT: BitLocation = BitLocation::Reg { index: 4, bit: 0 };
    const PSR1_BIT: BitLocation = BitLocation::Psr { bit: 1 };
    const REG3: Unit = Unit::Trace(TraceUnit::Reg(3));
    const REG4: Unit = Unit::Trace(TraceUnit::Reg(4));
    const PSR1: Unit = Unit::Vis(VisUnit::Psr(1));

    fn trace_with(entries: &[(TraceUnit, u64, AccessKind)]) -> AccessTrace {
        let mut t = AccessTrace::new();
        for &(u, at, kind) in entries {
            t.record(u, at, kind);
        }
        t
    }

    fn verdict(
        trace: &AccessTrace,
        vis: Option<&VisTrace>,
        flips: &[BitLocation],
        inject_at: u64,
    ) -> Verdict {
        Traces { trace, vis }.classify(flips, inject_at, &mut PlanStats::default())
    }

    fn live(observed_at: u64, surviving: &[Unit]) -> Verdict {
        Verdict::Live {
            observed_at,
            surviving: surviving.iter().map(|u| u.index()).collect(),
            via_vis: false,
        }
    }

    #[test]
    fn read_then_write_at_one_instant_is_live() {
        // Intra-instruction order: the read observes the flip before the
        // write lands — e.g. `add r3, r3, r0`.
        let t = trace_with(&[
            (TraceUnit::Reg(3), 10, AccessKind::Read),
            (TraceUnit::Reg(3), 10, AccessKind::Write),
        ]);
        assert_eq!(verdict(&t, None, &[REG3_BIT], 5), live(10, &[REG3]));
    }

    #[test]
    fn write_then_read_at_one_instant_kills() {
        // The full write lands first (from clean inputs), so the read at
        // the same instant observes the golden value.
        let t = trace_with(&[
            (TraceUnit::Reg(3), 10, AccessKind::Write),
            (TraceUnit::Reg(3), 10, AccessKind::Read),
        ]);
        assert_eq!(
            verdict(&t, None, &[REG3_BIT], 5),
            Verdict::Killed { last_kill: 10 }
        );
    }

    #[test]
    fn a_kill_and_a_live_touch_at_one_instant_is_live() {
        // One instruction fully writes r3 but reads r4: the r4 flip is
        // observed, and the r3 flip is still in place at that instant.
        let t = trace_with(&[
            (TraceUnit::Reg(3), 10, AccessKind::Write),
            (TraceUnit::Reg(4), 10, AccessKind::Read),
        ]);
        assert_eq!(
            verdict(&t, None, &[REG3_BIT, REG4_BIT], 5),
            live(10, &[REG3, REG4])
        );
    }

    #[test]
    fn a_partial_write_is_a_use() {
        let t = trace_with(&[(TraceUnit::Reg(3), 10, AccessKind::PartialWrite)]);
        assert_eq!(verdict(&t, None, &[REG3_BIT], 5), live(10, &[REG3]));
        // In a multi-unit set too: a later full write of the other unit
        // does not turn the set into an overwritten one.
        let t = trace_with(&[
            (TraceUnit::Reg(3), 10, AccessKind::PartialWrite),
            (TraceUnit::Reg(4), 20, AccessKind::Write),
        ]);
        assert_eq!(
            verdict(&t, None, &[REG3_BIT, REG4_BIT], 5),
            live(10, &[REG3, REG4])
        );
    }

    #[test]
    fn the_surviving_set_shrinks_before_a_split() {
        // r3's flip is killed at 10; only r4's is still in place when r4
        // is read at 30, so the class key names r4 alone.
        let t = trace_with(&[
            (TraceUnit::Reg(3), 10, AccessKind::Write),
            (TraceUnit::Reg(4), 30, AccessKind::Read),
        ]);
        assert_eq!(
            verdict(&t, None, &[REG3_BIT, REG4_BIT], 5),
            live(30, &[REG4])
        );
    }

    #[test]
    fn a_multi_unit_set_is_overwritten_at_its_last_kill_or_latent() {
        let t = trace_with(&[
            (TraceUnit::Reg(3), 10, AccessKind::Write),
            (TraceUnit::Reg(4), 30, AccessKind::Write),
        ]);
        assert_eq!(
            verdict(&t, None, &[REG3_BIT, REG4_BIT], 5),
            Verdict::Killed { last_kill: 30 }
        );
        // Past r4's kill nothing touches r4 again: its flip reaches the
        // end-of-run state diff although r3's is killed.
        let t = trace_with(&[(TraceUnit::Reg(3), 10, AccessKind::Write)]);
        assert_eq!(
            verdict(&t, None, &[REG3_BIT, REG4_BIT], 5),
            Verdict::Analytic(Outcome::Latent)
        );
    }

    #[test]
    fn a_mixed_trace_and_vis_set_needs_both_units_killed() {
        let t = trace_with(&[(TraceUnit::Reg(3), 10, AccessKind::Write)]);
        // The PSR flag is consulted at 30: live, keyed on the flag alone.
        let mut v = VisTrace::new();
        v.record(VisUnit::Psr(1), 30, AccessKind::Read);
        assert_eq!(
            verdict(&t, Some(&v), &[REG3_BIT, PSR1_BIT], 5),
            Verdict::Live {
                observed_at: 30,
                surviving: vec![PSR1.index()],
                via_vis: true,
            }
        );
        // A cmp deposits the flag at 30 instead: both units are killed.
        let mut v = VisTrace::new();
        v.record(VisUnit::Psr(1), 30, AccessKind::Write);
        assert_eq!(
            verdict(&t, Some(&v), &[REG3_BIT, PSR1_BIT], 5),
            Verdict::Killed { last_kill: 30 }
        );
        // Without the visibility layer the flag has no unit at all.
        assert_eq!(verdict(&t, None, &[REG3_BIT, PSR1_BIT], 5), Verdict::Opaque);
    }

    #[test]
    fn vis_units_resolve_from_the_vis_trace() {
        // Golden: cmp deposits the flag at 10, a beq consults it at 20.
        let t = AccessTrace::new();
        let mut v = VisTrace::new();
        v.record(VisUnit::Psr(1), 10, AccessKind::Write);
        v.record(VisUnit::Psr(1), 20, AccessKind::Read);
        assert_eq!(
            verdict(&t, Some(&v), &[PSR1_BIT], 5),
            Verdict::Killed { last_kill: 10 }
        );
        assert!(matches!(
            verdict(&t, Some(&v), &[PSR1_BIT], 15),
            Verdict::Live {
                observed_at: 20,
                ..
            }
        ));
        assert_eq!(
            verdict(&t, Some(&v), &[PSR1_BIT], 21),
            Verdict::Analytic(Outcome::Latent)
        );
    }

    #[test]
    fn multi_bit_sets_touching_sig_the_operand_latch_or_fetch_valid_simulate() {
        let t = AccessTrace::new();
        let v = VisTrace::new();
        for opaque in [
            BitLocation::SigReg { bit: 2 },
            BitLocation::OperandA { bit: 0 },
            BitLocation::OperandB { bit: 0 },
            BitLocation::FetchValid,
        ] {
            assert_eq!(
                verdict(&t, Some(&v), &[REG3_BIT, opaque], 5),
                Verdict::Opaque,
                "{opaque:?}"
            );
        }

        // End to end: the write-first rule proves a single-bit signature
        // flip overwritten, but a double-bit flip over the same bits
        // simulates.
        let (mut cfg, golden, _) = quick_plan_inputs();
        let sig = catalog_index(|l| matches!(l, BitLocation::SigReg { bit: 3 }));
        let sig_slot = golden.vis.accesses(VisUnit::Sig);
        let first_write = sig_slot
            .iter()
            .enumerate()
            .find(|(i, a)| a.kind.is_full_write() && (*i == 0 || sig_slot[i - 1].at < a.at))
            .expect("some transfer zeroes the signature")
            .1
            .at;
        let fault = [FaultSpec {
            location_index: sig,
            inject_at: first_write,
        }];
        let plan = plan_campaign(&fault, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));
        cfg.fault_model = FaultModel::AdjacentDoubleBit;
        let plan = plan_campaign(&fault, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
    }

    #[test]
    fn multi_bit_faults_plan_with_pruned_at_and_merge_classes() {
        let (mut cfg, mut golden, _) = quick_plan_inputs();
        cfg.fault_model = FaultModel::AdjacentDoubleBit;
        // Reg 3 bits 5 and 6: one unit, written at 100 and read at 300.
        let r3 = catalog_index(|l| *l == REG3_BIT);
        golden.trace = trace_with(&[
            (TraceUnit::Reg(3), 100, AccessKind::Write),
            (TraceUnit::Reg(3), 300, AccessKind::Read),
        ]);
        let at = |inject_at| FaultSpec {
            location_index: r3,
            inject_at,
        };
        let faults = [at(50), at(150), at(250), at(301)];
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.action(1), PlanAction::Simulate);
        assert_eq!(plan.action(2), PlanAction::Replicate { representative: 1 });
        assert_eq!(plan.action(3), PlanAction::Analytic(Outcome::Latent));
        // A multi-bit kill carries the checkpoint a simulation would
        // splice at; no other verdict carries one.
        let splice = golden
            .checkpoints
            .iter()
            .find(|c| c.machine.instr_count() > 100)
            .map(|c| c.iteration);
        assert!(splice.is_some(), "the quick run captures checkpoints");
        assert_eq!(plan.pruned_at(0), splice);
        assert_eq!(plan.pruned_at(3), None);

        // The single-bit model classifies the same way but keeps no
        // `pruned_at`.
        cfg.fault_model = FaultModel::SingleBit;
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.pruned_at(0), None);
    }

    #[test]
    fn vis_live_faults_merge_on_the_sampling_position() {
        use bera_tcpu::VisUnit;
        let (cfg, mut golden, _) = quick_plan_inputs();
        assert!(golden.total_instructions > 300);
        let psr0 = catalog_index(|l| matches!(l, BitLocation::Psr { bit: 0 }));
        // Synthetic windows: a cmp deposits the EQ flag at 100, a branch
        // consults it at 200. Two flips landing inside (100, 200] are
        // first observed by the same consult — one class; a flip before
        // the deposit is erased by it.
        golden.vis = bera_tcpu::VisTrace::new();
        golden.vis.record(VisUnit::Psr(0), 100, AccessKind::Write);
        golden.vis.record(VisUnit::Psr(0), 200, AccessKind::Read);
        let faults = [
            FaultSpec {
                location_index: psr0,
                inject_at: 150,
            },
            FaultSpec {
                location_index: psr0,
                inject_at: 200,
            },
            FaultSpec {
                location_index: psr0,
                inject_at: 50,
            },
        ];
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
        assert_eq!(plan.action(1), PlanAction::Replicate { representative: 0 });
        assert_eq!(plan.action(2), PlanAction::Analytic(Outcome::Overwritten));
        assert_eq!(plan.stats().vis_replicated, 1);
        assert_eq!(plan.stats().vis_overwritten, 1);

        // Adversarial: one extra EDM sample inside the window splits the
        // class — the earlier fault is now observed by a different read.
        golden.vis.insert_for_test(
            VisUnit::Psr(0),
            Access {
                at: 170,
                kind: AccessKind::Read,
            },
        );
        let plan = plan_campaign(&faults, &cfg, &golden);
        assert_eq!(plan.action(0), PlanAction::Simulate);
        assert_eq!(plan.action(1), PlanAction::Simulate, "class must split");
    }
}

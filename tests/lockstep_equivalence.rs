//! The multi-unit planner rule's equivalence suite.
//!
//! Multi-bit flips used to be resolved by a lockstep batch engine that
//! walked each replica forward against the golden run and split it off at
//! its first divergence. That walk is now one closed-form rule in
//! `planner::plan_campaign` (`DESIGN.md` § 8f): every flipped bit maps to
//! a def/use or visibility unit, and the first golden access to each unit
//! at or after injection decides between `Latent`, `Overwritten`, a shared
//! equivalence class or a simulation. The contract is unchanged: a planned
//! ("batched") campaign is a pure wall-clock optimisation over plain
//! ("scalar") simulation, `--no-prune`. Every record carries the
//! classification a simulation of that fault would have produced,
//! differing at most in provenance metadata. The tests keep the seeds and
//! shapes the lockstep engine was held to:
//!
//! * fixed-seed 500-fault adjacent double-bit campaigns on both algorithms
//!   are compared record-for-record against their `prune: false` twins;
//! * every fault model gets the same comparison at seed 43 — the flip
//!   models through the planner rule, which must classify some multi-bit
//!   faults analytically, the re-asserting models (intermittent, stuck-at)
//!   through a bypass where even the bytes must match;
//! * the seed-47 untraceable fault list, whose multi-bit replicas can only
//!   be classified through visibility units;
//! * a property test over random seeds, both algorithms and the multi-bit
//!   flip models at burst widths 1–6.

use bera_goofi::campaign::{run_fault_list, run_scifi_campaign_observed, CampaignConfig};
use bera_goofi::experiment::{golden_run, ExperimentRecord, FaultModel, FaultSpec, Provenance};
use bera_goofi::observer::NullObserver;
use bera_goofi::planner::records_equivalent;
use bera_goofi::workload::Workload;
use bera_tcpu::scan;
use proptest::prelude::*;

fn run(workload: &Workload, cfg: &CampaignConfig) -> Vec<ExperimentRecord> {
    run_scifi_campaign_observed(workload, cfg, &NullObserver).records
}

fn analytic_count(records: &[ExperimentRecord]) -> usize {
    records
        .iter()
        .filter(|r| r.provenance == Provenance::Analytic)
        .count()
}

/// Asserts record-for-record equivalence in the optimiser's sense:
/// identical classification, differing at most in provenance metadata.
fn assert_equivalent(batched: &[ExperimentRecord], scalar: &[ExperimentRecord]) {
    assert_eq!(batched.len(), scalar.len());
    for (i, (b, s)) in batched.iter().zip(scalar).enumerate() {
        assert!(
            records_equivalent(b, s),
            "fault index {i} diverges\nbatched: {b:?}\nscalar:  {s:?}"
        );
    }
}

fn batched_equivalence_500(workload: &Workload, seed: u64) {
    let mut cfg = CampaignConfig::quick(500, seed);
    cfg.fault_model = FaultModel::AdjacentDoubleBit;
    cfg.threads = 0; // all cores; sharding is outcome-invariant
    let batched = run(workload, &cfg);
    cfg.prune = false;
    let scalar = run(workload, &cfg);
    assert_equivalent(&batched, &scalar);

    assert_eq!(analytic_count(&scalar), 0, "--no-prune is plain simulation");
    assert!(
        analytic_count(&batched) > 0,
        "the planner must classify some double-bit faults analytically"
    );
    for r in &batched {
        if r.provenance == Provenance::Analytic {
            assert!(
                matches!(
                    r.outcome,
                    bera_goofi::Outcome::Latent | bera_goofi::Outcome::Overwritten
                ),
                "analytic record with outcome {:?}",
                r.outcome
            );
        }
    }
}

#[test]
fn batched_algorithm_one_is_record_for_record_identical_to_scalar() {
    batched_equivalence_500(&Workload::algorithm_one(), 41);
}

#[test]
fn batched_algorithm_two_is_record_for_record_identical_to_scalar() {
    batched_equivalence_500(&Workload::algorithm_two(), 42);
}

#[test]
fn every_fault_model_matches_its_scalar_run() {
    let workload = Workload::algorithm_one();
    let models = [
        FaultModel::SingleBit,
        FaultModel::AdjacentDoubleBit,
        FaultModel::Intermittent {
            reassert_iterations: 2,
        },
        FaultModel::StuckAt { value: false },
        FaultModel::StuckAt { value: true },
        FaultModel::Burst { width: 3 },
    ];
    for model in models {
        let mut cfg = CampaignConfig::quick(120, 43);
        cfg.fault_model = model;
        let batched = run(&workload, &cfg);
        cfg.prune = false;
        let scalar = run(&workload, &cfg);

        assert_equivalent(&batched, &scalar);
        assert_eq!(analytic_count(&scalar), 0, "--no-prune is plain simulation");
        let json = |rs: &[ExperimentRecord]| -> Vec<String> {
            rs.iter()
                .map(|r| serde_json::to_string(r).expect("serialize"))
                .collect()
        };
        match model {
            // A non-quiescent injector re-asserts between trace samples,
            // so first-access reasoning is unsound and the planner must
            // route the whole campaign down the identical simulation path.
            FaultModel::Intermittent { .. } | FaultModel::StuckAt { .. } => {
                assert_eq!(json(&batched), json(&scalar), "{model:?} must bypass");
            }
            FaultModel::SingleBit | FaultModel::AdjacentDoubleBit | FaultModel::Burst { .. } => {
                assert!(
                    analytic_count(&batched) > 0,
                    "{model:?} must classify some faults analytically"
                );
            }
        }
    }
}

/// A pinned fault list over the state the def/use trace cannot see —
/// PSR flags, the signature register, cache metadata, the store and fill
/// buffers — where a multi-bit fault is classified through the
/// visibility units of its bits. Under every fault model the planned run
/// must stay record-for-record equivalent to plain simulation, and for
/// the multi-bit flip models the visibility units must actually classify
/// some of these faults.
#[test]
fn untraceable_locations_batch_equivalently_across_models() {
    let workload = Workload::algorithm_one();
    let base = CampaignConfig::quick(24, 47);
    let golden = golden_run(&workload, &base.loop_cfg);
    let faults: Vec<FaultSpec> = scan::catalog()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            use scan::BitLocation::*;
            matches!(
                l,
                Psr { .. }
                    | SigReg { .. }
                    | CacheTag { .. }
                    | CacheValid { .. }
                    | CacheDirty { .. }
                    | StoreBufAddr { .. }
                    | StoreBufData { .. }
                    | StoreBufValid
                    | FillBufAddr { .. }
                    | FillBufData { .. }
                    | FillBufParity
                    | FillBufValid
            )
        })
        .map(|(i, _)| i)
        .step_by(7)
        .flat_map(|location_index| {
            let total = golden.total_instructions;
            [total / 4, total / 2].map(|inject_at| FaultSpec {
                location_index,
                inject_at,
            })
        })
        .collect();
    assert!(faults.len() >= 40, "the pinned list must cover the set");

    let models = [
        FaultModel::SingleBit,
        FaultModel::AdjacentDoubleBit,
        FaultModel::Intermittent {
            reassert_iterations: 2,
        },
        FaultModel::StuckAt { value: false },
        FaultModel::Burst { width: 3 },
    ];
    for model in models {
        let mut cfg = base.clone();
        cfg.fault_model = model;
        let batched = run_fault_list(&workload, &cfg, &golden, &faults);
        cfg.prune = false;
        let scalar = run_fault_list(&workload, &cfg, &golden, &faults);
        assert_equivalent(&batched, &scalar);
        assert_eq!(analytic_count(&scalar), 0, "--no-prune is plain simulation");

        if matches!(
            model,
            FaultModel::AdjacentDoubleBit | FaultModel::Burst { .. }
        ) {
            assert!(
                analytic_count(&batched) > 0,
                "{model:?} must classify some untraceable faults analytically"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random-seed generalisation of the fixed-seed suites above, over
    /// both algorithms and the multi-bit flip models at every burst width
    /// from 1 to 6: planned and plainly simulated campaigns agree record
    /// for record.
    #[test]
    fn batching_is_outcome_invariant_for_random_seeds(
        seed in 0u64..1_000,
        width in 0usize..7,
    ) {
        let workload = if seed.is_multiple_of(2) {
            Workload::algorithm_one()
        } else {
            Workload::algorithm_two()
        };
        let mut cfg = CampaignConfig::quick(24, seed);
        cfg.fault_model = match width {
            0 => FaultModel::AdjacentDoubleBit,
            w => FaultModel::Burst { width: w },
        };
        let batched = run(&workload, &cfg);
        cfg.prune = false;
        let scalar = run(&workload, &cfg);
        prop_assert_eq!(batched.len(), scalar.len());
        for (b, s) in batched.iter().zip(&scalar) {
            prop_assert!(records_equivalent(b, s), "{:?} vs {:?}", b, s);
        }
    }
}

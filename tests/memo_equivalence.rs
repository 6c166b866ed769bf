//! Equivalence of the trajectory memo (DESIGN.md §8k) with plain
//! simulation.
//!
//! A planned, checkpointed campaign ends a run as soon as its state at a
//! stride boundary equals the state an earlier run of the campaign had
//! there, and takes that run's result. The claim is that this changes no
//! record byte:
//!
//! * on both algorithms and under all five fault models, with one and
//!   with four worker threads, every simulated record of a planned
//!   campaign serializes identically to the same fault's record in the
//!   `prune: false` twin (where neither the planner nor the memo runs),
//!   and every analytic or replicated record is equivalent to it in the
//!   planner's sense — while the flip models do join;
//! * in detail mode a joined record carries the outputs a simulation to
//!   the end produces;
//! * the memo key is exact: a state that differs from a stored one in one
//!   data word of its difference, one CPU field or its instruction offset
//!   does not join, while the unperturbed state does — and the offset is
//!   written by the key builder itself, not only compared by the lookup.

use bera_goofi::campaign::{run_scifi_campaign_observed, CampaignConfig};
use bera_goofi::classify::Outcome;
use bera_goofi::experiment::{golden_run, ExperimentRecord, FaultModel, LoopConfig, Provenance};
use bera_goofi::memo::{boundary_key, MemoResult, Trail, TrajectoryMemo};
use bera_goofi::observer::{CampaignObserver, NullObserver, ObserverSet, Telemetry};
use bera_goofi::planner::records_equivalent;
use bera_goofi::workload::Workload;
use bera_goofi::GoldenRun;
use bera_tcpu::machine::Machine;
use bera_tcpu::mem::{RAM_BASE, RAM_SIZE, STACK_BASE, STACK_SIZE};
use bera_tcpu::scan;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, OnceLock};

/// Dense enough in time (500 faults over 30 iterations) that runs of the
/// same campaign meet in one state at a boundary.
const FAULTS: usize = 500;
const ITERATIONS: usize = 30;
const SEED: u64 = 5;

const MODELS: [FaultModel; 5] = [
    FaultModel::SingleBit,
    FaultModel::AdjacentDoubleBit,
    FaultModel::Intermittent {
        reassert_iterations: 2,
    },
    FaultModel::StuckAt { value: true },
    FaultModel::Burst { width: 3 },
];

fn config(model: FaultModel, threads: usize, prune: bool, detail: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(FAULTS, SEED);
    cfg.loop_cfg = LoopConfig::short(ITERATIONS);
    cfg.fault_model = model;
    cfg.threads = threads;
    cfg.prune = prune;
    cfg.detail = detail;
    cfg
}

fn json(record: &ExperimentRecord) -> String {
    serde_json::to_string(record).expect("records serialize")
}

/// Collects the fault indices whose runs joined an earlier run.
#[derive(Default)]
struct Joins(Mutex<Vec<usize>>);

impl CampaignObserver for Joins {
    fn memo_joined(&self, index: usize, _iteration: usize) {
        self.0.lock().unwrap().push(index);
    }
}

/// Runs the planned campaign and returns its records with the indices
/// that joined, after checking them against the plain-simulation twin.
fn assert_matches_plain(
    workload: &Workload,
    planned_cfg: &CampaignConfig,
    plain: &[ExperimentRecord],
) -> (Vec<ExperimentRecord>, Vec<usize>) {
    let joins = Joins::default();
    let telemetry = Telemetry::new(FAULTS);
    let mut observers = ObserverSet::new();
    observers.push(&joins);
    observers.push(&telemetry);
    let planned = run_scifi_campaign_observed(workload, planned_cfg, &observers).records;
    let joined = joins.0.into_inner().unwrap();
    assert_eq!(telemetry.snapshot().memo_joined, joined.len());
    assert_eq!(planned.len(), plain.len());
    for (i, (p, u)) in planned.iter().zip(plain).enumerate() {
        if p.provenance == Provenance::Simulated {
            assert_eq!(
                json(p),
                json(u),
                "{} {} threads {}: simulated record {i} differs from plain simulation \
                 (joined: {})",
                workload.name(),
                planned_cfg.fault_model,
                planned_cfg.threads,
                joined.contains(&i)
            );
        } else {
            assert!(
                records_equivalent(p, u),
                "fault index {i} diverges\nplanned: {p:?}\nplain:   {u:?}"
            );
        }
    }
    for &i in &joined {
        assert_eq!(planned[i].provenance, Provenance::Simulated);
    }
    (planned, joined)
}

#[test]
fn planned_campaigns_match_plain_simulation_under_every_model() {
    for workload in [Workload::algorithm_one(), Workload::algorithm_two()] {
        for model in MODELS {
            let plain = run_scifi_campaign_observed(
                &workload,
                &config(model, 1, false, false),
                &NullObserver,
            )
            .records;
            for threads in [1, 4] {
                let (_, joined) =
                    assert_matches_plain(&workload, &config(model, threads, true, false), &plain);
                let flips = matches!(
                    model,
                    FaultModel::SingleBit
                        | FaultModel::AdjacentDoubleBit
                        | FaultModel::Burst { .. }
                );
                // One thread is schedule-free: every earlier run has
                // finished before the next starts, so the flip models must
                // join, or this test checks nothing.
                if threads == 1 && flips {
                    assert!(
                        !joined.is_empty(),
                        "{} {model}: no run joined the memo",
                        workload.name()
                    );
                }
                if matches!(model, FaultModel::StuckAt { .. }) {
                    assert!(joined.is_empty(), "a stuck-at fault is never quiescent");
                }
            }
        }
    }
}

#[test]
fn a_joined_record_carries_the_simulated_outputs_in_detail_mode() {
    let workload = Workload::algorithm_two();
    let plain = run_scifi_campaign_observed(
        &workload,
        &config(FaultModel::SingleBit, 1, false, true),
        &NullObserver,
    )
    .records;
    let (planned, joined) = assert_matches_plain(
        &workload,
        &config(FaultModel::SingleBit, 1, true, true),
        &plain,
    );
    assert!(!joined.is_empty(), "the detail campaign must join");
    for i in joined {
        let simulated = plain[i].outputs.as_ref().expect("detail mode logs outputs");
        assert_eq!(simulated.len(), ITERATIONS);
        assert_eq!(
            planned[i].outputs.as_ref(),
            Some(simulated),
            "fault index {i}"
        );
    }
}

fn shared_golden() -> &'static GoldenRun {
    static GOLDEN: OnceLock<GoldenRun> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let mut cfg = LoopConfig::short(24);
        cfg.checkpoint_stride = 4;
        golden_run(&Workload::algorithm_one(), &cfg)
    })
}

fn latent() -> Arc<MemoResult> {
    Arc::new(MemoResult {
        outcome: Outcome::Latent,
        max_deviation: 0.0,
        first_strong_iteration: None,
        pruned_at: None,
        trap_at: None,
        outputs: None,
    })
}

fn data_addr(raw_word: usize) -> u32 {
    let ram_words = (RAM_SIZE / 4) as usize;
    let idx = raw_word % (ram_words + (STACK_SIZE / 4) as usize);
    if idx < ram_words {
        RAM_BASE + (idx as u32) * 4
    } else {
        STACK_BASE + ((idx - ram_words) as u32) * 4
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A stored state — a checkpoint with one scan bit flipped and one data
    /// word changed — is joined by an identical state at the same boundary,
    /// and by no state that differs from it in one stored data word, one
    /// CPU field or the instruction offset.
    #[test]
    fn one_perturbation_of_a_stored_state_defeats_the_join(
        raw_checkpoint in 0usize..1_000,
        raw_location in 0usize..1_000_000,
        raw_other in 0usize..1_000_000,
        raw_word in 0usize..1_000_000,
        xor in 1u32..u32::MAX,
        xor2 in 1u32..u32::MAX,
        which in 0usize..3,
    ) {
        let golden = shared_golden();
        let ckpt = &golden.checkpoints[raw_checkpoint % golden.checkpoints.len()];
        let k = ckpt.iteration;
        let addr = data_addr(raw_word);

        let mut stored = ckpt.machine.clone();
        stored.scan_flip(scan::catalog()[raw_location % scan::catalog().len()]);
        let word = stored.memory().read_word(addr).expect("mapped data word").0;
        prop_assert!(stored.poke_word(addr, word ^ xor));
        let mut key = Vec::new();
        boundary_key(&stored, &ckpt.machine, &[], &mut key);
        let memo = TrajectoryMemo::new();
        let mut trail = Trail::default();
        trail.record(&key, k, 4);
        memo.publish(trail, &latent());

        let twin = stored.clone();
        let mut probe = Vec::new();
        boundary_key(&twin, &ckpt.machine, &[], &mut probe);
        prop_assert!(memo.lookup(&probe, k).is_some(), "the same state joins");
        prop_assert!(memo.lookup(&probe, k + 4).is_none(), "only at its boundary");

        match which {
            0 => {
                // The stored data word, now holding another value.
                let mut other = stored.clone();
                prop_assert!(other.poke_word(addr, word ^ xor ^ xor2));
                boundary_key(&other, &ckpt.machine, &[], &mut probe);
            }
            1 => {
                // One more (or one fewer) differing CPU bit.
                let mut other = stored.clone();
                other.scan_flip(scan::catalog()[raw_other % scan::catalog().len()]);
                boundary_key(&other, &ckpt.machine, &[], &mut probe);
            }
            _ => {
                // The same machine state reached with another instruction
                // count: the offset is the key's first word (that
                // `boundary_key` writes it is checked below, by
                // `the_instruction_offset_from_the_checkpoint_is_part_of_the_key`).
                probe[0] = probe[0].wrapping_add(u64::from(xor2));
            }
        }
        prop_assert_ne!(&probe, &key);
        prop_assert!(memo.lookup(&probe, k).is_none(), "perturbation {} must not join", which);
    }
}

/// The instruction-count offset is built into the key: one machine state
/// keyed against two checkpoints that differ only in their instruction
/// count (which `state_equals` ignores) gives two keys, and the state
/// published against one does not join against the other. Without the
/// offset, a run that reached a stored state with another instruction
/// count would take a hang verdict and a trap instant that are not its
/// own.
#[test]
fn the_instruction_offset_from_the_checkpoint_is_part_of_the_key() {
    // A one-instruction spin loop: every retired instruction leaves the
    // architectural state as it was and advances only the count.
    let program =
        bera_tcpu::asm::assemble(".text\nstart:\n    jmp start\n").expect("spin loop assembles");
    let mut spin = Machine::new();
    spin.load_program(&program);
    let _ = spin.run(100);
    let early = spin.clone();
    let _ = spin.run(1);
    let late = spin;
    assert!(
        late.state_equals(&early),
        "the spin loop must not change state"
    );
    assert_eq!(late.instr_count(), early.instr_count() + 1);

    for location in [0, scan::catalog().len() / 2] {
        let mut state = early.clone();
        state.scan_flip(scan::catalog()[location]);
        let (mut against_early, mut against_late) = (Vec::new(), Vec::new());
        boundary_key(&state, &early, &[], &mut against_early);
        boundary_key(&state, &late, &[], &mut against_late);
        assert_eq!(
            against_early[1..],
            against_late[1..],
            "the two checkpoints differ in no compared field"
        );
        assert_ne!(
            against_early, against_late,
            "only the offset tells them apart"
        );

        let memo = TrajectoryMemo::new();
        let mut trail = Trail::default();
        trail.record(&against_early, 8, 4);
        memo.publish(trail, &latent());
        assert!(memo.lookup(&against_early, 8).is_some());
        assert!(memo.lookup(&against_late, 8).is_none());
    }
}

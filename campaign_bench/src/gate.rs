//! The correctness gate every benchmark run passes through, outside the
//! timed region:
//!
//! 1. the durable store holds exactly one checksummed record per fault,
//!    for the fault the campaign's seed samples at that index, and none is
//!    a `HarnessFailure`;
//! 2. the digest of the `store::encode_record` lines in index order equals
//!    the digest stored for this workload and seed (when one is stored);
//! 3. a seeded sample of faults re-runs through the reference path (replay
//!    from reset on the scalar interpreter: no checkpoints, no block
//!    replay, no planner, no lockstep batching) and must agree with the
//!    stored record under `planner::records_equivalent`.

use bera::goofi::campaign::FaultList;
use bera::goofi::experiment::run_experiment_with_model;
use bera::goofi::planner::records_equivalent;
use bera::goofi::store::{decode_record, encode_record};
use bera::goofi::{
    golden_run, ExperimentRecord, FaultModel, GoldenRun, LoopConfig, Outcome, Workload,
};
use bera::tcpu::Fnv64;
use std::path::Path;

/// What the gate found in one store.
#[derive(Debug, Default)]
pub struct StoreCheck {
    /// The records by fault index (`None` where missing or unreadable).
    pub records: Vec<Option<ExperimentRecord>>,
    /// Per fault: the record is missing, duplicated, unreadable, for the
    /// wrong fault, or a `HarnessFailure`.
    pub bad: Vec<bool>,
    /// Digest of the encoded records in index order.
    pub digest: String,
    /// Human-readable descriptions of everything that failed.
    pub problems: Vec<String>,
}

impl StoreCheck {
    /// Faults whose record failed a check.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.bad.iter().filter(|&&b| b).count()
    }
}

/// The per-fault checks of gate step 1, plus the digest of step 2.
/// `faults` is the fault list the campaign's seed samples.
#[must_use]
pub fn check_store(path: &Path, faults: &FaultList) -> StoreCheck {
    let n = faults.faults.len();
    let mut check = StoreCheck {
        records: vec![None; n],
        bad: vec![false; n],
        ..StoreCheck::default()
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            check.bad = vec![true; n];
            check
                .problems
                .push(format!("cannot read {}: {e}", path.display()));
            return check;
        }
    };
    let mut seen = vec![0usize; n];
    for (line_no, line) in text.lines().enumerate().skip(1) {
        match decode_record(line) {
            Ok((i, record)) if i < n => {
                seen[i] += 1;
                check.records[i] = Some(record);
            }
            Ok((i, _)) => check.problems.push(format!(
                "line {}: fault index {i} out of range",
                line_no + 1
            )),
            Err(e) => check
                .problems
                .push(format!("line {}: unreadable record: {e}", line_no + 1)),
        }
    }
    let mut digest = Fnv64::new();
    for (i, fault) in faults.faults.iter().enumerate() {
        let problem = match (seen[i], &check.records[i]) {
            (0, _) | (_, None) => Some("missing".to_string()),
            (1, Some(r)) if r.fault != *fault => {
                Some(format!("record is for {:?}, expected {fault:?}", r.fault))
            }
            (1, Some(r)) if matches!(r.outcome, Outcome::HarnessFailure(_)) => {
                Some("quarantined (HarnessFailure)".to_string())
            }
            (1, Some(_)) => None,
            (k, Some(_)) => Some(format!("{k} records")),
        };
        if let Some(p) = problem {
            check.bad[i] = true;
            if check.problems.len() < 20 {
                check.problems.push(format!("fault {i}: {p}"));
            }
        }
        if let Some(r) = &check.records[i] {
            digest.write_bytes(encode_record(i, r).as_bytes());
            digest.write_bytes(b"\n");
        }
    }
    check.digest = format!("{:016x}", digest.finish());
    check
}

/// Up to `k` distinct fault indices out of `n`, drawn deterministically
/// from `seed` (SplitMix64).
#[must_use]
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x005e_ed0f_c0de;
    let mut out: Vec<usize> = Vec::new();
    let want = k.min(n);
    while out.len() < want {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let i = (z % n as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out.sort_unstable();
    out
}

/// The reference path's loop configuration: the campaign's closed loop,
/// replayed from reset on the scalar interpreter.
#[must_use]
pub fn reference_loop(loop_cfg: &LoopConfig) -> LoopConfig {
    LoopConfig {
        checkpoint_stride: 0,
        fast_replay: false,
        ..loop_cfg.clone()
    }
}

/// The reference path's golden run, which also fixes the fault list the
/// campaign's seed samples.
#[must_use]
pub fn reference_golden(workload: &Workload, loop_cfg: &LoopConfig) -> GoldenRun {
    golden_run(workload, &reference_loop(loop_cfg))
}

/// Gate step 3: re-runs the faults at `indices` through the reference
/// path and returns the indices whose stored record disagrees. Missing
/// records are step 1's finding and are not re-counted here.
#[must_use]
pub fn reference_mismatches(
    workload: &Workload,
    loop_cfg: &LoopConfig,
    golden: &GoldenRun,
    model: FaultModel,
    records: &[Option<ExperimentRecord>],
    indices: &[usize],
) -> Vec<usize> {
    let reference = reference_loop(loop_cfg);
    indices
        .iter()
        .copied()
        .filter(|&i| match &records[i] {
            Some(stored) => {
                let fresh = run_experiment_with_model(
                    workload,
                    &reference,
                    golden,
                    stored.fault,
                    model,
                    false,
                );
                !records_equivalent(&fresh, stored)
            }
            None => false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bera::goofi::campaign::{prepare_campaign, CampaignConfig};
    use bera::goofi::classify::HarnessCause;
    use bera::goofi::store::{JsonlStore, StoreHeader};
    use std::path::PathBuf;

    /// A small clean campaign in a fresh store: (store path, config,
    /// fault list).
    fn clean_store(tag: &str) -> (PathBuf, CampaignConfig, FaultList) {
        let dir =
            std::env::temp_dir().join(format!("campaign-bench-gate-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        let workload = Workload::algorithm_one();
        let mut cfg = CampaignConfig::quick(40, 7);
        cfg.loop_cfg = LoopConfig::short(40);
        let prepared = prepare_campaign(&workload, &cfg);
        let golden = reference_golden(&workload, &cfg.loop_cfg);
        let faults = FaultList::sample(cfg.faults, cfg.seed, golden.total_instructions);
        let header = StoreHeader::new(workload.name(), &cfg, prepared.golden());
        let store = JsonlStore::create(&path, &header).unwrap();
        let _ = prepared.run(&store);
        store.finish().unwrap();
        (path, cfg, faults)
    }

    /// Rewrites the store, replacing the record line of fault `index`
    /// with `edit`'s result (`None` drops the line).
    fn rewrite(path: &Path, index: usize, edit: impl Fn(&str) -> Option<String>) {
        let text = std::fs::read_to_string(path).unwrap();
        let mut out = String::new();
        for (n, line) in text.lines().enumerate() {
            let replaced = if n > 0 && decode_record(line).unwrap().0 == index {
                edit(line)
            } else {
                Some(line.to_string())
            };
            if let Some(l) = replaced {
                out.push_str(&l);
                out.push('\n');
            }
        }
        std::fs::write(path, out).unwrap();
    }

    /// Removes a store made by [`clean_store`] with its directory.
    fn remove(path: &Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    fn all_indices(check: &StoreCheck) -> Vec<usize> {
        (0..check.records.len()).collect()
    }

    #[test]
    fn clean_store_passes_every_step() {
        let (path, cfg, faults) = clean_store("clean");
        let check = check_store(&path, &faults);
        assert_eq!(check.failed(), 0, "{:?}", check.problems);
        assert!(check.problems.is_empty());
        let w = Workload::algorithm_one();
        let golden = reference_golden(&w, &cfg.loop_cfg);
        let bad = reference_mismatches(
            &w,
            &cfg.loop_cfg,
            &golden,
            cfg.fault_model,
            &check.records,
            &all_indices(&check),
        );
        assert!(bad.is_empty(), "reference path disagrees at {bad:?}");
        remove(&path);
    }

    #[test]
    fn one_corrupted_record_fails_the_gate() {
        let (path, cfg, faults) = clean_store("corrupt");
        let clean = check_store(&path, &faults);
        // Find a record the reference path can tell apart: change its
        // outcome and re-encode it with a valid checksum, so only the
        // digest and the reference re-run can notice.
        let victim = 3;
        let mut forged = clean.records[victim].clone().unwrap();
        forged.outcome = if forged.outcome == Outcome::Latent {
            Outcome::Overwritten
        } else {
            Outcome::Latent
        };
        let line = encode_record(victim, &forged);
        rewrite(&path, victim, |_| Some(line.clone()));

        let check = check_store(&path, &faults);
        assert_eq!(check.failed(), 0, "the forged line is well-formed");
        assert_ne!(check.digest, clean.digest, "the digest must move");
        let w = Workload::algorithm_one();
        let golden = reference_golden(&w, &cfg.loop_cfg);
        let bad = reference_mismatches(
            &w,
            &cfg.loop_cfg,
            &golden,
            cfg.fault_model,
            &check.records,
            &all_indices(&check),
        );
        assert_eq!(bad, vec![victim]);
        remove(&path);
    }

    #[test]
    fn missing_duplicate_and_quarantined_records_fail() {
        let (path, _cfg, faults) = clean_store("shape");
        rewrite(&path, 5, |_| None);
        let check = check_store(&path, &faults);
        assert_eq!(check.failed(), 1);
        assert!(check.bad[5]);
        remove(&path);

        let (path, _cfg, faults) = clean_store("dup");
        rewrite(&path, 6, |l| Some(format!("{l}\n{l}")));
        let check = check_store(&path, &faults);
        assert_eq!(check.failed(), 1);
        assert!(check.bad[6]);
        remove(&path);

        let (path, _cfg, faults) = clean_store("quarantine");
        let mut record = check_store(&path, &faults).records[7].clone().unwrap();
        record.outcome = Outcome::HarnessFailure(HarnessCause::Panic);
        let line = encode_record(7, &record);
        rewrite(&path, 7, |_| Some(line.clone()));
        let check = check_store(&path, &faults);
        assert_eq!(check.failed(), 1);
        assert!(check.bad[7]);
        remove(&path);

        let (path, _cfg, faults) = clean_store("torn");
        rewrite(&path, 8, |l| Some(l[..l.len() / 2].to_string()));
        let check = check_store(&path, &faults);
        assert!(check.bad[8]);
        assert!(!check.problems.is_empty());
        remove(&path);
    }

    #[test]
    fn sampled_indices_are_deterministic_and_distinct() {
        let a = sample_indices(9290, 48, 20010701);
        assert_eq!(a, sample_indices(9290, 48, 20010701));
        assert_ne!(a, sample_indices(9290, 48, 1));
        assert_eq!(a.len(), 48);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(5, 48, 3), vec![0, 1, 2, 3, 4]);
    }
}

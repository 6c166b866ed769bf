//! Trajectory memo (DESIGN.md §8k): run-time fault-space equivalence.
//!
//! Convergence pruning ends a faulty run whose state equals the golden
//! checkpoint at a stride boundary. The memo generalises it: a run whose
//! state at boundary `k` equals the state an earlier, finished experiment
//! of the same campaign had at `k` is deterministic from there on, so it
//! ends and takes that experiment's result. Records stay byte-identical to
//! simulating every run to the end.
//!
//! The key at boundary `k` is exact, never a bare digest, because a
//! collision would silently write a wrong record: the instruction-count
//! offset from `golden.checkpoints[k / stride]` followed by the
//! [`Machine::delta_from`](bera_tcpu::machine::Machine::delta_from)
//! account of every CPU and data word that differs from that checkpoint.
//! The drive only keys a boundary while the fault is quiescent, the plant
//! equals the checkpoint's and every output so far equals the golden
//! output — so the output prefix is part of the key implicitly, and the
//! plant need not be stored. `k` is matched against the stored span, not
//! hashed, so one entry covers every consecutive boundary at which a run
//! held the same key (a Latent run's difference settles after a few
//! changes and then holds to the end).

use crate::classify::Outcome;
use bera_tcpu::machine::Machine;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Writes into `out` the memo key of `machine` at the boundary of the
/// golden checkpoint machine `ckpt`: the instruction-count offset from the
/// checkpoint (two's complement), then `machine.delta_from(ckpt, …)`.
/// `golden_keys` are the data words the golden run wrote since the
/// machine's dirty log began (see `Machine::delta_from`). A key of length
/// two whose second word is 0 means the state equals the checkpoint.
pub fn boundary_key(machine: &Machine, ckpt: &Machine, golden_keys: &[u32], out: &mut Vec<u64>) {
    out.clear();
    out.push(machine.instr_count().wrapping_sub(ckpt.instr_count()));
    machine.delta_from(ckpt, golden_keys, out);
}

/// What a joining run takes over from the experiment it joined: every
/// field of a record that the trajectory after the join determines.
#[derive(Debug)]
pub struct MemoResult {
    /// The final classification.
    pub outcome: Outcome,
    /// Largest absolute output deviation.
    pub max_deviation: f64,
    /// First iteration beyond the deviation threshold.
    pub first_strong_iteration: Option<usize>,
    /// Where convergence pruning spliced the golden tail.
    pub pruned_at: Option<usize>,
    /// The absolute instruction count at which an EDM trapped; a joining
    /// run rebases it to its own injection point.
    pub trap_at: Option<u64>,
    /// The full output sequence (detail mode only).
    pub outputs: Option<Vec<u32>>,
}

/// One stretch of a run's trajectory: at every boundary `first..=last`
/// (a stride apart) the run had the key stored at `start..start + len` of
/// the owning word list.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    first: u32,
    last: u32,
}

impl Span {
    fn key<'w>(&self, words: &'w [u64]) -> &'w [u64] {
        &words[self.start as usize..][..self.len as usize]
    }
}

/// `n` as a `u32` index into the memo's flat lists.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("trajectory memo lists stay below 2^32 items")
}

/// The keys one run reached, in boundary order, interval-compressed, with
/// their words back to back.
#[derive(Debug, Default)]
pub struct Trail {
    words: Vec<u64>,
    spans: Vec<Span>,
}

impl Trail {
    /// Notes that the run had `key` at boundary `k`: extends the last span
    /// when it holds the same key up to the previous boundary.
    pub fn record(&mut self, key: &[u64], k: usize, stride: usize) {
        let k = index(k);
        if let Some(last) = self.spans.last_mut() {
            if last.last as usize + stride == k as usize && last.key(&self.words) == key {
                last.last = k;
                return;
            }
        }
        self.spans.push(Span {
            start: index(self.words.len()),
            len: index(key.len()),
            first: k,
            last: k,
        });
        self.words.extend_from_slice(key);
    }

    /// `true` when no boundary was keyed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Sentinel for "no further entry" in a hash chain.
const END: u32 = u32::MAX;

/// A published span and the result of the run that held it.
#[derive(Debug)]
struct Entry {
    span: Span,
    result: u32,
    /// The previous entry whose key has the same hash, or [`END`].
    next: u32,
}

/// The memo's storage: a few flat lists rather than one allocation per
/// key, so a campaign's tens of thousands of keys neither fragment the
/// heap nor carry per-allocation overhead.
#[derive(Debug, Default)]
struct Table {
    /// Key hash → the newest entry with that hash. The hash only indexes
    /// candidates; a hit needs equal key words.
    heads: HashMap<u64, u32>,
    entries: Vec<Entry>,
    /// Every entry's key words, back to back.
    words: Vec<u64>,
    results: Vec<Arc<MemoResult>>,
}

impl Table {
    /// The newest entry holding `key` whose span satisfies `wanted`.
    fn find(&self, key: &[u64], hash: u64, wanted: impl Fn(&Span) -> bool) -> Option<&Entry> {
        let mut i = *self.heads.get(&hash)?;
        while i != END {
            let entry = &self.entries[i as usize];
            if wanted(&entry.span) && entry.span.key(&self.words) == key {
                return Some(entry);
            }
            i = entry.next;
        }
        None
    }
}

fn key_hash(key: &[u64]) -> u64 {
    let mut h = bera_tcpu::Fnv64::new();
    for &w in key {
        h.write_u64(w);
    }
    h.finish()
}

/// One campaign's shared memo: key → the spans of finished runs that held
/// it. Shared by every worker thread of a campaign (and by every shard a
/// farm worker runs); lookups take a read lock. A poisoned lock is used
/// as is: an entry is linked into its chain only after it is complete, so
/// a publisher that panicked left only correct entries behind.
#[derive(Debug, Default)]
pub struct TrajectoryMemo {
    table: RwLock<Table>,
}

impl TrajectoryMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        TrajectoryMemo::default()
    }

    /// The result of a finished run that held `key` at boundary `k`.
    #[must_use]
    pub fn lookup(&self, key: &[u64], k: usize) -> Option<Arc<MemoResult>> {
        let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
        let k = index(k);
        table
            .find(key, key_hash(key), |s| s.first <= k && k <= s.last)
            .map(|entry| Arc::clone(&table.results[entry.result as usize]))
    }

    /// Publishes a classified run's trail under its result. A span already
    /// covered by an earlier run's span of the same key adds nothing (the
    /// two runs were in one state, so their results agree).
    pub fn publish(&self, trail: Trail, result: &Arc<MemoResult>) {
        let mut table = self.table.write().unwrap_or_else(PoisonError::into_inner);
        let mut slot = None;
        for span in &trail.spans {
            let key = span.key(&trail.words);
            let hash = key_hash(key);
            if table
                .find(key, hash, |s| s.first <= span.first && span.last <= s.last)
                .is_some()
            {
                continue;
            }
            let result = *slot.get_or_insert_with(|| {
                table.results.push(Arc::clone(result));
                index(table.results.len() - 1)
            });
            let start = index(table.words.len());
            table.words.extend_from_slice(key);
            let next = table.heads.get(&hash).copied().unwrap_or(END);
            table.entries.push(Entry {
                span: Span { start, ..*span },
                result,
                next,
            });
            let newest = index(table.entries.len() - 1);
            table.heads.insert(hash, newest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Arc<MemoResult> {
        Arc::new(MemoResult {
            outcome: Outcome::Latent,
            max_deviation: 0.0,
            first_strong_iteration: None,
            pruned_at: None,
            trap_at: None,
            outputs: None,
        })
    }

    #[test]
    fn a_trail_compresses_consecutive_boundaries_with_one_key() {
        let mut trail = Trail::default();
        trail.record(&[1, 0], 8, 4);
        trail.record(&[1, 0], 12, 4);
        trail.record(&[1, 0], 20, 4); // a skipped boundary breaks the span
        trail.record(&[2, 0], 24, 4);
        let spans: Vec<_> = trail.spans.iter().map(|s| (s.first, s.last)).collect();
        assert_eq!(spans, [(8, 12), (20, 20), (24, 24)]);
    }

    #[test]
    fn lookup_matches_the_exact_key_inside_a_span_only() {
        let memo = TrajectoryMemo::new();
        let mut trail = Trail::default();
        trail.record(&[0, 1, 7 << 32 | 5], 8, 4);
        trail.record(&[0, 1, 7 << 32 | 5], 12, 4);
        memo.publish(trail, &result());
        assert!(memo.lookup(&[0, 1, 7 << 32 | 5], 8).is_some());
        assert!(memo.lookup(&[0, 1, 7 << 32 | 5], 12).is_some());
        assert!(memo.lookup(&[0, 1, 7 << 32 | 5], 16).is_none());
        assert!(memo.lookup(&[0, 1, 7 << 32 | 4], 8).is_none());
        assert!(memo.lookup(&[1, 1, 7 << 32 | 5], 8).is_none());
    }
}

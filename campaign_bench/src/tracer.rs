//! Outside-in tracer: carves one single-process campaign into per-layer
//! spans from the benchmark's side of the public API.
//!
//! [`Tracer`] is a [`CampaignObserver`] that wraps the campaign's
//! [`JsonlStore`]: it forwards every classified record to the store and
//! times the append, and it turns the engine's life-cycle events into
//! contiguous phase spans (plan, analytic emission, lockstep walk,
//! per-experiment restore / drive / classify, replication). The harness
//! adds the set-up and finish spans around the campaign call. Spans are
//! kept in memory and written out when the run ends.
//!
//! The campaigns traced here run on one campaign thread, so events arrive
//! in program order and the spans of one campaign never overlap.

use bera::goofi::planner::PlanStats;
use bera::goofi::store::JsonlStore;
use bera::goofi::{
    CampaignObserver, CampaignResult, ExperimentRecord, FaultSpec, HarnessCause, Outcome,
    Provenance,
};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// A layer of the campaign, as seen from outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The whole campaign (root span); its self time is unattributed.
    Campaign,
    /// `prepare_campaign` (golden run + fault sampling) plus the store
    /// header.
    Setup,
    /// Fault list sampled → plan computed.
    Plan,
    /// Plan computed → first lockstep batch: analytic records.
    Emit,
    /// First lockstep batch → batch admission finished.
    Walk,
    /// Previous experiment classified → arena restored.
    Restore,
    /// Experiment started → experiment executed.
    Drive,
    /// Experiment executed → experiment classified.
    Classify,
    /// Replicated records after the simulation pass.
    Replicate,
    /// One record append inside the wrapped store.
    Append,
    /// Campaign completed → store finished.
    Finish,
    /// `init_farm` (farm workloads).
    FarmInit,
    /// A worker's `run_worker` call → its first claimed shard.
    FarmStartup,
    /// A shard claimed → complete.
    FarmShard,
    /// `merge_farm`.
    FarmMerge,
}

impl Layer {
    /// Every layer of a single-process campaign, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Campaign,
        Layer::Setup,
        Layer::Plan,
        Layer::Emit,
        Layer::Walk,
        Layer::Restore,
        Layer::Drive,
        Layer::Classify,
        Layer::Replicate,
        Layer::Append,
        Layer::Finish,
    ];

    /// The span name written to the trace file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Campaign => "campaign",
            Layer::Setup => "setup",
            Layer::Plan => "plan",
            Layer::Emit => "emit",
            Layer::Walk => "walk",
            Layer::Restore => "restore",
            Layer::Drive => "drive",
            Layer::Classify => "classify",
            Layer::Replicate => "replicate",
            Layer::Append => "append",
            Layer::Finish => "finish",
            Layer::FarmInit => "farm_init",
            Layer::FarmStartup => "farm_startup",
            Layer::FarmShard => "farm_shard",
            Layer::FarmMerge => "farm_merge",
        }
    }
}

/// One timed interval, in nanoseconds since the campaign started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer this interval belongs to.
    pub layer: Layer,
    /// Start, ns since the root span began.
    pub start: u64,
    /// End, ns since the root span began.
    pub end: u64,
    /// Index of the enclosing span (`None` for the root).
    pub parent: Option<usize>,
    /// The fault index the span worked on, when it worked on one.
    pub fault: Option<usize>,
}

/// Counts observed at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Experiments whose drive executed (`experiment_executed`).
    pub executed: usize,
    /// Records classified with `Provenance::Simulated`.
    pub simulated_records: usize,
    /// Records classified with `Provenance::Analytic`.
    pub analytic: usize,
    /// Analytic records emitted before the lockstep walk (the planner's).
    pub planner_analytic: usize,
    /// Records classified with `Provenance::Replicated`.
    pub replicated: usize,
    /// Dynamic instructions executed by experiment drives.
    pub instructions: u64,
    /// Of those, instructions executed by the block engine.
    pub block_instructions: u64,
    /// Dirty-delta arena restores.
    pub restores: usize,
    /// Data words copied by those restores.
    pub dirty_words: u64,
    /// Full checkpoint clones.
    pub full_clones: usize,
    /// Simulated experiments ended early by convergence.
    pub converged: usize,
    /// Replicas admitted to lockstep batches.
    pub batch_members: usize,
    /// Replicas resolved inside lockstep.
    pub batch_resolved: usize,
    /// Replicas that split off to the scalar path.
    pub split_offs: usize,
    /// Supervisor retries.
    pub retried: usize,
    /// Quarantined (`HarnessFailure`) records.
    pub quarantined: usize,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// The open phase span (plan / emit / walk / replicate).
    phase: Option<usize>,
    /// The open drive or classify span of the running experiment.
    experiment: Option<usize>,
    /// A restore span waiting for its experiment's fault index.
    pending_restore: Option<usize>,
    /// Past the lockstep pass: experiments tile the timeline from here.
    simulating: bool,
    /// End of the last restore-drive-classify-append chain.
    last_end: u64,
    completed_at: Option<u64>,
    counts: Counts,
}

impl State {
    fn push(&mut self, layer: Layer, start: u64, end: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            layer,
            start,
            end,
            parent,
            fault: None,
        });
        self.spans.len() - 1
    }

    fn open(&mut self, layer: Layer, at: u64) -> usize {
        self.push(layer, at, at, Some(0))
    }

    fn close_phase(&mut self, at: u64) {
        if let Some(p) = self.phase.take() {
            self.spans[p].end = at;
        }
    }
}

/// The tracing observer. Create it just before set-up starts; it forwards
/// records to `store` (the wrapped [`JsonlStore`]).
pub struct Tracer<'s> {
    t0: Instant,
    store: &'s JsonlStore,
    state: Mutex<State>,
}

impl<'s> Tracer<'s> {
    /// A tracer whose root span starts at `t0`.
    #[must_use]
    pub fn new(t0: Instant, store: &'s JsonlStore) -> Self {
        let mut state = State::default();
        state.push(Layer::Campaign, 0, 0, None);
        Tracer {
            t0,
            store,
            state: Mutex::new(state),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn with<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        f(&mut self.state.lock().expect("tracer lock poisoned"))
    }

    /// Records the set-up span `[0, end]` (the harness times it, because
    /// set-up runs before the store this tracer wraps exists).
    pub fn setup_done(&self, end: Instant) {
        let end = u64::try_from(end.duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX);
        self.with(|s| {
            s.push(Layer::Setup, 0, end, Some(0));
        });
    }

    /// Detaches the trace from the store, so the store can be finished.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        Trace(self.state.into_inner().expect("tracer lock poisoned"))
    }
}

/// A campaign's trace, waiting for the store to finish.
pub struct Trace(State);

impl Trace {
    /// Closes the trace once the store has been finished at `end` (`t0` is
    /// the tracer's start), and returns the spans and counts.
    #[must_use]
    pub fn close(self, t0: Instant, end: Instant) -> (Vec<Span>, Counts) {
        let end = u64::try_from(end.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
        let mut s = self.0;
        let completed = s.completed_at.unwrap_or(end);
        s.push(Layer::Finish, completed, end, Some(0));
        s.spans[0].end = end;
        (s.spans, s.counts)
    }
}

impl CampaignObserver for Tracer<'_> {
    fn fault_list_sampled(&self, _faults: &[FaultSpec]) {
        let t = self.now();
        self.with(|s| s.phase = Some(s.open(Layer::Plan, t)));
    }

    fn plan_computed(&self, _stats: &PlanStats) {
        let t = self.now();
        self.with(|s| {
            s.close_phase(t);
            s.phase = Some(s.open(Layer::Emit, t));
        });
    }

    fn batch_group_started(&self, _window: usize, members: usize, _width: usize) {
        let t = self.now();
        self.with(|s| {
            s.counts.batch_members += members;
            if s.phase.is_some_and(|p| s.spans[p].layer == Layer::Emit) {
                s.close_phase(t);
                s.phase = Some(s.open(Layer::Walk, t));
            }
        });
    }

    fn replica_resolved(&self, _index: usize, _lockstep_instructions: u64) {
        self.with(|s| s.counts.batch_resolved += 1);
    }

    fn replica_split_off(&self, _index: usize, _split_at: u64, _lockstep_instructions: u64) {
        self.with(|s| s.counts.split_offs += 1);
    }

    fn batch_admission(&self, _rejected_untraceable: usize, _vis_admitted: usize) {
        let t = self.now();
        self.with(|s| {
            s.close_phase(t);
            s.simulating = true;
            s.last_end = t;
        });
    }

    fn arena_restored(&self, copied_words: usize, full_clone: bool) {
        let t = self.now();
        self.with(|s| {
            if full_clone {
                s.counts.full_clones += 1;
            } else {
                s.counts.restores += 1;
                s.counts.dirty_words += copied_words as u64;
            }
            if s.phase.is_some() {
                // An experiment outside the simulation pass (no lockstep
                // pass ran, or a quarantined representative's fallback).
                s.close_phase(t);
                s.last_end = t;
            }
            s.simulating = true;
            let start = s.last_end.min(t);
            s.pending_restore = Some(s.push(Layer::Restore, start, t, Some(0)));
        });
    }

    fn experiment_started(&self, index: usize, _fault: FaultSpec, _from: Option<usize>) {
        let t = self.now();
        self.with(|s| {
            if let Some(open) = s.experiment.take() {
                // A supervised retry restarts without closing the failed
                // attempt's drive.
                s.spans[open].end = t;
            }
            let restore = match s.pending_restore.take() {
                Some(r) => r,
                // Replay from reset: no arena checkout to wait for.
                None => {
                    s.close_phase(t);
                    let start = s.last_end.min(t);
                    s.push(Layer::Restore, start, t, Some(0))
                }
            };
            s.spans[restore].fault = Some(index);
            let drive = s.open(Layer::Drive, t);
            s.spans[drive].fault = Some(index);
            s.experiment = Some(drive);
        });
    }

    fn experiment_executed(&self, index: usize, instructions: u64, block_instructions: u64) {
        let t = self.now();
        self.with(|s| {
            s.counts.executed += 1;
            s.counts.instructions += instructions;
            s.counts.block_instructions += block_instructions;
            if let Some(drive) = s.experiment.take() {
                s.spans[drive].end = t;
            }
            let classify = s.open(Layer::Classify, t);
            s.spans[classify].fault = Some(index);
            s.experiment = Some(classify);
        });
    }

    fn convergence_spliced(&self, _index: usize, _iteration: usize) {
        self.with(|s| {
            if s.experiment.is_some() {
                s.counts.converged += 1;
            }
        });
    }

    fn experiment_retried(&self, _index: usize, _cause: HarnessCause) {
        self.with(|s| s.counts.retried += 1);
    }

    fn experiment_classified(&self, index: usize, record: &ExperimentRecord) {
        let t_in = self.now();
        let parent = self.with(|s| {
            match record.provenance {
                Provenance::Simulated => s.counts.simulated_records += 1,
                Provenance::Analytic => {
                    s.counts.analytic += 1;
                    if s.phase.is_some_and(|p| s.spans[p].layer == Layer::Emit) {
                        s.counts.planner_analytic += 1;
                    }
                }
                Provenance::Replicated => s.counts.replicated += 1,
            }
            if matches!(record.outcome, Outcome::HarnessFailure(_)) {
                s.counts.quarantined += 1;
            }
            if let Some(classify) = s.experiment.take() {
                s.spans[classify].end = t_in;
                None
            } else {
                if s.phase.is_none() && s.simulating {
                    let start = s.last_end.min(t_in);
                    s.phase = Some(s.push(Layer::Replicate, start, start, Some(0)));
                }
                s.phase
            }
        });
        self.store.experiment_classified(index, record);
        let t_out = self.now();
        self.with(|s| {
            let append = s.push(Layer::Append, t_in, t_out, parent.or(Some(0)));
            s.spans[append].fault = Some(index);
            match parent {
                Some(p) => s.spans[p].end = t_out,
                None => s.last_end = t_out,
            }
        });
    }

    fn campaign_completed(&self, _result: &CampaignResult) {
        let t = self.now();
        self.with(|s| {
            if let Some(p) = s.phase {
                s.spans[p].end = s.spans[p].end.max(s.last_end).min(t);
            }
            s.phase = None;
            s.completed_at = Some(t);
        });
    }
}

/// Per-layer self time: each span's duration minus the part its child
/// spans cover, summed by layer, in nanoseconds. The root's self time is
/// the unattributed remainder, so the values sum to the root's duration.
///
/// # Errors
///
/// A description of the first span that leaves its parent or overlaps a
/// sibling — a tracer bug that would make the self times double-count.
pub fn self_times(spans: &[Span]) -> Result<Vec<(Layer, u64)>, String> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if span.end < span.start {
            return Err(format!(
                "span {i} ({}) ends before it starts",
                span.layer.name()
            ));
        }
        if let Some(p) = span.parent {
            let parent = &spans[p];
            if span.start < parent.start || span.end > parent.end {
                return Err(format!(
                    "span {i} ({}) [{}, {}] leaves its parent {} [{}, {}]",
                    span.layer.name(),
                    span.start,
                    span.end,
                    parent.layer.name(),
                    parent.start,
                    parent.end
                ));
            }
            children[p].push(i);
        }
    }
    let mut totals: Vec<(Layer, u64)> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
    for (i, span) in spans.iter().enumerate() {
        let mut kids: Vec<&Span> = children[i].iter().map(|&c| &spans[c]).collect();
        kids.sort_by_key(|k| (k.start, k.end));
        let mut covered = 0;
        let mut prev_end = span.start;
        for k in kids {
            if k.start < prev_end {
                return Err(format!(
                    "{} span [{}, {}] overlaps its previous sibling (ends {prev_end})",
                    k.layer.name(),
                    k.start,
                    k.end
                ));
            }
            covered += k.end - k.start;
            prev_end = k.end;
        }
        let slot = totals
            .iter_mut()
            .find(|(l, _)| *l == span.layer)
            .expect("every layer has a slot");
        slot.1 += span.end - span.start - covered;
    }
    Ok(totals)
}

/// Renders spans as a JSON array (one object per span).
#[must_use]
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let fault = s.fault.map_or("null".to_string(), |f| f.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"fault\":{fault}}}",
            s.layer.name(),
            s.start,
            s.end
        );
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            fault: None,
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = [
            span(Layer::Campaign, 0, 100, None),
            span(Layer::Setup, 0, 30, Some(0)),
            span(Layer::Emit, 30, 50, Some(0)),
            span(Layer::Append, 35, 40, Some(2)),
            span(Layer::Drive, 55, 90, Some(0)),
        ];
        let totals = self_times(&spans).unwrap();
        let get = |l: Layer| totals.iter().find(|(x, _)| *x == l).unwrap().1;
        assert_eq!(get(Layer::Campaign), 15);
        assert_eq!(get(Layer::Emit), 15);
        assert_eq!(get(Layer::Append), 5);
        assert_eq!(totals.iter().map(|(_, v)| v).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_siblings_are_refused() {
        let spans = [
            span(Layer::Campaign, 0, 100, None),
            span(Layer::Drive, 10, 50, Some(0)),
            span(Layer::Classify, 40, 60, Some(0)),
        ];
        assert!(self_times(&spans).is_err());
        let escaped = [
            span(Layer::Campaign, 0, 100, None),
            span(Layer::Emit, 10, 20, Some(0)),
            span(Layer::Append, 15, 25, Some(1)),
        ];
        assert!(self_times(&escaped).is_err());
    }
}

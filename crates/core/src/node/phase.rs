//! The flowlet-instance lifecycle: the phases, the one function that
//! changes them, and the one that decides when a phase has run dry.

use super::NodeRuntime;
use crate::graph::{FlowletId, FlowletKind};
use std::sync::Arc;

/// A flowlet instance's lifecycle on one node. Every change goes
/// through [`NodeRuntime::set_phase`], which holds it to
/// [`Phase::may_become`]:
///
/// | from | to |
/// |---|---|
/// | `Active` | `Firing`, `FlushingCombine`, `FlushingEpoch`, `Complete` |
/// | `Firing` | `FlushingCombine`, `Complete` |
/// | `FlushingCombine` | `Complete` |
/// | `FlushingEpoch` | `Active` |
/// | `Complete` | — |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    /// Admitting input (or, for a source, producing it).
    Active,
    /// Input is complete and consumed; the reduce's fire shards or the
    /// partial reduce's finish tasks are running.
    Firing,
    /// The flowlet has produced its last record; one flush task is
    /// draining what its workers' combine buffers still hold.
    FlushingCombine,
    /// A partial reduce is emitting a closed epoch's accumulators.
    FlushingEpoch(u64),
    Complete,
}

impl Phase {
    /// Whether an instance in `self` may move to `next`.
    fn may_become(self, next: Phase) -> bool {
        use Phase::*;
        matches!(
            (self, next),
            (
                Active,
                Firing | FlushingCombine | FlushingEpoch(_) | Complete
            ) | (Firing, FlushingCombine | Complete)
                | (FlushingCombine, Complete)
                | (FlushingEpoch(_), Active)
        )
    }
}

impl NodeRuntime {
    /// The one place an instance's phase changes.
    pub(super) fn set_phase(&mut self, f: FlowletId, next: Phase) {
        let phase = &mut self.instances[f].phase;
        debug_assert!(
            phase.may_become(next),
            "flowlet {f}: illegal phase change {phase:?} -> {next:?}"
        );
        *phase = next;
    }

    /// Advance a flowlet's lifecycle when its current phase has run dry.
    pub(super) fn check_transition(&mut self, f: FlowletId) {
        let (phase, idle, fire_left) = {
            let inst = &self.instances[f];
            (
                inst.phase,
                inst.running == 0 && self.shared.flow.deferred_for(f) == 0,
                inst.fire_left,
            )
        };
        match phase {
            Phase::Complete => {}
            Phase::Active => {
                let inst = &self.instances[f];
                let ready = match &self.plan.graph.flowlets[f].kind {
                    FlowletKind::Loader(_) => inst.splits_done == inst.splits_total,
                    FlowletKind::Stream(_) => inst.stream_finished && inst.marker_owed.is_none(),
                    _ => inst.input_done() && inst.pending.is_empty(),
                };
                if !(ready && idle) {
                    return;
                }
                let graph = Arc::clone(&self.plan.graph);
                match &graph.flowlets[f].kind {
                    FlowletKind::Reduce(_) => self.fire_reduce(f),
                    FlowletKind::PartialReduce(_) => self.fire_partial(f),
                    _ => self.finish_producing(f),
                }
            }
            // The three phases a fire's tasks count down. `idle`: every
            // bin they closed is past the deferred queue, in its link's
            // FIFO.
            _ if fire_left > 0 || !idle => {}
            Phase::Firing => self.finish_producing(f),
            Phase::FlushingCombine => self.begin_complete(f),
            Phase::FlushingEpoch(epoch) => self.finish_epoch_flush(f, epoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Phase::{self, *};

    #[test]
    fn phase_transitions_are_the_documented_table() {
        let all = [Active, Firing, FlushingCombine, FlushingEpoch(3), Complete];
        // Each row filters all five successors: 5 × 5 pairs judged.
        let next = |from: Phase| all.into_iter().filter(move |&to| from.may_become(to));
        assert!(next(Active).eq([Firing, FlushingCombine, FlushingEpoch(3), Complete]));
        assert!(next(Firing).eq([FlushingCombine, Complete]));
        assert!(next(FlushingCombine).eq([Complete]));
        assert!(next(FlushingEpoch(3)).eq([Active]));
        assert_eq!(next(Complete).count(), 0);
    }
}

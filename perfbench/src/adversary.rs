//! The adversary layer measured at its boundary. The program diffs honest
//! against actual transmissions, and fills `TraceSummary`'s interference
//! counts, only when an observer is attached; so each replayed run is run a
//! second time through `run_kind_observed`, with a sink that drops every
//! event and an adversary wrapper that times its `intercept` calls. The
//! timed `consensus.run` spans never carry either.

use std::cell::RefCell;
use std::ops::AddAssign;
use std::rc::Rc;
use std::time::{Duration, Instant};

use lbc_adversary::Strategy;
use lbc_consensus::{runner, AlgorithmKind};
use lbc_graph::Graph;
use lbc_model::{ConsensusOutcome, InputAssignment, NodeSet, Regime, Round};
use lbc_sim::{
    Adversary, Event, Inbox, NodeContext, Observer, ObserverHandle, Outgoing, TraceSummary,
};

/// What the adversaries of one or more observed runs did, and how long
/// their `intercept` calls took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub tampered: usize,
    pub omitted: usize,
    pub equivocated: usize,
    pub busy: Duration,
}

impl Tally {
    /// The interference counts, named as metrics, each divided by `per`.
    pub fn counts(&self, per: f64) -> [(&'static str, f64); 3] {
        [
            ("adversary.tampered", self.tampered as f64 / per),
            ("adversary.omitted", self.omitted as f64 / per),
            ("adversary.equivocated", self.equivocated as f64 / per),
        ]
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.tampered += other.tampered;
        self.omitted += other.omitted;
        self.equivocated += other.equivocated;
        self.busy += other.busy;
    }
}

/// Times the wrapped adversary's `intercept` calls.
struct Timed<A> {
    inner: A,
    busy: Duration,
}

impl<M, A: Adversary<M>> Adversary<M> for Timed<A> {
    fn intercept(
        &mut self,
        ctx: &NodeContext<'_>,
        round: Option<Round>,
        honest_outgoing: Vec<Outgoing<M>>,
        inbox: Inbox<'_, M>,
    ) -> Vec<Outgoing<M>> {
        let started = Instant::now();
        let actual = self.inner.intercept(ctx, round, honest_outgoing, inbox);
        self.busy += started.elapsed();
        actual
    }
}

/// An observer that drops every event. Attaching it is what turns on the
/// simulator's interference diff.
struct Discard;

impl Observer for Discard {
    fn on_event(&mut self, _event: &Event) {}
}

/// One observed one-shot run: the outcome and summary the program reports
/// with an observer attached, and the adversary's tally taken from them.
#[allow(clippy::too_many_arguments)]
pub fn observe(
    kind: AlgorithmKind,
    regime: &Regime,
    graph: &Graph,
    f: usize,
    inputs: &InputAssignment,
    faulty: &NodeSet,
    strategy: &Strategy,
) -> (ConsensusOutcome, TraceSummary, Tally) {
    let mut adversary = Timed {
        inner: strategy.clone().into_adversary(),
        busy: Duration::ZERO,
    };
    let observer = ObserverHandle::from_shared(Rc::new(RefCell::new(Discard)));
    let (outcome, trace) = runner::run_kind_observed(
        kind,
        regime,
        graph,
        f,
        inputs,
        faulty,
        &mut adversary,
        observer,
    );
    let summary = trace.summary();
    let tally = Tally {
        tampered: summary.tampered,
        omitted: summary.omitted,
        equivocated: summary.equivocated,
        busy: adversary.busy,
    };
    (outcome, summary, tally)
}

/// Whether an observed run did the same work and reached the same decision
/// as its unobserved twin: observing may add counts, never change a run.
pub fn same_run(
    (outcome, summary): (&ConsensusOutcome, &TraceSummary),
    (twin, twin_summary): (&ConsensusOutcome, &TraceSummary),
) -> bool {
    outcome.verdict() == twin.verdict()
        && outcome.agreed_value() == twin.agreed_value()
        && (summary.rounds, summary.transmissions, summary.deliveries)
            == (
                twin_summary.rounds,
                twin_summary.transmissions,
                twin_summary.deliveries,
            )
}

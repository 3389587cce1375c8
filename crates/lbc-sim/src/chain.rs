//! Chained multi-instance execution: one long-lived [`Network`] deciding
//! many consecutive consensus instances.
//!
//! A one-shot [`Network::run_under`] pays the per-execution setup — arena
//! interning, disjoint-path plans, ledger channels — for a single decision.
//! A repeated-consensus service decides continuously: [`Network::run_chain`]
//! re-arms the same network with a fresh protocol set per instance while
//! keeping the [`lbc_model::SharedPathArena`] and the
//! [`lbc_model::SharedFloodLedger`]'s pair-path memos warm across instances.
//!
//! # Isolation and overlap
//!
//! Instance `k + 1` starts while instance `k`'s flood tail is still in
//! flight. Two mechanisms keep the instances from contaminating each other:
//!
//! * **Ledger sessions** — [`lbc_model::FloodLedger::begin_session`] offsets
//!   every `(tag, epoch)` channel name the new instance derives past the
//!   previous instance's epochs, so each instance records into its own
//!   channels and the two-epoch retirement rule reclaims channel storage one
//!   whole instance behind the front (≤ 2 live / ≤ 3 allocated per tag).
//! * **Routing by instance** — every buffered transmission is stamped with
//!   the instance that emitted it, and deliveries are routed to that
//!   instance's node set only. The previous instance's nodes survive as a
//!   *retiring* set exactly until their in-flight events quiesce; a stale
//!   message can therefore never reach the new instance's protocol state.
//!
//! Per-edge FIFO clamps carry across the boundary (the physical channel is
//! shared), which preserves the flood fabric's same-first-message invariant
//! and keeps every delivery within the regime's fairness bound `D` of its
//! transmission — the chained schedule is a conforming schedule, so
//! schedule-invariant protocols decide exactly as they would one-shot.

use lbc_model::{AdversarialSchedule, AsyncRegime, Regime, Round, Value};
use lbc_telemetry::Moment;

use crate::adversary::Adversary;
use crate::network::Network;
use crate::protocol::{Delivery, Inbox, NodeContext, Outgoing, Protocol};
use crate::trace::RoundStats;

/// Per-instance outcome of a chained run.
///
/// `steps` is the instance-local step count until termination (or budget
/// exhaustion); `transmissions`/`deliveries` are attributed to the instance
/// that *emitted* them, so a flood tail draining during the next instance
/// still counts against its own instance.
#[derive(Debug, Clone, Default)]
pub struct InstanceReport {
    /// Decided output per node at instance end (`None` = undecided).
    pub outputs: Vec<Option<Value>>,
    /// Whether every non-faulty node terminated within the step budget.
    pub all_non_faulty_terminated: bool,
    /// Instance-local steps until termination or budget.
    pub steps: usize,
    /// Transmissions emitted by this instance (including its drain tail).
    pub transmissions: usize,
    /// Deliveries of this instance's transmissions.
    pub deliveries: usize,
}

/// Whole-chain accounting: resource high-water marks proving that channel
/// retirement and the retiring-set drain actually reclaim state, plus the
/// amortized-arena evidence.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainStats {
    /// Most ledger channels concurrently live at any instance boundary.
    pub max_live_channels: usize,
    /// Most channel slots ever allocated (live + recycled).
    pub max_allocated_channels: usize,
    /// Largest per-tag live channel count (the two-epoch bound holds iff
    /// this stays ≤ 2).
    pub max_live_per_tag: usize,
    /// Most distinct tags with a live channel.
    pub live_tags: usize,
    /// Arena entries at chain end — flat across instances when path plans
    /// amortize (the same graph re-interns to the same entries).
    pub arena_paths: usize,
    /// Steps in which a retiring instance's tail was still draining.
    pub drained_steps: usize,
    /// Most transmissions held in a delivery buffer at once. Flat in the
    /// chain length: a chained buffer keeps only transmissions with
    /// deliveries still due.
    pub max_buffered: usize,
}

/// The previous instance's node set draining its synchronous tail.
struct SyncRetiring<P: Protocol> {
    nodes: Vec<P>,
    pending: Vec<Vec<Outgoing<P::Message>>>,
    round: u64,
    report: usize,
}

/// The previous instance's node set draining its event-scheduled tail.
struct AsyncRetiring<P: Protocol> {
    nodes: Vec<P>,
    /// Global step the instance started at (its local step origin).
    start: u64,
    report: usize,
}

/// Event-loop state of a chained asynchronous / partial-synchrony run,
/// persisting across instance boundaries.
struct AsyncChainState<P: Protocol> {
    config: AsyncRegime,
    pre: Option<AdversarialSchedule>,
    /// The chain's transmission buffer. Slots are stable within an
    /// instance; each handover drops the slots no pending event references
    /// and renumbers the rest in order (see [`AsyncChainState::compact`]).
    buffer: Vec<Delivery<P::Message>>,
    /// Emitting instance per buffer slot: deliveries route to that
    /// instance's node set only.
    owner: Vec<u32>,
    due: Vec<Vec<(u32, u32)>>,
    edge_last: Vec<u64>,
    /// Held pre-GST events of the *current* instance.
    held: Vec<(u32, u32)>,
    slots_cur: Vec<Vec<u32>>,
    slots_ret: Vec<Vec<u32>>,
    retiring: Option<AsyncRetiring<P>>,
    /// Next global step to execute.
    global: u64,
    /// Global step the current instance started at.
    cur_start: u64,
    /// Report index (= instance index) of the current instance.
    cur_report: usize,
    /// The current instance's absolute GST step.
    gst_abs: u64,
}

impl<P: Protocol> AsyncChainState<P> {
    /// Drops every buffered transmission that no due or held event
    /// references and renumbers the survivors in slot order, so the buffer
    /// holds at most the in-flight tail plus one instance's traffic instead
    /// of growing with the chain.
    ///
    /// The renumbering is monotone, so the per-receiver delivery order (due
    /// events release sorted by slot), the GST burst order and the per-edge
    /// FIFO clamps (which are steps, not slots) are unchanged. Slot-keyed
    /// caches downstream verify every entry against the message identity,
    /// so a renumbered slot can only miss there.
    fn compact(&mut self) {
        let mut live: Vec<u32> = self
            .due
            .iter()
            .flatten()
            .chain(self.held.iter())
            .map(|(slot, _)| *slot)
            .collect();
        live.sort_unstable();
        live.dedup();
        if live.len() == self.buffer.len() {
            return;
        }
        let renumber = |slot: &mut u32| {
            *slot = live.binary_search(slot).expect("live slot") as u32;
        };
        for (slot, _) in self.due.iter_mut().flatten().chain(self.held.iter_mut()) {
            renumber(slot);
        }
        retain_live(&mut self.buffer, &live);
        retain_live(&mut self.owner, &live);
    }
}

/// Keeps the elements of `items` whose index is in the sorted `live` list.
fn retain_live<T>(items: &mut Vec<T>, live: &[u32]) {
    let mut index = 0u32;
    items.retain(|_| {
        let kept = live.binary_search(&index).is_ok();
        index += 1;
        kept
    });
}

/// Runs one node set's protocol hooks against its inbox slots, with faulty
/// nodes driven by the adversary — [`Network::collect_outgoing`] for a node
/// set that is not `self.nodes` (the retiring set). Interference telemetry
/// is not diffed here; chained runs execute with the observer disabled.
#[allow(clippy::too_many_arguments)]
fn collect_from<P: Protocol, A: Adversary<P::Message>>(
    nodes: &mut [P],
    net: &Network<P>,
    regime: &Regime,
    adversary: &mut A,
    round: Option<Round>,
    buffer: &[Delivery<P::Message>],
    slots: &[Vec<u32>],
) -> Vec<Vec<Outgoing<P::Message>>> {
    let mut all = Vec::with_capacity(nodes.len());
    for (v, node) in nodes.iter_mut().enumerate() {
        let id = lbc_model::NodeId::new(v);
        let ctx = NodeContext {
            id,
            graph: &net.graph,
            f: net.f,
            regime,
            step: round,
            arena: &net.arena,
            ledger: &net.ledger,
            observer: &net.observer,
        };
        let inbox = Inbox::indexed(buffer, &slots[v]);
        let honest = match round {
            None => node.on_start(&ctx),
            Some(r) => node.on_round(&ctx, r, inbox),
        };
        let outgoing = if net.faulty.contains(id) {
            adversary.intercept(&ctx, round, honest, inbox)
        } else {
            honest
        };
        all.push(outgoing);
    }
    all
}

impl<P: Protocol> Network<P> {
    /// Runs `instances` consecutive protocol instances over this one
    /// long-lived network under `regime`, re-arming via `next` — called with
    /// the instance index (from 1; instance 0 runs the constructor-supplied
    /// node set) and returning one fresh protocol per node.
    ///
    /// Each instance gets at most `max_steps_per_instance` steps. Instance
    /// `k + 1` starts while instance `k`'s flood tail drains (see the
    /// [module docs](self) for the isolation argument); the arena and the
    /// ledger's pair-path memos stay warm across instances.
    ///
    /// # Panics
    ///
    /// Panics if `next` returns the wrong number of protocol instances.
    pub fn run_chain<A, F>(
        &mut self,
        regime: &Regime,
        adversary: &mut A,
        max_steps_per_instance: usize,
        instances: usize,
        next: F,
    ) -> (Vec<InstanceReport>, ChainStats)
    where
        A: Adversary<P::Message>,
        F: FnMut(u64) -> Vec<P>,
    {
        match regime {
            Regime::Synchronous => {
                self.run_chain_sync(adversary, max_steps_per_instance, instances, next)
            }
            Regime::Asynchronous(_) | Regime::PartialSync { .. } => {
                self.run_chain_async(regime, adversary, max_steps_per_instance, instances, next)
            }
        }
    }

    /// Folds the ledger's and arena's current occupancy into the chain
    /// high-water marks; sampled at every instance end.
    fn note_ledger(&self, stats: &mut ChainStats) {
        let ledger = self.ledger.borrow();
        stats.max_live_channels = stats.max_live_channels.max(ledger.live_channels());
        stats.max_allocated_channels = stats
            .max_allocated_channels
            .max(ledger.allocated_channels());
        stats.max_live_per_tag = stats
            .max_live_per_tag
            .max(ledger.max_live_channels_per_tag());
        stats.live_tags = stats.live_tags.max(ledger.live_tag_count());
        stats.arena_paths = self.arena.borrow().entry_count();
    }

    /// One lockstep round of the retiring set's tail: deliver its pending
    /// transmissions to its own nodes, collect their forwards, and drop the
    /// set once it goes quiet.
    fn sync_drain_round<A>(
        &mut self,
        retiring: &mut Option<SyncRetiring<P>>,
        adversary: &mut A,
        buffer: &mut Vec<Delivery<P::Message>>,
        slots: &mut [Vec<u32>],
        reports: &mut [InstanceReport],
        stats: &mut ChainStats,
    ) where
        A: Adversary<P::Message>,
    {
        let Some(r) = retiring.as_mut() else { return };
        stats.drained_steps += 1;
        let round = Round::new(r.round);
        let round_stats = self.deliver(
            std::mem::take(&mut r.pending),
            buffer,
            slots,
            Moment::Step(r.round),
            round,
        );
        stats.max_buffered = stats.max_buffered.max(buffer.len());
        let regime = Regime::Synchronous;
        let pending = collect_from(
            &mut r.nodes,
            self,
            &regime,
            adversary,
            Some(round),
            buffer,
            slots,
        );
        r.round += 1;
        let report = r.report;
        let quiet = pending.iter().all(Vec::is_empty);
        r.pending = pending;
        reports[report].transmissions += round_stats.transmissions;
        reports[report].deliveries += round_stats.deliveries;
        if quiet {
            *retiring = None;
        }
    }

    /// The synchronous chained loop: the lockstep round structure of
    /// [`Network::run`], with the finishing instance's undelivered final
    /// round handed to a retiring set that drains (on its own buffer, to its
    /// own nodes) alongside the next instance's rounds.
    fn run_chain_sync<A, F>(
        &mut self,
        adversary: &mut A,
        max_rounds: usize,
        instances: usize,
        mut next: F,
    ) -> (Vec<InstanceReport>, ChainStats)
    where
        A: Adversary<P::Message>,
        F: FnMut(u64) -> Vec<P>,
    {
        let regime = Regime::Synchronous;
        let n = self.nodes.len();
        let mut reports: Vec<InstanceReport> = Vec::with_capacity(instances);
        let mut stats = ChainStats::default();
        let mut buffer: Vec<Delivery<P::Message>> = Vec::new();
        let mut slots: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut ret_buffer: Vec<Delivery<P::Message>> = Vec::new();
        let mut ret_slots: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut retiring: Option<SyncRetiring<P>> = None;
        // The finishing instance's undelivered final-round transmissions.
        let mut tail: Vec<Vec<Outgoing<P::Message>>> = Vec::new();
        let mut tail_round = 0u64;
        let mut cancelled = false;

        for instance in 0..instances {
            if instance > 0 {
                // At most two node sets are ever live: flush any tail from
                // two instances back before re-arming. The cap is a
                // backstop; flood tails quiesce in O(diameter) rounds.
                let mut guard = 0usize;
                while retiring.is_some() && guard < max_rounds {
                    self.sync_drain_round(
                        &mut retiring,
                        adversary,
                        &mut ret_buffer,
                        &mut ret_slots,
                        &mut reports,
                        &mut stats,
                    );
                    guard += 1;
                }
                retiring = None;
                self.ledger.begin_session();
                let fresh = next(instance as u64);
                assert_eq!(
                    fresh.len(),
                    n,
                    "chained instance needs one protocol per node"
                );
                let old = std::mem::replace(&mut self.nodes, fresh);
                if tail.iter().any(|p| !p.is_empty()) {
                    retiring = Some(SyncRetiring {
                        nodes: old,
                        pending: std::mem::take(&mut tail),
                        round: tail_round,
                        report: instance - 1,
                    });
                } else {
                    tail.clear();
                }
            }
            reports.push(InstanceReport::default());
            let mut interference = RoundStats::default();
            let mut pending =
                self.collect_outgoing(&regime, adversary, None, &buffer, &slots, &mut interference);
            let mut local = 0u64;
            while (local as usize) < max_rounds {
                if self.all_non_faulty_terminated() {
                    break;
                }
                if self.cancel_requested() {
                    cancelled = true;
                    break;
                }
                self.sync_drain_round(
                    &mut retiring,
                    adversary,
                    &mut ret_buffer,
                    &mut ret_slots,
                    &mut reports,
                    &mut stats,
                );
                let round = Round::new(local);
                let round_stats =
                    self.deliver(pending, &mut buffer, &mut slots, Moment::Step(local), round);
                stats.max_buffered = stats.max_buffered.max(buffer.len());
                reports[instance].transmissions += round_stats.transmissions;
                reports[instance].deliveries += round_stats.deliveries;
                pending = self.collect_outgoing(
                    &regime,
                    adversary,
                    Some(round),
                    &buffer,
                    &slots,
                    &mut interference,
                );
                local += 1;
            }
            reports[instance].steps = local as usize;
            reports[instance].outputs = self.nodes.iter().map(Protocol::output).collect();
            reports[instance].all_non_faulty_terminated = self.all_non_faulty_terminated();
            self.note_ledger(&mut stats);
            if cancelled {
                break;
            }
            tail = pending;
            tail_round = local;
        }
        // Flush the second-to-last instance's tail so its accounting closes;
        // the final instance's own tail is dropped exactly as one-shot runs
        // drop theirs at termination.
        let mut guard = 0usize;
        while retiring.is_some() && !cancelled && guard < max_rounds {
            self.sync_drain_round(
                &mut retiring,
                adversary,
                &mut ret_buffer,
                &mut ret_slots,
                &mut reports,
                &mut stats,
            );
            guard += 1;
        }
        (reports, stats)
    }

    /// One step of the chained event loop: release the due bucket (plus the
    /// current instance's GST burst when due), route deliveries to the
    /// owning instance's node set, collect + enqueue the retiring set's
    /// forwards and then the current set's, and retire the old set once its
    /// events quiesce.
    fn async_chain_step<A>(
        &mut self,
        st: &mut AsyncChainState<P>,
        regime: &Regime,
        adversary: &mut A,
        reports: &mut [InstanceReport],
        stats: &mut ChainStats,
    ) where
        A: Adversary<P::Message>,
    {
        let horizon = st.due.len() as u64;
        for inbox in st.slots_cur.iter_mut() {
            inbox.clear();
        }
        for inbox in st.slots_ret.iter_mut() {
            inbox.clear();
        }
        let bucket = (st.global % horizon) as usize;
        let mut released = std::mem::take(&mut st.due[bucket]);
        if st.pre.is_some() && st.global == st.gst_abs && !st.held.is_empty() {
            released.append(&mut st.held);
        }
        released.sort_unstable();
        for (slot, receiver) in released {
            if st.owner[slot as usize] as usize == st.cur_report {
                st.slots_cur[receiver as usize].push(slot);
                reports[st.cur_report].deliveries += 1;
            } else if let Some(r) = st.retiring.as_ref() {
                st.slots_ret[receiver as usize].push(slot);
                reports[r.report].deliveries += 1;
            }
            // Events of a hard-dropped instance (backstop only) fall through.
        }
        if let Some(r) = st.retiring.as_mut() {
            stats.drained_steps += 1;
            let round = Round::new(st.global - r.start);
            let outgoing = collect_from(
                &mut r.nodes,
                self,
                regime,
                adversary,
                Some(round),
                &st.buffer,
                &st.slots_ret,
            );
            let mut rs = RoundStats::default();
            // A retiring tail is past its instance's hold window: fair
            // scheduling only.
            self.enqueue_async(
                &st.config,
                None,
                outgoing,
                st.global + 1,
                Moment::Step(st.global),
                &mut st.buffer,
                &mut st.due,
                &mut st.edge_last,
                &mut st.held,
                &mut rs,
            );
            st.owner.resize(st.buffer.len(), r.report as u32);
            stats.max_buffered = stats.max_buffered.max(st.buffer.len());
            reports[r.report].transmissions += rs.transmissions;
        }
        if let Some(r) = st.retiring.as_ref() {
            let report = r.report as u32;
            let alive = st
                .due
                .iter()
                .flatten()
                .any(|(slot, _)| st.owner[*slot as usize] == report);
            if !alive {
                st.retiring = None;
            }
        }
        let round = Round::new(st.global - st.cur_start);
        let mut interference = RoundStats::default();
        let outgoing = self.collect_outgoing(
            regime,
            adversary,
            Some(round),
            &st.buffer,
            &st.slots_cur,
            &mut interference,
        );
        let mut rs = RoundStats::default();
        let psync = st.pre.map(|p| (st.gst_abs, p));
        self.enqueue_async(
            &st.config,
            psync,
            outgoing,
            st.global + 1,
            Moment::Step(st.global),
            &mut st.buffer,
            &mut st.due,
            &mut st.edge_last,
            &mut st.held,
            &mut rs,
        );
        st.owner.resize(st.buffer.len(), st.cur_report as u32);
        stats.max_buffered = stats.max_buffered.max(st.buffer.len());
        reports[st.cur_report].transmissions += rs.transmissions;
        st.global += 1;
    }

    /// The event-scheduled chained loop (asynchronous and partial-synchrony
    /// regimes): one continuous global step counter, a buffer whose slots
    /// are stamped with their emitting instance and compacted at every
    /// handover, and per-edge FIFO clamps carried across instance
    /// boundaries. GST is instance-relative: each instance's hold window
    /// covers its own first `gst` steps and bursts exactly as a one-shot
    /// run's would.
    fn run_chain_async<A, F>(
        &mut self,
        regime: &Regime,
        adversary: &mut A,
        max_steps: usize,
        instances: usize,
        mut next: F,
    ) -> (Vec<InstanceReport>, ChainStats)
    where
        A: Adversary<P::Message>,
        F: FnMut(u64) -> Vec<P>,
    {
        let (config, gst, pre) = match regime {
            Regime::Asynchronous(config) => (*config, 0u64, None),
            Regime::PartialSync { gst, pre, post } => (*post, u64::from(*gst), Some(*pre)),
            Regime::Synchronous => unreachable!("sync chains run in run_chain_sync"),
        };
        let n = self.nodes.len();
        let horizon = config.delay as usize + 1;
        let mut reports: Vec<InstanceReport> = Vec::with_capacity(instances);
        let mut stats = ChainStats::default();
        let mut st = AsyncChainState::<P> {
            config,
            pre,
            buffer: Vec::new(),
            owner: Vec::new(),
            due: vec![Vec::new(); horizon],
            edge_last: vec![0; n * n],
            held: Vec::new(),
            slots_cur: vec![Vec::new(); n],
            slots_ret: vec![Vec::new(); n],
            retiring: None,
            global: 0,
            cur_start: 0,
            cur_report: 0,
            gst_abs: gst,
        };
        let mut cancelled = false;

        for instance in 0..instances {
            if instance > 0 {
                // Flush the two-instances-back tail entirely before
                // re-arming; the cap is a backstop.
                let mut guard = 0usize;
                while st.retiring.is_some() && guard < max_steps {
                    self.async_chain_step(&mut st, regime, adversary, &mut reports, &mut stats);
                    guard += 1;
                }
                if let Some(r) = st.retiring.take() {
                    let stale = r.report as u32;
                    for bucket in st.due.iter_mut() {
                        bucket.retain(|(slot, _)| st.owner[*slot as usize] != stale);
                    }
                }
                // An instance that ended before its GST (possible only for
                // protocols that terminate early) bursts its held events at
                // the handover step; their edges' clamps held no other
                // traffic (all of a held sender's pre-GST events are held),
                // so resetting them to the handover step preserves FIFO and
                // restores the fairness bound for the next instance.
                if !st.held.is_empty() {
                    let bucket = (st.global % horizon as u64) as usize;
                    for (slot, to) in std::mem::take(&mut st.held) {
                        let from = st.buffer[slot as usize].from.index();
                        st.edge_last[from * n + to as usize] = st.global;
                        st.due[bucket].push((slot, to));
                    }
                }
                st.compact();
                self.ledger.begin_session();
                let fresh = next(instance as u64);
                assert_eq!(
                    fresh.len(),
                    n,
                    "chained instance needs one protocol per node"
                );
                let old = std::mem::replace(&mut self.nodes, fresh);
                let previous = (instance - 1) as u32;
                let has_tail = st
                    .due
                    .iter()
                    .flatten()
                    .any(|(slot, _)| st.owner[*slot as usize] == previous);
                if has_tail {
                    st.retiring = Some(AsyncRetiring {
                        nodes: old,
                        start: st.cur_start,
                        report: instance - 1,
                    });
                }
                st.cur_start = st.global;
                st.cur_report = instance;
                st.gst_abs = st.global + gst;
            }
            reports.push(InstanceReport::default());
            for inbox in st.slots_cur.iter_mut() {
                inbox.clear();
            }
            let mut interference = RoundStats::default();
            let pending = self.collect_outgoing(
                regime,
                adversary,
                None,
                &st.buffer,
                &st.slots_cur,
                &mut interference,
            );
            let mut rs = RoundStats::default();
            let psync = st.pre.map(|p| (st.gst_abs, p));
            // Start transmissions behave as if emitted one step before the
            // instance's first executed step, exactly as one-shot runs do.
            self.enqueue_async(
                &st.config,
                psync,
                pending,
                st.global,
                Moment::Start,
                &mut st.buffer,
                &mut st.due,
                &mut st.edge_last,
                &mut st.held,
                &mut rs,
            );
            st.owner.resize(st.buffer.len(), instance as u32);
            stats.max_buffered = stats.max_buffered.max(st.buffer.len());
            reports[instance].transmissions += rs.transmissions;

            loop {
                if (st.global - st.cur_start) as usize >= max_steps {
                    break;
                }
                if self.all_non_faulty_terminated() {
                    break;
                }
                if self.cancel_requested() {
                    cancelled = true;
                    break;
                }
                self.async_chain_step(&mut st, regime, adversary, &mut reports, &mut stats);
            }
            reports[instance].steps = (st.global - st.cur_start) as usize;
            reports[instance].outputs = self.nodes.iter().map(Protocol::output).collect();
            reports[instance].all_non_faulty_terminated = self.all_non_faulty_terminated();
            self.note_ledger(&mut stats);
            if cancelled {
                break;
            }
        }
        // Close the second-to-last instance's accounting; the final
        // instance's own tail is dropped as one-shot runs drop theirs.
        let mut guard = 0usize;
        while st.retiring.is_some() && !cancelled && guard < max_steps {
            self.async_chain_step(&mut st, regime, adversary, &mut reports, &mut stats);
            guard += 1;
        }
        (reports, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::honest_adversary;
    use crate::protocol::EchoOnce;
    use lbc_graph::generators;
    use lbc_model::{CommModel, NodeSet, SchedulerKind};

    fn echo_nodes(n: usize, flip: bool) -> Vec<EchoOnce> {
        (0..n)
            .map(|v| EchoOnce::new(Value::from((v % 2 == 0) ^ flip)))
            .collect()
    }

    fn network(n: usize) -> Network<EchoOnce> {
        Network::new(
            generators::cycle(n),
            CommModel::LocalBroadcast,
            NodeSet::new(),
            echo_nodes(n, false),
        )
    }

    #[test]
    fn sync_chain_decides_every_instance() {
        let mut net = network(5);
        let (reports, stats) =
            net.run_chain(&Regime::Synchronous, &mut honest_adversary(), 10, 4, |k| {
                echo_nodes(5, k % 2 == 1)
            });
        assert_eq!(reports.len(), 4);
        for (k, report) in reports.iter().enumerate() {
            assert!(report.all_non_faulty_terminated, "instance {k}");
            // EchoOnce decides its own input; node 0's input alternates
            // with the instance parity.
            assert_eq!(
                report.outputs[0],
                Some(Value::from(k % 2 == 0)),
                "instance {k}"
            );
            assert!(report.transmissions > 0, "instance {k} sent nothing");
        }
        assert!(stats.max_live_per_tag <= 2);
    }

    #[test]
    fn chain_of_one_matches_the_one_shot_run() {
        for regime in [
            Regime::Synchronous,
            Regime::Asynchronous(AsyncRegime {
                scheduler: SchedulerKind::EdgeLag,
                delay: 3,
                seed: 17,
            }),
        ] {
            let one_shot = network(6).run_under(&regime, &mut honest_adversary(), 30);
            let mut net = network(6);
            let (reports, _) =
                net.run_chain(&regime, &mut honest_adversary(), 30, 1, |_| unreachable!());
            assert_eq!(reports.len(), 1);
            assert_eq!(reports[0].outputs, one_shot.outputs, "{regime:?}");
            assert_eq!(
                reports[0].all_non_faulty_terminated,
                one_shot.all_non_faulty_terminated
            );
            assert_eq!(
                reports[0].transmissions,
                one_shot.trace.total_transmissions(),
                "{regime:?}"
            );
        }
    }

    #[test]
    fn async_chain_isolates_instances_across_schedulers() {
        for scheduler in SchedulerKind::all() {
            let regime = Regime::Asynchronous(AsyncRegime {
                scheduler,
                delay: 4,
                seed: 99,
            });
            let mut net = network(5);
            let (reports, _) = net.run_chain(&regime, &mut honest_adversary(), 40, 6, |k| {
                echo_nodes(5, k % 2 == 1)
            });
            for (k, report) in reports.iter().enumerate() {
                assert!(
                    report.all_non_faulty_terminated,
                    "{}: instance {k} did not terminate",
                    scheduler.name()
                );
                assert_eq!(
                    report.outputs[0],
                    Some(Value::from(k % 2 == 0)),
                    "{}",
                    scheduler.name()
                );
            }
        }
    }

    #[test]
    fn psync_chain_is_deterministic_and_bursts_leftover_holds() {
        // EchoOnce terminates before the hold window ends, so every
        // boundary exercises the leftover-held burst path (held events
        // release at handover, edge clamps reset); the chain must stay
        // deterministic and decide every instance.
        let regime = Regime::PartialSync {
            gst: 4,
            pre: AdversarialSchedule::holding(&[0]),
            post: AsyncRegime {
                scheduler: SchedulerKind::Fifo,
                delay: 2,
                seed: 5,
            },
        };
        let run = || {
            let mut net = network(5);
            let (reports, _) = net.run_chain(&regime, &mut honest_adversary(), 40, 3, |k| {
                echo_nodes(5, k % 2 == 1)
            });
            reports
                .iter()
                .map(|r| {
                    (
                        r.outputs.clone(),
                        r.all_non_faulty_terminated,
                        r.steps,
                        r.transmissions,
                        r.deliveries,
                    )
                })
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 3);
        for (k, (outputs, terminated, ..)) in first.iter().enumerate() {
            assert!(terminated, "instance {k}");
            assert_eq!(outputs[0], Some(Value::from(k % 2 == 0)), "instance {k}");
        }
        assert_eq!(first, run());
    }

    #[test]
    fn chained_buffer_high_water_mark_is_flat_in_chain_length() {
        // A buffer that kept every transmission of the chain would grow its
        // high-water mark linearly with the number of instances.
        let psync = Regime::PartialSync {
            gst: 3,
            pre: AdversarialSchedule::holding(&[1]),
            post: AsyncRegime {
                scheduler: SchedulerKind::DelayMax,
                delay: 3,
                seed: 11,
            },
        };
        let asynchronous = Regime::Asynchronous(AsyncRegime {
            scheduler: SchedulerKind::EdgeLag,
            delay: 3,
            seed: 7,
        });
        for regime in [asynchronous, psync] {
            let mark = |instances: usize| {
                let mut net = network(6);
                let (reports, stats) =
                    net.run_chain(&regime, &mut honest_adversary(), 40, instances, |k| {
                        echo_nodes(6, k % 2 == 1)
                    });
                assert_eq!(reports.len(), instances);
                assert!(reports.iter().all(|r| r.all_non_faulty_terminated));
                stats.max_buffered
            };
            let short = mark(50);
            assert!(short > 0);
            assert_eq!(short, mark(200), "{regime:?}");
        }
    }
}

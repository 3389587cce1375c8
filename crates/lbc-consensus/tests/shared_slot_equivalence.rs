//! The flood engines on shared delivery slots.
//!
//! The simulator stores each transmission once in a round buffer, and each
//! node's inbox is a list of slots into it; every receiver of a broadcast
//! reads the same slot. The production engine resolves a transmission once
//! per slot for all its receivers, through the ledger's key-verified slot
//! table. These tests drive the engines exactly that way — one buffer per
//! round plus per-node slot lists, filled the way `Network::deliver` fills
//! them under each communication model — and assert the transcripts and
//! final state equal the [`NaiveFlooder`] reference, which resolves every
//! delivery from scratch.
//!
//! Fault modes cover the fault-free case, tampering, omission, broadcast
//! equivocation attempts, and unicast equivocation under local broadcast
//! (overheard by every neighbor), point-to-point and hybrid models (where it
//! really diverges per receiver). A last case puts two different messages in
//! the same slot of two direct inboxes.

use lbc_consensus::flooding::{Flooder, LedgerFlooder, NaiveFloodMsg, NaiveFlooder};
use lbc_consensus::FloodMsg;
use lbc_graph::{generators, Graph};
use lbc_model::{CommModel, NodeId, NodeSet, Path, SharedFloodLedger, SharedPathArena, Value};
use lbc_sim::{Delivery, Inbox, Outgoing};

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// An engine-independent transmission: value, relay path, and the unicast
/// target (`None` for a broadcast).
type Wire = (Value, Vec<NodeId>, Option<NodeId>);

/// How the faulty node misbehaves.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    /// Never transmits.
    Silent(NodeId),
    /// Flips the value of everything it sends after round 0.
    TamperRelays(NodeId),
    /// Broadcasts each transmission twice with conflicting values.
    Equivocate(NodeId),
    /// Replaces each broadcast by one unicast per neighbor, flipping the
    /// value toward odd-indexed neighbors.
    UnicastSplit(NodeId),
}

fn apply_fault(
    fault: Fault,
    graph: &Graph,
    sender: NodeId,
    round: usize,
    msgs: Vec<(Value, Vec<NodeId>)>,
) -> Vec<Wire> {
    let broadcast = |msgs: Vec<(Value, Vec<NodeId>)>| msgs.into_iter().map(|(v, p)| (v, p, None));
    match fault {
        Fault::Silent(bad) if sender == bad => Vec::new(),
        Fault::TamperRelays(bad) if sender == bad && round > 0 => broadcast(msgs)
            .map(|(v, p, t)| (v.flipped(), p, t))
            .collect(),
        Fault::Equivocate(bad) if sender == bad => msgs
            .into_iter()
            .flat_map(|(v, p)| [(v, p.clone(), None), (v.flipped(), p, None)])
            .collect(),
        Fault::UnicastSplit(bad) if sender == bad => msgs
            .into_iter()
            .flat_map(|(v, p)| {
                graph.neighbors(sender).map(move |to| {
                    let value = if to.index() % 2 == 1 { v.flipped() } else { v };
                    (value, p.clone(), Some(to))
                })
            })
            .collect(),
        _ => broadcast(msgs).collect(),
    }
}

/// The engine interface the shared-slot driver needs.
trait Engine: Sized {
    type Msg: Clone;
    fn start(me: NodeId, input: Value) -> (Self, Vec<(Value, Vec<NodeId>)>);
    fn make_msg(value: Value, path: &[NodeId]) -> Self::Msg;
    fn run_round(
        &mut self,
        graph: &Graph,
        first: bool,
        inbox: Inbox<'_, Self::Msg>,
    ) -> Vec<(Value, Vec<NodeId>)>;
    fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)>;
    fn overheard(&self) -> Vec<(NodeId, Path, Value)>;
    fn received_count(&self) -> usize;
}

thread_local! {
    static SHARED: std::cell::RefCell<Option<(SharedPathArena, SharedFloodLedger)>> =
        const { std::cell::RefCell::new(None) };
}

fn fresh_shared() -> (SharedPathArena, SharedFloodLedger) {
    let pair = (SharedPathArena::new(), SharedFloodLedger::new());
    SHARED.with(|slot| *slot.borrow_mut() = Some(pair.clone()));
    pair
}

fn shared() -> (SharedPathArena, SharedFloodLedger) {
    SHARED.with(|slot| slot.borrow().clone().expect("script started"))
}

fn resolve_out(out: &[Outgoing<FloodMsg>]) -> Vec<(Value, Vec<NodeId>)> {
    let (arena, _) = shared();
    out.iter()
        .map(|o| match o {
            Outgoing::Broadcast(m) => (m.value, arena.resolve(m.path).nodes().to_vec()),
            Outgoing::Unicast(..) => unreachable!("flooding never unicasts"),
        })
        .collect()
}

fn interned(value: Value, path: &[NodeId]) -> FloodMsg {
    let (arena, _) = shared();
    FloodMsg {
        value,
        path: arena.intern(&Path::from_nodes(path.iter().copied())),
    }
}

impl Engine for LedgerFlooder {
    type Msg = FloodMsg;

    fn start(me: NodeId, input: Value) -> (Self, Vec<(Value, Vec<NodeId>)>) {
        let (arena, ledger) = shared();
        let (flooder, out) = LedgerFlooder::start(arena, ledger, me, input);
        (flooder, resolve_out(&out))
    }

    fn make_msg(value: Value, path: &[NodeId]) -> FloodMsg {
        interned(value, path)
    }

    fn run_round(
        &mut self,
        graph: &Graph,
        first: bool,
        inbox: Inbox<'_, FloodMsg>,
    ) -> Vec<(Value, Vec<NodeId>)> {
        resolve_out(&self.on_round(graph, first, inbox))
    }

    fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)> {
        LedgerFlooder::received_from(self, origin)
    }

    fn overheard(&self) -> Vec<(NodeId, Path, Value)> {
        LedgerFlooder::overheard(self)
    }

    fn received_count(&self) -> usize {
        LedgerFlooder::received_count(self)
    }
}

impl Engine for Flooder {
    type Msg = FloodMsg;

    fn start(me: NodeId, input: Value) -> (Self, Vec<(Value, Vec<NodeId>)>) {
        let (arena, _) = shared();
        let (flooder, out) = Flooder::start(arena, me, input);
        (flooder, resolve_out(&out))
    }

    fn make_msg(value: Value, path: &[NodeId]) -> FloodMsg {
        interned(value, path)
    }

    fn run_round(
        &mut self,
        graph: &Graph,
        first: bool,
        inbox: Inbox<'_, FloodMsg>,
    ) -> Vec<(Value, Vec<NodeId>)> {
        resolve_out(&self.on_round(graph, first, inbox))
    }

    fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)> {
        Flooder::received_from(self, origin)
    }

    fn overheard(&self) -> Vec<(NodeId, Path, Value)> {
        Flooder::overheard(self)
    }

    fn received_count(&self) -> usize {
        Flooder::received_count(self)
    }
}

fn naive_out(out: &[Outgoing<NaiveFloodMsg>]) -> Vec<(Value, Vec<NodeId>)> {
    out.iter()
        .map(|o| match o {
            Outgoing::Broadcast(m) => (m.value, m.path.nodes().to_vec()),
            Outgoing::Unicast(..) => unreachable!("flooding never unicasts"),
        })
        .collect()
}

impl Engine for NaiveFlooder {
    type Msg = NaiveFloodMsg;

    fn start(me: NodeId, input: Value) -> (Self, Vec<(Value, Vec<NodeId>)>) {
        let (flooder, out) = NaiveFlooder::start(me, input);
        (flooder, naive_out(&out))
    }

    fn make_msg(value: Value, path: &[NodeId]) -> NaiveFloodMsg {
        NaiveFloodMsg {
            value,
            path: Path::from_nodes(path.iter().copied()),
        }
    }

    fn run_round(
        &mut self,
        graph: &Graph,
        first: bool,
        inbox: Inbox<'_, NaiveFloodMsg>,
    ) -> Vec<(Value, Vec<NodeId>)> {
        naive_out(&self.on_round(graph, first, inbox))
    }

    fn received_from(&self, origin: NodeId) -> Vec<(Path, Value)> {
        NaiveFlooder::received_from(self, origin)
    }

    fn overheard(&self) -> Vec<(NodeId, Path, Value)> {
        NaiveFlooder::overheard(self)
    }

    fn received_count(&self) -> usize {
        NaiveFlooder::received_count(self)
    }
}

#[derive(Debug, PartialEq)]
struct Transcript {
    rounds: Vec<Vec<(NodeId, Wire)>>,
    received_from: Vec<Vec<(Path, Value)>>,
    overheard: Vec<Vec<(NodeId, Path, Value)>>,
    received_counts: Vec<usize>,
}

/// Runs one engine over `rounds` rounds, delivering through one shared
/// buffer per round: each transmission is stored once, in sender order, and
/// each receiver's inbox lists its slot — every neighbor for a broadcast or
/// an overheard unicast, only the target for a unicast the model lets the
/// sender address privately.
fn run_shared<E: Engine>(
    graph: &Graph,
    model: &CommModel,
    inputs: &[Value],
    rounds: usize,
    fault: Fault,
) -> Transcript {
    let _ = fresh_shared();
    let size = graph.node_count();
    let mut flooders = Vec::with_capacity(size);
    let mut pending: Vec<Vec<Wire>> = Vec::with_capacity(size);
    for (v, &input) in inputs.iter().enumerate() {
        let (flooder, msgs) = E::start(n(v), input);
        flooders.push(flooder);
        pending.push(apply_fault(fault, graph, n(v), 0, msgs));
    }
    let mut buffer: Vec<Delivery<E::Msg>> = Vec::new();
    let mut slots: Vec<Vec<u32>> = vec![Vec::new(); size];
    let mut transcript_rounds = Vec::with_capacity(rounds);
    for round in 0..rounds {
        transcript_rounds.push(
            pending
                .iter()
                .enumerate()
                .flat_map(|(v, wires)| wires.iter().map(move |w| (n(v), w.clone())))
                .collect(),
        );
        buffer.clear();
        slots.iter_mut().for_each(Vec::clear);
        for (sender, wires) in pending.iter().enumerate() {
            let sender = n(sender);
            for (value, path, target) in wires {
                let slot = u32::try_from(buffer.len()).expect("small buffer");
                let private = target.filter(|_| model.allows_equivocation(sender));
                if private.is_some_and(|to| !graph.has_edge(sender, to)) {
                    continue;
                }
                buffer.push(Delivery {
                    from: sender,
                    message: E::make_msg(*value, path),
                });
                match private {
                    Some(to) => slots[to.index()].push(slot),
                    None => graph
                        .neighbors(sender)
                        .for_each(|to| slots[to.index()].push(slot)),
                }
            }
        }
        pending = flooders
            .iter_mut()
            .enumerate()
            .map(|(v, flooder)| {
                let inbox = Inbox::indexed(&buffer, &slots[v]);
                let msgs = flooder.run_round(graph, round == 0, inbox);
                apply_fault(fault, graph, n(v), round + 1, msgs)
            })
            .collect();
    }
    Transcript {
        rounds: transcript_rounds,
        received_from: flooders
            .iter()
            .map(|f| (0..size).flat_map(|o| f.received_from(n(o))).collect())
            .collect(),
        overheard: flooders.iter().map(E::overheard).collect(),
        received_counts: flooders.iter().map(E::received_count).collect(),
    }
}

fn assert_shared_equivalent(graph: &Graph, model: &CommModel, fault: Fault, label: &str) {
    let inputs: Vec<Value> = (0..graph.node_count())
        .map(|i| Value::from(i % 3 == 0))
        .collect();
    let rounds = graph.node_count() + 1;
    let naive = run_shared::<NaiveFlooder>(graph, model, &inputs, rounds, fault);
    for (engine, transcript) in [
        (
            "per-node",
            run_shared::<Flooder>(graph, model, &inputs, rounds, fault),
        ),
        (
            "ledger",
            run_shared::<LedgerFlooder>(graph, model, &inputs, rounds, fault),
        ),
    ] {
        assert_eq!(transcript, naive, "{label}/{engine} ({fault:?}) diverges");
    }
}

fn fault_modes(bad: NodeId) -> [Fault; 5] {
    [
        Fault::None,
        Fault::Silent(bad),
        Fault::TamperRelays(bad),
        Fault::Equivocate(bad),
        Fault::UnicastSplit(bad),
    ]
}

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle6", generators::cycle(6)),
        ("k5", generators::complete(5)),
        ("wheel7", generators::wheel(7)),
        ("circulant8", generators::circulant(8, &[1, 2])),
    ]
}

#[test]
fn shared_slots_match_the_reference_under_local_broadcast() {
    for (label, graph) in graphs() {
        for fault in fault_modes(n(1)) {
            assert_shared_equivalent(&graph, &CommModel::LocalBroadcast, fault, label);
        }
    }
}

#[test]
fn shared_slots_match_the_reference_under_point_to_point() {
    for (label, graph) in graphs() {
        for fault in fault_modes(n(1)) {
            assert_shared_equivalent(&graph, &CommModel::PointToPoint, fault, label);
        }
    }
}

#[test]
fn shared_slots_match_the_reference_under_hybrid_equivocation() {
    for (label, graph) in graphs() {
        // The faulty node equivocates; a listed node that stays honest and
        // an unlisted faulty node exercise the other two hybrid branches.
        for (equivocators, bad) in [(vec![1], 1), (vec![1], 2), (vec![0, 3], 3)] {
            let model = CommModel::Hybrid {
                equivocators: equivocators.into_iter().map(n).collect::<NodeSet>(),
            };
            for fault in fault_modes(n(bad)) {
                assert_shared_equivalent(&graph, &model, fault, label);
            }
        }
    }
}

/// Two direct inboxes are separate slices, so their positions collide: slot
/// 0 of node 1's inbox and slot 0 of node 3's carry different messages on
/// the same ledger channel. A slot-table entry must be verified against the
/// message identity, or the second receiver would reuse the first one's
/// resolution.
#[test]
fn colliding_direct_inbox_slots_resolve_independently() {
    let graph = generators::cycle(5);
    let (arena, ledger) = fresh_shared();
    let msg = |from: usize, value: Value, path: &[usize]| Delivery {
        from: n(from),
        message: FloodMsg {
            value,
            path: arena.intern(&Path::from_nodes(path.iter().map(|&i| n(i)))),
        },
    };
    // Round 0: a rule-(i) failure at node 1 ([4]‑2: 4 and 2 are not
    // adjacent) and a valid relay at node 3 ([1]‑2), both in slot 0.
    // Round 1: the same sender and path with different values, then
    // different senders, each in slot 0.
    let scripts: [[Vec<Delivery<FloodMsg>>; 2]; 2] = [
        [
            vec![msg(2, Value::One, &[4]), msg(0, Value::One, &[])],
            vec![msg(2, Value::One, &[1]), msg(4, Value::Zero, &[])],
        ],
        [
            vec![msg(2, Value::Zero, &[3]), msg(0, Value::Zero, &[4])],
            vec![msg(2, Value::One, &[1, 0]), msg(2, Value::Zero, &[])],
        ],
    ];
    let receivers = [1, 3];
    let mut ledgered: Vec<LedgerFlooder> = receivers
        .iter()
        .map(|&v| LedgerFlooder::start(arena.clone(), ledger.clone(), n(v), Value::Zero).0)
        .collect();
    let mut controls: Vec<Flooder> = receivers
        .iter()
        .map(|&v| Flooder::start(arena.clone(), n(v), Value::Zero).0)
        .collect();
    for (round, inboxes) in scripts.iter().enumerate() {
        for (i, inbox) in inboxes.iter().enumerate() {
            let got = ledgered[i].on_round(&graph, round == 0, Inbox::direct(inbox));
            let want = controls[i].on_round(&graph, round == 0, Inbox::direct(inbox));
            assert_eq!(got, want, "round {round}, node {}", receivers[i]);
        }
    }
    for i in 0..receivers.len() {
        assert_eq!(ledgered[i].overheard(), controls[i].overheard());
        assert_eq!(ledgered[i].received_count(), controls[i].received_count());
        for origin in 0..5 {
            assert_eq!(
                ledgered[i].received_from(n(origin)),
                controls[i].received_from(n(origin))
            );
        }
    }
    // The valid relay [1, 2] really was accepted at node 3.
    assert_eq!(
        ledgered[1].value_along(&Path::from_nodes([n(1), n(2), n(3)])),
        Some(Value::One)
    );
}

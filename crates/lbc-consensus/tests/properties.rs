//! Property-based tests: consensus correctness on randomly generated
//! satisfying graphs with random fault placements, inputs, and adversary
//! strategies; structural properties of the feasibility conditions; and the
//! reliable-receive kernel held against its reference path search.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use lbc_adversary::Strategy;
use lbc_consensus::flooding::LedgerFlooder;
use lbc_consensus::{conditions, runner, FloodMsg};
use lbc_graph::{generators, paths, Graph};
use lbc_model::{
    InputAssignment, NodeId, NodeSet, Path, PathId, SharedFloodLedger, SharedPathArena, Value,
};
use lbc_sim::{Delivery, Inbox, Outgoing};

/// A random graph satisfying the paper's f = 1 conditions (minimum degree 2,
/// 2-connected), on 5–8 nodes.
fn satisfying_graph_f1(n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::random_satisfying(n, 1, 0.25, &mut rng)
}

fn strategy_from_index(index: usize) -> Strategy {
    let all = Strategy::all(17);
    all[index % all.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// **Sufficiency, randomized** (Theorem 5.1): Algorithm 1 reaches
    /// consensus on random satisfying graphs with a random Byzantine node, a
    /// random strategy, and random inputs.
    #[test]
    fn algorithm1_correct_on_random_satisfying_graphs(
        n in 5usize..8,
        seed in 0u64..10_000,
        faulty_index in 0usize..8,
        strategy_index in 0usize..8,
        bits in 0u64..256,
    ) {
        let graph = satisfying_graph_f1(n, seed);
        prop_assume!(conditions::local_broadcast_feasible(&graph, 1));
        let faulty = NodeSet::singleton(NodeId::new(faulty_index % n));
        let inputs = InputAssignment::from_bits(n, bits);
        let strategy = strategy_from_index(strategy_index);
        let mut adversary = strategy.clone().into_adversary();
        let (outcome, _) = runner::run_algorithm1(&graph, 1, &inputs, &faulty, &mut adversary);
        prop_assert!(
            outcome.verdict().is_correct(),
            "n={n} seed={seed} faulty={faulty} strategy={} inputs={inputs}: {outcome}",
            strategy.name()
        );
    }

    /// **Validity under unanimity, randomized**: when every non-faulty node
    /// holds the same input, that value is the only possible output,
    /// whatever the (single) faulty node does.
    #[test]
    fn unanimous_inputs_decide_that_value(
        n in 5usize..8,
        seed in 0u64..10_000,
        faulty_index in 0usize..8,
        strategy_index in 0usize..8,
        unanimous in any::<bool>(),
    ) {
        let graph = satisfying_graph_f1(n, seed);
        prop_assume!(conditions::local_broadcast_feasible(&graph, 1));
        let faulty = NodeSet::singleton(NodeId::new(faulty_index % n));
        let value = lbc_model::Value::from(unanimous);
        let mut inputs = InputAssignment::uniform(n, value);
        // The faulty node's own input may be anything.
        inputs.set(NodeId::new(faulty_index % n), value.flipped());
        let strategy = strategy_from_index(strategy_index);
        let mut adversary = strategy.into_adversary();
        let (outcome, _) = runner::run_algorithm1(&graph, 1, &inputs, &faulty, &mut adversary);
        prop_assert!(outcome.verdict().is_correct(), "{outcome}");
        prop_assert_eq!(outcome.agreed_value(), Some(value));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feasibility is antitone in `f`: a graph feasible for `f + 1` is
    /// feasible for `f`, under all three characterizations.
    #[test]
    fn feasibility_is_antitone_in_f(n in 4usize..10, p in 0.3f64..0.9, seed in 0u64..1000, f in 0usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_gnp(n, p, &mut rng);
        if conditions::local_broadcast_feasible(&graph, f + 1) {
            prop_assert!(conditions::local_broadcast_feasible(&graph, f));
        }
        if conditions::point_to_point_feasible(&graph, f + 1) {
            prop_assert!(conditions::point_to_point_feasible(&graph, f));
        }
        if conditions::hybrid_feasible(&graph, f + 1, 0) {
            prop_assert!(conditions::hybrid_feasible(&graph, f, 0));
        }
    }

    /// The hybrid requirement is monotone in `t` and interpolates between the
    /// two pure models.
    #[test]
    fn hybrid_requirement_is_monotone(f in 0usize..8) {
        let mut previous = 0;
        for t in 0..=f {
            let req = conditions::hybrid_connectivity_requirement(f, t);
            prop_assert!(req >= previous);
            previous = req;
        }
        prop_assert_eq!(
            conditions::hybrid_connectivity_requirement(f, 0),
            conditions::local_broadcast_connectivity_requirement(f)
        );
        prop_assert_eq!(
            conditions::hybrid_connectivity_requirement(f, f),
            conditions::point_to_point_connectivity_requirement(f)
        );
    }

    /// Point-to-point feasibility implies local broadcast feasibility
    /// (equivocation only makes the adversary stronger), for every graph.
    #[test]
    fn p2p_feasible_implies_local_broadcast_feasible(n in 4usize..10, p in 0.3f64..0.9, seed in 0u64..1000, f in 0usize..3) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_gnp(n, p, &mut rng);
        if conditions::point_to_point_feasible(&graph, f) {
            prop_assert!(conditions::local_broadcast_feasible(&graph, f));
            prop_assert!(conditions::hybrid_feasible(&graph, f, f.min(1)));
        }
    }
}

/// Embeds `graph` into `size` node ids: node `i` becomes node
/// `i + size - n`, the lower ids stay isolated. With `size > 64` the flood's
/// relays straddle the first word boundary of the member bitsets.
fn spread(graph: &Graph, size: usize) -> Graph {
    let shift = size - graph.node_count();
    let edges = graph.edges().map(|(u, v)| {
        (
            NodeId::new(u.index() + shift),
            NodeId::new(v.index() + shift),
        )
    });
    Graph::from_edges(size, edges).expect("shifted ids stay below size")
}

/// A whole-graph lockstep flood on the production engine: every node floods
/// bit `v % 64` of `bits` for `n` rounds under local broadcast; `tamperer`,
/// if any, flips the value of every relay it forwards.
fn ledger_flood(
    graph: &Graph,
    bits: u64,
    tamperer: Option<NodeId>,
) -> (SharedPathArena, Vec<LedgerFlooder>) {
    let arena = SharedPathArena::new();
    let ledger = SharedFloodLedger::new();
    let mut flooders = Vec::new();
    let mut pending = Vec::new();
    for v in graph.nodes() {
        let input = Value::from((bits >> (v.index() % 64)) & 1 == 1);
        let (flooder, out) = LedgerFlooder::start(arena.clone(), ledger.clone(), v, input);
        flooders.push(flooder);
        pending.push(out);
    }
    for round in 0..graph.node_count() {
        let mut inboxes: Vec<Vec<Delivery<FloodMsg>>> = vec![Vec::new(); graph.node_count()];
        for (sender, out) in pending.iter().enumerate() {
            let from = NodeId::new(sender);
            for outgoing in out {
                let Outgoing::Broadcast(mut message) = *outgoing else {
                    unreachable!("flooding only broadcasts");
                };
                if tamperer == Some(from) && round > 0 {
                    message.value = message.value.flipped();
                }
                for neighbor in graph.neighbors(from) {
                    inboxes[neighbor.index()].push(Delivery { from, message });
                }
            }
        }
        for (v, flooder) in flooders.iter_mut().enumerate() {
            pending[v] = flooder.on_round(graph, round == 0, Inbox::direct(&inboxes[v]));
        }
    }
    (arena, flooders)
}

/// Holds the relay-id kernel against the reference search on materialized
/// paths, for every receiver, origin, value and `k ∈ {0, 1, 2, 3}` of one
/// flood. Besides each full value-filtered relay set, a `subset`-selected
/// part of it is checked too, so the kernel also meets relay sets the
/// flood alone would not produce.
fn assert_kernel_matches_oracle(
    graph: &Graph,
    arena: &SharedPathArena,
    flooders: &[LedgerFlooder],
    subset: u64,
) {
    let mut scratch = Vec::new();
    for v in graph.nodes().filter(|&v| graph.degree(v) > 0) {
        let flooder = &flooders[v.index()];
        for origin in graph.nodes().filter(|&u| u != v && graph.degree(u) > 0) {
            for value in [Value::Zero, Value::One] {
                let relays: Vec<PathId> = flooder
                    .relay_ids_from(origin)
                    .iter()
                    .copied()
                    .filter(|&relay| flooder.value_along_relay(relay) == Some(value))
                    .collect();
                let picked: Vec<PathId> = relays
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (subset >> (i % 64)) & 1 == 1)
                    .map(|(_, &relay)| relay)
                    .collect();
                for k in 0..=3 {
                    let expected = paths::find_internally_disjoint_subset(
                        &flooder.paths_with_value(origin, value),
                        k,
                    )
                    .is_some();
                    assert_eq!(
                        flooder.has_disjoint_relays(origin, value, k, &mut scratch),
                        expected,
                        "v{} origin v{} value {} k {}",
                        v,
                        origin,
                        value,
                        k
                    );
                    let full_paths: Vec<Path> = picked
                        .iter()
                        .map(|&relay| {
                            let mut nodes = arena.resolve(relay).nodes().to_vec();
                            nodes.push(v);
                            Path::from_nodes(nodes)
                        })
                        .collect();
                    let expected = paths::find_internally_disjoint_subset(&full_paths, k).is_some();
                    let mut ids = picked.clone();
                    assert_eq!(
                        arena.borrow().has_internally_disjoint(&mut ids, k),
                        expected,
                        "subset of v{} origin v{} value {} k {}",
                        v,
                        origin,
                        value,
                        k
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// **Reliable-receive kernel, differential**: deciding Definition C.1's
    /// disjointness on interned relay ids agrees with the reference search
    /// over materialized `relay‑me` paths, on real floods (with and without
    /// a tampering relay), and on graphs whose node ids pass 64 so member
    /// sets span two words.
    #[test]
    fn disjoint_relay_kernel_matches_the_path_oracle(
        n in 5usize..8,
        seed in 0u64..10_000,
        density in 0.0f64..0.5,
        bits in any::<u64>(),
        tamper in any::<bool>(),
        tamperer_index in 0usize..8,
        wide in any::<bool>(),
        subset in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let small = generators::random_satisfying(n, 1, density, &mut rng);
        let graph = if wide { spread(&small, 70) } else { small };
        let shift = graph.node_count() - n;
        let tamperer = tamper.then(|| NodeId::new(shift + tamperer_index % n));
        let (arena, flooders) = ledger_flood(&graph, bits, tamperer);
        assert_kernel_matches_oracle(&graph, &arena, &flooders, subset);
    }
}

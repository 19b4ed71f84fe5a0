//! Oracles for the two solver kernels Fig. 6 waits on: the Spider-LP
//! primal-dual sweep (pinned on the benchmark's ISP instance) and the
//! reusable max-flow solver (differential against a network built fresh for
//! every query, over balances that evolve).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spider::core::{Amount, BalanceView, Network, NodeId, Path};
use spider::opt::{primal_dual, ChannelFlow, FlowNetwork, MaxFlowSolver, PrimalDualConfig};
use spider::sim::{Ledger, LedgerView};
use spider::topology::{isp_topology, ripple_topology_scaled};
use spider_bench::{lp_candidate_paths, ExperimentConfig};
use spider_workload::demand_matrix;

/// FNV-1a-64 over the little-endian bytes of every value's bit pattern.
fn fnv1a_bits(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The LP of `isp-fig6` (instance 0 of run seed 1: ISP-32, 30k payments over
/// 30 s, trace seed 4, 4 edge-disjoint paths a pair, α = η = κ = 0.05, 5,000
/// sweeps). The hash was captured on the commit before the sweep was
/// flattened; any reordering of a floating-point sum moves it.
#[test]
fn isp_fig6_lp_flows_match_the_pre_flattening_hash() {
    let cfg = ExperimentConfig {
        num_transactions: 30_000,
        duration: 30.0,
        seed: 4,
        ..ExperimentConfig::isp_quick()
    };
    let network = cfg.network();
    let trace = cfg.trace(&network);
    let demand = demand_matrix(&trace, 0.0, cfg.duration);
    let (paths, demand) = lp_candidate_paths(&network, &demand);
    assert_eq!(
        (demand.len(), paths.len(), network.num_channels()),
        (981, 3_924, 152)
    );
    assert_eq!(paths.iter().map(|p| p.hops().len()).sum::<usize>(), 9_059);
    let config = PrimalDualConfig {
        alpha: 0.05,
        eta: 0.05,
        kappa: 0.05,
        max_iters: 5_000,
        ..Default::default()
    };
    let sol = primal_dual::solve(&network, &demand, &paths, 0.5, &config);
    assert_eq!((sol.iterations, sol.converged), (5_000, false));
    assert_eq!(format!("{:.6}", sol.throughput), "84399.268179");
    assert_eq!(fnv1a_bits(&sol.path_flows), ISP_FIG6_PATH_FLOWS_FNV1A);
}

const ISP_FIG6_PATH_FLOWS_FNV1A: u64 = 0x57e5_3fcc_311b_4399;

/// The oracle: a `FlowNetwork` built for this query alone.
fn fresh_flow(
    network: &Network,
    balances: &dyn BalanceView,
    src: NodeId,
    dst: NodeId,
    limit: Amount,
) -> (Amount, Vec<(Vec<NodeId>, Amount)>, u64) {
    let (mut fnw, _) = FlowNetwork::from_channel_balances(network, balances);
    let value = fnw.max_flow(src.index(), dst.index(), limit.micros());
    let paths = fnw
        .decompose_paths(src.index(), dst.index())
        .into_iter()
        .map(|(nodes, v)| {
            let nodes = nodes.into_iter().map(NodeId::from).collect();
            (nodes, Amount::from_micros(v))
        })
        .collect();
    (Amount::from_micros(value), paths, fnw.augmentations())
}

fn same_answer(flow: ChannelFlow, oracle: (Amount, Vec<(Vec<NodeId>, Amount)>, u64)) -> bool {
    (flow.value, flow.paths, flow.augmenting_paths) == oracle
}

/// `queries` seeded queries through one solver against a ledger that
/// evolves: every answer that covers its payment is locked part by part, and
/// after each query one earlier lock may be settled (funds cross the
/// channel) or refunded, so directions run dry and recover. Every answer
/// must equal the fresh-network oracle's. Returns how many answers fell
/// short of their payment.
fn drive(
    solver: &mut MaxFlowSolver,
    network: &Network,
    rng: &mut StdRng,
    queries: usize,
    max_tokens: i64,
) -> usize {
    let n = network.num_nodes() as u32;
    let mut ledger = Ledger::new(network);
    let mut locked: Vec<(Path, Amount)> = Vec::new();
    let mut short = 0;
    for q in 0..queries {
        let (src, dst) = (
            NodeId(rng.random_range(0..n)),
            NodeId(rng.random_range(0..n)),
        );
        // Now and then a query that must answer zero without searching.
        let limit = match q % 97 {
            0 => Amount::ZERO,
            1 => Amount::from_micros(-5),
            _ => Amount::from_micros(rng.random_range(1..=max_tokens * 1_000_000)),
        };
        let view = LedgerView {
            network,
            ledger: &ledger,
        };
        let flow = solver.query(network, &view, src, dst, limit);
        let oracle = fresh_flow(network, &view, src, dst, limit);
        assert!(
            same_answer(flow.clone(), oracle),
            "query {q}: {src}->{dst} limit {limit}"
        );
        assert_eq!(
            flow.paths.iter().map(|(_, v)| *v).sum::<Amount>(),
            flow.value
        );
        if flow.value < limit {
            short += 1;
        } else {
            for (nodes, value) in flow.paths {
                let path = Path::new(network, nodes).expect("decomposed trail is a path");
                ledger
                    .lock_path(network, &path, value)
                    .expect("a flow fits the balances it was computed on");
                locked.push((path, value));
            }
        }
        if !locked.is_empty() && rng.random_bool(0.8) {
            let (path, value) = locked.swap_remove(rng.random_range(0..locked.len()));
            if rng.random_bool(0.7) {
                ledger.settle_path(network, &path, value).unwrap();
            } else {
                ledger.refund_path(network, &path, value).unwrap();
            }
        }
        assert!(ledger.conserves_all());
    }
    short
}

#[test]
fn reused_max_flow_solver_matches_a_fresh_network_per_query() {
    let mut rng = StdRng::seed_from_u64(22);
    let isp = isp_topology(Amount::from_whole(300));
    let ripple = ripple_topology_scaled(400, Amount::from_whole(300), 7);
    let mut solver = MaxFlowSolver::default();
    // Payments of up to a few channels' worth: a fair share cannot be
    // routed, and the ones that are drain the directions they cross.
    let short = drive(&mut solver, &isp, &mut rng, 3_000, 150);
    assert!((300..2_700).contains(&short), "ISP: {short} short answers");
    let short = drive(&mut solver, &ripple, &mut rng, 2_500, 150);
    assert!(
        (250..2_250).contains(&short),
        "Ripple-400: {short} short answers"
    );

    // Same node and channel counts, different wiring: the solver must notice
    // and rebuild. Channel 0 of `ring` joins nodes 0 and 1, of `shifted`
    // nodes 0 and 2, so a stale mirror would route over a channel that is
    // not there.
    let ring_of = |step: u32| {
        let mut g = Network::new(7);
        for a in 0..7 {
            g.add_channel(NodeId(a), NodeId((a + step) % 7), Amount::from_whole(20))
                .unwrap();
        }
        g
    };
    let (ring, shifted) = (ring_of(1), ring_of(2));
    for network in [&ring, &shifted, &ring, &shifted] {
        drive(&mut solver, network, &mut rng, 50, 15);
    }

    // A pair with no route at all, on a solver that has routed before.
    let mut split = Network::new(7);
    for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)] {
        split
            .add_channel(NodeId(a), NodeId(b), Amount::from_whole(20))
            .unwrap();
    }
    let flow = solver.query(&split, &split, NodeId(0), NodeId(4), Amount::ONE);
    assert!(same_answer(flow, (Amount::ZERO, Vec::new(), 0)));
    let flow = solver.query(&split, &split, NodeId(3), NodeId(3), Amount::ONE);
    assert!(same_answer(flow, (Amount::ZERO, Vec::new(), 0)));
    drive(&mut solver, &split, &mut rng, 200, 15);
}

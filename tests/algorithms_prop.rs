//! Property-based cross-validation of the algorithmic substrates against
//! brute-force oracles on small random instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spider::core::{Amount, BalanceView, ChannelId, Direction, Network, NodeId};
use spider::opt::simplex::{LinearProgram, LpOutcome, Relation};
use spider::opt::FlowNetwork;
use spider::routing::{edge_disjoint_paths, k_shortest_paths, shortest_path};
use spider::routing::{RoutingScheme, ShortestPathScheme, UnitDecision, WaterfillingScheme};

/// A connected random network with `n` nodes and edge probability `p`.
fn random_network(n: usize, p: f64, seed: u64) -> Network {
    spider::topology::erdos_renyi(n, p, Amount::from_whole(10), seed)
}

/// Per-channel side balances, side 0 sending from `a` to `b`.
struct Sides<'a> {
    network: &'a Network,
    sides: Vec<[Amount; 2]>,
}

impl Sides<'_> {
    fn side(dir: Direction) -> usize {
        match dir {
            Direction::AtoB => 0,
            Direction::BtoA => 1,
        }
    }
}

impl BalanceView for Sides<'_> {
    fn available(&self, channel: ChannelId, from: NodeId) -> Amount {
        let side = usize::from(self.network.channel(channel).a != from);
        self.sides[channel.index()][side]
    }
}

/// Brute-force: all simple-path hop counts between two nodes via DFS.
fn all_simple_path_lengths(g: &Network, src: NodeId, dst: NodeId) -> Vec<usize> {
    fn dfs(
        g: &Network,
        dst: NodeId,
        node: NodeId,
        visited: &mut Vec<bool>,
        depth: usize,
        out: &mut Vec<usize>,
    ) {
        if node == dst {
            out.push(depth);
            return;
        }
        for &(v, _) in g.neighbors(node) {
            if !visited[v.index()] {
                visited[v.index()] = true;
                dfs(g, dst, v, visited, depth + 1, out);
                visited[v.index()] = false;
            }
        }
    }
    let mut visited = vec![false; g.num_nodes()];
    visited[src.index()] = true;
    let mut out = Vec::new();
    dfs(g, dst, src, &mut visited, 0, &mut out);
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Yen's k-shortest agrees with brute-force enumeration of simple-path
    /// lengths on small graphs.
    #[test]
    fn yen_matches_brute_force(seed in 0u64..300, n in 4usize..8) {
        let g = random_network(n, 0.45, seed);
        let (src, dst) = (NodeId(0), NodeId(n as u32 - 1));
        let oracle = all_simple_path_lengths(&g, src, dst);
        let k = 4usize;
        let yen = k_shortest_paths(&g, src, dst, k);
        // Same number of paths (up to k)...
        prop_assert_eq!(yen.len(), oracle.len().min(k));
        // ...with exactly the k smallest lengths.
        let yen_lens: Vec<usize> = yen.iter().map(|p| p.len()).collect();
        prop_assert_eq!(&yen_lens[..], &oracle[..yen.len()]);
        // And every returned path is loopless (distinct nodes).
        for p in &yen {
            let mut nodes = p.nodes().to_vec();
            nodes.sort_unstable();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), p.nodes().len());
        }
    }

    /// BFS shortest path matches the minimum of the brute-force set.
    #[test]
    fn bfs_matches_brute_force_minimum(seed in 0u64..300, n in 4usize..8) {
        let g = random_network(n, 0.4, seed);
        let (src, dst) = (NodeId(1), NodeId(n as u32 - 1));
        let oracle = all_simple_path_lengths(&g, src, dst);
        let bfs = shortest_path(&g, src, dst);
        match (oracle.first(), bfs) {
            (Some(&min), Some(p)) => prop_assert_eq!(p.len(), min),
            (None, None) => {}
            (a, b) => prop_assert!(false, "oracle {a:?} vs bfs {b:?}"),
        }
    }

    /// Edge-disjoint paths: pairwise disjoint, valid, non-decreasing length.
    #[test]
    fn edge_disjoint_properties(
        seed in 0u64..300,
        n in 4usize..9,
        k in 1usize..5,
        ends in (0usize..9, 0usize..9),
    ) {
        let g = random_network(n, 0.5, seed);
        let (src, dst) = (NodeId::from(ends.0 % n), NodeId::from(ends.1 % n));
        let paths = edge_disjoint_paths(&g, src, dst, k);
        prop_assert!(paths.len() <= k);
        // The graph is connected, so only a self-pair has no path.
        prop_assert_eq!(paths.is_empty(), src == dst);
        for p in &paths {
            prop_assert_eq!((p.source(), p.dest()), (src, dst));
        }
        for w in paths.windows(2) {
            prop_assert!(w[0].len() <= w[1].len(), "greedy lengths must not decrease");
        }
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                for &(c, _) in paths[i].hops() {
                    prop_assert!(!paths[j].uses_channel(c));
                }
            }
        }
    }

    /// Max-flow equals brute-force min-cut on small directed networks.
    #[test]
    fn maxflow_equals_min_cut(seed in 0u64..400, n in 3usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut caps = vec![vec![0i64; n]; n];
        let mut f = FlowNetwork::new(n);
        for (u, row) in caps.iter_mut().enumerate() {
            for (v, cap) in row.iter_mut().enumerate() {
                if u != v && rng.random_bool(0.5) {
                    let c = rng.random_range(1..10i64);
                    *cap = c;
                    f.add_edge(u, v, c);
                }
            }
        }
        let (s, t) = (0, n - 1);
        let flow = f.max_flow(s, t, i64::MAX);
        // Brute-force min cut over all vertex subsets containing s, not t.
        let mut min_cut = i64::MAX;
        for mask in 0..(1u32 << n) {
            if mask & 1 == 0 || mask & (1 << t) != 0 {
                continue;
            }
            let mut cut = 0;
            for (u, row) in caps.iter().enumerate() {
                for (v, &c) in row.iter().enumerate() {
                    if mask & (1 << u) != 0 && mask & (1 << v) == 0 {
                        cut += c;
                    }
                }
            }
            min_cut = min_cut.min(cut);
        }
        prop_assert_eq!(flow, min_cut, "max-flow/min-cut mismatch");
    }

    /// Simplex agrees with brute-force vertex enumeration on random 2-D LPs.
    #[test]
    fn simplex_matches_vertex_enumeration(
        seed in 0u64..500,
        m in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // maximize c·x over {x, y >= 0, a_i x + b_i y <= r_i}.
        let c = [rng.random_range(0.1..2.0), rng.random_range(0.1..2.0)];
        let mut rows: Vec<[f64; 3]> = Vec::new();
        for _ in 0..m {
            rows.push([
                rng.random_range(0.1..2.0),
                rng.random_range(0.1..2.0),
                rng.random_range(1.0..10.0),
            ]);
        }
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, c[0]), (1, c[1])]);
        for r in &rows {
            lp.add_constraint(&[(0, r[0]), (1, r[1])], Relation::Le, r[2]);
        }
        let sol = match lp.solve() {
            LpOutcome::Optimal(s) => s,
            other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        };
        // Vertex enumeration: intersections of every pair of constraint
        // lines (plus the axes), filtered for feasibility.
        let mut lines: Vec<[f64; 3]> = rows.clone();
        lines.push([1.0, 0.0, 0.0]); // x = 0
        lines.push([0.0, 1.0, 0.0]); // y = 0
        let feasible = |x: f64, y: f64| -> bool {
            x >= -1e-9
                && y >= -1e-9
                && rows.iter().all(|r| r[0] * x + r[1] * y <= r[2] + 1e-9)
        };
        let mut best = f64::NEG_INFINITY;
        for i in 0..lines.len() {
            for j in i + 1..lines.len() {
                let det = lines[i][0] * lines[j][1] - lines[j][0] * lines[i][1];
                if det.abs() < 1e-12 {
                    continue;
                }
                let x = (lines[i][2] * lines[j][1] - lines[j][2] * lines[i][1]) / det;
                let y = (lines[i][0] * lines[j][2] - lines[j][0] * lines[i][2]) / det;
                if feasible(x, y) {
                    best = best.max(c[0] * x + c[1] * y);
                }
            }
        }
        prop_assert!(
            (sol.objective - best).abs() < 1e-6,
            "simplex {} vs oracle {}",
            sol.objective,
            best
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `blockers` is sound for both schemes that implement it: when it
    /// names blocking sides, `route_unit` answers `Unavailable`, and it
    /// still does after every side it did not name is raised — only a
    /// credit to a named side can change the answer. Every side it names
    /// holds less than the unit, and it answers `true` for every
    /// `Unavailable`.
    #[test]
    fn blockers_are_sound(seed in 0u64..1_000, n in 3usize..9, unit in 1i64..12) {
        let network = random_network(n, 0.4, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let sides: Vec<[Amount; 2]> = (0..network.num_channels())
            .map(|_| [0, 1].map(|_| Amount::from_whole(rng.random_range(0..16))))
            .collect();
        let view = Sides { network: &network, sides };
        let unit = Amount::from_whole(unit);
        let (src, dst) = (NodeId(0), NodeId(n as u32 - 1));
        let schemes: [Box<dyn RoutingScheme>; 2] = [
            Box::new(ShortestPathScheme::new()),
            Box::new(WaterfillingScheme::new()),
        ];
        for mut scheme in schemes {
            let answer = scheme.route_unit(&network, &view, src, dst, unit);
            let mut named = Vec::new();
            let blocked = scheme.blockers(&view, src, dst, unit, &mut named);
            prop_assert_eq!(blocked, answer == UnitDecision::Unavailable, "{}", scheme.name());
            if !blocked {
                continue;
            }
            prop_assert!(!named.is_empty());
            for &(c, dir) in &named {
                prop_assert!(view.sides[c.index()][Sides::side(dir)] < unit);
            }
            let mut raised = Sides { network: &network, sides: view.sides.clone() };
            for (c, balances) in raised.sides.iter_mut().enumerate() {
                for (side, balance) in balances.iter_mut().enumerate() {
                    let dir = if side == 0 { Direction::AtoB } else { Direction::BtoA };
                    if !named.contains(&(ChannelId::from(c), dir)) {
                        *balance = Amount::from_whole(1_000);
                    }
                }
            }
            let again = scheme.route_unit(&network, &raised, src, dst, unit);
            prop_assert_eq!(again, UnitDecision::Unavailable, "{}", scheme.name());
        }
    }
}

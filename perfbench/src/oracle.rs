//! Untimed correctness checks against cold recomputation.

use crate::chain::eval_mismatch;
use crate::report::Outcome;
use adhoc_cluster::pipeline::{self, Algorithm};
use adhoc_cluster::routing::{is_valid_walk, RoutePlan};
use adhoc_graph::connectivity;
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::labels::{LabelMode, LabelStore};
use adhoc_sim::churn::ChurnEngine;

/// The backbone every workload serves (the paper's headline algorithm).
pub const SERVED: Algorithm = Algorithm::AcLmst;

/// Hop and cluster statistics of the walks an oracle pass checked.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkStats {
    /// Pairs checked.
    pub pairs: usize,
    /// Pairs the served plan routed.
    pub routed: usize,
    /// Summed hops of routed pairs.
    pub hops: u64,
    /// Pairs whose endpoints belong to different clusters, so the walk
    /// consults the inter-head table.
    pub cross_cluster: usize,
}

impl WalkStats {
    /// Adds another pass's statistics.
    pub fn absorb(&mut self, o: WalkStats) {
        self.pairs += o.pairs;
        self.routed += o.routed;
        self.hops += o.hops;
        self.cross_cluster += o.cross_cluster;
    }

    /// Mean hops over routed pairs.
    pub fn mean_hops(&self) -> f64 {
        self.hops as f64 / self.routed.max(1) as f64
    }

    /// Share of checked pairs that cross clusters.
    pub fn cross_frac(&self) -> f64 {
        self.cross_cluster as f64 / self.pairs.max(1) as f64
    }
}

/// Checks the engine's maintained state against a cold recomputation:
///
/// 1. its evaluation equals a cold `run_all` on its clustering;
/// 2. its served plan equals a fresh `RoutePlan::compile`;
/// 3. every pair's served walk equals the fresh plan's, is a valid walk
///    of the current graph with the right endpoints, and an unroutable
///    pair is one that BFS finds disconnected.
pub fn check_engine(
    engine: &ChurnEngine,
    pairs: &[(NodeId, NodeId)],
    out: &mut Outcome,
) -> WalkStats {
    let g = engine.graph();
    let clustering = &engine.clustering;
    let cold = pipeline::run_all(g, clustering);
    let why = eval_mismatch(engine.evaluation(), &cold);
    out.check(why.is_none(), || {
        format!("evaluation != cold run_all: {}", why.unwrap_or_default())
    });

    let mut fresh_labels = LabelStore::for_mode(LabelMode::Auto, g.len(), clustering.heads.len());
    fresh_labels.rebuild(g, &clustering.heads, 2 * clustering.k + 1);
    let fresh = RoutePlan::compile(g, clustering, &fresh_labels, cold.selected_links(SERVED));
    let Some(served) = engine.route_plan() else {
        out.check(false, || "routing is not enabled".into());
        return WalkStats::default();
    };
    out.check(*served == fresh, || "served plan != fresh compile".into());
    check_walks(g, served, Some(&fresh), pairs, out)
}

/// Routes every pair on `served` (and on `fresh`, when given) and checks
/// the walks; see [`check_engine`].
pub fn check_walks(
    g: &Graph,
    served: &RoutePlan,
    fresh: Option<&RoutePlan>,
    pairs: &[(NodeId, NodeId)],
    out: &mut Outcome,
) -> WalkStats {
    let comp = connectivity::components(g);
    let mut stats = WalkStats::default();
    let (mut walk, mut expect) = (Vec::new(), Vec::new());
    for &(u, v) in pairs {
        stats.pairs += 1;
        let hops = served.route_into(u, v, &mut walk);
        if let (Some((su, _)), Some((sv, _))) = (served.affiliation(u), served.affiliation(v)) {
            stats.cross_cluster += usize::from(su != sv);
        }
        if let Some(fresh) = fresh {
            let expected = fresh.route_into(u, v, &mut expect);
            let same = expected == hops && (hops.is_none() || walk == expect);
            out.check(same, || {
                format!("walk {u:?}->{v:?} differs from the fresh plan")
            });
        }
        match hops {
            Some(h) => {
                stats.routed += 1;
                stats.hops += u64::from(h);
                let ok =
                    walk.first() == Some(&u) && walk.last() == Some(&v) && is_valid_walk(g, &walk);
                out.check(ok, || format!("walk {u:?}->{v:?} is not a valid walk"));
            }
            None => {
                let disconnected = comp[u.index()] != comp[v.index()];
                out.check(disconnected, || {
                    format!("{u:?}->{v:?} unroutable but connected")
                });
            }
        }
    }
    stats
}

/// Unroutable answers that BFS contradicts: `(u, v)` pairs of `queries`
/// that lie in one component of `g`.
pub fn connected_unroutables(g: &Graph, queries: &[(NodeId, NodeId)]) -> usize {
    if queries.is_empty() {
        return 0;
    }
    let comp = connectivity::components(g);
    queries
        .iter()
        .filter(|(u, v)| comp[u.index()] == comp[v.index()])
        .count()
}

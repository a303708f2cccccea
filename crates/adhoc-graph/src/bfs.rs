//! Breadth-first search: distances, hop-bounded exploration, k-hop
//! neighborhoods, and canonical shortest paths.
//!
//! Everything here is deterministic: adjacency lists are sorted, so two
//! runs (or two different nodes simulating each other's computation, as
//! the localized algorithms of the paper require) always agree.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance label of an unreached node.
pub const UNREACHED: u32 = u32::MAX;

/// Read-only adjacency abstraction so BFS runs on both [`Graph`] and
/// [`crate::Csr`].
pub trait Adjacency {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Sorted neighbor list of `u`.
    fn adj(&self, u: NodeId) -> &[NodeId];
}

impl Adjacency for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        self.len()
    }
    #[inline]
    fn adj(&self, u: NodeId) -> &[NodeId] {
        self.neighbors(u)
    }
}

/// Read-only hop-distance labels rooted at some source.
///
/// The canonical-path walk ([`lexico_path_from_labels`]) only needs
/// `dist` lookups, so it runs equally off a fresh [`BfsScratch`] run or
/// a stored row of a [`crate::labels::LabelStore`].
pub trait DistLabels {
    /// Distance of `v` from the label source (`UNREACHED` if outside
    /// the labeled ball).
    fn dist(&self, v: NodeId) -> u32;
}

impl DistLabels for BfsScratch {
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }
}

/// Hop distances from `src` to every node (`UNREACHED` if disconnected).
pub fn distances<G: Adjacency>(g: &G, src: NodeId) -> Vec<u32> {
    let mut scratch = BfsScratch::new(g.node_count());
    scratch.run(g, src, u32::MAX);
    let mut out = vec![UNREACHED; g.node_count()];
    for &v in scratch.visited() {
        out[v.index()] = scratch.dist(v);
    }
    out
}

/// Reusable BFS state.
///
/// Hot sweeps (the Monte-Carlo harness runs BFS from every clusterhead
/// of every replicate) reuse one scratch per thread; reset cost is
/// proportional to the previously *visited* set, not to `n`
/// ("touched-list reset", per the hpc-parallel guidance of avoiding
/// re-zeroing large buffers).
#[derive(Clone, Debug)]
pub struct BfsScratch {
    dist: Vec<u32>,
    parent: Vec<NodeId>,
    queue: VecDeque<NodeId>,
    visited: Vec<NodeId>,
}

impl BfsScratch {
    /// Creates scratch able to traverse graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            dist: vec![UNREACHED; n],
            parent: vec![NodeId(u32::MAX); n],
            queue: VecDeque::new(),
            visited: Vec::new(),
        }
    }

    /// Grows the scratch if the graph is larger than any seen before.
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, UNREACHED);
            self.parent.resize(n, NodeId(u32::MAX));
        }
    }

    /// Runs BFS from `src`, exploring nodes at distance `<= max_hops`.
    ///
    /// After the call, [`Self::visited`] lists all reached nodes in
    /// discovery order (`src` first; within a hop level, nodes appear in
    /// the deterministic order induced by sorted adjacency), and
    /// [`Self::dist`] / [`Self::parent_of`] are valid for them.
    ///
    /// The parent of a node `v` is the *smallest-ID* predecessor at
    /// distance `dist(v) - 1`: because the frontier is processed in
    /// ascending discovery order and adjacency is sorted, the first
    /// discoverer of `v` is the smallest-ID candidate. This is the
    /// tie-breaking rule all shortest-path users of this crate share.
    pub fn run<G: Adjacency>(&mut self, g: &G, src: NodeId, max_hops: u32) {
        self.ensure(g.node_count());
        // Reset only what the previous run dirtied.
        for &v in &self.visited {
            self.dist[v.index()] = UNREACHED;
            self.parent[v.index()] = NodeId(u32::MAX);
        }
        self.visited.clear();
        self.queue.clear();

        self.dist[src.index()] = 0;
        self.parent[src.index()] = src;
        self.queue.push_back(src);
        self.visited.push(src);
        while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u.index()];
            if du == max_hops {
                continue;
            }
            // `parent` must be the first discoverer. The frontier at
            // distance du is dequeued in discovery order, and each
            // node's neighbors are scanned in ascending ID order, so
            // the first discoverer of v minimizes (discovery order of
            // parent, nothing else). To make the parent the *smallest
            // ID* among same-level predecessors we do a second pass
            // below only where it matters (canonical paths walk
            // distances, not parents), so first-discoverer is enough
            // for tree queries and is documented as such.
            for &v in g.adj(u) {
                if self.dist[v.index()] == UNREACHED {
                    self.dist[v.index()] = du + 1;
                    self.parent[v.index()] = u;
                    self.queue.push_back(v);
                    self.visited.push(v);
                }
            }
        }
    }

    /// Runs a **multi-source** bounded BFS: every node of `sources`
    /// starts at distance 0, and [`Self::dist`] afterwards holds each
    /// node's hop distance to the *nearest* source (`UNREACHED` beyond
    /// `max_hops`). Duplicate sources are tolerated.
    ///
    /// Determinism matches [`Self::run`]: the initial frontier is
    /// seeded in the order `sources` lists them, so callers that need
    /// a canonical discovery order pass sources ascending.
    pub fn run_multi<G: Adjacency>(&mut self, g: &G, sources: &[NodeId], max_hops: u32) {
        self.ensure(g.node_count());
        for &v in &self.visited {
            self.dist[v.index()] = UNREACHED;
            self.parent[v.index()] = NodeId(u32::MAX);
        }
        self.visited.clear();
        self.queue.clear();

        for &s in sources {
            if self.dist[s.index()] == UNREACHED {
                self.dist[s.index()] = 0;
                self.parent[s.index()] = s;
                self.queue.push_back(s);
                self.visited.push(s);
            }
        }
        while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u.index()];
            if du == max_hops {
                continue;
            }
            for &v in g.adj(u) {
                if self.dist[v.index()] == UNREACHED {
                    self.dist[v.index()] = du + 1;
                    self.parent[v.index()] = u;
                    self.queue.push_back(v);
                    self.visited.push(v);
                }
            }
        }
    }

    /// Distance of `v` from the last run's source (`UNREACHED` if the
    /// node was not reached within the hop bound).
    #[inline]
    pub fn dist(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }

    /// The BFS-tree predecessor of `v` (the source is its own parent).
    ///
    /// # Panics
    /// Panics if `v` was not visited in the last run.
    pub fn parent_of(&self, v: NodeId) -> NodeId {
        assert_ne!(self.dist[v.index()], UNREACHED, "{v:?} not visited");
        self.parent[v.index()]
    }

    /// Nodes reached by the last run, in discovery order (source first).
    #[inline]
    pub fn visited(&self) -> &[NodeId] {
        &self.visited
    }

    /// Extracts the BFS-tree path from the last run's source to `v`
    /// (inclusive of both endpoints), or `None` if `v` was unreached.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[v.index()] == UNREACHED {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while self.parent[cur.index()] != cur {
            cur = self.parent[cur.index()];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// All nodes within `k` hops of `src` (excluding `src` itself), sorted
/// by ID. This is the paper's "k-hop neighborhood".
pub fn khop_neighborhood<G: Adjacency>(g: &G, src: NodeId, k: u32) -> Vec<NodeId> {
    let mut scratch = BfsScratch::new(g.node_count());
    khop_neighborhood_with(&mut scratch, g, src, k)
}

/// Scratch-reusing variant of [`khop_neighborhood`].
pub fn khop_neighborhood_with<G: Adjacency>(
    scratch: &mut BfsScratch,
    g: &G,
    src: NodeId,
    k: u32,
) -> Vec<NodeId> {
    scratch.run(g, src, k);
    let mut out: Vec<NodeId> = scratch
        .visited()
        .iter()
        .copied()
        .filter(|&v| v != src)
        .collect();
    out.sort_unstable();
    out
}

/// The lexicographically smallest shortest path from `from` to `to`,
/// as a node sequence including both endpoints; `None` if disconnected
/// or longer than `max_hops`.
///
/// Construction: BFS from `to` labels every node with its distance to
/// `to`; the path then greedily walks from `from`, at each step taking
/// the smallest-ID neighbor whose label decreases. Among all shortest
/// paths this selects the unique lexicographically smallest node
/// sequence, so any two parties that know the graph (or the relevant
/// ball of it) agree on the path — the property the paper's mesh
/// gateway rule ("exactly one path by gateways between two neighboring
/// clusterheads") and LMSTGA virtual links need.
pub fn lexico_shortest_path<G: Adjacency>(
    g: &G,
    from: NodeId,
    to: NodeId,
    max_hops: u32,
) -> Option<Vec<NodeId>> {
    let mut scratch = BfsScratch::new(g.node_count());
    scratch.run(g, to, max_hops);
    lexico_path_from_labels(g, from, to, &scratch)
}

/// As [`lexico_shortest_path`], but reusing labels already rooted at
/// `to` — a [`BfsScratch`] after `run(g, to, ..)` or a stored
/// [`crate::labels::LabelStore`] row.
///
/// # Panics
/// Panics if `labels` is not rooted at `to`.
pub fn lexico_path_from_labels<G: Adjacency, L: DistLabels>(
    g: &G,
    from: NodeId,
    to: NodeId,
    labels: &L,
) -> Option<Vec<NodeId>> {
    let mut path = Vec::new();
    lexico_path_append(g, from, to, labels, &mut path).then_some(path)
}

/// Arena-friendly variant of [`lexico_path_from_labels`]: appends the
/// path to `out` and returns whether `from` was reachable (on `false`,
/// `out` is unchanged). Callers building many paths share one backing
/// vector and record `(offset, len)` slices instead of allocating a
/// `Vec` per path.
///
/// # Panics
/// Panics if `labels` is not rooted at `to`.
pub fn lexico_path_append<G: Adjacency, L: DistLabels>(
    g: &G,
    from: NodeId,
    to: NodeId,
    labels: &L,
    out: &mut Vec<NodeId>,
) -> bool {
    assert_eq!(labels.dist(to), 0, "labels must be rooted at `to`");
    let d = labels.dist(from);
    if d == UNREACHED {
        return false;
    }
    out.reserve(d as usize + 1);
    let mut cur = from;
    out.push(cur);
    while cur != to {
        let next = lexico_next_hop(g, cur, labels)
            .expect("distance labels must decrease along some neighbor");
        out.push(next);
        cur = next;
    }
    true
}

/// The single canonical step toward the labels' root: the smallest-ID
/// neighbor of `from` whose distance label decreases — the per-hop
/// decision rule of [`lexico_path_from_labels`], exposed for callers
/// that inspect one step of a canonical walk. Returns `None` when
/// `from` is the root itself or outside the labeled ball.
///
/// All hops of one walk must read the **same** label source: chaining
/// steps across *different* sources (e.g. storing each node's next
/// hop toward its own clusterhead and then following those pointers
/// along someone else's path) silently leaves the original walk at
/// the first node rooted elsewhere — which is why the route plan
/// stores whole ascent paths instead of per-node pointers.
#[inline]
pub fn lexico_next_hop<G: Adjacency, L: DistLabels>(
    g: &G,
    from: NodeId,
    labels: &L,
) -> Option<NodeId> {
    let d = labels.dist(from);
    if d == 0 || d == UNREACHED {
        return None;
    }
    g.adj(from)
        .iter()
        .copied()
        .find(|&w| labels.dist(w) == d - 1)
}

/// Eccentricity of `src` (max distance to any reachable node).
pub fn eccentricity<G: Adjacency>(g: &G, src: NodeId) -> u32 {
    let mut scratch = BfsScratch::new(g.node_count());
    scratch.run(g, src, u32::MAX);
    scratch
        .visited()
        .iter()
        .map(|&v| scratch.dist(v))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn distances_on_path() {
        let g = path_graph(5);
        let d = distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn distances_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = distances(&g, NodeId(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHED);
        assert_eq!(d[3], UNREACHED);
    }

    #[test]
    fn multi_source_bfs_takes_nearest_source() {
        // Sources at both ends of a 7-path: every node's distance is
        // to its nearer end, and duplicate sources are tolerated.
        let g = path_graph(7);
        let mut s = BfsScratch::new(g.len());
        s.run_multi(&g, &[NodeId(0), NodeId(6), NodeId(0)], 3);
        assert_eq!(s.dist(NodeId(0)), 0);
        assert_eq!(s.dist(NodeId(6)), 0);
        assert_eq!(s.dist(NodeId(2)), 2);
        assert_eq!(s.dist(NodeId(4)), 2);
        assert_eq!(s.dist(NodeId(3)), 3);
        assert_eq!(s.visited().len(), 7);
        // Bounded: hop budget 1 reaches only the ends and their
        // neighbors, and re-running resets prior state.
        s.run_multi(&g, &[NodeId(0), NodeId(6)], 1);
        assert_eq!(s.visited().len(), 4);
        assert_eq!(s.dist(NodeId(3)), UNREACHED);
        // Empty source set: nothing visited.
        s.run_multi(&g, &[], 3);
        assert!(s.visited().is_empty());
    }

    #[test]
    fn bounded_bfs_stops_at_max_hops() {
        let g = path_graph(6);
        let mut s = BfsScratch::new(g.len());
        s.run(&g, NodeId(0), 2);
        assert_eq!(s.visited().len(), 3);
        assert_eq!(s.dist(NodeId(2)), 2);
        assert_eq!(s.dist(NodeId(3)), UNREACHED);
    }

    #[test]
    fn scratch_reuse_resets_previous_run() {
        let g = path_graph(6);
        let mut s = BfsScratch::new(g.len());
        s.run(&g, NodeId(0), u32::MAX);
        s.run(&g, NodeId(5), 1);
        assert_eq!(s.dist(NodeId(5)), 0);
        assert_eq!(s.dist(NodeId(4)), 1);
        assert_eq!(s.dist(NodeId(0)), UNREACHED);
        assert_eq!(s.visited(), &[NodeId(5), NodeId(4)]);
    }

    #[test]
    fn khop_neighborhood_excludes_source_and_is_sorted() {
        // star: 0 center, leaves 1..=4; plus 5 hanging off 4.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]);
        let n1 = khop_neighborhood(&g, NodeId(0), 1);
        assert_eq!(n1, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        let n2 = khop_neighborhood(&g, NodeId(0), 2);
        assert_eq!(n2.len(), 5);
        let from_leaf = khop_neighborhood(&g, NodeId(5), 1);
        assert_eq!(from_leaf, vec![NodeId(4)]);
    }

    #[test]
    fn path_to_follows_bfs_tree() {
        let g = path_graph(4);
        let mut s = BfsScratch::new(g.len());
        s.run(&g, NodeId(0), u32::MAX);
        assert_eq!(
            s.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(s.path_to(NodeId(0)).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut s = BfsScratch::new(g.len());
        s.run(&g, NodeId(0), u32::MAX);
        assert!(s.path_to(NodeId(2)).is_none());
    }

    #[test]
    fn lexico_path_prefers_smaller_ids() {
        // Two shortest 0->3 paths: 0-1-3 and 0-2-3. Lexicographic rule
        // must choose the one through 1.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let p = lexico_shortest_path(&g, NodeId(0), NodeId(3), u32::MAX).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn lexico_path_is_shortest() {
        // A long detour 0-4-5-3 exists but shortest is 0-1-3.
        let g = Graph::from_edges(6, &[(0, 1), (1, 3), (0, 4), (4, 5), (5, 3)]);
        let p = lexico_shortest_path(&g, NodeId(0), NodeId(3), u32::MAX).unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn lexico_path_respects_bound() {
        let g = path_graph(5);
        assert!(lexico_shortest_path(&g, NodeId(0), NodeId(4), 3).is_none());
        assert!(lexico_shortest_path(&g, NodeId(0), NodeId(4), 4).is_some());
    }

    #[test]
    fn lexico_path_to_self() {
        let g = path_graph(2);
        let p = lexico_shortest_path(&g, NodeId(1), NodeId(1), 0).unwrap();
        assert_eq!(p, vec![NodeId(1)]);
    }

    #[test]
    fn lexico_path_agreement_between_endpoints() {
        // The path computed from a->b must be the reverse of b->a after
        // canonicalization by the caller convention (min endpoint
        // first). Here we just check both directions give valid
        // shortest paths of the same length.
        let g = Graph::from_edges(7, &[(0, 2), (0, 5), (2, 3), (5, 6), (3, 1), (6, 1), (2, 6)]);
        let ab = lexico_shortest_path(&g, NodeId(0), NodeId(1), u32::MAX).unwrap();
        let ba = lexico_shortest_path(&g, NodeId(1), NodeId(0), u32::MAX).unwrap();
        assert_eq!(ab.len(), ba.len());
    }

    #[test]
    fn lexico_next_hop_matches_path_walk() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut s = BfsScratch::new(g.len());
        s.run(&g, NodeId(3), u32::MAX);
        assert_eq!(lexico_next_hop(&g, NodeId(0), &s), Some(NodeId(1)));
        assert_eq!(lexico_next_hop(&g, NodeId(1), &s), Some(NodeId(3)));
        assert_eq!(lexico_next_hop(&g, NodeId(3), &s), None, "root has no step");
    }

    #[test]
    fn lexico_next_hop_outside_ball_is_none() {
        let g = path_graph(6);
        let mut s = BfsScratch::new(g.len());
        s.run(&g, NodeId(0), 2);
        assert_eq!(lexico_next_hop(&g, NodeId(5), &s), None);
        assert_eq!(lexico_next_hop(&g, NodeId(2), &s), Some(NodeId(1)));
    }

    #[test]
    fn eccentricity_of_path_ends() {
        let g = path_graph(5);
        assert_eq!(eccentricity(&g, NodeId(0)), 4);
        assert_eq!(eccentricity(&g, NodeId(2)), 2);
    }

    #[test]
    fn parent_of_source_is_itself() {
        let g = path_graph(3);
        let mut s = BfsScratch::new(g.len());
        s.run(&g, NodeId(1), u32::MAX);
        assert_eq!(s.parent_of(NodeId(1)), NodeId(1));
        assert_eq!(s.parent_of(NodeId(0)), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "not visited")]
    fn parent_of_unvisited_panics() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut s = BfsScratch::new(g.len());
        s.run(&g, NodeId(0), u32::MAX);
        s.parent_of(NodeId(2));
    }

    #[test]
    fn scratch_grows_for_larger_graphs() {
        let small = path_graph(2);
        let big = path_graph(10);
        let mut s = BfsScratch::new(small.len());
        s.run(&small, NodeId(0), u32::MAX);
        s.run(&big, NodeId(0), u32::MAX);
        assert_eq!(s.dist(NodeId(9)), 9);
    }
}

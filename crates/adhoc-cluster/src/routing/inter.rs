//! Shared inter-head first-hop machinery over the backbone graph `G''`
//! (heads as vertices, selected virtual links as weighted edges): the
//! canonical next-hop **rule**, the dense all-pairs table that
//! materializes it, and the [`InterTable`] facade that lets a compiled
//! [`RoutePlan`] serve the same rule from either the dense `h × h`
//! matrix or the sub-quadratic hub-label index ([`HubIndex`]).
//!
//! [`RoutePlan`]: super::plan::RoutePlan
//! [`HubIndex`]: super::hub::HubIndex
//!
//! # The canonical rule
//!
//! `next_hop(s, t)` is the **smallest-slot neighbor of `s` that begins
//! a shortest `s ⇝ t` backbone route**:
//!
//! ```text
//! next_hop(s, t) = min { u ∈ N(s) : w(s, u) + dist(u, t) = dist(s, t) }
//! ```
//!
//! The rule is a pure function of exact backbone distances, which is
//! precisely what lets two very different representations serve it
//! bit-identically: the dense table derives it per source with one
//! bucket-queue Dijkstra plus a settled-order DP (the first hops of `s ⇝ t` are the
//! union over shortest predecessors `p` of `t` of the first hops of
//! `s ⇝ p`, so the minimum propagates), while the hub index scatters
//! the target's label once per query, answers each `dist(·, t)` with
//! one pass over a neighbor's label, and scans `s`'s CSR row — which
//! is stored in ascending slot order — for the first qualifying
//! neighbor. Every consumer (the compiled plan, the legacy per-query
//! router, incremental repairs versus full recompiles) therefore
//! agrees on every route by construction.
//!
//! Queries *walk* (`s ← next_hop(s, t)` until `s = t`, one
//! `InterTable::walk` call per query); the walk terminates and
//! realizes a shortest backbone route for any mix of sources: each
//! step moves to a node strictly closer to `t`.

use super::hub::HubIndex;
use adhoc_graph::par::{self, Strided};

/// "No next hop" marker (unreachable target, or an unfilled row).
pub(crate) const NO_HOP: u32 = u32::MAX;

/// "Not reached" backbone distance.
pub(crate) const FAR: u32 = u32::MAX;

/// A borrowed CSR view of the backbone: `off` has `h + 1` entries,
/// `to`/`hops` hold each head's neighbors in **ascending slot order**
/// (both orientations of every undirected link). The plan and the
/// legacy router own these arrays; the inter-head machinery only ever
/// borrows them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CsrView<'a> {
    pub off: &'a [u32],
    pub to: &'a [u32],
    pub hops: &'a [u32],
}

impl<'a> CsrView<'a> {
    /// Number of heads (vertices of `G''`).
    pub fn head_count(&self) -> usize {
        self.off.len() - 1
    }

    /// `s`'s neighbor row as `(neighbor slot, weight)` pairs, ascending
    /// by slot.
    pub fn row(&self, s: usize) -> impl Iterator<Item = (u32, u32)> + 'a {
        let (lo, hi) = (self.off[s] as usize, self.off[s + 1] as usize);
        self.to[lo..hi]
            .iter()
            .zip(&self.hops[lo..hi])
            .map(|(&t, &w)| (t, w))
    }

    /// `s`'s backbone degree.
    pub fn degree(&self, s: usize) -> usize {
        (self.off[s + 1] - self.off[s]) as usize
    }

    /// CSR index of the link `s → t`.
    ///
    /// # Panics
    /// If the backbone has no such link.
    pub fn link(&self, s: usize, t: u32) -> usize {
        let lo = self.off[s] as usize;
        lo + self.to[lo..self.off[s + 1] as usize]
            .binary_search(&t)
            .unwrap_or_else(|_| panic!("no backbone link {s} -> {t}"))
    }
}

/// Reusable per-source sweep state shared by the dense all-pairs build
/// and the hub index's pruned sweeps — hoisted out of the per-source
/// loop so neither allocates a queue, a distance array, or a settled
/// list per source.
///
/// The queue is a bucket ring (Dial's algorithm): link weights are small
/// integers (a virtual link spans at most `2k + 1` hops), so a node
/// queued at distance `d` waits in bucket `d mod span`, and every
/// queued distance lies in `[cur, cur + w_max]`. With `span = w_max + 1`
/// no two live distances share a bucket, and a sweep costs `O(m +
/// max dist)` instead of `O(m log h)`. [`Self::fit`] sizes the ring from
/// the backbone's heaviest link once per build or repair.
#[derive(Clone, Debug, Default)]
pub(crate) struct InterScratch {
    dist: Vec<u32>,
    /// Nodes whose `dist` entry was written this sweep (superset of
    /// `settled`: includes queued-but-unsettled nodes), for
    /// touched-entry reset.
    touched: Vec<u32>,
    /// Settled nodes in nondecreasing-distance order.
    settled: Vec<u32>,
    /// `ring[d % ring.len()]`: nodes queued at distance `d`, stale
    /// entries (improved since) included. Empty between sweeps.
    ring: Vec<Vec<u32>>,
}

impl InterScratch {
    pub fn new() -> Self {
        InterScratch::default()
    }

    /// A fresh scratch whose ring has `span` buckets — how pool workers
    /// inherit the caller's [`Self::fit`].
    pub(crate) fn with_span(span: usize) -> Self {
        InterScratch {
            ring: vec![Vec::new(); span],
            ..InterScratch::default()
        }
    }

    /// Sizes the bucket ring to `csr`'s heaviest link weight plus one
    /// and returns that span. Call once per build or repair, before
    /// any sweep over `csr`. Also empties every bucket, which a sweep
    /// cut short by a panic can leave behind.
    pub(crate) fn fit(&mut self, csr: CsrView<'_>) -> usize {
        let span = csr.hops.iter().copied().max().unwrap_or(0) as usize + 1;
        self.ring.iter_mut().for_each(Vec::clear);
        self.ring.resize_with(span, Vec::new);
        span
    }

    /// Runs a shortest-path sweep from `s` over `csr`, leaving `dist`
    /// and `settled` valid until the next sweep. With `restrict =
    /// Some((rank, r))` the sweep is **rank-restricted**: nodes whose
    /// rank is below `r` (more important than the source) are settled
    /// but never expanded, so computed distances are minima over paths
    /// whose *interior* stays less important than the source — the hub
    /// index's pruning rule (see [`HubIndex`]).
    ///
    /// # Panics
    /// Before any [`Self::fit`], or when a link that would queue a node
    /// is heavier than the ring that fit sized — a stale fit would
    /// silently misorder the queue.
    pub(crate) fn sweep(&mut self, csr: CsrView<'_>, s: usize, restrict: Option<(&[u32], u32)>) {
        let h = csr.head_count();
        if self.dist.len() < h {
            self.dist.resize(h, FAR);
        }
        for &v in &self.touched {
            self.dist[v as usize] = FAR;
        }
        self.touched.clear();
        self.settled.clear();
        let span = self.ring.len();
        assert!(span > 0, "sweep before InterScratch::fit");
        self.dist[s] = 0;
        self.touched.push(s as u32);
        self.ring[0].push(s as u32);
        let mut queued = 1usize;
        let (mut cur, mut b) = (0u32, 0usize);
        while queued > 0 {
            let mut i = 0usize;
            while i < self.ring[b].len() {
                let u = self.ring[b][i];
                i += 1;
                let ui = u as usize;
                if self.dist[ui] != cur {
                    continue; // stale: settled earlier at a smaller distance
                }
                self.settled.push(u);
                if let Some((rank, r)) = restrict {
                    if ui != s && rank[ui] < r {
                        continue; // settled, not expanded: pruned frontier
                    }
                }
                for (to, w) in csr.row(ui) {
                    let ti = to as usize;
                    debug_assert!(w >= 1, "virtual links span at least one hop");
                    let nd = cur + w;
                    if nd < self.dist[ti] {
                        assert!(
                            (w as usize) < span,
                            "link weight {w} overflows a {span}-bucket ring (stale fit)"
                        );
                        if self.dist[ti] == FAR {
                            self.touched.push(to);
                        }
                        self.dist[ti] = nd;
                        let slot = b + w as usize;
                        self.ring[if slot >= span { slot - span } else { slot }].push(to);
                        queued += 1;
                    }
                }
            }
            queued -= i;
            self.ring[b].clear();
            cur += 1;
            b = if b + 1 == span { 0 } else { b + 1 };
        }
    }

    /// Distance of the last sweep (valid until the next one).
    pub(crate) fn dist(&self, v: usize) -> u32 {
        self.dist[v]
    }

    /// Settled order of the last sweep.
    pub(crate) fn settled(&self) -> &[u32] {
        &self.settled
    }
}

/// Computes `s`'s next-hop row under the canonical rule: `row[t]` is
/// the smallest-slot first hop of a shortest `s ⇝ t` backbone route
/// (`s` itself for `t == s`, [`NO_HOP`] if `t` is unreachable).
///
/// One bucket-queue sweep plus a settled-order DP — the set of first
/// hops of `s ⇝ t` is the union over shortest predecessors `p` of `t`
/// of the first hops of `s ⇝ p` (plus `t` itself when `(s, t)` is an
/// edge on a shortest route), so the minimum propagates along settled
/// order. `O(m + max dist)` per source with `m` directed links; the
/// scratch must be [`InterScratch::fit`] to `csr`.
pub(crate) fn next_hop_row(csr: CsrView<'_>, s: usize, row: &mut [u32], scratch: &mut InterScratch) {
    debug_assert_eq!(row.len(), csr.head_count());
    scratch.sweep(csr, s, None);
    row.fill(NO_HOP);
    for &t in scratch.settled() {
        let ti = t as usize;
        if ti == s {
            row[ti] = s as u32;
            continue;
        }
        let dt = scratch.dist(ti);
        let mut best = NO_HOP;
        for (p, w) in csr.row(ti) {
            let pi = p as usize;
            if scratch.dist(pi) != FAR && scratch.dist(pi) + w == dt {
                // `p` is a shortest predecessor of `t`; it settled at a
                // strictly smaller distance, so `row[p]` is final.
                let candidate = if pi == s { t } else { row[pi] };
                best = best.min(candidate);
            }
        }
        debug_assert_ne!(best, NO_HOP, "settled node must have a shortest predecessor");
        row[ti] = best;
    }
}

/// All-pairs next-hop table, row-major `h × h` (`table[s * h + t]`).
pub(crate) fn all_pairs_next_hops(csr: CsrView<'_>, scratch: &mut InterScratch) -> Vec<u32> {
    all_pairs_next_hops_with(csr, scratch, 1)
}

/// [`all_pairs_next_hops`] over a worker pool: sources are chunked and
/// each worker writes its own contiguous row range with its own
/// [`InterScratch`]. Every row is a pure function of `(csr, s)`, so the
/// table is bit-identical for any worker count; at 1 worker the
/// caller's warm scratch is reused and no threads spawn.
pub(crate) fn all_pairs_next_hops_with(
    csr: CsrView<'_>,
    scratch: &mut InterScratch,
    workers: usize,
) -> Vec<u32> {
    let h = csr.head_count();
    let mut table = vec![NO_HOP; h * h];
    let span = scratch.fit(csr);
    if workers <= 1 || h < 2 {
        for s in 0..h {
            next_hop_row(csr, s, &mut table[s * h..(s + 1) * h], scratch);
        }
    } else {
        par::scoped_chunks(
            workers,
            h,
            Strided::new(&mut table[..], h),
            |off, take, chunk: Strided<&mut [u32]>| {
                let mut local = InterScratch::with_span(span);
                for i in 0..take {
                    next_hop_row(csr, off + i, &mut chunk.data[i * h..(i + 1) * h], &mut local);
                }
            },
        );
    }
    table
}

/// Projected bytes of the dense `h × h` next-hop table — what
/// [`InterMode::Auto`] weighs against, and what the benches report as
/// the cost the hub layout avoids.
pub fn projected_dense_bytes(h: usize) -> usize {
    h.saturating_mul(h).saturating_mul(std::mem::size_of::<u32>())
}

/// Projected dense-table size above which [`InterMode::Auto`] compiles
/// the hub-label index instead of the `h × h` matrix. 4 MiB keeps the
/// paper-scale backbones (`h` up to ~1000, where the table is small
/// and its `O(1)` lookups win) dense, while the `N ≥ 10⁴`-node cells'
/// multi-thousand-head backbones land on hub labels.
pub const AUTO_HUB_THRESHOLD_BYTES: usize = 4 << 20;

/// Which inter-head representation a route plan should compile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InterMode {
    /// Always the dense `h × h` next-hop matrix.
    Dense,
    /// Always the hub-label index.
    Hub,
    /// Decide per compile: hub once the projected dense table exceeds
    /// [`AUTO_HUB_THRESHOLD_BYTES`].
    #[default]
    Auto,
}

impl InterMode {
    /// Whether a compile over an `h`-head backbone should use the hub
    /// layout under this mode.
    pub fn wants_hub(self, h: usize) -> bool {
        match self {
            InterMode::Dense => false,
            InterMode::Hub => true,
            InterMode::Auto => projected_dense_bytes(h) > AUTO_HUB_THRESHOLD_BYTES,
        }
    }
}

/// What an `InterTable::repair` did — surfaced through
/// [`PlanUpdate`](super::plan::PlanUpdate) so benches and tests can
/// pin that a weight change no longer recomputes all pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterRepair {
    /// The backbone's weighted link set did not change; nothing to do.
    Unchanged,
    /// Dense layout: the full `h × h` table was recomputed (the dense
    /// table has no cheaper sound repair).
    DenseRecomputed,
    /// Hub layout: only the labels of hubs whose trees touched a
    /// changed edge, or whose lower set the new importance order moved,
    /// were re-swept.
    HubRepaired {
        /// Hubs re-swept (out of `h`).
        dirty_hubs: usize,
        /// The repair met a new importance order.
        order_changed: bool,
    },
    /// Hub layout: the dirty fraction crossed the fallback threshold,
    /// so the index was rebuilt.
    HubRebuilt {
        /// The rebuild adopted a new importance order.
        order_changed: bool,
    },
}

/// One API over both inter-head representations, mirroring the label
/// store's `Dense`/`Sparse` facade: the compiled plan queries first
/// hops through this enum and never branches on layout anywhere else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterTable {
    /// Row-major `h × h` first-hop matrix — `O(1)` lookups, `O(h²)`
    /// memory, full recompute on any backbone weight change.
    Dense { h: usize, next_hop: Vec<u32> },
    /// Hub-label (2-level landmark) index — per hop, one pass over a
    /// neighbor's label per neighbor scanned (the target's label is
    /// scattered once per query), empirically sub-quadratic memory,
    /// dirty-hub repair.
    Hub(HubIndex),
}

impl InterTable {
    /// Serial [`Self::build_with`] (test convenience).
    #[cfg(test)]
    pub(crate) fn build(mode: InterMode, csr: CsrView<'_>, scratch: &mut InterScratch) -> InterTable {
        InterTable::build_with(mode, csr, scratch, 1)
    }

    /// Builds the representation `mode` selects for this backbone over
    /// a worker pool — parallel all-pairs rows for the dense layout,
    /// parallel pruned hub sweeps for the hub layout. Bit-identical
    /// for any worker count; 1 worker runs inline.
    pub(crate) fn build_with(
        mode: InterMode,
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
        workers: usize,
    ) -> InterTable {
        let h = csr.head_count();
        if mode.wants_hub(h) {
            InterTable::Hub(HubIndex::build_with(csr, scratch, workers))
        } else {
            InterTable::Dense {
                h,
                next_hop: all_pairs_next_hops_with(csr, scratch, workers),
            }
        }
    }

    /// Walks the canonical head route `s ⇝ t` (repeated canonical
    /// first hops), handing `hop` the CSR index (into `csr.to` /
    /// `csr.hops`) of each backbone link taken, in route order.
    /// Returns `false` when the backbone does not connect `s` and `t`;
    /// `s == t` takes no hop. The dense layout looks each hop up in its
    /// table; the hub layout serves the whole route from one scatter of
    /// the target's label ([`HubIndex::walk`]).
    #[inline]
    pub(crate) fn walk(
        &self,
        s: usize,
        t: usize,
        csr: CsrView<'_>,
        mut hop: impl FnMut(usize),
    ) -> bool {
        match self {
            InterTable::Dense { h, next_hop } => {
                let mut at = s;
                while at != t {
                    let nh = next_hop[at * h + t];
                    if nh == NO_HOP {
                        return false;
                    }
                    hop(csr.link(at, nh));
                    at = nh as usize;
                }
                true
            }
            InterTable::Hub(hub) => hub.walk(s, t, csr, hop),
        }
    }

    /// Repairs the table after the backbone changed: `changed` holds
    /// the ascending slots whose CSR rows differ between the old and
    /// new backbone (every added, removed, or re-weighted link flags
    /// both endpoints), and `csr` is the **new** backbone. An empty
    /// `changed` is a no-op.
    /// The dense recompute and the dirty-hub re-sweeps fan out across
    /// `workers`, bit-identical to serial for any worker count (1
    /// worker runs inline).
    pub(crate) fn repair_with(
        &mut self,
        changed: &[u32],
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
        workers: usize,
    ) -> InterRepair {
        if changed.is_empty() {
            return InterRepair::Unchanged;
        }
        match self {
            InterTable::Dense { h, next_hop } => {
                debug_assert_eq!(*h, csr.head_count());
                *next_hop = all_pairs_next_hops_with(csr, scratch, workers);
                InterRepair::DenseRecomputed
            }
            InterTable::Hub(hub) => hub.repair_with(changed, csr, scratch, workers),
        }
    }

    /// Display name of the active layout (`dense` / `hub`).
    pub fn layout_name(&self) -> &'static str {
        match self {
            InterTable::Dense { .. } => "dense",
            InterTable::Hub(_) => "hub",
        }
    }

    /// Heap bytes of the inter-head structure alone.
    pub fn memory_bytes(&self) -> usize {
        match self {
            InterTable::Dense { next_hop, .. } => {
                next_hop.capacity() * std::mem::size_of::<u32>()
            }
            InterTable::Hub(hub) => hub.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle for the canonical rule: Floyd–Warshall
    /// distances, then `min { u ∈ N(s) : w(s,u) + dist(u,t) =
    /// dist(s,t) }` read straight off the definition.
    fn reference_row(adj: &[Vec<(u32, u32)>], s: usize) -> Vec<u32> {
        let h = adj.len();
        let mut dist = vec![vec![u64::MAX / 4; h]; h];
        for (i, row) in dist.iter_mut().enumerate() {
            row[i] = 0;
        }
        for (a, nbrs) in adj.iter().enumerate() {
            for &(b, w) in nbrs {
                dist[a][b as usize] = dist[a][b as usize].min(u64::from(w));
            }
        }
        for m in 0..h {
            for a in 0..h {
                for b in 0..h {
                    let via = dist[a][m] + dist[m][b];
                    if via < dist[a][b] {
                        dist[a][b] = via;
                    }
                }
            }
        }
        let mut row = vec![NO_HOP; h];
        for t in 0..h {
            if t == s {
                row[t] = s as u32;
                continue;
            }
            if dist[s][t] >= u64::MAX / 4 {
                continue;
            }
            row[t] = adj[s]
                .iter()
                .filter(|&&(u, w)| u64::from(w) + dist[u as usize][t] == dist[s][t])
                .map(|&(u, _)| u)
                .min()
                .expect("reachable target has a first hop");
        }
        row
    }

    fn to_csr(adj: &[Vec<(u32, u32)>]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut off = vec![0u32];
        let mut to = Vec::new();
        let mut hops = Vec::new();
        for nbrs in adj {
            let mut sorted = nbrs.clone();
            sorted.sort_unstable();
            for (t, w) in sorted {
                to.push(t);
                hops.push(w);
            }
            off.push(to.len() as u32);
        }
        (off, to, hops)
    }

    fn random_adj(rng: &mut impl rand::Rng, h: usize, p: f64) -> Vec<Vec<(u32, u32)>> {
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for a in 0..h {
            for b in a + 1..h {
                if rng.gen_bool(p) {
                    let w = rng.gen_range(1..6u32);
                    adj[a].push((b as u32, w));
                    adj[b].push((a as u32, w));
                }
            }
        }
        adj
    }

    #[test]
    fn matches_reference_on_random_backbones() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut scratch = InterScratch::new();
        for _ in 0..30 {
            let h = rng.gen_range(2..14usize);
            let adj = random_adj(&mut rng, h, 0.4);
            let (off, to, hops) = to_csr(&adj);
            let csr = CsrView {
                off: &off,
                to: &to,
                hops: &hops,
            };
            scratch.fit(csr);
            for s in 0..h {
                let mut row = vec![0u32; h];
                next_hop_row(csr, s, &mut row, &mut scratch);
                assert_eq!(row, reference_row(&adj, s), "source {s}");
            }
        }
    }

    /// The dense rows at weights up to 40 plus one much heavier link:
    /// the bucket ring is sized from the heaviest link, never from the
    /// `2k + 1` a virtual link usually spans.
    #[test]
    fn matches_reference_at_heavy_weights() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(400);
        for _ in 0..30 {
            let h = rng.gen_range(2..16usize);
            let mut adj = random_adj(&mut rng, h, 0.4);
            for (a, nbrs) in adj.iter_mut().enumerate() {
                for e in nbrs.iter_mut() {
                    let (x, y) = (a.min(e.0 as usize), a.max(e.0 as usize));
                    e.1 = 1 + ((x * 13 + y * 7) % 40) as u32;
                }
            }
            adj[0].retain(|e| e.0 as usize != h - 1);
            adj[h - 1].retain(|e| e.0 != 0);
            adj[0].push((h as u32 - 1, 300));
            adj[h - 1].push((0, 300));
            let (off, to, hops) = to_csr(&adj);
            let csr = CsrView {
                off: &off,
                to: &to,
                hops: &hops,
            };
            let table = all_pairs_next_hops(csr, &mut InterScratch::new());
            for s in 0..h {
                assert_eq!(&table[s * h..(s + 1) * h], &reference_row(&adj, s)[..], "source {s}");
            }
        }
    }

    /// The links `table` walks from `s` to `t` (`None` when it reports
    /// the pair unconnected).
    fn walk_links(table: &InterTable, csr: CsrView<'_>, s: usize, t: usize) -> Option<Vec<usize>> {
        let mut links = Vec::new();
        table.walk(s, t, csr, |l| links.push(l)).then_some(links)
    }

    /// Every pair's walk on both layouts: equal link for link.
    fn assert_layouts_agree(adj: &[Vec<(u32, u32)>], scratch: &mut InterScratch, what: &str) {
        let h = adj.len();
        let (off, to, hops) = to_csr(adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let dense = InterTable::build(InterMode::Dense, csr, scratch);
        let hub = InterTable::build(InterMode::Hub, csr, scratch);
        for s in 0..h {
            for t in 0..h {
                assert_eq!(
                    walk_links(&dense, csr, s, t),
                    walk_links(&hub, csr, s, t),
                    "{what}: walks diverged at {s} -> {t}"
                );
            }
        }
    }

    /// The hub index must walk the dense table's routes **exactly** —
    /// the bit-identity the route-equivalence suites rest on —
    /// including across reused scratch, and on a unit-weight grid,
    /// where nearly every hop breaks a tie between equal routes.
    #[test]
    fn hub_table_matches_dense_table() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut scratch = InterScratch::new();
        for round in 0..25 {
            let h = rng.gen_range(2..20usize);
            let adj = random_adj(&mut rng, h, 0.3);
            assert_layouts_agree(&adj, &mut scratch, &format!("round {round}"));
        }
        let side = 12u32;
        let mut grid: Vec<Vec<(u32, u32)>> = vec![Vec::new(); (side * side) as usize];
        for v in 0..side * side {
            for u in [v + 1, v + side] {
                if u < side * side && (u == v + side || u % side != 0) {
                    grid[v as usize].push((u, 1));
                    grid[u as usize].push((v, 1));
                }
            }
        }
        assert_layouts_agree(&grid, &mut scratch, "grid");
    }

    #[test]
    fn disconnected_targets_have_no_hop() {
        let adj: Vec<Vec<(u32, u32)>> = vec![vec![(1, 2)], vec![(0, 2)], vec![]];
        let (off, to, hops) = to_csr(&adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut scratch = InterScratch::new();
        let table = all_pairs_next_hops(csr, &mut scratch);
        assert_eq!(table[1], 1); // 0 -> 1
        assert_eq!(table[2], NO_HOP); // 0 -> 2
        assert_eq!(table[6], NO_HOP); // 2 -> 0
        assert_eq!(table[4], 1); // 1 -> 1 (self)
        for mode in [InterMode::Dense, InterMode::Hub] {
            let inter = InterTable::build(mode, csr, &mut scratch);
            assert_eq!(walk_links(&inter, csr, 0, 2), None, "{mode:?}");
            assert_eq!(walk_links(&inter, csr, 2, 0), None, "{mode:?}");
            assert_eq!(walk_links(&inter, csr, 0, 1), Some(vec![0]), "{mode:?}");
        }
    }

    #[test]
    fn equal_length_ties_pick_smallest_first_hop() {
        // 0-1-3 and 0-2-3 both cost 2: the canonical route leaves via 1.
        let adj: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 1), (2, 1)],
            vec![(0, 1), (3, 1)],
            vec![(0, 1), (3, 1)],
            vec![(1, 1), (2, 1)],
        ];
        let (off, to, hops) = to_csr(&adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut row = vec![0u32; 4];
        let mut scratch = InterScratch::new();
        scratch.fit(csr);
        next_hop_row(csr, 0, &mut row, &mut scratch);
        assert_eq!(row[3], 1);
    }

    /// The rule prefers the smallest *first hop*, even when a larger
    /// first hop leads to a smaller-slot interior (where the old
    /// backward-parent-chain rule would have flipped).
    #[test]
    fn smallest_first_hop_beats_smallest_interior() {
        // 0-1-5-4 and 0-2-3-4, unit weights: first hops 1 < 2 even
        // though interior 3 < 5.
        let adj: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 1), (2, 1)],
            vec![(0, 1), (5, 1)],
            vec![(0, 1), (3, 1)],
            vec![(2, 1), (4, 1)],
            vec![(3, 1), (5, 1)],
            vec![(1, 1), (4, 1)],
        ];
        let (off, to, hops) = to_csr(&adj);
        let csr = CsrView {
            off: &off,
            to: &to,
            hops: &hops,
        };
        let mut row = vec![0u32; 6];
        let mut scratch = InterScratch::new();
        scratch.fit(csr);
        next_hop_row(csr, 0, &mut row, &mut scratch);
        assert_eq!(row[4], 1);
    }

    #[test]
    fn auto_mode_switches_on_projected_bytes() {
        // 4 MiB / 4 bytes = 1M entries: h = 1024 is the last dense size.
        assert!(!InterMode::Auto.wants_hub(1024));
        assert!(InterMode::Auto.wants_hub(1025));
        assert!(!InterMode::Dense.wants_hub(1_000_000));
        assert!(InterMode::Hub.wants_hub(2));
    }
}

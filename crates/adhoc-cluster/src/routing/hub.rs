//! Hub-labeling (2-level landmark) index over the backbone `G''` — the
//! sub-quadratic alternative to the dense `h × h` next-hop matrix
//! behind the crate-private `InterTable` facade.
//!
//! # Construction: rank-restricted pruned sweeps
//!
//! Heads are ordered by importance — a recursive BFS-level separator
//! decomposition of the unweighted link adjacency (see `hub_order`:
//! coarse separators rank highest, degree and a deterministic slot
//! scramble break ties within a band) — and every head becomes a hub.
//! The sweep from hub `c` is a Dijkstra whose **interior** is
//! restricted to heads strictly less important than `c`:
//! more-important heads are settled (so the frontier stays bounded)
//! but never expanded. The sweep therefore computes
//!
//! ```text
//! d_c(v) = min { len(P) : P is a c ⇝ v path whose interior heads all
//!                rank below c }
//! ```
//!
//! and records the entry `(hub = c, dist = d_c(v))` at every reached
//! `v` that ranks below `c` (plus `c`'s own zero self-entry). Entries
//! at more-important heads are skipped: they can never be the witness
//! of any query (see below), so storing them would be pure bloat.
//!
//! # Exactness
//!
//! For any connected pair `(u, v)` let `c*` be the most important head
//! on some shortest `u ⇝ v` route. Both legs `c* ⇝ u` and `c* ⇝ v` are
//! shortest subpaths whose interiors rank below `c*`, so the sweep
//! from `c*` records exact leg distances at `u` and `v` (or a
//! self-entry when one endpoint *is* `c*`). Hence
//!
//! ```text
//! dist(u, v) = min over common hubs c of d_c(u) + d_c(v)
//! ```
//!
//! meets `len(shortest route)` at `c*`, and never dips below it
//! because every `d_c` is a real walk length (`d_c ≥ true distance`,
//! then the triangle inequality). Disconnected pairs share no hub.
//! Exact distances are what let `HubIndex::walk` reproduce the
//! canonical dense rule bit-for-bit: at each head `s` of the route,
//! scan `s`'s CSR row (ascending slot order) and take the first
//! neighbor `u` with `w(s, u) + dist(u, t) = dist(s, t)`.
//!
//! # Serving: one walk per query
//!
//! A query scatters `L(t)` once into a per-thread hub-indexed array,
//! so each `dist(u, t)` is a single pass over `L(u)` rather than a
//! two-row merge. A pass stops at the first sum that reaches
//! `dist(s, t) − w(s, u)` — the triangle inequality rules out any
//! smaller sum — and the chosen neighbor's distance, `dist(s, t) −
//! w(s, u)`, is carried forward as the next head's `dist(·, t)`. One
//! backbone hop therefore costs one pass over `L(u)` per neighbor
//! scanned, and the whole route is walked in one call.
//!
//! # Why repair is possible at all
//!
//! Pruning depends only on the **static rank order** — never on other
//! hubs' labels. Write `S_c` for the set of heads ranked after `c`: the
//! sweep from `c` may pass through exactly `S_c` and records entries at
//! exactly `S_c ∪ {c}`, so hub `c`'s entry set is a pure function of
//! `(backbone, c, S_c)`, and hubs can be re-swept independently without
//! the cascades query-pruned labelings (PLL) suffer. Two causes can
//! change a hub's entries:
//!
//! - **An edge change.** A hub `c` can only be affected by a changed
//!   edge `(x, y)` if some affected restricted path crosses that edge,
//!   which forces `x` (or `y`) to be `c` itself or an interior/terminal
//!   head ranking below `c` — and in either case `x` holds an entry for
//!   `c` in the **old** labels (for additions, apply the argument to
//!   the first changed edge along the new path: its near endpoint is
//!   reached via old edges only). That yields the sound dirty test
//!   mirroring `LabelStore::dirty_slots`:
//!
//!   > hub `c` is dirty ⟺ some changed-edge endpoint's old label row
//!   > contains `c`.
//!
//!   The argument needs only `S_c` to be the same before and after, not
//!   the whole order.
//! - **An order change.** The order reads the link adjacency, so
//!   additions and removals can move it (weight-only churn never does).
//!   `S_c` survives exactly when `c` sits at the same position `r` in
//!   both orders and the sets of the first `r` and the first `r + 1`
//!   heads agree between them — one `O(h)` scan over both orders
//!   (`mark_lower_set_changes`). A reorder confined to one stretch of
//!   positions — a leaf part's degree ties, say — dirties only the hubs
//!   in that stretch; one that resizes a coarse separator shifts every
//!   later position and usually crosses the rebuild fallback below.
//!
//! Clean hubs' entry sets are untouched, so re-sweeping exactly the
//! dirty hubs under the new order and splicing rows segment-wise
//! reproduces a fresh build **structurally** (`PartialEq`). When half
//! the hubs or more are dirty, repair rebuilds instead, under the order
//! it already computed.

use super::inter::{CsrView, InterRepair, InterScratch, FAR};
use adhoc_graph::par;
use std::cell::{RefCell, RefMut};

/// Dirty-hub fraction above which `HubIndex::repair` declines and
/// the caller rebuilds from scratch — same 50% knee as the label
/// pipeline's `DIRTY_FRACTION_FALLBACK`.
pub const HUB_DIRTY_FRACTION_FALLBACK: f64 = 0.5;

/// Flat-arena hub-label index: per-head rows of `(hub, dist)` entries,
/// CSR-packed and sorted by hub slot so queries are two-pointer
/// merges. Structural equality (`PartialEq`) is meaningful: a repaired
/// index equals a freshly built one entry-for-entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubIndex {
    h: usize,
    /// Head slots in importance order (separator decomposition,
    /// coarsest band first — see [`hub_order`]).
    order: Vec<u32>,
    /// `rank[slot]` = position of `slot` in `order` (0 = most important).
    rank: Vec<u32>,
    /// Row offsets, `h + 1` entries.
    label_off: Vec<u32>,
    /// Hub slots per row, ascending.
    label_hub: Vec<u32>,
    /// Restricted distance to the matching hub.
    label_dist: Vec<u32>,
}

/// Fixed bijective scramble (splitmix64 finalizer) used as the
/// importance tie break within a separator group. Backbone degrees are
/// near-uniform on geometric graphs and head slots correlate with
/// spatial position, so breaking ties by raw slot would rank heads
/// along a spatial axis; scrambled ties behave like random ranks
/// instead.
fn mix(slot: u32) -> u64 {
    let mut z = u64::from(slot).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parts at or below this size skip the separator machinery and are
/// emitted whole (degree desc, scrambled slot).
const SEPARATOR_LEAF: usize = 8;

/// Importance order over the backbone: a recursive **BFS-level
/// separator decomposition** (centroid style — coarse separators are
/// the most important hubs, leaves the least).
///
/// Backbone graphs here are geometric meshes — grid-like metrics with
/// `Θ(√h)`-wide balanced separators and *no* degree hierarchy for a
/// degree ordering to exploit (degree ordering degenerates to a random
/// order, whose restricted trees overlap massively and blow labels up
/// ~10×). Separator ranks instead bound every label row by the
/// separator widths of the enclosing cells, `Σᵢ √(h/2ⁱ) = O(√h)`:
///
/// 1. a part's BFS (from the far end of a double sweep, within the
///    part) is cut at the **median visit level**; that level's nodes
///    are the next most important hubs (ordered degree desc, scrambled
///    slot within the group);
/// 2. removing them splits the part; the remainders recurse,
///    breadth-first so sibling separators share a coarseness tier.
///
/// The decomposition reads only the **link adjacency**, never the
/// weights, so weight-only churn recomputes the identical order; after
/// an adjacency change [`HubIndex::repair_with`] re-sweeps only the
/// hubs whose lower set the new order moved.
fn hub_order(csr: CsrView<'_>) -> Vec<u32> {
    const UNSEEN: u32 = u32::MAX;
    const DONE: u32 = u32::MAX - 1;
    let h = csr.head_count();
    let mut order: Vec<u32> = Vec::with_capacity(h);
    if h == 0 {
        return order;
    }
    // Part membership by token; `level`/`seen` are per-BFS scratch.
    let mut token = vec![UNSEEN; h];
    let mut level = vec![0u32; h];
    let mut seen = vec![0u32; h];
    let mut epoch = 0u32;
    let mut bfs = std::collections::VecDeque::new();
    let mut vis: Vec<u32> = Vec::with_capacity(h);
    // One unweighted BFS from `s` over nodes with `token == t`, filling
    // `vis` (visit order) and `level`.
    let mut sweep = |s: u32,
                     t: u32,
                     epoch: u32,
                     token: &[u32],
                     level: &mut [u32],
                     seen: &mut [u32],
                     vis: &mut Vec<u32>| {
        vis.clear();
        bfs.clear();
        seen[s as usize] = epoch;
        level[s as usize] = 0;
        bfs.push_back(s);
        while let Some(u) = bfs.pop_front() {
            vis.push(u);
            for (v, _) in csr.row(u as usize) {
                if token[v as usize] == t && seen[v as usize] != epoch {
                    seen[v as usize] = epoch;
                    level[v as usize] = level[u as usize] + 1;
                    bfs.push_back(v);
                }
            }
        }
    };
    let emit = |part: &mut Vec<u32>, order: &mut Vec<u32>| {
        part.sort_unstable_by_key(|&s| (std::cmp::Reverse(csr.degree(s as usize)), mix(s)));
        order.append(part);
    };
    // Seed the worklist with the connected components, smallest slot
    // first; FIFO processing keeps coarse separators ahead of fine.
    let mut parts: std::collections::VecDeque<(Vec<u32>, u32)> = std::collections::VecDeque::new();
    let mut next_token = 0u32;
    for s in 0..h as u32 {
        if token[s as usize] != UNSEEN {
            continue;
        }
        let t = next_token;
        next_token += 1;
        let mut comp = vec![s];
        token[s as usize] = t;
        let mut i = 0usize;
        while i < comp.len() {
            let u = comp[i];
            i += 1;
            for (v, _) in csr.row(u as usize) {
                if token[v as usize] == UNSEEN {
                    token[v as usize] = t;
                    comp.push(v);
                }
            }
        }
        parts.push_back((comp, t));
    }
    while let Some((mut part, t)) = parts.pop_front() {
        if part.len() <= SEPARATOR_LEAF {
            for &v in &part {
                token[v as usize] = DONE;
            }
            emit(&mut part, &mut order);
            continue;
        }
        // Double sweep: BFS from the smallest slot, restart from the
        // farthest node found (deterministic ties: smallest scramble).
        let s0 = *part.iter().min().expect("part is non-empty");
        epoch += 1;
        sweep(s0, t, epoch, &token, &mut level, &mut seen, &mut vis);
        let far = *vis
            .iter()
            .max_by_key(|&&v| (level[v as usize], std::cmp::Reverse(mix(v))))
            .expect("part is non-empty");
        epoch += 1;
        sweep(far, t, epoch, &token, &mut level, &mut seen, &mut vis);
        debug_assert_eq!(vis.len(), part.len(), "part must be connected");
        // Cut at the median visit level; that band separates the
        // closer half from the farther.
        let cut = level[vis[vis.len() / 2] as usize];
        let mut sep: Vec<u32> = part
            .iter()
            .copied()
            .filter(|&v| level[v as usize] == cut)
            .collect();
        if sep.len() == part.len() {
            for &v in &part {
                token[v as usize] = DONE;
            }
            emit(&mut part, &mut order);
            continue;
        }
        for &v in &sep {
            token[v as usize] = DONE;
        }
        emit(&mut sep, &mut order);
        // Flood-fill the remainders (still tokened `t`) into new
        // parts, scanning in part order for determinism.
        for &v in &part {
            if token[v as usize] != t {
                continue; // separator, or claimed by a sibling below
            }
            let nt = next_token;
            next_token += 1;
            let mut comp = vec![v];
            token[v as usize] = nt;
            let mut i = 0usize;
            while i < comp.len() {
                let u = comp[i];
                i += 1;
                for (w, _) in csr.row(u as usize) {
                    if token[w as usize] == t {
                        token[w as usize] = nt;
                        comp.push(w);
                    }
                }
            }
            parts.push_back((comp, nt));
        }
    }
    debug_assert_eq!(order.len(), h);
    order
}

impl HubIndex {
    /// Serial [`Self::build_with`] (test convenience).
    #[cfg(test)]
    pub(crate) fn build(csr: CsrView<'_>, scratch: &mut InterScratch) -> HubIndex {
        HubIndex::build_with(csr, scratch, 1)
    }

    /// Builds the index for `csr`: one rank-restricted sweep per head,
    /// packed into the CSR arena.
    ///
    /// Over a worker pool: hubs are chunked in slot order and swept
    /// with per-worker scratch. Each hub's entry set is a pure function
    /// of `(backbone, order)` — the same independence that makes repair
    /// possible — and the fragments come back in chunk order, so the
    /// entries reach [`Rows::scatter`] hub-ascending for any worker
    /// count and the arena is bit-identical to the serial build.
    pub(crate) fn build_with(
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
        workers: usize,
    ) -> HubIndex {
        HubIndex::build_ordered(csr, hub_order(csr), scratch, workers)
    }

    /// [`Self::build_with`] under an importance order already computed
    /// for `csr` — the repair fallback passes the order it checked.
    fn build_ordered(
        csr: CsrView<'_>,
        order: Vec<u32>,
        scratch: &mut InterScratch,
        workers: usize,
    ) -> HubIndex {
        let h = csr.head_count();
        let rank = rank_of(&order);
        let all: Vec<u32> = (0..h as u32).collect();
        let rows = sweep_hubs(csr, &all, &rank, scratch, workers);
        HubIndex {
            h,
            order,
            rank,
            label_off: rows.off,
            label_hub: rows.hub,
            label_dist: rows.dist,
        }
    }

    fn row(&self, v: usize) -> (usize, usize) {
        (self.label_off[v] as usize, self.label_off[v + 1] as usize)
    }

    /// Exact backbone distance between heads `u` and `v` ([`FAR`] when
    /// the backbone does not connect them): a two-pointer merge of the
    /// two label rows over their common hubs. The test oracle for the
    /// scattered passes [`Self::walk`] serves from.
    #[cfg(test)]
    pub(crate) fn dist(&self, u: usize, v: usize) -> u32 {
        if u == v {
            return 0;
        }
        let (mut i, iend) = self.row(u);
        let (mut j, jend) = self.row(v);
        let mut best = FAR;
        while i < iend && j < jend {
            match self.label_hub[i].cmp(&self.label_hub[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = self.label_dist[i] + self.label_dist[j];
                    best = best.min(d);
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Walks the canonical head route `s ⇝ t`, handing `hop` the CSR
    /// index (into `csr.to` / `csr.hops`) of each backbone link taken,
    /// in route order. Returns `false`, before any hop, when the
    /// backbone does not connect `s` and `t`.
    ///
    /// `L(t)` is scattered once into the thread's hub-indexed array
    /// (see the module docs); at each head the first hop is the
    /// smallest-slot neighbor `u` whose pass over `L(u)` finds a sum
    /// equal to `dist(s, t) − w(s, u)`, and that bound becomes the
    /// next head's distance. Because label distances are exact and the
    /// CSR row is slot-ascending, every hop is bit-identical to the
    /// dense table's. `hop` must not serve a hub query itself.
    ///
    /// # Panics
    /// In every build, when a reachable target has no first-hop
    /// witness at some head — the labels are no longer exact
    /// distances. The scattered entries are reset while unwinding, so
    /// a caught panic leaves the thread's next query correct.
    pub(crate) fn walk(
        &self,
        s: usize,
        t: usize,
        csr: CsrView<'_>,
        mut hop: impl FnMut(usize),
    ) -> bool {
        if s == t {
            return true;
        }
        SCATTER.with(|cell| {
            let (lo, hi) = self.row(t);
            let mut target = Scattered {
                dist: cell.borrow_mut(),
                hubs: &self.label_hub[lo..hi],
            };
            if target.dist.len() < self.h {
                target.dist.resize(self.h, FAR);
            }
            for (&c, &d) in self.label_hub[lo..hi].iter().zip(&self.label_dist[lo..hi]) {
                target.dist[c as usize] = d;
            }
            let to_t = &target.dist[..];
            let (lo, hi) = self.row(s);
            let mut d = self.label_hub[lo..hi]
                .iter()
                .zip(&self.label_dist[lo..hi])
                .map(|(&c, &d)| d.saturating_add(to_t[c as usize]))
                .min()
                .unwrap_or(FAR);
            if d == FAR {
                return false;
            }
            // The head just left sits at `d + w` from `t`, never at
            // `d − w`, so its label is not scanned.
            let (mut at, mut came_from) = (s, u32::MAX);
            while at != t {
                let (lo, hi) = (csr.off[at] as usize, csr.off[at + 1] as usize);
                let link = (lo..hi)
                    .find(|&i| {
                        let (u, w) = (csr.to[i], csr.hops[i]);
                        u != came_from && w <= d && self.reaches(u as usize, d - w, to_t)
                    })
                    .unwrap_or_else(|| {
                        panic!(
                            "hub index broken: no first hop from head {at} toward head {t} \
                             at dist {d} (route from head {s})"
                        )
                    });
                hop(link);
                d -= csr.hops[link];
                came_from = at as u32;
                at = csr.to[link] as usize;
            }
            true
        })
    }

    /// Whether some hub of `L(u)` gives `d_c(u) + d_c(t) = bound`, with
    /// `to_t` holding `L(t)` scattered. Callers pass `bound = dist(s, t)
    /// − w(s, u)`, which no sum can undercut, so the first equal sum
    /// settles the pass.
    fn reaches(&self, u: usize, bound: u32, to_t: &[u32]) -> bool {
        let (lo, hi) = self.row(u);
        self.label_hub[lo..hi]
            .iter()
            .zip(&self.label_dist[lo..hi])
            .any(|(&c, &d)| d <= bound && to_t[c as usize] == bound - d)
    }

    /// Serial [`Self::repair_with`], reduced to the test's question:
    /// `Some(dirty hubs re-swept)` when the index was repaired in
    /// place, `None` when it declined and rebuilt from scratch.
    #[cfg(test)]
    pub(crate) fn repair(
        &mut self,
        changed: &[u32],
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
    ) -> Option<usize> {
        match self.repair_with(changed, csr, scratch, 1) {
            InterRepair::HubRepaired { dirty_hubs, .. } => Some(dirty_hubs),
            _ => None,
        }
    }

    /// Incremental repair after the backbone changed: `changed` holds
    /// the head slots whose CSR rows differ (both endpoints of every
    /// added/removed/re-weighted link) and `csr` is the new backbone.
    ///
    /// The new importance order is computed once. A hub is dirty when a
    /// changed-edge endpoint's old row holds it, or when the order
    /// change moved its lower set `S_c` (see the module docs). Dirty
    /// hubs are re-swept under the new order — fanned out across
    /// `workers`, bit-identical for any count (see
    /// [`Self::build_with`]) — and spliced row by row; the result is
    /// [`InterRepair::HubRepaired`]. When the dirty fraction reaches
    /// [`HUB_DIRTY_FRACTION_FALLBACK`] the index is rebuilt under the
    /// order already computed: [`InterRepair::HubRebuilt`]. Either way
    /// it equals a fresh build.
    pub(crate) fn repair_with(
        &mut self,
        changed: &[u32],
        csr: CsrView<'_>,
        scratch: &mut InterScratch,
        workers: usize,
    ) -> InterRepair {
        debug_assert_eq!(self.h, csr.head_count());
        let order = hub_order(csr);
        let order_changed = order != self.order;
        let mut dirty = vec![false; self.h];
        for &x in changed {
            let (lo, hi) = self.row(x as usize);
            for &c in &self.label_hub[lo..hi] {
                dirty[c as usize] = true;
            }
        }
        if order_changed {
            mark_lower_set_changes(&self.order, &order, &mut dirty);
        }
        let dirty_hubs: Vec<u32> = (0..self.h as u32).filter(|&c| dirty[c as usize]).collect();
        if dirty_hubs.len() as f64 >= HUB_DIRTY_FRACTION_FALLBACK * self.h as f64 {
            *self = HubIndex::build_ordered(csr, order, scratch, workers);
            return InterRepair::HubRebuilt { order_changed };
        }
        if order_changed {
            self.rank = rank_of(&order);
            self.order = order;
        }
        if !dirty_hubs.is_empty() {
            let fresh = sweep_hubs(csr, &dirty_hubs, &self.rank, scratch, workers);
            self.splice(&dirty, &fresh);
        }
        InterRepair::HubRepaired {
            dirty_hubs: dirty_hubs.len(),
            order_changed,
        }
    }

    /// Segment-wise splice: per row, drop the old entries of `dirty`
    /// hubs and merge in `fresh`'s row (both sides hub-ascending),
    /// leaving clean entries byte-identical — the labels.rs
    /// clean-row-copy idiom.
    fn splice(&mut self, dirty: &[bool], fresh: &Rows) {
        let mut off = Vec::with_capacity(self.h + 1);
        let mut hubs = Vec::with_capacity(self.label_hub.len());
        let mut dists = Vec::with_capacity(self.label_dist.len());
        off.push(0u32);
        for v in 0..self.h {
            let (mut oi, hi) = self.row(v);
            let (mut fi, fend) = (fresh.off[v] as usize, fresh.off[v + 1] as usize);
            loop {
                while oi < hi && dirty[self.label_hub[oi] as usize] {
                    oi += 1;
                }
                let take_old = match (oi < hi, fi < fend) {
                    (false, false) => break,
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) => self.label_hub[oi] < fresh.hub[fi],
                };
                if take_old {
                    hubs.push(self.label_hub[oi]);
                    dists.push(self.label_dist[oi]);
                    oi += 1;
                } else {
                    hubs.push(fresh.hub[fi]);
                    dists.push(fresh.dist[fi]);
                    fi += 1;
                }
            }
            off.push(hubs.len() as u32);
        }
        self.label_off = off;
        self.label_hub = hubs;
        self.label_dist = dists;
    }

    /// Number of heads the index covers.
    pub fn head_count(&self) -> usize {
        self.h
    }

    /// Total label entries across all rows (the sub-quadratic quantity
    /// the benches report against `h²`).
    pub fn label_entries(&self) -> usize {
        self.label_hub.len()
    }

    /// Heap bytes of the arenas.
    pub fn memory_bytes(&self) -> usize {
        let u32s = self.order.capacity()
            + self.rank.capacity()
            + self.label_off.capacity()
            + self.label_hub.capacity()
            + self.label_dist.capacity();
        u32s * std::mem::size_of::<u32>()
    }
}

thread_local! {
    /// Hub-indexed scatter of the current query target's label:
    /// `d_c(t)` at every hub `c` of `L(t)`, [`FAR`] elsewhere. Grows to
    /// the largest `h` served on the thread; [`Scattered`] resets it.
    static SCATTER: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// `L(t)` scattered into the thread's [`SCATTER`] array for one walk.
/// Dropping it — on return or while unwinding — writes [`FAR`] back
/// over exactly `L(t)`'s hubs, so the reset costs `O(|L(t)|)`, not
/// `O(h)`.
struct Scattered<'a> {
    dist: RefMut<'a, Vec<u32>>,
    hubs: &'a [u32],
}

impl Drop for Scattered<'_> {
    fn drop(&mut self) {
        for &c in self.hubs {
            self.dist[c as usize] = FAR;
        }
    }
}

/// `rank[slot]` = position of `slot` in `order`.
fn rank_of(order: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; order.len()];
    for (r, &slot) in order.iter().enumerate() {
        rank[slot as usize] = r as u32;
    }
    rank
}

/// Marks every hub whose lower set `S_c` (the heads ranked after it)
/// differs between the `old` and `new` orders. `S_c` survives exactly
/// when `c` holds the same position `r` in both and the two orders'
/// prefix sets agree at lengths `r` and `r + 1`; one pass keeps the
/// count of heads in exactly one of the two prefixes, so the test
/// costs `O(h)`.
fn mark_lower_set_changes(old: &[u32], new: &[u32], dirty: &mut [bool]) {
    let mut in_old = vec![false; old.len()];
    let mut in_new = vec![false; new.len()];
    let mut unmatched = 0usize;
    let mut prefixes_agree = true;
    for (&a, &b) in old.iter().zip(new) {
        if in_new[a as usize] {
            unmatched -= 1;
        } else {
            unmatched += 1;
        }
        in_old[a as usize] = true;
        if in_old[b as usize] {
            unmatched -= 1;
        } else {
            unmatched += 1;
        }
        in_new[b as usize] = true;
        let agree_through = unmatched == 0;
        if !(prefixes_agree && agree_through) {
            dirty[a as usize] = true;
            dirty[b as usize] = true;
        }
        prefixes_agree = agree_through;
    }
}

/// Label rows in CSR form: row `v` is `hub[off[v]..off[v + 1]]` with the
/// matching `dist`, hub-ascending.
struct Rows {
    off: Vec<u32>,
    hub: Vec<u32>,
    dist: Vec<u32>,
}

/// One worker's sweeps: the `(node, dist)` entries of consecutive hubs,
/// hub `i`'s ending at `ends[i]`.
#[derive(Default)]
struct Swept {
    ends: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

impl Rows {
    /// Packs `frags` — the sweeps of `hubs`, in order, split across
    /// fragments — into rows by a stable counting scatter on the node:
    /// one pass counts each row, a prefix sum places it, a second pass
    /// writes every entry into its row's next free position. Rows come
    /// out hub-ascending whenever `hubs` is, with no sort and no second
    /// entry buffer.
    fn scatter(h: usize, hubs: &[u32], frags: Vec<Swept>) -> Rows {
        let mut off = vec![0u32; h + 1];
        for f in &frags {
            for &(v, _) in &f.entries {
                off[v as usize + 1] += 1;
            }
        }
        for v in 0..h {
            off[v + 1] += off[v];
        }
        let total = off[h] as usize;
        let mut hub = vec![0u32; total];
        let mut dist = vec![0u32; total];
        let mut next = off[..h].to_vec();
        let mut hubs = hubs.iter();
        for f in frags {
            let mut lo = 0usize;
            for &end in &f.ends {
                let c = *hubs.next().expect("one hub per swept segment");
                for &(v, d) in &f.entries[lo..end as usize] {
                    let at = &mut next[v as usize];
                    hub[*at as usize] = c;
                    dist[*at as usize] = d;
                    *at += 1;
                }
                lo = end as usize;
            }
        }
        debug_assert!(hubs.next().is_none());
        Rows { off, hub, dist }
    }
}

/// Sweeps every hub in `hubs` (slot-ascending) and packs the entries
/// into [`Rows`]. The caller's scratch is [`InterScratch::fit`] to `csr`
/// once; at 1 worker (or a single hub) it is reused inline, otherwise
/// `hubs` is chunked across scoped workers, each with a fresh scratch
/// of the same span, and the fragments are scattered in chunk order —
/// the same hub order as serial, so the rows are bit-identical for any
/// worker count.
fn sweep_hubs(
    csr: CsrView<'_>,
    hubs: &[u32],
    rank: &[u32],
    scratch: &mut InterScratch,
    workers: usize,
) -> Rows {
    let span = scratch.fit(csr);
    let frags = if workers <= 1 || hubs.len() < 2 {
        let mut swept = Swept::default();
        for &c in hubs {
            sweep_hub(csr, c, rank, scratch, &mut swept);
        }
        vec![swept]
    } else {
        par::scoped_chunks(workers, hubs.len(), hubs, |_, _, chunk: &[u32]| {
            let mut local = InterScratch::with_span(span);
            let mut swept = Swept::default();
            for &c in chunk {
                sweep_hub(csr, c, rank, &mut local, &mut swept);
            }
            swept
        })
    };
    Rows::scatter(csr.head_count(), hubs, frags)
}

/// One rank-restricted sweep from hub `c`, appending its `(node, dist)`
/// entries — every reached head ranking below `c`, plus the zero
/// self-entry — as one segment of `swept`.
fn sweep_hub(csr: CsrView<'_>, c: u32, rank: &[u32], scratch: &mut InterScratch, swept: &mut Swept) {
    let r = rank[c as usize];
    scratch.sweep(csr, c as usize, Some((rank, r)));
    for &v in scratch.settled() {
        if v == c || rank[v as usize] > r {
            swept.entries.push((v, scratch.dist(v as usize)));
        }
    }
    swept.ends.push(swept.entries.len() as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    struct Backbone {
        off: Vec<u32>,
        to: Vec<u32>,
        hops: Vec<u32>,
        adj: Vec<Vec<(u32, u32)>>,
    }

    impl Backbone {
        fn csr(&self) -> CsrView<'_> {
            CsrView {
                off: &self.off,
                to: &self.to,
                hops: &self.hops,
            }
        }

        fn from_adj(adj: Vec<Vec<(u32, u32)>>) -> Backbone {
            let mut off = vec![0u32];
            let mut to = Vec::new();
            let mut hops = Vec::new();
            for nbrs in &adj {
                let mut sorted = nbrs.clone();
                sorted.sort_unstable();
                for &(t, w) in &sorted {
                    to.push(t);
                    hops.push(w);
                }
                off.push(to.len() as u32);
            }
            Backbone { off, to, hops, adj }
        }

        fn random(rng: &mut StdRng, h: usize, p: f64) -> Backbone {
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
            Backbone::from_adj(adj)
        }

        /// Changes one existing undirected edge's weight; returns the
        /// flagged endpoints, or `None` if the graph has no edges.
        fn perturb(&mut self, rng: &mut StdRng) -> Option<Vec<u32>> {
            let edges: Vec<(usize, usize)> = self
                .adj
                .iter()
                .enumerate()
                .flat_map(|(a, nbrs)| {
                    nbrs.iter()
                        .filter(move |&&(b, _)| (b as usize) > a)
                        .map(move |&(b, _)| (a, b as usize))
                })
                .collect();
            if edges.is_empty() {
                return None;
            }
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            let w = rng.gen_range(1..9u32);
            for &(x, y) in &[(a, b), (b, a)] {
                for e in &mut self.adj[x] {
                    if e.0 as usize == y {
                        e.1 = w;
                    }
                }
            }
            let rebuilt = Backbone::from_adj(std::mem::take(&mut self.adj));
            *self = rebuilt;
            Some(vec![a as u32, b as u32])
        }
    }

    /// Plain Dijkstra oracle.
    fn oracle_dist(bb: &Backbone, s: usize) -> Vec<u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let h = bb.adj.len();
        let mut dist = vec![FAR; h];
        let mut heap = BinaryHeap::new();
        dist[s] = 0;
        heap.push(Reverse((0u32, s as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &bb.adj[u as usize] {
                if d + w < dist[v as usize] {
                    dist[v as usize] = d + w;
                    heap.push(Reverse((d + w, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn distances_are_exact() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = InterScratch::new();
        for _ in 0..20 {
            let h = rng.gen_range(2..18usize);
            let bb = Backbone::random(&mut rng, h, 0.35);
            let hub = HubIndex::build(bb.csr(), &mut scratch);
            for s in 0..h {
                let want = oracle_dist(&bb, s);
                for (t, &w) in want.iter().enumerate() {
                    assert_eq!(hub.dist(s, t), w, "{s} -> {t}");
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(12);
        let bb = Backbone::random(&mut rng, 12, 0.3);
        let a = HubIndex::build(bb.csr(), &mut InterScratch::new());
        let b = HubIndex::build(bb.csr(), &mut InterScratch::new());
        assert_eq!(a, b);
        for workers in [2usize, 3, 8] {
            let par = HubIndex::build_with(bb.csr(), &mut InterScratch::new(), workers);
            assert_eq!(a, par, "{workers}-worker build diverged from serial");
        }
    }

    #[test]
    fn parallel_repair_matches_serial() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = InterScratch::new();
        for round in 0..10 {
            let mut bb = Backbone::random(&mut rng, 14, 0.35);
            let baseline = HubIndex::build(bb.csr(), &mut scratch);
            let Some(changed) = bb.perturb(&mut rng) else {
                continue;
            };
            let mut serial = baseline.clone();
            let want = serial.repair_with(&changed, bb.csr(), &mut scratch, 1);
            for workers in [2usize, 3, 8] {
                let mut par = baseline.clone();
                let got = par.repair_with(&changed, bb.csr(), &mut scratch, workers);
                assert_eq!(got, want, "round {round}: {workers}-worker repair verdict");
                assert_eq!(par, serial, "round {round}: {workers}-worker repair arena");
            }
        }
    }

    #[test]
    fn repair_equals_rebuild_after_weight_changes() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = InterScratch::new();
        for round in 0..25 {
            let h = rng.gen_range(3..16usize);
            let mut bb = Backbone::random(&mut rng, h, 0.35);
            let mut hub = HubIndex::build(bb.csr(), &mut scratch);
            for step in 0..4 {
                let Some(changed) = bb.perturb(&mut rng) else {
                    break;
                };
                match hub.repair(&changed, bb.csr(), &mut scratch) {
                    Some(_) => {}
                    None => hub = HubIndex::build(bb.csr(), &mut scratch),
                }
                let fresh = HubIndex::build(bb.csr(), &mut scratch);
                assert_eq!(hub, fresh, "round {round} step {step}");
            }
        }
    }

    /// How many hubs' lower sets `S_c` differ between two orders.
    fn lower_set_changes(old: &[u32], new: &[u32]) -> usize {
        let mut dirty = vec![false; old.len()];
        mark_lower_set_changes(old, new, &mut dirty);
        dirty.iter().filter(|&&d| d).count()
    }

    #[test]
    fn repair_declines_when_order_changes() {
        // Removing an edge reshapes the link adjacency — here it even
        // splits the backbone — so the separator decomposition moves
        // so far that at least half the hubs' lower sets change, and
        // repair must hand back a rebuild rather than re-sweep them.
        let h = 10usize;
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for a in 0..h - 1 {
            adj[a].push((a as u32 + 1, 1));
            adj[a + 1].push((a as u32, 1));
        }
        let bb = Backbone::from_adj(adj.clone());
        let mut scratch = InterScratch::new();
        let mut hub = HubIndex::build(bb.csr(), &mut scratch);
        adj[0].retain(|e| e.0 != 1);
        adj[1].retain(|e| e.0 != 0);
        let split = Backbone::from_adj(adj);
        assert!(lower_set_changes(&hub.order, &hub_order(split.csr())) * 2 >= h);
        assert_eq!(hub.repair(&[0, 1], split.csr(), &mut scratch), None);
        assert_eq!(hub, HubIndex::build(split.csr(), &mut scratch));
    }

    /// Three 8-cycles: every component is a separator leaf, emitted
    /// whole in component order, so an edit inside the last cycle
    /// reorders only the last eight positions of the order.
    #[test]
    fn order_change_in_a_short_suffix_is_repaired() {
        let h = 24usize;
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for base in (0..h).step_by(8) {
            for i in 0..8 {
                let (a, b) = (base + i, base + (i + 1) % 8);
                let w = 1 + (a % 3) as u32;
                adj[a].push((b as u32, w));
                adj[b].push((a as u32, w));
            }
        }
        let bb = Backbone::from_adj(adj.clone());
        let mut scratch = InterScratch::new();
        let mut hub = HubIndex::build(bb.csr(), &mut scratch);
        // A chord raises two degrees in the last cycle.
        let (a, b) = (16usize, 20usize);
        adj[a].push((b as u32, 2));
        adj[b].push((a as u32, 2));
        let chorded = Backbone::from_adj(adj);
        let new_order = hub_order(chorded.csr());
        assert_ne!(new_order, hub.order, "the chord must reorder the last leaf");
        assert_eq!(new_order[..16], hub.order[..16], "only the suffix moves");
        let moved = lower_set_changes(&hub.order, &new_order);
        assert!(moved > 0 && moved <= 8, "{moved} lower sets changed");
        let dirty = hub
            .repair(&[a as u32, b as u32], chorded.csr(), &mut scratch)
            .expect("a suffix reorder repairs in place");
        assert!(dirty >= moved && dirty <= 8, "{dirty} hubs re-swept");
        assert_eq!(hub, HubIndex::build(chorded.csr(), &mut scratch));
    }

    #[test]
    fn lower_set_test_matches_definition() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let h = rng.gen_range(1..12usize);
            let old: Vec<u32> = (0..h as u32).collect();
            let mut new = old.clone();
            // A few random transpositions, some of them far apart.
            for _ in 0..rng.gen_range(0..3) {
                let (i, j) = (rng.gen_range(0..h), rng.gen_range(0..h));
                new.swap(i, j);
            }
            let (ro, rn) = (rank_of(&old), rank_of(&new));
            let mut dirty = vec![false; h];
            mark_lower_set_changes(&old, &new, &mut dirty);
            for c in 0..h {
                let lower = |rank: &[u32]| -> Vec<bool> {
                    (0..h).map(|v| rank[v] > rank[c]).collect()
                };
                assert_eq!(dirty[c], lower(&ro) != lower(&rn), "{old:?} -> {new:?}, hub {c}");
            }
        }
    }

    #[test]
    fn empty_change_set_is_noop() {
        let mut rng = StdRng::seed_from_u64(15);
        let bb = Backbone::random(&mut rng, 8, 0.4);
        let mut scratch = InterScratch::new();
        let mut hub = HubIndex::build(bb.csr(), &mut scratch);
        let before = hub.clone();
        assert_eq!(hub.repair(&[], bb.csr(), &mut scratch), Some(0));
        assert_eq!(hub, before);
    }

    #[test]
    fn disconnected_pairs_share_no_hub() {
        // Two components: {0, 1} and {2}.
        let bb = Backbone::from_adj(vec![vec![(1, 3)], vec![(0, 3)], vec![]]);
        let hub = HubIndex::build(bb.csr(), &mut InterScratch::new());
        assert_eq!(hub.dist(0, 1), 3);
        assert_eq!(hub.dist(0, 2), FAR);
        assert_eq!(walk_route(&hub, &bb, 0, 2), None);
        assert_eq!(walk_route(&hub, &bb, 2, 2), Some(vec![2]));
        assert_eq!(walk_route(&hub, &bb, 0, 1), Some(vec![0, 1]));
    }

    /// The heads [`HubIndex::walk`] visits from `s` to `t` (`None` when
    /// it reports the pair unconnected).
    fn walk_route(hub: &HubIndex, bb: &Backbone, s: usize, t: usize) -> Option<Vec<u32>> {
        let mut route = vec![s as u32];
        let csr = bb.csr();
        hub.walk(s, t, csr, |link| route.push(csr.to[link]))
            .then_some(route)
    }

    /// The canonical route read off the definition: from each head,
    /// the smallest-slot neighbor on a shortest route to `t`.
    fn oracle_route(bb: &Backbone, s: usize, t: usize) -> Option<Vec<u32>> {
        let to_t = oracle_dist(bb, t);
        if to_t[s] == FAR {
            return None;
        }
        let mut route = vec![s as u32];
        let mut at = s;
        while at != t {
            let (u, _) = bb
                .csr()
                .row(at)
                .find(|&(u, w)| to_t[u as usize] != FAR && w + to_t[u as usize] == to_t[at])
                .expect("a reachable target has a first hop");
            route.push(u);
            at = u as usize;
        }
        Some(route)
    }

    /// The path `0 - 1 - 2` with its index, and the same index with
    /// one entry of `L(0)` lowered so `dist(0, 2)` reads 1 instead of 2.
    fn path_and_broken_index() -> (Backbone, HubIndex) {
        let bb = Backbone::from_adj(vec![vec![(1, 1)], vec![(0, 1), (2, 1)], vec![(1, 1)]]);
        let mut hub = HubIndex::build(bb.csr(), &mut InterScratch::new());
        let (lo, hi) = hub.row(0);
        let e = (lo..hi)
            .find(|&i| hub.label_hub[i] == 1)
            .expect("the middle head is a hub of both ends");
        assert_eq!(hub.label_dist[e], 1);
        hub.label_dist[e] = 0;
        (bb, hub)
    }

    #[test]
    #[should_panic(expected = "hub index broken: no first hop from head 0 toward head 2 at dist 1")]
    fn broken_label_panics_naming_the_query() {
        let (bb, hub) = path_and_broken_index();
        hub.walk(0, 2, bb.csr(), |_| {});
    }

    /// A panic out of one walk must not leave its scattered target
    /// behind for the next query on the same thread.
    #[test]
    fn query_after_caught_panic_is_correct() {
        let (path, broken) = path_and_broken_index();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            broken.walk(0, 2, path.csr(), |_| {})
        }));
        assert!(caught.is_err(), "the broken index must panic");
        SCATTER.with(|cell| {
            assert!(
                cell.borrow().iter().all(|&d| d == FAR),
                "the panic left L(2) scattered"
            );
        });
        // Sources from head 2 down: a stale `d_2(2) = 0` would fake a
        // zero distance from head 2 on the very next query.
        let fixed = HubIndex::build(path.csr(), &mut InterScratch::new());
        for s in (0..3).rev() {
            for t in 0..3 {
                assert_eq!(
                    walk_route(&fixed, &path, s, t),
                    oracle_route(&path, s, t),
                    "{s} -> {t}"
                );
            }
        }
    }

    #[test]
    fn localized_change_dirties_few_hubs() {
        // A long path graph: a weight change at one end must not
        // re-sweep hubs whose restricted trees never cross it.
        let h = 40usize;
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for a in 0..h - 1 {
            adj[a].push((a as u32 + 1, 1));
            adj[a + 1].push((a as u32, 1));
        }
        let mut bb = Backbone::from_adj(adj);
        let mut scratch = InterScratch::new();
        let mut hub = HubIndex::build(bb.csr(), &mut scratch);
        // Re-weight the last edge (degrees unchanged).
        for e in &mut bb.adj[h - 2] {
            if e.0 as usize == h - 1 {
                e.1 = 3;
            }
        }
        for e in &mut bb.adj[h - 1] {
            if e.0 as usize == h - 2 {
                e.1 = 3;
            }
        }
        let rebuilt = Backbone::from_adj(std::mem::take(&mut bb.adj));
        bb = rebuilt;
        let dirty = hub
            .repair(&[h as u32 - 2, h as u32 - 1], bb.csr(), &mut scratch)
            .expect("weight-only change repairs in place");
        assert!(dirty > 0);
        assert!(dirty < h / 2, "only a tail of hubs re-swept, got {dirty}");
        assert_eq!(hub, HubIndex::build(bb.csr(), &mut scratch));
    }

    /// A random geometric backbone: `h` points in the unit square, a
    /// link between points closer than `radius`, weights in `1..=max_w`.
    fn geometric(rng: &mut StdRng, h: usize, radius: f64, max_w: u32) -> Backbone {
        let pts: Vec<(f64, f64)> = (0..h).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); h];
        for a in 0..h {
            for b in a + 1..h {
                let (dx, dy) = (pts[a].0 - pts[b].0, pts[a].1 - pts[b].1);
                if dx * dx + dy * dy < radius * radius {
                    let w = rng.gen_range(1..=max_w);
                    adj[a].push((b as u32, w));
                    adj[b].push((a as u32, w));
                }
            }
        }
        Backbone::from_adj(adj)
    }

    /// One random link edit — add a link between two unlinked heads,
    /// remove a link, or re-weight one — returning its two endpoints.
    fn edit(bb: &mut Backbone, rng: &mut StdRng, max_w: u32) -> Vec<u32> {
        let h = bb.adj.len();
        let (a, b) = loop {
            let (a, b) = (rng.gen_range(0..h), rng.gen_range(0..h));
            if a != b {
                break (a, b);
            }
        };
        let linked = bb.adj[a].iter().any(|e| e.0 as usize == b);
        let mut adj = std::mem::take(&mut bb.adj);
        if !linked {
            let w = rng.gen_range(1..=max_w);
            adj[a].push((b as u32, w));
            adj[b].push((a as u32, w));
        } else if rng.gen_bool(0.6) {
            adj[a].retain(|e| e.0 as usize != b);
            adj[b].retain(|e| e.0 as usize != a);
        } else {
            let w = rng.gen_range(1..=max_w);
            for (x, y) in [(a, b), (b, a)] {
                for e in &mut adj[x] {
                    if e.0 as usize == y {
                        e.1 = w;
                    }
                }
            }
        }
        *bb = Backbone::from_adj(adj);
        vec![a.min(b) as u32, a.max(b) as u32]
    }

    /// Tallies of a [`repair_sweep`].
    #[derive(Debug, Default)]
    struct SweepTally {
        edits: usize,
        repaired: usize,
        repaired_new_order: usize,
        rebuilt: usize,
    }

    /// Random link edits on random geometric backbones, `rounds` times
    /// `edits` of them: after every edit the repaired index — at 1, 2
    /// and 3 workers, from the same starting index — must equal a fresh
    /// build, whether it repaired in place (order changed or not) or
    /// fell back to a rebuild.
    fn repair_sweep(seed: u64, rounds: usize, edits: usize, h_max: usize) -> SweepTally {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = InterScratch::new();
        let mut tally = SweepTally::default();
        for round in 0..rounds {
            let h = rng.gen_range(12..=h_max);
            // Mean degree about 6, like the geometric backbones served.
            let radius = (6.0 / (std::f64::consts::PI * h as f64)).sqrt();
            let mut bb = geometric(&mut rng, h, radius, 5);
            let mut hub = HubIndex::build(bb.csr(), &mut scratch);
            for step in 0..edits {
                let changed = edit(&mut bb, &mut rng, 5);
                let fresh = HubIndex::build(bb.csr(), &mut scratch);
                let mut verdicts = Vec::new();
                for workers in [1usize, 2, 3] {
                    let mut repaired = hub.clone();
                    verdicts.push(repaired.repair_with(&changed, bb.csr(), &mut scratch, workers));
                    assert_eq!(
                        repaired, fresh,
                        "round {round} step {step}: {workers}-worker repair ({:?}) diverged",
                        verdicts.last()
                    );
                }
                assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{verdicts:?}");
                tally.edits += 1;
                match verdicts[0] {
                    InterRepair::HubRepaired { order_changed, .. } => {
                        tally.repaired += 1;
                        tally.repaired_new_order += usize::from(order_changed);
                    }
                    InterRepair::HubRebuilt { .. } => tally.rebuilt += 1,
                    other => panic!("hub repair reported {other:?}"),
                }
                hub = fresh;
            }
        }
        tally
    }

    #[test]
    fn randomized_link_edits_repair_to_fresh_build() {
        let tally = repair_sweep(31, 12, 25, 60);
        assert!(
            tally.repaired_new_order > 0 && tally.rebuilt > 0,
            "the sweep must cover order-changing repairs and rebuilds: {tally:?}"
        );
    }

    /// The long tier of [`randomized_link_edits_repair_to_fresh_build`]:
    /// about 20k edits on backbones of up to 400 heads. Run with
    /// `cargo test -p adhoc-cluster --release -- --ignored hub_repair`.
    #[test]
    #[ignore = "long sweep; run in release with --ignored"]
    fn hub_repair_long_randomized_sweep() {
        let tally = repair_sweep(4077, 100, 200, 400);
        assert_eq!(tally.edits, 20_000);
        assert!(tally.repaired_new_order > 0, "{tally:?}");
    }

    /// Backbone with weights up to 40 and one far heavier link, so the
    /// bucket ring spans well past `2k + 1`.
    fn heavy_backbone(rng: &mut StdRng, h: usize) -> Backbone {
        let mut bb = Backbone::random(rng, h, 0.3);
        let mut adj = std::mem::take(&mut bb.adj);
        for (a, nbrs) in adj.iter_mut().enumerate() {
            for e in nbrs.iter_mut() {
                // Symmetric weight per unordered pair.
                let (x, y) = (a.min(e.0 as usize), a.max(e.0 as usize));
                e.1 = 1 + ((x * 31 + y * 17) % 40) as u32;
            }
        }
        let (a, b) = (0usize, h - 1);
        adj[a].retain(|e| e.0 as usize != b);
        adj[b].retain(|e| e.0 as usize != a);
        adj[a].push((b as u32, 250));
        adj[b].push((a as u32, 250));
        Backbone::from_adj(adj)
    }

    #[test]
    fn bucket_sweep_matches_dijkstra_at_heavy_weights() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut scratch = InterScratch::new();
        for _ in 0..20 {
            let h = rng.gen_range(2..24usize);
            let bb = heavy_backbone(&mut rng, h);
            assert_eq!(scratch.fit(bb.csr()), 251);
            for s in 0..h {
                let want = oracle_dist(&bb, s);
                scratch.sweep(bb.csr(), s, None);
                let settled = scratch.settled();
                assert_eq!(settled.len(), want.iter().filter(|&&d| d != FAR).count());
                assert!(settled.windows(2).all(|w| scratch.dist(w[0] as usize) <= scratch.dist(w[1] as usize)));
                for &v in settled {
                    assert_eq!(scratch.dist(v as usize), want[v as usize], "{s} -> {v}");
                }
            }
            let hub = HubIndex::build(bb.csr(), &mut scratch);
            for s in 0..h {
                let want = oracle_dist(&bb, s);
                for (t, &w) in want.iter().enumerate() {
                    assert_eq!(hub.dist(s, t), w, "hub {s} -> {t}");
                    assert_eq!(walk_route(&hub, &bb, s, t), oracle_route(&bb, s, t), "{s} -> {t}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows a 6-bucket ring")]
    fn stale_ring_fit_panics() {
        let light = Backbone::from_adj(vec![vec![(1, 5)], vec![(0, 5), (2, 5)], vec![(1, 5)]]);
        let heavy = Backbone::from_adj(vec![vec![(1, 5)], vec![(0, 5), (2, 9)], vec![(1, 9)]]);
        let mut scratch = InterScratch::new();
        scratch.fit(light.csr());
        scratch.sweep(heavy.csr(), 0, None);
    }
}

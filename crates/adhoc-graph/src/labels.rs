//! Shared per-head BFS labels — the single-sweep substrate of the
//! evaluation engine.
//!
//! The paper's locality argument (§3.2) is that every clusterhead only
//! needs its `2k+1`-hop ball to select neighbor clusterheads and
//! realize virtual links. The Monte-Carlo harness previously re-ran
//! that ball exploration once per algorithm (~5× per replicate);
//! [`LabelStore`] runs **one** hop-bounded BFS per head and keeps the
//! distance labels for every downstream consumer — the NC relation,
//! both virtual graphs, G-MST's complete link set, the route plans and
//! the incremental churn engine — to read without further traversal.
//!
//! A head's row is its *ball* (every node within the bound, in BFS
//! discovery order, the head first) plus the distances of those nodes.
//! The balls of all heads share one arena; the distances sit in one of
//! two row storages, which the store picks per build from its
//! [`LabelMode`]:
//!
//! ```text
//! balls (both):  [ head0 ball, discovery order | head1 ball | ...   ]
//! flat rows:     [ head0: n distances          | head1: n   | ...   ]  O(h · n)
//! ball tables:   [ head0 (node, dist) table    | head1      | ...   ]  O(Σ balls)
//! ```
//!
//! Flat rows answer a lookup by direct indexing. A ball table is
//! open-addressed (power-of-two capacity, ≤ 50% load, linear probing),
//! so a lookup costs one multiply plus a short probe; its memory grows
//! with the balls instead of with `h · n`, which is what makes
//! `N ≫ 10⁴` feasible. Everything else — rebuilds, delta repair,
//! head-row splices and the parallel fragment merge — is one code path
//! over the ball arena, and both storages are written by the same BFS,
//! so they hold bit-identical balls and distances.
//!
//! Only distance labels are stored: the canonical (lexicographically
//! smallest) shortest paths all shortest-path consumers share are
//! derived by the greedy label walk of
//! [`lexico_path_from_labels`](crate::bfs::lexico_path_from_labels),
//! which needs distances alone. BFS-tree parent pointers are
//! deliberately *not* kept — the first-discoverer parent is not the
//! canonical-path predecessor, so storing it would invite misuse.
//!
//! The store is designed for reuse across Monte-Carlo replicates:
//! [`LabelStore::rebuild`] resets only the entries the previous build
//! dirtied (touched-entry reset via the balls) and grows its buffers
//! monotonically, so a worker thread pays no per-replicate allocation
//! once warm.

use crate::bfs::{Adjacency, DistLabels, UNREACHED};
use crate::delta::TopologyDelta;
use crate::graph::NodeId;
use crate::par::{self, Parallelism};
use std::ops::Range;

/// Sentinel slot for "this node is not a head".
const NO_SLOT: u32 = u32::MAX;

/// Empty bucket marker of the ball tables (`u32::MAX` is never a real
/// node ID — it is the crate-wide sentinel).
const EMPTY: u32 = u32::MAX;

/// [`LabelStore::memory_bytes`] counts every buffer in 4-byte words.
const _: () = assert!(std::mem::size_of::<NodeId>() == std::mem::size_of::<u32>());

/// Projected flat-rows size (`heads × n × 4` bytes) above which
/// [`LabelMode::Auto`] builds ball tables. 16 MiB keeps the paper-scale
/// grids (`N ≤ 2000`, where flat rows take at most a few MB and their
/// direct-indexed lookups win) on flat rows while every `N ≥ 10⁴` cell
/// at default density lands on ball tables.
pub const AUTO_SPARSE_THRESHOLD_BYTES: usize = 16 << 20;

/// Which row storage a [`LabelStore`] builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LabelMode {
    /// Always flat rows (the `dense` layout).
    Dense,
    /// Always ball tables (the `sparse` layout).
    Sparse,
    /// Decide per build: ball tables once the projected flat rows
    /// (`heads · n · 4` bytes) exceed [`AUTO_SPARSE_THRESHOLD_BYTES`].
    #[default]
    Auto,
}

impl LabelMode {
    /// Whether a build over `heads` sources on an `n`-node graph
    /// should use ball tables under this mode.
    pub fn wants_sparse(self, n: usize, heads: usize) -> bool {
        match self {
            LabelMode::Dense => false,
            LabelMode::Sparse => true,
            LabelMode::Auto => {
                heads.saturating_mul(n).saturating_mul(4) > AUTO_SPARSE_THRESHOLD_BYTES
            }
        }
    }
}

/// The per-storage part of a [`LabelStore`]: where a sweep writes its
/// distances.
#[derive(Clone, Debug)]
enum Rows {
    /// Flat rows: row-major `heads × n` distances, `UNREACHED` outside
    /// each ball. Entries beyond the logical size stay `UNREACHED`, so
    /// the matrix can shrink logically without a sweep.
    Flat(Vec<u32>),
    /// Ball tables: the tables live in the [`Arena`] next to the balls;
    /// this is the `n`-entry BFS scratch they are filled from,
    /// all-`UNREACHED` between sweeps.
    Tables(Vec<u32>),
}

impl Default for Rows {
    fn default() -> Self {
        Rows::Flat(Vec::new())
    }
}

/// Rows concatenated in slot order: each row's ball and, under ball
/// tables, its `(node, dist)` table. The store keeps a live arena and
/// the previous one (the source of a splice); parallel sweeps return
/// one arena fragment per worker.
#[derive(Clone, Debug, Default)]
struct Arena {
    /// Balls in BFS discovery order (the tail doubles as the BFS
    /// queue while a row is swept).
    balls: Vec<NodeId>,
    /// `rows + 1` offsets into `balls`.
    ball_off: Vec<u32>,
    /// Table keys (`EMPTY` marks a free bucket) ...
    keys: Vec<u32>,
    /// ... and the distance stored under each key.
    dist: Vec<u32>,
    /// `rows + 1` offsets into `keys` / `dist`; empty under flat rows.
    table_off: Vec<u32>,
}

impl Arena {
    /// Empties the arena for a slot-order rewrite, with tables iff
    /// `tables`.
    fn reset(&mut self, tables: bool) {
        self.balls.clear();
        self.ball_off.clear();
        self.keys.clear();
        self.dist.clear();
        self.table_off.clear();
        self.ball_off.push(0);
        if tables {
            self.table_off.push(0);
        }
    }

    fn rows(&self) -> usize {
        self.ball_off.len() - 1
    }

    fn ball(&self, i: usize) -> &[NodeId] {
        &self.balls[self.ball_off[i] as usize..self.ball_off[i + 1] as usize]
    }

    fn table(&self, i: usize) -> LabelRow<'_> {
        let (lo, hi) = (self.table_off[i] as usize, self.table_off[i + 1] as usize);
        LabelRow {
            keys: Some(&self.keys[lo..hi]),
            dist: &self.dist[lo..hi],
        }
    }

    /// Appends `rows` of `src` byte-for-byte.
    fn copy_rows(&mut self, src: &Arena, rows: Range<usize>) {
        let (lo, hi) = (src.ball_off[rows.start], src.ball_off[rows.end]);
        let base = self.balls.len() as u32;
        self.balls
            .extend_from_slice(&src.balls[lo as usize..hi as usize]);
        self.ball_off.extend(
            src.ball_off[rows.start + 1..=rows.end]
                .iter()
                .map(|&o| base + (o - lo)),
        );
        if self.table_off.is_empty() {
            return;
        }
        let (lo, hi) = (src.table_off[rows.start], src.table_off[rows.end]);
        let base = self.keys.len() as u32;
        self.keys
            .extend_from_slice(&src.keys[lo as usize..hi as usize]);
        self.dist
            .extend_from_slice(&src.dist[lo as usize..hi as usize]);
        self.table_off.extend(
            src.table_off[rows.start + 1..=rows.end]
                .iter()
                .map(|&o| base + (o - lo)),
        );
    }

    /// Appends one row: a bounded BFS from `h` through `dist`
    /// (all-`UNREACHED` on entry — a flat row, or the tables' scratch).
    /// `stop = (slot_of, heads)` ends the BFS once that many other heads
    /// are labeled. Under ball tables the row's table is then filled
    /// from `dist`, which is left all-`UNREACHED` again. This is the one
    /// sweep every build, repair and splice runs, serial or chunked, so
    /// all of them are bit-identical by construction.
    fn sweep<G: Adjacency>(
        &mut self,
        g: &G,
        h: NodeId,
        bound: u32,
        dist: &mut [u32],
        stop: Option<(&[u32], usize)>,
    ) {
        let start = self.balls.len();
        dist[h.index()] = 0;
        self.balls.push(h);
        // `usize::MAX` heads to find disables early stopping.
        let (slot_of, mut heads_left) = stop.unwrap_or((&[], usize::MAX));
        let mut qi = start;
        'bfs: while qi < self.balls.len() && heads_left > 0 {
            let u = self.balls[qi];
            qi += 1;
            let du = dist[u.index()];
            if du == bound {
                continue;
            }
            for &v in g.adj(u) {
                if dist[v.index()] == UNREACHED {
                    dist[v.index()] = du + 1;
                    self.balls.push(v);
                    if heads_left != usize::MAX && slot_of[v.index()] != NO_SLOT {
                        heads_left -= 1;
                        if heads_left == 0 {
                            break 'bfs;
                        }
                    }
                }
            }
        }
        self.ball_off.push(self.balls.len() as u32);
        if self.table_off.is_empty() {
            return;
        }
        // Insertion order is irrelevant to lookups, so the ball goes in
        // as discovered — no sort anywhere.
        let ball = &self.balls[start..];
        let cap = (ball.len() * 2).next_power_of_two();
        let (mask, base) = (cap - 1, self.keys.len());
        self.keys.resize(base + cap, EMPTY);
        self.dist.resize(base + cap, UNREACHED);
        for &v in ball {
            let mut b = bucket(v, mask);
            while self.keys[base + b] != EMPTY {
                b = (b + 1) & mask;
            }
            self.keys[base + b] = v.0;
            self.dist[base + b] = std::mem::replace(&mut dist[v.index()], UNREACHED);
        }
        self.table_off.push(self.keys.len() as u32);
    }

    /// Buffer capacity in 4-byte words.
    fn words(&self) -> usize {
        self.balls.capacity()
            + self.ball_off.capacity()
            + self.keys.capacity()
            + self.dist.capacity()
            + self.table_off.capacity()
    }
}

/// Fibonacci-hash bucket of `v` in a power-of-two table of `mask + 1`
/// slots.
#[inline]
fn bucket(v: NodeId, mask: usize) -> usize {
    (((u64::from(v.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & mask
}

/// Hop-distance labels from every clusterhead.
///
/// Rows are indexed by *slot* — the position of the head in the head
/// list the labels were built from ([`Self::heads`]). The store picks
/// its row storage (flat rows or ball tables, see the module docs) at
/// every full build from its [`LabelMode`]; incremental repairs and
/// splices keep the storage of the last build. Every query answers
/// identically in both storages.
#[derive(Clone, Debug, Default)]
pub struct LabelStore {
    /// Storage policy, applied at every full build.
    mode: LabelMode,
    /// Node count of the graph of the last build (flat-row stride).
    n: usize,
    /// Hop bound of the last build (`u32::MAX` = unbounded).
    bound: u32,
    /// The sources, in the order given to the last build.
    heads: Vec<NodeId>,
    /// Node-indexed inverse of `heads` (`NO_SLOT` for non-heads).
    slot_of: Vec<u32>,
    /// The rows' balls (and tables) in slot order.
    live: Arena,
    /// The previous arena while a splice writes `live` (kept so
    /// incremental steps allocate nothing once warm).
    prev: Arena,
    /// Whether the last build stopped each BFS at the farthest head
    /// ([`Self::rebuild_reaching_heads`]), leaving balls *partial* —
    /// such labels cannot drive delta-based dirtiness reasoning.
    stopped_at_heads: bool,
    /// Full rebuilds performed so far (every [`Self::rebuild`],
    /// [`Self::rebuild_with`] and [`Self::rebuild_reaching_heads`];
    /// delta repairs and head-row splices never bump it). Tests pin
    /// that head-set changes stay off the rebuild path by watching this.
    rebuilds: u64,
    /// Where the distances live.
    rows: Rows,
}

impl LabelStore {
    /// An empty store under `mode`, holding the storage `mode` picks
    /// for an `n`-node graph with `heads` sources until its first build.
    pub fn for_mode(mode: LabelMode, n: usize, heads: usize) -> Self {
        let rows = if mode.wants_sparse(n, heads) {
            Rows::Tables(Vec::new())
        } else {
            Rows::default()
        };
        LabelStore {
            mode,
            rows,
            ..LabelStore::default()
        }
    }

    /// An empty store pinned to flat rows ([`LabelMode::Dense`]).
    pub fn dense() -> Self {
        LabelStore::for_mode(LabelMode::Dense, 0, 0)
    }

    /// An empty store pinned to ball tables ([`LabelMode::Sparse`]).
    pub fn sparse() -> Self {
        LabelStore::for_mode(LabelMode::Sparse, 0, 0)
    }

    /// The storage policy.
    pub fn mode(&self) -> LabelMode {
        self.mode
    }

    /// Whether the rows are ball tables.
    pub fn is_sparse(&self) -> bool {
        matches!(self.rows, Rows::Tables(_))
    }

    /// Display name of the row storage (`dense` / `sparse`).
    pub fn layout_name(&self) -> &'static str {
        if self.is_sparse() {
            "sparse"
        } else {
            "dense"
        }
    }

    /// Rebuilds the labels for a (possibly different) graph and head
    /// set: one BFS per head, exploring to `bound` hops (`u32::MAX` =
    /// whole component). Reuses every allocation; the reset costs what
    /// the previous build touched, not `heads × n`.
    pub fn rebuild<G: Adjacency>(&mut self, g: &G, heads: &[NodeId], bound: u32) {
        self.rebuild_serial(g, heads, bound, false);
    }

    /// Unbounded rebuild that stops each head's BFS as soon as every
    /// other head has been labeled — the cheapest build that still
    /// supports all head-to-head queries (NC relation, G-MST edges)
    /// and every canonical inter-head path walk.
    ///
    /// Every labeled distance is exact, and all nodes at distance
    /// *strictly below* the farthest head are guaranteed labeled (BFS
    /// completes a level before the next one starts), which is exactly
    /// what the decreasing-label path walk needs. [`Self::ball`] may
    /// however omit nodes at or beyond the farthest head's level, so
    /// callers that need full balls must use [`Self::rebuild`].
    pub fn rebuild_reaching_heads<G: Adjacency>(&mut self, g: &G, heads: &[NodeId]) {
        self.rebuild_serial(g, heads, u32::MAX, true);
    }

    fn rebuild_serial<G: Adjacency>(&mut self, g: &G, heads: &[NodeId], bound: u32, stop: bool) {
        self.prepare(g.node_count(), heads, bound, stop);
        for slot in 0..heads.len() {
            self.sweep_slot(g, slot, stop);
        }
    }

    /// [`Self::rebuild`] with an explicit worker count: the per-head
    /// sweeps fan out over `par` workers, each writing its own flat
    /// rows in place or its own tables (with its own scratch) into a
    /// per-worker fragment, and the fragments are merged in slot order
    /// — **bit-identical** to a serial rebuild for every worker count
    /// (pinned by tests). At one worker this *is* the serial rebuild.
    pub fn rebuild_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        heads: &[NodeId],
        bound: u32,
        par: Parallelism,
    ) {
        if par.workers() <= 1 || heads.len() < 2 {
            return self.rebuild(g, heads, bound);
        }
        self.prepare(g.node_count(), heads, bound, false);
        let all: Vec<usize> = (0..heads.len()).collect();
        for frag in self.sweep_fragments(g, &all, par) {
            self.live.copy_rows(&frag, 0..frag.rows());
        }
    }

    /// Shared rebuild preamble: adopts the storage the mode wants,
    /// undoes the previous build (touched-entry reset), adopts the new
    /// graph size / head set / bound, and leaves every row
    /// all-`UNREACHED` with an empty arena — ready for the sweeps.
    fn prepare(&mut self, n: usize, heads: &[NodeId], bound: u32, stop_at_heads: bool) {
        self.rebuilds += 1;
        let tables = self.mode.wants_sparse(n, heads.len());
        if tables != self.is_sparse() {
            // Row shapes differ between storages: drop every warm buffer.
            *self = LabelStore {
                rebuilds: self.rebuilds,
                ..LabelStore::for_mode(self.mode, n, heads.len())
            };
        }
        // Undo the previous build while its row stride is still valid.
        for slot in 0..self.heads.len() {
            self.clear_row(slot);
        }
        for &h in &self.heads {
            self.slot_of[h.index()] = NO_SLOT;
        }
        self.n = n;
        self.bound = bound;
        self.stopped_at_heads = stop_at_heads;
        self.heads.clear();
        self.heads.extend_from_slice(heads);
        if self.slot_of.len() < n {
            self.slot_of.resize(n, NO_SLOT);
        }
        for (slot, &h) in heads.iter().enumerate() {
            debug_assert_eq!(self.slot_of[h.index()], NO_SLOT, "duplicate head {h:?}");
            self.slot_of[h.index()] = slot as u32;
        }
        self.fit_rows();
        self.live.reset(tables);
    }

    /// Grows the row storage to the current shape: `heads × n` flat
    /// entries, or an `n`-entry scratch.
    fn fit_rows(&mut self) {
        let len = match self.rows {
            Rows::Flat(_) => self.heads.len() * self.n,
            Rows::Tables(_) => self.n,
        };
        let (Rows::Flat(dist) | Rows::Tables(dist)) = &mut self.rows;
        if dist.len() < len {
            dist.resize(len, UNREACHED);
        }
    }

    /// Resets the flat row at `slot` to all-`UNREACHED` through the
    /// live ball of `slot`. Ball tables hold nothing outside the arena,
    /// which splices rewrite.
    fn clear_row(&mut self, slot: usize) {
        if let Rows::Flat(dist) = &mut self.rows {
            let base = slot * self.n;
            for &v in self.live.ball(slot) {
                dist[base + v.index()] = UNREACHED;
            }
        }
    }

    /// Sweeps the head in `slot` as the next row of the live arena.
    fn sweep_slot<G: Adjacency>(&mut self, g: &G, slot: usize, stop_at_heads: bool) {
        let n = self.n;
        let dist = match &mut self.rows {
            Rows::Flat(dist) => &mut dist[slot * n..(slot + 1) * n],
            Rows::Tables(scratch) => &mut scratch[..n],
        };
        let stop = stop_at_heads.then(|| (&self.slot_of[..], self.heads.len() - 1));
        self.live.sweep(g, self.heads[slot], self.bound, dist, stop);
    }

    /// Sweeps the rows of `slots` (ascending) over `par` workers into
    /// per-worker fragments, returned in slot order. Flat rows are
    /// written in place (each worker owns a disjoint set of row
    /// slices); ball tables go into the fragments, each worker with
    /// its own `n`-entry scratch.
    fn sweep_fragments<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        slots: &[usize],
        par: Parallelism,
    ) -> Vec<Arena> {
        let (n, bound, tables) = (self.n, self.bound, self.is_sparse());
        let heads: Vec<NodeId> = slots.iter().map(|&s| self.heads[s]).collect();
        let mut targets: Vec<Option<&mut [u32]>> = Vec::with_capacity(slots.len());
        match &mut self.rows {
            Rows::Flat(dist) => {
                // A sequential `split_at_mut` walk — safe code only.
                let (mut rest, mut consumed): (&mut [u32], usize) = (&mut dist[..], 0);
                for &slot in slots {
                    let (_, tail) = rest.split_at_mut(slot * n - consumed);
                    let (row, tail) = tail.split_at_mut(n);
                    targets.push(Some(row));
                    rest = tail;
                    consumed = (slot + 1) * n;
                }
            }
            Rows::Tables(_) => targets.resize_with(slots.len(), || None),
        }
        par::scoped_chunks(
            par.workers(),
            slots.len(),
            targets,
            |off, _take, targets: Vec<Option<&mut [u32]>>| {
                let mut frag = Arena::default();
                frag.reset(tables);
                let mut scratch = Vec::new();
                for (i, target) in targets.into_iter().enumerate() {
                    let dist = match target {
                        Some(row) => row,
                        None => {
                            scratch.resize(n, UNREACHED);
                            &mut scratch[..]
                        }
                    };
                    frag.sweep(g, heads[off + i], bound, dist, None);
                }
                frag
            },
        )
    }

    /// Rewrites the live arena in slot order for the current head list:
    /// each slot in `fresh` (ascending) gets its row from `fresh_row`,
    /// every other slot `s` copies row `old(s)` of the pre-splice arena.
    fn splice(
        &mut self,
        fresh: &[usize],
        old: impl Fn(usize) -> usize,
        mut fresh_row: impl FnMut(&mut Self, usize),
    ) {
        std::mem::swap(&mut self.live, &mut self.prev);
        self.live.reset(self.is_sparse());
        let mut next = 0;
        for s in 0..self.heads.len() {
            if fresh.get(next) == Some(&s) {
                next += 1;
                fresh_row(self, s);
            } else {
                let o = old(s);
                self.live.copy_rows(&self.prev, o..o + 1);
            }
        }
    }

    /// The slots (ascending) whose labels a topology delta can have
    /// changed: head `h` is *dirty* iff some changed edge has an
    /// endpoint inside `h`'s current ball.
    ///
    /// Why that test is sound for a whole batch of changes: a label of
    /// `h` changes only if some node's distance to `h` crosses or moves
    /// within the bound. A distance that *decreased* did so along a new
    /// path whose first added edge `(u, v)` is reached from `h` by
    /// surviving old edges — so `u` was already in the old ball. A
    /// distance that *increased* had every old shortest path broken, and
    /// any such path lies entirely inside the old ball, so the removed
    /// edge's endpoints are labeled. Either way the dirtiness shows up
    /// against the **old** labels, which is what this reads.
    ///
    /// # Panics
    /// Panics on labels built by [`Self::rebuild_reaching_heads`]
    /// (partial balls cannot certify cleanliness) and on deltas whose
    /// endpoints exceed the labeled node count.
    pub fn dirty_slots(&self, delta: &TopologyDelta) -> Vec<usize> {
        self.assert_full_balls("delta updates");
        for v in delta.endpoints() {
            assert!(
                v.index() < self.n,
                "delta endpoint {v:?} beyond labeled nodes"
            );
        }
        (0..self.heads.len())
            .filter(|&slot| {
                let row = self.row(slot);
                delta.endpoints().any(|v| row.dist(v) != UNREACHED)
            })
            .collect()
    }

    /// Re-labels exactly the `dirty` slots (from [`Self::dirty_slots`])
    /// against the post-delta graph `g`, reusing every clean row — the
    /// labels end up identical to a full [`Self::rebuild`] on `g`
    /// (pinned by tests) at the cost of one bounded BFS per *dirty*
    /// head instead of one per head.
    ///
    /// Call sequence: `let dirty = labels.dirty_slots(&delta);` against
    /// the old graph's labels, apply the delta to the graph, then
    /// `labels.apply_delta(&g, &dirty)`.
    ///
    /// # Panics
    /// Panics if `g`'s node count differs from the labeled one (node
    /// sets never change under a delta; departures isolate), or if
    /// `dirty` is not ascending and in range.
    pub fn apply_delta<G: Adjacency>(&mut self, g: &G, dirty: &[usize]) {
        if self.begin_delta(g.node_count(), dirty) {
            self.splice(dirty, |s| s, |store, s| store.sweep_slot(g, s, false));
        }
    }

    /// [`Self::apply_delta`] with an explicit worker count: the dirty
    /// rows' re-sweeps fan out over `par` workers (as in
    /// [`Self::rebuild_with`]), then the arena is spliced in slot
    /// order — bit-identical to the serial repair for every worker
    /// count (pinned by tests).
    pub fn apply_delta_with<G: Adjacency + Sync>(
        &mut self,
        g: &G,
        dirty: &[usize],
        par: Parallelism,
    ) {
        if par.workers() <= 1 || dirty.len() < 2 {
            return self.apply_delta(g, dirty);
        }
        self.begin_delta(g.node_count(), dirty);
        let frags = self.sweep_fragments(g, dirty, par);
        let mut swept = frags
            .iter()
            .flat_map(|f| (0..f.rows()).map(move |i| (f, i)));
        self.splice(
            dirty,
            |s| s,
            |store, _| {
                let (frag, i) = swept.next().expect("one swept row per dirty slot");
                store.live.copy_rows(frag, i..i + 1);
            },
        );
    }

    /// Checks a delta repair's inputs and resets the dirty flat rows;
    /// `false` when nothing is dirty.
    fn begin_delta(&mut self, n: usize, dirty: &[usize]) -> bool {
        assert_eq!(n, self.n, "deltas keep the node set");
        debug_assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "dirty slots must be ascending and unique"
        );
        assert!(
            dirty.last().is_none_or(|&s| s < self.heads.len()),
            "dirty slot out of range"
        );
        for &slot in dirty {
            self.clear_row(slot);
        }
        !dirty.is_empty()
    }

    /// Incrementally inserts a label row for a **new** head `h`,
    /// keeping the head list ascending. Costs one bounded BFS (the new
    /// row) plus an arena splice; no existing row is re-swept, because
    /// full-ball sweeps never stop at heads — the label of every other
    /// head is independent of the head set. The result is identical to
    /// a full [`Self::rebuild`] with `h` in the head list (pinned by
    /// tests). Returns the new head's slot.
    ///
    /// # Panics
    /// Panics if `h` is already a head or beyond the labeled nodes, if
    /// the labels were built by [`Self::rebuild_reaching_heads`]
    /// (partial balls), if no build ran yet, or if `g`'s node count
    /// differs from the labeled one.
    pub fn add_head_row<G: Adjacency>(&mut self, g: &G, h: NodeId) -> usize {
        self.assert_full_balls("incremental head rows");
        assert_eq!(g.node_count(), self.n, "head-set changes keep the node set");
        assert!(h.index() < self.n, "head {h:?} beyond labeled nodes");
        assert_eq!(
            self.live.ball_off.len(),
            self.heads.len() + 1,
            "add_head_row needs built labels"
        );
        let slot = match self.heads.binary_search(&h) {
            Ok(_) => panic!("{h:?} is already a head"),
            Err(s) => s,
        };
        for &hd in &self.heads[slot..] {
            self.slot_of[hd.index()] += 1;
        }
        self.heads.insert(slot, h);
        self.slot_of[h.index()] = slot as u32;
        self.fit_rows();
        if let Rows::Flat(dist) = &mut self.rows {
            // Open an all-`UNREACHED` row at `slot`.
            let (n, rows) = (self.n, self.heads.len());
            dist.copy_within(slot * n..(rows - 1) * n, (slot + 1) * n);
            dist[slot * n..(slot + 1) * n].fill(UNREACHED);
        }
        self.splice(
            &[slot],
            |s| if s < slot { s } else { s - 1 },
            |store, s| store.sweep_slot(g, s, false),
        );
        slot
    }

    /// Incrementally removes the label row of head `h`: a
    /// touched-entry reset of the departing row plus an arena splice —
    /// no BFS at all, and no other row changes (same independence
    /// argument as [`Self::add_head_row`]). Identical to a full
    /// [`Self::rebuild`] without `h` (pinned by tests). Returns the
    /// removed head's former slot.
    ///
    /// # Panics
    /// Panics if `h` is not a head or if the labels were built by
    /// [`Self::rebuild_reaching_heads`].
    pub fn remove_head_row(&mut self, h: NodeId) -> usize {
        self.assert_full_balls("incremental head rows");
        let slot = self
            .heads
            .binary_search(&h)
            .unwrap_or_else(|_| panic!("{h:?} is not a head"));
        let rows = self.heads.len();
        self.clear_row(slot);
        if let Rows::Flat(dist) = &mut self.rows {
            dist.copy_within((slot + 1) * self.n..rows * self.n, slot * self.n);
        }
        if slot + 1 < rows {
            // The shift left a stale copy of the last row beyond the
            // logical size; its ball still resets it.
            self.clear_row(rows - 1);
        }
        self.slot_of[h.index()] = NO_SLOT;
        for &hd in &self.heads[slot + 1..] {
            self.slot_of[hd.index()] -= 1;
        }
        self.heads.remove(slot);
        self.splice(
            &[],
            |s| if s < slot { s } else { s + 1 },
            |_, _| unreachable!("a removal sweeps no row"),
        );
        slot
    }

    fn assert_full_balls(&self, what: &str) {
        assert!(
            !self.stopped_at_heads,
            "{what} need full-ball labels (use `rebuild`, not `rebuild_reaching_heads`)"
        );
    }

    /// Full rebuilds performed over this value's lifetime. Delta
    /// repairs and head-row splices never bump it — the churn engine's
    /// no-rebuild-on-head-set-change contract is pinned against this.
    #[inline]
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Bytes of heap memory the store currently holds (capacity, not
    /// logical size). Flat rows are dominated by the `heads × n × 4`-byte
    /// matrix; ball tables by the balls and tables (4 + ~16–32 bytes
    /// per ball entry at ≤ 50% load, plus their warm `prev` copies) and
    /// the `n`-entry node maps — `O(Σ ball sizes + n)`.
    pub fn memory_bytes(&self) -> usize {
        let (Rows::Flat(rows) | Rows::Tables(rows)) = &self.rows;
        (rows.capacity()
            + self.slot_of.capacity()
            + self.heads.capacity()
            + self.live.words()
            + self.prev.words())
            * std::mem::size_of::<u32>()
    }

    /// The heads the labels were built from, in slot order.
    #[inline]
    pub fn heads(&self) -> &[NodeId] {
        &self.heads
    }

    /// The hop bound of the last build (`u32::MAX` = unbounded).
    #[inline]
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Node count of the graph of the last build.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The slot of `head`, or `None` if it is not a labeled source.
    #[inline]
    pub fn slot(&self, head: NodeId) -> Option<usize> {
        match self.slot_of.get(head.index()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Hop distance from the head in `slot` to `v` (`UNREACHED` if `v`
    /// is outside the head's ball).
    #[inline]
    pub fn dist(&self, slot: usize, v: NodeId) -> u32 {
        match &self.rows {
            Rows::Flat(dist) => dist[slot * self.n + v.index()],
            Rows::Tables(_) => self.live.table(slot).dist(v),
        }
    }

    /// Hop distance between two labeled heads (`UNREACHED` if beyond
    /// the bound or disconnected).
    ///
    /// # Panics
    /// Panics if `a` is not a labeled head.
    pub fn head_dist(&self, a: NodeId, b: NodeId) -> u32 {
        let slot = self
            .slot(a)
            .unwrap_or_else(|| panic!("{a:?} is not a labeled head"));
        self.dist(slot, b)
    }

    /// The *other* labeled heads within `bound` hops of the head in
    /// `slot`, ascending (given an ascending head list, which the
    /// pipeline always supplies). This is the NC-relation row the
    /// adjacency layer reads. Scans whichever side is smaller: the head
    /// list or the head's ball (`O(ball)` — the reason the NC relation
    /// gets *cheaper* once `h ≫ ball`, the large-`N` regime).
    pub fn heads_within(&self, slot: usize, bound: u32) -> Vec<NodeId> {
        // An unreached head is within no bound, whichever side is scanned.
        let bound = bound.min(UNREACHED - 1);
        let h = self.heads[slot];
        let row = self.row(slot);
        let ball = self.ball(slot);
        if self.heads.len() <= ball.len() {
            self.heads
                .iter()
                .copied()
                .filter(|&o| o != h && row.dist(o) <= bound)
                .collect()
        } else {
            let mut near: Vec<NodeId> = ball
                .iter()
                .copied()
                .filter(|&v| v != h && self.slot_of[v.index()] != NO_SLOT && row.dist(v) <= bound)
                .collect();
            near.sort_unstable();
            near
        }
    }

    /// The ball of the head in `slot`: every node within the bound, in
    /// BFS discovery order (the head itself first).
    pub fn ball(&self, slot: usize) -> &[NodeId] {
        self.live.ball(slot)
    }

    /// The distance row of `slot` as a [`DistLabels`] view, usable with
    /// [`crate::bfs::lexico_path_from_labels`].
    #[inline]
    pub fn row(&self, slot: usize) -> LabelRow<'_> {
        match &self.rows {
            Rows::Flat(dist) => LabelRow {
                keys: None,
                dist: &dist[slot * self.n..(slot + 1) * self.n],
            },
            Rows::Tables(_) => self.live.table(slot),
        }
    }
}

/// One head's distance row from a [`LabelStore`] (a borrowed
/// [`DistLabels`] view).
#[derive(Clone, Copy, Debug)]
pub struct LabelRow<'a> {
    /// The row's table keys under ball tables; `None` for a flat row,
    /// whose `dist` is indexed by node.
    keys: Option<&'a [u32]>,
    dist: &'a [u32],
}

impl DistLabels for LabelRow<'_> {
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        let Some(keys) = self.keys else {
            return self.dist[v.index()];
        };
        let mask = keys.len() - 1;
        let mut b = bucket(v, mask);
        loop {
            match keys[b] {
                k if k == v.0 => return self.dist[b],
                EMPTY => return UNREACHED,
                _ => b = (b + 1) & mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{self, BfsScratch};
    use crate::gen;
    use crate::graph::Graph;

    /// A store in `storage` (`Dense` = flat rows, `Sparse` = ball
    /// tables) built over `heads` to `bound` hops.
    fn build(storage: LabelMode, g: &Graph, heads: &[NodeId], bound: u32) -> LabelStore {
        let mut labels = LabelStore::for_mode(storage, 0, 0);
        labels.rebuild(g, heads, bound);
        labels
    }

    /// Random flips: toggles up to five node pairs of `g`.
    fn random_flips(g: &mut Graph, rng: &mut impl rand::Rng) -> TopologyDelta {
        let n = g.len() as u32;
        let mut delta = TopologyDelta::new();
        for _ in 0..rng.gen_range(1..6) {
            let a = NodeId(rng.gen_range(0..n));
            let b = NodeId(rng.gen_range(0..n));
            if a == b {
                continue;
            }
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
                delta.push_removed(a, b);
            } else {
                g.add_edge(a, b);
                delta.push_added(a, b);
            }
        }
        delta.normalize();
        delta
    }

    /// Brute-force oracle: every row equals a fresh per-head BFS (balls
    /// in discovery order, every distance, `heads_within` at several
    /// bounds).
    fn assert_matches_scratch(g: &Graph, heads: &[NodeId], bound: u32, labels: &LabelStore) {
        assert_eq!(labels.heads(), heads);
        assert_eq!(labels.bound(), bound);
        assert_eq!(labels.node_count(), g.len());
        let mut scratch = BfsScratch::new(g.len());
        for (slot, &h) in heads.iter().enumerate() {
            scratch.run(g, h, bound);
            assert_eq!(labels.slot(h), Some(slot));
            for v in g.nodes() {
                assert_eq!(
                    labels.dist(slot, v),
                    scratch.dist(v),
                    "head {h:?} node {v:?}"
                );
                assert_eq!(labels.row(slot).dist(v), scratch.dist(v));
            }
            assert_eq!(labels.ball(slot), scratch.visited(), "ball of {h:?}");
            for b in [1, bound.min(7), bound] {
                let want: Vec<NodeId> = heads
                    .iter()
                    .copied()
                    .filter(|&o| o != h && scratch.dist(o) != UNREACHED && scratch.dist(o) <= b)
                    .collect();
                assert_eq!(
                    labels.heads_within(slot, b),
                    want,
                    "heads_within({h:?}, {b})"
                );
            }
        }
    }

    /// Every queryable surface of the two storages agrees with the
    /// oracle, and so with each other, on the same build.
    fn assert_layouts_agree(g: &Graph, heads: &[NodeId], bound: u32) {
        for storage in [LabelMode::Dense, LabelMode::Sparse] {
            assert_matches_scratch(g, heads, bound, &build(storage, g, heads, bound));
        }
    }

    #[test]
    fn labels_match_per_head_bfs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 6.0), &mut rng);
        let heads = vec![NodeId(0), NodeId(7), NodeId(33)];
        for bound in [1, 3, u32::MAX] {
            let labels = build(LabelMode::Dense, &net.graph, &heads, bound);
            assert_matches_scratch(&net.graph, &heads, bound, &labels);
        }
    }

    #[test]
    fn slots_and_head_dist() {
        let g = gen::path(6);
        let heads = vec![NodeId(0), NodeId(4)];
        for storage in [LabelMode::Dense, LabelMode::Sparse] {
            let labels = build(storage, &g, &heads, u32::MAX);
            assert_eq!(labels.slot(NodeId(0)), Some(0));
            assert_eq!(labels.slot(NodeId(4)), Some(1));
            assert_eq!(labels.slot(NodeId(2)), None);
            assert_eq!(labels.slot(NodeId(60)), None, "beyond the node set");
            assert_eq!(labels.head_dist(NodeId(0), NodeId(4)), 4);
            assert_eq!(labels.head_dist(NodeId(4), NodeId(0)), 4);
            assert_eq!(labels.heads(), &heads[..]);
            assert_eq!(labels.bound(), u32::MAX);
            assert_eq!(labels.node_count(), 6);
        }
    }

    #[test]
    fn bounded_ball_excludes_far_nodes() {
        let g = gen::path(8);
        for storage in [LabelMode::Dense, LabelMode::Sparse] {
            let labels = build(storage, &g, &[NodeId(0)], 2);
            assert_eq!(labels.dist(0, NodeId(2)), 2);
            assert_eq!(labels.dist(0, NodeId(3)), UNREACHED);
            assert_eq!(labels.ball(0), &[NodeId(0), NodeId(1), NodeId(2)]);
        }
    }

    #[test]
    fn rebuild_resets_across_graphs_of_different_size() {
        let big = gen::path(12);
        let small = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut labels = build(
            LabelMode::Dense,
            &big,
            &[NodeId(0), NodeId(6), NodeId(11)],
            u32::MAX,
        );
        labels.rebuild(&small, &[NodeId(2)], 1);
        assert_eq!(labels.slot(NodeId(0)), None, "old head slots reset");
        assert_eq!(labels.dist(0, NodeId(0)), UNREACHED);
        assert_matches_scratch(&small, &[NodeId(2)], 1, &labels);
        // And back up to the larger graph again.
        labels.rebuild(&big, &[NodeId(3), NodeId(9)], 3);
        assert_matches_scratch(&big, &[NodeId(3), NodeId(9)], 3, &labels);
        assert_eq!(labels.rebuild_count(), 3);
    }

    #[test]
    fn row_drives_lexico_paths() {
        // Two shortest 0->3 paths; the label walk must pick the one
        // through 1, identical to the scratch-based construction.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let labels = build(LabelMode::Dense, &g, &[NodeId(3)], u32::MAX);
        let p = bfs::lexico_path_from_labels(&g, NodeId(0), NodeId(3), &labels.row(0)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn reaching_heads_labels_support_head_queries_and_walks() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
        let heads = vec![NodeId(0), NodeId(5), NodeId(41), NodeId(77)];
        let full = build(LabelMode::Dense, &net.graph, &heads, u32::MAX);
        for storage in [LabelMode::Dense, LabelMode::Sparse] {
            let mut lazy = LabelStore::for_mode(storage, 0, 0);
            lazy.rebuild_reaching_heads(&net.graph, &heads);
            for (slot, &h) in heads.iter().enumerate() {
                // Head-to-head distances agree with the full build.
                for &o in &heads {
                    assert_eq!(lazy.dist(slot, o), full.dist(slot, o), "{h:?} -> {o:?}");
                }
                // Every labeled node is labeled with its exact distance.
                for &v in lazy.ball(slot) {
                    assert_eq!(lazy.dist(slot, v), full.dist(slot, v));
                }
                // Canonical inter-head walks agree with the full build.
                for &a in heads.iter().filter(|&&a| a != h) {
                    let p1 =
                        bfs::lexico_path_from_labels(&net.graph, a, h, &lazy.row(slot)).unwrap();
                    let p2 =
                        bfs::lexico_path_from_labels(&net.graph, a, h, &full.row(slot)).unwrap();
                    assert_eq!(p1, p2, "walk {a:?} -> {h:?}");
                }
            }
        }
    }

    #[test]
    fn reaching_heads_single_head_skips_exploration() {
        let g = gen::path(9);
        let mut labels = LabelStore::default();
        labels.rebuild_reaching_heads(&g, &[NodeId(4)]);
        assert_eq!(labels.ball(0), &[NodeId(4)]);
        assert_eq!(labels.dist(0, NodeId(4)), 0);
        assert_eq!(labels.dist(0, NodeId(3)), UNREACHED);
    }

    /// Drives a random delta sequence and checks after every step that
    /// dirty-slot detection plus per-row repair reproduces a full
    /// rebuild bit-for-bit (distances *and* ball lists).
    fn assert_delta_chain_matches_rebuild(storage: LabelMode) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for bound in [2u32, 5, u32::MAX] {
            let net = gen::geometric(&gen::GeometricConfig::new(70, 100.0, 6.0), &mut rng);
            let mut g = net.graph.clone();
            let heads = vec![NodeId(0), NodeId(9), NodeId(25), NodeId(48), NodeId(69)];
            let mut labels = build(storage, &g, &heads, bound);
            for _ in 0..15 {
                let delta = random_flips(&mut g, &mut rng);
                let dirty = labels.dirty_slots(&delta);
                labels.apply_delta(&g, &dirty);
                assert_matches_scratch(&g, &heads, bound, &labels);
            }
            assert_eq!(labels.rebuild_count(), 1, "repairs are not rebuilds");
        }
    }

    #[test]
    fn apply_delta_matches_full_rebuild() {
        assert_delta_chain_matches_rebuild(LabelMode::Dense);
    }

    #[test]
    fn empty_delta_dirties_nothing() {
        let g = gen::path(9);
        for storage in [LabelMode::Dense, LabelMode::Sparse] {
            let mut labels = build(storage, &g, &[NodeId(0), NodeId(4), NodeId(8)], 3);
            let dirty = labels.dirty_slots(&TopologyDelta::new());
            assert!(dirty.is_empty());
            let before = labels.clone();
            labels.apply_delta(&g, &dirty);
            assert_eq!(labels.ball(1), before.ball(1));
        }
    }

    #[test]
    fn faraway_change_leaves_bounded_ball_clean() {
        // Heads 0 and 11 with bound 2 on a path: a flip at the far end
        // must dirty only the nearby head.
        for storage in [LabelMode::Dense, LabelMode::Sparse] {
            let mut g = gen::path(12);
            let labels = build(storage, &g, &[NodeId(0), NodeId(11)], 2);
            let mut delta = TopologyDelta::new();
            g.remove_edge(NodeId(10), NodeId(11));
            delta.push_removed(NodeId(10), NodeId(11));
            assert_eq!(labels.dirty_slots(&delta), vec![1]);
            let mut inc = labels.clone();
            inc.apply_delta(&g, &[1]);
            assert_eq!(inc.dist(1, NodeId(10)), UNREACHED);
            assert_eq!(inc.ball(1), &[NodeId(11)]);
            assert_eq!(inc.ball(0), labels.ball(0), "clean row untouched");
        }
    }

    #[test]
    #[should_panic(expected = "full-ball labels")]
    fn reaching_heads_labels_reject_deltas() {
        let g = gen::path(9);
        let mut labels = LabelStore::default();
        labels.rebuild_reaching_heads(&g, &[NodeId(0), NodeId(8)]);
        let mut d = TopologyDelta::new();
        d.push_added(NodeId(0), NodeId(5));
        labels.dirty_slots(&d);
    }

    /// Labels rebuilt on a smaller graph, then a delta naming nodes of
    /// the larger one: flat rows would read a neighbouring row's
    /// entries, so the range check must fire before any lookup.
    fn dirty_slots_beyond_labeled_nodes(storage: LabelMode) {
        let mut labels = build(
            storage,
            &gen::path(30),
            &[NodeId(0), NodeId(14), NodeId(29)],
            2,
        );
        labels.rebuild(&gen::path(10), &[NodeId(0), NodeId(9)], 2);
        let mut d = TopologyDelta::new();
        d.push_added(NodeId(18), NodeId(19));
        labels.dirty_slots(&d);
    }

    #[test]
    #[should_panic(expected = "beyond labeled nodes")]
    fn flat_rows_reject_out_of_range_delta_endpoints() {
        dirty_slots_beyond_labeled_nodes(LabelMode::Dense);
    }

    #[test]
    #[should_panic(expected = "beyond labeled nodes")]
    fn ball_tables_reject_out_of_range_delta_endpoints() {
        dirty_slots_beyond_labeled_nodes(LabelMode::Sparse);
    }

    #[test]
    fn memory_bytes_tracks_arena_growth() {
        let small = build(LabelMode::Dense, &gen::path(4), &[NodeId(0)], 1);
        let big = build(
            LabelMode::Dense,
            &gen::grid(10, 10),
            &[NodeId(0), NodeId(34), NodeId(67), NodeId(99)],
            u32::MAX,
        );
        assert!(small.memory_bytes() > 0);
        assert!(
            big.memory_bytes() >= 4 * 100 * 4,
            "flat rows dominate: {} bytes",
            big.memory_bytes()
        );
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn disconnected_pairs_are_unreached() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        for storage in [LabelMode::Dense, LabelMode::Sparse] {
            let labels = build(storage, &g, &[NodeId(0), NodeId(2)], u32::MAX);
            assert_eq!(labels.head_dist(NodeId(0), NodeId(2)), UNREACHED);
            assert_eq!(labels.dist(0, NodeId(1)), 1);
        }
    }

    #[test]
    fn sparse_matches_dense_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 6.0), &mut rng);
        let heads = vec![NodeId(0), NodeId(7), NodeId(33)];
        for bound in [1, 3, u32::MAX] {
            assert_layouts_agree(&net.graph, &heads, bound);
        }
        // Many heads with small balls: `heads_within` scans the ball.
        let many: Vec<NodeId> = (0..60).step_by(2).map(NodeId).collect();
        assert_layouts_agree(&net.graph, &many, 1);
    }

    #[test]
    fn sparse_rebuild_resets_across_graphs_of_different_size() {
        let big = gen::path(12);
        let small = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut labels = build(
            LabelMode::Sparse,
            &big,
            &[NodeId(0), NodeId(6), NodeId(11)],
            u32::MAX,
        );
        labels.rebuild(&small, &[NodeId(2)], 1);
        assert_eq!(labels.slot(NodeId(0)), None, "old head slots reset");
        assert_eq!(labels.dist(0, NodeId(0)), UNREACHED);
        assert_matches_scratch(&small, &[NodeId(2)], 1, &labels);
        labels.rebuild(&big, &[NodeId(3), NodeId(9)], 3);
        assert_matches_scratch(&big, &[NodeId(3), NodeId(9)], 3, &labels);
    }

    #[test]
    fn sparse_row_drives_lexico_paths() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let labels = build(LabelMode::Sparse, &g, &[NodeId(3)], u32::MAX);
        let p = bfs::lexico_path_from_labels(&g, NodeId(0), NodeId(3), &labels.row(0)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn sparse_apply_delta_matches_full_rebuild() {
        assert_delta_chain_matches_rebuild(LabelMode::Sparse);
    }

    #[test]
    fn sparse_memory_is_below_dense_at_scale() {
        // A long path with many heads: flat rows take h·n·4 bytes, ball
        // tables O(Σ balls) — at n = 4000 with 1000 heads of bound 3
        // the gap is enormous.
        let g = gen::path(4000);
        let heads: Vec<NodeId> = (0..1000).map(|i| NodeId(i * 4)).collect();
        let dense = build(LabelMode::Dense, &g, &heads, 3);
        let sparse = build(LabelMode::Sparse, &g, &heads, 3);
        assert!(
            sparse.memory_bytes() * 4 < dense.memory_bytes(),
            "sparse {} vs dense {}",
            sparse.memory_bytes(),
            dense.memory_bytes()
        );
    }

    #[test]
    fn label_store_dispatches_both_layouts() {
        let g = gen::path(9);
        let heads = vec![NodeId(0), NodeId(4), NodeId(8)];
        for mut store in [LabelStore::dense(), LabelStore::sparse()] {
            store.rebuild(&g, &heads, 3);
            assert_eq!(store.heads(), &heads[..]);
            assert_eq!(store.bound(), 3);
            assert_eq!(store.node_count(), 9);
            assert_eq!(store.slot(NodeId(4)), Some(1));
            assert_eq!(store.dist(0, NodeId(3)), 3);
            assert_eq!(store.dist(0, NodeId(4)), UNREACHED);
            assert_eq!(store.head_dist(NodeId(4), NodeId(8)), UNREACHED);
            assert_eq!(store.heads_within(1, 3), Vec::<NodeId>::new());
            assert_eq!(store.ball(1).first(), Some(&NodeId(4)));
            let p = bfs::lexico_path_from_labels(&g, NodeId(2), NodeId(0), &store.row(0)).unwrap();
            assert_eq!(p.len(), 3);
        }
        assert!(!LabelStore::dense().is_sparse());
        assert!(LabelStore::sparse().is_sparse());
        assert_eq!(LabelStore::dense().layout_name(), "dense");
        assert_eq!(LabelStore::sparse().layout_name(), "sparse");
        assert_eq!(LabelStore::default().layout_name(), "dense");
        assert_eq!(LabelStore::default().mode(), LabelMode::Auto);
    }

    /// Random head gain/loss chains: incremental row add/remove must
    /// reproduce a full rebuild bit-for-bit in both storages — and must
    /// never touch the rebuild counter (the churn engine's
    /// no-rebuild-on-head-set-change contract).
    #[test]
    fn head_row_splice_matches_full_rebuild() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(97);
        for bound in [2u32, 5, u32::MAX] {
            let net = gen::geometric(&gen::GeometricConfig::new(60, 100.0, 6.0), &mut rng);
            let g = &net.graph;
            let mut heads = vec![NodeId(0), NodeId(9), NodeId(25), NodeId(48)];
            let mut stores = [
                build(LabelMode::Dense, g, &heads, bound),
                build(LabelMode::Sparse, g, &heads, bound),
            ];
            for _ in 0..25 {
                if heads.len() > 1 && rng.gen_bool(0.5) {
                    let h = heads[rng.gen_range(0..heads.len())];
                    let pos = heads.binary_search(&h).unwrap();
                    for store in &mut stores {
                        assert_eq!(store.remove_head_row(h), pos);
                    }
                    heads.remove(pos);
                } else {
                    let h = loop {
                        let c = NodeId(rng.gen_range(0..60u32));
                        if heads.binary_search(&c).is_err() {
                            break c;
                        }
                    };
                    let pos = heads.binary_search(&h).unwrap_err();
                    for store in &mut stores {
                        assert_eq!(store.add_head_row(g, h), pos);
                    }
                    heads.insert(pos, h);
                }
                for store in &stores {
                    assert_matches_scratch(g, &heads, bound, store);
                }
            }
            for store in &stores {
                assert_eq!(store.rebuild_count(), 1, "splices must not rebuild");
            }
        }
    }

    /// Row splices compose with edge-delta repair and survive an empty
    /// head set in between.
    #[test]
    fn head_row_splice_handles_empty_and_interleaves_with_deltas() {
        for storage in [LabelMode::Dense, LabelMode::Sparse] {
            let mut g = gen::path(8);
            let mut labels = build(storage, &g, &[NodeId(3)], 2);
            assert_eq!(labels.remove_head_row(NodeId(3)), 0);
            assert!(labels.heads().is_empty());
            assert_eq!(labels.add_head_row(&g, NodeId(5)), 0);
            assert_eq!(labels.add_head_row(&g, NodeId(1)), 0);
            let mut delta = TopologyDelta::new();
            g.remove_edge(NodeId(4), NodeId(5));
            delta.push_removed(NodeId(4), NodeId(5));
            let dirty = labels.dirty_slots(&delta);
            assert_eq!(dirty, vec![1], "only the nearby head is dirty");
            labels.apply_delta(&g, &dirty);
            assert_matches_scratch(&g, &[NodeId(1), NodeId(5)], 2, &labels);
            assert_eq!(labels.rebuild_count(), 1, "only the initial build");
        }
    }

    #[test]
    fn label_store_dispatches_head_row_splices() {
        let g = gen::path(9);
        for mut store in [LabelStore::dense(), LabelStore::sparse()] {
            store.rebuild(&g, &[NodeId(0), NodeId(4), NodeId(8)], 3);
            assert_eq!(store.rebuild_count(), 1);
            assert_eq!(store.remove_head_row(NodeId(4)), 1);
            assert_eq!(store.heads(), &[NodeId(0), NodeId(8)]);
            assert_eq!(store.add_head_row(&g, NodeId(2)), 1);
            assert_eq!(store.heads(), &[NodeId(0), NodeId(2), NodeId(8)]);
            assert_eq!(store.slot(NodeId(2)), Some(1));
            assert_eq!(store.slot(NodeId(8)), Some(2));
            assert_eq!(store.dist(1, NodeId(5)), 3);
            assert_eq!(store.rebuild_count(), 1, "splices are not rebuilds");
        }
    }

    #[test]
    fn label_mode_picks_storage_per_build() {
        // 16 MiB threshold: h·n·4 strictly above it wants ball tables.
        let just_above = (AUTO_SPARSE_THRESHOLD_BYTES / 4) + 1;
        assert!(LabelMode::Auto.wants_sparse(just_above, 1));
        assert!(!LabelMode::Auto.wants_sparse(AUTO_SPARSE_THRESHOLD_BYTES / 4, 1));
        assert!(
            !LabelMode::Auto.wants_sparse(2000, 500),
            "paper scale stays flat"
        );
        assert!(
            LabelMode::Auto.wants_sparse(10_000, 2000),
            "N=1e4 goes to tables"
        );
        assert!(LabelMode::Sparse.wants_sparse(4, 1));
        assert!(!LabelMode::Dense.wants_sparse(usize::MAX / 8, 2));
        let big = LabelStore::for_mode(LabelMode::Auto, 10_000, 2000);
        assert!(big.is_sparse());
        assert_eq!(big.mode(), LabelMode::Auto);
        assert_eq!(
            LabelStore::for_mode(LabelMode::Auto, 200, 50).layout_name(),
            "dense"
        );
        // An Auto store re-picks at every full build: from tables back
        // to flat rows on a small graph, keeping its rebuild count.
        let mut auto = big;
        auto.rebuild(&gen::path(9), &[NodeId(0), NodeId(8)], 3);
        assert!(!auto.is_sparse());
        assert_matches_scratch(&gen::path(9), &[NodeId(0), NodeId(8)], 3, &auto);
        assert_eq!(auto.rebuild_count(), 1);
    }

    /// Parallel rebuild and delta repair must be bit-identical to the
    /// serial paths for every worker count, in both storages (balls,
    /// distances, and — transitively — offsets).
    #[test]
    fn parallel_rebuild_and_repair_match_serial() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(131);
        let net = gen::geometric(&gen::GeometricConfig::new(80, 100.0, 6.0), &mut rng);
        let mut g = net.graph.clone();
        let heads: Vec<NodeId> = (0..16).map(|i| NodeId(i * 5)).collect();
        let bound = 4u32;
        let serial = [LabelMode::Dense, LabelMode::Sparse].map(|s| build(s, &g, &heads, bound));
        for workers in [2usize, 3, 8] {
            for expect in &serial {
                let mut got = LabelStore::for_mode(expect.mode(), 0, 0);
                got.rebuild_with(&g, &heads, bound, Parallelism::new(workers));
                assert_matches_scratch(&g, &heads, bound, &got);
            }
        }
        // One multi-edge delta, repaired at several worker counts.
        let mut delta = TopologyDelta::new();
        for _ in 0..8 {
            let a = NodeId(rng.gen_range(0..80u32));
            let b = NodeId(rng.gen_range(0..80u32));
            if a == b {
                continue;
            }
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
                delta.push_removed(a, b);
            } else {
                g.add_edge(a, b);
                delta.push_added(a, b);
            }
        }
        delta.normalize();
        let dirty = serial[0].dirty_slots(&delta);
        assert_eq!(dirty, serial[1].dirty_slots(&delta), "dirty sets differ");
        assert!(dirty.len() >= 2, "need ≥ 2 dirty rows to exercise chunking");
        for workers in [2usize, 3, 8] {
            for base in &serial {
                let mut got = base.clone();
                got.apply_delta_with(&g, &dirty, Parallelism::new(workers));
                assert_matches_scratch(&g, &heads, bound, &got);
            }
        }
    }
}

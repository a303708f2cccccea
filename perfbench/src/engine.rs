//! What the engine-served workloads (`mule-churn`, `hub-serve`,
//! `flux-mixed`) share: input generation, cold builds, beacons, guards
//! and the traced run's bookkeeping.

use crate::chain::{self, ChainScratch};
use crate::cpu::CpuTime;
use crate::oracle::SERVED;
use crate::report::Outcome;
use crate::stats::{self, median, sorted};
use crate::trace::{self, Tracer};
use crate::{Opts, Values};
use adhoc_cluster::routing::{InterMode, RoutePlan};
use adhoc_graph::gen::{self, GeometricConfig, GeometricNetwork, SpatialGrid};
use adhoc_graph::geom::Point;
use adhoc_graph::graph::{Graph, NodeId};
use adhoc_graph::obs::Metrics;
use adhoc_graph::par::Parallelism;
use adhoc_sim::churn::{ChurnEngine, ReconcileState};
use adhoc_sim::mobility::WaypointConfig;
use adhoc_sim::movement::{MovementConfig, RepairLevel, StepReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Clustering radius of every engine workload.
const K: u32 = 2;
/// Mean node degree of every engine workload.
const DEGREE: f64 = 6.0;
/// Simulated time one beacon advances the movers by.
pub const BEACON_DT: f64 = 0.25;
/// Distinct seed streams derived from the run's seed.
const NET_STREAM: u64 = 0x6e65_7477_6f72_6b00;
pub const MOVE_STREAM: u64 = 0x6d6f_7665_7273_0000;
pub const PAIR_STREAM: u64 = 0x7061_6972_7300_0000;

/// Side of the square area for `n` nodes: 100 × 100 at N = 200, scaled
/// with √N so that density stays fixed.
fn side_for(n: usize) -> f64 {
    100.0 * (n as f64 / 200.0).sqrt()
}

/// Random-waypoint movement: speed 1–3, pause 2.
pub fn waypoints(n: usize) -> WaypointConfig {
    WaypointConfig {
        side: side_for(n),
        min_speed: 1.0,
        max_speed: 3.0,
        pause: 2.0,
    }
}

/// The seed's network of `n` nodes with mean degree 6.
pub fn network(n: usize, seed: u64) -> GeometricNetwork {
    let mut rng = StdRng::seed_from_u64(seed ^ NET_STREAM);
    gen::geometric(&GeometricConfig::at_scale(n, side_for(n), DEGREE), &mut rng)
}

/// `count` uniform pairs of distinct nodes.
pub fn uniform_pairs(n: usize, count: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| loop {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                break (NodeId(u), NodeId(v));
            }
        })
        .collect()
}

/// A metrics handle that records only in the traced run.
pub fn metrics_for(tr: &Tracer) -> Metrics {
    if tr.is_on() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    }
}

// ---------------------------------------------------------------------
// Cold builds: from a generated topology to a served plan.
// ---------------------------------------------------------------------

/// One cold build on `g` — `ChurnEngine::build` (the maintenance policy
/// every workload runs: `tolerant(2, AcLmst, 1)`) plus `set_workers`
/// and `enable_routing` — whose CPU time in seconds is pushed onto
/// `setup`. Traced, the build is a `setup` span with `setup.build` and
/// `setup.plan` children, followed by one stage-by-stage cold chain
/// checked against the engine's evaluation and plan.
///
/// Workloads build several engines in one run and report the median as
/// set-up time (see [`sample_setup`]).
pub fn cold_build(
    g: &Graph,
    par: Parallelism,
    tr: &mut Tracer,
    out: &mut Outcome,
    cause: u64,
    setup: &mut Vec<f64>,
) -> ChurnEngine {
    let (t0, cpu0) = (Instant::now(), CpuTime::now());
    let mut engine = ChurnEngine::build(g, MovementConfig::tolerant(K, SERVED, 1));
    let t1 = tr.mark();
    engine.set_workers(par);
    engine.enable_routing();
    let (t2, cpu) = (Instant::now(), cpu0.elapsed());
    setup.push(cpu.as_secs_f64());
    let root = tr.root("setup", cause, Some(t0), Some(t2));
    tr.span("setup.build", root, cause, Some(t0), t1);
    tr.span("setup.plan", root, cause, t1, Some(t2));
    out.ops(1);
    if tr.is_on() {
        traced_chain(g, &engine, par, tr, out, cause);
    }
    engine
}

/// `count` cold builds on `g`, each timed into `setup` and dropped
/// before the next: set-up samples taken at a checkpoint of a measured
/// loop, apart from the engine that serves the loop. Spread over the
/// run, they see the host at the same moments as the loop does, not
/// only in its first second.
pub fn sample_setup(
    g: &Graph,
    par: Parallelism,
    tr: &mut Tracer,
    out: &mut Outcome,
    cause: u64,
    count: usize,
    setup: &mut Vec<f64>,
) {
    for _ in 0..count {
        drop(cold_build(g, par, tr, out, cause, setup));
    }
}

/// One traced cold chain (every `run_all_with` stage, then
/// `RoutePlan::compile_tuned`), checked against `engine`.
fn traced_chain(
    g: &Graph,
    engine: &ChurnEngine,
    par: Parallelism,
    tr: &mut Tracer,
    out: &mut Outcome,
    cause: u64,
) {
    let mut cs = ChainScratch::default();
    let start = tr.mark();
    let root = tr.root("chain", cause, start, start);
    let eval = chain::run_stages(g, K, &mut cs, par, tr, root, cause, start);
    let c0 = tr.mark();
    let plan = RoutePlan::compile_tuned(
        g,
        &eval.clustering,
        &cs.labels,
        eval.selected_links(SERVED),
        InterMode::Auto,
        par,
    );
    let end = tr.mark();
    tr.span("chain.compile", root, cause, c0, end);
    tr.close(root, end);
    let why = chain::eval_mismatch(&eval, engine.evaluation());
    out.check(why.is_none(), || {
        format!(
            "stage chain != engine evaluation: {}",
            why.unwrap_or_default()
        )
    });
    out.check(engine.route_plan() == Some(&plan), || {
        "stage chain plan != engine plan".into()
    });
}

/// Records the state-size metrics and layout notes of a built engine.
pub fn record_state(engine: &ChurnEngine, out: &mut Outcome, layers: &mut Values) {
    let plan = engine.route_plan().expect("routing enabled by set-up");
    layers.insert("labels.bytes", engine.labels().memory_bytes() as f64);
    layers.insert("plan.bytes", plan.memory_bytes() as f64);
    layers.insert("plan.inter_bytes", plan.inter_memory_bytes() as f64);
    layers.insert(
        "labels.sparse",
        f64::from(u8::from(engine.labels().is_sparse())),
    );
    layers.insert(
        "plan.inter_hub",
        f64::from(u8::from(plan.inter_layout() == "hub")),
    );
    out.note(format!(
        "layouts: labels={} inter={} heads={} nodes={}",
        engine.labels().layout_name(),
        plan.inter_layout(),
        engine.clustering.heads.len(),
        engine.graph().len()
    ));
}

/// Per-layer set-up and chain metrics from the traced spans.
pub fn record_setup_layers(tr: &Tracer, layers: &mut Values) {
    for (span, metric) in [
        ("setup.build", "setup.build_ms"),
        ("setup.plan", "setup.plan_ms"),
        ("chain.csr", "chain.csr_ms"),
        ("chain.cluster", "chain.cluster_ms"),
        ("chain.labels", "chain.labels_ms"),
        ("chain.nc", "chain.nc_ms"),
        ("chain.vg", "chain.vg_ms"),
        ("chain.ac", "chain.ac_ms"),
        ("chain.mesh", "chain.mesh_ms"),
        ("chain.lmstga", "chain.lmstga_ms"),
        ("chain.gmst", "chain.gmst_ms"),
        ("chain.cds", "chain.cds_ms"),
        ("chain.compile", "chain.compile_ms"),
    ] {
        let d = trace::durations_ms(tr.spans(), span);
        if !d.is_empty() {
            layers.insert(metric, median(&d));
        }
    }
}

/// Trace bookkeeping shared by every workload: coverage of each root
/// kind (each must reach 95%), the self-time table, the
/// overhead against the untraced loop, and the span file.
pub fn finish_trace(
    tr: &Tracer,
    opts: &Opts,
    untraced_op_s: f64,
    traced_op_s: f64,
    out: &mut Outcome,
    layers: &mut Values,
) {
    let spans = tr.spans();
    let cov = trace::coverage(spans);
    let worst = cov.values().copied().fold(1.0, f64::min);
    for (root, share) in &cov {
        out.note(format!("trace coverage {root}: {:.4}", share));
        out.note(stats::describe(
            root,
            &sorted(trace::durations_ms(spans, root)),
        ));
        out.check(*share >= 0.95, || {
            format!("layer spans cover {share:.3} of {root} time")
        });
    }
    layers.insert("trace.coverage", worst);
    let overhead = traced_op_s / untraced_op_s - 1.0;
    layers.insert("trace.overhead", overhead);
    out.note(format!(
        "trace overhead: {:+.2}% (mean op {:.6} ms traced vs {:.6} ms untraced)",
        overhead * 100.0,
        traced_op_s * 1e3,
        untraced_op_s * 1e3
    ));
    for (name, (count, self_ns)) in trace::self_time_by_name(spans) {
        out.note(format!(
            "self time {name}: {count} spans, {:.3} ms total, {:.6} ms mean",
            self_ns as f64 / 1e6,
            self_ns as f64 / 1e6 / count.max(1) as f64
        ));
    }
    let path = opts.out_dir.join(format!(
        "{}-seed{}.spans.tsv",
        opts.workload.name(),
        opts.seed
    ));
    match tr.write_tsv(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Checks a workload guard: an input property that keeps the workload
/// exercising the layer it was chosen for.
pub fn guard(out: &mut Outcome, what: &str, ok: bool, value: f64) {
    out.note(format!(
        "guard {what}: {value:.4} {}",
        if ok { "ok" } else { "VIOLATED" }
    ));
    out.check(ok, || {
        format!("workload guard violated: {what} (measured {value:.4})")
    });
}

// ---------------------------------------------------------------------
// Beacons: SpatialGrid::update, then one reconcile through the phase API.
// ---------------------------------------------------------------------

/// What one beacon did.
pub struct Beacon {
    /// When the grid update started.
    pub start: Instant,
    /// When the reconcile published.
    pub end: Instant,
    /// Process CPU time the beacon used.
    pub cpu: Duration,
    churn: usize,
    heads: usize,
    report: StepReport,
}

/// Runs one beacon on `pos`: the grid update and the reconcile
/// (`begin_delta` → `resume` → `resume`), each phase a traced span.
pub fn beacon(
    engine: &mut ChurnEngine,
    grid: &mut SpatialGrid,
    pos: &[Point],
    tr: &mut Tracer,
    id: u64,
) -> Result<Beacon, String> {
    let (start, cpu0) = (Instant::now(), CpuTime::now());
    let delta = grid.update(pos);
    let t_grid = tr.mark();
    let state = engine.begin_delta(&delta);
    let t_obs = tr.mark();
    let (t_rep, t_pub, state) = match state {
        ReconcileState::Done(_) => (None, None, state),
        observed => {
            let repaired = engine.resume(observed);
            let t_rep = tr.mark();
            let done = engine.resume(repaired);
            (t_rep, tr.mark(), done)
        }
    };
    let (end, cpu) = (Instant::now(), cpu0.elapsed());
    let ReconcileState::Done(report) = state else {
        return Err(format!(
            "beacon {id}: reconcile did not finish in three phases"
        ));
    };
    let root = tr.root("beacon", id, Some(start), Some(end));
    tr.span("gen.grid_update", root, id, Some(start), t_grid);
    tr.span("churn.observe", root, id, t_grid, t_obs);
    tr.span("churn.repair", root, id, t_obs, t_rep);
    tr.span("churn.publish", root, id, t_rep, t_pub);
    Ok(Beacon {
        start,
        end,
        cpu,
        churn: delta.churn(),
        heads: engine.clustering.heads.len(),
        report,
    })
}

/// Beacon statistics the guards and per-layer metrics read.
#[derive(Default)]
pub struct BeaconLog {
    /// Wall time of every beacon, ms.
    pub wall_ms: Vec<f64>,
    /// Process CPU time of every beacon, ms.
    pub cpu_ms: Vec<f64>,
    churn: usize,
    dirty: usize,
    /// Dirty heads over heads, per beacon that changed an edge.
    dirty_fracs: Vec<f64>,
    orphans: usize,
    merged: usize,
    cost: usize,
    full: usize,
}

impl BeaconLog {
    /// Adds one beacon.
    pub fn absorb(&mut self, b: &Beacon) {
        self.wall_ms.push((b.end - b.start).as_secs_f64() * 1e3);
        self.cpu_ms.push(b.cpu.as_secs_f64() * 1e3);
        self.churn += b.churn;
        self.dirty += b.report.dirty_heads;
        if b.churn > 0 {
            self.dirty_fracs
                .push(b.report.dirty_heads as f64 / b.heads.max(1) as f64);
        }
        self.orphans += b.report.orphans;
        self.merged += b.report.merged_head_pairs;
        self.cost += b.report.cost;
        self.full += usize::from(b.report.level == RepairLevel::Full);
    }

    /// Beacons run.
    pub fn beacons(&self) -> usize {
        self.wall_ms.len()
    }

    /// Process CPU time of all beacons, seconds.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ms.iter().sum::<f64>() / 1e3
    }

    /// Median share of heads a beacon that changed an edge dirtied (a
    /// full re-election dirties every head; the median keeps those
    /// occasional beacons from masking what a typical one does).
    pub fn dirty_frac(&self) -> f64 {
        if self.dirty_fracs.is_empty() {
            0.0
        } else {
            median(&self.dirty_fracs)
        }
    }

    /// Mean edges churned per beacon.
    pub fn churn_per_beacon(&self) -> f64 {
        self.per_beacon(self.churn)
    }

    fn per_beacon(&self, x: usize) -> f64 {
        x as f64 / self.beacons().max(1) as f64
    }

    /// Per-layer metrics of the traced loop: beacon counts plus span
    /// durations and the engine's own counters and span sums.
    pub fn record_layers(&self, tr: &Tracer, metrics: &Metrics, layers: &mut Values) {
        let p50 = |name: &str| {
            let d = trace::durations_ms(tr.spans(), name);
            if d.is_empty() {
                0.0
            } else {
                median(&d)
            }
        };
        layers.insert("gen.grid_update_ms", p50("gen.grid_update"));
        layers.insert("churn.observe_ms", p50("churn.observe"));
        layers.insert("churn.repair_ms", p50("churn.repair"));
        layers.insert("churn.publish_ms", p50("churn.publish"));
        layers.insert("beacon.wall_ms", p50("beacon"));
        layers.insert("gen.edges_churned", self.churn_per_beacon());
        layers.insert("labels.dirty_heads", self.per_beacon(self.dirty));
        layers.insert("labels.dirty_frac", self.dirty_frac());
        layers.insert("repair.orphans", self.per_beacon(self.orphans));
        layers.insert("repair.merged_pairs", self.per_beacon(self.merged));
        layers.insert("repair.node_rounds", self.per_beacon(self.cost));
        layers.insert("repair.full_rebuilds", self.per_beacon(self.full));
        let snap = metrics.snapshot();
        let count = |name: &str| self.per_beacon(snap.counter(name).unwrap_or(0) as usize);
        let span_ms = |name: &str| {
            snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6) / self.beacons().max(1) as f64
        };
        layers.insert("labels.rows_repaired", count("labels.rows_repaired"));
        layers.insert("labels.rebuild_fallback", count("labels.rebuild_fallback"));
        layers.insert("plan.rebuilt", count("plan.rebuilt"));
        layers.insert("hub.dirty_hubs", count("hub.dirty_hubs"));
        layers.insert("plan.resweeped_nodes", count("plan.resweeped_nodes"));
        layers.insert("labels.advance_ms", span_ms("labels.advance_ns"));
        layers.insert("pipeline.eval_tail_ms", span_ms("pipeline.eval_tail_ns"));
        layers.insert("plan.apply_delta_ms", span_ms("plan.apply_delta_ns"));
    }
}

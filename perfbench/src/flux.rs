//! `flux-mixed`: a fully mobile 2 000-node network, a beacon due every
//! 100 ms and a uniform query due every 50 µs (20 000/s), all from one
//! thread (open loop). Latency counts from the due time, so a query due
//! during a reconcile waits behind it. The timed operation of the
//! end-to-end metrics is the beacon, in CPU time, between the queries.
//! Latencies from the due time follow the wall clock, which on a shared
//! host also counts time the cores served other guests; they are
//! reported per layer.

use crate::cpu::CpuTime;
use crate::engine::{
    beacon, cold_build, finish_trace, guard, metrics_for, network, record_setup_layers,
    record_state, sample_setup, uniform_pairs, waypoints, BeaconLog, BEACON_DT, MOVE_STREAM,
    PAIR_STREAM,
};
use crate::oracle::{self, WalkStats};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{self, mean, median, percentile, sorted};
use crate::trace::{self, Tracer};
use crate::{Opts, Scale, Values};
use adhoc_graph::gen::{self, GeometricNetwork, SpatialGrid};
use adhoc_graph::geom::Point;
use adhoc_graph::graph::NodeId;
use adhoc_graph::par::Parallelism;
use adhoc_sim::mobility::RandomWaypoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Sizes {
    n: usize,
    beacon_every: Duration,
    query_every: Duration,
    /// Beacons between two untimed checkpoints, each taken once the
    /// loop is idle (the schedule shifts by the time it took). At each,
    /// the oracle checks the engine and `builds` more cold builds on
    /// the current topology are timed for set-up.
    checkpoint: usize,
    builds: usize,
    oracle_pairs: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                n: 2000,
                beacon_every: Duration::from_millis(100),
                query_every: Duration::from_micros(50),
                checkpoint: 25,
                builds: 3,
                oracle_pairs: 1000,
            },
            Scale::Tiny => Sizes {
                n: 400,
                beacon_every: Duration::from_millis(10),
                query_every: Duration::from_micros(200),
                checkpoint: 10,
                builds: 1,
                oracle_pairs: 100,
            },
        }
    }
}

/// One scheduled operation of the open loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Due {
    /// Beacon `b` (0-based).
    Beacon(usize),
    /// Query `q` (0-based).
    Query(usize),
}

/// The open-loop schedule: beacon `b` is due at `(b + 1) · beacon_every`
/// and query `q` at `q · query_every`, both after the loop's origin;
/// a beacon goes first when both are due at once.
pub struct Schedule {
    beacons: usize,
    queries: usize,
    beacon_every: Duration,
    query_every: Duration,
    next_b: usize,
    next_q: usize,
}

impl Schedule {
    /// A schedule of `beacons` beacons and `queries` queries.
    pub fn new(
        beacons: usize,
        queries: usize,
        beacon_every: Duration,
        query_every: Duration,
    ) -> Self {
        Schedule {
            beacons,
            queries,
            beacon_every,
            query_every,
            next_b: 0,
            next_q: 0,
        }
    }

    fn take_beacon(&mut self, at: Duration) -> Option<(Due, Duration)> {
        self.next_b += 1;
        Some((Due::Beacon(self.next_b - 1), at))
    }
}

impl Iterator for Schedule {
    /// The next operation and its offset from the origin.
    type Item = (Due, Duration);

    fn next(&mut self) -> Option<(Due, Duration)> {
        let b_at =
            (self.next_b < self.beacons).then(|| self.beacon_every * (self.next_b as u32 + 1));
        let q_at = (self.next_q < self.queries).then(|| self.query_every * self.next_q as u32);
        match (b_at, q_at) {
            (Some(b), Some(q)) if b <= q => self.take_beacon(b),
            (Some(b), None) => self.take_beacon(b),
            (_, Some(q)) => {
                self.next_q += 1;
                Some((Due::Query(self.next_q - 1), q))
            }
            (None, None) => None,
        }
    }
}

/// Latency of an operation due at `due` that started at `start` and
/// ended at `end`, split into its parts: `(latency, wait, lag)`, where
/// latency runs from the due time to the end, wait from the due time to
/// the start, and lag is the part of the wait not spent behind the
/// previous operation (which ended at `prev_end`): how late the
/// generator itself ran.
pub fn open_loop_latency(
    due: Instant,
    start: Instant,
    end: Instant,
    prev_end: Instant,
) -> (Duration, Duration, Duration) {
    let latency = end.saturating_duration_since(due);
    let wait = start.saturating_duration_since(due);
    let lag = start.saturating_duration_since(due.max(prev_end));
    (latency, wait, lag)
}

/// Waits, spinning, until `t`.
fn spin_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

struct Inputs {
    net: GeometricNetwork,
    /// All node positions after each beacon.
    trajectory: Vec<Vec<Point>>,
    queries: Vec<(NodeId, NodeId)>,
    oracle_pairs: Vec<(NodeId, NodeId)>,
}

fn inputs(sizes: &Sizes, seed: u64, seconds: f64) -> Inputs {
    let net = network(sizes.n, seed);
    let beacons = (seconds / sizes.beacon_every.as_secs_f64()).floor() as usize;
    let queries = (seconds / sizes.query_every.as_secs_f64()).floor() as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ MOVE_STREAM);
    let mut model = RandomWaypoint::new(sizes.n, waypoints(sizes.n), &mut rng);
    let mut at = net.positions.clone();
    let trajectory = (0..beacons)
        .map(|_| {
            model.step(&mut at, BEACON_DT, &mut rng);
            at.clone()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ PAIR_STREAM);
    let oracle_pairs = uniform_pairs(sizes.n, sizes.oracle_pairs, &mut rng);
    Inputs {
        queries: uniform_pairs(sizes.n, queries, &mut rng),
        net,
        trajectory,
        oracle_pairs,
    }
}

/// What one open-loop pass measured.
#[derive(Default)]
struct Pass {
    setup: Vec<f64>,
    beacons: BeaconLog,
    /// Beacon latency from its due time, ms.
    beacon_latency_ms: Vec<f64>,
    query_latency_ms: Vec<f64>,
    query_wait_us: Vec<f64>,
    /// Process CPU time of all queries, seconds.
    query_cpu_s: f64,
    lag_us: Vec<f64>,
    /// `(beacons applied, u, v)` of every unroutable answer.
    unroutable: Vec<(usize, NodeId, NodeId)>,
    walks: WalkStats,
    cds: Vec<f64>,
    /// Peak RSS (MiB) at the first checkpoint.
    rss: f64,
}

impl Pass {
    fn ops(&self) -> usize {
        self.beacons.beacons() + self.query_latency_ms.len()
    }

    /// Process CPU time the operations used, seconds.
    fn cpu_s(&self) -> f64 {
        self.beacons.cpu_s() + self.query_cpu_s
    }

    /// Mean CPU time per operation, seconds.
    fn cpu_per_op(&self) -> f64 {
        self.cpu_s() / self.ops().max(1) as f64
    }
}

fn pass(
    inputs: &Inputs,
    sizes: &Sizes,
    opts: &Opts,
    tr: &mut Tracer,
    out: &mut Outcome,
    layers: &mut Values,
) -> Pass {
    let par = Parallelism::new(opts.workers);
    let metrics = metrics_for(tr);
    let mut p = Pass {
        rss: f64::NAN,
        ..Pass::default()
    };
    let mut grid = SpatialGrid::build(&inputs.net.positions, inputs.net.range);
    let mut engine = cold_build(grid.graph(), par, tr, out, 0, &mut p.setup);
    if !tr.is_on() {
        record_state(&engine, out, layers);
    }
    engine.set_metrics(metrics.clone());
    p.walks = oracle::check_engine(&engine, &inputs.oracle_pairs, out);
    p.query_latency_ms.reserve(inputs.queries.len());
    p.query_wait_us.reserve(inputs.queries.len());
    p.lag_us
        .reserve(inputs.queries.len() + inputs.trajectory.len());
    let schedule = Schedule::new(
        inputs.trajectory.len(),
        inputs.queries.len(),
        sizes.beacon_every,
        sizes.query_every,
    );
    let mut walk = Vec::new();
    let mut applied = 0usize;
    let mut check_due = false;
    let mut origin = Instant::now();
    let mut prev_end = origin;
    for (op, offset) in schedule {
        if check_due && Instant::now() < origin + offset {
            let c0 = Instant::now();
            if p.rss.is_nan() {
                p.rss = peak_rss_mb().unwrap_or(f64::NAN);
            }
            p.walks
                .absorb(oracle::check_engine(&engine, &inputs.oracle_pairs, out));
            let cause = applied as u64;
            sample_setup(
                grid.graph(),
                par,
                tr,
                out,
                cause,
                sizes.builds,
                &mut p.setup,
            );
            origin += c0.elapsed();
            check_due = false;
            prev_end = Instant::now();
        }
        let due = origin + offset;
        spin_until(due);
        match op {
            Due::Beacon(b) => {
                let rec = match beacon(&mut engine, &mut grid, &inputs.trajectory[b], tr, b as u64)
                {
                    Ok(rec) => rec,
                    Err(why) => {
                        out.check(false, || why);
                        break;
                    }
                };
                let (latency, _, lag) = open_loop_latency(due, rec.start, rec.end, prev_end);
                p.beacon_latency_ms.push(latency.as_secs_f64() * 1e3);
                p.lag_us.push(lag.as_secs_f64() * 1e6);
                p.beacons.absorb(&rec);
                p.cds.push(engine.cds.size() as f64);
                applied = b + 1;
                check_due = applied.is_multiple_of(sizes.checkpoint);
                prev_end = rec.end;
            }
            Due::Query(q) => {
                let (u, v) = inputs.queries[q];
                let plan = engine.route_plan().expect("routing enabled by the build");
                let (start, cpu0) = (Instant::now(), CpuTime::now());
                let hops = plan.route_into(u, v, &mut walk);
                let (end, cpu) = (Instant::now(), cpu0.elapsed());
                black_box(&walk);
                tr.root("query.route", q as u64, Some(start), Some(end));
                if hops.is_none() {
                    p.unroutable.push((applied, u, v));
                }
                let (latency, wait, lag) = open_loop_latency(due, start, end, prev_end);
                p.query_latency_ms.push(latency.as_secs_f64() * 1e3);
                p.query_wait_us.push(wait.as_secs_f64() * 1e6);
                p.lag_us.push(lag.as_secs_f64() * 1e6);
                p.query_cpu_s += cpu.as_secs_f64();
                prev_end = end;
            }
        }
    }
    if p.rss.is_nan() {
        // The loop was never idle at a checkpoint.
        p.rss = peak_rss_mb().unwrap_or(f64::NAN);
    }
    oracle::check_engine(&engine, &inputs.oracle_pairs, out);
    out.ops(p.ops());
    check_unroutables(inputs, &p, out);
    if tr.is_on() {
        p.beacons.record_layers(tr, &metrics, layers);
    }
    p
}

/// Fails every unroutable answer whose pair BFS finds connected in the
/// topology the query ran against.
fn check_unroutables(inputs: &Inputs, p: &Pass, out: &mut Outcome) {
    let mut i = 0;
    while i < p.unroutable.len() {
        let state = p.unroutable[i].0;
        let group: Vec<(NodeId, NodeId)> = p.unroutable[i..]
            .iter()
            .take_while(|(s, _, _)| *s == state)
            .map(|&(_, u, v)| (u, v))
            .collect();
        i += group.len();
        let positions = if state == 0 {
            &inputs.net.positions
        } else {
            &inputs.trajectory[state - 1]
        };
        let g = gen::unit_disk_graph(positions, inputs.net.range);
        for _ in 0..oracle::connected_unroutables(&g, &group) {
            out.fail(format!(
                "query answered unroutable between connected nodes after beacon {state}"
            ));
        }
    }
}

/// `flux-mixed`: see the module docs.
pub fn flux_mixed(opts: &Opts, out: &mut Outcome, e2e: &mut Values, layers: &mut Values) {
    let sizes = Sizes::of(opts.scale);
    let inputs = inputs(&sizes, opts.seed, opts.seconds);
    let p = pass(&inputs, &sizes, opts, &mut Tracer::off(), out, layers);
    let cpu = sorted(p.beacons.cpu_ms.clone());
    e2e.insert("setup_s", median(&p.setup));
    if !cpu.is_empty() {
        e2e.insert("op_cpu_p50_ms", percentile(&cpu, 50.0));
    }
    match stats::tail(&cpu, 90.0, "flux-mixed beacons") {
        Ok(v) => {
            e2e.insert("op_cpu_tail_ms", v);
        }
        Err(why) => out.check(false, || why),
    }
    // The open loop's schedule fixes how many operations a second
    // brings; what the program decides is how much CPU time they take.
    // Operations per CPU second is the rate one core could sustain,
    // which falls when reconciles or queries get slower.
    e2e.insert("ops_per_cpu_s", p.ops() as f64 / p.cpu_s());
    e2e.insert("cds_nodes", mean(&p.cds));
    e2e.insert("peak_rss_mb", p.rss);
    e2e.insert("route_hops_mean", p.walks.mean_hops());
    let frac = p.beacons.dirty_frac();
    guard(out, "flux-mixed labels.dirty_frac > 0.5", frac > 0.5, frac);
    out.note(stats::describe("beacons (cpu)", &cpu));
    out.note(stats::describe(
        "beacons from due time",
        &sorted(p.beacon_latency_ms.clone()),
    ));
    out.note(stats::describe(
        "queries from due time",
        &sorted(p.query_latency_ms.clone()),
    ));

    if opts.trace {
        let mut tr = Tracer::on();
        let t = pass(&inputs, &sizes, opts, &mut tr, out, layers);
        record_setup_layers(&tr, layers);
        let service = sorted(trace::durations_ms(tr.spans(), "query.route"));
        if !service.is_empty() {
            layers.insert("query.service_p50_us", percentile(&service, 50.0) * 1e3);
            layers.insert("query.service_p99_us", percentile(&service, 99.0) * 1e3);
        }
        let latency = sorted(t.query_latency_ms.clone());
        if !latency.is_empty() {
            layers.insert("query.latency_p50_us", percentile(&latency, 50.0) * 1e3);
            layers.insert("query.latency_p99_us", percentile(&latency, 99.0) * 1e3);
        }
        let wait = sorted(t.query_wait_us.clone());
        if !wait.is_empty() {
            layers.insert("query.wait_p99_us", percentile(&wait, 99.0));
        }
        let lag = sorted(t.lag_us.clone());
        if !lag.is_empty() {
            layers.insert("gen.lag_p99_us", percentile(&lag, 99.0));
        }
        layers.insert("query.cross_cluster_frac", t.walks.cross_frac());
        layers.insert(
            "query.unroutable",
            t.unroutable.len() as f64 / t.query_latency_ms.len().max(1) as f64,
        );
        finish_trace(&tr, opts, p.cpu_per_op(), t.cpu_per_op(), out, layers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_orders_operations_by_due_time() {
        let s = Schedule::new(2, 5, Duration::from_millis(2), Duration::from_millis(1));
        let ops: Vec<(Due, u64)> = s.map(|(op, at)| (op, at.as_millis() as u64)).collect();
        assert_eq!(
            ops,
            vec![
                (Due::Query(0), 0),
                (Due::Query(1), 1),
                (Due::Beacon(0), 2),
                (Due::Query(2), 2),
                (Due::Query(3), 3),
                (Due::Beacon(1), 4),
                (Due::Query(4), 4),
            ]
        );
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        // On time: the generator started 1 ms late of its own accord.
        let (lat, wait, lag) = open_loop_latency(t, t + ms(1), t + ms(3), t - ms(5));
        assert_eq!((lat, wait, lag), (ms(3), ms(1), ms(1)));
        // Queued behind an operation that ended 10 ms after the due
        // time: all of it is wait, none of it generator lag.
        let (lat, wait, lag) = open_loop_latency(t, t + ms(10), t + ms(11), t + ms(10));
        assert_eq!((lat, wait, lag), (ms(11), ms(10), ms(0)));
        // A start before the due time never counts negative.
        let (lat, wait, _) = open_loop_latency(t + ms(2), t + ms(1), t + ms(3), t);
        assert_eq!((lat, wait), (ms(1), ms(0)));
    }
}

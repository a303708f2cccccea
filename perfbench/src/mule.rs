//! `mule-churn`: a few random-waypoint movers over a static
//! 20 000-node field, one beacon after another (closed loop). One
//! engine serves every beacon of a run, so each reconcile runs on the
//! state the engine has maintained since its cold election.

use crate::engine::{
    beacon, cold_build, finish_trace, guard, metrics_for, network, record_setup_layers,
    record_state, sample_setup, uniform_pairs, waypoints, BeaconLog, BEACON_DT, MOVE_STREAM,
    PAIR_STREAM,
};
use crate::oracle::{self, WalkStats};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{self, mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::{Opts, Scale, Values};
use adhoc_graph::gen::{GeometricNetwork, SpatialGrid};
use adhoc_graph::geom::Point;
use adhoc_graph::graph::NodeId;
use adhoc_graph::par::Parallelism;
use adhoc_sim::mobility::RandomWaypoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

struct Sizes {
    n: usize,
    /// Nodes that move on each beacon.
    movers: usize,
    /// Mover groups that take turns, so that one run samples reconciles
    /// in many regions of the field.
    groups: usize,
    /// Beacons whose state feeds the seed-deterministic metrics; a run
    /// needs at least this many so that p90 has 10 samples beyond it.
    min_beacons: usize,
    /// Beacons between two untimed checkpoints. At each, the oracle
    /// checks the engine and `builds` more cold builds on the current
    /// topology are timed for set-up.
    checkpoint: usize,
    builds: usize,
    oracle_pairs: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                n: 20_000,
                movers: 20,
                groups: 10,
                min_beacons: 100,
                checkpoint: 25,
                builds: 2,
                oracle_pairs: 1000,
            },
            Scale::Tiny => Sizes {
                n: 1000,
                movers: 10,
                groups: 2,
                min_beacons: 100,
                checkpoint: 25,
                builds: 1,
                oracle_pairs: 100,
            },
        }
    }
}

/// The network and the movement.
struct Inputs {
    net: GeometricNetwork,
    /// The movers of each group.
    groups: Vec<Vec<usize>>,
    /// Per beacon: the group that moves and its movers' new positions.
    trajectory: Vec<(usize, Vec<Point>)>,
    oracle_pairs: Vec<(NodeId, NodeId)>,
}

/// Beacon `b` moves group `b mod groups` by one random-waypoint step.
fn inputs(sizes: &Sizes, seed: u64, beacons: usize) -> Inputs {
    let net = network(sizes.n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ MOVE_STREAM);
    let mut pool: Vec<usize> = Vec::with_capacity(sizes.movers * sizes.groups);
    while pool.len() < sizes.movers * sizes.groups {
        let v = rng.gen_range(0..sizes.n);
        if !pool.contains(&v) {
            pool.push(v);
        }
    }
    let groups: Vec<Vec<usize>> = pool.chunks(sizes.movers).map(<[usize]>::to_vec).collect();
    let mut models: Vec<(RandomWaypoint, Vec<Point>)> = groups
        .iter()
        .map(|g| {
            let model = RandomWaypoint::new(g.len(), waypoints(sizes.n), &mut rng);
            (model, g.iter().map(|&v| net.positions[v]).collect())
        })
        .collect();
    let trajectory = (0..beacons)
        .map(|b| {
            let group = b % groups.len();
            let (model, at) = &mut models[group];
            model.step(at, BEACON_DT, &mut rng);
            (group, at.clone())
        })
        .collect();
    let oracle_pairs = uniform_pairs(
        sizes.n,
        sizes.oracle_pairs,
        &mut StdRng::seed_from_u64(seed ^ PAIR_STREAM),
    );
    Inputs {
        net,
        groups,
        trajectory,
        oracle_pairs,
    }
}

/// What one pass over the inputs measured.
struct Pass {
    setup: Vec<f64>,
    log: BeaconLog,
    /// Walks checked and CDS sizes seen over the first `min_beacons`.
    walks: WalkStats,
    cds: Vec<f64>,
    measured: f64,
    /// Peak RSS (MiB) at the first checkpoint.
    rss: f64,
}

/// One cold build, then beacons on its engine until `seconds` of beacon
/// time have passed, with an untimed checkpoint every `checkpoint`
/// beacons.
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
    let mut grid = SpatialGrid::build(&inputs.net.positions, inputs.net.range);
    let mut pos = inputs.net.positions.clone();
    let mut setup = Vec::new();
    let mut engine = cold_build(grid.graph(), par, tr, out, 0, &mut setup);
    if !tr.is_on() {
        record_state(&engine, out, layers);
    }
    engine.set_metrics(metrics.clone());
    let mut p = Pass {
        walks: oracle::check_engine(&engine, &inputs.oracle_pairs, out),
        cds: vec![engine.cds.size() as f64],
        setup,
        log: BeaconLog::default(),
        measured: 0.0,
        rss: f64::NAN,
    };
    let begin = Instant::now();
    let mut paused = Duration::ZERO;
    for (b, (group, step)) in inputs.trajectory.iter().enumerate() {
        if (begin.elapsed() - paused).as_secs_f64() >= opts.seconds {
            break;
        }
        for (&v, &at) in inputs.groups[*group].iter().zip(step) {
            pos[v] = at;
        }
        match beacon(&mut engine, &mut grid, &pos, tr, b as u64) {
            Ok(rec) => p.log.absorb(&rec),
            Err(why) => {
                out.check(false, || why);
                break;
            }
        }
        let done = b + 1;
        if done <= sizes.min_beacons {
            p.cds.push(engine.cds.size() as f64);
        }
        if done.is_multiple_of(sizes.checkpoint) {
            let c0 = Instant::now();
            if done == sizes.checkpoint {
                p.rss = peak_rss_mb().unwrap_or(f64::NAN);
            }
            let stats = oracle::check_engine(&engine, &inputs.oracle_pairs, out);
            if done <= sizes.min_beacons {
                p.walks.absorb(stats);
            }
            sample_setup(
                grid.graph(),
                par,
                tr,
                out,
                done as u64,
                sizes.builds,
                &mut p.setup,
            );
            paused += c0.elapsed();
        }
    }
    p.measured = (begin.elapsed() - paused).as_secs_f64();
    oracle::check_engine(&engine, &inputs.oracle_pairs, out);
    out.ops(p.log.beacons());
    if tr.is_on() {
        p.log.record_layers(tr, &metrics, layers);
    }
    p
}

/// `mule-churn`: see the module docs.
pub fn mule_churn(opts: &Opts, out: &mut Outcome, e2e: &mut Values, layers: &mut Values) {
    let sizes = Sizes::of(opts.scale);
    // Enough inputs for 2 000 beacons per measured second.
    let beacons = (opts.seconds * 2000.0).ceil() as usize + sizes.min_beacons;
    let inputs = inputs(&sizes, opts.seed, beacons);

    let p = pass(&inputs, &sizes, opts, &mut Tracer::off(), out, layers);
    let n = p.log.beacons();
    if n < sizes.min_beacons {
        out.check(false, || {
            format!(
                "only {n} beacons in {:.1} s; need {}",
                p.measured, sizes.min_beacons
            )
        });
    }
    out.note(stats::describe(
        "beacons (wall)",
        &sorted(p.log.wall_ms.clone()),
    ));
    let cpu = sorted(p.log.cpu_ms.clone());
    out.note(stats::describe("beacons (cpu)", &cpu));
    e2e.insert("setup_s", median(&p.setup));
    if !cpu.is_empty() {
        e2e.insert("op_cpu_p50_ms", percentile(&cpu, 50.0));
    }
    match stats::tail(&cpu, 90.0, "mule-churn beacons") {
        Ok(v) => {
            e2e.insert("op_cpu_tail_ms", v);
        }
        Err(why) => out.check(false, || why),
    }
    e2e.insert("ops_per_cpu_s", n as f64 / p.log.cpu_s());
    e2e.insert("cds_nodes", mean(&p.cds));
    e2e.insert("peak_rss_mb", p.rss);
    e2e.insert("route_hops_mean", p.walks.mean_hops());
    let frac = p.log.dirty_frac();
    guard(
        out,
        "mule-churn labels.dirty_frac < 0.25",
        frac < 0.25,
        frac,
    );
    let churn = p.log.churn_per_beacon();
    guard(
        out,
        "mule-churn gen.edges_churned >= 1",
        churn >= 1.0,
        churn,
    );

    if opts.trace {
        let mut tr = Tracer::on();
        let t = pass(&inputs, &sizes, opts, &mut tr, out, layers);
        record_setup_layers(&tr, layers);
        layers.insert("query.cross_cluster_frac", p.walks.cross_frac());
        finish_trace(
            &tr,
            opts,
            mean(&p.log.cpu_ms) / 1e3,
            mean(&t.log.cpu_ms) / 1e3,
            out,
            layers,
        );
    }
}

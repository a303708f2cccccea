//! `hub-serve`: uniform queries answered one after another by
//! `RoutePlan::route_into` on the plan the engine compiled (closed
//! loop, single client, no reconciles), on the `mule-churn` network and
//! on more networks of the same size and density from the same seed.
//! A query's cost depends on the topology (it differed by 15 % between
//! two seeds' networks), so one run serves several networks in turn,
//! and its metrics average over them rather than follow one network.

use crate::cpu::CpuTime;
use crate::engine::{
    cold_build, finish_trace, guard, network, record_setup_layers, record_state, uniform_pairs,
    PAIR_STREAM,
};
use crate::oracle::{self, WalkStats};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{self, median, percentile, sorted};
use crate::trace::{self, Tracer};
use crate::{Opts, Scale, Values};
use adhoc_cluster::routing::RoutePlan;
use adhoc_graph::gen::GeometricNetwork;
use adhoc_graph::graph::NodeId;
use adhoc_graph::par::Parallelism;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

struct Sizes {
    n: usize,
    /// Networks per run.
    networks: usize,
    /// Cold builds per network; the queries move from one build's plan
    /// to the next in equal time slices.
    builds: usize,
    min_queries: usize,
    oracle_pairs: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                n: 20_000,
                networks: 5,
                builds: 3,
                min_queries: 1000,
                oracle_pairs: 1000,
            },
            Scale::Tiny => Sizes {
                n: 1000,
                networks: 2,
                builds: 2,
                min_queries: 200,
                oracle_pairs: 100,
            },
        }
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    setup: Vec<f64>,
    /// Process CPU time of every query, µs.
    service_us: Vec<f64>,
    /// Queries answered unroutable on the network being served.
    unroutable: Vec<(NodeId, NodeId)>,
    unroutable_total: usize,
    walks: WalkStats,
    /// CDS size of each network's engine.
    cds: Vec<f64>,
    /// Peak RSS (MiB) when the first build's slice ended.
    rss: f64,
}

/// Answers `pairs[next..]` (cyclically) on `plan` for `seconds`.
fn serve(
    plan: &RoutePlan,
    pairs: &[(NodeId, NodeId)],
    seconds: f64,
    tr: &mut Tracer,
    p: &mut Pass,
) {
    let mut walk = Vec::new();
    let begin = Instant::now();
    loop {
        let i = p.service_us.len();
        let (u, v) = pairs[i % pairs.len()];
        let (t0, cpu0) = (Instant::now(), CpuTime::now());
        let hops = plan.route_into(u, v, &mut walk);
        let (t1, cpu) = (Instant::now(), cpu0.elapsed());
        black_box(&walk);
        p.service_us.push(cpu.as_secs_f64() * 1e6);
        tr.root("query.route", i as u64, Some(t0), Some(t1));
        if hops.is_none() {
            p.unroutable.push((u, v));
        }
        if (t1 - begin).as_secs_f64() >= seconds {
            return;
        }
    }
}

/// The networks and the query pairs.
struct Inputs {
    nets: Vec<GeometricNetwork>,
    pairs: Vec<(NodeId, NodeId)>,
    oracle_pairs: Vec<(NodeId, NodeId)>,
}

/// The first network is the `mule-churn` network of `seed`.
fn inputs(sizes: &Sizes, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ PAIR_STREAM);
    Inputs {
        nets: (0..sizes.networks as u64)
            .map(|i| network(sizes.n, seed ^ (i << 40)))
            .collect(),
        oracle_pairs: uniform_pairs(sizes.n, sizes.oracle_pairs, &mut rng),
        pairs: uniform_pairs(sizes.n, 1 << 17, &mut rng),
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
    let mut p = Pass::default();
    let slices = sizes.networks * sizes.builds;
    for (i, net) in inputs.nets.iter().enumerate() {
        let mut first: Option<RoutePlan> = None;
        for b in 0..sizes.builds {
            let cause = (i * sizes.builds + b) as u64;
            let engine = cold_build(&net.graph, par, tr, out, cause, &mut p.setup);
            let plan = engine.route_plan().expect("routing enabled by the build");
            match &first {
                None => {
                    if i == 0 && !tr.is_on() {
                        record_state(&engine, out, layers);
                    }
                    p.walks
                        .absorb(oracle::check_engine(&engine, &inputs.oracle_pairs, out));
                    p.cds.push(engine.cds.size() as f64);
                    first = Some(plan.clone());
                }
                Some(f) => out.check(plan == f, || {
                    format!("network {i}: cold build {b} compiled another plan")
                }),
            }
            serve(
                plan,
                &inputs.pairs,
                opts.seconds / slices as f64,
                tr,
                &mut p,
            );
            if cause == 0 {
                p.rss = peak_rss_mb().unwrap_or(f64::NAN);
            }
        }
        let bad = oracle::connected_unroutables(&net.graph, &p.unroutable);
        for _ in 0..bad {
            out.check(false, || {
                format!("network {i}: query answered unroutable between connected nodes")
            });
        }
        out.ops(p.unroutable.len() - bad);
        p.unroutable_total += p.unroutable.len();
        p.unroutable.clear();
    }
    out.ops(p.service_us.len() - p.unroutable_total);
    p
}

/// `hub-serve`: see the module docs.
pub fn hub_serve(opts: &Opts, out: &mut Outcome, e2e: &mut Values, layers: &mut Values) {
    let sizes = Sizes::of(opts.scale);
    let inputs = inputs(&sizes, opts.seed);
    let p = pass(&inputs, &sizes, opts, &mut Tracer::off(), out, layers);
    let n = p.service_us.len();
    if n < sizes.min_queries {
        out.check(false, || {
            format!("only {n} queries; need {}", sizes.min_queries)
        });
    }
    let lat = sorted(p.service_us.iter().map(|us| us / 1e3).collect());
    out.note(stats::describe("queries (cpu)", &lat));
    e2e.insert("setup_s", median(&p.setup));
    e2e.insert("op_cpu_p50_ms", percentile(&lat, 50.0));
    match stats::tail(&lat, 99.0, "hub-serve queries") {
        Ok(v) => {
            e2e.insert("op_cpu_tail_ms", v);
        }
        Err(why) => out.check(false, || why),
    }
    e2e.insert(
        "ops_per_cpu_s",
        n as f64 / (p.service_us.iter().sum::<f64>() / 1e6),
    );
    e2e.insert("cds_nodes", stats::mean(&p.cds));
    e2e.insert("peak_rss_mb", p.rss);
    e2e.insert("route_hops_mean", p.walks.mean_hops());
    let cross = p.walks.cross_frac();
    guard(
        out,
        "hub-serve query.cross_cluster_frac >= 0.9",
        cross >= 0.9,
        cross,
    );

    if opts.trace {
        let mut tr = Tracer::on();
        let t = pass(&inputs, &sizes, opts, &mut tr, out, layers);
        record_setup_layers(&tr, layers);
        let service = sorted(trace::durations_ms(tr.spans(), "query.route"));
        layers.insert("query.service_p50_us", percentile(&service, 50.0) * 1e3);
        layers.insert("query.service_p99_us", percentile(&service, 99.0) * 1e3);
        layers.insert("query.cross_cluster_frac", cross);
        layers.insert(
            "query.unroutable",
            t.unroutable_total as f64 / t.service_us.len().max(1) as f64,
        );
        let per_query = |p: &Pass| stats::mean(&p.service_us) / 1e6;
        finish_trace(&tr, opts, per_query(&p), per_query(&t), out, layers);
    }
}

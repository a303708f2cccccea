//! `paper-figures`: the inner loop of the paper's Figures 5–7.
//!
//! Each replicate builds the CSR of a generated instance, runs
//! `cluster` and then `run_all_with` (all five algorithms) with one
//! shared `EvalScratch`, over the §4 grid: N ∈ {50, 100, 150, 200},
//! D ∈ {6, 10}, k ∈ {1..4} on a 100 × 100 area, connected instances.

use crate::chain::{self, ChainScratch};
use crate::cpu::CpuTime;
use crate::engine::{cold_build, finish_trace, record_setup_layers, record_state, uniform_pairs};
use crate::oracle::{self, WalkStats, SERVED};
use crate::report::Outcome;
use crate::stats::{self, mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::{Opts, Scale, Values};
use adhoc_cluster::clustering::{cluster, MemberPolicy};
use adhoc_cluster::pipeline::{self, Algorithm, EvalScratch, LabelMode};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::routing::RoutePlan;
use adhoc_graph::gen::{self, GeometricConfig};
use adhoc_graph::graph::Graph;
use adhoc_graph::labels::LabelStore;
use adhoc_graph::par::Parallelism;
use adhoc_graph::Csr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const GRID_STREAM: u64 = 0x6669_6775_7265_7300;

/// One replicate's input and the CDS sizes a cold run computed for it.
struct Replicate {
    graph: Graph,
    k: u32,
    /// CDS size of each algorithm, in `Algorithm::ALL` order.
    expected: [usize; 5],
}

struct Sizes {
    nodes: &'static [usize],
    degrees: &'static [f64],
    ks: std::ops::RangeInclusive<u32>,
    /// Instances per (N, D) cell. The p99 replicate and the mean set-up
    /// build are set by the few largest instances; with 8 a cell they
    /// moved by 10–14 % from seed to seed.
    reps: usize,
    /// Every `sample`-th replicate gets the full oracle.
    sample: usize,
    /// Set-up builds per N = 200 instance, one before each slice of
    /// the replicate loop.
    builds: usize,
    oracle_pairs: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                nodes: &[50, 100, 150, 200],
                degrees: &[6.0, 10.0],
                ks: 1..=4,
                reps: 32,
                sample: 16,
                builds: 15,
                oracle_pairs: 200,
            },
            Scale::Tiny => Sizes {
                nodes: &[50, 100],
                degrees: &[6.0, 10.0],
                ks: 1..=2,
                reps: 1,
                sample: 2,
                builds: 2,
                oracle_pairs: 50,
            },
        }
    }
}

/// Generates the grid's instances (replicate-major, so every prefix of
/// whole passes covers the grid evenly) and checks each against a cold
/// `run_all`; a sample also gets `Cds::verify` for all five
/// algorithms, the stage-by-stage chain, and routed walks on a compiled
/// plan. Returns the replicates, the walk statistics and the mean AC-LMST
/// CDS size.
fn prepare(
    sizes: &Sizes,
    seed: u64,
    par: Parallelism,
    out: &mut Outcome,
) -> (Vec<Replicate>, WalkStats, f64) {
    let mut rng = StdRng::seed_from_u64(seed ^ GRID_STREAM);
    let mut graphs = Vec::new();
    for _ in 0..sizes.reps {
        for &n in sizes.nodes {
            for &d in sizes.degrees {
                graphs.push(gen::geometric(&GeometricConfig::new(n, 100.0, d), &mut rng).graph);
            }
        }
    }
    let mut reps = Vec::new();
    let mut walks = WalkStats::default();
    let mut cs = ChainScratch::default();
    let mut quiet = Tracer::off();
    for graph in graphs {
        for k in sizes.ks.clone() {
            let clustering = cluster(&graph, k, &LowestId, MemberPolicy::IdBased);
            let cold = pipeline::run_all(&graph, &clustering);
            let expected = Algorithm::ALL.map(|alg| cold.of(alg).cds.size());
            if reps.len() % sizes.sample == 0 {
                for alg in Algorithm::ALL {
                    let verdict = cold.of(alg).cds.verify(&graph, k);
                    out.check(verdict.is_ok(), || {
                        format!("{alg} CDS fails verify: {verdict:?}")
                    });
                }
                let staged = chain::run_stages(&graph, k, &mut cs, par, &mut quiet, 0, 0, None);
                let why = chain::eval_mismatch(&staged, &cold);
                out.check(why.is_none(), || {
                    format!("stage chain != run_all: {}", why.unwrap_or_default())
                });
                let mut labels = LabelStore::dense();
                labels.rebuild(&graph, &clustering.heads, 2 * k + 1);
                let plan =
                    RoutePlan::compile(&graph, &clustering, &labels, cold.selected_links(SERVED));
                let mut prng = StdRng::seed_from_u64(seed ^ reps.len() as u64);
                let pairs = uniform_pairs(graph.len(), sizes.oracle_pairs, &mut prng);
                walks.absorb(oracle::check_walks(&graph, &plan, None, &pairs, out));
            }
            reps.push(Replicate {
                graph: graph.clone(),
                k,
                expected,
            });
        }
    }
    let cds = mean(
        &reps
            .iter()
            .map(|r| r.expected[3] as f64)
            .collect::<Vec<_>>(),
    );
    (reps, walks, cds)
}

/// The closed replicate loop; traced, each replicate is a `replicate`
/// span with one child per stage.
///
/// A replicate runs on one thread, as each worker of the figure harness
/// runs its share: at N ≤ 200 a pool would spend the replicate spawning
/// threads.
struct ReplicateLoop {
    scratch: EvalScratch,
    cs: ChainScratch,
    /// Process CPU time of every replicate, ms.
    cpu: Vec<f64>,
}

impl ReplicateLoop {
    fn new() -> Self {
        ReplicateLoop {
            scratch: EvalScratch::with_tuning(LabelMode::Auto, Parallelism::serial()),
            cs: ChainScratch::default(),
            cpu: Vec::with_capacity(1 << 17),
        }
    }

    /// Runs replicates, continuing where the last call stopped, until
    /// `seconds` have passed.
    fn run(&mut self, reps: &[Replicate], seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
        let par = Parallelism::serial();
        let begin = Instant::now();
        loop {
            let i = self.cpu.len();
            let rep = &reps[i % reps.len()];
            let (t0, cpu0) = (Instant::now(), CpuTime::now());
            let sizes = if tr.is_on() {
                let root = tr.root("replicate", i as u64, Some(t0), Some(t0));
                let csr = Csr::from_graph(&rep.graph);
                let t_csr = tr.mark();
                tr.span("chain.csr", root, i as u64, Some(t0), t_csr);
                let eval =
                    chain::run_stages(&csr, rep.k, &mut self.cs, par, tr, root, i as u64, t_csr);
                let sizes = Algorithm::ALL.map(|alg| eval.of(alg).cds.size());
                tr.close(root, tr.mark());
                black_box(eval);
                sizes
            } else {
                let csr = Csr::from_graph(&rep.graph);
                let clustering = cluster(&csr, rep.k, &LowestId, MemberPolicy::IdBased);
                let eval = pipeline::run_all_with(&csr, &clustering, &mut self.scratch);
                let sizes = Algorithm::ALL.map(|alg| eval.of(alg).cds.size());
                black_box(eval);
                sizes
            };
            let (t1, cpu) = (Instant::now(), cpu0.elapsed());
            self.cpu.push(cpu.as_secs_f64() * 1e3);
            out.check(sizes == rep.expected, || {
                format!("replicate {i}: CDS sizes differ from the cold run")
            });
            if (t1 - begin).as_secs_f64() >= seconds {
                return;
            }
        }
    }
}

/// `paper-figures`: see the module docs.
pub fn paper_figures(opts: &Opts, out: &mut Outcome, e2e: &mut Values, layers: &mut Values) {
    let sizes = Sizes::of(opts.scale);
    let par = Parallelism::new(opts.workers);
    let (reps, walks, cds) = prepare(&sizes, opts.seed, par, out);

    // Set-up time: cold builds to a served plan on the largest cell, one
    // round over its instances before each of `builds` equal slices of
    // the loop, so that the builds see the host when the loop does. The
    // instances mix both degrees, whose build times differ; the mean of
    // each instance's median keeps set-up time off the boundary between
    // the two.
    let largest = *sizes.nodes.iter().max().expect("grid has sizes");
    let setup_graphs: Vec<&Graph> = reps
        .iter()
        .filter(|r| r.graph.len() == largest && r.k == 2)
        .map(|r| &r.graph)
        .collect();
    let run = |tr: &mut Tracer, out: &mut Outcome| {
        let mut times = vec![Vec::new(); setup_graphs.len()];
        let mut engine = None;
        let mut lp = ReplicateLoop::new();
        for round in 0..sizes.builds {
            for (i, g) in setup_graphs.iter().enumerate() {
                let cause = (round * setup_graphs.len() + i) as u64;
                engine = Some(cold_build(g, par, tr, out, cause, &mut times[i]));
            }
            lp.run(&reps, opts.seconds / sizes.builds as f64, tr, out);
        }
        let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
        let engine = engine.expect("the grid has N = 200 instances");
        (mean(&medians), engine, lp)
    };
    let (setup_s, engine, lp) = run(&mut Tracer::off(), out);
    record_state(&engine, out, layers);
    let lat = sorted(lp.cpu.clone());
    out.note(stats::describe("replicates (cpu)", &lat));
    e2e.insert("setup_s", setup_s);
    e2e.insert("op_cpu_p50_ms", percentile(&lat, 50.0));
    match stats::tail(&lat, 99.0, "paper-figures replicates") {
        Ok(v) => {
            e2e.insert("op_cpu_tail_ms", v);
        }
        Err(why) => out.check(false, || why),
    }
    e2e.insert(
        "ops_per_cpu_s",
        lp.cpu.len() as f64 / (lp.cpu.iter().sum::<f64>() / 1e3),
    );
    e2e.insert("cds_nodes", cds);
    e2e.insert("route_hops_mean", walks.mean_hops());
    out.note(format!("paper-figures: {} replicate inputs", reps.len()));

    if opts.trace {
        let mut tr = Tracer::on();
        let (_, _, traced) = run(&mut tr, out);
        record_setup_layers(&tr, layers);
        layers.insert("query.cross_cluster_frac", walks.cross_frac());
        finish_trace(
            &tr,
            opts,
            mean(&lp.cpu) / 1e3,
            mean(&traced.cpu) / 1e3,
            out,
            layers,
        );
    }
}

//! End-to-end and per-layer benchmark of the connected k-hop
//! clustering stack.
//!
//! One command runs one of four workloads from a seed and prints every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run) as the last line of its output; see `README.md` for what each
//! workload and metric means.

pub mod chain;
pub mod cli;
pub mod cpu;
pub mod engine;
pub mod flux;
pub mod hub;
pub mod mule;
pub mod oracle;
pub mod paper;
pub mod report;
pub mod stats;
pub mod steady;
pub mod trace;

use report::Outcome;
use std::collections::BTreeMap;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A few movers over a large static field: reconcile cost vs N.
    MuleChurn,
    /// Queries on the large network's hub-layout plan, no reconciles.
    HubServe,
    /// Open-loop queries beside reconciles of a fully mobile network.
    FluxMixed,
    /// The paper's §4 evaluation grid, replicate after replicate.
    PaperFigures,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::MuleChurn,
        Workload::HubServe,
        Workload::FluxMixed,
        Workload::PaperFigures,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MuleChurn => "mule-churn",
            Workload::HubServe => "hub-serve",
            Workload::FluxMixed => "flux-mixed",
            Workload::PaperFigures => "paper-figures",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Engine worker-pool size unless `--workers` says otherwise: 2,
    /// except 1 on `paper-figures`, whose replicates each run on one
    /// thread as each worker of the figure harness runs its share; a
    /// pool at N ≤ 200 would spend half of a set-up build spawning
    /// threads.
    pub fn default_workers(self) -> usize {
        match self {
            Workload::PaperFigures => 1,
            _ => 2,
        }
    }
}

/// Input sizes: the benchmark's own, or tiny ones for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs that exercise the same code in well under a second.
    Tiny,
}

/// One run's options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time of one loop, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Engine worker-pool size.
    pub workers: usize,
    /// Input sizes.
    pub scale: Scale,
    /// Directory the traced run writes its spans to.
    pub out_dir: std::path::PathBuf,
}

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
/// Every workload reports every one; "op" is the workload's timed
/// operation (see `README.md`).
pub const E2E_METRICS: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_tail_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("cds_nodes", "count"),
    ("route_hops_mean", "hops"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, in
/// `BENCHMARK.json` order. A workload that never enters a layer reports
/// 0 for it.
pub const LAYER_METRICS: [(&str, &str); 49] = [
    ("gen.grid_update_ms", "ms"),
    ("gen.edges_churned", "count"),
    ("churn.observe_ms", "ms"),
    ("labels.dirty_heads", "count"),
    ("labels.dirty_frac", "ratio"),
    ("labels.rows_repaired", "count"),
    ("labels.rebuild_fallback", "count"),
    ("labels.advance_ms", "ms"),
    ("churn.repair_ms", "ms"),
    ("repair.orphans", "count"),
    ("repair.merged_pairs", "count"),
    ("repair.node_rounds", "count"),
    ("repair.full_rebuilds", "count"),
    ("churn.publish_ms", "ms"),
    ("pipeline.eval_tail_ms", "ms"),
    ("plan.apply_delta_ms", "ms"),
    ("plan.rebuilt", "count"),
    ("hub.dirty_hubs", "count"),
    ("plan.resweeped_nodes", "count"),
    ("beacon.wall_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("setup.plan_ms", "ms"),
    ("chain.csr_ms", "ms"),
    ("chain.cluster_ms", "ms"),
    ("chain.labels_ms", "ms"),
    ("chain.nc_ms", "ms"),
    ("chain.vg_ms", "ms"),
    ("chain.ac_ms", "ms"),
    ("chain.mesh_ms", "ms"),
    ("chain.lmstga_ms", "ms"),
    ("chain.gmst_ms", "ms"),
    ("chain.cds_ms", "ms"),
    ("chain.compile_ms", "ms"),
    ("labels.bytes", "B"),
    ("plan.bytes", "B"),
    ("plan.inter_bytes", "B"),
    ("labels.sparse", "flag"),
    ("plan.inter_hub", "flag"),
    ("query.service_p50_us", "us"),
    ("query.service_p99_us", "us"),
    ("query.latency_p50_us", "us"),
    ("query.latency_p99_us", "us"),
    ("query.wait_p99_us", "us"),
    ("query.cross_cluster_frac", "ratio"),
    ("query.unroutable", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.steal_frac", "ratio"),
];

/// Metric values a workload produced, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Runs one workload and returns what it measured and checked.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = Values::new();
    let mut layers = Values::new();
    let (steal0, begin) = (report::steal_ticks(), std::time::Instant::now());
    match opts.workload {
        Workload::MuleChurn => mule::mule_churn(opts, &mut out, &mut e2e, &mut layers),
        Workload::HubServe => hub::hub_serve(opts, &mut out, &mut e2e, &mut layers),
        Workload::FluxMixed => flux::flux_mixed(opts, &mut out, &mut e2e, &mut layers),
        Workload::PaperFigures => paper::paper_figures(opts, &mut out, &mut e2e, &mut layers),
    }
    e2e.entry("peak_rss_mb")
        .or_insert_with(|| report::peak_rss_mb().unwrap_or(f64::NAN));
    // Time stolen by other guests on a shared host slows every timing
    // of the run; the share explains outlying runs. Ticks are 1/100 s.
    if let (Some(a), Some(b)) = (steal0, report::steal_ticks()) {
        let cpu_s = begin.elapsed().as_secs_f64() * report::host_cores() as f64;
        let share = (b.saturating_sub(a)) as f64 / 100.0 / cpu_s;
        out.note(format!(
            "host steal during the run: {:.2}% of CPU time",
            share * 100.0
        ));
        layers.insert("host.steal_frac", share);
    }
    for (name, unit) in E2E_METRICS {
        match e2e.get(name) {
            Some(&v) => out.e2e(name, v, unit),
            None if opts.trace => {}
            None => {
                out.check(false, || {
                    format!("{} did not measure {name}", opts.workload.name())
                });
                out.e2e(name, f64::NAN, unit);
            }
        }
    }
    if opts.trace {
        for (name, unit) in LAYER_METRICS {
            out.layer(name, layers.get(name).copied().unwrap_or(0.0), unit);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints,
    /// with the same units, and exactly its workloads.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            v[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().unwrap_or("").to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&E2E_METRICS));
        assert_eq!(names("per_layer"), table(&LAYER_METRICS));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}

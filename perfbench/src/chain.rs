//! The cold evaluation chain, stage by stage.
//!
//! [`run_stages`] performs exactly the work of
//! `pipeline::run_all_with` through the public stage functions it is
//! built from, so the traced run can time each stage; the oracle checks
//! that the assembled result equals the pipeline's own evaluation.

use crate::trace::Tracer;
use adhoc_cluster::adjacency::{self, NeighborRule};
use adhoc_cluster::cds::Cds;
use adhoc_cluster::clustering::{cluster, Clustering, MemberPolicy};
use adhoc_cluster::gateway::{self, LmstgaScratch};
use adhoc_cluster::pipeline::{Algorithm, AlgorithmOutput, EvaluationOutput};
use adhoc_cluster::priority::LowestId;
use adhoc_cluster::virtual_graph::VirtualGraph;
use adhoc_graph::bfs::Adjacency;
use adhoc_graph::labels::{LabelMode, LabelStore};
use adhoc_graph::par::Parallelism;
use std::collections::BTreeMap;

/// Buffers that persist across chain runs, as the pipeline's
/// `EvalScratch` does across replicates.
#[derive(Default)]
pub struct ChainScratch {
    /// Head-label arena (layout picked per build as `LabelMode::Auto`).
    pub labels: LabelStore,
    lmstga: LmstgaScratch,
}

/// Runs `cluster` and then every stage of `run_all_with`, recording one
/// span per stage under `root` (contiguous marks starting at `start`).
#[allow(clippy::too_many_arguments)]
pub fn run_stages<G: Adjacency + Sync>(
    g: &G,
    k: u32,
    cs: &mut ChainScratch,
    par: Parallelism,
    tr: &mut Tracer,
    root: u32,
    cause: u64,
    start: Option<std::time::Instant>,
) -> EvaluationOutput {
    let mut last = start;
    let mut stage = |tr: &mut Tracer, name: &'static str| {
        let now = tr.mark();
        tr.span(name, root, cause, last, now);
        last = now;
    };
    let clustering = cluster(g, k, &LowestId, MemberPolicy::IdBased);
    stage(tr, "chain.cluster");

    let n = g.node_count();
    if LabelMode::Auto.wants_sparse(n, clustering.heads.len()) != cs.labels.is_sparse() {
        cs.labels = LabelStore::for_mode(LabelMode::Auto, n, clustering.heads.len());
    }
    cs.labels.rebuild_with(g, &clustering.heads, 2 * k + 1, par);
    let labels = &cs.labels;
    stage(tr, "chain.labels");

    let nc_sets = adjacency::nc_from_labels(&clustering, labels);
    stage(tr, "chain.nc");

    let nc_graph = VirtualGraph::from_labels(g, &clustering, nc_sets, labels);
    stage(tr, "chain.vg");

    let ac_sets = adjacency::neighbor_clusterheads(g, &clustering, NeighborRule::Adjacent);
    // The pipeline reuses the NC products when the relations coincide.
    let ac_is_nc = ac_sets == nc_graph.neighbor_sets;
    let ac_graph = if ac_is_nc {
        nc_graph.clone()
    } else {
        nc_graph.restricted_to(ac_sets)
    };
    stage(tr, "chain.ac");

    let nc_mesh = gateway::mesh(&nc_graph, &clustering);
    let ac_mesh = if ac_is_nc {
        nc_mesh.clone()
    } else {
        gateway::mesh(&ac_graph, &clustering)
    };
    stage(tr, "chain.mesh");

    let nc_lmst = gateway::lmstga_with(&mut cs.lmstga, &nc_graph, &clustering);
    let ac_lmst = if ac_is_nc {
        nc_lmst.clone()
    } else {
        gateway::lmstga_with(&mut cs.lmstga, &ac_graph, &clustering)
    };
    stage(tr, "chain.lmstga");

    let g_mst = gateway::gmst_via_nc(g, &nc_graph, &clustering);
    stage(tr, "chain.gmst");

    let mut outputs = BTreeMap::new();
    for (alg, selection) in [
        (Algorithm::NcMesh, nc_mesh),
        (Algorithm::AcMesh, ac_mesh),
        (Algorithm::NcLmst, nc_lmst),
        (Algorithm::AcLmst, ac_lmst),
        (Algorithm::GMst, g_mst),
    ] {
        let cds = Cds::assemble(&clustering, &selection);
        outputs.insert(alg, AlgorithmOutput { selection, cds });
    }
    stage(tr, "chain.cds");
    EvaluationOutput {
        clustering,
        nc_graph,
        ac_graph,
        outputs,
    }
}

/// Why two evaluations differ, or `None` when they are equal in every
/// product the stack serves: clustering, both relations, every virtual
/// link path, and each algorithm's selection and CDS.
pub fn eval_mismatch(a: &EvaluationOutput, b: &EvaluationOutput) -> Option<String> {
    if !same_clustering(&a.clustering, &b.clustering) {
        return Some("clustering differs".into());
    }
    for (which, x, y) in [
        ("NC", &a.nc_graph, &b.nc_graph),
        ("AC", &a.ac_graph, &b.ac_graph),
    ] {
        if x.neighbor_sets != y.neighbor_sets {
            return Some(format!("{which} neighbor sets differ"));
        }
        if x.link_count() != y.link_count()
            || x.links().zip(y.links()).any(|(l, r)| l.path != r.path)
        {
            return Some(format!("{which} virtual-link paths differ"));
        }
    }
    for alg in Algorithm::ALL {
        if a.of(alg).selection != b.of(alg).selection || a.of(alg).cds != b.of(alg).cds {
            return Some(format!("{alg} selection or CDS differs"));
        }
    }
    None
}

fn same_clustering(a: &Clustering, b: &Clustering) -> bool {
    a.k == b.k && a.heads == b.heads && a.head_of == b.head_of && a.dist_to_head == b.dist_to_head
}

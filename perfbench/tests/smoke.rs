//! Every workload at tiny size, untraced and traced: the oracle and the
//! guards pass and every metric of the run's kind is reported.

use perfbench::{run, Opts, Scale, Workload, E2E_METRICS, LAYER_METRICS};

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let opts = Opts {
            workload,
            seed: 3,
            seconds: 5.0,
            trace,
            workers: 2,
            scale: Scale::Tiny,
            out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans"),
        };
        let out = run(&opts);
        assert!(
            out.correct(trace),
            "{} trace={trace}: {:?} {:?} {:?}",
            workload.name(),
            out.failures,
            out.e2e,
            out.layers
        );
        assert!(out.attempted > 0 && out.failed == 0);
        let expected: Vec<&str> = if trace {
            LAYER_METRICS.iter().map(|m| m.0).collect()
        } else {
            E2E_METRICS.iter().map(|m| m.0).collect()
        };
        let got: Vec<&str> = if trace { &out.layers } else { &out.e2e }
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(got, expected);
        if !trace {
            assert!(out.e2e.iter().all(|m| m.value > 0.0), "{:?}", out.e2e);
        }
    }
}

#[test]
fn mule_churn_tiny() {
    smoke(Workload::MuleChurn);
}

#[test]
fn hub_serve_tiny() {
    smoke(Workload::HubServe);
}

#[test]
fn flux_mixed_tiny() {
    smoke(Workload::FluxMixed);
}

#[test]
fn paper_figures_tiny() {
    smoke(Workload::PaperFigures);
}

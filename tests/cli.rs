//! End-to-end tests of the `khop` command-line interface: each
//! subcommand is spawned as a real process and its output contract
//! checked.

use std::process::Command;

fn khop(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_khop"))
        .args(args)
        .output()
        .expect("spawn khop")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn gen_then_run_round_trip() {
    let dir = std::env::temp_dir().join(format!("khop-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.txt");
    let net_s = net.to_str().unwrap();

    let out = khop(&["gen", "--n", "60", "--d", "6", "--seed", "5", "--out", net_s]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("60 nodes"));
    assert!(net.exists());

    let out = khop(&["run", "--input", net_s, "--k", "2", "--alg", "ac-lmst"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("AC-LMST on 60 nodes"), "got: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_json_is_parseable_and_consistent() {
    let out = khop(&[
        "run", "--n", "80", "--d", "8", "--seed", "3", "--k", "1", "--alg", "g-mst", "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["algorithm"], "G-MST");
    assert_eq!(v["nodes"], 80);
    let heads = v["clusterheads"].as_array().unwrap().len();
    let gws = v["gateways"].as_array().unwrap().len();
    assert_eq!(v["cds_size"].as_u64().unwrap() as usize, heads + gws);
}

#[test]
fn dist_reports_protocol_phases() {
    let out = khop(&["dist", "--n", "50", "--d", "8", "--seed", "2", "--k", "1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("distributed AC-LMST"));
    assert!(text.contains("total transmissions"));
    assert!(text.contains("clustering"));
}

#[test]
fn exact_reports_ratios() {
    let out = khop(&["exact", "--n", "18", "--d", "5", "--seed", "4", "--k", "1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("proven optimal"), "got: {text}");
    for alg in ["NC-Mesh", "AC-Mesh", "NC-LMST", "AC-LMST", "G-MST"] {
        assert!(text.contains(alg));
    }
}

#[test]
fn exact_refuses_large_networks() {
    let out = khop(&["exact", "--n", "120", "--k", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("40 or fewer"));
}

#[test]
fn maintain_summarizes_savings() {
    let out = khop(&["maintain", "--n", "60", "--k", "2", "--steps", "8", "--seed", "6"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("rebuild-every-step"));
}

#[test]
fn mac_prints_both_strategies() {
    let out = khop(&["mac", "--n", "60", "--d", "8", "--seed", "7", "--cw", "4"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("flood"));
    assert!(text.contains("backbone"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = khop(&["frobnicate"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn dist_rejects_gmst() {
    let out = khop(&["dist", "--n", "50", "--alg", "g-mst"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("centralized"));
}

#[test]
fn unknown_flag_fails_with_usage() {
    // `--nodes` is no flag of any subcommand; `--k` is one of `run`'s
    // but not of `gen`'s. The label storage and the inter-head layout
    // are picked from projected sizes, so `--labels` and `--inter` are
    // no flags either.
    for args in [
        &["churn", "--nodes", "120", "--steps", "2"][..],
        &["gen", "--n", "20", "--k", "2"][..],
        &["run", "--n", "40", "--metric=m.json"][..],
        &["run", "--n", "40", "--labels", "sparse"][..],
        &["churn", "--n", "40", "--steps", "2", "--labels", "dense"][..],
        &["route", "--n", "40", "--inter", "hub"][..],
        &["resilience", "--n", "40", "--labels", "auto"][..],
    ] {
        let out = khop(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// Above the connected-sampling limit `churn` generates a network that
/// need not be connected (instead of resampling until the generator
/// gives up) and says so on stderr.
#[test]
fn churn_generates_at_scale() {
    let out = khop(&["churn", "--n", "5000", "--steps", "1"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.contains("not required to be connected"), "{err}");
}

/// A malformed `--input` file fails with the offending line number and
/// exit code 2, never a panic or a silently different graph.
#[test]
fn info_rejects_malformed_input_with_line_number() {
    let dir = std::env::temp_dir().join(format!("khop-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("bad.txt");
    for (text, line) in [
        ("nodes 3\nedge -1 2\n", 2),
        ("nodes 3\nedge 1 2 99\n", 2),
        ("nodes 3\nedge 0 1\nnodes 3\n", 3),
        ("# big\nnodes 1e30\n", 2),
    ] {
        std::fs::write(&net, text).unwrap();
        let out = khop(&["info", "--input", net.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{text:?}: {err}");
        assert!(err.contains(&format!("line {line}: ")), "{text:?}: {err}");
        assert!(!err.contains("panicked"), "{text:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! The steadiness tool: runs each workload repeatedly, each run with
//! another seed, and prints every metric's median, quartiles and
//! spread (interquartile distance over median) against its bound.

use crate::cli::SteadyOpts;
use crate::report::{git_revision, host_cores};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::process::Command;

/// A metric's bound from `BENCHMARK.json` (`None` for per-layer ones).
fn bounds(key: &str) -> Result<BTreeMap<String, Option<f64>>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json in the working directory: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = v[key]
        .as_array()
        .ok_or(format!("BENCHMARK.json has no {key} list"))?;
    Ok(list
        .iter()
        .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64())))
        .collect())
}

/// One run's result line, parsed.
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("last line is not JSON: {e:?}"))?;
    let metrics = v["metrics"]
        .as_object()
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m["value"].as_f64()?)))
        .collect();
    Ok(RunResult {
        correct: v["correct"].as_bool() == Some(true),
        metrics,
    })
}

/// Runs the tool; returns whether every run was correct and every gated
/// spread stayed below a third of its bound.
pub fn run(o: &SteadyOpts) -> Result<bool, String> {
    let key = if o.trace { "per_layer" } else { "end_to_end" };
    let bounds = bounds(key)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    println!(
        "# steady rev={} host_cores={} runs={} first_seed={} seconds={} trace={}",
        git_revision(),
        host_cores(),
        o.runs,
        o.first_seed,
        o.seconds,
        u8::from(o.trace)
    );
    let mut all_ok = true;
    for w in &o.workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..o.runs {
            let seed = o.first_seed + i as u64;
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            match parse_result(&stdout) {
                Ok(r) if r.correct && output.status.success() => {
                    let line: Vec<String> = r
                        .metrics
                        .iter()
                        .map(|(k, v)| format!("{k}={v:.6}"))
                        .collect();
                    let steal = stdout
                        .lines()
                        .find_map(|l| l.strip_prefix("# host steal during the run: "))
                        .unwrap_or("unknown");
                    println!(
                        "# {} seed {seed}: {} (steal {steal})",
                        w.name(),
                        line.join(" ")
                    );
                    for (k, v) in r.metrics {
                        values.entry(k).or_default().push(v);
                    }
                }
                Ok(_) | Err(_) => {
                    all_ok = false;
                    println!("# {} seed {seed}: run failed ({})", w.name(), output.status);
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                }
            }
        }
        println!("## {}", w.name());
        println!(
            "{:<28} {:>14} {:>14} {:>14} {:>8} {:>7} {:>7}",
            "metric", "median", "q1", "q3", "spread", "bound", "ok"
        );
        for (name, v) in &values {
            if v.len() < 2 {
                continue;
            }
            let (q1, q3) = quartiles(v);
            let s = spread(v);
            let bound = bounds.get(name).copied().flatten();
            let verdict = match bound {
                Some(b) => {
                    let ok = s < b / 3.0;
                    all_ok &= ok;
                    if ok {
                        "yes"
                    } else {
                        "NO"
                    }
                }
                _ => "-",
            };
            println!(
                "{:<28} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>7} {:>7}",
                name,
                median(v),
                q1,
                q3,
                s,
                bound.map_or("-".to_string(), |b| b.to_string()),
                verdict
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_last_line_as_the_result() {
        let out = "# note\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                   {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        let r = parse_result(out).expect("parses");
        assert!(r.correct);
        assert_eq!(r.metrics["setup_s"], 0.5);
        assert!(parse_result("not json").is_err());
    }
}

//! What one run measured and checked, and how it is printed.

use std::fmt::Write as _;

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Failure accounting, metrics and notes of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and oracle checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// A description of each failure (the first few are printed).
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Informational lines printed before the result (layouts, host).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts `n` operations that completed without a detected failure.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one check; a false `ok` is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self, traced: bool) -> bool {
        let metrics = if traced { &self.layers } else { &self.e2e };
        self.failed == 0 && metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (end-to-end metrics untraced, per-layer metrics traced).
    pub fn json_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.layers } else { &self.e2e };
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(traced),
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; `correct` is false then.
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`, summed over all CPUs), in clock ticks.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// The revision of the checkout, read from `.git` in the working
/// directory; `unknown` when the checkout is not a git repository.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().chars().take(12).collect();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.chars().take(12).collect())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.ops(3);
        o.check(true, || "never".into());
        o.e2e("setup_s", 0.8127, "s");
        o.e2e("op_cpu_p50_ms", 1.5, "ms");
        o.layer("churn.observe_ms", 2.0, "ms");
        assert_eq!(
            o.json_line(false),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"op_cpu_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(o.json_line(true).contains("churn.observe_ms"));
        o.check(false, || "mismatch".into());
        assert!(!o.correct(false));
        assert_eq!(o.failed, 1);
        let v: serde_json::Value = serde_json::from_str(&o.json_line(false)).expect("valid JSON");
        assert_eq!(v["attempted"].as_u64(), Some(5));
    }

    #[test]
    fn non_finite_metrics_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.ops(1);
        o.e2e("x", f64::NAN, "ms");
        assert!(!o.correct(false));
        assert!(o.json_line(false).contains("-1"));
    }
}

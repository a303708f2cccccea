//! Strict command-line parsing: an unknown flag, workload or value is a
//! usage error (exit code 2), never a silent default.

use crate::report::host_cores;
use crate::{Opts, Scale, Workload};

/// Where traced runs write their spans, relative to the checkout root.
pub const SPANS_DIR: &str = "perfbench/out";

/// The usage text.
pub const USAGE: &str = "\
usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--workers <w>]
       perfbench steady [--runs <r>] [--first-seed <n>] [--seconds <s>] [--trace 0|1]
                        [--workload <name>]...
workloads: mule-churn, hub-serve, flux-mixed, paper-figures
--seconds   measured time of one loop (default 10, at most 600)
--workers   engine worker-pool size, at most the host's cores (default 2;
            1 on paper-figures, whose replicates each run on one thread)
steady      runs each workload --runs times (default 10) with seeds
            --first-seed, --first-seed + 1, ... (default 1) and prints each
            metric's median, quartiles and spread against its bound";

/// What the command line asked for.
#[derive(Clone, Debug)]
pub enum Command {
    /// One run of one workload.
    Run(Opts),
    /// The steadiness tool.
    Steady(SteadyOpts),
}

/// Options of the steadiness tool.
#[derive(Clone, Debug, PartialEq)]
pub struct SteadyOpts {
    /// Workloads to run (all when none was named).
    pub workloads: Vec<Workload>,
    /// Runs per workload.
    pub runs: usize,
    /// Seed of the first run; later runs count up from it.
    pub first_seed: u64,
    /// `--seconds` passed to each run.
    pub seconds: f64,
    /// `--trace` passed to each run.
    pub trace: bool,
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: {s:?} is not a valid value"))
}

fn seconds(s: &str) -> Result<f64, String> {
    let v: f64 = number("--seconds", s)?;
    if v.is_finite() && v > 0.0 && v <= 600.0 {
        Ok(v)
    } else {
        Err(format!("--seconds must lie in (0, 600], got {s}"))
    }
}

fn trace_flag(s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("--trace must be 0 or 1, got {s:?}")),
    }
}

fn workload(s: &str) -> Result<Workload, String> {
    Workload::parse(s).ok_or_else(|| format!("unknown workload {s:?}"))
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("steady") {
        return parse_steady(&args[1..]).map(Command::Steady);
    }
    let mut it = args.iter();
    let (mut wl, mut seed, mut secs, mut trace, mut workers) = (None, None, 10.0, false, None);
    let mut seen = Vec::new();
    while let Some(flag) = it.next() {
        if seen.contains(flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag.clone());
        match flag.as_str() {
            "--workload" => wl = Some(workload(value(flag, &mut it)?)?),
            "--seed" => seed = Some(number::<u64>(flag, value(flag, &mut it)?)?),
            "--seconds" => secs = seconds(value(flag, &mut it)?)?,
            "--trace" => trace = trace_flag(value(flag, &mut it)?)?,
            "--workers" => workers = Some(number::<usize>(flag, value(flag, &mut it)?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = wl.ok_or("--workload is required")?;
    let workers = check_workers(workers.unwrap_or(workload.default_workers()), host_cores())?;
    Ok(Command::Run(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: secs,
        trace,
        workers,
        scale: Scale::Full,
        out_dir: SPANS_DIR.into(),
    }))
}

/// Refuses a worker count of 0 or above the host's cores: a number
/// measured with more workers than cores would not measure the pool.
pub fn check_workers(workers: usize, cores: usize) -> Result<usize, String> {
    if workers == 0 || workers > cores {
        Err(format!(
            "--workers {workers} refused: the host has {cores} core(s)"
        ))
    } else {
        Ok(workers)
    }
}

fn parse_steady(args: &[String]) -> Result<SteadyOpts, String> {
    let mut o = SteadyOpts {
        workloads: Vec::new(),
        runs: 10,
        first_seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => o.workloads.push(workload(value(flag, &mut it)?)?),
            "--runs" => o.runs = number(flag, value(flag, &mut it)?)?,
            "--first-seed" => o.first_seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => o.seconds = seconds(value(flag, &mut it)?)?,
            "--trace" => o.trace = trace_flag(value(flag, &mut it)?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.runs < 2 {
        return Err("--runs must be at least 2 (quartiles need two values)".into());
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_run_command_line() {
        let Ok(Command::Run(o)) = parse(&args(
            "--workload hub-serve --seed 7 --seconds 10 --trace 1",
        )) else {
            panic!("valid command line refused");
        };
        assert_eq!(o.workload, Workload::HubServe);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        let Ok(Command::Run(o)) = parse(&args("--workload paper-figures --seed 7")) else {
            panic!("valid command line refused");
        };
        assert_eq!(o.workers, 1);
    }

    #[test]
    fn refuses_unknown_or_malformed_input() {
        for bad in [
            "--workload nope --seed 1",
            "--workload hub-serve --seed 1 --bogus 3",
            "--workload hub-serve",
            "--seed 1",
            "--workload hub-serve --seed x",
            "--workload hub-serve --seed 1 --trace 2",
            "--workload hub-serve --seed 1 --seconds 0",
            "--workload hub-serve --seed 1 --seed 2",
            "--workload hub-serve --seed",
            "steady --runs 1",
            "steady --workload nope",
            "steady --frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn refuses_more_workers_than_cores() {
        assert_eq!(check_workers(2, 2), Ok(2));
        assert!(check_workers(3, 2).is_err());
        assert!(check_workers(0, 2).is_err());
    }

    #[test]
    fn steady_defaults_to_every_workload() {
        let Ok(Command::Steady(s)) = parse(&args("steady --runs 5 --first-seed 11")) else {
            panic!("valid steady command refused");
        };
        assert_eq!(s.workloads, Workload::ALL.to_vec());
        assert_eq!((s.runs, s.first_seed), (5, 11));
    }
}

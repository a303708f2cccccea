//! `perfbench`: see `README.md` next to this package's manifest.

use perfbench::cli::{self, Command, USAGE};
use perfbench::report::{git_revision, host_cores};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = match cmd {
        Command::Steady(o) => {
            return match perfbench::steady::run(&o) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(why) => {
                    eprintln!("perfbench steady: {why}");
                    ExitCode::FAILURE
                }
            };
        }
        Command::Run(opts) => opts,
    };
    // The engine's internal default pool size comes from KHOP_WORKERS;
    // pin it to the chosen count so that no part of a run takes its
    // worker count from the caller's environment.
    std::env::set_var("KHOP_WORKERS", opts.workers.to_string());
    println!(
        "# perfbench rev={} host_cores={} workers={} workload={} seed={} seconds={} trace={}",
        git_revision(),
        host_cores(),
        opts.workers,
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let out = perfbench::run(&opts);
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.failures {
        println!("# FAILED: {failure}");
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!("{}", out.json_line(opts.trace));
    if out.correct(opts.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

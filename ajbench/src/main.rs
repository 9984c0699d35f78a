//! `ajbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Exits 1 on
//! any correctness failure, 2 on bad arguments.

use ajbench::{Args, END_TO_END, PER_LAYER};
use std::process::exit;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ajbench: {e}");
            exit(2);
        }
    };
    let report = match ajbench::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ajbench: {e}");
            exit(1);
        }
    };
    for violation in &report.violations {
        eprintln!("ajbench: FAILED: {violation}");
    }
    let declared = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    match report.to_json(declared) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ajbench: {e}");
            exit(1);
        }
    }
    if !report.correct() {
        exit(1);
    }
}

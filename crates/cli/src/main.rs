//! `aj` — command-line front-end for the asynchronous Jacobi reproduction.
//!
//! ```text
//! aj info  --matrix fd4624                       matrix diagnostics
//! aj solve --matrix suite:ecology2 --backend dist-async --ranks 64 --tol 1e-4
//! aj trace --matrix fd272 --threads 68 --iterations 30
//! aj serve --addr 127.0.0.1:4100 --workers 4
//! aj --help
//! ```

mod args;
mod commands;
mod matrix;

use args::Args;

/// Options that never take a value. `Args::parse` needs the list so a
/// boolean flag followed by a positional doesn't swallow the positional
/// as its value.
const BOOLEAN_FLAGS: &[&str] = &["help", "detect"];

const HELP: &str = "\
aj — asynchronous Jacobi solvers (Wolfson-Pou & Chow, IPDPS 2018 reproduction)

USAGE:
  aj <COMMAND> [OPTIONS]

COMMANDS:
  info     print matrix diagnostics (size, nnz, W.D.D., ρ(G), colors)
  solve    run a solver and report the convergence history
  trace    run traced asynchronous Jacobi; report the propagated fraction
           and read-staleness statistics (paper §IV-A / Figure 2)
  obs      inspect a metrics snapshot: `aj obs summary <metrics.json>`
           (per-rank staleness quantiles + ASCII timelines) or
           `aj obs csv <metrics.json>`
  serve    run the concurrent solve service (newline-delimited JSON over
           TCP) until a client sends a shutdown request

MATRIX SELECTORS (--matrix):
  fd40 | fd68 | fd272 | fd4624      the paper's FD Laplacians
  fe                                the paper's FE matrix (ρ(G) > 1)
  suite:NAME[:tiny|small|medium]    Table I analogue (e.g. suite:ecology2)
  mtx:PATH                          a Matrix Market file
  grid:NXxNY                        2-D FD Laplacian of given interior size

SOLVE OPTIONS:
  --backend  sync | gs | cg | async-threads | sim-async | sim-sync |
             dist-sync | dist-async | net[:ranks=N]    (default sync)
             (net runs one OS process per rank exchanging ghost puts
              over loopback TCP; always asynchronous, always stops via
              the termination-detection protocol)
  --threads N        workers for thread/sim backends   (default 4)
  --ranks N          ranks for distributed backends    (default 16;
                     net:ranks=N inline form overrides)
  --tol T            relative residual tolerance       (default 1e-6)
  --max-iters N      iteration cap                     (default 100000)
  --omega W          weight of plain Jacobi            (default 1.0;
                     only with --method jacobi or an outer
                     smooth=/prec=jacobi, not gs/cg)
  --method M         relaxation method (default jacobi):
                       jacobi | richardson1[:omega=<w>|auto] |
                       richardson2[:omega=<w>|auto][:beta=<b>] |
                       rwr[:fraction=<f>]
                     (omega=auto estimates the preconditioned spectrum;
                      applies to Jacobi-family backends, not gs/cg)
  --format F         sweep storage format (default csr):
                       csr | sellc[:c=<2|4|8|16>] | auto
                     (non-csr formats apply to the asynchronous block
                      engines: async-threads, sim-async, dist-async, net;
                      auto measures the row statistics at plan time and
                      picks the cheapest bit-compatible layout)
  --outer O          wrap the backend in an outer solver that uses it for
                     inner smoothing sweeps (default: none — standalone):
                       vcycle[:levels=<L>][:smooth=METHOD][:steps=<K>]
                       fcg[:prec=METHOD][:inner=<K>]
                       fgmres[:prec=METHOD][:inner=<K>][:restart=<M>]
                     (vcycle = multigrid V-cycle, geometric on grid
                      matrices, aggregation AMG otherwise; fcg/fgmres =
                      flexible Krylov with K async sweeps as the
                      preconditioner. Rescues the ρ(G) > 1 divergent
                      cases: `--matrix suite:Dubcova2 --backend sim-async
                      --outer vcycle` converges where standalone async
                      Jacobi blows up)
  --control C        online controller closing the loop from the monitor
                     into the running solve (default off):
                       off | on[:window=<W>][:low=<R>][:high=<R>]
                            [:patience=<K>][:stall=<D>][:shed=<R>]
                            [:rescue=<on|off>]
                     (asynchronous engines only — async-threads,
                      sim-async, dist-async; adapts ω/β from observed
                      staleness-at-use, switches momentum off on stall,
                      sheds persistently slow workers past shed=R, and
                      escalates a stalled run to an outer V-cycle rescue.
                      Conflicts with --outer)
  --seed S           workload seed                     (default 2018)
  --detect           use the distributed termination-detection protocol
                     (dist-async; net always detects)
  --staleness T      presume a rank dead after T without a report
                     (default: never). T is simulated time units with
                     dist-async --detect, wall-clock SECONDS with net
  --pace U           net only: per-sweep pacing in microseconds
                     (default 150; keeps put latency under the sweep
                     period, the regime the paper's model covers)
  --history PATH     write the residual history CSV
  --obs MODE         record metrics: off | sampled[:N] | full (default off;
                     sampled records every Nth observation, default N=16)
  --metrics-out PATH write the metrics snapshot as JSON (implies
                     --obs sampled:16 unless --obs is given)

SERVE OPTIONS:
  --addr A:P         listen address            (default 127.0.0.1:4100)
  --workers N        solver worker threads     (default: CPU count)
  --queue-cap N      admission queue capacity  (default 64)
  --cache-cap N      plan cache capacity       (default 8)
  --store DIR        durable job log: every lifecycle transition is
                     appended (checksummed, fsynced) to DIR before it is
                     acknowledged; on startup the log is replayed and
                     unfinished jobs re-run. Enables idempotent
                     resubmission via \"idempotency_key\" in solve
                     requests. (default: in-memory only)
  --obs MODE         per-solve engine metrics, merged into the service
                     snapshot (off | sampled[:N] | full, default off)
  --metrics-out PATH write the final service snapshot as JSON on shutdown
                     (implies --obs sampled:16 unless --obs is given)

FAULT INJECTION (dist-async; net supports --crash only):
  --crash R@T[+REC]  crash rank R at time T; +REC recovers it REC later.
                     With net: T is milliseconds after the solve starts,
                     the process is killed, and no +REC is possible —
                     pair with --staleness so detection excludes the
                     dead rank (exit code 3, rank listed as excluded)
  --stall R@T+D      stall rank R's sweeps at time T for duration D
                     (both accept comma-separated lists)
  --drop P           drop each put with probability P on every link
  --dup P            duplicate each put with probability P
  --reorder P        delay (reorder) each put with probability P
  --lat-factor F     multiply every link's latency by F
  --fault-seed S     fault RNG seed            (default: --seed)

COMMON:
  --help             this text
  Options also accept the inline form --key=value. Each command accepts
  only the options listed for it above (info and trace: --matrix, --seed;
  trace also --threads, --iterations, --out; obs: --metrics, --width);
  any other option is a usage error (exit code 2) that names it.

EXIT CODES:
  0  success (for solve: the tolerance was met)
  1  runtime failure (bad input file, solver error, I/O error)
  2  usage error (unparseable command line, unknown command, an option
     the command does not read)
  3  solve finished but did NOT meet the tolerance (report still printed)
  4  request rejected (shed) by a solve service instead of executed
     (used by client tooling such as serve_load)
";

fn main() {
    let args = match Args::parse(std::env::args().skip(1), BOOLEAN_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            std::process::exit(commands::EXIT_USAGE);
        }
    };
    if args.has_flag("help") || args.command.is_none() {
        print!("{HELP}");
        return;
    }
    let run = match command(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(commands::EXIT_USAGE);
        }
    };
    let result = run(&args);
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(commands::EXIT_RUNTIME);
        }
    }
}

/// The entry point of the subcommand `args` names, once every option
/// given is one it reads. The hidden `_rank` command is the net backend's
/// child entrypoint: the parent spawns `aj _rank --parent ADDR --rank R`.
fn command(args: &Args) -> Result<commands::Run, String> {
    let name = args.command.as_deref().unwrap_or_default();
    let Some(&(_, run, options)) = commands::COMMANDS.iter().find(|(n, ..)| *n == name) else {
        return Err(format!("unknown command: {name}\n\n{HELP}"));
    };
    args.check_options(name, options)?;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(line: &str) -> Result<commands::Run, String> {
        let words = line.split_whitespace().map(String::from);
        command(&Args::parse(words, BOOLEAN_FLAGS)?)
    }

    #[test]
    fn an_option_the_command_does_not_read_is_a_usage_error() {
        let err = check("solve --matrix grid:8x8 --tolerance 1e-12").unwrap_err();
        assert!(err.contains("--tolerance (it accepts"), "{err}");
        assert!(err.contains("--tol,"), "{err}");
        let err = check("trace --matrix fd68 --method rwr:fraction=0.5").unwrap_err();
        assert!(err.contains("--method (it accepts"), "{err}");
        assert!(err.contains("--iterations"), "{err}");
        // Flags too, and every unknown option is named.
        let err = check("info --matrix fd68 --detect --threads 4").unwrap_err();
        assert!(err.contains("--detect, --threads"), "{err}");
        assert!(check("frobnicate --matrix fd68").is_err());
        assert!(check("info --matrix fd68 --help=false").is_ok());
    }

    #[test]
    fn every_command_line_ci_runs_is_accepted() {
        // One line per `aj` run in CI, each loop at one value (the options,
        // not their values, are checked here), then the lines the net
        // test, `serve_load` and the net parent run.
        for line in [
            "solve --matrix grid:24x24 --backend dist-async --ranks 8 --tol 1e-4 --drop 0.05 \
             --crash 2@1e4+8e3 --metrics-out /tmp/metrics.json",
            "obs summary /tmp/metrics.json",
            "obs csv /tmp/metrics.json",
            "solve --matrix grid:16x16 --backend sim-async --threads 4 --ranks 4 --tol 1e-5 \
             --method rwr:fraction=0.5",
            "solve --matrix grid:16x16 --backend dist-async --threads 4 --ranks 4 --tol 1e-5 \
             --method richardson2:omega=auto --control on",
            "solve --matrix grid:16x16 --backend sim-async --threads 4 --ranks 4 --tol 1e-5 \
             --format sellc:c=8",
            "solve --matrix grid:16x16 --format rcm-blocked",
            "solve --matrix grid:15x15 --backend sync --threads 4 --ranks 4 --tol 1e-7 \
             --outer fcg:prec=richardson2:omega=auto:inner=8",
            "solve --matrix grid:15x15 --backend sim-async --threads 4 --tol 1e-7 \
             --outer fgmres:prec=richardson2:omega=auto",
            "serve --addr 127.0.0.1:4100 --workers 2 --queue-cap 8 --cache-cap 4 \
             --metrics-out /tmp/serve-metrics.json",
            "serve --addr 127.0.0.1:4101 --workers 2 --queue-cap 8 --cache-cap 4",
            "solve --matrix fd68 --backend net:ranks=4 --tol 1e-6",
            "trace --matrix fd68 --threads 4 --iterations 10",
            "solve --matrix fd68 --backend net:ranks=4 --tol 1e-10 --pace 5000 --crash 3@300 \
             --staleness 1.0",
            "serve --addr 127.0.0.1:0 --workers 2 --queue-cap 256 --store /tmp/aj-store",
            "_rank --parent 127.0.0.1:4100 --rank 3",
        ] {
            if let Err(e) = check(line) {
                panic!("{line}: {e}");
            }
        }
    }
}

//! The per-rank worker process (or thread).
//!
//! A child dials the parent, handshakes ([`crate::wire`]), receives its
//! local system as a `job` message, and on `start` enters the racy
//! asynchronous sweep loop of the paper's §V implementation:
//!
//! * **Window** — ghost values live in a `Vec<AtomicU64>` of f64 bit
//!   patterns. The reader thread lands incoming puts element-atomically
//!   while the sweep thread reads, exactly the torn-vector-free /
//!   element-race-allowed semantics of an MPI-3 passive-target window
//!   (DESIGN.md §2). No lock couples communication to compute.
//! * **Generation table** — alongside each ghost slot the sender's
//!   µs-since-start send stamp, so staleness-at-use is measured with the
//!   simulator's definition: age from *generation*, not arrival.
//! * **Pacing** — an optional per-sweep sleep keeps sweep duration in the
//!   same ratio to put latency as the simulator's cost model, so measured
//!   staleness distributions are comparable (DESIGN.md §15).
//! * **Reconnect** — a broken transport is re-dialed with `resume=1`; the
//!   parent replays each neighbour's last committed boundary into our
//!   window and we re-put ours, restoring exactly the state a recovering
//!   MPI rank would re-expose.
//!
//! The loop ends on `stop` (termination detection decided at the parent)
//! or the local sweep cap; either way the child sends `done` carrying its
//! owned block and obs shards, then exits cleanly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aj_linalg::method::relax_block;
use aj_linalg::{sweeps, CooMatrix, CsrMatrix, ResolvedMethod, StorageFormat, SweepKernel};
use aj_obs::{Histogram, Sampler, Snapshot, SpanKind, Timeline};

use crate::wire::{self, DoneMsg, JobMsg, Msg};

/// How long the child keeps re-dialing the parent at startup.
const DIAL_RETRY: Duration = Duration::from_millis(50);
const DIAL_ATTEMPTS: u32 = 100;
/// Handshake read timeout (a parent that accepts but never welcomes).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// Total time budget for one reconnect-and-resync before giving up.
const RECONNECT_BUDGET: Duration = Duration::from_secs(4);

/// State shared between the sweep thread and the reader thread(s).
struct Shared {
    /// Ghost window: f64 bit patterns, one atomic per slot (≈ RMA window).
    window: Vec<AtomicU64>,
    /// Per-slot generation stamp (sender µs at send; 0 = initial value).
    gens: Vec<AtomicU64>,
    /// `stop` received (or locally decided): finish and send `done`.
    stop: AtomicBool,
    /// The transport died mid-run; the sweep thread must reconnect.
    /// Tagged with the connection epoch so a stale reader can't re-break
    /// a fresh connection.
    broken_epoch: AtomicU64,
    /// Current connection epoch (bumped by every successful reconnect).
    conn_epoch: AtomicU64,
    /// Ghost slots written by each in-neighbour, in that link's put order.
    slots_of: HashMap<usize, Vec<usize>>,
    /// Receive-side observability (recorded on the reader thread).
    recv_obs: Mutex<RecvObs>,
}

struct RecvObs {
    put_latency: Histogram,
    put_sampler: Sampler,
}

impl Shared {
    fn broken(&self) -> bool {
        self.broken_epoch.load(Ordering::Acquire) == self.conn_epoch.load(Ordering::Acquire)
    }
}

/// Dials `parent` and performs the hello/welcome handshake. Returns the
/// connection (read half still attached).
fn dial(parent: &str, rank: usize, resume: bool) -> Result<BufReader<TcpStream>, String> {
    let mut last_err = String::from("no attempt");
    for _ in 0..DIAL_ATTEMPTS {
        match TcpStream::connect(parent) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return handshake(stream, rank, resume);
            }
            Err(e) => {
                last_err = e.to_string();
                std::thread::sleep(DIAL_RETRY);
            }
        }
    }
    Err(format!(
        "rank {rank}: cannot reach parent {parent}: {last_err}"
    ))
}

fn handshake(stream: TcpStream, rank: usize, resume: bool) -> Result<BufReader<TcpStream>, String> {
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let hello = Msg::Hello {
        rank,
        proto: wire::PROTO_VERSION,
        resume,
    };
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    send_line(&mut w, &hello)?;
    let mut reader = BufReader::new(stream);
    match read_msg(&mut reader)? {
        Msg::Welcome { proto, .. } => {
            if proto != wire::PROTO_VERSION {
                return Err(format!(
                    "rank {rank}: parent speaks protocol {proto}, we speak {}",
                    wire::PROTO_VERSION
                ));
            }
            // Steady state: reads block until data or disconnect.
            reader
                .get_ref()
                .set_read_timeout(None)
                .map_err(|e| e.to_string())?;
            Ok(reader)
        }
        Msg::Reject { error } => Err(format!("rank {rank}: rejected by parent: {error}")),
        other => Err(format!("rank {rank}: expected welcome, got {other:?}")),
    }
}

fn send_line(w: &mut TcpStream, msg: &Msg) -> Result<(), String> {
    let mut line = wire::render(msg);
    line.push('\n');
    w.write_all(line.as_bytes()).map_err(|e| e.to_string())
}

fn read_msg(reader: &mut BufReader<TcpStream>) -> Result<Msg, String> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if n == 0 {
        return Err("connection closed".into());
    }
    wire::parse(&line)
}

/// Spawns the reader thread for one (re)connected transport. It owns the
/// read half: lands puts into the window, honours `stop`, and flags the
/// epoch broken on EOF or error.
fn spawn_reader(mut reader: BufReader<TcpStream>, shared: Arc<Shared>, t0: Instant, epoch: u64) {
    std::thread::spawn(move || {
        loop {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            let msg = match read_msg(&mut reader) {
                Ok(m) => m,
                Err(_) => {
                    // Only break the epoch we belong to: after a reconnect
                    // this thread's socket is dead by design.
                    if shared.conn_epoch.load(Ordering::Acquire) == epoch {
                        shared.broken_epoch.store(epoch, Ordering::Release);
                    }
                    return;
                }
            };
            match msg {
                Msg::Put {
                    from,
                    sent_us,
                    vals,
                    ..
                } => {
                    let Some(slots) = shared.slots_of.get(&from) else {
                        continue; // not an in-neighbour; ignore
                    };
                    // Element-atomic landing: each slot flips in one store,
                    // concurrent sweeps may see a mix of old and new values
                    // but never a torn f64 — the RMA window contract.
                    for (&slot, &v) in slots.iter().zip(vals.iter()) {
                        shared.window[slot].store(v.to_bits(), Ordering::Release);
                        shared.gens[slot].store(sent_us, Ordering::Release);
                    }
                    let now_us = t0.elapsed().as_micros() as u64;
                    let mut obs = shared.recv_obs.lock().unwrap();
                    if obs.put_sampler.hit() {
                        let latency = now_us.saturating_sub(sent_us);
                        obs.put_latency.record(latency);
                    }
                }
                Msg::Stop => {
                    shared.stop.store(true, Ordering::Release);
                    return;
                }
                // Anything else mid-run (a replayed welcome line, say) is
                // ignorable; the protocol is one-directional here.
                _ => {}
            }
        }
    });
}

/// Runs one rank to completion against `parent` (a `host:port` address).
///
/// This is the body of the hidden `aj _rank` entrypoint, and is also called
/// directly on a thread by the parent's hermetic test mode.
///
/// # Errors
/// Propagates handshake failures, malformed jobs, and a transport that
/// cannot be re-established within the reconnect budget.
pub fn run(parent: &str, rank: usize) -> Result<(), String> {
    let mut reader = dial(parent, rank, false)?;
    let mut writer = reader.get_ref().try_clone().map_err(|e| e.to_string())?;

    // Job then start arrive sequentially before any concurrency begins.
    let job = match read_msg(&mut reader)? {
        Msg::Job(j) => *j,
        other => return Err(format!("rank {rank}: expected job, got {other:?}")),
    };
    match read_msg(&mut reader)? {
        Msg::Start => {}
        Msg::Stop => return Ok(()), // parent aborted before starting
        other => return Err(format!("rank {rank}: expected start, got {other:?}")),
    }
    let t0 = Instant::now();

    let state = build_state(rank, &job)?;
    let shared = Arc::new(Shared {
        window: job.x[job.n_owned..]
            .iter()
            .map(|v| AtomicU64::new(v.to_bits()))
            .collect(),
        gens: (0..job.n_ghost).map(|_| AtomicU64::new(0)).collect(),
        stop: AtomicBool::new(false),
        broken_epoch: AtomicU64::new(u64::MAX),
        conn_epoch: AtomicU64::new(0),
        slots_of: job.recvs.iter().cloned().collect(),
        recv_obs: Mutex::new(RecvObs {
            put_latency: Histogram::new(),
            put_sampler: Sampler::new(job.obs_stride),
        }),
    });
    spawn_reader(reader, Arc::clone(&shared), t0, 0);

    sweep_loop(rank, &job, state, &shared, &mut writer, parent, t0)
}

/// Immutable per-rank solver state built once from the job.
struct RankState {
    matrix: CsrMatrix,
    diag_inv: Vec<f64>,
    kernel: SweepKernel,
    /// The job's method (`omega=auto` is resolved by the parent, never in
    /// a child).
    method: ResolvedMethod,
}

fn build_state(rank: usize, job: &JobMsg) -> Result<RankState, String> {
    let n_owned = job.n_owned;
    let width = n_owned + job.n_ghost;
    if job.x.len() != width || job.b.len() != n_owned || job.indptr.len() != n_owned + 1 {
        return Err(format!("rank {rank}: inconsistent job dimensions"));
    }
    // COO assembly tolerates unsorted rows and re-validates bounds.
    let mut coo = CooMatrix::new(n_owned, width);
    for row in 0..n_owned {
        let (start, end) = (job.indptr[row] as usize, job.indptr[row + 1] as usize);
        if end > job.cols.len() || end > job.vals.len() || start > end {
            return Err(format!("rank {rank}: corrupt indptr in job"));
        }
        for k in start..end {
            let col = job.cols[k] as usize;
            if col >= width {
                return Err(format!("rank {rank}: column {col} out of range in job"));
            }
            coo.push(row, col, job.vals[k]);
        }
    }
    let matrix = coo.to_csr();
    // Owned columns come first, so the local diagonal is the global one.
    let diag_inv = sweeps::inverse_diagonal(&matrix).map_err(|e| format!("rank {rank}: {e}"))?;
    let format = match job.format.as_str() {
        "csr" => StorageFormat::Csr,
        "sellc" => StorageFormat::SellC { c: job.sell_c },
        other => return Err(format!("rank {rank}: unknown storage format '{other}'")),
    };
    let kernel = SweepKernel::build(&matrix, 0..n_owned, format).map_err(|e| e.to_string())?;
    Ok(RankState {
        matrix,
        diag_inv,
        kernel,
        method: job
            .method
            .decode()
            .map_err(|e| format!("rank {rank}: {e}"))?,
    })
}

#[allow(clippy::too_many_arguments)]
fn sweep_loop(
    rank: usize,
    job: &JobMsg,
    state: RankState,
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    parent: &str,
    t0: Instant,
) -> Result<(), String> {
    let n_owned = job.n_owned;
    let width = n_owned + job.n_ghost;
    let mut x = job.x.clone();
    // Momentum state over the owned block (read only by richardson2).
    let mut x_prev: Vec<f64> = x[..n_owned].to_vec();
    let mut residuals = vec![0.0f64; n_owned];

    // Send-side obs shards (merged into one snapshot at the end).
    let mut staleness = Histogram::new();
    let mut sweep_period = Histogram::new();
    let mut timeline = Timeline::new(if job.obs_stride > 0 { 512 } else { 0 });
    let mut sweep_sampler = Sampler::new(job.obs_stride);
    let mut put_sampler = Sampler::new(job.obs_stride);
    let mut last_sweep_end: Option<u64> = None;

    let mut iterations: u64 = 0;
    let mut relaxations: u64 = 0;
    let mut puts_sent: u64 = 0;
    let mut put_values: u64 = 0;
    let mut reports: u64 = 0;
    let mut reconnects: u64 = 0;

    'outer: while !shared.stop.load(Ordering::Acquire) && iterations < job.max_iterations {
        if shared.broken() {
            match reconnect(rank, parent, shared, t0) {
                Ok(w) => {
                    *writer = w;
                    reconnects += 1;
                    // Resync: re-expose our current boundary so neighbours
                    // recover our last committed state, mirroring what a
                    // restarted RMA window would show after re-attach.
                    let now_us = t0.elapsed().as_micros() as u64;
                    for (to, idxs) in &job.sends {
                        let vals: Vec<f64> = idxs.iter().map(|&l| x[l]).collect();
                        put_values += vals.len() as u64;
                        puts_sent += 1;
                        let msg = Msg::Put {
                            from: rank,
                            to: *to,
                            sent_us: now_us,
                            vals,
                        };
                        if send_line(writer, &msg).is_err() {
                            continue 'outer; // broken again; retry loop
                        }
                    }
                }
                Err(e) => {
                    // Give up only if the parent also told us to stop.
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    return Err(e);
                }
            }
        }

        // Gather the freshest window contents into the ghost tail.
        for g in 0..job.n_ghost {
            x[n_owned + g] = f64::from_bits(shared.window[g].load(Ordering::Acquire));
        }
        let now_us = t0.elapsed().as_micros() as u64;
        if sweep_sampler.hit() {
            for g in 0..job.n_ghost {
                let age = now_us.saturating_sub(shared.gens[g].load(Ordering::Acquire));
                staleness.record(age);
            }
            if let Some(prev) = last_sweep_end {
                sweep_period.record(now_us.saturating_sub(prev));
            }
            timeline.push(now_us, SpanKind::SweepEnd);
        }
        last_sweep_end = Some(now_us);

        // Relax the owned block, as dmsim's ranks do. Stream rank+1 keeps
        // rwr's per-rank draws independent (stream 0 belongs to the
        // synchronous reference engine).
        debug_assert_eq!(x.len(), width);
        state
            .kernel
            .residuals_into(&state.matrix, &x, &job.b, &mut residuals);
        let swept = relax_block(
            &state.method,
            &residuals,
            &state.diag_inv,
            &mut x[..n_owned],
            &mut x_prev,
            rank as u64 + 1,
            iterations,
        );
        iterations += 1;
        relaxations += swept as u64;

        // One-sided puts toward every out-neighbour.
        let now_us = t0.elapsed().as_micros() as u64;
        for (to, idxs) in &job.sends {
            let vals: Vec<f64> = idxs.iter().map(|&l| x[l]).collect();
            put_values += vals.len() as u64;
            puts_sent += 1;
            if put_sampler.hit() {
                timeline.push(now_us, SpanKind::PutSend);
            }
            let msg = Msg::Put {
                from: rank,
                to: *to,
                sent_us: now_us,
                vals,
            };
            if send_line(writer, &msg).is_err() {
                continue 'outer; // transport died; reconnect path handles it
            }
        }

        // Residual report toward the root's aggregator.
        if iterations.is_multiple_of(job.check_interval.max(1)) {
            state
                .kernel
                .residuals_into(&state.matrix, &x, &job.b, &mut residuals);
            let norm: f64 = residuals.iter().map(|v| v.abs()).sum();
            reports += 1;
            let msg = Msg::Report {
                rank,
                norm,
                iter: iterations,
            };
            if send_line(writer, &msg).is_err() {
                continue 'outer;
            }
        }

        if job.pace_us > 0 {
            std::thread::sleep(Duration::from_micros(job.pace_us));
        }
    }

    // Final answer. One reconnect attempt if the transport is down — the
    // parent can reconstruct our boundary from cached puts regardless.
    let obs = (job.obs_stride > 0).then(|| {
        let mut snap = Snapshot::new();
        if staleness.count() > 0 {
            snap.merge_histogram(&format!("staleness/rank{rank}"), &staleness);
        }
        if sweep_period.count() > 0 {
            snap.merge_histogram(&format!("sweep_period/rank{rank}"), &sweep_period);
        }
        {
            let robs = shared.recv_obs.lock().unwrap();
            if robs.put_latency.count() > 0 {
                snap.merge_histogram(&format!("put_latency/rank{rank}"), &robs.put_latency);
            }
        }
        snap.set_counter("relaxations", relaxations);
        snap.set_counter("puts_sent", puts_sent);
        snap.set_counter("put_values", put_values);
        if reports > 0 {
            snap.set_counter("term_reports", reports);
        }
        if reconnects > 0 {
            snap.set_counter("reconnects", reconnects);
        }
        if !timeline.is_empty() {
            snap.push_timeline(rank, &timeline);
        }
        snap.to_json()
    });
    let done = Msg::Done(Box::new(DoneMsg {
        rank,
        iters: iterations,
        reports,
        reconnects,
        x: x[..n_owned].to_vec(),
        obs,
    }));
    if send_line(writer, &done).is_err() && !shared.stop.load(Ordering::Acquire) {
        if let Ok(w) = reconnect(rank, parent, shared, t0) {
            *writer = w;
            send_line(writer, &done)?;
        }
    }
    Ok(())
}

/// Re-dials with `resume=1`, installs a fresh reader thread, and bumps the
/// connection epoch. The parent replays neighbours' cached boundary puts to
/// the new connection; the caller re-puts ours.
fn reconnect(
    rank: usize,
    parent: &str,
    shared: &Arc<Shared>,
    t0: Instant,
) -> Result<TcpStream, String> {
    let deadline = Instant::now() + RECONNECT_BUDGET;
    let mut last_err = String::new();
    while Instant::now() < deadline {
        if shared.stop.load(Ordering::Acquire) {
            return Err(format!("rank {rank}: stopped while reconnecting"));
        }
        match dial_once(parent, rank) {
            Ok(reader) => {
                let writer = reader.get_ref().try_clone().map_err(|e| e.to_string())?;
                let epoch = shared.conn_epoch.load(Ordering::Acquire) + 1;
                shared.conn_epoch.store(epoch, Ordering::Release);
                spawn_reader(reader, Arc::clone(shared), t0, epoch);
                return Ok(writer);
            }
            Err(e) => {
                last_err = e;
                std::thread::sleep(DIAL_RETRY);
            }
        }
    }
    Err(format!("rank {rank}: reconnect failed: {last_err}"))
}

fn dial_once(parent: &str, rank: usize) -> Result<BufReader<TcpStream>, String> {
    let stream = TcpStream::connect(parent).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).ok();
    handshake(stream, rank, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MethodMsg;

    /// A two-row subdomain with one ghost, running `method`.
    fn job(method: MethodMsg) -> JobMsg {
        JobMsg {
            n_owned: 2,
            n_ghost: 1,
            indptr: vec![0, 2, 5],
            cols: vec![0, 1, 0, 1, 2],
            vals: vec![1.0, -0.25, -0.25, 1.0, -0.25],
            b: vec![0.5, -0.5],
            x: vec![0.0, 0.1, 0.2],
            sends: Vec::new(),
            recvs: Vec::new(),
            method,
            format: "csr".into(),
            sell_c: 0,
            max_iterations: 10,
            check_interval: 1,
            pace_us: 0,
            obs_stride: 0,
        }
    }

    fn wire(name: &str, omega: f64, beta: f64, fraction: f64) -> MethodMsg {
        MethodMsg {
            name: name.into(),
            omega,
            beta,
            fraction,
            seed: 7,
        }
    }

    #[test]
    fn build_state_accepts_every_method() {
        for method in [
            ResolvedMethod::Jacobi,
            ResolvedMethod::Richardson1 { omega: 0.9 },
            ResolvedMethod::Richardson2 {
                omega: 0.9,
                beta: 0.3,
            },
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 7,
            },
        ] {
            let state = build_state(3, &job(MethodMsg::encode(&method)))
                .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
            assert_eq!(state.method, method, "{}", method.name());
        }
    }

    #[test]
    fn build_state_rejects_out_of_range_method_parameters() {
        let nan = f64::NAN;
        for (msg, what) in [
            (wire("richardson1", 0.0, 0.0, 0.0), "omega"),
            (wire("richardson1", -0.5, 0.0, 0.0), "omega"),
            (wire("richardson1", f64::INFINITY, 0.0, 0.0), "omega"),
            (wire("richardson2", nan, 0.3, 0.0), "omega"),
            (wire("richardson2", 1.0, 1.5, 0.0), "beta"),
            (wire("richardson2", 1.0, -0.1, 0.0), "beta"),
            (wire("richardson2", 1.0, nan, 0.0), "beta"),
            (wire("rwr", 0.0, 0.0, 0.0), "fraction"),
            (wire("rwr", 0.0, 0.0, 1.5), "fraction"),
            (wire("rwr", 0.0, 0.0, nan), "fraction"),
            (wire("sor", 1.0, 0.0, 0.0), "unknown method"),
        ] {
            let name = msg.name.clone();
            let err = build_state(3, &job(msg))
                .err()
                .unwrap_or_else(|| panic!("{name} {what} accepted"));
            assert!(err.starts_with("rank 3: "), "{err}");
            assert!(err.contains(what), "{err}");
        }
    }
}

//! The coordinator process: spawns one worker per rank, routes one-sided
//! puts, runs termination detection, and assembles the global result.
//!
//! ## Topology
//!
//! Workers dial the parent's loopback listener (star topology). Puts are
//! routed through the parent rather than over an N² mesh — the routing hop
//! is part of the measured put latency, exactly like a switch would be, and
//! it gives the parent a natural place to:
//!
//! * account communication volume ([`aj_dmsim::monitor::CommVolume`]);
//! * cache each link's **last committed boundary** so a resumed connection
//!   can be resynced and a dead rank's final boundary state can still be
//!   stitched into the assembled iterate;
//! * feed residual reports into the *same* [`RootAggregator`] the simulator
//!   uses — the termination protocol, staleness-timeout fix included, is
//!   shared code, not a reimplementation.
//!
//! ## Failure semantics
//!
//! A rank that dies mid-solve simply stops reporting. The aggregator's
//! staleness timeout (here in wall-clock seconds) presumes it dead, the
//! surviving ranks converge to the frozen-subdomain limit (DESIGN.md §10),
//! and detection fires with [`TerminationStats::excluded_ranks`] populated
//! — the parent never hangs on a dead peer. Kill/drop hooks exist so tests
//! can inject exactly these failures deterministically.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aj_dmsim::monitor::CommVolume;
use aj_dmsim::termination::RootAggregator;
use aj_dmsim::TerminationStats;
use aj_linalg::{CsrMatrix, ResolvedMethod, StorageFormat};
use aj_obs::{ObsConfig, Snapshot};
use aj_partition::{CommPlan, LocalSystem, SubdomainPlan};

use crate::child;
use crate::wire::{self, JobMsg, MethodMsg, Msg};

/// How workers are launched.
#[derive(Debug, Clone)]
pub enum ChildMode {
    /// One OS process per rank: `<exe> _rank --parent <addr> --rank <r>`.
    /// `None` resolves the executable from `AJ_NET_CHILD` or falls back to
    /// `std::env::current_exe()` (correct inside the `aj` binary itself).
    Process(Option<PathBuf>),
    /// One thread per rank calling [`child::run`] in-process. Hermetic (no
    /// binary needed) — used by aj-net's own tests. Kill hooks are
    /// unavailable; drop hooks work.
    Thread,
}

/// Deterministic failure injection for tests (wall-clock, ms after start).
#[derive(Debug, Clone, Default)]
pub struct NetHooks {
    /// `(rank, at_ms)`: SIGKILL the rank's process (Process mode only).
    pub kills: Vec<(usize, u64)>,
    /// `(rank, at_ms)`: shut down the rank's socket, forcing a
    /// reconnect-and-resync.
    pub drops: Vec<(usize, u64)>,
}

/// Configuration of a multi-process run; the plan it runs fixes the rank
/// count.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Relative residual tolerance (`‖r‖₁ < tol·‖b‖₁`).
    pub tol: f64,
    /// Per-rank sweep cap (safety net when detection never fires).
    pub max_iterations: u64,
    /// Resolved relaxation method (resolve `omega=auto` before this point).
    pub method: ResolvedMethod,
    /// Sweep-kernel storage format.
    pub format: StorageFormat,
    /// Observability recording.
    pub obs: ObsConfig,
    /// Local sweeps between residual reports.
    pub check_interval: u64,
    /// Wall-clock seconds without a report before a rank is presumed dead
    /// (`f64::INFINITY` = never).
    pub staleness_timeout: f64,
    /// Per-sweep pacing sleep in the children (µs); keeps the
    /// staleness-to-sweep-period ratio in the simulator's regime.
    pub pace_us: u64,
    /// Hard wall-clock budget for the whole run.
    pub deadline: Duration,
    /// Worker launch mode.
    pub mode: ChildMode,
    /// Test-only failure injection.
    pub hooks: NetHooks,
}

impl Default for NetConfig {
    /// Jacobi over CSR, tol 1e-6, paced to the simulator's staleness
    /// regime, staleness timeout off.
    fn default() -> Self {
        NetConfig {
            tol: 1e-6,
            max_iterations: 200_000,
            method: ResolvedMethod::Jacobi,
            format: StorageFormat::Csr,
            obs: ObsConfig::off(),
            check_interval: 5,
            staleness_timeout: f64::INFINITY,
            pace_us: 150,
            deadline: Duration::from_secs(120),
            mode: ChildMode::Process(None),
            hooks: NetHooks::default(),
        }
    }
}

/// Result of a multi-process run.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Assembled global iterate (dead ranks contribute their last committed
    /// boundary over the initial interior).
    pub x: Vec<f64>,
    /// `(wall seconds, aggregate relative residual)` at each complete
    /// reporting round seen by the root.
    pub history: Vec<(f64, f64)>,
    /// Total sweeps across ranks (as self-reported in `done`).
    pub iterations: u64,
    /// Puts routed through the parent.
    pub comm: CommVolume,
    /// Termination-protocol observations (wall-clock seconds).
    pub termination: TerminationStats,
    /// Merged observability snapshot (µs units), when recording was on.
    pub obs: Option<Snapshot>,
    /// Wall-clock duration of the solve phase.
    pub wall_secs: f64,
    /// Total child reconnects.
    pub reconnects: u64,
}

enum Event {
    Joined { rank: usize, resume: bool },
    Wire { msg: Msg },
    Down { rank: usize },
}

type Writers = Arc<Mutex<HashMap<usize, TcpStream>>>;

fn send_to(writers: &Writers, rank: usize, msg: &Msg) -> bool {
    let guard = writers.lock().unwrap();
    let Some(stream) = guard.get(&rank) else {
        return false;
    };
    let mut line = wire::render(msg);
    line.push('\n');
    (&*stream).write_all(line.as_bytes()).is_ok()
}

fn broadcast(writers: &Writers, ranks: usize, msg: &Msg) -> u64 {
    (0..ranks)
        .map(|r| u64::from(send_to(writers, r, msg)))
        .sum()
}

/// Builds one rank's job message from its plan and local system.
fn build_job(
    sp: &SubdomainPlan,
    ls: &LocalSystem,
    b: &[f64],
    x0: &[f64],
    cfg: &NetConfig,
) -> JobMsg {
    let local_owned = |g: usize| sp.owned.binary_search(&g).expect("send index not owned");
    let ghost_slot = |g: usize| sp.ghosts.binary_search(&g).expect("recv index not a ghost");
    JobMsg {
        n_owned: ls.n_owned(),
        n_ghost: ls.n_ghost(),
        indptr: ls.matrix.indptr().iter().map(|&v| v as u64).collect(),
        cols: ls.matrix.indices().iter().map(|&v| v as u64).collect(),
        vals: ls.matrix.values().to_vec(),
        b: sp.owned.iter().map(|&g| b[g]).collect(),
        x: sp
            .owned
            .iter()
            .chain(sp.ghosts.iter())
            .map(|&g| x0[g])
            .collect(),
        sends: sp
            .send_to
            .iter()
            .map(|(q, globals)| (*q, globals.iter().map(|&g| local_owned(g)).collect()))
            .collect(),
        recvs: sp
            .recv_from
            .iter()
            .map(|(q, globals)| (*q, globals.iter().map(|&g| ghost_slot(g)).collect()))
            .collect(),
        method: MethodMsg::encode(&cfg.method),
        format: cfg.format.name().to_string(),
        sell_c: match cfg.format {
            StorageFormat::SellC { c } => c,
            _ => 0,
        },
        max_iterations: cfg.max_iterations,
        check_interval: cfg.check_interval.max(1),
        pace_us: cfg.pace_us,
        obs_stride: cfg.obs.stride(),
    }
}

/// Per-connection handler: handshake, registration, then the read loop
/// that turns wire lines into coordinator events.
fn handle_conn(
    stream: TcpStream,
    ranks: usize,
    jobs: Arc<Vec<JobMsg>>,
    writers: Writers,
    tx: SyncSender<Event>,
) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut line = String::new();
    if reader.read_line(&mut line).unwrap_or(0) == 0 {
        return;
    }
    let reject = |why: String| {
        let mut out = wire::render(&Msg::Reject { error: why });
        out.push('\n');
        let _ = (&stream).write_all(out.as_bytes());
    };
    let (rank, resume) = match wire::parse(&line) {
        Ok(Msg::Hello {
            rank,
            proto,
            resume,
        }) => {
            if proto != wire::PROTO_VERSION {
                return reject(format!(
                    "protocol version {proto} unsupported (parent speaks {})",
                    wire::PROTO_VERSION
                ));
            }
            if rank >= ranks {
                return reject(format!("rank {rank} out of range (ranks={ranks})"));
            }
            (rank, resume)
        }
        Ok(_) | Err(_) => return reject("expected hello".into()),
    };
    let welcome = Msg::Welcome {
        proto: wire::PROTO_VERSION,
        ranks,
    };
    let mut out = wire::render(&welcome);
    out.push('\n');
    if !resume {
        // Ship the job in the same flush; `start` comes from the
        // coordinator once every rank is in.
        out.push_str(&wire::render(&Msg::Job(Box::new(jobs[rank].clone()))));
        out.push('\n');
    }
    if (&stream).write_all(out.as_bytes()).is_err() {
        return;
    }
    stream.set_read_timeout(None).ok();
    writers.lock().unwrap().insert(rank, stream);
    if tx.send(Event::Joined { rank, resume }).is_err() {
        return;
    }
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = tx.send(Event::Down { rank });
                return;
            }
            Ok(_) => {
                if let Ok(msg) = wire::parse(&line) {
                    if tx.send(Event::Wire { msg }).is_err() {
                        return;
                    }
                }
            }
        }
    }
}

enum ChildHandle {
    Process(std::process::Child),
    Thread(std::thread::JoinHandle<Result<(), String>>),
}

fn spawn_children(addr: &str, ranks: usize, cfg: &NetConfig) -> Result<Vec<ChildHandle>, String> {
    match &cfg.mode {
        ChildMode::Process(exe) => {
            let exe: PathBuf = match exe {
                Some(p) => p.clone(),
                None => match std::env::var_os("AJ_NET_CHILD") {
                    Some(p) => PathBuf::from(p),
                    None => std::env::current_exe().map_err(|e| e.to_string())?,
                },
            };
            (0..ranks)
                .map(|r| {
                    std::process::Command::new(&exe)
                        .arg("_rank")
                        .arg("--parent")
                        .arg(addr)
                        .arg("--rank")
                        .arg(r.to_string())
                        .spawn()
                        .map(ChildHandle::Process)
                        .map_err(|e| format!("spawn rank {r} ({}): {e}", exe.display()))
                })
                .collect()
        }
        ChildMode::Thread => {
            if !cfg.hooks.kills.is_empty() {
                return Err("kill hooks require ChildMode::Process".into());
            }
            Ok((0..ranks)
                .map(|r| {
                    let addr = addr.to_string();
                    ChildHandle::Thread(std::thread::spawn(move || child::run(&addr, r)))
                })
                .collect())
        }
    }
}

/// Runs the multi-process solve, one rank per part of `plan`.
///
/// # Errors
/// Fails when workers cannot be spawned or joined, when the wall-clock
/// deadline expires, or on listener setup problems. A *converged-or-not*
/// outcome (including dead-rank exclusion) is `Ok` — convergence is judged
/// by the caller from the assembled iterate, as with the simulator.
pub fn run_net(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    plan: &CommPlan,
    cfg: &NetConfig,
) -> Result<NetOutcome, String> {
    let ranks = plan.nparts();
    assert_eq!(a.nrows(), b.len(), "b length mismatch");
    assert_eq!(a.nrows(), x0.len(), "x0 length mismatch");

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;

    let jobs = Arc::new(
        plan.iter()
            .zip(&LocalSystem::build_all(a, plan))
            .map(|(sp, ls)| build_job(sp, ls, b, x0, cfg))
            .collect::<Vec<_>>(),
    );
    let writers: Writers = Arc::new(Mutex::new(HashMap::new()));
    // Bounded: when the coordinator falls behind, handler threads block,
    // their sockets stop being drained, and the kernel's TCP buffers push
    // back on the children's put writes — the same flow control a real
    // interconnect applies to a rank that sweeps faster than the network
    // can carry. Queue depth must NOT become ghost staleness, though: the
    // coordinator drains in batches and coalesces superseded puts (below),
    // so a full queue costs one batch of routing work, not 4096 forwards.
    const EVENT_QUEUE_CAP: usize = 4096;
    let (tx, rx) = mpsc::sync_channel::<Event>(EVENT_QUEUE_CAP);

    // Accept loop: polls until told to stop, handing each connection to a
    // handler thread (initial joins and reconnects look identical here).
    let accept_stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let accept_stop = Arc::clone(&accept_stop);
        let jobs = Arc::clone(&jobs);
        let writers = Arc::clone(&writers);
        let tx = tx.clone();
        std::thread::spawn(move || {
            while !accept_stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        let jobs = Arc::clone(&jobs);
                        let writers = Arc::clone(&writers);
                        let tx = tx.clone();
                        std::thread::spawn(move || handle_conn(stream, ranks, jobs, writers, tx));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        })
    };

    let mut children = spawn_children(&addr, ranks, cfg)?;
    let t_spawn = Instant::now();

    let norm_b = aj_linalg::vecops::norm(b, aj_linalg::vecops::Norm::L1);
    let mut agg = RootAggregator::new(ranks, cfg.tol, norm_b, cfg.staleness_timeout);
    let mut term = TerminationStats::default();
    let mut comm = CommVolume::default();
    let mut history: Vec<(f64, f64)> = Vec::new();
    let mut latest: Vec<Option<f64>> = vec![None; ranks];
    // Last committed boundary per directed link, for resync replay and
    // dead-rank assembly.
    let mut link_cache: HashMap<(usize, usize), (u64, Vec<f64>)> = HashMap::new();
    let mut joined: HashSet<usize> = HashSet::new();
    let mut down: HashSet<usize> = HashSet::new();
    let mut dones: HashMap<usize, wire::DoneMsg> = HashMap::new();
    let mut reconnect_total: u64 = 0;
    let mut started_at: Option<Instant> = None;
    let mut stop_broadcast_at: Option<Instant> = None;
    let mut kills = cfg.hooks.kills.clone();
    let mut drops = cfg.hooks.drops.clone();
    let mut failure: Option<String> = None;
    let mut coalesced: u64 = 0;
    let mut batch: Vec<Event> = Vec::with_capacity(EVENT_QUEUE_CAP);
    let mut newest_put: HashMap<(usize, usize), usize> = HashMap::new();

    loop {
        let now = Instant::now();
        if now.duration_since(t_spawn) > cfg.deadline {
            failure = Some(format!(
                "net backend deadline ({:?}) expired with {}/{} ranks done",
                cfg.deadline,
                dones.len(),
                ranks
            ));
            break;
        }
        if started_at.is_none() && now.duration_since(t_spawn) > Duration::from_secs(30) {
            failure = Some(format!(
                "only {}/{} ranks joined within 30s",
                joined.len(),
                ranks
            ));
            break;
        }
        // Fire due failure hooks (measured from start; before start they
        // wait).
        if let Some(t0) = started_at {
            let ms = now.duration_since(t0).as_millis() as u64;
            kills.retain(|&(r, at)| {
                if ms < at {
                    return true;
                }
                if let Some(ChildHandle::Process(child)) = children.get_mut(r) {
                    let _ = child.kill();
                }
                false
            });
            drops.retain(|&(r, at)| {
                if ms < at {
                    return true;
                }
                if let Some(stream) = writers.lock().unwrap().remove(&r) {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                false
            });
        }
        // Exit: every rank accounted for (done, or stop sent and the rank's
        // transport is gone — a killed rank never sends `done`).
        if dones.len() == ranks {
            break;
        }
        if let Some(t_stop) = stop_broadcast_at {
            let all_accounted = (0..ranks).all(|r| dones.contains_key(&r) || down.contains(&r));
            if all_accounted || now.duration_since(t_stop) > Duration::from_secs(5) {
                break;
            }
        }

        let first = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(e) => e,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Drain everything queued behind the first event and coalesce puts
        // per directed link: with element-atomic last-writer-wins windows, a
        // put that a newer put on the same link has already superseded would
        // never be read by the receiver, so forwarding it only adds queueing
        // delay for every event behind it. Without this, a backed-up queue
        // turns directly into ghost staleness (queue depth × per-forward
        // cost) and the backend silently leaves the modeled regime where a
        // ghost is a fraction of a sweep old — stale-enough ghosts let every
        // rank converge locally against frozen boundaries and trick the
        // termination protocol into a false global decision.
        batch.clear();
        batch.push(first);
        while batch.len() < EVENT_QUEUE_CAP {
            match rx.try_recv() {
                Ok(e) => batch.push(e),
                Err(_) => break,
            }
        }
        newest_put.clear();
        for (i, e) in batch.iter().enumerate() {
            if let Event::Wire {
                msg: Msg::Put { from, to, .. },
            } = e
            {
                newest_put.insert((*from, *to), i);
            }
        }
        for (i, event) in batch.drain(..).enumerate() {
            match event {
                Event::Joined { rank, resume } => {
                    joined.insert(rank);
                    down.remove(&rank);
                    if resume {
                        reconnect_total += 1;
                        // Resync the resumed rank's window from each
                        // in-neighbour's last committed boundary.
                        for (&(from, to), (sent_us, vals)) in &link_cache {
                            if to == rank {
                                send_to(
                                    &writers,
                                    rank,
                                    &Msg::Put {
                                        from,
                                        to,
                                        sent_us: *sent_us,
                                        vals: vals.clone(),
                                    },
                                );
                            }
                        }
                        if agg.decided() {
                            send_to(&writers, rank, &Msg::Stop);
                        }
                    } else if joined.len() == ranks && started_at.is_none() {
                        started_at = Some(Instant::now());
                        broadcast(&writers, ranks, &Msg::Start);
                    }
                }
                Event::Wire { msg } => match msg {
                    Msg::Put {
                        from,
                        to,
                        sent_us,
                        vals,
                    } => {
                        comm.puts += 1;
                        comm.values += vals.len() as u64;
                        if newest_put.get(&(from, to)) == Some(&i) {
                            let forwarded = send_to(
                                &writers,
                                to,
                                &Msg::Put {
                                    from,
                                    to,
                                    sent_us,
                                    vals: vals.clone(),
                                },
                            );
                            if !forwarded {
                                // Dead-window semantics: the put vanishes,
                                // exactly like an RMA put to a crashed rank's
                                // exposure epoch.
                                comm.drops += 1;
                            }
                        } else {
                            // Superseded within this batch — overwritten in the
                            // window before any read could see it.
                            coalesced += 1;
                        }
                        link_cache.insert((from, to), (sent_us, vals));
                    }
                    Msg::Report { rank, norm, .. } => {
                        term.reports_sent += 1;
                        latest[rank] = Some(norm);
                        let elapsed = started_at.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
                        if let Some(rel) = agg.ingest(rank, norm, elapsed) {
                            term.detected_at = Some(elapsed);
                            term.detected_residual = Some(rel);
                            term.excluded_ranks = agg.excluded_ranks().to_vec();
                            term.stops_sent = broadcast(&writers, ranks, &Msg::Stop);
                            stop_broadcast_at = Some(Instant::now());
                            history.push((elapsed, rel));
                        } else if rank == 0 && latest.iter().all(Option::is_some) {
                            // Sample history on rank 0's reporting cadence to
                            // keep the curve bounded on long runs.
                            let total: f64 = latest.iter().flatten().sum();
                            history.push((elapsed, total / norm_b));
                        }
                    }
                    Msg::Done(d) => {
                        dones.insert(d.rank, *d);
                    }
                    _ => {}
                },
                Event::Down { rank } => {
                    down.insert(rank);
                    writers.lock().unwrap().remove(&rank);
                }
            }
        }
    }
    let wall_secs = started_at.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);

    // Teardown: stop stragglers, reap children, halt the accept loop.
    if stop_broadcast_at.is_none() {
        term.stops_sent = broadcast(&writers, ranks, &Msg::Stop);
    }
    let reap_deadline = Instant::now() + Duration::from_secs(5);
    for (r, child) in children.iter_mut().enumerate() {
        match child {
            ChildHandle::Process(p) => loop {
                match p.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < reap_deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = p.kill();
                        let _ = p.wait();
                        break;
                    }
                }
            },
            ChildHandle::Thread(_) => {
                // Joined below; make sure its transport is dead first so a
                // blocked read wakes.
                if !dones.contains_key(&r) {
                    if let Some(stream) = writers.lock().unwrap().get(&r) {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                }
            }
        }
    }
    accept_stop.store(true, Ordering::Release);
    for stream in writers.lock().unwrap().values() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for child in children {
        if let ChildHandle::Thread(h) = child {
            let _ = h.join();
        }
    }
    let _ = accept_thread.join();

    if let Some(err) = failure {
        return Err(err);
    }

    // Assemble the global iterate.
    let mut x = x0.to_vec();
    for (r, d) in &dones {
        let owned = &plan.plan(*r).owned;
        for (l, &g) in owned.iter().enumerate() {
            if let Some(&v) = d.x.get(l) {
                x[g] = v;
            }
        }
    }
    for r in 0..ranks {
        if dones.contains_key(&r) {
            continue;
        }
        // Dead rank: its last committed boundary is still what the
        // neighbours saw — stitch it in from the link cache.
        for (to, globals) in &plan.plan(r).send_to {
            if let Some((_, vals)) = link_cache.get(&(r, *to)) {
                for (&g, &v) in globals.iter().zip(vals.iter()) {
                    x[g] = v;
                }
            }
        }
    }

    // Merge observability: child shards plus parent-side routing totals.
    let obs = cfg.obs.is_on().then(|| {
        let mut snap = Snapshot::new();
        let mut ranks_sorted: Vec<&wire::DoneMsg> = dones.values().collect();
        ranks_sorted.sort_by_key(|d| d.rank);
        for d in ranks_sorted {
            let Some(doc) = &d.obs else { continue };
            let Ok(child_snap) = Snapshot::from_json(doc) else {
                continue;
            };
            for (name, h) in &child_snap.histograms {
                snap.merge_histogram(name, h);
            }
            for (name, v) in &child_snap.counters {
                snap.add_counter(name, *v);
            }
            for tl in &child_snap.timelines {
                snap.timelines.push(tl.clone());
            }
        }
        snap.timelines.sort_by_key(|t| t.rank);
        snap.set_counter("ranks", ranks as u64);
        snap.set_counter("puts_routed", comm.puts);
        if coalesced > 0 {
            snap.set_counter("puts_coalesced", coalesced);
        }
        if reconnect_total > 0 {
            snap.set_counter("reconnects_seen", reconnect_total);
        }
        snap.set_gauge("wall_time_s", wall_secs);
        snap
    });

    let iterations = dones.values().map(|d| d.iters).sum();
    let reconnects = dones
        .values()
        .map(|d| d.reconnects)
        .sum::<u64>()
        .max(reconnect_total);
    Ok(NetOutcome {
        x,
        history,
        iterations,
        comm,
        termination: term,
        obs,
        wall_secs,
        reconnects,
    })
}

//! Dependency-free TCP front end over [`SolveService`].
//!
//! `std::net` only: a nonblocking accept loop that polls a stop flag, one
//! reader thread per connection, and a shared writer guarded by a mutex so
//! worker threads can push completions to the socket *as jobs finish* —
//! responses are correlated by client-chosen `id`, not by order.
//!
//! A `shutdown` request stops the whole server (admission first, then the
//! worker pool, then the accept loop), which is how the CLI's `aj serve`
//! and the `serve_load` harness end a run deterministically.

use crate::job::JobOutcome;
use crate::proto::{self, Request, Response};
use crate::service::{CancelToken, SolveService};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A bound, running TCP server wrapping a [`SolveService`].
pub struct Server {
    service: Arc<SolveService>,
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Live connections by id. Reader threads block in `read_line` with no
    /// timeout; [`Server::run`] shuts these sockets down on exit so every
    /// blocked reader wakes with EOF instead of idling forever.
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over a
    /// running service.
    ///
    /// # Errors
    /// Returns a message when the bind fails.
    pub fn bind(addr: &str, service: SolveService) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        Ok(Server {
            service: Arc::new(service),
            listener,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// The bound address (the actual port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (metrics/cache access while serving).
    pub fn service(&self) -> &Arc<SolveService> {
        &self.service
    }

    /// Serves until a `shutdown` request arrives.
    /// Connection reader threads are detached; they exit on socket EOF or
    /// read errors once the client hangs up.
    ///
    /// # Errors
    /// Returns a message when the listener cannot be polled at all.
    pub fn run(&self) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll listener: {e}"))?;
        let mut next_conn: u64 = 0;
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let conn_id = next_conn;
                    next_conn += 1;
                    if let Ok(clone) = stream.try_clone() {
                        self.conns.lock().unwrap().insert(conn_id, clone);
                    }
                    let service = Arc::clone(&self.service);
                    let stop = Arc::clone(&self.stop);
                    let conns = Arc::clone(&self.conns);
                    std::thread::Builder::new()
                        .name("aj-serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &service, &stop);
                            conns.lock().unwrap().remove(&conn_id);
                        })
                        .map_err(|e| format!("cannot spawn connection thread: {e}"))?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        // Wake every reader parked in a blocking `read_line`: shutting the
        // read half down makes the read return EOF and the thread exit.
        // The write half must stay open — a draining shutdown still has
        // worker callbacks pushing completions through these sockets, and
        // each closes fully once its last writer clone is dropped.
        for (_, conn) in self.conns.lock().unwrap().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        Ok(())
    }
}

/// Sends one response line; errors are swallowed (a client that hung up
/// just stops receiving — the service-side accounting already happened).
fn send(writer: &Mutex<TcpStream>, resp: &Response) {
    let mut line = proto::render_response(resp);
    line.push('\n');
    let mut w = writer.lock().unwrap();
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

/// Queued-job cancel tokens for one connection, by request id.
///
/// Lock ordering: `tokens` may be taken while the service's submit path
/// takes its own internal locks ([`handle_solve`] holds `tokens` across
/// `submit_with`), so nothing that holds a service-side lock may take
/// `tokens`, and [`CancelToken::cancel`] must only ever be called *after*
/// releasing `tokens` — see [`handle_cancel`].
type Tokens = Arc<Mutex<HashMap<u64, CancelToken>>>;

/// Handles one `solve`: submits the job and registers its cancel token.
///
/// The `tokens` lock is deliberately held **across** `submit_with`. The
/// completion callback removes the token by id, and a job that completes
/// before the submitter resumes would otherwise race the insertion: its
/// `remove` finds nothing, the late insert leaves a stale token behind,
/// and a later cancel for a reused id would cancel the wrong job. Holding
/// the lock makes the callback's `remove` block until the insert is done.
/// This is deadlock-free because `submit_with` only enqueues — completions
/// always run on worker threads, never synchronously on this one.
fn handle_solve(
    service: &SolveService,
    writer: &Arc<Mutex<TcpStream>>,
    tokens: &Tokens,
    id: u64,
    spec: crate::job::JobSpec,
) {
    let conn_writer = Arc::clone(writer);
    let tokens_done = Arc::clone(tokens);
    let mut held = tokens.lock().unwrap();
    let submitted = service.submit_with(spec, move |outcome| {
        tokens_done.lock().unwrap().remove(&id);
        let resp = match outcome {
            JobOutcome::Done(result) => Response::Done { id, result },
            JobOutcome::Shed(reason) => Response::Shed { id, reason },
            JobOutcome::Failed(error) => Response::Failed { id, error },
        };
        send(&conn_writer, &resp);
    });
    match submitted {
        Ok(token) => {
            held.insert(id, token);
        }
        Err(reason) => {
            drop(held);
            send(writer, &Response::Shed { id, reason });
        }
    }
}

/// Handles one `cancel`: flips the job's cancel flag, if it is still
/// queued.
///
/// The token is cloned out and the `tokens` lock released *before*
/// `cancel()` runs — calling into the service while holding `tokens`
/// would invert the lock order documented on [`Tokens`].
fn handle_cancel(tokens: &Tokens, id: u64) {
    let token = tokens.lock().unwrap().get(&id).cloned();
    if let Some(token) = token {
        token.cancel();
    }
    // No direct reply: the solve's own response reports
    // `shed/cancelled` if the cancel won the race.
}

fn handle_connection(stream: TcpStream, service: &Arc<SolveService>, stop: &Arc<AtomicBool>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    // Reads block with no timeout — an idle connection costs zero wakeups.
    // `Server::run` shuts the socket down on server stop, which lands here
    // as EOF and ends the thread.
    let mut reader = BufReader::new(stream);
    let tokens: Tokens = Arc::new(Mutex::new(HashMap::new()));
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client hung up (or the server shut us down)
            Ok(_) => {}
            Err(_) => return,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match proto::parse_request(trimmed) {
            Ok(Request::Solve { id, spec }) => handle_solve(service, &writer, &tokens, id, spec),
            Ok(Request::Cancel { id }) => handle_cancel(&tokens, id),
            Ok(Request::Stats) => send(
                &writer,
                &Response::Stats {
                    snapshot: service.metrics_snapshot(),
                },
            ),
            Ok(Request::Shutdown { drain }) => {
                service.shutdown(drain);
                send(&writer, &Response::ShuttingDown);
                stop.store(true, Ordering::SeqCst);
                return;
            }
            Err((id, error)) => send(&writer, &Response::Error { id, error }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::service::ServiceConfig;

    /// Regression: an instant-completing job must never leave a stale
    /// cancel token behind. The completion callback removes the token by
    /// id; before the fix the insert ran *after* `submit_with` returned,
    /// so a job finishing first left its token in the map forever (and a
    /// later cancel for a reused id could hit the wrong job). With the
    /// insert under the lock held across `submit_with`, the map is
    /// provably empty once the response is on the wire.
    #[test]
    fn instant_completion_leaves_no_stale_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let writer = Arc::new(Mutex::new(server_side));
        let service = SolveService::start(ServiceConfig {
            workers: 1,
            queue_cap: 8,
            cache_cap: 2,
            ..Default::default()
        });
        let tokens: Tokens = Arc::new(Mutex::new(HashMap::new()));
        let spec = JobSpec {
            matrix: "fd40".into(),
            backend: "sync".into(),
            tol: 1e-4,
            ..Default::default()
        };
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        // Warm the plan cache, then hammer: each post-warm solve is a few
        // hundred microseconds, tight enough to lose the insert-vs-remove
        // race regularly under the old ordering.
        for id in 0..64u64 {
            handle_solve(&service, &writer, &tokens, id, spec.clone());
            line.clear();
            reader.read_line(&mut line).unwrap();
            let resp = proto::parse_response(line.trim()).unwrap();
            assert!(matches!(resp, Response::Done { id: rid, .. } if rid == id));
            assert!(
                tokens.lock().unwrap().is_empty(),
                "stale cancel token left behind by instant job {id}"
            );
        }
        service.shutdown(true);
    }

    /// `handle_cancel` must call `cancel()` outside the `tokens` lock (the
    /// documented lock order); this pins the observable half — cancelling
    /// a queued job sheds it, cancelling an unknown id is a no-op.
    #[test]
    fn cancel_clones_token_out_of_the_lock_and_sheds_queued_jobs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let writer = Arc::new(Mutex::new(server_side));
        let service = SolveService::start(ServiceConfig {
            workers: 1,
            queue_cap: 8,
            cache_cap: 2,
            ..Default::default()
        });
        let tokens: Tokens = Arc::new(Mutex::new(HashMap::new()));
        // Occupy the only worker so the victim stays queued and its token
        // stays live in the map.
        let blocker = JobSpec {
            matrix: "grid:40x40".into(),
            backend: "sync".into(),
            tol: 1e-14,
            max_iterations: 500_000,
            ..Default::default()
        };
        handle_solve(&service, &writer, &tokens, 0, blocker);
        let victim = JobSpec {
            matrix: "fd40".into(),
            backend: "sync".into(),
            tol: 1e-4,
            ..Default::default()
        };
        handle_solve(&service, &writer, &tokens, 1, victim);
        handle_cancel(&tokens, 99); // unknown id: no-op, no panic
        handle_cancel(&tokens, 1);
        let mut reader = BufReader::new(client);
        let mut outcomes = HashMap::new();
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match proto::parse_response(line.trim()).unwrap() {
                Response::Done { id, .. } => outcomes.insert(id, "done"),
                Response::Shed { id, .. } => outcomes.insert(id, "shed"),
                other => panic!("unexpected response {other:?}"),
            };
        }
        assert_eq!(outcomes[&0], "done");
        assert_eq!(outcomes[&1], "shed");
        service.shutdown(true);
    }
}

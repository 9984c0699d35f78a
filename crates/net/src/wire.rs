//! The aj-net wire protocol: newline-delimited JSON messages over TCP.
//!
//! The framing is the same dependency-free NDJSON the serve layer uses —
//! one JSON object per line, hand-rendered and parsed through
//! [`aj_obs::json`] (the vendored `serde` is an inert stub). Every message
//! carries a `"t"` tag.
//!
//! ## Handshake
//!
//! A child opens with `hello` carrying the protocol version
//! ([`PROTO_VERSION`]) and its rank. The parent answers `welcome` or
//! `reject` with a reason. Version mismatches are rejected outright — the
//! protocol is versioned precisely so a future rolling upgrade can add a
//! compatibility shim here instead of corrupting windows silently.
//!
//! ## Values
//!
//! Bulk f64 arrays (matrix values, iterates, boundary puts) are `hexf64`:
//! each f64 as its 16-digit lowercase-hex IEEE-754 bit pattern, quoted.
//! Bit-lossless — the fixed point a child hands back is exactly what its
//! sweeps produced, and cross-validation against the simulator never
//! chases decimal round-trip noise.
//!
//! Scalar floats outside bulk value arrays (norms, ω) are always decimal;
//! they are thresholds and labels, not window contents.

use aj_linalg::ResolvedMethod;
use aj_obs::json::{self, Value};

/// Protocol version spoken by this build. A peer announcing any other
/// version is rejected during the handshake.
pub const PROTO_VERSION: u64 = 3;

/// The relaxation method a child runs, with every parameter already
/// resolved by the parent (`omega=auto` never runs Lanczos in a child).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodMsg {
    /// `jacobi` | `richardson1` | `richardson2` | `rwr`.
    pub name: String,
    /// Relaxation weight (richardson1/2).
    pub omega: f64,
    /// Momentum coefficient (richardson2).
    pub beta: f64,
    /// Row fraction per sweep (rwr).
    pub fraction: f64,
    /// Selection-stream base seed (rwr).
    pub seed: u64,
}

impl MethodMsg {
    /// The wire form of a resolved method; fields the method does not take
    /// are sent as zero.
    pub fn encode(method: &ResolvedMethod) -> MethodMsg {
        let (omega, beta, fraction, seed) = match *method {
            ResolvedMethod::Jacobi => (0.0, 0.0, 0.0, 0),
            ResolvedMethod::Richardson1 { omega } => (omega, 0.0, 0.0, 0),
            ResolvedMethod::Richardson2 { omega, beta } => (omega, beta, 0.0, 0),
            ResolvedMethod::RandomizedResidual { fraction, seed } => (0.0, 0.0, fraction, seed),
        };
        MethodMsg {
            name: method.name().into(),
            omega,
            beta,
            fraction,
            seed,
        }
    }

    /// The resolved method this message names, with every parameter it
    /// takes checked by [`ResolvedMethod::validate`].
    ///
    /// # Errors
    /// An unknown method name, or a parameter out of its range.
    pub fn decode(&self) -> Result<ResolvedMethod, String> {
        let method = match self.name.as_str() {
            "jacobi" => ResolvedMethod::Jacobi,
            "richardson1" => ResolvedMethod::Richardson1 { omega: self.omega },
            "richardson2" => ResolvedMethod::Richardson2 {
                omega: self.omega,
                beta: self.beta,
            },
            "rwr" => ResolvedMethod::RandomizedResidual {
                fraction: self.fraction,
                seed: self.seed,
            },
            other => return Err(format!("unknown method '{other}' in job")),
        };
        method
            .validate()
            .map_err(|e| format!("{} job: {e}", method.name()))
    }
}

/// Everything a child needs to iterate: its subdomain in local indexing
/// plus the communication schedule and solver knobs. Shipping the local
/// system over the wire (instead of a matrix selector) keeps children free
/// of problem assembly and guarantees parent and children agree on the
/// partition bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMsg {
    /// Owned unknowns.
    pub n_owned: usize,
    /// Ghost-layer width.
    pub n_ghost: usize,
    /// Local CSR row pointers (`n_owned + 1` entries).
    pub indptr: Vec<u64>,
    /// Local CSR column indices (owned `0..n_owned`, then ghosts).
    pub cols: Vec<u64>,
    /// Local CSR values.
    pub vals: Vec<f64>,
    /// Local right-hand side (`n_owned`).
    pub b: Vec<f64>,
    /// Initial iterate, owned then ghost (`n_owned + n_ghost`).
    pub x: Vec<f64>,
    /// Per out-neighbour boundary: `(to, local owned indices to send)`.
    pub sends: Vec<(usize, Vec<usize>)>,
    /// Per in-neighbour ghost map: `(from, ghost slots written, in the
    /// sender's send order)`.
    pub recvs: Vec<(usize, Vec<usize>)>,
    /// Resolved relaxation method.
    pub method: MethodMsg,
    /// Storage format name (`csr` | `sellc`).
    pub format: String,
    /// SELL lane count (when `format == "sellc"`).
    pub sell_c: usize,
    /// Per-rank sweep cap.
    pub max_iterations: u64,
    /// Sweeps between residual reports to the root.
    pub check_interval: u64,
    /// Sleep per sweep (µs) pacing compute against put latency so the
    /// staleness regime matches the simulator's cost model.
    pub pace_us: u64,
    /// Obs stride: 0 = off, 1 = full, N = sampled 1-in-N.
    pub obs_stride: u64,
}

/// A child's final answer: its owned block of the iterate plus counters and
/// an optional [`aj_obs::Snapshot`] JSON document for the parent to merge.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneMsg {
    /// Sender rank.
    pub rank: usize,
    /// Sweeps performed.
    pub iters: u64,
    /// Residual reports sent.
    pub reports: u64,
    /// Times the child re-dialed the parent.
    pub reconnects: u64,
    /// Final owned values (`n_owned`, in owned order).
    pub x: Vec<f64>,
    /// Serialized obs snapshot, when recording was on.
    pub obs: Option<String>,
}

/// One protocol message (the `"t"` tag on the wire).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Child → parent opening: version, rank, and `resume` on a reconnect
    /// after a broken transport.
    Hello {
        /// Announcing rank.
        rank: usize,
        /// Protocol version.
        proto: u64,
        /// True on reconnect (state kept; no new `job`/`start`).
        resume: bool,
    },
    /// Parent → child handshake acceptance.
    Welcome {
        /// Protocol version.
        proto: u64,
        /// Total rank count.
        ranks: usize,
    },
    /// Parent → child handshake refusal (version/rank problems).
    Reject {
        /// Human-readable reason.
        error: String,
    },
    /// Parent → child problem shipment (once, after the first `welcome`).
    Job(Box<JobMsg>),
    /// Parent → all children: clocks start now; begin sweeping.
    Start,
    /// One-sided boundary put, routed through the parent. `sent_us` is the
    /// sender's µs-since-start stamp — the receiver's staleness-at-use and
    /// put-latency measurements both derive from it, mirroring the
    /// simulator's generation ticks.
    Put {
        /// Sending rank.
        from: usize,
        /// Window-owning rank.
        to: usize,
        /// Sender clock at send (µs since `start`).
        sent_us: u64,
        /// Boundary values, in the link's agreed order.
        vals: Vec<f64>,
    },
    /// Child → parent: owned-residual L1 norm for termination detection.
    Report {
        /// Reporting rank.
        rank: usize,
        /// `Σ |b_i − (Ax)_i|` over owned rows.
        norm: f64,
        /// Sweep count at the report.
        iter: u64,
    },
    /// Parent → children: detection fired (or the run is being torn down);
    /// finish the in-flight sweep and send `done`.
    Stop,
    /// Child → parent final answer.
    Done(Box<DoneMsg>),
}

fn push_f64(out: &mut String, v: f64) {
    // Non-finite norms (a diverging run) must stay parseable; saturate
    // instead of emitting JSON null.
    if v.is_finite() {
        json::write_f64(out, v);
    } else if v > 0.0 {
        out.push_str("1e308");
    } else {
        out.push_str("-1e308");
    }
}

fn push_f64_arr(out: &mut String, vals: &[f64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&format!("{:016x}", v.to_bits()));
        out.push('"');
    }
    out.push(']');
}

fn push_u64_arr(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn push_links(out: &mut String, links: &[(usize, Vec<usize>)]) {
    out.push('[');
    for (i, (peer, idxs)) in links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{peer},"));
        let as_u64: Vec<u64> = idxs.iter().map(|&v| v as u64).collect();
        push_u64_arr(out, &as_u64);
        out.push(']');
    }
    out.push(']');
}

/// Renders one message as a single JSON line (no trailing newline).
pub fn render(msg: &Msg) -> String {
    let mut o = String::new();
    match msg {
        Msg::Hello {
            rank,
            proto,
            resume,
        } => {
            o.push_str(&format!(
                "{{\"t\":\"hello\",\"proto\":{proto},\"rank\":{rank},\"resume\":{}}}",
                u64::from(*resume)
            ));
        }
        Msg::Welcome { proto, ranks } => {
            o.push_str(&format!(
                "{{\"t\":\"welcome\",\"proto\":{proto},\"ranks\":{ranks}}}"
            ));
        }
        Msg::Reject { error } => {
            o.push_str("{\"t\":\"reject\",\"error\":");
            json::write_escaped(&mut o, error);
            o.push('}');
        }
        Msg::Job(j) => {
            o.push_str(&format!(
                "{{\"t\":\"job\",\"n_owned\":{},\"n_ghost\":{},",
                j.n_owned, j.n_ghost
            ));
            o.push_str("\"indptr\":");
            push_u64_arr(&mut o, &j.indptr);
            o.push_str(",\"cols\":");
            push_u64_arr(&mut o, &j.cols);
            o.push_str(",\"vals\":");
            push_f64_arr(&mut o, &j.vals);
            o.push_str(",\"b\":");
            push_f64_arr(&mut o, &j.b);
            o.push_str(",\"x\":");
            push_f64_arr(&mut o, &j.x);
            o.push_str(",\"sends\":");
            push_links(&mut o, &j.sends);
            o.push_str(",\"recvs\":");
            push_links(&mut o, &j.recvs);
            o.push_str(",\"method\":{\"name\":");
            json::write_escaped(&mut o, &j.method.name);
            o.push_str(",\"omega\":");
            push_f64(&mut o, j.method.omega);
            o.push_str(",\"beta\":");
            push_f64(&mut o, j.method.beta);
            o.push_str(",\"fraction\":");
            push_f64(&mut o, j.method.fraction);
            o.push_str(&format!(",\"seed\":{}}}", j.method.seed));
            o.push_str(",\"format\":");
            json::write_escaped(&mut o, &j.format);
            o.push_str(&format!(
                ",\"sell_c\":{},\"max_iterations\":{},\"check_interval\":{},\
                 \"pace_us\":{},\"obs_stride\":{}}}",
                j.sell_c, j.max_iterations, j.check_interval, j.pace_us, j.obs_stride
            ));
        }
        Msg::Start => o.push_str("{\"t\":\"start\"}"),
        Msg::Put {
            from,
            to,
            sent_us,
            vals,
        } => {
            o.push_str(&format!(
                "{{\"t\":\"put\",\"from\":{from},\"to\":{to},\"sent_us\":{sent_us},\"vals\":"
            ));
            push_f64_arr(&mut o, vals);
            o.push('}');
        }
        Msg::Report { rank, norm, iter } => {
            o.push_str(&format!(
                "{{\"t\":\"report\",\"rank\":{rank},\"iter\":{iter},\"norm\":"
            ));
            push_f64(&mut o, *norm);
            o.push('}');
        }
        Msg::Stop => o.push_str("{\"t\":\"stop\"}"),
        Msg::Done(d) => {
            o.push_str(&format!(
                "{{\"t\":\"done\",\"rank\":{},\"iters\":{},\"reports\":{},\"reconnects\":{},\"x\":",
                d.rank, d.iters, d.reports, d.reconnects
            ));
            push_f64_arr(&mut o, &d.x);
            match &d.obs {
                Some(snap) => {
                    o.push_str(",\"obs\":");
                    json::write_escaped(&mut o, snap);
                    o.push('}');
                }
                None => o.push_str(",\"obs\":null}"),
            }
        }
    }
    o
}

fn want<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    want(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not a non-negative integer"))
}

fn get_usize(v: &Value, key: &str) -> Result<usize, String> {
    Ok(get_u64(v, key)? as usize)
}

fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    want(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    want(v, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

/// Decodes one `hexf64` element.
fn f64_elem(e: &Value) -> Result<f64, String> {
    let s = e.as_str().ok_or("bad hexf64 element")?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad hexf64 value '{s}'"))
}

fn get_f64_arr(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    want(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field '{key}' is not an array"))?
        .iter()
        .map(f64_elem)
        .collect()
}

fn get_u64_arr(v: &Value, key: &str) -> Result<Vec<u64>, String> {
    want(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field '{key}' is not an array"))?
        .iter()
        .map(|e| e.as_u64().ok_or_else(|| "bad u64 element".to_string()))
        .collect()
}

fn get_links(v: &Value, key: &str) -> Result<Vec<(usize, Vec<usize>)>, String> {
    want(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field '{key}' is not an array"))?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().ok_or("bad link entry")?;
            if pair.len() != 2 {
                return Err("bad link entry".to_string());
            }
            let peer = pair[0].as_u64().ok_or("bad link peer")? as usize;
            let idxs = pair[1]
                .as_arr()
                .ok_or("bad link index list")?
                .iter()
                .map(|e| {
                    e.as_u64()
                        .map(|u| u as usize)
                        .ok_or_else(|| "bad link index".to_string())
                })
                .collect::<Result<Vec<usize>, String>>()?;
            Ok((peer, idxs))
        })
        .collect()
}

/// Parses one wire line into a [`Msg`].
pub fn parse(line: &str) -> Result<Msg, String> {
    let v = json::parse(line.trim())?;
    let t = get_str(&v, "t")?;
    match t {
        "hello" => Ok(Msg::Hello {
            rank: get_usize(&v, "rank")?,
            proto: get_u64(&v, "proto")?,
            resume: get_u64(&v, "resume")? != 0,
        }),
        "welcome" => Ok(Msg::Welcome {
            proto: get_u64(&v, "proto")?,
            ranks: get_usize(&v, "ranks")?,
        }),
        "reject" => Ok(Msg::Reject {
            error: get_str(&v, "error")?.to_string(),
        }),
        "job" => Ok(Msg::Job(Box::new(JobMsg {
            n_owned: get_usize(&v, "n_owned")?,
            n_ghost: get_usize(&v, "n_ghost")?,
            indptr: get_u64_arr(&v, "indptr")?,
            cols: get_u64_arr(&v, "cols")?,
            vals: get_f64_arr(&v, "vals")?,
            b: get_f64_arr(&v, "b")?,
            x: get_f64_arr(&v, "x")?,
            sends: get_links(&v, "sends")?,
            recvs: get_links(&v, "recvs")?,
            method: {
                let m = want(&v, "method")?;
                MethodMsg {
                    name: get_str(m, "name")?.to_string(),
                    omega: get_f64(m, "omega")?,
                    beta: get_f64(m, "beta")?,
                    fraction: get_f64(m, "fraction")?,
                    seed: get_u64(m, "seed")?,
                }
            },
            format: get_str(&v, "format")?.to_string(),
            sell_c: get_usize(&v, "sell_c")?,
            max_iterations: get_u64(&v, "max_iterations")?,
            check_interval: get_u64(&v, "check_interval")?,
            pace_us: get_u64(&v, "pace_us")?,
            obs_stride: get_u64(&v, "obs_stride")?,
        }))),
        "start" => Ok(Msg::Start),
        "put" => Ok(Msg::Put {
            from: get_usize(&v, "from")?,
            to: get_usize(&v, "to")?,
            sent_us: get_u64(&v, "sent_us")?,
            vals: get_f64_arr(&v, "vals")?,
        }),
        "report" => Ok(Msg::Report {
            rank: get_usize(&v, "rank")?,
            norm: get_f64(&v, "norm")?,
            iter: get_u64(&v, "iter")?,
        }),
        "stop" => Ok(Msg::Stop),
        "done" => Ok(Msg::Done(Box::new(DoneMsg {
            rank: get_usize(&v, "rank")?,
            iters: get_u64(&v, "iters")?,
            reports: get_u64(&v, "reports")?,
            reconnects: get_u64(&v, "reconnects")?,
            x: get_f64_arr(&v, "x")?,
            obs: match want(&v, "obs")? {
                Value::Null => None,
                other => Some(
                    other
                        .as_str()
                        .ok_or("field 'obs' is not a string or null")?
                        .to_string(),
                ),
            },
        }))),
        other => Err(format!("unknown message tag '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Msg) {
        let line = render(msg);
        assert!(!line.contains('\n'), "one line per message: {line}");
        let back = parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&back, msg);
    }

    fn sample_job() -> Msg {
        Msg::Job(Box::new(JobMsg {
            n_owned: 3,
            n_ghost: 2,
            indptr: vec![0, 2, 4, 6],
            cols: vec![0, 3, 1, 4, 2, 0],
            vals: vec![1.0, -0.25, 1.0, -0.25, 1.0, -0.25],
            b: vec![0.5, -0.5, 0.25],
            x: vec![0.0, 0.1, 0.2, 0.3, 0.4],
            sends: vec![(1, vec![0, 2])],
            recvs: vec![(1, vec![0, 1])],
            method: MethodMsg {
                name: "richardson2".into(),
                omega: 0.9,
                beta: 0.25,
                fraction: 0.0,
                seed: 7,
            },
            format: "sellc".into(),
            sell_c: 8,
            max_iterations: 10_000,
            check_interval: 5,
            pace_us: 150,
            obs_stride: 1,
        }))
    }

    #[test]
    fn every_message_roundtrips() {
        let msgs = [
            Msg::Hello {
                rank: 3,
                proto: PROTO_VERSION,
                resume: true,
            },
            Msg::Welcome {
                proto: PROTO_VERSION,
                ranks: 4,
            },
            Msg::Reject {
                error: "version 2 \"unsupported\"".into(),
            },
            sample_job(),
            Msg::Start,
            Msg::Put {
                from: 1,
                to: 2,
                sent_us: 123_456,
                vals: vec![1.5, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0],
            },
            Msg::Report {
                rank: 2,
                norm: 3.25e-7,
                iter: 40,
            },
            Msg::Stop,
            Msg::Done(Box::new(DoneMsg {
                rank: 1,
                iters: 400,
                reports: 80,
                reconnects: 1,
                x: vec![0.1, 0.2, 1.0 / 7.0],
                obs: Some("{\"schema\":\"aj-obs/1\"}".into()),
            })),
            Msg::Done(Box::new(DoneMsg {
                rank: 0,
                iters: 1,
                reports: 0,
                reconnects: 0,
                x: vec![],
                obs: None,
            })),
        ];
        for msg in &msgs {
            roundtrip(msg);
        }
    }

    #[test]
    fn hex_codec_is_bit_lossless_for_awkward_values() {
        // 1/3 and the subnormal floor are classic decimal-roundtrip traps;
        // the hex codec must carry them bit-exactly.
        let vals = vec![
            1.0 / 3.0,
            f64::MIN_POSITIVE / 8.0,
            -0.0,
            1e300,
            2.0_f64.powi(-40),
        ];
        let msg = Msg::Put {
            from: 0,
            to: 1,
            sent_us: 9,
            vals: vals.clone(),
        };
        let Msg::Put { vals: back, .. } = parse(&render(&msg)).unwrap() else {
            panic!("wrong tag");
        };
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn a_version_1_hello_decodes_to_a_version_the_parent_rejects() {
        // Version 1 children also sent their codec list; it is ignored, so
        // such a peer meets the version check instead of a parse error.
        // Version 2 hellos look like today's.
        for (proto, line) in [
            (
                1,
                r#"{"t":"hello","proto":1,"rank":2,"resume":0,"codecs":["hexf64","decf64"]}"#,
            ),
            (2, r#"{"t":"hello","proto":2,"rank":2,"resume":0}"#),
        ] {
            let hello = Msg::Hello {
                rank: 2,
                proto,
                resume: false,
            };
            assert_eq!(parse(line), Ok(hello));
            assert_ne!(PROTO_VERSION, proto);
        }
    }

    #[test]
    fn non_finite_norms_stay_parseable() {
        let line = render(&Msg::Report {
            rank: 0,
            norm: f64::INFINITY,
            iter: 1,
        });
        let Msg::Report { norm, .. } = parse(&line).unwrap() else {
            panic!("wrong tag");
        };
        assert!(norm.is_finite() && norm > 1e307);
    }

    #[test]
    fn garbage_lines_error_without_panicking() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"t\":\"warp\"}",
            "{\"t\":\"put\",\"from\":0}",
            "{\"t\":\"put\",\"from\":0,\"to\":1,\"sent_us\":2,\"vals\":[\"zz\"]}",
            "{\"t\":\"put\",\"from\":0,\"to\":1,\"sent_us\":2,\"vals\":[1.5]}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn methods_decode_to_what_was_encoded() {
        for method in [
            ResolvedMethod::Jacobi,
            ResolvedMethod::Richardson1 { omega: 0.9 },
            ResolvedMethod::Richardson2 {
                omega: 0.9,
                beta: 0.25,
            },
            ResolvedMethod::RandomizedResidual {
                fraction: 0.5,
                seed: 7,
            },
        ] {
            assert_eq!(MethodMsg::encode(&method).decode(), Ok(method));
        }
        let mut bad = MethodMsg::encode(&ResolvedMethod::Richardson2 {
            omega: 0.9,
            beta: 0.25,
        });
        bad.beta = 1.5;
        assert_eq!(
            bad.decode(),
            Err("richardson2 job: beta must lie in [0, 1), got 1.5".into())
        );
    }
}

//! String specs shared by every front end.
//!
//! The CLI, the solve service (`aj-serve`), and the load generator all name
//! problems and backends with the same small string grammar; this module is
//! its single home. A *problem spec* is a matrix selector (`fd68`,
//! `suite:ecology2:small`, `grid:64x64`, `mtx:PATH`) plus a seed — also the
//! key of the `aj-serve` plan cache, so equal specs must mean equal
//! assembled [`Problem`]s. A *backend spec* is one of the CLI's backend
//! names plus its worker/rank counts.

use crate::driver::Backend;
use crate::problem::Problem;
use aj_linalg::method::{Method, OmegaSpec};
use aj_linalg::StorageFormat;
use aj_matrices::suite::Scale;
use aj_outer::{OuterKind, OuterSpec};

/// Builds a [`Problem`] from a selector string.
///
/// Selectors: the paper's `fd40|fd68|fd272|fd4624` and `fe` matrices,
/// `suite:NAME[:tiny|small|medium]` Table-I analogues, `mtx:PATH` Matrix
/// Market files, and `grid:NXxNY` 2-D FD Laplacians.
pub fn load_problem(selector: &str, seed: u64) -> Result<Problem, String> {
    if let Some(p) = Problem::paper_fd(selector, seed) {
        return Ok(p);
    }
    if selector == "fe" {
        return Ok(Problem::paper_fe(seed));
    }
    if let Some(rest) = selector.strip_prefix("suite:") {
        let mut parts = rest.split(':');
        let name = parts.next().unwrap_or_default();
        let scale = match parts.next() {
            None | Some("small") => Scale::Small,
            Some("tiny") => Scale::Tiny,
            Some("medium") => Scale::Medium,
            Some(other) => {
                return Err(format!(
                    "unknown scale '{other}' in selector '{selector}' (want tiny|small|medium)"
                ))
            }
        };
        if let Some(extra) = parts.next() {
            return Err(format!(
                "trailing part '{extra}' in selector '{selector}' \
                 (want suite:NAME[:tiny|small|medium])"
            ));
        }
        return Problem::suite(name, scale, seed)
            .ok_or_else(|| format!("unknown suite problem '{name}' in selector '{selector}'"));
    }
    if let Some(path) = selector.strip_prefix("mtx:") {
        return Problem::from_matrix_market(std::path::Path::new(path), seed)
            .map_err(|e| format!("loading {path}: {e}"));
    }
    if let Some(dims) = selector.strip_prefix("grid:") {
        let (nx, ny) = dims
            .split_once('x')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or_else(|| format!("bad grid spec: {dims} (want e.g. grid:64x64)"))?;
        let a = aj_matrices::fd::laplacian_2d(nx, ny);
        return Problem::from_matrix(format!("grid-{nx}x{ny}"), a, seed).map_err(|e| e.to_string());
    }
    Err(format!("unknown matrix selector: {selector} (try --help)"))
}

/// One `name[:key=value]*` selector, split once and then queried by the
/// per-grammar parsers below. Every rejection it builds quotes the full
/// selector and its grammar, so a user never has to guess which part was
/// wrong.
struct Selector<'a> {
    text: &'a str,
    kind: &'static str,
    grammar: &'static str,
    name: &'a str,
    kv: Vec<(&'a str, &'a str)>,
}

impl<'a> Selector<'a> {
    /// Strips an optional `prefix` (so full spec fragments such as
    /// `method=jacobi` pass through verbatim), rejects an empty name, and
    /// splits the rest into the name and its `key=value` parts, rejecting
    /// bare and duplicate keys.
    fn split(
        text: &'a str,
        prefix: &str,
        kind: &'static str,
        grammar: &'static str,
    ) -> Result<Self, String> {
        let mut parts = text.strip_prefix(prefix).unwrap_or(text).split(':');
        let mut sel = Selector {
            text,
            kind,
            grammar,
            name: parts.next().unwrap_or_default(),
            kv: Vec::new(),
        };
        sel.ensure(!sel.name.is_empty(), || format!("empty {kind} name"))?;
        for part in parts {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| sel.err(format!("expected key=value, got '{part}'")))?;
            let seen = sel.kv.iter().any(|&(seen, _)| seen == k);
            sel.ensure(!seen, || format!("duplicate key '{k}'"))?;
            sel.kv.push((k, v));
        }
        Ok(sel)
    }

    /// Rejects every key outside `allowed`, naming the allowed ones.
    fn allow(&self, allowed: &[&str]) -> Result<(), String> {
        for &(k, _) in &self.kv {
            self.ensure(allowed.contains(&k), || {
                let allowed = match allowed {
                    [] => "none".to_string(),
                    keys => keys.join(", "),
                };
                format!(
                    "unknown key '{k}' for {} '{}' (allowed: {allowed})",
                    self.kind, self.name
                )
            })?;
        }
        Ok(())
    }

    /// The value of `key` parsed as `T`; `None` when the key is absent.
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.kv.iter().find(|&&(k, _)| k == key) {
            None => Ok(None),
            Some(&(_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| self.err(format!("invalid value '{v}' for key '{key}'"))),
        }
    }

    /// `Ok` when `ok`, otherwise the rejection `what()`.
    fn ensure(&self, ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(self.err(what()))
        }
    }

    /// A rejection quoting the selector and the grammar.
    fn err(&self, what: impl std::fmt::Display) -> String {
        format!(
            "bad {} selector '{}': {what} (grammar: {})",
            self.kind, self.text, self.grammar
        )
    }
}

/// The accepted relaxation-method grammar, quoted in full by every
/// rejection.
pub const METHOD_GRAMMAR: &str = "jacobi | richardson1[:omega=<w>|auto] \
     | richardson2[:omega=<w>|auto][:beta=<b>] | rwr[:fraction=<f>]";

/// Parses a relaxation-method selector (`jacobi`,
/// `richardson1:omega=auto`, `richardson2:omega=auto:beta=0.3`,
/// `rwr:fraction=0.5`, …) into a [`Method`]. A leading `method=` is
/// accepted. Fixed parameters are range-checked here
/// ([`Method::validate`]).
///
/// Every rejection reports the *full* selector string and the accepted
/// grammar, not just the offending key.
pub fn parse_method(selector: &str) -> Result<Method, String> {
    let sel = Selector::split(selector, "method=", "method", METHOD_GRAMMAR)?;
    let omega = sel.get("omega")?.unwrap_or(OmegaSpec::Auto);
    let method = match sel.name {
        "jacobi" => {
            sel.allow(&[])?;
            Method::Jacobi
        }
        "richardson1" => {
            sel.allow(&["omega"])?;
            Method::Richardson1 { omega }
        }
        "richardson2" => {
            sel.allow(&["omega", "beta"])?;
            Method::Richardson2 {
                omega,
                beta: sel.get("beta")?,
            }
        }
        "rwr" | "randomized" => {
            sel.allow(&["fraction"])?;
            Method::RandomizedResidual {
                fraction: sel.get("fraction")?.unwrap_or(0.5),
            }
        }
        other => return Err(sel.err(format!("unknown method '{other}'"))),
    };
    method.validate().map_err(|e| sel.err(e))?;
    Ok(method)
}

/// The accepted storage-format grammar, quoted in full by every rejection.
pub const FORMAT_GRAMMAR: &str = "csr | sellc[:c=<2|4|8|16>] | auto";

/// Parses a sweep storage-format selector (`csr`, `sellc`, `sellc:c=8`,
/// `auto`) into a [`StorageFormat`]. A leading `format=` is accepted.
///
/// Every rejection reports the *full* selector string and the accepted
/// grammar, not just the offending key.
pub fn parse_format(selector: &str) -> Result<StorageFormat, String> {
    let sel = Selector::split(selector, "format=", "format", FORMAT_GRAMMAR)?;
    match sel.name {
        "csr" => sel.allow(&[]).map(|()| StorageFormat::Csr),
        "auto" => sel.allow(&[]).map(|()| StorageFormat::Auto),
        "sellc" => {
            sel.allow(&["c"])?;
            let c = sel
                .get("c")?
                .unwrap_or(aj_linalg::kernel::DEFAULT_SELL_LANES);
            sel.ensure(aj_linalg::kernel::SELL_LANE_CHOICES.contains(&c), || {
                format!("lane count c must be one of 2|4|8|16, got {c}")
            })?;
            Ok(StorageFormat::SellC { c })
        }
        other => Err(sel.err(format!("unknown format '{other}'"))),
    }
}

/// The accepted controller grammar, quoted in full by every rejection.
/// Staleness thresholds (`low`, `high`, `shed`) are ratios in units of the
/// fastest worker's sweep period; `stall` is the minimum residual decades
/// per observation the stall detector demands over its window.
pub const CONTROL_GRAMMAR: &str = "off | on[:window=<W>][:low=<R>][:high=<R>]\
     [:patience=<K>][:stall=<D>][:shed=<R>][:rescue=<on|off>]";

/// Parses a closed-loop controller selector (`off`, `on`,
/// `on:window=12:high=24:rescue=off`, …) into an optional
/// [`aj_control::ControlConfig`] — `None` means the controller is off and
/// every engine stays bit-identical to its uncontrolled form. A leading
/// `control=` is accepted.
///
/// Every rejection reports the *full* selector string and the accepted
/// grammar, not just the offending key.
pub fn parse_control(selector: &str) -> Result<Option<aj_control::ControlConfig>, String> {
    let sel = Selector::split(selector, "control=", "control", CONTROL_GRAMMAR)?;
    match sel.name {
        "off" => return sel.allow(&[]).map(|()| None),
        "on" => sel.allow(&[
            "window", "low", "high", "patience", "stall", "shed", "rescue",
        ])?,
        other => return Err(sel.err(format!("unknown control mode '{other}'"))),
    }
    let d = aj_control::ControlConfig::default();
    let shed: Option<f64> = sel.get("shed")?;
    let cfg = aj_control::ControlConfig {
        window: sel.get("window")?.unwrap_or(d.window),
        low: sel.get("low")?.unwrap_or(d.low),
        high: sel.get("high")?.unwrap_or(d.high),
        patience: sel.get("patience")?.unwrap_or(d.patience),
        stall_decades: sel.get("stall")?.unwrap_or(d.stall_decades),
        shed_after: shed.unwrap_or(d.shed_after),
        rescue: match sel.get::<String>("rescue")?.as_deref() {
            None => d.rescue,
            Some("on") => true,
            Some("off") => false,
            Some(other) => return Err(sel.err(format!("rescue must be on|off, got '{other}'"))),
        },
    };
    sel.ensure(cfg.window >= 2, || {
        format!("window must be at least 2, got {}", cfg.window)
    })?;
    sel.ensure(cfg.low > 0.0 && cfg.high > cfg.low, || {
        format!(
            "staleness regimes need 0 < low < high, got low={} high={}",
            cfg.low, cfg.high
        )
    })?;
    sel.ensure(cfg.patience >= 1, || "patience must be at least 1".into())?;
    sel.ensure(cfg.stall_decades >= 0.0, || {
        format!("stall decades must be ≥ 0, got {}", cfg.stall_decades)
    })?;
    sel.ensure(shed.is_none_or(|s| s > cfg.high), || {
        format!(
            "shed threshold must exceed high ({}), got {}",
            cfg.high, cfg.shed_after
        )
    })?;
    Ok(Some(cfg))
}

/// The accepted outer-solver grammar, quoted in full by every rejection.
/// The `smooth=`/`prec=` value is a full [`METHOD_GRAMMAR`] selector; its
/// `omega`/`beta`/`fraction` keys nest after it (e.g.
/// `vcycle:smooth=richardson2:omega=auto:steps=2`).
pub const OUTER_GRAMMAR: &str = "vcycle[:levels=<L>][:smooth=METHOD][:steps=<K>] \
     | fcg[:prec=METHOD][:inner=<K>] | fgmres[:prec=METHOD][:inner=<K>][:restart=<M>]";

/// Parses an outer-solver selector (`vcycle`, `vcycle:levels=4:steps=2`,
/// `fcg:prec=jacobi:inner=4`,
/// `fgmres:prec=richardson2:omega=auto:inner=3:restart=20`, …) into an
/// [`OuterSpec`]. A leading `outer=` is accepted.
///
/// The `smooth=` (vcycle) / `prec=` (Krylov) key starts a nested method
/// selector: subsequent `omega=`/`beta=`/`fraction=` parts belong to the
/// method, everything else stays at the outer level. Absent, the smoother
/// defaults to `richardson1:omega=auto` — in smoothing position the auto
/// weight targets the oscillatory half-band, see
/// `aj_outer::smoothing_method`.
///
/// Every rejection reports the *full* selector string and the accepted
/// grammar, not just the offending key.
pub fn parse_outer(selector: &str) -> Result<OuterSpec, String> {
    const METHOD_KEYS: [&str; 3] = ["omega", "beta", "fraction"];
    let sel = Selector::split(selector, "outer=", "outer", OUTER_GRAMMAR)?;
    // One pass over the parts: smooth=/prec= opens the nested method
    // selector and the method keys after it extend it.
    let mut nested: Option<String> = None;
    for &(k, v) in &sel.kv {
        if k == "smooth" || k == "prec" {
            sel.ensure(nested.is_none(), || format!("second method key '{k}'"))?;
            nested = Some(v.to_string());
        } else if METHOD_KEYS.contains(&k) {
            let method = nested.as_mut().ok_or_else(|| {
                sel.err(format!("method key '{k}' before any smooth=/prec= part"))
            })?;
            method.push_str(&format!(":{k}={v}"));
        }
    }
    let count = |key: &str, min: usize| -> Result<Option<usize>, String> {
        let n = sel.get(key)?;
        sel.ensure(n.is_none_or(|n| n >= min), || {
            format!("{key} must be ≥ {min}, got {}", n.unwrap_or_default())
        })?;
        Ok(n)
    };
    let allow = |keys: &[&str]| sel.allow(&[keys, &METHOD_KEYS].concat());
    let kind = match sel.name {
        "vcycle" => {
            allow(&["levels", "smooth", "steps"])?;
            OuterKind::VCycle {
                levels: count("levels", 2)?,
                steps: count("steps", 1)?.unwrap_or(OuterSpec::DEFAULT_STEPS),
            }
        }
        "fcg" => {
            allow(&["prec", "inner"])?;
            OuterKind::Fcg {
                inner: count("inner", 1)?.unwrap_or(OuterSpec::DEFAULT_INNER),
            }
        }
        "fgmres" => {
            allow(&["prec", "inner", "restart"])?;
            OuterKind::Fgmres {
                inner: count("inner", 1)?.unwrap_or(OuterSpec::DEFAULT_INNER),
                restart: count("restart", 1)?.unwrap_or(OuterSpec::DEFAULT_RESTART),
            }
        }
        other => return Err(sel.err(format!("unknown outer solver '{other}'"))),
    };
    let smooth = match nested {
        Some(method) => {
            parse_method(&method).map_err(|e| sel.err(format!("nested method: {e}")))?
        }
        None => OuterSpec::default_smooth(),
    };
    Ok(OuterSpec { kind, smooth })
}

/// The accepted backend grammar, quoted in full by every rejection.
pub const BACKEND_GRAMMAR: &str = "sync | gs | cg | async-threads | sim-async \
     | sim-sync | dist-async | dist-sync | net[:ranks=<N>]";

/// Parses a backend name (`sync`, `gs`, `cg`, `async-threads`, `sim-async`,
/// `sim-sync`, `dist-async`, `dist-sync`, `net[:ranks=N]`) into a
/// [`Backend`], filling in the worker/rank counts the parallel backends
/// need. Only `net` takes a key: its `ranks=` overrides the ambient `ranks`
/// argument. `detect` asks for termination detection, which only the
/// backends whose [`Backend::capabilities`] list it run; any other backend
/// rejects it rather than silently running without.
pub fn parse_backend(
    name: &str,
    threads: usize,
    ranks: usize,
    detect: bool,
) -> Result<Backend, String> {
    let sel = Selector::split(name, "", "backend", BACKEND_GRAMMAR)?;
    let shared = |asynchronous| Backend::SimShared {
        workers: threads,
        asynchronous,
    };
    let dist = |asynchronous| Backend::SimDistributed {
        ranks,
        asynchronous,
        detect,
    };
    let backend = match sel.name {
        "sync" => Backend::Jacobi,
        "gs" => Backend::GaussSeidel,
        "cg" => Backend::ConjugateGradient,
        "async-threads" => Backend::AsyncThreads { workers: threads },
        "sim-async" => shared(true),
        "sim-sync" => shared(false),
        "dist-async" => dist(true),
        "dist-sync" => dist(false),
        "net" => Backend::Net {
            ranks: sel.get("ranks")?.unwrap_or(ranks),
        },
        other => return Err(sel.err(format!("unknown backend '{other}'"))),
    };
    sel.allow(if sel.name == "net" { &["ranks"] } else { &[] })?;
    sel.ensure(!detect || backend.capabilities().detection, || {
        "termination detection (detect) runs on dist-async only (net always detects)".into()
    })?;
    Ok(backend)
}

/// Checks a backend's worker/rank counts against a problem size (every
/// parallel engine needs `1 ≤ count ≤ n`), returning a message suitable for
/// a CLI error or a service rejection.
pub fn validate_backend(backend: &Backend, n: usize) -> Result<(), String> {
    let check = |what: &str, count: usize| {
        if (1..=n).contains(&count) {
            Ok(())
        } else {
            Err(format!(
                "{what} must be in 1..={n} for this matrix (got {count})"
            ))
        }
    };
    match *backend {
        Backend::AsyncThreads { workers } | Backend::SimShared { workers, .. } => {
            check("workers", workers)
        }
        Backend::SimDistributed { ranks, .. } | Backend::Net { ranks } => check("ranks", ranks),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_resolve() {
        assert_eq!(load_problem("fd68", 1).unwrap().n(), 68);
        assert_eq!(load_problem("fe", 1).unwrap().n(), 3136);
        assert!(load_problem("suite:ecology2:tiny", 1).unwrap().n() > 1000);
        assert_eq!(load_problem("grid:5x7", 1).unwrap().n(), 35);
    }

    #[test]
    fn bad_selectors_error() {
        assert!(load_problem("nope", 1).is_err());
        assert!(load_problem("suite:nope", 1).is_err());
        assert!(load_problem("suite:ecology2:giant", 1).is_err());
        assert!(load_problem("grid:5by7", 1).is_err());
        assert!(load_problem("mtx:/does/not/exist.mtx", 1).is_err());
    }

    #[test]
    fn selector_errors_quote_the_full_selector() {
        for bad in [
            "suite:ecology2:giant",
            "suite:nope",
            "suite:ecology2:tiny:junk",
        ] {
            let err = load_problem(bad, 1).unwrap_err();
            assert!(err.contains(bad), "error '{err}' must quote '{bad}'");
        }
    }

    #[test]
    fn methods_parse() {
        use aj_linalg::method::{Method, OmegaSpec};
        assert_eq!(parse_method("jacobi").unwrap(), Method::Jacobi);
        assert_eq!(parse_method("method=jacobi").unwrap(), Method::Jacobi);
        assert_eq!(
            parse_method("richardson1").unwrap(),
            Method::Richardson1 {
                omega: OmegaSpec::Auto
            }
        );
        assert_eq!(
            parse_method("richardson1:omega=0.8").unwrap(),
            Method::Richardson1 {
                omega: OmegaSpec::Fixed(0.8)
            }
        );
        assert_eq!(
            parse_method("method=richardson2:omega=auto").unwrap(),
            Method::Richardson2 {
                omega: OmegaSpec::Auto,
                beta: None
            }
        );
        assert_eq!(
            parse_method("richardson2:omega=0.9:beta=0.25").unwrap(),
            Method::Richardson2 {
                omega: OmegaSpec::Fixed(0.9),
                beta: Some(0.25)
            }
        );
        assert_eq!(
            parse_method("rwr").unwrap(),
            Method::RandomizedResidual { fraction: 0.5 }
        );
        assert_eq!(
            parse_method("randomized:fraction=0.25").unwrap(),
            Method::RandomizedResidual { fraction: 0.25 }
        );
    }

    #[test]
    fn method_rejections_quote_selector_and_grammar() {
        // One case per rejection path: empty name, unknown method, bare key
        // without '=', duplicate key, unknown key for the method, bad
        // numeric value, and out-of-range parameters.
        for bad in [
            "",
            "method=",
            "sor",
            "richardson1:omega",
            "richardson1:omega=0.8:omega=0.9",
            "jacobi:omega=0.5",
            "richardson1:beta=0.5",
            "richardson2:fraction=0.5",
            "rwr:omega=auto",
            "richardson1:omega=fast",
            "richardson2:beta=nope",
            "rwr:fraction=zero",
            "richardson2:beta=1.5",
            "rwr:fraction=0",
            "rwr:fraction=1.5",
            "richardson1:omega=nan",
            "richardson1:omega=inf",
            "richardson1:omega=0",
            "richardson1:omega=-1",
            "richardson2:omega=nan",
        ] {
            let err = parse_method(bad).unwrap_err();
            assert!(err.contains(bad), "error '{err}' must quote '{bad}'");
            assert!(
                err.contains(METHOD_GRAMMAR),
                "error '{err}' must state the grammar"
            );
        }
    }

    #[test]
    fn resolved_method_spec_roundtrips_through_the_grammar() {
        use aj_linalg::method::Method;
        let p = load_problem("fd68", 1).unwrap();
        let m = parse_method("richardson2:omega=auto").unwrap();
        let resolved = m.resolve(&p.a, 1).unwrap();
        // A resolved method re-enters through its canonical selector with
        // the parameters already fixed — no second spectrum estimate.
        let reparsed = parse_method(&resolved.to_spec()).unwrap();
        assert!(matches!(
            reparsed,
            Method::Richardson2 { beta: Some(_), .. }
        ));
        assert_eq!(reparsed.resolve(&p.a, 1).unwrap(), resolved);
    }

    #[test]
    fn formats_parse() {
        assert_eq!(parse_format("csr").unwrap(), StorageFormat::Csr);
        assert_eq!(parse_format("format=csr").unwrap(), StorageFormat::Csr);
        assert_eq!(
            parse_format("sellc").unwrap(),
            StorageFormat::SellC {
                c: aj_linalg::kernel::DEFAULT_SELL_LANES
            }
        );
        for c in aj_linalg::kernel::SELL_LANE_CHOICES {
            assert_eq!(
                parse_format(&format!("sellc:c={c}")).unwrap(),
                StorageFormat::SellC { c }
            );
        }
        assert_eq!(parse_format("auto").unwrap(), StorageFormat::Auto);
        assert_eq!(parse_format("format=auto").unwrap(), StorageFormat::Auto);
        assert!(parse_format("auto:c=8").is_err());
        // Canonical spec strings re-parse to the same format.
        for f in [
            StorageFormat::Csr,
            StorageFormat::SellC { c: 4 },
            StorageFormat::Auto,
        ] {
            assert_eq!(parse_format(&f.to_spec()).unwrap(), f);
        }
    }

    #[test]
    fn outers_parse() {
        assert_eq!(
            parse_outer("vcycle").unwrap(),
            OuterSpec {
                kind: OuterKind::VCycle {
                    levels: None,
                    steps: OuterSpec::DEFAULT_STEPS
                },
                smooth: OuterSpec::default_smooth(),
            }
        );
        assert_eq!(
            parse_outer("outer=vcycle:levels=4:smooth=jacobi:steps=3").unwrap(),
            OuterSpec {
                kind: OuterKind::VCycle {
                    levels: Some(4),
                    steps: 3
                },
                smooth: Method::Jacobi,
            }
        );
        // Nested method keys attach to the preceding smooth=/prec= part,
        // in any interleaving with outer keys.
        assert_eq!(
            parse_outer("vcycle:smooth=richardson2:omega=auto:beta=0.3:steps=1").unwrap(),
            OuterSpec {
                kind: OuterKind::VCycle {
                    levels: None,
                    steps: 1
                },
                smooth: Method::Richardson2 {
                    omega: OmegaSpec::Auto,
                    beta: Some(0.3)
                },
            }
        );
        assert_eq!(
            parse_outer("fcg:prec=rwr:fraction=0.25:inner=6").unwrap(),
            OuterSpec {
                kind: OuterKind::Fcg { inner: 6 },
                smooth: Method::RandomizedResidual { fraction: 0.25 },
            }
        );
        assert_eq!(
            parse_outer("fgmres").unwrap(),
            OuterSpec {
                kind: OuterKind::Fgmres {
                    inner: OuterSpec::DEFAULT_INNER,
                    restart: OuterSpec::DEFAULT_RESTART
                },
                smooth: OuterSpec::default_smooth(),
            }
        );
        // Canonical spec strings re-parse to the same value.
        for sel in [
            "vcycle",
            "vcycle:levels=3:smooth=richardson1:omega=0.7:steps=2",
            "fcg:prec=jacobi:inner=2",
            "fgmres:prec=richardson2:omega=auto:inner=3:restart=10",
        ] {
            let spec = parse_outer(sel).unwrap();
            assert_eq!(parse_outer(&spec.to_spec()).unwrap(), spec);
        }
    }

    #[test]
    fn outer_rejections_quote_selector_and_grammar() {
        // One case per rejection path: empty name, unknown solver, bare key
        // without '=', duplicate keys (outer and nested-method starters),
        // method keys with no method, wrong method key for the family,
        // keys of the other family, bad numeric values, and a broken
        // nested method selector.
        for bad in [
            "",
            "outer=",
            "wcycle",
            "vcycle:steps",
            "vcycle:steps=2:steps=3",
            "vcycle:smooth=jacobi:smooth=jacobi",
            "vcycle:omega=0.5",
            "vcycle:prec=jacobi",
            "fcg:smooth=jacobi",
            "vcycle:inner=4",
            "fcg:steps=2",
            "fcg:levels=3",
            "fgmres:restart=0",
            "vcycle:levels=1",
            "vcycle:steps=0",
            "fcg:inner=0",
            "vcycle:levels=two",
            "vcycle:smooth=sor",
            "fcg:prec=rwr:fraction=1.5",
        ] {
            let err = parse_outer(bad).unwrap_err();
            assert!(err.contains(bad), "error '{err}' must quote '{bad}'");
            assert!(
                err.contains(OUTER_GRAMMAR),
                "error '{err}' must state the grammar"
            );
        }
    }

    #[test]
    fn format_rejections_quote_selector_and_grammar() {
        // One case per rejection path: empty name, unknown format, bare key
        // without '=', duplicate key, unknown key for the format, bad
        // numeric value, and an unsupported lane count.
        for bad in [
            "",
            "format=",
            "ellpack",
            "sellc:c",
            "sellc:c=4:c=8",
            "csr:c=8",
            "rcm-blocked",
            "sellc:lanes=8",
            "sellc:c=eight",
            "sellc:c=3",
            "sellc:c=0",
            "sellc:c=32",
        ] {
            let err = parse_format(bad).unwrap_err();
            assert!(err.contains(bad), "error '{err}' must quote '{bad}'");
            assert!(
                err.contains(FORMAT_GRAMMAR),
                "error '{err}' must state the grammar"
            );
        }
    }

    #[test]
    fn control_selectors_parse() {
        assert_eq!(parse_control("off").unwrap(), None);
        assert_eq!(parse_control("control=off").unwrap(), None);
        assert_eq!(
            parse_control("on").unwrap(),
            Some(aj_control::ControlConfig::default())
        );
        let cfg = parse_control(
            "control=on:window=12:low=2:high=24:patience=6:stall=0.05:shed=96:rescue=off",
        )
        .unwrap()
        .unwrap();
        assert_eq!(cfg.window, 12);
        assert_eq!(cfg.low, 2.0);
        assert_eq!(cfg.high, 24.0);
        assert_eq!(cfg.patience, 6);
        assert_eq!(cfg.stall_decades, 0.05);
        assert_eq!(cfg.shed_after, 96.0);
        assert!(!cfg.rescue);
    }

    #[test]
    fn control_rejections_quote_selector_and_grammar() {
        // One case per rejection path: empty selector, unknown mode, keys
        // on 'off', bare key without '=', duplicate key, unknown key, bad
        // numeric values, degenerate window/regimes/patience, shed below
        // the high threshold, and a non on|off rescue value.
        for bad in [
            "",
            "control=",
            "auto",
            "off:window=4",
            "on:window",
            "on:window=4:window=8",
            "on:gain=2",
            "on:window=two",
            "on:window=1",
            "on:low=0",
            "on:low=8:high=4",
            "on:patience=0",
            "on:stall=-1",
            "on:shed=8",
            "on:rescue=maybe",
        ] {
            let err = parse_control(bad).unwrap_err();
            assert!(err.contains(bad), "error '{err}' must quote '{bad}'");
            assert!(
                err.contains(CONTROL_GRAMMAR),
                "error '{err}' must state the grammar"
            );
        }
    }

    #[test]
    fn backends_parse_and_validate() {
        assert_eq!(
            parse_backend("sync", 4, 16, false).unwrap(),
            Backend::Jacobi
        );
        assert_eq!(
            parse_backend("dist-async", 4, 16, true).unwrap(),
            Backend::SimDistributed {
                ranks: 16,
                asynchronous: true,
                detect: true
            }
        );
        assert!(parse_backend("warp-drive", 4, 16, false).is_err());
        let b = parse_backend("dist-async", 4, 16, false).unwrap();
        assert!(validate_backend(&b, 68).is_ok());
        assert!(validate_backend(&b, 8).is_err());
        assert!(validate_backend(&Backend::Jacobi, 1).is_ok());
    }

    #[test]
    fn net_backend_parses_with_and_without_ranks() {
        assert_eq!(
            parse_backend("net", 4, 16, false).unwrap(),
            Backend::Net { ranks: 16 }
        );
        assert_eq!(
            parse_backend("net:ranks=4", 4, 16, false).unwrap(),
            Backend::Net { ranks: 4 }
        );
        let b = parse_backend("net:ranks=4", 4, 16, false).unwrap();
        assert!(validate_backend(&b, 68).is_ok());
        assert!(validate_backend(&b, 2).is_err());
    }

    #[test]
    fn backend_rejections_quote_selector_and_grammar() {
        // One case per rejection path: unknown backend, kv suffix on a
        // non-net backend, bare key without '=', duplicate key, unknown
        // key, and a bad numeric value.
        for bad in [
            "warp-drive",
            "dist-async:ranks=4",
            "net:ranks",
            "net:ranks=4:ranks=8",
            "net:workers=4",
            "net:ranks=many",
        ] {
            let err = parse_backend(bad, 4, 16, false).unwrap_err();
            assert!(err.contains(bad), "error '{err}' must quote '{bad}'");
            assert!(
                err.contains(BACKEND_GRAMMAR),
                "error '{err}' must state the grammar"
            );
        }
    }
}

//! LRU plan cache: assembled problems plus their distributed
//! communication plans, keyed by `(matrix selector, seed)`.
//!
//! Problem assembly is the expensive, perfectly reusable prefix of every
//! solve: generator/suite construction, unit-diagonal scaling, and — for
//! distributed backends — the O(nnz) partition/ghost/send-list build
//! ([`aj_core::prepare_dist_plan`]). Two jobs with equal specs assemble
//! bit-identical state (construction is a pure function of the key), so a
//! bounded LRU of `Arc`s is safe to share across the worker pool: entries
//! evicted while a solve still holds the `Arc` simply live until that
//! solve drops it.

use aj_core::linalg::method::ResolvedMethod;
use aj_core::outer::OuterKind;
use aj_core::partition::CommPlan;
use aj_core::{prepare_dist_plan, spec, Hierarchy, OuterSpec, Problem};
use aj_obs::Counter;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Cache key: exactly the spec fields problem assembly depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Matrix selector string.
    pub selector: String,
    /// Problem seed (`b`/`x0` are drawn from it).
    pub seed: u64,
}

/// One cached entry: the assembled problem and, lazily, the communication
/// plan per distributed rank count it has been solved with.
#[derive(Debug)]
pub struct CachedPlan {
    /// The assembled problem.
    pub problem: Arc<Problem>,
    /// `(ranks, plan)` pairs, built on first use per rank count.
    dist_plans: Mutex<Vec<(usize, Arc<CommPlan>)>>,
    /// `(method selector, (seed, resolved))` pairs: `omega=auto` selectors
    /// run a Lanczos spectrum estimate against this problem's matrix, so
    /// the resolution is memoized exactly like the distributed plans.
    methods: Mutex<Vec<(String, u64, ResolvedMethod)>>,
    /// `(outer selector, parsed spec, hierarchy)` triples. The hierarchy —
    /// the O(levels·nnz) coarsening for `vcycle` — is the expensive part,
    /// memoized exactly like the distributed plans; the Krylov kinds carry
    /// `None`.
    outers: Mutex<Vec<OuterResolution>>,
}

/// One memoized outer resolution: selector → parsed spec + optional
/// hierarchy (`vcycle` only).
type OuterResolution = (String, OuterSpec, Option<Arc<Hierarchy>>);

impl CachedPlan {
    fn new(problem: Problem) -> Self {
        CachedPlan {
            problem: Arc::new(problem),
            dist_plans: Mutex::new(Vec::new()),
            methods: Mutex::new(Vec::new()),
            outers: Mutex::new(Vec::new()),
        }
    }

    /// The communication plan for `ranks` parts, building and memoizing it
    /// on first request. Distinct rank counts per problem are few (one per
    /// workload variant), so a linear scan beats a map.
    pub fn dist_plan(&self, ranks: usize) -> Arc<CommPlan> {
        let mut plans = self.dist_plans.lock().unwrap();
        if let Some((_, p)) = plans.iter().find(|(r, _)| *r == ranks) {
            return Arc::clone(p);
        }
        let plan = Arc::new(prepare_dist_plan(&self.problem, ranks));
        plans.push((ranks, Arc::clone(&plan)));
        plan
    }

    /// Number of memoized per-rank-count plans (test hook).
    pub fn dist_plan_count(&self) -> usize {
        self.dist_plans.lock().unwrap().len()
    }

    /// Resolves a method selector against this problem's matrix, memoizing
    /// the result per `(selector, seed)` so repeat `omega=auto` solves skip
    /// the spectrum estimate. Distinct selectors per problem are few, so a
    /// linear scan beats a map (same reasoning as [`CachedPlan::dist_plan`]).
    ///
    /// # Errors
    /// Propagates parse errors (full grammar in the message) and resolution
    /// failures (e.g. `omega=auto` on a non-SPD operator).
    pub fn resolve_method(&self, selector: &str, seed: u64) -> Result<ResolvedMethod, String> {
        {
            let methods = self.methods.lock().unwrap();
            if let Some((_, _, m)) = methods
                .iter()
                .find(|(sel, s, _)| sel == selector && *s == seed)
            {
                return Ok(*m);
            }
        }
        // Parse + resolve outside the lock (Lanczos on a large matrix is
        // slow); two racing misses both resolve identically, and the loser
        // adopts the winner's entry.
        let resolved = spec::parse_method(selector)?
            .resolve(&self.problem.a, seed)
            .map_err(|e| format!("method '{selector}': {e}"))?;
        let mut methods = self.methods.lock().unwrap();
        if let Some((_, _, m)) = methods
            .iter()
            .find(|(sel, s, _)| sel == selector && *s == seed)
        {
            return Ok(*m);
        }
        methods.push((selector.to_string(), seed, resolved));
        Ok(resolved)
    }

    /// Number of memoized method resolutions (test hook).
    pub fn resolved_method_count(&self) -> usize {
        self.methods.lock().unwrap().len()
    }

    /// Parses an outer selector and, for `vcycle`, builds this problem's
    /// multigrid hierarchy — memoized per selector string so repeat outer
    /// solves skip the O(levels·nnz) coarsening (the outer analogue of
    /// [`CachedPlan::dist_plan`]).
    ///
    /// # Errors
    /// Propagates parse errors (full grammar in the message) and hierarchy
    /// construction failures.
    pub fn resolve_outer(
        &self,
        selector: &str,
    ) -> Result<(OuterSpec, Option<Arc<Hierarchy>>), String> {
        {
            let outers = self.outers.lock().unwrap();
            if let Some((_, spec, h)) = outers.iter().find(|(sel, _, _)| sel == selector) {
                return Ok((*spec, h.clone()));
            }
        }
        // Parse + coarsen outside the lock (the hierarchy build walks the
        // matrix per level); racing misses build identical state and the
        // loser adopts the winner's entry.
        let parsed = spec::parse_outer(selector)?;
        let hierarchy = match parsed.kind {
            OuterKind::VCycle { levels, .. } => Some(Arc::new(
                Hierarchy::build(&self.problem.a, levels)
                    .map_err(|e| format!("outer '{selector}': hierarchy: {e}"))?,
            )),
            _ => None,
        };
        let mut outers = self.outers.lock().unwrap();
        if let Some((_, spec, h)) = outers.iter().find(|(sel, _, _)| sel == selector) {
            return Ok((*spec, h.clone()));
        }
        outers.push((selector.to_string(), parsed, hierarchy.clone()));
        Ok((parsed, hierarchy))
    }

    /// Number of memoized outer resolutions (test hook).
    pub fn resolved_outer_count(&self) -> usize {
        self.outers.lock().unwrap().len()
    }
}

/// Bounded LRU over [`CachedPlan`]s with hit/miss/eviction counters.
#[derive(Debug)]
pub struct PlanCache {
    /// Front = most recently used.
    entries: Mutex<VecDeque<(PlanKey, Arc<CachedPlan>)>>,
    cap: usize,
    /// Lookups answered from the cache.
    pub hits: Counter,
    /// Lookups that had to assemble the problem.
    pub misses: Counter,
    /// Entries pushed out by the capacity bound.
    pub evictions: Counter,
}

impl PlanCache {
    /// An empty cache holding at most `cap` entries (`cap` 0 is clamped to
    /// 1 — a cache that can hold nothing would still be correct but makes
    /// every lookup a rebuild).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            entries: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// The entry for `(selector, seed)`, assembling the problem on a miss.
    /// Returns the plan and whether it was a hit. Assembly runs *outside*
    /// the cache lock so a slow build (a `medium` suite problem) never
    /// stalls hits on other keys; two racing misses on one key both build,
    /// and the loser adopts the winner's entry.
    pub fn get_or_build(
        &self,
        selector: &str,
        seed: u64,
    ) -> Result<(Arc<CachedPlan>, bool), String> {
        let key = PlanKey {
            selector: selector.to_string(),
            seed,
        };
        if let Some(hit) = self.lookup(&key) {
            self.hits.inc();
            return Ok((hit, true));
        }
        self.misses.inc();
        let built = Arc::new(CachedPlan::new(spec::load_problem(selector, seed)?));
        let mut entries = self.entries.lock().unwrap();
        // Another worker may have built the same key while we did; keep the
        // incumbent so both jobs share one problem from here on.
        if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
            let (k, v) = entries.remove(pos).unwrap();
            entries.push_front((k, Arc::clone(&v)));
            return Ok((v, false));
        }
        entries.push_front((key, Arc::clone(&built)));
        while entries.len() > self.cap {
            entries.pop_back();
            self.evictions.inc();
        }
        Ok((built, false))
    }

    fn lookup(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        let mut entries = self.entries.lock().unwrap();
        let pos = entries.iter().position(|(k, _)| k == key)?;
        let (k, v) = entries.remove(pos).unwrap();
        entries.push_front((k, Arc::clone(&v)));
        Some(v)
    }

    /// Current entry count (always ≤ the capacity bound).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Hits ÷ lookups, or 0.0 before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let (h, m) = (self.hits.get(), self.misses.get());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_on_repeat_and_distinct_seeds_are_distinct_keys() {
        let cache = PlanCache::new(4);
        let (a, hit_a) = cache.get_or_build("fd68", 1).unwrap();
        let (b, hit_b) = cache.get_or_build("fd68", 1).unwrap();
        let (c, _) = cache.get_or_build("fd68", 2).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a.problem, &b.problem));
        assert!(!Arc::ptr_eq(&a.problem, &c.problem));
        assert_eq!(cache.hits.get(), 1);
        assert_eq!(cache.misses.get(), 2);
        assert_eq!(cache.len(), 2);
        assert!((cache.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        cache.get_or_build("fd40", 1).unwrap();
        cache.get_or_build("fd68", 1).unwrap();
        // Touch fd40 so fd68 is now the cold one.
        assert!(cache.get_or_build("fd40", 1).unwrap().1);
        cache.get_or_build("grid:5x5", 1).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions.get(), 1);
        assert!(cache.get_or_build("fd40", 1).unwrap().1, "fd40 survived");
        assert!(!cache.get_or_build("fd68", 1).unwrap().1, "fd68 evicted");
    }

    #[test]
    fn bad_selector_reports_not_caches() {
        let cache = PlanCache::new(2);
        assert!(cache.get_or_build("nope", 1).is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses.get(), 1);
    }

    #[test]
    fn method_resolutions_memoize_per_selector_and_seed() {
        let cache = PlanCache::new(2);
        let (e, _) = cache.get_or_build("fd68", 1).unwrap();
        let m1 = e.resolve_method("richardson2:omega=auto", 1).unwrap();
        let m2 = e.resolve_method("richardson2:omega=auto", 1).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(e.resolved_method_count(), 1);
        // A different seed is a different rwr selection stream → new entry.
        e.resolve_method("rwr:fraction=0.5", 1).unwrap();
        e.resolve_method("rwr:fraction=0.5", 2).unwrap();
        assert_eq!(e.resolved_method_count(), 3);
        // The canonical spec re-parses and re-resolves to the same method
        // with no further spectrum work.
        let again = spec::parse_method(&m1.to_spec())
            .unwrap()
            .resolve(&e.problem.a, 1)
            .unwrap();
        assert_eq!(again, m1);
        // Parse errors surface, not cache.
        assert!(e.resolve_method("warp-drive", 1).is_err());
        assert_eq!(e.resolved_method_count(), 3);
    }

    #[test]
    fn outer_resolutions_memoize_and_share_hierarchies() {
        let cache = PlanCache::new(2);
        let (e, _) = cache.get_or_build("grid:15x15", 1).unwrap();
        let (s1, h1) = e.resolve_outer("vcycle:steps=3").unwrap();
        let (s2, h2) = e.resolve_outer("vcycle:steps=3").unwrap();
        assert_eq!(s1.to_spec(), s2.to_spec());
        // Repeat solves share one coarsening: the memo hands back the same
        // hierarchy allocation, not a rebuild.
        let (h1, h2) = (h1.expect("vcycle builds a hierarchy"), h2.unwrap());
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(h1.shape()[0].0, e.problem.n());
        assert_eq!(e.resolved_outer_count(), 1);
        // Krylov outers carry no hierarchy; they still memoize the parse.
        let (fcg, none) = e.resolve_outer("fcg:inner=4").unwrap();
        assert!(none.is_none(), "fcg must not coarsen");
        assert!(fcg.to_spec().starts_with("fcg"));
        assert_eq!(e.resolved_outer_count(), 2);
        // Parse errors surface, not cache, and quote the grammar.
        let err = e.resolve_outer("wcycle").unwrap_err();
        assert!(err.contains("vcycle"), "{err}");
        assert_eq!(e.resolved_outer_count(), 2);
    }

    #[test]
    fn dist_plans_memoize_per_rank_count() {
        let cache = PlanCache::new(2);
        let (e, _) = cache.get_or_build("fd68", 1).unwrap();
        let p4 = e.dist_plan(4);
        let p4b = e.dist_plan(4);
        let p8 = e.dist_plan(8);
        assert!(Arc::ptr_eq(&p4, &p4b));
        assert_eq!(p4.nparts(), 4);
        assert_eq!(p8.nparts(), 8);
        assert_eq!(e.dist_plan_count(), 2);
    }
}

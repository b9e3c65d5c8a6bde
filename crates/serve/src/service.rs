//! The scheduling service: classify → advise → (verify) → (simulate).
//!
//! One [`Service`] lives for the whole process and is shared by every
//! worker thread. Determinism contract: everything that reaches a
//! *response line* or the *deterministic metrics document* is a pure
//! function of the request stream (as a set) and the machine parameters —
//! independent of worker count and interleaving. That is achieved by:
//!
//! * the advisor's key-hash-sharded `DecisionKey` cache (no global lock on
//!   the hot path; racing threads recompute the same pure value);
//! * a sharded verification memo that amortizes `cm5-verify` runs across
//!   the queue the same way (the first request with a given schedule pays,
//!   duplicates hit the memo);
//! * a sharded stats memo from a [`PatternSpec`] (a named workload's
//!   `(name, n)`, or an irregular query's `(n, density, bytes, seed)`) to
//!   its `PatternStats`, so a repeated spec skips the n² pattern build and
//!   `PatternStats::of`. The key is the exact typed spec, not a hash, and
//!   the value is a pure function of it: racing threads build the same
//!   stats, the entry set is the set of specs that built, and errors are
//!   never stored;
//! * counters that are order-independent sums ([`AtomicU64`]), and cache
//!   *hit* counts derived as `queries − distinct entries` instead of being
//!   counted per-request (a per-request hit/miss flag would depend on
//!   which racing thread inserted first);
//! * histograms that only record *simulated or modeled* values.
//!
//! Host timing (per-stage latency, queue depth, wall-clock QPS) is real
//! but nondeterministic, so it lives only in the live snapshot
//! ([`Service::live_metrics`]: `GET /metrics`, `--metrics-out`), which is
//! excluded from determinism comparisons — the same split the simulator
//! makes for [`cm5_sim::SimPerf`].

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cm5_core::prelude::*;
use cm5_model::{Advisor, Algorithm, PatternStats, Recommendation, Workload};
use cm5_obs::{Histogram, Metrics, PhaseKind, QueryCtx, QuerySpan};
use cm5_sim::tenant::{run_tenants, Placement, TenantSpec};
use cm5_sim::{FatTree, MachineParams, OpProgram, SimReport, Simulation};
use cm5_verify::{exchange_policy, irregular_policy, verify_programs, verify_schedule, Severity};
use cm5_workloads::{named_pattern, workload_name};

use crate::json::Json;
use crate::request::{Query, Request, TenantQuery};
use crate::response::{error_line, recommendation_json, response_base, stats_json, tenants_json};

/// Per-request simulation ceiling. Advising scales to [`crate::request::MAX_NODES`];
/// *simulating* is O(n²) messages for an exchange, so a service bounds it.
pub const SIM_MAX_NODES: usize = 1024;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Machine the advisor and simulator model.
    pub params: MachineParams,
    /// Advisor-cache, verify-memo and stats-memo shard count (≥ 1).
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            params: MachineParams::cm5_1992(),
            shards: 8,
        }
    }
}

/// Memoized outcome of one static verification.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VerifySummary {
    clean: bool,
    errors: usize,
    warnings: usize,
}

/// The exact spec of a pattern the service builds itself: the stats-memo
/// key. It is compared whole, never reduced to a 64-bit hash, so two specs
/// cannot alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PatternSpec {
    /// A named application workload partitioned over `n` nodes.
    Named { name: &'static str, n: usize },
    /// Table 11's seeded-random generator.
    Irregular {
        n: usize,
        density_bits: u64,
        bytes: u64,
        seed: u64,
    },
}

impl PatternSpec {
    fn build(self) -> Result<Pattern, String> {
        match self {
            PatternSpec::Named { name, n } => named_pattern(name, n),
            PatternSpec::Irregular {
                n,
                density_bits,
                bytes,
                seed,
            } => Ok(Pattern::seeded_random(
                n,
                f64::from_bits(density_bits),
                bytes.max(1),
                seed,
            )),
        }
    }
}

/// Where a pattern query's pattern comes from when verify or simulate
/// needs it: already built, or rebuilt from its spec after a memo hit.
enum PatternSource {
    Built(Pattern),
    Spec(PatternSpec),
}

impl PatternSource {
    fn pattern(&self) -> Result<Cow<'_, Pattern>, String> {
        match self {
            PatternSource::Built(p) => Ok(Cow::Borrowed(p)),
            PatternSource::Spec(spec) => spec.build().map(Cow::Owned),
        }
    }

    fn into_pattern(self) -> Result<Pattern, String> {
        match self {
            PatternSource::Built(p) => Ok(p),
            PatternSource::Spec(spec) => spec.build(),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    q_exchange: AtomicU64,
    q_broadcast: AtomicU64,
    q_irregular: AtomicU64,
    q_pattern: AtomicU64,
    q_workload: AtomicU64,
    q_tenants: AtomicU64,
    verify_requests: AtomicU64,
    /// Stats-memo lookups that produced statistics (errors excluded).
    stats_lookups: AtomicU64,
    simulations: AtomicU64,
}

/// Host-side stage timings: real, nondeterministic, never part of the
/// deterministic metrics document.
#[derive(Debug, Default)]
pub struct Timing {
    stats_ns: Mutex<Histogram>,
    advise_ns: Mutex<Histogram>,
    build_ns: Mutex<Histogram>,
    verify_ns: Mutex<Histogram>,
    simulate_ns: Mutex<Histogram>,
    total_ns: Mutex<Histogram>,
    /// Queue depth sampled by the replay pool at each dequeue.
    pub(crate) queue_depth: Mutex<Histogram>,
}

/// The long-running scheduling service.
#[derive(Debug)]
pub struct Service {
    params: MachineParams,
    advisor: Advisor,
    verify_memo: Vec<Mutex<HashMap<u64, VerifySummary>>>,
    stats_memo: Vec<Mutex<HashMap<PatternSpec, PatternStats>>>,
    counters: Counters,
    predicted_ns: Mutex<Histogram>,
    sim_makespan_ns: Mutex<Histogram>,
    timing: Timing,
    /// Service start instant: span `ts` offsets and uptime are relative
    /// to it.
    epoch: Instant,
    /// Arrival-order sequence numbers for spans opened via
    /// [`Service::handle_line`] (the replay pool supplies its own input
    /// order instead).
    arrival: AtomicU64,
}

impl Service {
    /// Build a service with `config.shards` cache/memo shards.
    pub fn new(config: ServiceConfig) -> Service {
        let shards = config.shards.max(1);
        Service {
            params: config.params,
            advisor: Advisor::with_shards(shards),
            verify_memo: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            stats_memo: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: Counters::default(),
            predicted_ns: Mutex::new(Histogram::default()),
            sim_makespan_ns: Mutex::new(Histogram::default()),
            timing: Timing::default(),
            epoch: Instant::now(),
            arrival: AtomicU64::new(0),
        }
    }

    /// The machine this service advises for.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Shard count of the advisor cache and the verify and stats memos.
    pub fn shard_count(&self) -> usize {
        self.advisor.shard_count()
    }

    /// Handle one request line: parse, answer, render. Never panics on
    /// malformed input; errors become `ok:false` response lines.
    ///
    /// The query is fully spanned and observed immediately (arrival
    /// order); batch callers that need worker-count-independent span
    /// ordering use [`Service::handle_line_spanned`] +
    /// [`Service::observe`] instead.
    pub fn handle_line(&self, line: &str) -> String {
        let seq = self.arrival.fetch_add(1, Ordering::Relaxed);
        let (out, span) = self.handle_line_spanned(seq, line);
        self.observe(&span);
        out
    }

    /// [`Service::handle_line`] with an explicit span sequence number,
    /// returning the response line and the query's span tree without
    /// observing it. The replay pool calls this from workers and keeps
    /// every span, so the exported span set is complete at any worker
    /// count.
    pub fn handle_line_spanned(&self, seq: u64, line: &str) -> (String, QuerySpan) {
        let mut ctx = QueryCtx::new(seq, self.epoch);
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let t = ctx.start();
        let parsed = Request::parse_line(line);
        ctx.phase(PhaseKind::Parse, "", t);
        match parsed {
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                // Best-effort id recovery so the client can correlate.
                let id = Json::parse(line)
                    .ok()
                    .and_then(|d| d.get("id").and_then(Json::as_u64))
                    .unwrap_or(0);
                (error_line(id, &e), ctx.finish(id, "invalid", Err(e)))
            }
            Ok(req) => match self.answer(&req, &mut ctx) {
                Ok(fields) => {
                    self.counters.ok.fetch_add(1, Ordering::Relaxed);
                    let t = ctx.start();
                    let out = Json::Obj(fields).render();
                    ctx.phase(PhaseKind::Render, "", t);
                    (out, ctx.finish(req.id, req.query.kind(), Ok(())))
                }
                Err(e) => {
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    (
                        error_line(req.id, &e),
                        ctx.finish(req.id, req.query.kind(), Err(e)),
                    )
                }
            },
        }
    }

    /// Fold one finished span into the host-timing histograms.
    pub fn observe(&self, span: &QuerySpan) {
        for p in &span.phases {
            let field = match p.kind {
                PhaseKind::Stats => Some(&self.timing.stats_ns),
                PhaseKind::Advise => Some(&self.timing.advise_ns),
                PhaseKind::Build => Some(&self.timing.build_ns),
                PhaseKind::Verify => Some(&self.timing.verify_ns),
                PhaseKind::Simulate => Some(&self.timing.simulate_ns),
                PhaseKind::Parse | PhaseKind::Render => None,
            };
            if let Some(f) = field {
                f.lock().expect("timing poisoned").record(p.dur_ns);
            }
        }
        self.timing
            .total_ns
            .lock()
            .expect("timing poisoned")
            .record(span.total_ns);
    }

    /// Answer a parsed request: the response object's fields, or an error
    /// string.
    fn answer(&self, req: &Request, ctx: &mut QueryCtx) -> Result<Vec<(String, Json)>, String> {
        let mut fields = response_base(req.id, true);
        match &req.query {
            &Query::Exchange { n, bytes } => {
                self.counters.q_exchange.fetch_add(1, Ordering::Relaxed);
                let rec = self.advise_query(ctx, req, &Workload::Exchange { n, bytes }, n)?;
                if req.verify || req.simulate {
                    let alg = self.pick_exchange(&rec)?;
                    let detail = rec.algorithm.name();
                    let schedule = req
                        .simulate
                        .then(|| ctx.timed(PhaseKind::Build, detail, || alg.schedule(n, bytes)));
                    if req.verify {
                        let v = self.verified(ctx, req, detail, || {
                            let schedule = built_or(&schedule, || alg.schedule(n, bytes));
                            let mut opts = exchange_policy(alg);
                            opts.params = self.params.clone();
                            Ok(summarize(&verify_schedule(&schedule, None, &opts)))
                        })?;
                        fields.push(("verify".into(), v));
                    }
                    if let Some(schedule) = &schedule {
                        let report = self.simulate_schedule(ctx, schedule, n)?;
                        fields.push(("simulated".into(), sim_json(&report)));
                    }
                }
                fields.push(("recommendation".into(), recommendation_json(&rec)));
            }
            &Query::Broadcast { n, bytes } => {
                self.counters.q_broadcast.fetch_add(1, Ordering::Relaxed);
                let rec = self.advise_query(ctx, req, &Workload::Broadcast { n, bytes }, n)?;
                let alg = match rec.algorithm {
                    Algorithm::Broadcast(b) => b,
                    other => return Err(format!("advisor returned non-broadcast pick {other}")),
                };
                let detail = rec.algorithm.name();
                let programs = req.simulate.then(|| {
                    ctx.timed(PhaseKind::Build, detail, || {
                        broadcast_programs(alg, n, 0, bytes)
                    })
                });
                if req.verify {
                    let v = self.verified(ctx, req, detail, || {
                        let programs = built_or(&programs, || broadcast_programs(alg, n, 0, bytes));
                        Ok(summarize(&verify_programs(&programs)))
                    })?;
                    fields.push(("verify".into(), v));
                }
                if let Some(programs) = &programs {
                    let t = ctx.start();
                    let report = self.simulate_programs(ctx, t, programs, n)?;
                    fields.push(("simulated".into(), sim_json(&report)));
                }
                fields.push(("recommendation".into(), recommendation_json(&rec)));
            }
            &Query::Irregular {
                n,
                density,
                bytes,
                seed,
            } => {
                self.counters.q_irregular.fetch_add(1, Ordering::Relaxed);
                let spec = PatternSpec::Irregular {
                    n,
                    density_bits: density.to_bits(),
                    bytes,
                    seed,
                };
                self.answer_spec(ctx, req, spec, &mut fields)?;
            }
            Query::Pattern { text } => {
                self.counters.q_pattern.fetch_add(1, Ordering::Relaxed);
                let t = ctx.start();
                let pattern = Pattern::parse_text(text)?;
                let n = pattern.n();
                if !(2..=crate::request::MAX_NODES).contains(&n) || !n.is_power_of_two() {
                    return Err(format!(
                        "pattern must cover a power-of-two node count in 2..={}, got {n}",
                        crate::request::MAX_NODES
                    ));
                }
                let stats = PatternStats::of(&pattern, &FatTree::new(n));
                ctx.phase(PhaseKind::Stats, &format!("n={n}"), t);
                self.answer_pattern(ctx, req, stats, PatternSource::Built(pattern), &mut fields)?;
            }
            Query::Workload { name, n } => {
                self.counters.q_workload.fetch_add(1, Ordering::Relaxed);
                let spec = PatternSpec::Named {
                    name: workload_name(name)?,
                    n: *n,
                };
                self.answer_spec(ctx, req, spec, &mut fields)?;
            }
            Query::Tenants {
                shared_n,
                placement,
                tenants,
            } => {
                self.counters.q_tenants.fetch_add(1, Ordering::Relaxed);
                let report =
                    self.run_tenant_query(ctx, req, *shared_n, *placement, tenants, &mut fields)?;
                fields.push(("tenants".into(), report));
            }
        }
        Ok(fields)
    }

    /// Answer a pattern query given by spec: its statistics come from the
    /// stats memo, and its pattern is built only on a memo miss or when
    /// verify or simulate needs it.
    fn answer_spec(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        spec: PatternSpec,
        fields: &mut Vec<(String, Json)>,
    ) -> Result<(), String> {
        let t = ctx.start();
        let (stats, built) = self.pattern_stats(spec)?;
        ctx.phase(PhaseKind::Stats, &format!("n={}", stats.n), t);
        let source = match built {
            Some(pattern) => PatternSource::Built(pattern),
            None => PatternSource::Spec(spec),
        };
        self.answer_pattern(ctx, req, stats, source, fields)
    }

    /// The statistics of `spec`, from the memo or freshly built; the
    /// pattern too when it had to be built. Errors are not memoized.
    fn pattern_stats(&self, spec: PatternSpec) -> Result<(PatternStats, Option<Pattern>), String> {
        let mut h = DefaultHasher::new();
        spec.hash(&mut h);
        let shard = &self.stats_memo[(h.finish() % self.stats_memo.len() as u64) as usize];
        let hit = shard.lock().expect("memo poisoned").get(&spec).cloned();
        let (stats, built) = match hit {
            Some(stats) => (stats, None),
            None => {
                // Build outside the lock: racing duplicates compute the
                // identical pure statistics.
                let pattern = spec.build()?;
                let stats = PatternStats::of(&pattern, &FatTree::new(pattern.n()));
                shard
                    .lock()
                    .expect("memo poisoned")
                    .insert(spec, stats.clone());
                (stats, Some(pattern))
            }
        };
        self.counters.stats_lookups.fetch_add(1, Ordering::Relaxed);
        Ok((stats, built))
    }

    /// Advise + verify + simulate an irregular pattern whose statistics
    /// are known.
    fn answer_pattern(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        stats: PatternStats,
        mut source: PatternSource,
        fields: &mut Vec<(String, Json)>,
    ) -> Result<(), String> {
        let n = stats.n;
        let stats_field = stats_json(&stats);
        let rec = self.advise_query(ctx, req, &Workload::Irregular(stats), n)?;
        let alg = match rec.algorithm {
            Algorithm::Irregular(a) => a,
            other => return Err(format!("advisor returned non-irregular pick {other}")),
        };
        let detail = rec.algorithm.name();
        fields.push(("stats".into(), stats_field));
        let schedule = if req.simulate {
            let t = ctx.start();
            let pattern = source.into_pattern()?;
            let schedule = alg.schedule(&pattern);
            ctx.phase(PhaseKind::Build, detail, t);
            source = PatternSource::Built(pattern);
            Some(schedule)
        } else {
            None
        };
        if req.verify {
            let v = self.verified(ctx, req, detail, || {
                let pattern = source.pattern()?;
                let schedule = built_or(&schedule, || alg.schedule(&pattern));
                let mut opts = irregular_policy(alg);
                opts.params = self.params.clone();
                Ok(summarize(&verify_schedule(
                    &schedule,
                    Some(&pattern),
                    &opts,
                )))
            })?;
            fields.push(("verify".into(), v));
        }
        if let Some(schedule) = &schedule {
            let report = self.simulate_schedule(ctx, schedule, n)?;
            fields.push(("simulated".into(), sim_json(&report)));
        }
        fields.push(("recommendation".into(), recommendation_json(&rec)));
        Ok(())
    }

    /// Advise a query's workload; then, if it asks to simulate, refuse an
    /// oversized one before any schedule or program is built or verified.
    fn advise_query(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        w: &Workload,
        n: usize,
    ) -> Result<Recommendation, String> {
        let rec = self.advise(ctx, w, n);
        if req.simulate {
            check_sim_size(n)?;
        }
        Ok(rec)
    }

    /// Advise one workload, recording the predicted time and an advise
    /// phase (carrying the cache key so exporters can derive hit/miss
    /// deterministically).
    fn advise(&self, ctx: &mut QueryCtx, w: &Workload, n: usize) -> Recommendation {
        let t = ctx.start();
        let (rec, outcome) = self
            .advisor
            .recommend_traced(w, &self.params, &FatTree::new(n));
        ctx.phase_advise(rec.algorithm.name(), outcome.key, t);
        self.predicted_ns
            .lock()
            .expect("hist poisoned")
            .record(rec.predicted.as_nanos());
        rec
    }

    fn pick_exchange(&self, rec: &Recommendation) -> Result<ExchangeAlg, String> {
        match rec.algorithm {
            Algorithm::Exchange(a) => Ok(a),
            other => Err(format!("advisor returned non-exchange pick {other}")),
        }
    }

    /// Memoized verification: the first request with a given
    /// (query, algorithm) pair runs the verifier; identical queries queued
    /// behind it hit the memo, amortizing the batch. The memo key hashes
    /// the canonical query encoding, so it is interleaving-independent.
    ///
    /// The verify phase covers the memo lookup too (hits record a
    /// near-zero wall duration), so the span *shape* is the same whether
    /// the memo hit or not — memo hits are interleaving-dependent and must
    /// not change the exported span tree.
    fn verified(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        alg: &str,
        run: impl FnOnce() -> Result<VerifySummary, String>,
    ) -> Result<Json, String> {
        let t = ctx.start();
        let json = self.verified_inner(req, alg, run);
        ctx.phase(PhaseKind::Verify, alg, t);
        json
    }

    fn verified_inner(
        &self,
        req: &Request,
        alg: &str,
        run: impl FnOnce() -> Result<VerifySummary, String>,
    ) -> Result<Json, String> {
        let mut h = DefaultHasher::new();
        Request {
            id: 0,
            query: req.query.clone(),
            verify: false,
            simulate: false,
        }
        .render_line()
        .hash(&mut h);
        alg.hash(&mut h);
        let key = h.finish();
        let shard = &self.verify_memo[(key % self.verify_memo.len() as u64) as usize];
        let hit = shard
            .lock()
            .expect("memo poisoned")
            .get(&key)
            .map(verify_json);
        let json = match hit {
            Some(json) => json,
            None => {
                // Run outside the lock (same determinism argument as the
                // advisor: racing duplicates compute the identical pure
                // summary).
                let summary = run()?;
                let json = verify_json(&summary);
                shard.lock().expect("memo poisoned").insert(key, summary);
                json
            }
        };
        self.counters
            .verify_requests
            .fetch_add(1, Ordering::Relaxed);
        Ok(json)
    }

    /// Lower `schedule` and simulate it, both inside one simulate phase.
    fn simulate_schedule(
        &self,
        ctx: &mut QueryCtx,
        schedule: &Schedule,
        n: usize,
    ) -> Result<SimReport, String> {
        let t = ctx.start();
        self.simulate_programs(ctx, t, &lower(schedule), n)
    }

    /// Simulate `programs` on `n` nodes; the simulate phase runs from
    /// `from`. Callers refuse `n > SIM_MAX_NODES` before building them.
    fn simulate_programs(
        &self,
        ctx: &mut QueryCtx,
        from: Instant,
        programs: &[OpProgram],
        n: usize,
    ) -> Result<SimReport, String> {
        self.counters.simulations.fetch_add(1, Ordering::Relaxed);
        let report = Simulation::new(n, self.params.clone())
            .run_ops(programs)
            .map_err(|e| e.to_string())?;
        ctx.phase(PhaseKind::Simulate, &format!("n={n}"), from);
        self.sim_makespan_ns
            .lock()
            .expect("hist poisoned")
            .record(report.makespan.as_nanos());
        Ok(report)
    }

    /// Advise each tenant's exchange, lower the picked schedules, and run
    /// all tenants concurrently on the shared tree.
    fn run_tenant_query(
        &self,
        ctx: &mut QueryCtx,
        req: &Request,
        shared_n: usize,
        placement: Placement,
        tenants: &[TenantQuery],
        fields: &mut Vec<(String, Json)>,
    ) -> Result<Json, String> {
        check_sim_size(shared_n)?;
        let mut specs = Vec::with_capacity(tenants.len());
        let mut recs = Vec::with_capacity(tenants.len());
        for t in tenants {
            let w = Workload::Exchange {
                n: t.n,
                bytes: t.bytes,
            };
            let rec = self.advise(ctx, &w, t.n);
            let alg = self.pick_exchange(&rec)?;
            let programs = ctx.timed(PhaseKind::Build, rec.algorithm.name(), || {
                lower(&alg.schedule(t.n, t.bytes))
            });
            specs.push(TenantSpec {
                name: t.name.clone(),
                programs,
            });
            recs.push(Json::Obj(vec![
                ("name".into(), Json::str(t.name.clone())),
                ("recommendation".into(), recommendation_json(&rec)),
            ]));
        }
        if req.verify {
            fields.push((
                "verify".into(),
                self.verified(ctx, req, "tenants", || {
                    // Verify the merged shared-tree programs: structure +
                    // blocking-semantics deadlock analysis.
                    let sizes: Vec<usize> = specs.iter().map(|s| s.programs.len()).collect();
                    match cm5_sim::tenant::TenantLayout::new(shared_n, &sizes, placement)
                        .and_then(|l| l.merge_programs(&specs))
                    {
                        Ok(merged) => Ok(summarize(&verify_programs(&merged))),
                        Err(_) => Ok(VerifySummary {
                            clean: false,
                            errors: 1,
                            warnings: 0,
                        }),
                    }
                })?,
            ));
        }
        self.counters.simulations.fetch_add(1, Ordering::Relaxed);
        let t = ctx.start();
        let report =
            run_tenants(shared_n, placement, &specs, &self.params).map_err(|e| e.to_string())?;
        ctx.phase(
            PhaseKind::Simulate,
            &format!("tenants={} n={shared_n}", specs.len()),
            t,
        );
        self.sim_makespan_ns
            .lock()
            .expect("hist poisoned")
            .record(report.report.makespan.as_nanos());
        fields.push(("tenant_recommendations".into(), Json::Arr(recs)));
        Ok(tenants_json(&report))
    }

    /// Snapshot the deterministic metrics document: counters, cache/memo
    /// occupancy and hit rates, and histograms of modeled/simulated values.
    /// Byte-identical across worker counts for the same request set.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        m.counters.insert("requests", get(&c.requests));
        m.counters.insert("responses_ok", get(&c.ok));
        m.counters.insert("responses_error", get(&c.errors));
        m.counters.insert("queries_exchange", get(&c.q_exchange));
        m.counters.insert("queries_broadcast", get(&c.q_broadcast));
        m.counters.insert("queries_irregular", get(&c.q_irregular));
        m.counters.insert("queries_pattern", get(&c.q_pattern));
        m.counters.insert("queries_workload", get(&c.q_workload));
        m.counters.insert("queries_tenants", get(&c.q_tenants));
        m.counters
            .insert("verify_requests", get(&c.verify_requests));
        m.counters.insert("simulations", get(&c.simulations));

        // Hit counts are derived, not sampled: `queries − distinct keys`
        // is a pure function of the request set, immune to which racing
        // worker populated an entry first.
        let queries = self.advisor.cache_queries();
        let entries = self.advisor.cache_len() as u64;
        m.counters.insert("advisor_queries", queries);
        m.counters.insert("advisor_cache_entries", entries);
        m.counters
            .insert("advisor_cache_hits", queries.saturating_sub(entries));
        m.gauges.insert(
            "advisor_cache_hit_rate",
            if queries > 0 {
                queries.saturating_sub(entries) as f64 / queries as f64
            } else {
                0.0
            },
        );
        let memo_entries: u64 = self
            .verify_memo
            .iter()
            .map(|s| s.lock().expect("memo poisoned").len() as u64)
            .sum();
        let vreq = get(&c.verify_requests);
        m.counters.insert("verify_memo_entries", memo_entries);
        m.counters
            .insert("verify_memo_hits", vreq.saturating_sub(memo_entries));
        let stats_entries: u64 = self
            .stats_memo
            .iter()
            .map(|s| s.lock().expect("memo poisoned").len() as u64)
            .sum();
        let lookups = get(&c.stats_lookups);
        m.counters.insert("stats_memo_entries", stats_entries);
        m.counters
            .insert("stats_memo_hits", lookups.saturating_sub(stats_entries));
        m.gauges.insert("shards", self.shard_count() as f64);

        m.histograms.insert(
            "predicted_ns",
            self.predicted_ns.lock().expect("hist poisoned").clone(),
        );
        m.histograms.insert(
            "sim_makespan_ns",
            self.sim_makespan_ns.lock().expect("hist poisoned").clone(),
        );
        m
    }

    /// The live-health snapshot served at `GET /metrics` and written by
    /// `--metrics-out`: the deterministic [`Service::metrics`] document
    /// plus host-side state — uptime/qps, per-phase wall-clock latency
    /// histograms and queue depth. Unlike
    /// [`Service::metrics`], this snapshot contains real host timing and
    /// is never byte-compared across runs.
    pub fn live_metrics(&self) -> Metrics {
        let mut m = self.metrics();
        let uptime = self.epoch.elapsed().as_secs_f64();
        let requests = self.counters.requests.load(Ordering::Relaxed);
        m.gauges.insert("uptime_secs", uptime);
        m.gauges.insert(
            "qps",
            if uptime > 0.0 {
                requests as f64 / uptime
            } else {
                0.0
            },
        );
        let hist = |h: &Mutex<Histogram>| h.lock().expect("timing poisoned").clone();
        m.histograms
            .insert("stats_wall_ns", hist(&self.timing.stats_ns));
        m.histograms
            .insert("advise_wall_ns", hist(&self.timing.advise_ns));
        m.histograms
            .insert("build_wall_ns", hist(&self.timing.build_ns));
        m.histograms
            .insert("verify_wall_ns", hist(&self.timing.verify_ns));
        m.histograms
            .insert("simulate_wall_ns", hist(&self.timing.simulate_ns));
        m.histograms
            .insert("request_total_ns", hist(&self.timing.total_ns));
        m.histograms
            .insert("queue_depth", hist(&self.timing.queue_depth));
        m
    }

    /// Record one queue-depth sample (called by the replay pool).
    pub fn sample_queue_depth(&self, depth: usize) {
        self.timing
            .queue_depth
            .lock()
            .expect("timing poisoned")
            .record(depth as u64);
    }
}

/// Refuse a simulation above [`SIM_MAX_NODES`].
fn check_sim_size(n: usize) -> Result<(), String> {
    if n > SIM_MAX_NODES {
        return Err(format!(
            "simulation is capped at {SIM_MAX_NODES} nodes per request, got {n}"
        ));
    }
    Ok(())
}

/// The value built for a simulation, or a fresh one when none was.
fn built_or<T: Clone>(built: &Option<T>, build: impl FnOnce() -> T) -> Cow<'_, T> {
    match built {
        Some(v) => Cow::Borrowed(v),
        None => Cow::Owned(build()),
    }
}

/// Reduce diagnostics to the deterministic summary the memo stores.
fn summarize(diags: &cm5_verify::Diagnostics) -> VerifySummary {
    VerifySummary {
        clean: diags.is_clean(),
        errors: diags.count(Severity::Error),
        warnings: diags.count(Severity::Warning),
    }
}

fn verify_json(s: &VerifySummary) -> Json {
    Json::Obj(vec![
        ("clean".into(), Json::Bool(s.clean)),
        ("errors".into(), Json::int(s.errors as u64)),
        ("warnings".into(), Json::int(s.warnings as u64)),
    ])
}

fn sim_json(report: &SimReport) -> Json {
    Json::Obj(vec![
        (
            "makespan_us".into(),
            Json::num(report.makespan.as_micros_f64()),
        ),
        ("messages".into(), Json::int(report.messages)),
        ("root_crossings".into(), Json::int(report.root_crossings)),
        (
            "effective_mb_s".into(),
            Json::num(report.effective_bandwidth() / 1e6),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Service {
        Service::new(ServiceConfig::default())
    }

    #[test]
    fn exchange_request_answers_with_recommendation() {
        let s = service();
        let line = r#"{"id":1,"query":{"kind":"exchange","n":32,"bytes":1024},"verify":true,"simulate":true}"#;
        let out = s.handle_line(line);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("cm5-serve/1")
        );
        let rec = doc.get("recommendation").unwrap();
        assert_eq!(
            rec.get("schema").and_then(Json::as_str),
            Some("cm5-advise/1")
        );
        assert_eq!(
            doc.get("verify")
                .and_then(|v| v.get("clean"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert!(doc
            .get("simulated")
            .and_then(|v| v.get("makespan_us"))
            .is_some());
    }

    #[test]
    fn malformed_lines_yield_error_responses() {
        let s = service();
        for line in ["", "garbage", r#"{"id":9,"query":{"kind":"wat"}}"#] {
            let out = s.handle_line(line);
            let doc = Json::parse(&out).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{line}");
            assert!(doc.get("error").is_some());
        }
        let m = s.metrics();
        assert_eq!(m.counters["responses_error"], 3);
        assert_eq!(m.counters["requests"], 3);
    }

    #[test]
    fn identical_queries_hit_the_caches() {
        let s = service();
        let line = r#"{"id":1,"query":{"kind":"exchange","n":32,"bytes":1024},"verify":true}"#;
        let first = s.handle_line(line);
        let second = s.handle_line(line);
        // Same query → byte-identical response (ids match here).
        assert_eq!(first, second);
        let m = s.metrics();
        assert_eq!(m.counters["advisor_queries"], 2);
        assert_eq!(m.counters["advisor_cache_entries"], 1);
        assert_eq!(m.counters["advisor_cache_hits"], 1);
        assert_eq!(m.counters["verify_requests"], 2);
        assert_eq!(m.counters["verify_memo_entries"], 1);
        assert_eq!(m.counters["verify_memo_hits"], 1);
    }

    #[test]
    fn pattern_and_workload_queries_classify() {
        let s = service();
        let out = s.handle_line(
            r#"{"id":5,"query":{"kind":"pattern","text":"0 256 0 0\n256 0 0 0\n0 0 0 256\n0 0 256 0\n"}}"#,
        );
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
        assert_eq!(
            doc.get("stats")
                .and_then(|v| v.get("n"))
                .and_then(Json::as_u64),
            Some(4)
        );
        let out = s.handle_line(r#"{"id":6,"query":{"kind":"workload","name":"euler545","n":8}}"#);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
    }

    #[test]
    fn tenant_queries_report_slices() {
        let s = service();
        let line = r#"{"id":9,"query":{"kind":"tenants","shared_n":64,"placement":"subtree","tenants":[{"name":"a","n":16,"bytes":1024},{"name":"b","n":16,"bytes":1024}]}}"#;
        let out = s.handle_line(line);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{out}");
        let tenants = doc
            .get("tenants")
            .and_then(|t| t.get("tenants"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(tenants.len(), 2);
        // Congruent disjoint subtrees: identical makespans.
        assert_eq!(
            tenants[0].get("makespan_us").and_then(Json::as_f64),
            tenants[1].get("makespan_us").and_then(Json::as_f64)
        );
    }

    #[test]
    fn oversized_simulations_are_refused() {
        let s = service();
        let out = s.handle_line(
            r#"{"id":2,"query":{"kind":"exchange","n":2048,"bytes":16},"simulate":true}"#,
        );
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        // Advising alone at that size is fine.
        let out = s.handle_line(r#"{"id":3,"query":{"kind":"exchange","n":2048,"bytes":16}}"#);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }

    /// The one `ok:false` line an oversized simulation gets, at any stage.
    const SIM_CAP_ERROR: &str =
        "\"ok\":false,\"error\":\"simulation is capped at 1024 nodes per request, got 2048\"}";

    #[test]
    fn oversized_simulations_are_refused_before_building_or_verifying() {
        let s = service();
        for (id, query) in [
            (1, r#"{"kind":"exchange","n":2048,"bytes":65536}"#),
            (
                2,
                r#"{"kind":"irregular","n":2048,"density":0.25,"bytes":256,"seed":3}"#,
            ),
        ] {
            let line = format!(r#"{{"id":{id},"query":{query},"verify":true,"simulate":true}}"#);
            let out = s.handle_line(&line);
            assert_eq!(
                out,
                format!("{{\"schema\":\"cm5-serve/1\",\"id\":{id},{SIM_CAP_ERROR}")
            );
        }
        let m = s.metrics();
        // Both were advised, but nothing was verified or simulated.
        assert_eq!(m.counters["advisor_queries"], 2);
        assert_eq!(m.counters["verify_requests"], 0);
        assert_eq!(m.counters["verify_memo_entries"], 0);
        assert_eq!(m.counters["simulations"], 0);
    }

    #[test]
    fn repeated_specs_answer_from_the_stats_memo_byte_identically() {
        let lines = [
            r#"{"id":1,"query":{"kind":"workload","name":"euler545","n":16}}"#,
            r#"{"id":2,"query":{"kind":"irregular","n":32,"density":0.25,"bytes":256,"seed":7}}"#,
            r#"{"id":3,"query":{"kind":"workload","name":"euler545","n":8},"verify":true,"simulate":true}"#,
            r#"{"id":4,"query":{"kind":"irregular","n":16,"density":0.5,"bytes":64,"seed":9},"verify":true}"#,
        ];
        let s = service();
        let first: Vec<String> = lines.iter().map(|l| s.handle_line(l)).collect();
        for (line, answer) in lines.iter().zip(&first) {
            assert!(answer.contains("\"ok\":true"), "{answer}");
            assert_eq!(&s.handle_line(line), answer, "repeat of {line}");
            assert_eq!(
                &service().handle_line(line),
                answer,
                "fresh service, {line}"
            );
        }
        let m = s.metrics();
        assert_eq!(m.counters["stats_memo_entries"], 4);
        assert_eq!(m.counters["stats_memo_hits"], 4);
    }

    #[test]
    fn stats_memo_counters_do_not_depend_on_shard_count() {
        let lines = [
            r#"{"id":1,"query":{"kind":"workload","name":"euler545","n":16}}"#,
            r#"{"id":2,"query":{"kind":"workload","name":"euler545","n":32}}"#,
            r#"{"id":3,"query":{"kind":"workload","name":"euler545","n":16}}"#,
            r#"{"id":4,"query":{"kind":"irregular","n":8,"seed":1}}"#,
            r#"{"id":5,"query":{"kind":"irregular","n":8,"seed":1}}"#,
            r#"{"id":6,"query":{"kind":"irregular","n":8,"seed":2}}"#,
        ];
        let docs: Vec<String> = [1, 3, 8, 64]
            .into_iter()
            .map(|shards| {
                let s = Service::new(ServiceConfig {
                    shards,
                    ..ServiceConfig::default()
                });
                for line in lines {
                    s.handle_line(line);
                }
                let m = s.metrics();
                assert_eq!(m.counters["stats_memo_entries"], 4, "shards={shards}");
                assert_eq!(m.counters["stats_memo_hits"], 2, "shards={shards}");
                let mut m = m;
                m.gauges.remove("shards");
                m.to_json()
            })
            .collect();
        assert!(docs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn erroring_specs_error_on_every_repeat_and_are_not_memoized() {
        let s = service();
        for line in [
            r#"{"id":1,"query":{"kind":"workload","name":"nope","n":16}}"#,
            r#"{"id":2,"query":{"kind":"workload","name":"euler545","n":1024}}"#,
        ] {
            let first = s.handle_line(line);
            assert!(first.contains("\"ok\":false"), "{first}");
            for _ in 0..2 {
                assert_eq!(s.handle_line(line), first);
            }
            assert_eq!(service().handle_line(line), first);
        }
        let m = s.metrics();
        assert_eq!(m.counters["responses_error"], 6);
        assert_eq!(m.counters["stats_memo_entries"], 0);
        assert_eq!(m.counters["stats_memo_hits"], 0);
    }
}

//! Serve workloads: closed-loop replay through `Service::handle_line`,
//! and a traced replay that calls each layer's public entry point in the
//! order `Service::answer` does.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cm5_core::prelude::*;
use cm5_model::{Advisor, Algorithm, PatternStats, Recommendation, Workload};
use cm5_serve::response::{error_line, response_base};
use cm5_serve::{
    named_pattern, recommendation_json, stats_json, tenants_json, Json, Query, Request, Service,
    ServiceConfig, TenantQuery, SIM_MAX_NODES,
};
use cm5_sim::tenant::{run_tenants, Placement, TenantLayout, TenantSpec};
use cm5_sim::{FatTree, MachineParams, OpProgram, SimReport, Simulation};
use cm5_verify::{exchange_policy, irregular_policy, verify_programs, verify_schedule, Severity};

use crate::trace::{LayerTotals, Tracer};
use crate::Failures;

/// The id a generated request line carries.
fn line_id(line: &str) -> u64 {
    line.strip_prefix("{\"id\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|id| id.parse().ok())
        .expect("generated lines start with their id")
}

/// Count a failure unless `response` is an `ok:true` reply to `id`.
fn check_response(id: u64, response: Option<&str>, failures: &mut Failures) {
    let Some(text) = response else {
        failures.panic += 1;
        return;
    };
    match Json::parse(text) {
        Ok(doc) if doc.get("id").and_then(Json::as_u64) == Some(id) => {
            if doc.get("ok").and_then(Json::as_bool) != Some(true) {
                failures.not_ok += 1;
            }
        }
        _ => failures.missing += 1,
    }
}

fn hash_stream<'a>(responses: impl Iterator<Item = Option<&'a str>>) -> u64 {
    let mut h = DefaultHasher::new();
    for r in responses {
        r.unwrap_or("<panic>").hash(&mut h);
    }
    h.finish()
}

/// A fresh service with the default configuration.
pub fn new_service() -> Service {
    Service::new(ServiceConfig::default())
}

/// One closed-loop replay: one client sends each line after the previous
/// reply arrived.
pub struct Replay {
    pub wall_ns: u64,
    pub latencies_ns: Vec<u64>,
    pub hash: u64,
    pub failures: Failures,
}

/// Replay `lines` through `svc`. Each request runs under `catch_unwind`,
/// so a panic is counted instead of ending the run; responses are checked
/// after the timed loop.
pub fn replay(svc: &Service, lines: &[String]) -> Replay {
    let mut latencies_ns = Vec::with_capacity(lines.len());
    let mut responses: Vec<Option<String>> = Vec::with_capacity(lines.len());
    let start = Instant::now();
    for line in lines {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| svc.handle_line(line))).ok();
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        responses.push(out);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut failures = Failures::default();
    for (line, r) in lines.iter().zip(&responses) {
        check_response(line_id(line), r.as_deref(), &mut failures);
    }
    Replay {
        wall_ns,
        latencies_ns,
        hash: hash_stream(responses.iter().map(|r| r.as_deref())),
        failures,
    }
}

/// Engine counters summed over a traced pass (from `SimReport.perf`).
#[derive(Debug, Default, Clone)]
pub struct SimTotals {
    pub events: u64,
    pub recomputes: u64,
    pub flows: u64,
    pub flows_peak: u64,
}

impl SimTotals {
    pub fn add(&mut self, r: &SimReport) {
        self.events += r.perf.events;
        self.recomputes += r.perf.recomputes;
        self.flows += r.perf.flows;
        self.flows_peak = self.flows_peak.max(r.perf.flows_peak as u64);
    }
}

/// The deterministic counters the traced replay must share with the
/// service's own `metrics()` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub requests: u64,
    pub advisor_hits: u64,
    pub verify_memo_entries: u64,
    pub simulations: u64,
}

impl Counts {
    pub fn of_service(svc: &Service) -> Counts {
        let m = svc.metrics();
        let c = |k: &str| m.counters.get(k).copied().unwrap_or(u64::MAX);
        Counts {
            requests: c("requests"),
            advisor_hits: c("advisor_cache_hits"),
            verify_memo_entries: c("verify_memo_entries"),
            simulations: c("simulations"),
        }
    }
}

/// Everything one traced pass measured.
pub struct TracedPass {
    pub wall_ns: u64,
    pub layers: BTreeMap<&'static str, LayerTotals>,
    pub sim: SimTotals,
    pub advise_calls: u64,
    pub advise_hits: u64,
    pub verify_calls: u64,
    pub counts: Counts,
    pub hash: u64,
    pub failures: Failures,
    /// `(query, ns)` of the longest request span.
    pub slowest: Option<(u64, u64)>,
}

/// Memoized outcome of one verification, as the service stores it.
#[derive(Debug, Clone)]
struct VerifySummary {
    clean: bool,
    errors: usize,
    warnings: usize,
}

/// The service's layers called one by one, each call inside a span.
struct Pipeline {
    params: MachineParams,
    advisor: Advisor,
    memo: HashMap<String, VerifySummary>,
    tr: Tracer,
    sim: SimTotals,
    requests: u64,
    simulations: u64,
    advise_calls: u64,
    advise_hits: u64,
    verify_calls: u64,
}

/// Replay `lines` with a span around every layer call.
pub fn traced_replay(lines: &[String]) -> TracedPass {
    let config = ServiceConfig::default();
    let mut p = Pipeline {
        params: config.params.clone(),
        advisor: Advisor::with_shards(config.shards),
        memo: HashMap::new(),
        tr: Tracer::default(),
        sim: SimTotals::default(),
        requests: 0,
        simulations: 0,
        advise_calls: 0,
        advise_hits: 0,
        verify_calls: 0,
    };
    let mut responses: Vec<Option<String>> = Vec::with_capacity(lines.len());
    let start = Instant::now();
    for (seq, line) in lines.iter().enumerate() {
        p.tr.set_query(seq as u64);
        let root = p.tr.begin("serve.request");
        let out = catch_unwind(AssertUnwindSafe(|| p.handle_line(line))).ok();
        p.tr.end(root);
        responses.push(out);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut failures = Failures::default();
    for (line, r) in lines.iter().zip(&responses) {
        check_response(line_id(line), r.as_deref(), &mut failures);
    }
    TracedPass {
        wall_ns,
        layers: p.tr.totals(),
        sim: p.sim,
        advise_calls: p.advise_calls,
        advise_hits: p.advise_hits,
        verify_calls: p.verify_calls,
        counts: Counts {
            requests: p.requests,
            advisor_hits: p.advisor.cache_queries() - p.advisor.cache_len() as u64,
            verify_memo_entries: p.memo.len() as u64,
            simulations: p.simulations,
        },
        hash: hash_stream(responses.iter().map(|r| r.as_deref())),
        failures,
        slowest: p.tr.slowest("serve.request"),
    }
}

fn pick_exchange(rec: &Recommendation) -> Result<ExchangeAlg, String> {
    match rec.algorithm {
        Algorithm::Exchange(a) => Ok(a),
        other => Err(format!("advisor returned non-exchange pick {other}")),
    }
}

fn check_sim_size(n: usize) -> Result<(), String> {
    if n > SIM_MAX_NODES {
        return Err(format!(
            "simulation is capped at {SIM_MAX_NODES} nodes per request, got {n}"
        ));
    }
    Ok(())
}

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

impl Pipeline {
    fn handle_line(&mut self, line: &str) -> String {
        self.requests += 1;
        let parsed = self.tr.span("serve.parse", || Request::parse_line(line));
        let result = match &parsed {
            Ok(req) => self.answer(req),
            Err(e) => Err(e.clone()),
        };
        let id = parsed.as_ref().map_or(0, |r| r.id);
        self.tr.span("serve.render", || match result {
            Ok(fields) => Json::Obj(fields).render(),
            Err(e) => error_line(id, &e),
        })
    }

    fn answer(&mut self, req: &Request) -> Result<Vec<(String, Json)>, String> {
        let mut fields = response_base(req.id, true);
        match &req.query {
            &Query::Exchange { n, bytes } => {
                let rec = self.advise(&Workload::Exchange { n, bytes }, n);
                if req.verify {
                    let alg = pick_exchange(&rec)?;
                    let v = self.verified(req, rec.algorithm.name(), |tr, params| {
                        let schedule = tr.span("core.schedule", || alg.schedule(n, bytes));
                        let mut opts = exchange_policy(alg);
                        opts.params = params.clone();
                        summarize(&verify_schedule(&schedule, None, &opts))
                    });
                    fields.push(("verify".into(), v));
                }
                if req.simulate {
                    let alg = pick_exchange(&rec)?;
                    check_sim_size(n)?;
                    let programs = self
                        .tr
                        .span("core.schedule", || lower(&alg.schedule(n, bytes)));
                    let report = self.simulate(&programs, n)?;
                    fields.push(("simulated".into(), self.render(|| sim_json(&report))));
                }
                fields.push((
                    "recommendation".into(),
                    self.render(|| recommendation_json(&rec)),
                ));
            }
            &Query::Broadcast { n, bytes } => {
                let rec = self.advise(&Workload::Broadcast { n, bytes }, n);
                let alg = match rec.algorithm {
                    Algorithm::Broadcast(b) => b,
                    other => return Err(format!("advisor returned non-broadcast pick {other}")),
                };
                let programs = self
                    .tr
                    .span("core.schedule", || broadcast_programs(alg, n, 0, bytes));
                if req.verify {
                    let v = self.verified(req, rec.algorithm.name(), |_, _| {
                        summarize(&verify_programs(&programs))
                    });
                    fields.push(("verify".into(), v));
                }
                if req.simulate {
                    let report = self.simulate(&programs, n)?;
                    fields.push(("simulated".into(), self.render(|| sim_json(&report))));
                }
                fields.push((
                    "recommendation".into(),
                    self.render(|| recommendation_json(&rec)),
                ));
            }
            &Query::Irregular {
                n,
                density,
                bytes,
                seed,
            } => {
                let pattern = self.tr.span("workloads.pattern_build", || {
                    Pattern::seeded_random(n, density, bytes.max(1), seed)
                });
                self.answer_pattern(req, &pattern, &mut fields)?;
            }
            Query::Workload { name, n } => {
                let pattern = self
                    .tr
                    .span("workloads.pattern_build", || named_pattern(name, *n))?;
                self.answer_pattern(req, &pattern, &mut fields)?;
            }
            Query::Tenants {
                shared_n,
                placement,
                tenants,
            } => {
                let report = self.tenants(req, *shared_n, *placement, tenants, &mut fields)?;
                fields.push(("tenants".into(), report));
            }
            Query::Pattern { .. } => {
                return Err("pattern queries are not part of the benchmark traffic".into())
            }
        }
        Ok(fields)
    }

    fn answer_pattern(
        &mut self,
        req: &Request,
        pattern: &Pattern,
        fields: &mut Vec<(String, Json)>,
    ) -> Result<(), String> {
        let n = pattern.n();
        let stats = self.tr.span("model.stats", || {
            PatternStats::of(pattern, &FatTree::new(n))
        });
        let rec = self.advise(&Workload::Irregular(stats.clone()), n);
        let alg = match rec.algorithm {
            Algorithm::Irregular(a) => a,
            other => return Err(format!("advisor returned non-irregular pick {other}")),
        };
        fields.push(("stats".into(), self.render(|| stats_json(&stats))));
        if req.verify {
            let schedule = self.tr.span("core.schedule", || alg.schedule(pattern));
            let v = self.verified(req, rec.algorithm.name(), |_, params| {
                let mut opts = irregular_policy(alg);
                opts.params = params.clone();
                summarize(&verify_schedule(&schedule, Some(pattern), &opts))
            });
            fields.push(("verify".into(), v));
        }
        if req.simulate {
            check_sim_size(n)?;
            let programs = self
                .tr
                .span("core.schedule", || lower(&alg.schedule(pattern)));
            let report = self.simulate(&programs, n)?;
            fields.push(("simulated".into(), self.render(|| sim_json(&report))));
        }
        fields.push((
            "recommendation".into(),
            self.render(|| recommendation_json(&rec)),
        ));
        Ok(())
    }

    fn tenants(
        &mut self,
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
            let rec = self.advise(
                &Workload::Exchange {
                    n: t.n,
                    bytes: t.bytes,
                },
                t.n,
            );
            let alg = pick_exchange(&rec)?;
            let programs = self
                .tr
                .span("core.schedule", || lower(&alg.schedule(t.n, t.bytes)));
            specs.push(TenantSpec {
                name: t.name.clone(),
                programs,
            });
            recs.push(self.render(|| {
                Json::Obj(vec![
                    ("name".into(), Json::str(t.name.clone())),
                    ("recommendation".into(), recommendation_json(&rec)),
                ])
            }));
        }
        if req.verify {
            let v = self.verified(req, "tenants", |_, _| {
                let sizes: Vec<usize> = specs.iter().map(|s| s.programs.len()).collect();
                match TenantLayout::new(shared_n, &sizes, placement)
                    .and_then(|l| l.merge_programs(&specs))
                {
                    Ok(merged) => summarize(&verify_programs(&merged)),
                    Err(_) => VerifySummary {
                        clean: false,
                        errors: 1,
                        warnings: 0,
                    },
                }
            });
            fields.push(("verify".into(), v));
        }
        self.simulations += 1;
        let params = &self.params;
        let report = self
            .tr
            .span("sim.run", || {
                run_tenants(shared_n, placement, &specs, params)
            })
            .map_err(|e| e.to_string())?;
        self.sim.add(&report.report);
        fields.push(("tenant_recommendations".into(), Json::Arr(recs)));
        Ok(self.render(|| tenants_json(&report)))
    }

    fn advise(&mut self, w: &Workload, n: usize) -> Recommendation {
        let (advisor, params) = (&self.advisor, &self.params);
        let (rec, outcome) = self.tr.span("model.advise", || {
            advisor.recommend_traced(w, params, &FatTree::new(n))
        });
        self.advise_calls += 1;
        self.advise_hits += u64::from(outcome.hit);
        rec
    }

    /// Verification memoized per (query, algorithm), as the service does.
    fn verified(
        &mut self,
        req: &Request,
        alg: &str,
        run: impl FnOnce(&mut Tracer, &MachineParams) -> VerifySummary,
    ) -> Json {
        self.verify_calls += 1;
        let span = self.tr.begin("verify");
        let key = format!(
            "{}|{alg}",
            Request {
                id: 0,
                query: req.query.clone(),
                verify: false,
                simulate: false,
            }
            .render_line()
        );
        let summary = match self.memo.get(&key) {
            Some(hit) => hit.clone(),
            None => {
                let summary = run(&mut self.tr, &self.params);
                self.memo.insert(key, summary.clone());
                summary
            }
        };
        self.tr.end(span);
        self.render(|| verify_json(&summary))
    }

    fn simulate(&mut self, programs: &[OpProgram], n: usize) -> Result<SimReport, String> {
        check_sim_size(n)?;
        self.simulations += 1;
        let params = &self.params;
        let report = self
            .tr
            .span("sim.run", || {
                Simulation::new(n, params.clone()).run_ops(programs)
            })
            .map_err(|e| e.to_string())?;
        self.sim.add(&report);
        Ok(report)
    }

    fn render(&mut self, f: impl FnOnce() -> Json) -> Json {
        self.tr.span("serve.render", f)
    }
}

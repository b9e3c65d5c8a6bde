//! cm5-sched benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed|serve_cold|sim_scale --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are a human
//! summary. The process exits 1 when any correctness check fails. See
//! `perfbench/README.md` for the workloads, metrics and layer map.

mod gen;
mod serve;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serve::{Counts, Replay};
use trace::{LayerTotals, Tracer};

/// Failed operations, by kind; every kind counts toward `error_rate`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub panic: u64,
    pub not_ok: u64,
    pub missing: u64,
    pub sim_error: u64,
}

impl Failures {
    fn total(&self) -> u64 {
        self.panic + self.not_ok + self.missing + self.sim_error
    }

    fn add(&mut self, o: &Failures) {
        self.panic += o.panic;
        self.not_ok += o.not_ok;
        self.missing += o.missing;
        self.sim_error += o.sim_error;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument '{other}'")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !["serve_mixed", "serve_cold", "sim_scale"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (serve_mixed | serve_cold | sim_scale)"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Failures,
    checks: Vec<(String, bool)>,
    /// `(name, value, unit)` in output order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, name: impl Into<String>, pass: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, p)) => *p &= pass,
            None => self.checks.push((name, pass)),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Linearly interpolated quantile `p` of `values` (0 when empty).
fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let x = p * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank percentile of nanosecond samples, in ms.
fn percentile_ms(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1e6
}

/// Every pass of a run replays the same operations on fresh state.
#[derive(Default)]
struct Passes {
    /// Operations completed per second, one value per pass.
    rates: Vec<f64>,
    /// `latencies[op][pass]`, ns.
    latencies: Vec<Vec<u64>>,
}

impl Passes {
    fn push(&mut self, latencies: &[u64], wall_ns: u64) {
        self.latencies.resize(latencies.len(), Vec::new());
        for (op, &ns) in self.latencies.iter_mut().zip(latencies) {
            op.push(ns);
        }
        self.rates
            .push(latencies.len() as f64 / (wall_ns as f64 / 1e9));
    }

    /// Report the latency and rate metrics; returns `qps`. A shared host
    /// runs in faster bursts whose share of a run varies, so figures are
    /// taken on the slow side, where they repeat best from run to run: each
    /// operation's latency is the upper quartile of its latencies across
    /// passes; p50 and p99 are taken over operations, and `qps` is the
    /// operations over the sum of those latencies, which is what one
    /// closed-loop client completes per second.
    fn report(&self, out: &mut Outcome, what: &str) -> f64 {
        let mut per_op: Vec<u64> = self
            .latencies
            .iter()
            .map(|l| {
                let l: Vec<f64> = l.iter().map(|&ns| ns as f64).collect();
                quantile(&l, 0.75) as u64
            })
            .collect();
        let busy_ns: u64 = per_op.iter().sum();
        let qps = per_op.len() as f64 / (busy_ns as f64 / 1e9);
        out.metric("qps", qps, "1/s");
        out.metric("latency_p50_ms", percentile_ms(&mut per_op, 0.50), "ms");
        out.metric("latency_p99_ms", percentile_ms(&mut per_op, 0.99), "ms");
        let mut pooled: Vec<u64> = self.latencies.iter().flatten().copied().collect();
        out.notes.push(format!(
            "{} passes of {} {what}; per-pass rate quartiles {:.4} / {:.4} / {:.4}; \
             pooled p50 {:.6} ms, p99 {:.6} ms over {} samples",
            self.rates.len(),
            self.latencies.len(),
            quantile(&self.rates, 0.25),
            median(&self.rates),
            quantile(&self.rates, 0.75),
            percentile_ms(&mut pooled, 0.5),
            percentile_ms(&mut pooled, 0.99),
            pooled.len()
        ));
        qps
    }
}

/// Run `setup` and time it.
fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let product = setup();
    (product, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn record_replay(out: &mut Outcome, r: &Replay) {
    out.attempted += r.latencies_ns.len() as u64;
    out.failures.add(&r.failures);
}

/// A serve workload: the generated lines replayed closed-loop, each pass
/// on a fresh service, until the time is up. Every pass first sets up
/// again (generate the inputs, build the service); `setup_s` is the median
/// of those set-ups.
fn run_serve(args: &Args, generate: fn(u64) -> Vec<String>) -> Outcome {
    let setup = || (generate(args.seed), serve::new_service());
    let mut out = Outcome::default();
    let (lines, svc) = setup();
    let warm = serve::replay(&svc, &lines);
    record_replay(&mut out, &warm);
    if args.trace {
        return traced_serve(args, out, &lines);
    }
    let mut passes = Passes::default();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    while passes.rates.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let ((lines, svc), secs) = timed(setup);
        setup_s.push(secs);
        let r = serve::replay(&svc, &lines);
        out.check(
            "response stream hash identical across passes",
            r.hash == warm.hash,
        );
        passes.push(&r.latencies_ns, r.wall_ns);
        record_replay(&mut out, &r);
    }
    passes.report(&mut out, "requests");
    out.metric("setup_s", median(&setup_s), "s");
    out
}

/// Per-layer metric values of one traced pass.
type LayerValues = BTreeMap<String, f64>;

fn layer(layers: &BTreeMap<&'static str, LayerTotals>, name: &str) -> LayerTotals {
    layers.get(name).cloned().unwrap_or_default()
}

/// Layers whose self time `trace.coverage` sums: every span the benchmark
/// records around a call into the program.
const LAYERS: [&str; 8] = [
    "serve.parse",
    "serve.render",
    "workloads.pattern_build",
    "model.stats",
    "model.advise",
    "core.schedule",
    "verify",
    "sim.run",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The layer metrics every workload reports (cells are added separately).
fn layer_values(
    layers: &BTreeMap<&'static str, LayerTotals>,
    sim: &serve::SimTotals,
    advise: (u64, u64),
    verify: (u64, u64),
    traced_ns: u64,
    untraced_ns: u64,
) -> LayerValues {
    let ms = |name: &str| layer(layers, name).self_ns as f64 / 1e6;
    let run = layer(layers, "sim.run");
    let covered: u64 = LAYERS.iter().map(|l| layer(layers, l).self_ns).sum();
    let build = layer(layers, "workloads.pattern_build");
    let mut v = LayerValues::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("serve.parse_ms", ms("serve.parse"));
    put("serve.render_ms", ms("serve.render"));
    put("workloads.pattern_build_ms", ms("workloads.pattern_build"));
    put("workloads.pattern_build_calls", build.calls as f64);
    put("workloads.pattern_build_max_ms", build.max_ns as f64 / 1e6);
    put("model.stats_ms", ms("model.stats"));
    put("model.advise_ms", ms("model.advise"));
    put("model.advise_calls", advise.0 as f64);
    put("model.advise_hit_ratio", ratio(advise.1, advise.0));
    put("core.schedule_ms", ms("core.schedule"));
    put("verify.ms", ms("verify"));
    put("verify.calls", verify.0 as f64);
    put(
        "verify.memo_hit_ratio",
        ratio(verify.0 - verify.1, verify.0),
    );
    put("sim.run_ms", ms("sim.run"));
    put("sim.calls", run.calls as f64);
    put("sim.events", sim.events as f64);
    put("sim.recomputes", sim.recomputes as f64);
    put("sim.flows", sim.flows as f64);
    put("sim.flows_peak", sim.flows_peak as f64);
    put("sim.ns_per_event", ratio(run.self_ns, sim.events));
    put("trace.coverage", ratio(covered, untraced_ns));
    put("trace.overhead_frac", ratio(traced_ns, untraced_ns) - 1.0);
    for cell in gen::cell_names() {
        put(&format!("sim.cell.{cell}.ms"), 0.0);
        put(&format!("sim.cell.{cell}.events"), 0.0);
    }
    v
}

/// Report the per-key median of the traced passes, with units.
fn emit_layer_medians(out: &mut Outcome, passes: &[LayerValues]) {
    for key in passes[0].keys() {
        let values: Vec<f64> = passes.iter().map(|p| p[key]).collect();
        let unit = if key.ends_with("_ms") || key.ends_with(".ms") {
            "ms"
        } else if key.ends_with("ratio") || key.starts_with("trace.") {
            "ratio"
        } else if key == "sim.ns_per_event" {
            "ns/event"
        } else {
            "count"
        };
        out.metric(key.clone(), median(&values), unit);
    }
}

/// Traced serve run: alternate an untraced replay through the service and
/// a traced replay of the same lines, each on fresh state, until the time
/// is up.
fn traced_serve(args: &Args, mut out: Outcome, lines: &[String]) -> Outcome {
    let mut passes = Vec::new();
    let mut first_hash = None;
    let mut slowest: Option<(u64, u64)> = None;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let svc = serve::new_service();
        let u = serve::replay(&svc, lines);
        record_replay(&mut out, &u);
        out.check(
            "response stream hash identical across passes",
            u.hash == *first_hash.get_or_insert(u.hash),
        );
        let t = serve::traced_replay(lines);
        out.attempted += lines.len() as u64;
        out.failures.add(&t.failures);
        let service_counts = Counts::of_service(&svc);
        out.check(
            "traced responses identical to the service's",
            t.hash == u.hash,
        );
        if t.counts != service_counts {
            out.notes.push(format!(
                "fidelity mismatch: traced {:?} vs service {:?}",
                t.counts, service_counts
            ));
        }
        out.check(
            "traced counts match Service::metrics()",
            t.counts == service_counts,
        );
        if let Some((query, ns)) = t.slowest {
            slowest = slowest.max(Some((ns, query)));
        }
        passes.push(layer_values(
            &t.layers,
            &t.sim,
            (t.advise_calls, t.advise_hits),
            (t.verify_calls, t.counts.verify_memo_entries),
            t.wall_ns,
            u.wall_ns,
        ));
    }
    out.notes.push(format!(
        "per-layer values are medians over {} traced passes of {} requests each",
        passes.len(),
        lines.len()
    ));
    if let Some((ns, query)) = slowest {
        out.notes.push(format!(
            "slowest traced request: id {query} ({:.3} ms): {}",
            ns as f64 / 1e6,
            lines[query as usize]
        ));
    }
    note_coverage(&mut out, &passes);
    emit_layer_medians(&mut out, &passes);
    out
}

/// Stated bound for `trace.coverage`: the layers' self times should sum to
/// the untraced wall time within 15 %. Reported, not enforced: it is a
/// timing ratio, so host noise alone can move it.
const COVERAGE_BOUND: f64 = 0.15;

fn note_coverage(out: &mut Outcome, passes: &[LayerValues]) {
    let values: Vec<f64> = passes.iter().map(|p| p["trace.coverage"]).collect();
    let c = median(&values);
    let verdict = if (c - 1.0).abs() <= COVERAGE_BOUND {
        "within"
    } else {
        "OUTSIDE"
    };
    out.notes.push(format!(
        "trace.coverage {c:.4}: {verdict} the stated bound 1 ± {COVERAGE_BOUND}"
    ));
}

/// Identity of a finished cell run, compared across repetitions.
type CellKey = Option<(u64, u64)>;

fn run_sim_scale(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        let cells = gen::sim_cells(args.seed);
        let built = sim::build(&cells, &mut Tracer::default());
        (cells, built)
    };
    let (cells, built) = setup();

    // Warm-up pass: the reference every later repetition must reproduce.
    let mut reference: Vec<CellKey> = Vec::new();
    let mut goldens = 0;
    for cell in &built {
        let run = sim::run_cell(cell);
        out.attempted += 1;
        reference.push(cell_key(&run, &mut out.failures));
        if let Some(Ok(report)) = &run.result {
            goldens += check_golden(&mut out, &cell.name, report.makespan.as_millis_f64());
        }
    }
    out.check("Figure 5 goldens", goldens == 8);
    drop(built);
    if args.trace {
        return traced_sim(args, out, &cells, &reference);
    }

    let mut passes = Passes::default();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    while passes.rates.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let ((_, built), secs) = timed(setup);
        setup_s.push(secs);
        let mut latencies = Vec::with_capacity(built.len());
        for (cell, want) in built.iter().zip(&reference) {
            let run = sim::run_cell(cell);
            out.attempted += 1;
            let got = cell_key(&run, &mut out.failures);
            out.check(
                "makespans and event counts identical across passes",
                got == *want,
            );
            latencies.push(run.wall_ns);
        }
        let wall: u64 = latencies.iter().sum();
        passes.push(&latencies, wall);
    }
    let qps = passes.report(&mut out, "cells (qps counts cells)");
    out.metric("setup_s", median(&setup_s), "s");
    // Every pass simulates the reference's events, so the event rate is
    // the cell rate scaled by events per cell.
    let events: u64 = reference.iter().map(|k| k.map_or(0, |k| k.1)).sum();
    out.notes.push(format!(
        "events_per_s {} 1/s ({events} events per pass)",
        qps * events as f64 / reference.len() as f64
    ));
    out
}

/// `(makespan ns, events)` of a successful run; failures are counted.
fn cell_key(run: &sim::CellRun, failures: &mut Failures) -> CellKey {
    match &run.result {
        None => {
            failures.panic += 1;
            None
        }
        Some(Err(_)) => {
            failures.sim_error += 1;
            None
        }
        Some(Ok(r)) => Some((r.makespan.as_nanos(), r.perf.events)),
    }
}

/// Check `cell` against its Figure 5 golden, if it has one; returns the
/// number of goldens that matched.
fn check_golden(out: &mut Outcome, cell: &str, ms: f64) -> usize {
    let mut matched = 0;
    for (bytes, row) in sim::FIG5_GOLDEN_MS {
        for (alg, golden) in gen::EXCHANGES.iter().zip(row) {
            if cell == format!("fig5_{alg}_{bytes}") {
                let pass = (ms - golden).abs() < 1e-3;
                if pass {
                    matched += 1;
                } else {
                    out.notes
                        .push(format!("{cell}: {ms:.6} ms, golden {golden:.3} ms"));
                }
            }
        }
    }
    matched
}

/// Traced `sim_scale` run: alternate an untraced pass (build + run every
/// cell) with a traced one.
fn traced_sim(
    args: &Args,
    mut out: Outcome,
    cells: &[gen::Cell],
    reference: &[CellKey],
) -> Outcome {
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let built = sim::build(cells, &mut Tracer::default());
        for cell in &built {
            let run = sim::run_cell(cell);
            out.attempted += 1;
            cell_key(&run, &mut out.failures);
        }
        let untraced_ns = t0.elapsed().as_nanos() as u64;

        let t0 = Instant::now();
        let mut tr = Tracer::default();
        let built = sim::build(cells, &mut tr);
        let mut totals = serve::SimTotals::default();
        let mut per_cell = Vec::new();
        for (cell, want) in built.iter().zip(reference) {
            let span = tr.begin("sim.run");
            let run = sim::run_cell(cell);
            tr.end(span);
            out.attempted += 1;
            let got = cell_key(&run, &mut out.failures);
            out.check(
                "makespans and event counts identical across passes",
                got == *want,
            );
            if let Some(Ok(r)) = &run.result {
                totals.add(r);
            }
            per_cell.push((cell.name.clone(), run.wall_ns, got.map_or(0, |k| k.1)));
        }
        let traced_ns = t0.elapsed().as_nanos() as u64;
        let mut v = layer_values(
            &tr.totals(),
            &totals,
            (0, 0),
            (0, 0),
            traced_ns,
            untraced_ns,
        );
        for (name, ns, events) in per_cell {
            v.insert(format!("sim.cell.{name}.ms"), ns as f64 / 1e6);
            v.insert(format!("sim.cell.{name}.events"), events as f64);
        }
        passes.push(v);
    }
    out.notes.push(format!(
        "per-layer values are medians over {} traced passes of {} cells each",
        passes.len(),
        cells.len()
    ));
    note_coverage(&mut out, &passes);
    emit_layer_medians(&mut out, &passes);
    out
}

// ------------------------------------------------------------------- host

/// Parallel speed-up of a fixed CPU-bound loop on every available core:
/// 1.0 on a single core, close to `nproc` when the cores are real and idle.
fn effective_parallelism(nproc: usize) -> f64 {
    fn spin() -> u64 {
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        x
    }
    let t = Instant::now();
    std::hint::black_box(spin());
    let one = t.elapsed();
    let t = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc).map(|_| s.spawn(spin)).collect();
        for h in handles {
            std::hint::black_box(h.join().expect("spin thread panicked"));
        }
    });
    let all = t.elapsed().max(Duration::from_nanos(1));
    nproc as f64 * one.as_secs_f64() / all.as_secs_f64()
}

/// The checked-out commit, read from `.git` when the run is inside a git
/// checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host {{\"nproc\":{nproc},\"effective_parallelism\":{:.2},\"profile\":\"{}\",\"commit\":\"{}\"}}",
        effective_parallelism(nproc),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_mixed|serve_cold|sim_scale --seed N --seconds S --trace 0|1\n\
                 (default seed {}, held-out seed {})",
                gen::DEFAULT_SEED,
                gen::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_line());
    let mut out = match args.workload.as_str() {
        "serve_mixed" => run_serve(&args, gen::mixed_trace),
        "serve_cold" => run_serve(&args, gen::cold_trace),
        _ => run_sim_scale(&args),
    };
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let failed = out.failures.total();
    out.check("no failed operations", failed == 0);
    for (_, value, _) in &mut out.metrics {
        if !value.is_finite() {
            *value = 0.0;
            out.checks.push(("metrics are finite".into(), false));
        }
    }
    let correct = out.checks.iter().all(|(_, pass)| *pass);

    for note in &out.notes {
        println!("{note}");
    }
    let f = &out.failures;
    println!(
        "error_rate {} ratio ({} failed of {} attempted: panic {}, not_ok {}, missing {}, sim_error {})",
        ratio(failed, out.attempted),
        failed,
        out.attempted,
        f.panic,
        f.not_ok,
        f.missing,
        f.sim_error
    );
    for (name, pass) in &out.checks {
        println!("check {:<52} {}", name, if *pass { "pass" } else { "FAIL" });
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        out.attempted,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

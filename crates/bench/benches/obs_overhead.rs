//! Observability overhead: the same PEX exchange with the trace/rate sinks
//! disabled vs fully enabled.
//!
//! The disabled path must be in the noise — recording is guarded by one
//! branch per event — and the enabled path documents the real cost of
//! filling the trace vector and sampling per-link rates (expect a
//! measurable but small constant factor; the enabled numbers include
//! building those vectors).

use cm5_core::{exec::exchange_programs, ExchangeAlg};
use cm5_sim::{MachineParams, Simulation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(20);
    for n in [16usize, 32] {
        let programs = exchange_programs(ExchangeAlg::Pex, n, 1024);
        g.bench_with_input(BenchmarkId::new("disabled", n), &programs, |b, programs| {
            let sim = Simulation::new(n, MachineParams::cm5_1992());
            b.iter(|| black_box(sim.run_ops(programs).unwrap().messages))
        });
        g.bench_with_input(BenchmarkId::new("enabled", n), &programs, |b, programs| {
            let sim = Simulation::new(n, MachineParams::cm5_1992())
                .record_trace(true)
                .record_rates(true);
            b.iter(|| {
                let report = sim.run_ops(programs).unwrap();
                black_box((report.messages, report.trace.len()))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

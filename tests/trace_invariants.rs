//! Invariants of a recorded trace, read through `cm5-obs`'s span store,
//! and of the schedule shape metrics ([`cm5_core::analysis`]), checked on
//! known workloads: PEX complete exchange on 8 nodes, disjoint pairs and
//! a fan-in to one receiver.
//!
//! PEX at 8 nodes is small enough to reason about exactly — 7 pairwise
//! XOR steps, every node sending and receiving once per step.

use cm5_core::prelude::*;
use cm5_obs::{MessageSpan, SpanStore};
use cm5_sim::{MachineParams, Op, SimReport, Simulation, ANY_TAG};

const N: usize = 8;

fn traced_pex(bytes: u64) -> (SimReport, SpanStore) {
    let schedule = ExchangeAlg::Pex.schedule(N, bytes);
    let report = Simulation::new(N, MachineParams::cm5_1992())
        .record_trace(true)
        .run_ops(&lower(&schedule))
        .expect("pex run");
    let spans = SpanStore::from_report(&report);
    (report, spans)
}

#[test]
fn pex_sends_and_receives_are_uniform() {
    // Complete exchange: every node sends to and receives from each of
    // the other N-1 nodes exactly once.
    let (report, spans) = traced_pex(256);
    let mut sends = vec![0u64; N];
    let mut recvs = vec![0u64; N];
    for m in &spans.messages {
        sends[m.src] += 1;
        recvs[m.dst] += 1;
    }
    assert_eq!(sends, vec![(N - 1) as u64; N]);
    assert_eq!(recvs, vec![(N - 1) as u64; N]);
    assert_eq!(report.messages, (N * (N - 1)) as u64);
}

#[test]
fn message_spans_cover_every_delivery() {
    // One span per delivered message, none left unpaired, each well
    // formed and ending no later than the makespan.
    let (report, spans) = traced_pex(1024);
    assert_eq!(spans.messages.len() as u64, report.messages);
    assert_eq!((spans.unmatched_starts, spans.unmatched_dones), (0, 0));
    for m in &spans.messages {
        assert!(m.from < m.to, "empty or inverted span {m:?}");
    }
    assert!(spans.end() <= cm5_sim::SimTime::ZERO + report.makespan);
}

/// Message spans of a traced run of raw op programs.
fn message_spans(programs: &[Vec<Op>]) -> Vec<MessageSpan> {
    let report = Simulation::new(programs.len(), MachineParams::cm5_1992())
        .record_trace(true)
        .run_ops(programs)
        .expect("traced run");
    SpanStore::from_report(&report).messages
}

#[test]
fn parallel_pairs_overlap() {
    // Two disjoint pairs exchange large messages simultaneously.
    let mut p = vec![Vec::new(); 4];
    for (a, b) in [(0usize, 1usize), (2, 3)] {
        p[a].push(Op::Recv {
            from: b,
            tag: ANY_TAG,
        });
        p[b].push(Op::Send {
            to: a,
            bytes: 50_000,
            tag: ANY_TAG,
        });
    }
    let spans = message_spans(&p);
    assert_eq!(spans.len(), 2);
    let (x, y) = (&spans[0], &spans[1]);
    assert!(
        x.from < y.to && y.from < x.to,
        "{x:?} and {y:?} must overlap"
    );
}

#[test]
fn serialized_fan_in_never_overlaps() {
    // Rendezvous at a single receiver admits one transfer at a time.
    let n = 6;
    let mut p = vec![Vec::new(); n];
    for i in 1..n {
        p[0].push(Op::Recv {
            from: i,
            tag: ANY_TAG,
        });
        p[i].push(Op::Send {
            to: 0,
            bytes: 5_000,
            tag: ANY_TAG,
        });
    }
    let mut spans = message_spans(&p);
    assert_eq!(spans.len(), n - 1);
    spans.sort_by_key(|m| m.from);
    for pair in spans.windows(2) {
        assert!(pair[0].to <= pair[1].from, "{pair:?} overlap");
    }
}

#[test]
fn pex_schedule_summary_shape() {
    let schedule = ExchangeAlg::Pex.schedule(N, 256);
    let summary = ScheduleSummary::of(&schedule, &cm5_sim::FatTree::new(N));
    assert_eq!(summary.steps, N - 1, "PEX runs N-1 pairwise XOR steps");
    assert_eq!(summary.ops, N * (N - 1) / 2, "each step pairs all nodes");
    assert_eq!(summary.crossings.len(), summary.steps);
    assert_eq!(
        summary.max_crossings_per_step,
        summary.crossings.iter().copied().max().unwrap()
    );
    assert!(summary.all_global_steps <= summary.steps);
    // XOR partners with bit 2 set cross the 8-node tree's root: steps
    // 4..7 are all-global (every pair spans the two 4-node subtrees).
    assert_eq!(summary.all_global_steps, 4);
    assert_eq!(summary.idle.len(), summary.steps);
    assert_eq!(summary.mean_idle, 0.0, "complete exchange idles nobody");
}

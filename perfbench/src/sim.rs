//! `sim_scale`: `Simulation::run_ops` on fixed cells, from the paper's 32
//! nodes to 16K.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cm5_core::prelude::*;
use cm5_sim::{MachineParams, Op, OpProgram, SimReport, Simulation};

use crate::gen::{Cell, CellSpec};
use crate::trace::Tracer;

/// A cell lowered to per-node programs, ready to run.
pub struct Built {
    pub name: String,
    pub n: usize,
    pub programs: Vec<OpProgram>,
}

fn exchange_alg(name: &str) -> ExchangeAlg {
    match name {
        "lex" => ExchangeAlg::Lex,
        "pex" => ExchangeAlg::Pex,
        "rex" => ExchangeAlg::Rex,
        "bex" => ExchangeAlg::Bex,
        other => panic!("unknown exchange {other}"),
    }
}

/// Per-node programs of a truncated pairwise exchange. Built here, from
/// the simulator's op set, rather than by any scheduler of the program.
fn slice_programs(n: usize, strides: &[usize], bytes: &[u64]) -> Vec<OpProgram> {
    let mut programs: Vec<OpProgram> = vec![Vec::with_capacity(2 * strides.len()); n];
    for (step, &j) in strides.iter().enumerate() {
        let tag = step as u32;
        for (i, prog) in programs.iter_mut().enumerate() {
            let partner = i ^ j;
            let send = Op::Send {
                to: partner,
                bytes: bytes[i % bytes.len()],
                tag,
            };
            let recv = Op::Recv { from: partner, tag };
            if i < partner {
                prog.extend([send, recv]);
            } else {
                prog.extend([recv, send]);
            }
        }
    }
    programs
}

/// Build and lower every cell, with spans around the pattern and
/// schedule layers.
pub fn build(cells: &[Cell], tr: &mut Tracer) -> Vec<Built> {
    cells
        .iter()
        .map(|cell| {
            let programs = match &cell.spec {
                &CellSpec::Exchange { alg, n, bytes } => tr.span("core.schedule", || {
                    lower(&exchange_alg(alg).schedule(n, bytes))
                }),
                &CellSpec::Greedy {
                    n,
                    density,
                    bytes,
                    pattern_seed,
                } => {
                    let pattern = tr.span("workloads.pattern_build", || {
                        Pattern::seeded_random(n, density, bytes, pattern_seed)
                    });
                    tr.span("core.schedule", || lower(&gs(&pattern)))
                }
                CellSpec::Slice { n, strides, bytes } => {
                    tr.span("bench.slice_build", || slice_programs(*n, strides, bytes))
                }
            };
            Built {
                name: cell.name.clone(),
                n: cell.n(),
                programs,
            }
        })
        .collect()
}

/// Outcome of one cell run.
pub struct CellRun {
    pub wall_ns: u64,
    /// `None` when the run panicked; `Some(Err)` on a `SimError`.
    pub result: Option<Result<SimReport, String>>,
}

/// Run one cell under `catch_unwind`, timing only `run_ops`.
pub fn run_cell(cell: &Built) -> CellRun {
    let sim = Simulation::new(cell.n, MachineParams::cm5_1992());
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| sim.run_ops(&cell.programs)))
        .ok()
        .map(|r| r.map_err(|e| e.to_string()));
    CellRun {
        wall_ns: t.elapsed().as_nanos() as u64,
        result,
    }
}

/// Figure 5 goldens from EXPERIMENTS.md (ms), LEX/PEX/REX/BEX at 32 nodes.
pub const FIG5_GOLDEN_MS: [(u64, [f64; 4]); 2] = [
    (0, [38.230, 3.100, 0.504, 3.100]),
    (1920, [220.776, 25.196, 71.136, 23.417]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_a_valid_pairing() {
        let programs = slice_programs(16, &[1, 2, 8, 9], &[64, 96]);
        let report = Simulation::new(16, MachineParams::cm5_1992())
            .run_ops(&programs)
            .expect("a XOR pairing cannot deadlock");
        assert_eq!(report.messages, 16 * 4);
        assert_eq!(report.payload_bytes, 8 * 4 * (64 + 96));
    }
}

//! The benchmark's own seeded input generator.
//!
//! Inputs are written here, in the benchmark's files, so that no change to
//! the program under test can move them: request lines are formatted by
//! hand (not through the service's codec) and the simulator cells are
//! described by plain specs that `sim_scale` builds through the public
//! scheduling API.
//!
//! Each traffic class is *stratified*: a class holds whole copies of its
//! parameter grid, and only the order, the irregular pattern seeds and the
//! leftover draws depend on the seed. That keeps the cost of a trace nearly
//! the same for every seed, so run-to-run spread measures the host, not the
//! draw.

use std::collections::HashSet;
use std::fmt::Write as _;

/// Seed the documentation names as the default for development.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for validating a performance claim after the change is
/// written.
pub const HELD_OUT_SEED: u64 = 7_300_917;

/// xorshift64*: small, seedable, and defined here so the inputs never
/// drift with a dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// `count` items from `grid`: whole copies of the grid, then a seeded
/// sample without replacement for the remainder.
fn stratified<T: Clone>(grid: &[T], count: usize, rng: &mut Rng) -> Vec<T> {
    let mut out = Vec::with_capacity(count);
    while out.len() + grid.len() <= count {
        out.extend_from_slice(grid);
    }
    let mut rest = grid.to_vec();
    rng.shuffle(&mut rest);
    out.extend(rest.into_iter().take(count - out.len()));
    out
}

// ---------------------------------------------------------------- serve_mixed

/// Requests in one `serve_mixed` trace.
pub const MIXED_QUERIES: usize = 1000;
/// Node counts of advise-only queries.
const ADVISE_NODES: [usize; 6] = [8, 16, 32, 64, 128, 256];
/// Node counts of queries the service verifies or simulates.
const SIM_NODES: [usize; 3] = [8, 16, 32];
/// Per-pair message sizes of the mixed trace.
const MIXED_BYTES: [u64; 5] = [64, 256, 1024, 4096, 16384];
/// Named application patterns (`named_pattern`) and the vertex count of
/// each one's mesh; a query's `n` must not exceed it.
pub const NAMED: [(&str, usize); 3] = [("cg", 16_384), ("euler545", 545), ("euler2k", 2048)];
/// Densities of advise-only irregular queries.
const DENSITIES: [&str; 4] = ["0.1", "0.25", "0.5", "0.75"];

/// Class sizes of one mixed trace: 61.1 % plain advise, 7.2 % named
/// workloads (advise-only too), 21 % verify, 7.5 % simulate, 3.2 % tenants.
/// Each non-advise class is a whole number of copies of its grid.
const MIXED_NAMED: usize = 4 * 18;
const MIXED_VERIFY: usize = 5 * 42;
const MIXED_SIMULATE: usize = 5 * 15;
const MIXED_TENANTS: usize = 4 * 8;

/// The `serve_mixed` trace: [`MIXED_QUERIES`] request lines (no trailing
/// newlines), ids `0..`, in seeded order.
pub fn mixed_trace(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    // Pattern-seed pools: the seed picks which irregular matrices recur.
    let advise_pool: Vec<u64> = (0..8).map(|_| rng.below(1 << 32)).collect();
    let verify_pool: Vec<u64> = (0..4).map(|_| rng.below(1 << 32)).collect();

    let mut bodies: Vec<String> = Vec::with_capacity(MIXED_QUERIES);
    let plain = MIXED_QUERIES - MIXED_NAMED - MIXED_VERIFY - MIXED_SIMULATE - MIXED_TENANTS;

    // Plain advise: exchange 5/9, broadcast 2/9, irregular 2/9.
    let irregular = plain * 2 / 9;
    let broadcast = plain * 2 / 9;
    let exchange = plain - irregular - broadcast;
    let mut nb = Vec::new();
    for &n in &ADVISE_NODES {
        for &b in &MIXED_BYTES {
            nb.push((n, b));
        }
    }
    for (n, b) in stratified(&nb, exchange, &mut rng) {
        bodies.push(format!("{{\"kind\":\"exchange\",\"n\":{n},\"bytes\":{b}}}"));
    }
    for (n, b) in stratified(&nb, broadcast, &mut rng) {
        bodies.push(format!(
            "{{\"kind\":\"broadcast\",\"n\":{n},\"bytes\":{b}}}"
        ));
    }
    let mut irr = Vec::new();
    for &n in &ADVISE_NODES {
        for d in DENSITIES {
            for &s in &advise_pool {
                irr.push((n, d, s));
            }
        }
    }
    for (n, d, s) in stratified(&irr, irregular, &mut rng) {
        bodies.push(format!(
            "{{\"kind\":\"irregular\",\"n\":{n},\"density\":{d},\"bytes\":256,\"seed\":{s}}}"
        ));
    }

    let mut named = Vec::new();
    for (name, _) in NAMED {
        for &n in &ADVISE_NODES {
            named.push((name, n));
        }
    }
    for (name, n) in stratified(&named, MIXED_NAMED, &mut rng) {
        bodies.push(format!(
            "{{\"kind\":\"workload\",\"name\":\"{name}\",\"n\":{n}}}"
        ));
    }

    let mut verify = Vec::new();
    for &n in &SIM_NODES {
        for &b in &MIXED_BYTES {
            verify.push(format!(
                "{{\"kind\":\"broadcast\",\"n\":{n},\"bytes\":{b}}}"
            ));
            verify.push(format!("{{\"kind\":\"exchange\",\"n\":{n},\"bytes\":{b}}}"));
        }
        for &s in &verify_pool {
            verify.push(format!(
                "{{\"kind\":\"irregular\",\"n\":{n},\"density\":0.25,\"bytes\":256,\"seed\":{s}}}"
            ));
        }
    }
    for q in stratified(&verify, MIXED_VERIFY, &mut rng) {
        bodies.push(format!("{q},\"verify\":true"));
    }

    for (n, b) in stratified(
        &cartesian(&SIM_NODES, &MIXED_BYTES),
        MIXED_SIMULATE,
        &mut rng,
    ) {
        bodies.push(format!(
            "{{\"kind\":\"exchange\",\"n\":{n},\"bytes\":{b}}},\"simulate\":true"
        ));
    }

    let mut tenants = Vec::new();
    for placement in ["subtree", "striped"] {
        for tn in [4usize, 8] {
            for b in [256u64, 1024] {
                tenants.push((placement, tn, b));
            }
        }
    }
    for (placement, tn, b) in stratified(&tenants, MIXED_TENANTS, &mut rng) {
        bodies.push(format!(
            "{{\"kind\":\"tenants\",\"shared_n\":64,\"placement\":\"{placement}\",\"tenants\":\
             [{{\"name\":\"a\",\"n\":{tn},\"bytes\":{b}}},{{\"name\":\"b\",\"n\":{tn},\"bytes\":{b}}}]}}"
        ));
    }

    rng.shuffle(&mut bodies);
    bodies
        .into_iter()
        .enumerate()
        .map(|(id, body)| with_id(id as u64, &body))
        .collect()
}

fn cartesian(ns: &[usize], bytes: &[u64]) -> Vec<(usize, u64)> {
    ns.iter()
        .flat_map(|&n| bytes.iter().map(move |&b| (n, b)))
        .collect()
}

/// Wrap a query body (the query object, optionally followed by
/// `,"verify":true` / `,"simulate":true`) into a request line.
fn with_id(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},\"query\":{body}}}")
}

// ----------------------------------------------------------------- serve_cold

/// Node counts of `serve_cold`.
const COLD_NODES: [usize; 4] = [16, 32, 64, 128];
/// Message-size bands of `serve_cold` (inclusive byte ranges, 16 B–8 KB).
const COLD_BANDS: [(u64, u64); 4] = [(16, 127), (128, 1023), (1024, 4095), (4096, 8192)];
/// Density bands of irregular `serve_cold` queries.
const COLD_DENSITY_BANDS: usize = 4;
/// Requests in one `serve_cold` block: every kind × node count × band once.
const COLD_BLOCK: usize = 3 * COLD_NODES.len() * COLD_BANDS.len();
/// Blocks in one `serve_cold` list.
pub const COLD_BLOCKS: usize = 4;

/// The `serve_cold` list: [`COLD_BLOCKS`] balanced blocks of distinct
/// requests, every request with `verify` and `simulate`, ids `0..`.
pub fn cold_trace(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let mut seen = HashSet::new();
    let mut lines = Vec::with_capacity(COLD_BLOCKS * COLD_BLOCK);
    for _ in 0..COLD_BLOCKS {
        let mut bodies = Vec::with_capacity(COLD_BLOCK);
        for kind in ["exchange", "broadcast", "irregular"] {
            for (i, &n) in COLD_NODES.iter().enumerate() {
                for (j, &band) in COLD_BANDS.iter().enumerate() {
                    // Latin square: each node count meets every density band
                    // once per block, so blocks cost about the same.
                    let density_band = ((i + j) % COLD_DENSITY_BANDS) as u64;
                    bodies.push(distinct(&mut rng, &mut seen, kind, n, band, density_band));
                }
            }
        }
        rng.shuffle(&mut bodies);
        for body in bodies {
            let id = lines.len() as u64;
            lines.push(with_id(
                id,
                &format!("{body},\"verify\":true,\"simulate\":true"),
            ));
        }
    }
    lines
}

/// A query body not in `seen`; irregular densities come from band
/// `density_band` of 0.1–0.9.
fn distinct(
    rng: &mut Rng,
    seen: &mut HashSet<String>,
    kind: &str,
    n: usize,
    (lo, hi): (u64, u64),
    density_band: u64,
) -> String {
    loop {
        let bytes = rng.range(lo, hi);
        let mut q = format!("{{\"kind\":\"{kind}\",\"n\":{n},\"bytes\":{bytes}");
        if kind == "irregular" {
            let density = rng.range(100 + 200 * density_band, 299 + 200 * density_band);
            let seed = rng.below(1 << 32);
            let _ = write!(q, ",\"density\":0.{density:03},\"seed\":{seed}");
        }
        q.push('}');
        if seen.insert(q.clone()) {
            return q;
        }
    }
}

// ------------------------------------------------------------------ sim_scale

/// Message sizes of the Figure 5 rows `sim_scale` runs.
pub const FIG5_BYTES: [u64; 4] = [0, 256, 1024, 1920];
/// Exchange algorithms by name, in Figure 5's column order.
pub const EXCHANGES: [&str; 4] = ["lex", "pex", "rex", "bex"];

/// One simulator cell of `sim_scale`.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSpec {
    /// A complete exchange built by `ExchangeAlg::schedule`.
    Exchange {
        alg: &'static str,
        n: usize,
        bytes: u64,
    },
    /// Greedy scheduling (GS) of a `Pattern::seeded_random` matrix.
    Greedy {
        n: usize,
        density: f64,
        bytes: u64,
        pattern_seed: u64,
    },
    /// A truncated pairwise exchange: the XOR steps `i ↔ i ^ j` for each
    /// stride `j`, node `i` sending `bytes[i % bytes.len()]`.
    Slice {
        n: usize,
        strides: Vec<usize>,
        bytes: Vec<u64>,
    },
}

/// A named cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub name: String,
    pub spec: CellSpec,
}

impl Cell {
    pub fn n(&self) -> usize {
        match &self.spec {
            CellSpec::Exchange { n, .. }
            | CellSpec::Greedy { n, .. }
            | CellSpec::Slice { n, .. } => *n,
        }
    }
}

/// Names of every `sim_scale` cell, in run order (seed-independent).
pub fn cell_names() -> Vec<String> {
    sim_cells(DEFAULT_SEED)
        .into_iter()
        .map(|c| c.name)
        .collect()
}

/// The `sim_scale` cells: the Figure 5 32-node grid, full exchanges at 128
/// nodes, GS at 75 % density, truncated PEX slices at 4K and 16K nodes and
/// a staggered cluster-local slice at 4K nodes. The seed draws the GS
/// matrix and the stagger's payload order.
pub fn sim_cells(seed: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed ^ 0x5CA1E);
    let mut cells = Vec::new();
    for alg in EXCHANGES {
        for bytes in FIG5_BYTES {
            cells.push(Cell {
                name: format!("fig5_{alg}_{bytes}"),
                spec: CellSpec::Exchange { alg, n: 32, bytes },
            });
        }
    }
    for alg in ["pex", "rex", "bex"] {
        cells.push(Cell {
            name: format!("{alg}_128"),
            spec: CellSpec::Exchange {
                alg,
                n: 128,
                bytes: 1024,
            },
        });
    }
    cells.push(Cell {
        name: "gs_32".into(),
        spec: CellSpec::Greedy {
            n: 32,
            density: 0.75,
            bytes: 256,
            pattern_seed: rng.below(1 << 32),
        },
    });
    for (name, n) in [("pex_slice_4k", 4096usize), ("pex_slice_16k", 16_384)] {
        // Local strides stay inside a cluster; n/4, n/2 and n/2+1 cross
        // the root.
        cells.push(Cell {
            name: name.into(),
            spec: CellSpec::Slice {
                n,
                strides: vec![1, 2, 3, n / 4, n / 2, n / 2 + 1],
                bytes: vec![1024],
            },
        });
    }
    // Staggered payloads make completions trickle in pair by pair.
    let mut stagger: Vec<u64> = (0..16).map(|k| 256 + 192 * k).collect();
    rng.shuffle(&mut stagger);
    cells.push(Cell {
        name: "stagger_4k".into(),
        spec: CellSpec::Slice {
            n: 4096,
            strides: vec![1, 2, 3],
            bytes: stagger,
        },
    });
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_serve::{Query, Request};

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(mixed_trace(DEFAULT_SEED), mixed_trace(DEFAULT_SEED));
        assert_ne!(mixed_trace(DEFAULT_SEED), mixed_trace(HELD_OUT_SEED));
        assert_eq!(cold_trace(DEFAULT_SEED), cold_trace(DEFAULT_SEED));
        assert_ne!(cold_trace(DEFAULT_SEED), cold_trace(HELD_OUT_SEED));
        assert_eq!(sim_cells(DEFAULT_SEED), sim_cells(DEFAULT_SEED));
        assert_ne!(sim_cells(DEFAULT_SEED), sim_cells(HELD_OUT_SEED));
        let names = |s| sim_cells(s).into_iter().map(|c| c.name).collect::<Vec<_>>();
        assert_eq!(names(DEFAULT_SEED), names(HELD_OUT_SEED));
    }

    #[test]
    fn every_generated_line_parses_with_sequential_ids() {
        for lines in [mixed_trace(DEFAULT_SEED), cold_trace(DEFAULT_SEED)] {
            for (i, line) in lines.iter().enumerate() {
                let req = Request::parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(req.id, i as u64, "{line}");
            }
        }
    }

    #[test]
    fn named_workloads_fit_their_meshes() {
        let vertices = |name: &str| match name {
            "cg" => cm5_workloads::cg_problem(2).matrix.rows(),
            "euler545" => cm5_workloads::euler_problem(545, 2).vertices,
            "euler2k" => cm5_workloads::euler_problem(2048, 2).vertices,
            other => panic!("unexpected workload {other}"),
        };
        for (name, declared) in NAMED {
            assert_eq!(vertices(name), declared, "{name}");
        }
        let mut named = 0;
        for line in mixed_trace(DEFAULT_SEED) {
            if let Query::Workload { name, n } = Request::parse_line(&line).unwrap().query {
                let (_, limit) = NAMED.iter().find(|(w, _)| *w == name).unwrap();
                assert!(n <= *limit, "{name} at n={n} exceeds {limit} vertices");
                named += 1;
            }
        }
        assert_eq!(named, MIXED_NAMED);
    }

    #[test]
    fn mixed_trace_has_the_stated_shape() {
        let reqs: Vec<Request> = mixed_trace(DEFAULT_SEED)
            .iter()
            .map(|l| Request::parse_line(l).unwrap())
            .collect();
        assert_eq!(reqs.len(), MIXED_QUERIES);
        let count = |f: &dyn Fn(&Request) -> bool| reqs.iter().filter(|r| f(r)).count();
        assert_eq!(count(&|r| r.verify), MIXED_VERIFY);
        assert_eq!(count(&|r| r.simulate), MIXED_SIMULATE);
        assert_eq!(
            count(&|r| matches!(r.query, Query::Tenants { .. })),
            MIXED_TENANTS
        );
        assert_eq!(
            count(&|r| matches!(r.query, Query::Workload { .. })),
            MIXED_NAMED
        );
    }

    #[test]
    fn cold_requests_are_distinct_and_fully_served() {
        let lines = cold_trace(DEFAULT_SEED);
        let mut bodies = HashSet::new();
        for line in &lines {
            let mut req = Request::parse_line(line).unwrap();
            assert!(req.verify && req.simulate, "{line}");
            assert!(!matches!(req.query, Query::Workload { .. }), "{line}");
            req.id = 0;
            assert!(bodies.insert(req.render_line()), "repeated request {line}");
        }
    }
}

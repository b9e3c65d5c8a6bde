//! Pins the named workloads' communication patterns byte for byte, and the
//! process-wide mesh-graph memo behind them.
//!
//! The digest table was recorded from the implementation that
//! re-triangulated each mesh per call; the memoized path must reproduce
//! it exactly. One row per `(name, n)`, with `n` every power of two from 2
//! up to `min(vertices, 256)`, plus `n = 1024` for `cg` and `euler9k`.

use std::ptr;
use std::sync::Barrier;

use cm5_core::Pattern;
use cm5_workloads::{
    cg_problem, euler_problem, mesh_graph, named_pattern, MeshGraph, NAMED_WORKLOADS,
};

/// `(name, n, nonzero_pairs, total_bytes, FNV-1a of the row-major data)`.
const DIGESTS: [(&str, usize, usize, u64, u64); 42] = [
    ("cg", 2, 2, 2048, 0xb0051d884e54a025),
    ("cg", 4, 6, 6144, 0x6566ed74f46acba5),
    ("cg", 8, 14, 14344, 0x90dba5f8c085a6ad),
    ("cg", 16, 30, 30728, 0x2d58acddbc93dfad),
    ("cg", 32, 62, 63496, 0x1626abecc81991ad),
    ("cg", 64, 126, 129040, 0x3d23bdd5675479b5),
    ("cg", 128, 258, 260112, 0xb898ebfe7ea9aa95),
    ("cg", 256, 258, 260112, 0xc1950af399aee555),
    ("cg", 1024, 258, 260112, 0xb68d3f853bc1a9d5),
    ("euler545", 2, 2, 4360, 0x27d9be4df7c5a2ad),
    ("euler545", 4, 12, 11400, 0x690ad6047c8753bd),
    ("euler545", 8, 54, 18560, 0x5ad0a7f317ba84cf),
    ("euler545", 16, 160, 24040, 0xfba8b7754c5aa2f2),
    ("euler545", 32, 436, 31416, 0x52d94c9e70e83cbd),
    ("euler545", 64, 1198, 43864, 0xb976f993be7b48cd),
    ("euler545", 128, 3266, 57888, 0xc42c926fab748dd5),
    ("euler545", 256, 7164, 69344, 0xaa09b4233c0c3735),
    ("euler2k", 2, 2, 16384, 0xaf4bedac66393ae5),
    ("euler2k", 4, 12, 41944, 0x9563bbe3946da5c2),
    ("euler2k", 8, 54, 65648, 0xeba717679453108e),
    ("euler2k", 16, 172, 81272, 0x2ffed82d1c90afcb),
    ("euler2k", 32, 466, 97720, 0xc308a4e20dcf66e7),
    ("euler2k", 64, 1136, 125992, 0x9e5e9094acee5d92),
    ("euler2k", 128, 2852, 170944, 0xa0c8fdf9422399a5),
    ("euler2k", 256, 7952, 222864, 0xccd405bce059cea5),
    ("euler3k", 2, 2, 24552, 0x5822928e5e4077d8),
    ("euler3k", 4, 12, 63984, 0xc0dbc250d5e11763),
    ("euler3k", 8, 54, 98056, 0x65ca545d5dca5918),
    ("euler3k", 16, 162, 119488, 0xa1c7af1f13290f2a),
    ("euler3k", 32, 440, 141168, 0xbae2a84cd894ce14),
    ("euler3k", 64, 1044, 174304, 0xf830f6e90e0c3d25),
    ("euler3k", 128, 2664, 232168, 0x75cae974497b459d),
    ("euler3k", 256, 7326, 314608, 0xa684ed0d996f0b25),
    ("euler9k", 2, 2, 73688, 0x3cd70044e65404ad),
    ("euler9k", 4, 12, 189344, 0x2ab252d153dca411),
    ("euler9k", 8, 54, 288680, 0xc9ad3df1162ae736),
    ("euler9k", 16, 152, 346256, 0x184ba9dea7568464),
    ("euler9k", 32, 378, 389664, 0xb018b1e9f54b2ae7),
    ("euler9k", 64, 850, 451528, 0x00e6ea4a4fbfcebd),
    ("euler9k", 128, 2054, 555152, 0x5263a8f63e282db4),
    ("euler9k", 256, 5412, 749792, 0xb299a4d60573521a),
    ("euler9k", 1024, 51990, 1174192, 0xad2255aab9daa2e5),
];

/// FNV-1a (64-bit) over the little-endian bytes of every entry, row-major.
fn fnv1a(p: &Pattern) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..p.n() {
        for j in 0..p.n() {
            for b in p.get(i, j).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn digest(p: &Pattern) -> (usize, u64, u64) {
    (p.nonzero_pairs(), p.total_bytes(), fnv1a(p))
}

#[test]
fn named_patterns_match_the_pinned_digests() {
    for &(name, n, pairs, bytes, hash) in &DIGESTS {
        let p = named_pattern(name, n).unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
        assert_eq!(p.n(), n, "{name} n={n}");
        assert_eq!(digest(&p), (pairs, bytes, hash), "{name} n={n}");
    }
}

#[test]
fn problem_builders_share_the_named_patterns() {
    // Table 12 reads the problem builders; serve reads `named_pattern`.
    let pinned = |name: &str, n: usize| {
        let &(_, _, pairs, bytes, hash) = DIGESTS
            .iter()
            .find(|d| d.0 == name && d.1 == n)
            .expect("pinned row");
        (pairs, bytes, hash)
    };
    assert_eq!(digest(&cg_problem(32).pattern), pinned("cg", 32));
    assert_eq!(
        digest(&euler_problem(545, 32).pattern),
        pinned("euler545", 32)
    );
    assert_eq!(
        digest(&euler_problem(2048, 16).pattern),
        pinned("euler2k", 16)
    );
}

#[test]
fn named_pattern_rejects_unknown_names_and_out_of_range_n() {
    let err = named_pattern("euler4k", 8).unwrap_err();
    assert_eq!(
        err,
        "unknown workload 'euler4k' (cg|euler545|euler2k|euler3k|euler9k)"
    );
    for w in &NAMED_WORKLOADS {
        for n in [0, 1] {
            let err = named_pattern(w.name, n).unwrap_err();
            assert_eq!(err, format!("workload '{}' needs n >= 2, got {n}", w.name));
        }
        let err = named_pattern(w.name, w.vertices + 1).unwrap_err();
        assert_eq!(
            err,
            format!(
                "workload '{}' partitions a {}-vertex mesh; n={} exceeds it",
                w.name,
                w.vertices,
                w.vertices + 1
            )
        );
    }
}

#[test]
fn memo_returns_one_graph_per_name() {
    for w in &NAMED_WORKLOADS {
        let a = mesh_graph(w.name).expect("named");
        let b = mesh_graph(w.name).expect("named");
        assert!(ptr::eq(a, b), "{}", w.name);
        assert_eq!(a.vertices(), w.vertices, "{}", w.name);
        assert!(a.edges().windows(2).all(|e| e[0] < e[1]), "{}", w.name);
    }
    assert!(mesh_graph("bogus").is_none());
}

#[test]
fn racing_threads_all_get_one_graph() {
    const THREADS: usize = 4;
    let barrier = Barrier::new(THREADS);
    let names = NAMED_WORKLOADS.len();
    let seen: Vec<Vec<Option<&'static MeshGraph>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    // Each thread walks the names from a different start.
                    let mut graphs = vec![None; names];
                    for k in 0..names {
                        let i = (k + t) % names;
                        graphs[i] = mesh_graph(NAMED_WORKLOADS[i].name);
                    }
                    graphs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for graphs in &seen {
        for (i, (a, b)) in seen[0].iter().zip(graphs).enumerate() {
            let (a, b) = (a.expect("named"), b.expect("named"));
            assert!(ptr::eq(a, b), "{}", NAMED_WORKLOADS[i].name);
        }
    }
}

//! The five named mesh workloads of Table 12 — `cg`, `euler545`,
//! `euler2k`, `euler3k`, `euler9k` — and a process-wide memo of their mesh
//! graphs.
//!
//! A named workload is a fixed mesh partitioned `n` ways. Triangulating
//! the mesh is the expensive part (~70 ms of Delaunay for the 16K-vertex
//! `cg` mesh in a release build), while partitioning it and extracting the
//! halo costs well under 10 ms at the sizes the service sees. So each mesh
//! graph — the vertex points plus the sorted, unique edge list; the
//! triangles are dropped — is built at most once per process, on first
//! use, in one [`OnceLock`] per name. Every `(name, n)` query after that
//! only partitions the memoized graph and extracts its halo.
//!
//! The memo is bounded by construction: five lazily built constants, about
//! 2 MB with all five built, never evicted. It therefore has no capacity,
//! no option and no hit/miss counters. The first query for a name pays the
//! build (the ~80 ms `cg` triangulation included); racing first callers
//! block on the same [`OnceLock`] and all get the one graph.

use std::borrow::Cow;
use std::sync::OnceLock;

use cm5_core::Pattern;
use cm5_mesh::prelude::*;

use crate::{cg, euler};

/// The graph of a triangulated mesh: what partitioners, halos and solvers
/// read of it.
#[derive(Debug, Clone)]
pub struct MeshGraph {
    points: Vec<Point>,
    edges: Vec<(usize, usize)>,
}

impl MeshGraph {
    /// The graph of `mesh`: its points and its edges, without triangles.
    pub(crate) fn of(mesh: &Triangulation) -> MeshGraph {
        let mut edges = mesh.edges();
        // `edges()` sizes its buffer for every triangle side before
        // deduplicating; the memo keeps only what it holds.
        edges.shrink_to_fit();
        MeshGraph {
            points: mesh.points().to_vec(),
            edges,
        }
    }

    /// The vertex coordinates.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Vertex count.
    pub fn vertices(&self) -> usize {
        self.points.len()
    }

    /// Unique undirected edges, each as `(low, high)`, sorted.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }
}

/// Which solver's mesh and halo a named workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Solver {
    Cg,
    Euler,
}

/// One named workload: a name, its mesh's vertex count and the solver
/// whose mesh builder and halo it uses.
#[derive(Debug)]
pub struct NamedWorkload {
    /// The name `cm5 workload --name` and serve `workload` queries take.
    pub name: &'static str,
    /// Vertex count of the mesh; `n` may not exceed it.
    pub vertices: usize,
    solver: Solver,
}

impl NamedWorkload {
    fn build_graph(&self) -> MeshGraph {
        MeshGraph::of(&match self.solver {
            Solver::Cg => cg_mesh(),
            Solver::Euler => euler_mesh(self.vertices),
        })
    }
}

/// The named workloads, in the order of Table 12's columns.
pub const NAMED_WORKLOADS: [NamedWorkload; 5] = [
    NamedWorkload {
        name: "cg",
        vertices: CG_MESH_SIZE,
        solver: Solver::Cg,
    },
    NamedWorkload {
        name: "euler545",
        vertices: EULER_MESH_SIZES[0],
        solver: Solver::Euler,
    },
    NamedWorkload {
        name: "euler2k",
        vertices: EULER_MESH_SIZES[1],
        solver: Solver::Euler,
    },
    NamedWorkload {
        name: "euler3k",
        vertices: EULER_MESH_SIZES[2],
        solver: Solver::Euler,
    },
    NamedWorkload {
        name: "euler9k",
        vertices: EULER_MESH_SIZES[3],
        solver: Solver::Euler,
    },
];

/// One memo slot per entry of [`NAMED_WORKLOADS`], same order.
static GRAPHS: [OnceLock<MeshGraph>; NAMED_WORKLOADS.len()] =
    [const { OnceLock::new() }; NAMED_WORKLOADS.len()];

fn graph_at(i: usize) -> &'static MeshGraph {
    GRAPHS[i].get_or_init(|| NAMED_WORKLOADS[i].build_graph())
}

/// The memoized mesh graph of a named workload, built on first use;
/// `None` for an unknown name.
pub fn mesh_graph(name: &str) -> Option<&'static MeshGraph> {
    index_of(name).ok().map(graph_at)
}

/// The `cg` mesh graph (memoized).
pub(crate) fn cg_graph() -> &'static MeshGraph {
    graph_at(0)
}

/// The Euler mesh graph of `vertices` vertices: the memoized one for the
/// four named sizes, a freshly triangulated one for any other size.
pub(crate) fn euler_graph(vertices: usize) -> Cow<'static, MeshGraph> {
    match NAMED_WORKLOADS
        .iter()
        .position(|w| w.solver == Solver::Euler && w.vertices == vertices)
    {
        Some(i) => Cow::Borrowed(graph_at(i)),
        None => Cow::Owned(MeshGraph::of(&euler_mesh(vertices))),
    }
}

fn index_of(name: &str) -> Result<usize, String> {
    NAMED_WORKLOADS
        .iter()
        .position(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}' (cg|euler545|euler2k|euler3k|euler9k)"))
}

/// The table's own `'static` spelling of named workload `name`, or the
/// error [`named_pattern`] gives for an unknown name.
pub fn workload_name(name: &str) -> Result<&'static str, String> {
    index_of(name).map(|i| NAMED_WORKLOADS[i].name)
}

/// The communication pattern of named workload `name` partitioned over
/// `n` nodes: the pattern `cm5 workload`, `cm5 advise irregular --name`
/// and serve `workload` queries answer for.
pub fn named_pattern(name: &str, n: usize) -> Result<Pattern, String> {
    let i = index_of(name)?;
    let workload = &NAMED_WORKLOADS[i];
    // A pattern spans at least two nodes, and each workload partitions a
    // fixed mesh, so `n` may not exceed its vertex count.
    if n < 2 {
        return Err(format!("workload '{name}' needs n >= 2, got {n}"));
    }
    if n > workload.vertices {
        return Err(format!(
            "workload '{name}' partitions a {}-vertex mesh; n={n} exceeds it",
            workload.vertices
        ));
    }
    let graph = graph_at(i);
    Ok(match workload.solver {
        Solver::Cg => cg::decompose(graph, n).pattern,
        Solver::Euler => euler::decompose(graph, n).pattern,
    })
}

/// A mesh graph partitioned over the machine: what `named_pattern` and
/// the problem builders share, so their patterns agree by construction.
pub(crate) struct Decomposition {
    /// Vertex → part.
    pub assignment: Vec<usize>,
    /// The halo of the partition.
    pub halo: Halo,
    /// The byte matrix of one halo exchange.
    pub pattern: Pattern,
}

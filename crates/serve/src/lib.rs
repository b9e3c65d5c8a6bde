//! # cm5-serve — a multi-tenant scheduling service under heavy traffic
//!
//! The paper's end product is a decision procedure: given a communication
//! pattern, pick the schedule that wins on a real CM-5. The rest of this
//! workspace answers one query per process; this crate turns the
//! advisor + verifier + simulator stack into a long-running service
//! (`cm5 serve`) that answers a *stream* of pattern queries:
//!
//! * **Protocol** ([`request`], [`response`], [`json`]): JSON-lines over
//!   stdin/stdout, plus an optional std-only TCP listener ([`tcp`]). The
//!   codec is deterministic and panic-free on hostile input.
//! * **Service core** ([`service`]): classify with `PatternStats` (memoized
//!   per exact query spec, so a repeated `workload` or `irregular` query
//!   builds no pattern), answer via the sharded-cache
//!   [`cm5_model::Advisor`], verify the picked schedule through a sharded
//!   memo that amortizes `cm5-verify` runs across the queue, and simulate
//!   on request (bounded per-request work).
//! * **Named workloads**: `workload` queries answer through
//!   [`named_pattern`] (re-exported from `cm5-workloads`), which
//!   triangulates each named mesh once per process and builds only the
//!   partition and halo when a query needs the pattern; the service itself
//!   holds no mesh state.
//! * **Multi-tenancy**: `tenants` queries admit concurrent partition
//!   simulations on one shared fat tree via [`cm5_sim::tenant`] — the
//!   root-bandwidth-contention regime the paper's dedicated machine never
//!   had.
//! * **Replay** ([`pool`]): feed a recorded trace through a worker pool at
//!   `--jobs N` workers and optional `--qps` pacing. Responses merge in
//!   canonical input order, so the response stream and the deterministic
//!   metrics document are byte-identical at any worker count; `report
//!   perf` replays the recorded mixed trace as the `serve_replay` cell of
//!   `BENCH_sim.json`, which `report watch` gates with a CI floor.
//!
//! Observability splits cleanly: deterministic counters/histograms
//! ([`service::Service::metrics`], `cm5-metrics/1`) versus the live
//! snapshot ([`service::Service::live_metrics`]: `GET /metrics`,
//! `--metrics-out`) that adds host timing — per-phase wall-clock
//! histograms, queue depth, uptime and QPS — the same determinism
//! boundary the simulator draws around `SimPerf`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod pool;
pub mod request;
pub mod response;
pub mod service;
pub mod tcp;

pub use cm5_workloads::named_pattern;
pub use json::Json;
pub use pool::{replay, resolve_jobs, ReplayResult};
pub use request::{Query, Request, TenantQuery, MAX_NODES};
pub use response::{recommendation_json, stats_json, tenants_json};
pub use service::{Service, ServiceConfig, SIM_MAX_NODES};
pub use tcp::{spawn_tcp, TcpHandle};

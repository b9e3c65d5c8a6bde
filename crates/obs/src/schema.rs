//! Shared schema versioning for every JSON artifact the workspace emits.
//!
//! All hand-rolled JSON emitters (`cm5 lint --json`, `report perf`'s
//! `BENCH_sim.json`, trace and metrics exports) stamp a `"schema"` field
//! built here, so downstream tooling can detect format drift with one
//! string comparison instead of sniffing fields.

/// JSON key under which the schema identifier is stored.
pub const SCHEMA_KEY: &str = "schema";

/// Schema identifier for `artifact` at `version`: `cm5-<artifact>/<version>`.
///
/// ```
/// assert_eq!(cm5_obs::schema_id("bench-sim-perf", 1), "cm5-bench-sim-perf/1");
/// assert_eq!(cm5_obs::schema_id("trace", 1), "cm5-trace/1");
/// ```
pub fn schema_id(artifact: &str, version: u32) -> String {
    format!("cm5-{artifact}/{version}")
}

/// The schema member rendered as a compact JSON field:
/// `"schema":"cm5-<artifact>/<version>"` (no surrounding braces or comma).
///
/// ```
/// assert_eq!(cm5_obs::schema_field("lint", 1), "\"schema\":\"cm5-lint/1\"");
/// ```
pub fn schema_field(artifact: &str, version: u32) -> String {
    format!("\"{SCHEMA_KEY}\":\"{}\"", schema_id(artifact, version))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_preexisting_bench_schema_string() {
        // The BENCH_sim.json artifact predates this helper; its schema
        // string is pinned by cm5-bench tests and must never drift.
        assert_eq!(schema_id("bench-sim-perf", 1), "cm5-bench-sim-perf/1");
    }

    #[test]
    fn field_form_is_compact() {
        assert_eq!(schema_field("metrics", 2), "\"schema\":\"cm5-metrics/2\"");
    }
}

//! PipeDream's core contribution (SOSP '19, §3).
//!
//! Three pieces, mirroring the paper's three challenges:
//!
//! * [`planner`] — **work partitioning** (§3.1): the hierarchical
//!   dynamic-programming optimizer that splits a model's layers into
//!   pipeline stages, decides per-stage replication (data parallelism within
//!   a stage), and predicts throughput, topology-aware across bandwidth
//!   levels.
//! * [`schedule`] — **work scheduling** (§3.2): the 1F1B and 1F1B-RR static
//!   schedules, plus the baselines (GPipe's microbatch schedule, vanilla
//!   model parallelism) used in the paper's comparisons.
//! * [`stash`] — **effective learning** (§3.3): weight stashing and vertical
//!   sync, with the staleness formulas the paper derives.
//!
//! [`config`] holds the shared [`config::PipelineConfig`] representation
//! (the paper's `"15-1"` / `"straight"` / `"16"` notation) and
//! [`estimates`] the communication-volume and memory-footprint estimators
//! behind Figures 16 and 17. [`fingerprint`] canonically hashes planning
//! inputs — the cache key of the `pipedream serve` daemon, which calls
//! the planner through its validated [`planner::PlanError`]-typed entry
//! points.

pub mod config;
pub mod estimates;
pub mod fingerprint;
pub mod planner;
pub mod schedule;
pub mod stash;

pub use config::{lcm, PipelineConfig, StagePlan};
pub use fingerprint::{
    config_fingerprint, fingerprint_config, fingerprint_costs, fingerprint_plan_request,
    fingerprint_profile, fingerprint_topology, FingerprintError, Fingerprinter,
};
pub use planner::{Plan, PlanError, Planner, StagePrediction};
pub use schedule::{Op, Schedule};
pub use stash::{ScheduleKind, TwoBwStash, WeightStash};

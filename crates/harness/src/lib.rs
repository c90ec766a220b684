//! # gdur-harness — the evaluation harness (§8)
//!
//! Assembles simulated geo-replicated deployments of the G-DUR middleware,
//! sweeps closed-loop client counts, and regenerates every table and
//! figure of the paper's evaluation:
//!
//! * [`figures::fig3a`] / [`figures::fig3b`] — the protocol comparison;
//! * [`figures::fig4`] — the GMU bottleneck ablation;
//! * [`figures::fig5`] — the locality-aware P-Store improvement;
//! * [`figures::fig6a`] / [`figures::fig6b`] — 2PC vs AM-Cast
//!   dependability study;
//! * Table 2 via `gdur_protocols::table2`; Table 3 via
//!   [`experiment::WorkloadKind`].
//!
//! Run a figure at paper scale with the `gdur-bench` binary, e.g.
//! `cargo run --release -p gdur-bench --bin all_figures -- --only fig3a`.

pub mod experiment;
pub mod fault;
pub mod figures;
pub mod invariants;
pub mod report;

pub use fault::{
    chaos_library, run_checked, stores_converged, CheckedRun, Deployment, FaultEvent,
    FaultSchedule, Horizon, Recoveries,
};
pub use invariants::check_invariants;

pub use experiment::{
    build_ycsb, max_throughput, run_point, run_sweep, Experiment, PlacementKind, PointResult,
    Scale, WorkloadKind,
};
pub use figures::{
    all_figures, fig3a, fig3b, fig4, fig5, fig6a, fig6b, Figure, FigurePanel, Metric,
};
pub use report::{render_breakdown_text, render_text, run_figure, BreakdownRow, FigureResult};

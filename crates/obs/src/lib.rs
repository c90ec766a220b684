//! # gdur-obs — deterministic observability for G-DUR runs
//!
//! The G-DUR paper's contribution is not only *running* many transactional
//! protocols on one middleware but *analyzing* them: its evaluation explains
//! every crossover by decomposing latency into phases and classifying aborts
//! (§6). This crate is that analysis substrate for the reproduction:
//!
//! * **Trace events** — the kernel ([`gdur_sim`]) emits [`ObsEvent`]s into
//!   an attached [`ObsSink`]: phase-stamped transaction lifecycle points
//!   (see [`labels`]) plus one `Send` record per message departure. Sinks
//!   that opt in (`wants_causal`) additionally get the causal events —
//!   message ids on every send, `Deliver` records, and handler
//!   service brackets. The [`TraceHandle`] here is the standard in-memory
//!   sink; [`TraceHandle::causal`] builds the opted-in variant.
//! * **Metrics** — [`Histogram`] is BTree-backed and fixed-bucket: equal
//!   across same-seed runs, in line with the determinism rules of the
//!   workspace's `clippy.toml`.
//! * **Abort taxonomy** — [`AbortCause`] partitions every coordinator-side
//!   abort (the per-cause counters always sum to `aborted`).
//! * **Phase breakdown** — [`PhaseBreakdown`] folds a trace into the
//!   paper-style explanation: mean/p99 per phase, certification-queue
//!   depth and residence (the convoy effect), messages and WAN bytes per
//!   message type, aborts by cause.
//! * **Causal spans** — [`CausalIndex`] rebuilds the exact causal graph of
//!   a run (which handler emitted which message, when it was delivered,
//!   which handler serviced it); [`tx_span_tree`] stitches it into
//!   per-transaction span trees.
//! * **Critical-path attribution** — [`critical_path`] walks a committed
//!   transaction's causal chain backwards and blames every nanosecond of
//!   its latency on exactly one of {network, straggler, cert-queue,
//!   service, client-think}; [`Attribution`] aggregates the walks into
//!   byte-stable per-protocol tables.
//! * **Export** — [`jsonl`] renders the on-disk trace format (schema v2);
//!   [`export_chrome`] renders a Chrome/Perfetto `trace.json` with one
//!   track per actor and flow arrows along message edges. Each writer is
//!   pinned by an exact-bytes test.
//!
//! Everything here is observation-only: recording draws no virtual time and
//! no randomness, so attaching a sink cannot perturb a run, and a disabled
//! sink costs one branch per event site.

mod attrib;
mod breakdown;
mod chrome;
mod event;
mod hist;
pub mod jsonl;
mod span;

pub use attrib::{
    critical_path, render_attribution_text, Attribution, Blame, CriticalPath, Segment,
};
pub use breakdown::{MsgFlow, Phase, PhaseBreakdown};
pub use chrome::export_chrome;
pub use event::{
    labels, pool_seq, pool_seq_parts, vote_parts, vote_value, AbortCause, TraceHandle,
    MAX_POOL_CLIENTS, MAX_POOL_LOCAL_SEQ, POOL_LOCAL_SEQ_BITS,
};
pub use gdur_sim::{ObsEvent, ObsSink};
pub use hist::Histogram;
pub use span::{tx_span_tree, CausalIndex, HandlerRec, SendRec, Span};

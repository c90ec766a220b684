//! # gdur-analysis — schedule exploration over G-DUR protocol assemblies
//!
//! The paper's thesis is that a middleware hosting many protocols is also
//! the right place to *analyze* them (§7–§8). The passes that examine the
//! one schedule a seed produces live where they run: the spec linter in
//! `gdur_core::lint` (`Cluster::build` applies it strictly), history
//! verification in `gdur-harness` (every runner feeds the `gdur-consistency`
//! oracle). This crate is the pass that examines *many* schedules: [`mc`]
//! drives the kernel through delay-bounded reorderings (DPOR-lite pruning,
//! replayable minimized counterexamples). CLI:
//! `cargo run -p gdur-analysis --bin gdur-mc`.

pub mod mc;

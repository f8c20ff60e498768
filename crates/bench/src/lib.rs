//! Experiment harness for the ICDCS 2014 evaluation (Figs. 1–12).
//!
//! Each paper figure has a regenerator in [`experiments`]; the binaries in
//! `src/bin/` are thin wrappers so `run_all` can execute everything in one
//! process and write `results/`. `run_all` is the one timing harness: the
//! runtime figures (4–7) and the extension figures, the latter also as
//! machine-readable `BENCH_*.json` rows. [`legacy`] keeps the pre-arena
//! cold solve as a test oracle.
//!
//! Scaling: experiments run on synthetic traces a few percent of the
//! paper's size; per-VM capacity and the $/GB price are scale-compensated
//! (see "Deviations from the paper" in `docs/PAPER_MAP.md`) so VM counts and dollar
//! figures are directly comparable to the paper's plots.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod legacy;
pub mod paper;
pub mod scenario;
pub mod table;

//! Workspace-level integration surface.
//!
//! This crate exists to wire the repository's top-level `tests/` and
//! `examples/` into the Cargo workspace: its dependency list spans every
//! layer of the stack, so `cargo test -q` compiles and runs the end-to-end
//! suites and `cargo run --example quickstart` works from the repo root.
//! It re-exports the member crates under stable names for those targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cba;
pub use cba_bus;
pub use cba_cpu;
pub use cba_mbpta;
pub use cba_mem;
pub use cba_platform;
pub use cba_workloads;
pub use sim_core;

/// The repository's `README.md`, collected by `cargo test --doc` so its
/// Rust example keeps compiling against the workspace.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct Readme;

#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod cache;
pub mod coherence;
pub mod hierarchy;
pub mod latency;

pub use access::{AccessKind, MemAccess};
pub use cache::{CacheConfig, CacheOutcome, Placement, Replacement, SetAssocCache, WritePolicy};
pub use coherence::{shared_hub, CoherenceHub, MemoryConfig, MesiState, SharedHub};
pub use hierarchy::{AccessOutcome, BusTransaction, CoreMemory, HierarchyConfig};
pub use latency::LatencyModel;

use std::fmt;

/// Errors reported by memory-hierarchy constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A configuration value was outside its documented domain.
    InvalidConfig(String),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::InvalidConfig(why) => write!(f, "invalid memory configuration: {why}"),
        }
    }
}

impl std::error::Error for MemError {}

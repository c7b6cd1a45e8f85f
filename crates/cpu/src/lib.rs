#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contender;
pub mod core;
pub mod fixed_task;
pub mod mem_agent;
pub mod program;
pub mod store_buffer;

pub use contender::PeriodicContender;
pub use core::{Core, CoreStats};
pub use fixed_task::FixedRequestTask;
pub use mem_agent::MemAgent;
pub use program::{Op, Program, ScriptProgram};
pub use store_buffer::StoreBuffer;

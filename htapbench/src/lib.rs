//! Building blocks of the HTAP benchmark: the metric catalogue, sample
//! statistics, the open-loop schedule with its backlog guard, in-memory
//! span tracing, and the one-line JSON result.
//!
//! The workloads themselves live in the binary (`src/main.rs`); this
//! library holds the logic that has to be right for the numbers to mean
//! anything, so `tests/logic.rs` can pin it down.

pub mod catalog;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod trace;

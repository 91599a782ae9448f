//! The four workloads; each builds its system, runs its window and
//! checks its outputs.

pub mod chbench;
pub mod point;
pub mod scaleout;
pub mod tpch;

//! The two cloud provisioning optimizations (paper Sec. V-A): storage
//! rental (which NFS cluster stores each chunk) and VM configuration (how
//! many VMs of each class to rent), each with the paper's greedy heuristic
//! and an exact baseline for gap measurement.

pub mod storage;
pub mod vm;

pub use storage::{demands_from_channels, ChunkDemand, Placement, StoragePlan, StorageProblem};
pub use vm::{ChunkAllocation, ChunkAllocations, ChunkAllocationsIter, VmPlan, VmProblem};

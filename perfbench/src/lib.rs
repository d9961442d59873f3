//! The repository benchmark: four paper-matrix workloads, timed end to
//! end and, in a separate traced run, at the store-layer boundary. See
//! `README.md` beside this crate.

pub mod alloc;
pub mod probe;
pub mod report;
pub mod store;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

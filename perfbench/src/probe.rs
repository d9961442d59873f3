//! Host-contention probes: a fixed ALU loop and a fixed DRAM
//! pointer-chase, run before and after each workload run.
//!
//! On a shared host the ALU loop holds steady while memory-bound code
//! can slow several-fold with the neighbours' load, so a slow mem probe
//! beside a slow verdict points at the host, not the change. The probes
//! are reported only; nothing gates on them, and no run is dropped or
//! retaken because of them.

use apm_core::rng::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

const ALU_STEPS: u64 = 20_000_000;
/// 32 MiB of `u32` slots: beyond the last-level cache share of a
/// small virtual machine, so most hops miss to DRAM.
const CHASE_SLOTS: usize = 8 << 20;
/// Slots per chunk: 64 KiB chunks stay below glibc's mmap threshold.
/// Freeing one mmap-sized block would raise that threshold for the rest
/// of the process and so change how the measured passes use memory.
const CHUNK_SLOTS: usize = 16 << 10;
const CHASE_HOPS: u32 = 1 << 20;

/// Milliseconds for a fixed chain of dependent integer operations.
pub fn alu_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..ALU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds for a fixed number of dependent loads around one random
/// cycle through a table far larger than the caches. Building the table
/// is not timed.
pub fn mem_probe_ms() -> f64 {
    let mut table: Vec<Vec<u32>> = (0..CHASE_SLOTS / CHUNK_SLOTS)
        .map(|chunk| {
            let base = (chunk * CHUNK_SLOTS) as u32;
            (base..base + CHUNK_SLOTS as u32).collect()
        })
        .collect();
    let slot = |i: usize| (i / CHUNK_SLOTS, i % CHUNK_SLOTS);
    // Sattolo's algorithm: a uniformly random permutation with a single
    // cycle, so the chase never settles into a short, cached loop.
    let mut rng = SplitMix64::new(0x5EED);
    for i in (1..CHASE_SLOTS).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        let ((ci, oi), (cj, oj)) = (slot(i), slot(j));
        let (a, b) = (table[ci][oi], table[cj][oj]);
        table[ci][oi] = b;
        table[cj][oj] = a;
    }
    let start = Instant::now();
    let mut at = 0usize;
    for _ in 0..CHASE_HOPS {
        let (chunk, offset) = slot(at);
        at = table[chunk][offset] as usize;
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}

//! How fast the host runs right now, measured by a fixed kernel the
//! benchmark owns.
//!
//! On a VM shared with other tenants the host's speed drifts by 10–30% over
//! minutes, which no median over one run can average out. Timing this kernel
//! next to every simulation call lets the benchmark scale each call's wall
//! time to a nominal host speed. The kernel resembles the simulator's hot
//! paths: a branchy scan over a request-like table of a few MB (the shape of
//! an Algorithm-2 backfill), dependent random probes into a 4 MB table, and
//! allocation churn. It never calls the program, so a change to the program
//! cannot move it.

use crate::stats::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on a quiet 2-vCPU x86-64 VM, seconds. Normalized walls
/// are in seconds of that host.
pub const NOMINAL_S: f64 = 0.045;

/// A request-shaped row: 48 bytes, like the simulator's `Request`.
#[derive(Clone, Copy)]
struct Row {
    id: u64,
    input_len: u64,
    gen_len: u64,
    arrival: f64,
    session: u64,
    class: u64,
}

/// Runs the kernel once and returns its host seconds.
pub fn kernel_seconds() -> f64 {
    let start = Instant::now();
    let mut rng = SplitMix64::new(0x5eed);
    let rows: Vec<Row> = (0..120_000)
        .map(|id| Row {
            id,
            input_len: rng.range(1, 418),
            gen_len: rng.range(32, 256),
            arrival: 0.0,
            session: id,
            class: id % 3,
        })
        .collect();
    let table: Vec<u64> = (0..512 * 1024).map(|_| rng.next_u64()).collect();

    let mut acc = 0u64;
    for pass in 0..16u64 {
        let mut budget = 0u64;
        for row in &rows {
            if row.input_len + row.gen_len + 7 * pass < 300 && budget < 1_000_000 {
                budget += row.input_len;
                acc = acc.wrapping_add(row.id ^ row.session);
            } else if row.class == 1 {
                acc = acc.wrapping_add(row.arrival as u64 + 1);
            }
        }
    }
    let mut x = acc | 1;
    for _ in 0..400_000 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ table[(x >> 45) as usize % table.len()];
    }
    let mut live: Vec<Vec<u64>> = Vec::new();
    for k in 0..2000u64 {
        live.push(vec![k; 128 + (k as usize % 384)]);
        if live.len() > 64 {
            live.swap_remove((k % 64) as usize);
        }
    }
    black_box((acc, x, live.len()));
    start.elapsed().as_secs_f64()
}

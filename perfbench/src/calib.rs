//! A fixed reference kernel, independent of the repository's code, whose
//! time tracks how fast the host runs at the moment.
//!
//! On a shared machine the speed available to one thread drifts by tens
//! of percent over minutes (neighbours' load, frequency changes).  The
//! benchmark runs this kernel between cells and scales its host-time
//! metrics by the kernel's time, so such drifts largely cancel while a
//! change to the simulator's own speed does not.  The kernel mixes the two
//! kinds of work the simulator does: an event-queue walk over a
//! cache-exceeding table, and dense floating-point transforms.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Run the reference kernel once and return its wall time, seconds.
pub fn reference_kernel_s() -> f64 {
    let t0 = Instant::now();
    let sum = event_walk() ^ transforms().to_bits();
    std::hint::black_box(sum);
    t0.elapsed().as_secs_f64()
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// Pop-and-reschedule on a 4096-entry binary heap, each event updating a
/// random slot of a 4 MiB table and appending to a log.
fn event_walk() -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(4096);
    let mut table = vec![0u64; 1 << 19];
    let mut log: Vec<f64> = Vec::with_capacity(1 << 16);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..4096u32 {
        heap.push(Reverse((lcg(&mut x) >> 40, i)));
    }
    for _ in 0..120_000u32 {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let r = lcg(&mut x);
        let slot = ((r >> 20) as usize ^ id as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(t);
        acc = acc * 0.999 + (table[slot] as f64).sqrt();
        heap.push(Reverse((t + (r >> 48) + 1, id)));
        log.push(acc);
        if log.len() == log.capacity() {
            acc += log[(r as usize) & 0xffff];
            log.clear();
        }
    }
    table.iter().fold(acc as u64, |a, &b| a.wrapping_add(b))
}

/// Repeated 256-point DFT magnitudes of a sliding window, as the detector
/// computes them.
fn transforms() -> f64 {
    const N: usize = 256;
    let (cos, sin): (Vec<f64>, Vec<f64>) = (0..N)
        .map(|k| {
            let a = -2.0 * std::f64::consts::PI * k as f64 / N as f64;
            (a.cos(), a.sin())
        })
        .unzip();
    let mut x: u64 = 7;
    let mut signal: Vec<f64> = (0..N).map(|_| (lcg(&mut x) >> 11) as f64 * 1e-16).collect();
    let mut total = 0.0;
    for round in 0..24 {
        signal[round % N] += 1.0;
        for k in 0..N / 8 {
            let (mut re, mut im) = (0.0, 0.0);
            for (n, &s) in signal.iter().enumerate() {
                let i = (k * n) % N;
                re += s * cos[i];
                im += s * sin[i];
            }
            total += (re * re + im * im).sqrt();
        }
    }
    total
}

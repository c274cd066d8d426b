//! The host-speed yardstick: a fixed kernel that calls no simulator code,
//! run between body repetitions.  Dividing a body's busy time by the
//! yardstick's slowness cancels the part of run-to-run noise that comes from
//! the host (frequency, steal time, a neighbour's cache and memory traffic)
//! rather than from the code under test.
//!
//! The kernel is a dependent pointer chase with an integer hash folded into
//! every step, over two tables: 256 KiB, which stays in a private L2, and
//! 2 MiB, which spills into the shared last-level cache.  Both halves are
//! needed.  In the 2-vCPU sandbox the simulator's bodies slow down by up to
//! 65 % for seconds at a time while an L2-resident kernel slows by 15 % —
//! the interference is in the shared cache — and a last-level kernel alone
//! swings ±40 % on its own.  Measured over 130 interleaved repetitions per
//! body, windows of 16: raw medians spread (interquartile, of the median)
//! 22 % / 2 % / 14 % on the miss-bound, compute-bound and two-thread sweep
//! bodies; divided by the L2 half alone 12 % / 2 % / 10 %; by this blend
//! 5 % / 2 % / 2 %.

use std::hint::black_box;
use std::time::Instant;

/// One half of the kernel: a table, how far to chase through it, and how
/// long that takes on the reference host (the machine class the checked-in
/// baseline was recorded on).
struct Half {
    next: Vec<u32>,
    steps: u64,
    ref_s: f64,
}

/// The kernel's tables.
pub struct Yardstick {
    halves: [Half; 2],
}

/// One run of the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Wall time of the run.
    pub seconds: f64,
    /// How slow the host was against the reference host: each half's time
    /// over its reference time, averaged (so both weigh the same whatever
    /// their lengths).  1.0 on the reference host; 1.25 means a quarter
    /// slower.
    pub slowness: f64,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Builds the tables from fixed seeds.
    pub fn new() -> Self {
        let y = Yardstick {
            halves: [
                Half {
                    next: single_cycle(64 * 1024, 0x1CF9_2009),
                    steps: 9_000_000,
                    ref_s: 0.041,
                },
                Half {
                    next: single_cycle(512 * 1024, 0x2009_1CF9),
                    steps: 2_500_000,
                    ref_s: 0.043,
                },
            ],
        };
        // One discarded run: the first pays for faulting the tables in and
        // for the core leaving its idle state, and reads up to 2x slow.
        y.run();
        y
    }

    /// Runs the kernel once.
    pub fn run(&self) -> Reading {
        let mut seconds = 0.0;
        let mut slowness = 0.0;
        for half in &self.halves {
            let t0 = Instant::now();
            black_box(chase(&half.next, black_box(half.steps)));
            let dt = t0.elapsed().as_secs_f64();
            seconds += dt;
            slowness += dt / half.ref_s / self.halves.len() as f64;
        }
        Reading { seconds, slowness }
    }
}

/// A uniform random permutation with a single cycle (Sattolo's algorithm),
/// so a chase visits the whole table before repeating.
fn single_cycle(entries: usize, seed: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..entries as u32).collect();
    let mut state = seed;
    for i in (1..entries).rev() {
        state = splitmix(state);
        next.swap(i, (state % i as u64) as usize);
    }
    next
}

fn chase(next: &[u32], steps: u64) -> u64 {
    let mut at = 0u32;
    let mut h = 0u64;
    for _ in 0..steps {
        at = next[at as usize];
        h = splitmix(h ^ u64::from(at));
    }
    h
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_and_the_chase_is_deterministic() {
        let next = single_cycle(4096, 7);
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, 4096, "single cycle through every entry");
        assert_eq!(chase(&next, 1000), chase(&single_cycle(4096, 7), 1000));
        assert_ne!(chase(&next, 1000), chase(&next, 1001));
    }

    #[test]
    fn slowness_weighs_both_halves_equally() {
        let y = Yardstick {
            halves: [
                Half {
                    next: single_cycle(64, 1),
                    steps: 10,
                    ref_s: 1.0,
                },
                Half {
                    next: single_cycle(64, 2),
                    steps: 10,
                    ref_s: 1.0,
                },
            ],
        };
        let r = y.run();
        // With one-second references the slowness is half the total time.
        assert!((r.slowness - r.seconds / 2.0).abs() < 1e-12);
    }
}

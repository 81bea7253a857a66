//! Host-speed reference: a fixed piece of the benchmark's own code, timed
//! right after every operation, so that operation times can be given at a
//! fixed host speed.
//!
//! The host these figures were taken on is shared, and its speed per core
//! moves between levels for seconds to minutes at a time: a slowed stretch
//! makes every instruction slower, and CPU time moves with wall time, so no
//! statistic over one run's wall times hides a slowdown that lasts the
//! whole run. The reference loop slows down with the host but not with the
//! program, since it calls none of it. An operation's time divided by the
//! reference time taken beside it is therefore steady under a slowdown and
//! still moves with any change to the program; scaled by [`REF_MS`] it
//! reads as milliseconds on a host that runs the loop in `REF_MS`.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// The reference loop's time on an unslowed reference host (2 vCPUs of an
/// Intel Xeon at a nominal 2.0 GHz), in ms. Normalized times are given at
/// this speed.
pub const REF_MS: f64 = 0.25;

/// Map entries the reference loop inserts; about 0.25 ms of work.
const REF_ENTRIES: u64 = 800;

/// The reference loop: ordered-map inserts, small allocations, formatting,
/// a sort and a hash map, the kinds of work the workloads do. Returns a
/// value derived from all of it so the optimiser keeps it.
fn reference_work(salt: u64) -> u64 {
    let mut x = salt | 1;
    let mut map: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for _ in 0..REF_ENTRIES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = (x % 1024) as u32;
        map.entry(key).or_default().push(key);
    }
    let mut text = String::new();
    for (key, values) in &map {
        let _ = write!(text, "{key}={};", values.len());
    }
    let mut words: Vec<&str> = text.split(';').collect();
    words.sort_unstable();
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for w in &words {
        *counts.entry(w).or_insert(0) += 1;
    }
    counts.len() as u64 + text.len() as u64
}

/// Runs the reference loop `reps` times (at least once) and returns the
/// mean time of one pass, in ms.
pub fn reference_ms(salt: u64, reps: usize) -> f64 {
    let reps = reps.max(1);
    let start = Instant::now();
    for r in 0..reps {
        std::hint::black_box(reference_work(std::hint::black_box(salt + r as u64)));
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Repetitions of one timed thing, each paired with the reference time
/// taken right after it.
#[derive(Debug, Default, Clone)]
pub struct Paired {
    wall: Vec<f64>,
    reference_ms: Vec<f64>,
}

impl Paired {
    pub fn push(&mut self, wall: f64, reference_ms: f64) {
        self.wall.push(wall);
        self.reference_ms.push(reference_ms);
    }

    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// The time at reference speed, in the unit of the wall times: the
    /// median over repetitions of wall ÷ reference, times [`REF_MS`].
    pub fn normalized(&self) -> f64 {
        let ratios: Vec<f64> = self
            .wall
            .iter()
            .zip(&self.reference_ms)
            .map(|(w, r)| w / r)
            .collect();
        crate::stats::median(&ratios) * REF_MS
    }

    /// The median wall time, as measured.
    pub fn wall(&self) -> f64 {
        crate::stats::median(&self.wall)
    }

    /// The reference times taken beside the repetitions.
    pub fn reference(&self) -> &[f64] {
        &self.reference_ms
    }
}

#[allow(unsafe_code)]
mod ffi {
    extern "C" {
        pub fn sched_getcpu() -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// Pins the calling thread, and every thread it starts later (the daemon's
/// included), to the CPU it runs on now, so an operation and the reference
/// time taken beside it always share one CPU. Returns that CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { ffi::sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly sized `cpu_set_t` for the call; pid
    // 0 is the calling thread.
    let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_cancels_a_uniform_slowdown() {
        let mut fast = Paired::default();
        let mut slow = Paired::default();
        for (wall, reference) in [(1.0, 0.25), (1.2, 0.3), (0.8, 0.2)] {
            fast.push(wall, reference);
            // The whole host runs 1.5 times slower.
            slow.push(wall * 1.5, reference * 1.5);
        }
        assert!((fast.normalized() - 1.0).abs() < 1e-12);
        assert!((slow.normalized() - fast.normalized()).abs() < 1e-12);
        assert!((slow.wall() - 1.5 * fast.wall()).abs() < 1e-12);
        // A slower program at the same host speed shows in full.
        let mut slower = Paired::default();
        slower.push(2.0, 0.25);
        assert!((slower.normalized() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reference_loop_is_deterministic_and_timed() {
        assert_eq!(reference_work(7), reference_work(7));
        assert!(reference_ms(1, 2) > 0.0);
    }
}

//! Machine-speed calibration of the timed stretches.
//!
//! The benchmark shares a few cores of a host with other work, and the
//! host's speed drifts by a third within a minute. So every timed stretch
//! (a set-up, a stage of a run) is bracketed by a fixed kernel that owes
//! nothing to the program: it scans bytes, hashes tokens into an
//! open-addressed table and sorts the hashes, on buffers allocated once, so
//! neither the program's code nor its allocator can change its time. A
//! stretch's calibrated time is its wall time scaled by [`NOMINAL_S`] over
//! the mean of the kernel's times just before and just after it: the wall
//! time the stretch would have taken on a machine on which the kernel takes
//! [`NOMINAL_S`]. `fns_per_s` and `setup_s` count calibrated seconds. The
//! kernel's buffers take about 4 MB, which `peak_rss_mb` includes.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall seconds on the machine the benchmark was defined on
/// (2 vCPU of a shared x86-64 host), so that calibrated seconds read close
/// to its wall seconds.
pub const NOMINAL_S: f64 = 0.075;

/// Lines of the kernel's input text, and passes over it per sample.
const LINES: usize = 60_000;
const PASSES: usize = 10;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub struct Clock {
    text: Vec<u8>,
    table: Vec<u32>,
    keys: Vec<u32>,
    /// The kernel's latest time, taken just before the next stretch.
    last: f64,
    /// Every kernel time taken.
    samples: Vec<f64>,
}

impl Clock {
    /// Builds the kernel's buffers, warms the kernel up and takes the first
    /// sample.
    pub fn new() -> Clock {
        let mut text = String::new();
        for i in 0..LINES {
            let operand = i.wrapping_mul(2_654_435_761) % 9973;
            text.push_str(&format!("%v{i} = add i32 %a{operand}, {}\n", i % 97));
        }
        let mut clock = Clock {
            text: text.into_bytes(),
            // Six tokens a line, about one of them distinct: the table stays
            // about a quarter full.
            table: vec![0; (4 * LINES).next_power_of_two()],
            keys: Vec::with_capacity(6 * LINES),
            last: 0.0,
            samples: Vec::new(),
        };
        black_box(clock.kernel());
        clock.resync();
        clock
    }

    /// Takes a fresh sample, for a stretch that follows untimed work.
    pub fn resync(&mut self) {
        let start = Instant::now();
        for _ in 0..PASSES {
            black_box(self.kernel());
        }
        self.last = start.elapsed().as_secs_f64();
        self.samples.push(self.last);
    }

    /// The calibrated seconds of a stretch of `wall` seconds that ended just
    /// now and began just after the previous sample.
    pub fn calibrate(&mut self, wall: f64) -> f64 {
        let before = self.last;
        self.resync();
        wall * NOMINAL_S / ((before + self.last) / 2.0)
    }

    /// Every kernel time taken so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Hashes every whitespace-separated token of the text into the table
    /// and sorts the hashes. Allocates nothing: the buffers keep their
    /// capacity.
    fn kernel(&mut self) -> usize {
        self.table.fill(0);
        self.keys.clear();
        let mask = self.table.len() - 1;
        let mut distinct = 0;
        let mut hash = FNV_OFFSET;
        for &byte in &self.text {
            if byte != b' ' && byte != b'\n' {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                continue;
            }
            if hash != FNV_OFFSET {
                // The high half, never 0, which marks a free slot.
                let key = (hash >> 32) as u32 | 1;
                let mut slot = hash as usize & mask;
                while self.table[slot] != key {
                    if self.table[slot] == 0 {
                        self.table[slot] = key;
                        distinct += 1;
                        break;
                    }
                    slot = (slot + 1) & mask;
                }
                self.keys.push(key);
            }
            hash = FNV_OFFSET;
        }
        self.keys.sort_unstable();
        distinct + self.keys.len()
    }
}

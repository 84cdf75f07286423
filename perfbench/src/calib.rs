//! Machine-speed calibration.
//!
//! A small shared virtual machine does not run at one speed: what other
//! guests do on the host can make the same code on the same CPU 40 %
//! slower for seconds or minutes at a time, so a bare op time measures the
//! host as much as the program. Every timed op and set-up is therefore
//! bracketed by a fixed calibration block just before and just after it,
//! run on the same CPUs with the same number of threads, and a run's
//! median time is rescaled to the speed at which a block takes
//! [`REFERENCE_S`]:
//!
//! ```text
//! reference seconds = median wall × REFERENCE_S / middle mean of the run's block pairs
//! ```
//!
//! The block is the benchmark's own code, the same on every seed and for
//! every version of the library, so a change to the program moves the
//! reference time exactly as it moves the wall time at a fixed machine
//! speed. A block lasts many scheduler time slices, but a pair of them
//! still says little about how fast the machine ran during the op
//! between; the mean of the middle half of all of a run's pairs is
//! steady. It uses more of the pairs than their median would. The raw wall
//! medians are printed beside the reference times.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Wall seconds of one block at the reference speed, about what a quiet
/// 2-vCPU Xeon KVM guest takes. It only scales the reported times.
pub const REFERENCE_S: f64 = 0.05;

/// Keys sorted, then hashed into the map, by one pass: 512 KiB, within a
/// core's L2.
const KEYS: usize = 1 << 16;
/// Passes in one block.
const PASSES: usize = 8;

/// One thread's buffers, allocated once: a block that allocated would
/// depend on the state an op left the allocator in, and a larger buffer on
/// whether it happened to get huge pages, which changes from run to run.
struct Lane {
    keys: Vec<u64>,
    /// The pipeline's own kind of table (std `HashMap`, SipHash); its
    /// capacity is kept across passes.
    map: HashMap<u64, u64>,
    x: u64,
}

impl Lane {
    fn new(salt: u64) -> Lane {
        Lane {
            keys: vec![0; KEYS],
            map: HashMap::with_capacity(KEYS),
            x: 0x9e37_79b9_7f4a_7c15 ^ salt,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// One pass: fill and sort the keys, count their high bits in the
    /// map, then look every key up again.
    fn pass(&mut self) {
        for i in 0..KEYS {
            self.keys[i] = self.next();
        }
        self.keys.sort_unstable();
        self.map.clear();
        for &k in &self.keys {
            *self.map.entry(k >> 44).or_insert(0) += k & 0xff;
        }
        let mut hits = 0u64;
        for &k in &self.keys {
            hits = hits.wrapping_add(self.map.get(&(k >> 44)).copied().unwrap_or(0));
        }
        black_box(hits);
    }

    fn block(&mut self) {
        for _ in 0..PASSES {
            self.pass();
        }
    }
}

/// Calibration blocks for a workload of `threads` threads.
pub struct Calibrator {
    lanes: Vec<Lane>,
}

/// One calibrated timing.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall seconds of the timed call.
    pub wall: f64,
    /// Mean wall seconds of the blocks just before and after it.
    pub block: f64,
}

impl Calibrator {
    pub fn new(threads: usize) -> Calibrator {
        let mut c = Calibrator {
            lanes: (0..threads.max(1) as u64).map(Lane::new).collect(),
        };
        // Touch every page once, outside any measurement.
        c.block();
        c
    }

    /// Run one block, every lane on a thread of its own at once, and
    /// return its wall seconds.
    pub fn block(&mut self) -> f64 {
        let start = Instant::now();
        match self.lanes.as_mut_slice() {
            [lane] => lane.block(),
            lanes => std::thread::scope(|s| {
                for lane in lanes {
                    s.spawn(move || lane.block());
                }
            }),
        }
        start.elapsed().as_secs_f64()
    }

    /// Time `f` between two blocks.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Sample) {
        let before = self.block();
        let (out, wall) = crate::timed(f);
        let block = (before + self.block()) / 2.0;
        (out, Sample { wall, block })
    }
}

/// The mean of the middle half of `blocks` (each pair's mean block time):
/// the quarter at either end is left out. Fewer than four count whole.
pub fn middle_mean(blocks: &[f64]) -> f64 {
    let mut v = blocks.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

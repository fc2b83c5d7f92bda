//! The host-speed reference: a fixed computation that uses none of the
//! toolkit's code, timed next to every job and every set-up.
//!
//! The shared host runs the same code faster or slower by up to half
//! over minutes (see the noise profile in `perfbench/README.md`). A job
//! and the reference timed back to back see the same host, so the ratio
//! of their times moves far less than either. The end-to-end times are
//! that ratio multiplied by [`Reference::NOMINAL_S`], the reference's
//! time on a quiet host: they read as the milliseconds the job takes on
//! that host.
//!
//! The reference mixes the kinds of work the jobs do: sorting, number
//! formatting and parsing, and binary search. It leaves out memory
//! latency: under a neighbour's load a dependent walk through a 16 MiB
//! table did not slow at all while the jobs slowed by a third, and
//! including it made the reference under-correct. It allocates only in
//! [`Reference::new`], so nothing a job leaves on the heap changes its
//! cost, and it checks its own result every time.

use crate::workloads::SplitMix;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    text: String,
    checksum: u64,
}

impl Reference {
    /// The time of one [`Reference::run`] on a quiet host, rounded: its
    /// median between jobs read 7.7 to 8.2 ms on a 2-vCPU KVM guest,
    /// Intel Xeon family 6 model 207 at 2.1 GHz.
    pub const NOMINAL_S: f64 = 0.008;

    const KEYS: usize = 49_152;

    pub fn new() -> Reference {
        let mut rng = SplitMix(0x0005_EED0_F4EF);
        let keys = (0..Self::KEYS).map(|_| rng.below(1 << 40)).collect();
        let mut r = Reference {
            keys,
            sorted: Vec::with_capacity(Self::KEYS),
            text: String::with_capacity(Self::KEYS * 32),
            checksum: 0,
        };
        r.checksum = r.run();
        r
    }

    fn run(&mut self) -> u64 {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.text.clear();
        for (i, k) in self.sorted.iter().enumerate() {
            let _ = writeln!(self.text, "{{\"i\":{i},\"k\":{k}}}");
        }
        let mut sum = 0u64;
        for line in self.text.lines() {
            for field in line.split([':', ',', '}']) {
                if let Ok(v) = field.parse::<u64>() {
                    sum = sum.wrapping_add(v);
                }
            }
        }
        for k in &self.keys {
            let at = self.sorted.binary_search(k).unwrap_or_else(|at| at);
            sum = sum.wrapping_add(at as u64);
        }
        sum
    }

    /// Runs the reference once and returns its wall time in seconds, or
    /// an error if its result differs from the first run's.
    pub fn time(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        let sum = std::hint::black_box(self.run());
        let secs = t0.elapsed().as_secs_f64();
        if sum != self.checksum {
            return Err(format!(
                "host-speed reference computed {sum}, expected {}",
                self.checksum
            ));
        }
        Ok(secs)
    }
}

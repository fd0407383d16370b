//! The one estimator every timing in this benchmark goes through.
//!
//! A workload is a *pass*: a fixed set of operations in a seeded order. A run
//! repeats the pass `R` times and keeps, for every operation, the fastest of
//! its repetitions — its *floor*. On this class of machine (a few shared
//! vCPUs whose memory side drifts in phases of seconds to a minute) medians
//! of repeated passes move by tens of percent between runs of the same
//! binary while the floors repeat within a few percent, so throughput and
//! latency percentiles are computed over the floors. `R` is fixed before the
//! first pass from the requested run length and the workload's nominal pass
//! time, never from elapsed time, so two builds compared against each other
//! take their floors over the same number of samples.

/// Fewest passes a run may take its floors over.
pub const MIN_PASSES: usize = 10;

/// Sample value of an operation that failed (non-200, wrong body, transport
/// error): it can never be a floor, so a failure misses every latency.
pub const FAILED: u64 = u64::MAX;

/// SplitMix64 (Steele, Lea, Flood 2014): the seed stream behind every
/// permutation and view choice. Inlined so the crate needs no `rand`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-32 for every
    /// `n` this crate uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
#[must_use]
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Passes per run: requested length ÷ nominal pass time, at least `min`.
#[must_use]
pub fn fixed_repeats(run_seconds: f64, nominal_pass_s: f64, min: usize) -> usize {
    let by_length = (run_seconds / nominal_pass_s).round();
    if by_length.is_finite() && by_length > min as f64 {
        by_length as usize
    } else {
        min
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `q` of the samples at or below it.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile position.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

#[must_use]
pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    percentile(values, 0.5)
}

/// Median of signed differences (per-op `a − b` of two floor series).
#[must_use]
pub fn median_i64(values: &mut [i64]) -> i64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

/// Per-operation minimum over passes, remembering where the minimum was
/// seen so the trace can point at the sample behind every floor.
#[derive(Debug, Clone)]
pub struct Floors {
    best_ns: Vec<u64>,
    /// `(pass, start_ns)` of the sample that set the floor.
    at: Vec<(u32, u64)>,
}

impl Floors {
    #[must_use]
    pub fn new(ops: usize) -> Self {
        Self {
            best_ns: vec![FAILED; ops],
            at: vec![(0, 0); ops],
        }
    }

    pub fn record(&mut self, op: usize, pass: u32, start_ns: u64, dur_ns: u64) {
        if dur_ns < self.best_ns[op] {
            self.best_ns[op] = dur_ns;
            self.at[op] = (pass, start_ns);
        }
    }

    #[must_use]
    pub fn ns(&self) -> &[u64] {
        &self.best_ns
    }

    #[must_use]
    pub fn at(&self, op: usize) -> (u32, u64) {
        self.at[op]
    }

    /// Operations that never succeeded.
    #[must_use]
    pub fn missing(&self) -> usize {
        self.best_ns.iter().filter(|&&v| v == FAILED).count()
    }

    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.best_ns.iter().filter(|&&v| v != FAILED).sum()
    }

    /// The floors of the operations that succeeded at least once, ascending.
    #[must_use]
    pub fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .best_ns
            .iter()
            .copied()
            .filter(|&v| v != FAILED)
            .collect();
        v.sort_unstable();
        v
    }

    /// Median floor in microseconds (0 when nothing was recorded).
    #[must_use]
    pub fn median_us(&self) -> f64 {
        let sorted = self.sorted();
        if sorted.is_empty() {
            0.0
        } else {
            percentile(&sorted, 0.5) as f64 / 1e3
        }
    }
}

/// Every sample of the timed series, pass-major, plus its floors: the
/// end-to-end metrics and the harness's own noise figures come from here.
#[derive(Debug, Clone)]
pub struct Samples {
    ops: usize,
    passes: Vec<Vec<u64>>,
    pub floors: Floors,
}

/// What one run's samples say about the machine rather than the program.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    /// Σ per-op median ÷ Σ floor: how far a typical pass sat above the floor.
    pub noise_ratio: f64,
    /// Share of ops whose two fastest samples agree within 5 %: how often
    /// the floor was reached more than once.
    pub floor_support: f64,
    /// Median over passes of each pass's own p50 / p90 (µs): what a client
    /// on this box actually saw.
    pub typical_p50_us: f64,
    pub typical_p90_us: f64,
}

impl Samples {
    #[must_use]
    pub fn new(ops: usize) -> Self {
        Self {
            ops,
            passes: Vec::new(),
            floors: Floors::new(ops),
        }
    }

    pub fn begin_pass(&mut self) -> u32 {
        self.passes.push(vec![FAILED; self.ops]);
        (self.passes.len() - 1) as u32
    }

    pub fn record(&mut self, op: usize, start_ns: u64, dur_ns: u64) {
        let pass = self.passes.len() - 1;
        self.passes[pass][op] = dur_ns;
        self.floors.record(op, pass as u32, start_ns, dur_ns);
    }

    #[must_use]
    pub fn pass_count(&self) -> usize {
        self.passes.len()
    }

    /// Σ of each pass's successful samples, in seconds: the number a
    /// median-of-passes benchmark would have reported, pass by pass.
    #[must_use]
    pub fn pass_sums_s(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.iter().filter(|&&v| v != FAILED).sum::<u64>() as f64 / 1e9)
            .collect()
    }

    #[must_use]
    pub fn noise(&self) -> Noise {
        let mut sum_median = 0u64;
        let mut supported = 0usize;
        let mut counted = 0usize;
        let mut column = Vec::with_capacity(self.passes.len());
        for op in 0..self.ops {
            column.clear();
            column.extend(self.passes.iter().map(|p| p[op]).filter(|&v| v != FAILED));
            if column.is_empty() {
                continue;
            }
            column.sort_unstable();
            sum_median += percentile(&column, 0.5);
            counted += 1;
            if column.len() > 1 && column[1] as f64 <= column[0] as f64 * 1.05 {
                supported += 1;
            }
        }
        let mut p50s = Vec::new();
        let mut p90s = Vec::new();
        for pass in &self.passes {
            let mut ok: Vec<u64> = pass.iter().copied().filter(|&v| v != FAILED).collect();
            if ok.is_empty() {
                continue;
            }
            ok.sort_unstable();
            p50s.push(percentile(&ok, 0.5));
            p90s.push(percentile(&ok, 0.9));
        }
        let us = |v: &mut Vec<u64>| {
            if v.is_empty() {
                0.0
            } else {
                median_u64(v) as f64 / 1e3
            }
        };
        Noise {
            noise_ratio: sum_median as f64 / self.floors.sum_ns().max(1) as f64,
            floor_support: supported as f64 / counted.max(1) as f64,
            typical_p50_us: us(&mut p50s),
            typical_p90_us: us(&mut p90s),
        }
    }
}

/// FNV-1a over a byte string, finished through SplitMix64's mixer so nearby
/// inputs land far apart.
#[must_use]
pub fn hash_bytes(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so ("ab","c") and ("a","bc") differ.
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(h).next_u64()
}

/// Order-independent digest of a set of `(key, bytes)` pairs: the wrapping
/// sum of each pair's hash. Equal for any op order, pass count and seed as
/// long as the verified set is the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BodyDigest(u64);

impl BodyDigest {
    pub fn add(&mut self, key: &str, body: &[u8]) {
        self.0 = self.0.wrapping_add(hash_bytes(&[key.as_bytes(), body]));
    }
}

impl std::fmt::Display for BodyDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_keep_the_fastest_repetition_and_where_it_was() {
        let mut s = Samples::new(3);
        for (pass, row) in [[30, 20, 10], [10, 25, FAILED], [20, 15, 40]]
            .iter()
            .enumerate()
        {
            assert_eq!(s.begin_pass() as usize, pass);
            for (op, &d) in row.iter().enumerate() {
                if d != FAILED {
                    s.record(op, 1000 * pass as u64 + op as u64, d);
                }
            }
        }
        assert_eq!(s.floors.ns(), &[10, 15, 10]);
        assert_eq!(s.floors.at(0), (1, 1000));
        assert_eq!(s.floors.at(1), (2, 2001));
        assert_eq!(s.floors.sum_ns(), 35);
        assert_eq!(s.floors.missing(), 0);
    }

    #[test]
    fn an_op_that_never_succeeds_has_no_floor() {
        let mut s = Samples::new(2);
        s.begin_pass();
        s.record(0, 0, 5);
        assert_eq!(s.floors.missing(), 1);
        assert_eq!(s.floors.sorted(), vec![5]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(samples_beyond(10, 0.9), 1);
        assert_eq!(samples_beyond(8192, 0.99), 81);
        assert_eq!(samples_beyond(120, 0.9), 12);
    }

    #[test]
    fn repeats_come_from_run_length_not_elapsed_time() {
        assert_eq!(fixed_repeats(20.0, 0.5, MIN_PASSES), 40);
        assert_eq!(fixed_repeats(20.0, 1.7, MIN_PASSES), 12);
        assert_eq!(fixed_repeats(20.0, 3.0, MIN_PASSES), MIN_PASSES);
        assert_eq!(fixed_repeats(1.0, 3.4, MIN_PASSES), MIN_PASSES);
        assert_eq!(fixed_repeats(0.0, 0.5, 2), 2);
        assert_eq!(fixed_repeats(f64::NAN, 0.5, MIN_PASSES), MIN_PASSES);
    }

    #[test]
    fn seeded_permutation_is_a_stable_bijection() {
        for seed in [0u64, 1, 2, 0xdead_beef] {
            let a = permutation(1008, &mut SplitMix64::new(seed));
            let b = permutation(1008, &mut SplitMix64::new(seed));
            assert_eq!(a, b, "same seed, same order");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..1008).collect::<Vec<_>>(), "bijection");
        }
        let one = permutation(64, &mut SplitMix64::new(1));
        let two = permutation(64, &mut SplitMix64::new(2));
        assert_ne!(one, two, "different seeds reorder");
        // Pinned so a change to the generator cannot go unnoticed: every
        // recorded run's op order depends on it.
        assert_eq!(SplitMix64::new(1).next_u64(), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn noise_figures_separate_machine_from_program() {
        let mut s = Samples::new(2);
        for row in [[100u64, 200], [104, 300], [150, 400]] {
            s.begin_pass();
            for (op, d) in row.into_iter().enumerate() {
                s.record(op, 0, d);
            }
        }
        let n = s.noise();
        // Medians 104 + 300 over floors 100 + 200.
        assert!((n.noise_ratio - 404.0 / 300.0).abs() < 1e-12);
        // Op 0's two fastest agree within 5 %, op 1's do not.
        assert!((n.floor_support - 0.5).abs() < 1e-12);
        assert!((n.typical_p50_us - 0.104).abs() < 1e-12);
        assert!((n.typical_p90_us - 0.3).abs() < 1e-12);
    }

    #[test]
    fn body_digest_ignores_order_and_sees_content() {
        let mut a = BodyDigest::default();
        a.add("x", b"1");
        a.add("y", b"2");
        let mut b = BodyDigest::default();
        b.add("y", b"2");
        b.add("x", b"1");
        assert_eq!(a, b);
        let mut c = BodyDigest::default();
        c.add("x", b"2");
        c.add("y", b"1");
        assert_ne!(a, c);
        assert_ne!(hash_bytes(&[b"ab", b"c"]), hash_bytes(&[b"a", b"bc"]));
    }
}

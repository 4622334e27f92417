//! Order statistics and digests shared by every workload.

use std::hash::Hasher;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `p` is in `(0, 100]`; an empty slice
/// reads 0.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A set of timing samples, summarised by nearest-rank percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// One line of the usual percentiles, for the run's notes.
    pub fn describe(&self, what: &str) -> String {
        let ps = [50.0, 75.0, 90.0, 95.0, 99.0];
        let parts: Vec<String> = ps
            .iter()
            .map(|&p| format!("p{p} {:.1}", self.percentile(p)))
            .collect();
        format!("{what} (us, n={}): {}", self.len(), parts.join(", "))
    }

    /// Index of the sample at the median rank, for reporting the
    /// breakdown of the repeat the median came from.
    pub fn median_index(&self) -> usize {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_by(|&a, &b| self.values[a].total_cmp(&self.values[b]));
        let rank = (self.values.len() as f64 / 2.0).ceil() as usize;
        order.get(rank.saturating_sub(1)).copied().unwrap_or(0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

/// 64-bit FNV-1a: a stable digest that does not depend on the
/// standard library's randomly keyed hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// Digest of a value's full `Debug` rendering, streamed into the hasher
/// without building the string: two values digest equal iff every
/// field prints the same, floats to all their digits.
pub fn debug_digest<T: std::fmt::Debug>(value: &T) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv::default();
    write!(h, "{value:?}").expect("hashing never fails");
    h.finish()
}

/// splitmix64 step: the benchmark's only source of seeded randomness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook definition: sort, then take the element at
    /// 1-based rank ceil(p/100 * n).
    fn oracle(values: &[f64], p: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        let mut rank = 1;
        while (rank as f64) < p / 100.0 * n as f64 {
            rank += 1;
        }
        sorted[rank - 1]
    }

    #[test]
    fn nearest_rank_matches_sorted_vector_oracle() {
        let mut state = 7u64;
        for n in 1..=257usize {
            let values: Vec<f64> = (0..n)
                .map(|_| (splitmix64(&mut state) % 1000) as f64 / 7.0)
                .collect();
            let mut s = Samples::default();
            for &v in &values {
                s.push(v);
            }
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(s.percentile(p), oracle(&values, p), "n={n} p={p}");
            }
            assert_eq!(s.values[s.median_index()], s.median(), "n={n}");
        }
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        assert_eq!(nearest_rank(&[3.0], 1.0), 3.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 50.1), 3.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
    }
}

//! Fixed-size log-linear latency histogram.
//!
//! Values below 128 get one bucket each; above that, every power of two
//! is split into 128 equal buckets, so a bucket is never wider than
//! 1/128 (< 1%) of the values it holds. The bucket array is allocated
//! once by [`LatencyHist::new`]; recording, clearing and reading
//! quantiles never allocate, so the benchmark's own memory does not grow
//! with throughput.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Exact buckets for `0..SUB`, then `SUB` buckets per power of two up to
/// 2^63.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Latency histogram over nanosecond values.
pub struct LatencyHist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// An empty histogram; the only allocation it ever makes.
    pub fn new() -> LatencyHist {
        LatencyHist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Forgets every recorded value.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q <= 1`): the value of rank
    /// `ceil(q * count)` in sorted order, placed inside its bucket by
    /// linear interpolation over the bucket's values, so the answer is
    /// always within one bucket of the exact one. Zero when nothing was
    /// recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &n) in self.counts.iter().enumerate() {
            if seen + n >= rank {
                let within = (rank - seen) as f64 - 0.5;
                return bucket_low(idx) as f64 + bucket_width(idx) as f64 * within / n as f64;
            }
            seen += n;
        }
        unreachable!("rank {rank} is within the {} recorded values", self.total)
    }
}

/// The bucket `value` falls into.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let shift = 63 - value.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + (value >> shift) as usize - SUB
}

/// The smallest value of bucket `idx`.
pub fn bucket_low(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = (idx >> SUB_BITS) - 1;
    (((idx & (SUB - 1)) + SUB) as u64) << shift
}

/// How many distinct values bucket `idx` holds.
pub fn bucket_width(idx: usize) -> u64 {
    if idx < SUB {
        1
    } else {
        1 << ((idx >> SUB_BITS) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        for v in [
            0,
            1,
            127,
            128,
            129,
            255,
            256,
            257,
            1000,
            4_000,
            1 << 40,
            u64::MAX,
        ] {
            let idx = bucket_of(v);
            assert!(idx < BUCKETS);
            let low = bucket_low(idx);
            assert!(
                low <= v && v - low < bucket_width(idx),
                "{v} in bucket {idx}"
            );
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for idx in 1..BUCKETS {
            assert_eq!(bucket_low(idx - 1) + bucket_width(idx - 1), bucket_low(idx));
        }
    }
}

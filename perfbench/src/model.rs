//! What every key should hold, so that every byte the engine returns can be
//! checked against content regenerated from `(key, version)`.
//!
//! A blob is a list of segments; each segment is
//! `lobster_workloads::make_payload(len, seed)` with a seed derived from the
//! run seed, the key and the version that wrote it. A put replaces the
//! segments, an append adds one, a delete empties the key.

use lobster_workloads::make_payload;

/// One written piece of a blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    pub seed: u64,
    pub len: usize,
}

/// Expected content of one key (`None` once deleted).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Blob {
    pub segments: Vec<Segment>,
}

impl Blob {
    pub fn new(seed: u64, len: usize) -> Blob {
        Blob {
            segments: vec![Segment { seed, len }],
        }
    }

    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn appended(&self, seed: u64, len: usize) -> Blob {
        let mut b = self.clone();
        b.segments.push(Segment { seed, len });
        b
    }

    /// The full expected content, regenerated.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.segments {
            out.extend_from_slice(&make_payload(s.len, s.seed));
        }
        out
    }
}

/// The seed of the bytes `version` wrote under `key`.
pub fn payload_seed(run_seed: u64, key: u64, version: u64) -> u64 {
    mix64(
        mix64(run_seed ^ 0x5EED_0000_0000_0000) ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version,
    )
}

/// The engine key of key number `id`.
pub fn key_name(id: u64) -> Vec<u8> {
    format!("key{id:08}").into_bytes()
}

/// SplitMix64 finaliser.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` sizes at evenly spaced quantiles of a log-uniform distribution on
/// `[min, max]`, in a seed-chosen order.
pub fn loguniform_sizes(n: usize, min: usize, max: usize, rng: &mut impl rand::Rng) -> Vec<usize> {
    let ratio = max as f64 / min as f64;
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| (min as f64 * ratio.powf((i as f64 + 0.5) / n as f64)) as usize)
        .collect();
    shuffle(&mut sizes, rng);
    sizes
}

fn shuffle<T>(v: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_concatenate() {
        let b = Blob::new(7, 100).appended(9, 50);
        let bytes = b.bytes();
        assert_eq!(bytes.len(), 150);
        assert_eq!(&bytes[..100], &make_payload(100, 7)[..]);
        assert_eq!(&bytes[100..], &make_payload(50, 9)[..]);
    }
}

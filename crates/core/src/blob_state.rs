//! The *Blob State* — the paper's single-layer indirection for BLOBs
//! (§III-B).
//!
//! A Blob State bundles everything needed to locate, validate, grow, and
//! index a BLOB: its size, SHA-256, the SHA-256 intermediate digest (for
//! resumable hashing on growth), a 32-byte content prefix (for cheap range
//! comparisons), an optional tail extent, and the head-page PIDs of its
//! extent sequence. Combined with the static extent-tier table, the PID
//! array fully determines the physical location of every byte.

use lobster_extent::{ExtentSpec, TierTable};
use lobster_sha256::Midstate;
use lobster_types::{read_u32, read_u64, Error, Pid, Result, MAX_EXTENTS_PER_BLOB};

/// Length of the embedded content prefix.
pub const PREFIX_LEN: usize = 32;

/// The part of a byte range that lives in one extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Piece {
    /// Position of the extent in the sequence (the tail extent, if any,
    /// follows the tier extents).
    pub index: usize,
    pub spec: ExtentSpec,
    /// Blob byte offset of the piece's first byte.
    pub blob_off: u64,
    /// Byte offset of the piece within its extent.
    pub ext_off: usize,
    /// Length in bytes (never zero).
    pub len: usize,
}

/// A byte range mapped onto a Blob State's extents
/// ([`BlobState::pieces`]): the covering extent run, the extents after it
/// (readahead), and the per-extent [`Piece`]s that tile the range.
#[derive(Debug)]
pub(crate) struct Pieces {
    specs: Vec<ExtentSpec>,
    page: u64,
    off: u64,
    end: u64,
    /// The run is `specs[first..last]`; `first_base` is the blob offset of
    /// `specs[first]`.
    first: usize,
    first_base: u64,
    last: usize,
}

impl Pieces {
    /// The extents the range touches, in sequence order (empty for an
    /// empty range).
    pub fn run(&self) -> &[ExtentSpec] {
        &self.specs[self.first..self.last]
    }

    /// Byte offset of the range's start within the run.
    pub fn run_offset(&self) -> usize {
        (self.off - self.first_base) as usize
    }

    /// Up to `n` extents following the run: the sequential-readahead hint.
    pub fn ahead(&self, n: usize) -> &[ExtentSpec] {
        &self.specs[self.last..self.specs.len().min(self.last.saturating_add(n))]
    }

    /// The pieces tiling the range, one per extent of the run.
    pub fn iter(&self) -> impl Iterator<Item = Piece> + '_ {
        let mut base = self.first_base;
        self.run().iter().enumerate().map(move |(k, &spec)| {
            let ext_end = base.saturating_add(spec.pages.saturating_mul(self.page));
            let lo = self.off.max(base);
            let piece = Piece {
                index: self.first + k,
                spec,
                blob_off: lo,
                ext_off: (lo - base) as usize,
                len: (self.end.min(ext_end) - lo) as usize,
            };
            base = ext_end;
            piece
        })
    }
}

/// The Blob State (§III-B "Format").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobState {
    /// Logical size of the BLOB in bytes.
    pub size: u64,
    /// SHA-256 of the full content (durability validation + point-query
    /// equality checks).
    pub sha256: [u8; 32],
    /// SHA-256 compression state at the last 64-byte boundary (resume point
    /// for growth operations).
    pub sha_midstate: [u8; 32],
    /// First `min(32, size)` bytes of the content, zero-padded.
    pub prefix: [u8; PREFIX_LEN],
    /// Tail extent (start page, page count), if the BLOB uses one.
    pub tail: Option<(Pid, u64)>,
    /// Head pages of the full tier extents, in sequence order.
    pub extents: Vec<Pid>,
}

impl BlobState {
    /// Build the physical extent list: tier extents (sizes from the static
    /// tier table) followed by the tail extent if present.
    pub fn extent_specs(&self, table: &TierTable) -> Vec<ExtentSpec> {
        let mut specs: Vec<ExtentSpec> = self
            .extents
            .iter()
            .enumerate()
            .map(|(i, &pid)| ExtentSpec::new(pid, table.size_of(i)))
            .collect();
        if let Some((pid, pages)) = self.tail {
            specs.push(ExtentSpec::new(pid, pages));
        }
        specs
    }

    /// Total pages of storage the BLOB occupies.
    pub fn capacity_pages(&self, table: &TierTable) -> u64 {
        table.cumulative_pages(self.extents.len()) + self.tail.map_or(0, |(_, p)| p)
    }

    /// Whether the content lives entirely in the prefix (no extents, §III-B).
    pub fn is_inline(&self) -> bool {
        self.extents.is_empty() && self.tail.is_none()
    }

    /// Map the byte range `[off, off + len)`, clamped at `size`, onto the
    /// extent sequence: the one byte-range → extent walk of the engine.
    /// Inline states have no extents to map; callers serve them from the
    /// prefix first.
    ///
    /// A state whose `size` exceeds its extents' capacity is corrupt and
    /// yields [`Error::Corruption`], never a panic or a short walk.
    pub(crate) fn pieces(
        &self,
        table: &TierTable,
        page_size: usize,
        off: u64,
        len: u64,
    ) -> Result<Pieces> {
        let specs = self.extent_specs(table);
        let page = page_size as u64;
        // Saturating: a decoded state may name tiers whose byte sizes
        // overflow u64 (PowerOfTwo reaches 2^63 pages).
        let ext_bytes = |s: &ExtentSpec| s.pages.saturating_mul(page);
        let capacity = specs
            .iter()
            .fold(0u64, |c, s| c.saturating_add(ext_bytes(s)));
        if self.size > capacity {
            return Err(Error::Corruption(format!(
                "blob state size {} exceeds its extents' capacity {capacity}",
                self.size
            )));
        }
        let end = off.saturating_add(len).min(self.size);
        let (mut first, mut first_base, mut last) = (0, 0, 0);
        if off < end {
            let mut base = 0u64;
            for (i, spec) in specs.iter().enumerate() {
                let next = base.saturating_add(ext_bytes(spec));
                if next <= off {
                    first = i + 1;
                    first_base = next;
                }
                if next >= end {
                    last = i + 1;
                    break;
                }
                base = next;
            }
        }
        Ok(Pieces {
            specs,
            page,
            off,
            end,
            first,
            first_base,
            last,
        })
    }

    /// The SHA midstate as a resumable hasher state (processed length is
    /// derived from `size`).
    pub fn midstate(&self) -> Midstate {
        Midstate::from_parts(&self.sha_midstate, self.size & !63)
    }

    /// Serialized length in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + 32 + 32 + PREFIX_LEN + 8 + 4 + 1 + self.extents.len() * 8
    }

    /// Serialize (the representation stored in the relation B-Tree and in
    /// WAL records).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.sha256);
        out.extend_from_slice(&self.sha_midstate);
        out.extend_from_slice(&self.prefix);
        let (tail_pid, tail_pages) = self
            .tail
            .map_or((u64::MAX, 0u32), |(p, n)| (p.raw(), n as u32));
        out.extend_from_slice(&tail_pid.to_le_bytes());
        out.extend_from_slice(&tail_pages.to_le_bytes());
        debug_assert!(self.extents.len() <= MAX_EXTENTS_PER_BLOB);
        out.push(self.extents.len() as u8);
        for pid in &self.extents {
            out.extend_from_slice(&pid.raw().to_le_bytes());
        }
        out
    }

    /// Deserialize a Blob State produced by [`BlobState::encode`].
    pub fn decode(buf: &[u8]) -> Result<BlobState> {
        const FIXED: usize = 8 + 32 + 32 + PREFIX_LEN + 8 + 4 + 1;
        if buf.len() < FIXED {
            return Err(Error::Corruption("blob state too short".into()));
        }
        let size = read_u64(buf);
        let mut sha256 = [0u8; 32];
        sha256.copy_from_slice(&buf[8..40]);
        let mut sha_midstate = [0u8; 32];
        sha_midstate.copy_from_slice(&buf[40..72]);
        let mut prefix = [0u8; PREFIX_LEN];
        prefix.copy_from_slice(&buf[72..72 + PREFIX_LEN]);
        let p = 72 + PREFIX_LEN;
        let tail_pid = read_u64(&buf[p..]);
        let tail_pages = read_u32(&buf[p + 8..]);
        let tail = if tail_pid == u64::MAX {
            None
        } else {
            Some((Pid::new(tail_pid), tail_pages as u64))
        };
        let n = buf[p + 12] as usize;
        if n > MAX_EXTENTS_PER_BLOB || buf.len() != FIXED + n * 8 {
            return Err(Error::Corruption(format!(
                "blob state length mismatch: n={n}, len={}",
                buf.len()
            )));
        }
        let extents = (0..n)
            .map(|i| Pid::new(read_u64(&buf[FIXED + i * 8..])))
            .collect();
        Ok(BlobState {
            size,
            sha256,
            sha_midstate,
            prefix,
            tail,
            extents,
        })
    }

    /// Build the content prefix field from the head of the data.
    pub fn make_prefix(data: &[u8]) -> [u8; PREFIX_LEN] {
        let mut p = [0u8; PREFIX_LEN];
        let n = data.len().min(PREFIX_LEN);
        p[..n].copy_from_slice(&data[..n]);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_extent::TierPolicy;

    fn sample() -> BlobState {
        BlobState {
            size: 123456,
            sha256: [7u8; 32],
            sha_midstate: [9u8; 32],
            prefix: BlobState::make_prefix(b"hello world"),
            tail: Some((Pid::new(99), 3)),
            extents: vec![Pid::new(4), Pid::new(10)],
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let enc = s.encode();
        assert_eq!(enc.len(), s.encoded_len());
        assert_eq!(BlobState::decode(&enc).unwrap(), s);
    }

    #[test]
    fn roundtrip_no_tail_no_extents() {
        let s = BlobState {
            size: 0,
            sha256: [0u8; 32],
            sha_midstate: [0u8; 32],
            prefix: [0u8; PREFIX_LEN],
            tail: None,
            extents: vec![],
        };
        assert_eq!(BlobState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BlobState::decode(&[1, 2, 3]).is_err());
        let mut enc = sample().encode();
        enc.pop(); // truncate
        assert!(BlobState::decode(&enc).is_err());
    }

    #[test]
    fn extent_specs_follow_tier_table() {
        // Figure 1(b): extents P4 (1 page), P10 (2 pages), tail P15 (3 pages).
        let table = TierTable::new(TierPolicy::default());
        let s = BlobState {
            size: 6 * 4096,
            sha256: [0; 32],
            sha_midstate: [0; 32],
            prefix: [0; PREFIX_LEN],
            tail: Some((Pid::new(15), 3)),
            extents: vec![Pid::new(4), Pid::new(10)],
        };
        let specs = s.extent_specs(&table);
        assert_eq!(
            specs,
            vec![
                ExtentSpec::new(Pid::new(4), 1),
                ExtentSpec::new(Pid::new(10), 2),
                ExtentSpec::new(Pid::new(15), 3),
            ]
        );
        assert_eq!(s.capacity_pages(&table), 6);
    }

    #[test]
    fn oversized_state_is_corruption_not_panic() {
        // Two tier extents (1 + 2 pages) and a 3-page tail hold 6 pages;
        // a decoded size one byte past that is corrupt geometry.
        let table = TierTable::new(TierPolicy::default());
        let mut s = sample();
        s.size = 6 * 4096 + 1;
        let s = BlobState::decode(&s.encode()).unwrap();
        for (off, len) in [(0, 10), (6 * 4096, 1), (0, 0)] {
            assert!(matches!(
                s.pieces(&table, 4096, off, len),
                Err(Error::Corruption(_))
            ));
        }
        let no_tail = BlobState {
            tail: None,
            size: 3 * 4096 + 1,
            ..s
        };
        assert!(matches!(
            no_tail.pieces(&table, 4096, 0, 1),
            Err(Error::Corruption(_))
        ));
        // Tier byte sizes past u64 (127 PowerOfTwo extents) saturate
        // instead of overflowing.
        let table = TierTable::new(TierPolicy::PowerOfTwo);
        let huge = BlobState {
            size: u64::MAX,
            tail: None,
            extents: (0..MAX_EXTENTS_PER_BLOB as u64).map(Pid::new).collect(),
            ..no_tail
        };
        let pieces = huge.pieces(&table, 4096, u64::MAX - 10, 5).unwrap();
        assert_eq!(pieces.iter().map(|p| p.len).sum::<usize>(), 5);
    }

    #[test]
    fn pieces_split_at_extent_boundaries() {
        // Figure 1(b): P4 (1 page), P10 (2 pages), tail P15 (3 pages).
        let table = TierTable::new(TierPolicy::default());
        let mut s = sample();
        s.size = 5 * 4096;
        let pieces = s.pieces(&table, 4096, 4000, 5000).unwrap();
        assert_eq!(
            pieces.iter().collect::<Vec<_>>(),
            vec![
                Piece {
                    index: 0,
                    spec: ExtentSpec::new(Pid::new(4), 1),
                    blob_off: 4000,
                    ext_off: 4000,
                    len: 96,
                },
                Piece {
                    index: 1,
                    spec: ExtentSpec::new(Pid::new(10), 2),
                    blob_off: 4096,
                    ext_off: 0,
                    len: 4904,
                },
            ]
        );
        assert_eq!(pieces.run_offset(), 4000);
        assert_eq!(pieces.ahead(4), &[ExtentSpec::new(Pid::new(99), 3)]);
        // Clamped at the size; past the end maps to nothing.
        assert_eq!(
            s.pieces(&table, 4096, 5 * 4096 - 1, 10)
                .unwrap()
                .iter()
                .count(),
            1
        );
        let past = s.pieces(&table, 4096, 5 * 4096, 10).unwrap();
        assert!(past.run().is_empty() && past.iter().next().is_none());
    }

    /// Naive reference: look every byte of the range up in the cumulative
    /// capacities, and merge runs of bytes that land in the same extent.
    fn reference_pieces(specs: &[ExtentSpec], page: u64, off: u64, end: u64) -> Vec<Piece> {
        let mut cum = vec![0u64];
        for s in specs {
            cum.push(cum.last().unwrap() + s.pages * page);
        }
        let mut out: Vec<Piece> = Vec::new();
        for b in off..end {
            let i = cum.partition_point(|&c| c <= b) - 1;
            match out.last_mut() {
                Some(p) if p.index == i => p.len += 1,
                _ => out.push(Piece {
                    index: i,
                    spec: specs[i],
                    blob_off: b,
                    ext_off: (b - cum[i]) as usize,
                    len: 1,
                }),
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The cursor matches the per-byte reference for every tier
        /// policy, with and without tail extents, on random sizes and on
        /// empty, prefix-only, extent-straddling, extent-aligned,
        /// last-byte and random ranges; its pieces tile the clamped range
        /// exactly.
        #[test]
        fn pieces_match_per_byte_reference(
            policy in 0u8..4,
            with_tail in proptest::prelude::any::<bool>(),
            page_pow in 3u32..10,
            pages in 1u64..300,
            last_page_fill in 1u64..4096,
            mode in 0u8..7,
            a in proptest::prelude::any::<u64>(),
            b in proptest::prelude::any::<u64>(),
        ) {
            let table = TierTable::new(match policy {
                0 => TierPolicy::default(),
                1 => TierPolicy::Paper { tiers_per_level: 3, levels: 3 },
                2 => TierPolicy::PowerOfTwo,
                _ => TierPolicy::Fibonacci,
            });
            let page = 1u64 << page_pow;
            let size = (pages - 1) * page + 1 + last_page_fill % page;
            let plan = lobster_extent::plan_sequence(&table, pages, with_tail).unwrap();
            let state = BlobState {
                size,
                sha256: [0; 32],
                sha_midstate: [0; 32],
                prefix: [0; PREFIX_LEN],
                tail: plan.tail_pages.map(|tp| (Pid::new(1_000_000), tp)),
                extents: (0..plan.sizes.len()).map(|i| Pid::new(1000 * i as u64)).collect(),
            };
            let specs = state.extent_specs(&table);
            let boundaries: Vec<u64> = specs
                .iter()
                .scan(0u64, |base, s| { *base += s.pages * page; Some(*base) })
                .filter(|&c| c < size)
                .collect();
            let (off, len) = match mode {
                0 => (a % (size + 16), b % (size + 16)),
                1 => (a % (size + 16), 0),
                2 => {
                    let o = a % PREFIX_LEN as u64;
                    (o, b % (PREFIX_LEN as u64 - o) + 1)
                }
                3 if !boundaries.is_empty() => {
                    let edge = boundaries[(a % boundaries.len() as u64) as usize];
                    let back = a % edge.min(3 * page) + 1;
                    (edge - back, back + b % (3 * page) + 1)
                }
                4 if !boundaries.is_empty() => {
                    let edge = boundaries[(a % boundaries.len() as u64) as usize];
                    (edge, b % (3 * page) + 1)
                }
                5 => (size - 1, b % 8 + 1),
                _ => (0, size),
            };
            let end = off.saturating_add(len).min(size);
            let pieces = state.pieces(&table, page as usize, off, len).unwrap();
            let got: Vec<Piece> = pieces.iter().collect();
            proptest::prop_assert_eq!(&got, &reference_pieces(&specs, page, off.min(end), end));

            // Tiling: contiguous, non-empty, covering [off, end) exactly.
            let mut pos = off.min(end);
            for p in &got {
                proptest::prop_assert!(p.len > 0);
                proptest::prop_assert_eq!(p.blob_off, pos);
                pos += p.len as u64;
            }
            proptest::prop_assert_eq!(pos, end);

            // The run is exactly the pieces' extents; readahead follows it.
            let run: Vec<ExtentSpec> = got.iter().map(|p| p.spec).collect();
            proptest::prop_assert_eq!(pieces.run(), &run[..]);
            if let (Some(first), Some(last)) = (got.first(), got.last()) {
                proptest::prop_assert_eq!(pieces.run_offset(), first.ext_off);
                let after = &specs[last.index + 1..];
                proptest::prop_assert_eq!(pieces.ahead(2), &after[..after.len().min(2)]);
            }
        }
    }

    #[test]
    fn prefix_handles_short_content() {
        let p = BlobState::make_prefix(b"ab");
        assert_eq!(&p[..2], b"ab");
        assert!(p[2..].iter().all(|&b| b == 0));
    }

    #[test]
    fn midstate_reconstruction() {
        let mut s = sample();
        s.size = 200; // boundary at 192
        let m = s.midstate();
        assert_eq!(m.processed, 192);
    }
}

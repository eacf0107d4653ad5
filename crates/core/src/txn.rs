//! Transactions and the BLOB operation set (§III-C/D).
//!
//! The write path implements the paper's single-flush commit protocol:
//!
//! 1. During the transaction, BLOB content is written *only* into buffer
//!    frames (dirty + `prevent_evict`); log records are staged locally.
//! 2. At commit, the staged records — Blob States, not content — are
//!    appended to the WAL and fsynced (group commit). **Only after** the
//!    Blob State is durable are the extents flushed, with one batched
//!    asynchronous write per extent covering only its dirty pages.
//! 3. The flush clears `prevent_evict` and leaves the extents *clean*, so
//!    eviction never writes BLOB content a second time.
//!
//! Deletes publish extents to the per-tier free lists at commit; growth
//! resumes the SHA-256 from the stored midstate; in-place updates choose
//! delta-logging or extent cloning by modeled cost (§III-D).

use crate::blob_state::{BlobState, Piece, Pieces, PREFIX_LEN};
use crate::catalog::{Relation, RelationKind};
use crate::db::{BlobLogging, Database, UpdatePolicy};
use crate::lock::{LockMode, ShardMask};
use lobster_buffer::FlushItem;
use lobster_extent::{plan_growth, plan_sequence, ExtentSpec, SequencePlan};
use lobster_sha256::Sha256;
use lobster_sync::atomic::Ordering;
use lobster_sync::Arc;
use lobster_types::{Error, Result};
use lobster_wal::LogRecord;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// Undo information for logical rollback.
enum UndoOp {
    /// Undo an insert: remove the key.
    Insert { rel: u32, key: Vec<u8> },
    /// Undo an update: restore the old value.
    Update {
        rel: u32,
        key: Vec<u8>,
        old: Vec<u8>,
    },
    /// Undo a delete: reinsert the old value.
    Delete {
        rel: u32,
        key: Vec<u8>,
        old: Vec<u8>,
    },
    /// Undo an in-place BLOB byte-range change.
    BlobBytes {
        spec: ExtentSpec,
        byte_off_in_extent: usize,
        before: Vec<u8>,
    },
}

/// An active transaction. Dropped without [`Txn::commit`] ⇒ rollback.
pub struct Txn {
    db: Arc<Database>,
    id: u64,
    worker: usize,
    records: Vec<LogRecord>,
    undo: Vec<UndoOp>,
    toflush: Vec<FlushItem>,
    allocated: Vec<ExtentSpec>,
    freed: Vec<ExtentSpec>,
    /// Old placements of relocated blobs: quarantine-fenced at swap
    /// staging, released and freed only at the durability frontier
    /// (`StageCtx::retire`). Distinct from `freed`, whose extents carry
    /// no fence and may be recycled by any later allocation.
    refenced: Vec<ExtentSpec>,
    /// Lock-table shards this transaction has locked in; commit and
    /// rollback release only these.
    locked: ShardMask,
    state: TxnState,
}

impl Txn {
    pub(crate) fn new(db: Arc<Database>, id: u64, worker: usize) -> Self {
        Txn {
            db,
            id,
            worker,
            records: Vec::new(),
            undo: Vec::new(),
            toflush: Vec::new(),
            allocated: Vec::new(),
            freed: Vec::new(),
            refenced: Vec::new(),
            locked: 0,
            state: TxnState::Active,
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn worker(&self) -> usize {
        self.worker
    }

    fn check_active(&self) -> Result<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(Error::TxnAborted)
        }
    }

    fn lock(&mut self, rel: &Relation, key: &[u8], mode: LockMode) -> Result<()> {
        self.db
            .locks
            .lock(self.id, &mut self.locked, rel.id, key, mode)
    }

    // ------------------------------------------------------ kv rows -----

    /// Insert or overwrite a plain key/value row.
    pub fn put_kv(&mut self, rel: &Relation, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Kv);
        self.lock(rel, key, LockMode::Exclusive)?;
        let old = rel.tree.upsert(key, value)?;
        match old {
            Some(old) => {
                self.records.push(LogRecord::Update {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    old_value: old.clone(),
                    new_value: value.to_vec(),
                });
                self.undo.push(UndoOp::Update {
                    rel: rel.id,
                    key: key.to_vec(),
                    old,
                });
            }
            None => {
                self.records.push(LogRecord::Insert {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    value: value.to_vec(),
                });
                self.undo.push(UndoOp::Insert {
                    rel: rel.id,
                    key: key.to_vec(),
                });
            }
        }
        Ok(())
    }

    /// Read a plain row.
    pub fn get_kv(&mut self, rel: &Relation, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        rel.tree.lookup(key)
    }

    /// Delete a plain row; returns whether it existed.
    pub fn delete_kv(&mut self, rel: &Relation, key: &[u8]) -> Result<bool> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Kv);
        self.lock(rel, key, LockMode::Exclusive)?;
        match rel.tree.remove(key)? {
            Some(old) => {
                self.records.push(LogRecord::Delete {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    old_value: old.clone(),
                });
                self.undo.push(UndoOp::Delete {
                    rel: rel.id,
                    key: key.to_vec(),
                    old,
                });
                Ok(true)
            }
            None => Ok(false),
        }
    }

    // ---------------------------------------------------- blob write ----

    /// Store a new BLOB under `key` (§III-C, Figure 2(b)).
    pub fn put_blob(&mut self, rel: &Relation, key: &[u8], data: &[u8]) -> Result<()> {
        let t = self.db.metrics.latencies.timer();
        let r = self.put_blob_inner(rel, key, data);
        self.db.metrics.latencies.put_blob.record_timer(t);
        r
    }

    fn put_blob_inner(&mut self, rel: &Relation, key: &[u8], data: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        if rel.tree.contains(key)? {
            return Err(Error::KeyExists);
        }
        let mut state = BlobState {
            size: data.len() as u64,
            sha256: [0; 32],
            sha_midstate: [0; 32],
            prefix: BlobState::make_prefix(data),
            tail: None,
            extents: Vec::new(),
        };
        let mut hasher = Sha256::new();
        // §III-B: BLOBs no larger than the embedded prefix live entirely
        // inline in the Blob State — no extents, no content flush.
        if data.len() <= PREFIX_LEN {
            hasher.update(data);
        } else {
            // Reserve the smallest extent sequence, write content into
            // buffer frames (pinned + dirty), and hash in the same pass.
            let geo = self.db.geo;
            let pages = geo.pages_for(state.size);
            let plan = plan_sequence(&self.db.table, pages, self.db.cfg.use_tail_extents)?;
            self.allocate_plan(&mut state, &plan)?;
            for p in state
                .pieces(&self.db.table, geo.page_size(), 0, state.size)?
                .iter()
            {
                let chunk = &data[p.blob_off as usize..][..p.len];
                self.db
                    .blob_pool
                    .fill_extent_hashed(p.spec, chunk, &mut |b| hasher.update(b))?;
                self.stage_flush(p.spec, 0, p.len);
            }
        }
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();
        let encoded = state.encode();
        rel.tree.insert(key, &encoded, false)?;
        self.undo.push(UndoOp::Insert {
            rel: rel.id,
            key: key.to_vec(),
        });
        self.records.push(LogRecord::Insert {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            value: encoded,
        });
        self.stage_physlog(rel, key, 0, data);
        Ok(())
    }

    /// Allocate the extents `plan` adds to `state`'s sequence (tier
    /// extents, then the tail) and link them into `state`.
    fn allocate_plan(&mut self, state: &mut BlobState, plan: &SequencePlan) -> Result<()> {
        for i in 0..plan.sizes.len() {
            let spec = self.db.alloc.allocate_tier(plan.first_position + i)?;
            self.allocated.push(spec);
            state.extents.push(spec.start);
        }
        if let Some(tp) = plan.tail_pages {
            let spec = self.db.alloc.allocate_tail(tp)?;
            self.allocated.push(spec);
            state.tail = Some((spec.start, tp));
        }
        Ok(())
    }

    /// Stage the commit-time flush of the pages holding the `len` bytes
    /// written at `ext_off` in `spec` (at least one page).
    fn stage_flush(&mut self, spec: ExtentSpec, ext_off: usize, len: usize) {
        let page = self.db.geo.page_size();
        let first = ext_off / page;
        let last = (ext_off + len).div_ceil(page).max(first + 1);
        self.toflush.push(FlushItem {
            spec,
            dirty_from: first as u64,
            dirty_pages: (last - first) as u64,
        });
    }

    /// In physical-logging mode (`Our.physlog`), additionally append the
    /// full content to the WAL in segments — the conventional "write every
    /// object twice" behaviour (once to the log, once to the database).
    fn stage_physlog(&mut self, rel: &Relation, key: &[u8], base_off: u64, data: &[u8]) {
        let BlobLogging::Physical { segment } = self.db.cfg.blob_logging else {
            return;
        };
        for (i, chunk) in data.chunks(segment.max(1)).enumerate() {
            self.records.push(LogRecord::BlobChunk {
                txn: self.id,
                relation: rel.id,
                key: key.to_vec(),
                byte_offset: base_off + (i * segment) as u64,
                data: chunk.to_vec(),
            });
        }
    }

    // ----------------------------------------------------- blob read ----

    /// Read the whole BLOB as one contiguous slice (zero-copy via the
    /// aliasing area when available).
    pub fn get_blob<R>(
        &mut self,
        rel: &Relation,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let t = self.db.metrics.latencies.timer();
        let r = self.get_blob_inner(rel, key, f);
        self.db.metrics.latencies.get_blob.record_timer(t);
        r
    }

    fn get_blob_inner<R>(
        &mut self,
        rel: &Relation,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        let state = self.require_state(rel, key)?;
        if state.size <= PREFIX_LEN as u64 {
            // Inline (or prefix-covered) content: no extent access at all.
            if self.db.cfg.verify_reads {
                let mut hasher = Sha256::new();
                hasher.update(&state.prefix[..state.size as usize]);
                if hasher.finalize() != state.sha256 {
                    // Inline content lives in the Blob State itself, not in
                    // extents — nothing to re-read or quarantine.
                    self.db
                        .metrics
                        .corruption_detected
                        .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    return Err(Error::Corruption(format!(
                        "inline BLOB hash mismatch in relation '{}'",
                        rel.name
                    )));
                }
            }
            return Ok(f(&state.prefix[..state.size as usize]));
        }
        let specs = state.extent_specs(&self.db.table);
        if !self.db.cfg.verify_reads {
            return self
                .db
                .blob_pool
                .read_blob(self.worker, &specs, state.size, f);
        }
        self.verified_read(rel, key, &state, &specs, f)
    }

    /// `Config::verify_reads` read path: hash the mapped view against the
    /// Blob State SHA-256 and invoke `f` only on a match. A mismatch may be
    /// a device lie that a fresh read clears (cached frame served a
    /// transiently garbled load), so the pool's copies are dropped and the
    /// extents re-read once from the device; a second mismatch is treated
    /// as real rot — the blob is quarantined and corruption surfaces.
    fn verified_read<R>(
        &self,
        rel: &Relation,
        key: &[u8],
        state: &BlobState,
        specs: &[ExtentSpec],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let mut f = Some(f);
        for attempt in 0..2 {
            let out = self
                .db
                .blob_pool
                .read_blob(self.worker, specs, state.size, |view| {
                    let mut hasher = Sha256::new();
                    hasher.update(view);
                    if hasher.finalize() == state.sha256 {
                        Some((f.take().expect("verified read consumes f once"))(view))
                    } else {
                        None
                    }
                })?;
            if let Some(r) = out {
                return Ok(r);
            }
            if attempt == 0 {
                // Drop every cached copy so the retry faults from the device.
                self.db.blob_pool.drop_extents(specs);
            }
        }
        self.db
            .metrics
            .corruption_detected
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.db.quarantine_blob(rel, key, specs);
        Err(Error::Corruption(format!(
            "BLOB hash mismatch in relation '{}' survived a device re-read; blob quarantined",
            rel.name
        )))
    }

    /// Read `buf.len()` bytes starting at `offset`; returns bytes read
    /// (clamped at the BLOB size). This is the FUSE `pread` path
    /// (Listing 1): the copy into `buf` is the application's own buffer
    /// copy. Only the extents intersecting the range are touched — a 4 KB
    /// `pread` into a 1 GB BLOB loads one extent, not the BLOB.
    pub fn get_blob_range(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        let t = self.db.metrics.latencies.timer();
        let r = self.get_blob_range_inner(rel, key, offset, buf);
        self.db.metrics.latencies.get_blob_range.record_timer(t);
        r
    }

    fn get_blob_range_inner(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        let state = self.require_state(rel, key)?;
        self.read_state_range(&state, offset, buf)
    }

    /// Range read against a known Blob State: select the extent run
    /// covering `[offset, offset + buf.len())` and present only that run
    /// contiguously.
    fn read_state_range(&self, state: &BlobState, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if offset >= state.size || buf.is_empty() {
            return Ok(0);
        }
        let n = buf.len().min((state.size - offset) as usize);
        // Header reads (file-type sniffing, magic bytes — §III-B's reason
        // for embedding the prefix) are served straight from the Blob
        // State: zero content I/O, zero latches.
        if offset as usize + n <= PREFIX_LEN {
            buf[..n].copy_from_slice(&state.prefix[offset as usize..offset as usize + n]);
            return Ok(n);
        }
        let pieces = state.pieces(&self.db.table, self.db.geo.page_size(), offset, n as u64)?;
        let local = pieces.run_offset();
        // Sequential-readahead hint: a range read touching one extent run
        // will, under streaming access, touch the extents after it next.
        // Issue the prefetch before the foreground read so the two batches
        // overlap on the device.
        self.prefetch_ahead(&pieces);
        self.db
            .blob_pool
            .read_blob(self.worker, pieces.run(), (local + n) as u64, |view| {
                buf[..n].copy_from_slice(&view[local..local + n])
            })?;
        Ok(n)
    }

    /// Stream `len` bytes starting at `offset` to `sink` in `chunk`-sized
    /// pieces read straight out of the buffer pool (the serving path's
    /// zero-copy range read). Returns the bytes streamed (clamped at the
    /// BLOB size). Every `sink` call gets that clamped total alongside its
    /// chunk, so a caller can frame the response from the first chunk
    /// without a separate Blob State lookup; a missing key is
    /// `Error::KeyNotFound` and an empty range returns `Ok(0)` without
    /// calling `sink`.
    ///
    /// Every extent intersecting the range is held under a *streaming
    /// lease* (`prevent_evict` pin — see `ExtentPool::lease_extent`) for
    /// the duration of the stream, so chunks hit resident frames instead
    /// of re-faulting between socket writes. Each chunk is passed to
    /// `sink` under a brief shared latch (held for one `sink` call, never
    /// across calls); the lease itself is advisory, so a slow client
    /// holds pool *budget*, never a latch. If `gate` is given, the run's
    /// pinned footprint is acquired from it first — `Error::BufferFull`
    /// on timeout means the pin budget is exhausted and the caller should
    /// shed load (BUSY). Leases and gate budget are released when the
    /// stream ends, **including on an early `sink` error** (client
    /// disconnect mid-stream).
    #[allow(clippy::too_many_arguments)]
    pub fn stream_blob_range(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        len: u64,
        chunk: usize,
        gate: Option<(&lobster_buffer::PinGate, std::time::Duration)>,
        sink: &mut dyn FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<u64> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        let state = self.require_state(rel, key)?;
        if offset >= state.size || len == 0 {
            return Ok(0);
        }
        let n = len.min(state.size - offset);
        let chunk = chunk.max(1);
        // Inline-prefix fast path: the whole range lives in the Blob
        // State — one sink call, zero content I/O, zero leases.
        if offset as usize + n as usize <= PREFIX_LEN {
            sink(n, &state.prefix[offset as usize..(offset + n) as usize])?;
            return Ok(n);
        }

        let page = self.db.geo.page_size() as u64;
        let pieces = state.pieces(&self.db.table, page as usize, offset, n)?;

        // Admission: charge the run's pinned footprint against the gate
        // *before* taking any lease, so rejected streams pin nothing.
        let run = pieces.run();
        let lease_bytes: u64 = run.iter().map(|s| s.pages * page).sum();
        if let Some((g, timeout)) = gate {
            g.acquire(lease_bytes, timeout)?;
        }
        // RAII: leases + gate budget release on every exit path below,
        // including sink errors (client disconnect mid-stream).
        struct Leases<'a> {
            pool: &'a lobster_buffer::BlobPool,
            run: &'a [lobster_extent::ExtentSpec],
            taken: usize,
            gate: Option<(&'a lobster_buffer::PinGate, u64)>,
        }
        impl Drop for Leases<'_> {
            fn drop(&mut self) {
                for spec in &self.run[..self.taken] {
                    self.pool.unlease_extent(*spec);
                }
                if let Some((g, bytes)) = self.gate {
                    g.release(bytes);
                }
            }
        }
        let mut leases = Leases {
            pool: &self.db.blob_pool,
            run,
            taken: 0,
            gate: gate.map(|(g, _)| (g, lease_bytes)),
        };
        for spec in run {
            self.db.blob_pool.lease_extent(*spec)?;
            leases.taken += 1;
        }
        // Sequential-streaming readahead, same hint as get_blob_range.
        self.prefetch_ahead(&pieces);

        // Stream piece by piece; chunks never span extents (an extent
        // boundary ends the chunk early).
        for p in pieces.iter() {
            for at in (0..p.len).step_by(chunk) {
                let take = chunk.min(p.len - at);
                self.db
                    .blob_pool
                    .read_chunk(p.spec, p.ext_off + at, take, |b| sink(n, b))??;
            }
        }
        Ok(n)
    }

    /// Prefetch the `readahead_extents` extents after a range's run.
    fn prefetch_ahead(&self, pieces: &Pieces) {
        let ahead = pieces.ahead(self.db.cfg.readahead_extents);
        if !ahead.is_empty() {
            self.db.blob_pool.prefetch(ahead);
        }
    }

    /// Fetch the Blob State (metadata operation; the `fstat` analogue).
    pub fn blob_state(&mut self, rel: &Relation, key: &[u8]) -> Result<Option<BlobState>> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.db.metrics.metadata_ops.fetch_add(1, Ordering::Relaxed);
        rel.tree.lookup_map(key, BlobState::decode)?.transpose()
    }

    fn require_state(&self, rel: &Relation, key: &[u8]) -> Result<BlobState> {
        rel.tree
            .lookup_map(key, BlobState::decode)?
            .transpose()?
            .ok_or(Error::KeyNotFound)
    }

    // --------------------------------------------------- blob delete ----

    /// Delete a BLOB; its extents join the free lists at commit (§III-D).
    pub fn delete_blob(&mut self, rel: &Relation, key: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        let old = rel.tree.remove(key)?.ok_or(Error::KeyNotFound)?;
        let state = BlobState::decode(&old)?;
        self.freed.extend(state.extent_specs(&self.db.table));
        self.undo.push(UndoOp::Delete {
            rel: rel.id,
            key: key.to_vec(),
            old: old.clone(),
        });
        self.records.push(LogRecord::Delete {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value: old,
        });
        Ok(())
    }

    // ---------------------------------------------------- blob grow -----

    /// Append `data` to an existing BLOB (§III-D "Growing a BLOB",
    /// Figure 3). The SHA-256 is *resumed* from the stored midstate; the
    /// existing content is never re-read (except the final partial 64-byte
    /// block and, for tail-extent BLOBs, the cloned tail).
    pub fn append_blob(&mut self, rel: &Relation, key: &[u8], data: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        let old_encoded = rel.tree.lookup(key)?.ok_or(Error::KeyNotFound)?;
        let mut state = BlobState::decode(&old_encoded)?;
        let db = self.db.clone();
        let (geo, table) = (db.geo, &db.table);
        let old_size = state.size;
        let new_size = old_size + data.len() as u64;

        // Resume the hash before touching extents: we need the old final
        // partial block. Extent boundaries are page-aligned, so the ≤63
        // bytes never straddle extents — one small uncached read, never a
        // whole-extent load (§III-D: growth does not re-read content).
        let inline_old = state.is_inline();
        let mut hasher = Sha256::resume(state.midstate());
        let boundary = old_size & !63;
        if old_size > boundary {
            if inline_old {
                // Inline blob: old content sits in the prefix (≤ 32 B, so
                // boundary is 0).
                hasher.update(&state.prefix[boundary as usize..old_size as usize]);
            } else {
                let mut partial = vec![0u8; (old_size - boundary) as usize];
                read_uncached(&self.db, &state, boundary, &mut partial)?;
                hasher.update(&partial);
            }
        }
        hasher.update(data);

        // An inline blob that still fits inline: only the Blob State
        // changes. (A small blob with extents keeps writing them, or its
        // extents would miss these bytes once it grows past the prefix.)
        if inline_old && new_size <= PREFIX_LEN as u64 {
            state.prefix[old_size as usize..new_size as usize].copy_from_slice(data);
            state.size = new_size;
            state.sha_midstate = hasher.midstate().state_bytes();
            state.sha256 = hasher.finalize();
            let encoded = state.encode();
            rel.tree.insert(key, &encoded, true)?;
            self.undo.push(UndoOp::Update {
                rel: rel.id,
                key: key.to_vec(),
                old: old_encoded.clone(),
            });
            self.records.push(LogRecord::Update {
                txn: self.id,
                relation: rel.id,
                key: key.to_vec(),
                old_value: old_encoded,
                new_value: encoded,
            });
            self.stage_physlog(rel, key, old_size, data);
            return Ok(());
        }

        // Growing past the inline bound: materialize the old prefix bytes
        // so the extent-filling path writes the full content.
        let combined: Vec<u8>;
        let (fill_data, fill_old) = if inline_old && old_size > 0 {
            let mut v = state.prefix[..old_size as usize].to_vec();
            v.extend_from_slice(data);
            combined = v;
            (combined.as_slice(), 0u64)
        } else {
            (data, old_size)
        };

        // A tail extent cannot grow: clone it into the tier extent of its
        // position first (§III-D).
        let page = geo.page_size();
        if let Some((tpid, tpages)) = state.tail {
            let pos = state.extents.len();
            let clone_spec = self.db.alloc.allocate_tier(pos)?;
            self.allocated.push(clone_spec);
            let tail_spec = ExtentSpec::new(tpid, tpages);
            let tail_bytes = state
                .pieces(table, page, 0, old_size)?
                .iter()
                .find(|p| p.index == pos)
                .map_or(0, |p| p.len);
            let content =
                self.db
                    .blob_pool
                    .read_blob(self.worker, &[tail_spec], tail_bytes as u64, |b| b.to_vec())?;
            self.db.blob_pool.fill_extent(clone_spec, &content)?;
            self.stage_flush(clone_spec, 0, tail_bytes);
            self.freed.push(tail_spec);
            state.extents.push(clone_spec.start);
            state.tail = None;
        }

        // Allocate the new extents, then write the appended bytes piece by
        // piece: first into the free capacity of the existing last extent,
        // then into the new extents.
        let existing = state.extents.len();
        let plan = plan_growth(
            table,
            existing,
            table.cumulative_pages(existing),
            geo.pages_for(new_size),
            self.db.cfg.use_tail_extents,
        )?;
        self.allocate_plan(&mut state, &plan)?;
        state.size = new_size;
        let pieces = state.pieces(table, page, fill_old, fill_data.len() as u64)?;
        for p in pieces.iter() {
            let chunk = &fill_data[(p.blob_off - fill_old) as usize..][..p.len];
            if p.index < existing {
                // Only the pages holding prior content need loading; the
                // rest of the extent is free capacity about to be
                // overwritten.
                let valid_pages = p.ext_off.div_ceil(page) as u64;
                self.db
                    .blob_pool
                    .write_range_partial(p.spec, p.ext_off, chunk, valid_pages)?;
            } else {
                self.db.blob_pool.fill_extent(p.spec, chunk)?;
            }
            self.stage_flush(p.spec, p.ext_off, p.len);
        }

        // Refresh the metadata.
        if old_size < PREFIX_LEN as u64 {
            let need = (PREFIX_LEN as u64 - old_size) as usize;
            let n = need.min(data.len());
            state.prefix[old_size as usize..old_size as usize + n].copy_from_slice(&data[..n]);
        }
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();

        let encoded = state.encode();
        rel.tree.insert(key, &encoded, true)?;
        self.undo.push(UndoOp::Update {
            rel: rel.id,
            key: key.to_vec(),
            old: old_encoded.clone(),
        });
        self.records.push(LogRecord::Update {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value: old_encoded,
            new_value: encoded,
        });
        self.stage_physlog(rel, key, old_size, data);
        Ok(())
    }

    /// Shrink an existing BLOB to `new_size` bytes (the inverse of
    /// [`Txn::append_blob`]). The surviving content stays in place: the
    /// minimal prefix of the tier-extent sequence that still covers
    /// `new_size` is kept and every extent beyond it joins the free lists at
    /// commit. Only the metadata is rewritten — except the SHA-256, which
    /// cannot be "un-resumed" and is recomputed over the surviving bytes.
    pub fn truncate_blob(&mut self, rel: &Relation, key: &[u8], new_size: u64) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        let old_encoded = rel.tree.lookup(key)?.ok_or(Error::KeyNotFound)?;
        let mut state = BlobState::decode(&old_encoded)?;
        if new_size > state.size {
            return Err(Error::InvalidArgument(
                "truncate_blob cannot grow; use append_blob".into(),
            ));
        }
        if new_size == state.size {
            return Ok(());
        }

        let table = &self.db.table;

        // Hash the surviving prefix first, while the old extent sequence is
        // still intact.
        let mut content = vec![0u8; new_size as usize];
        self.read_state_range(&state, 0, &mut content)?;
        let mut hasher = Sha256::new();
        hasher.update(&content);

        // Keep the minimal prefix of extents covering `new_size`.
        let keep = if state.is_inline() {
            0
        } else {
            let pieces = state.pieces(table, self.db.geo.page_size(), 0, new_size)?;
            pieces.run().len()
        };
        if keep <= state.extents.len() {
            // The tail (if any) is now entirely beyond the size: free it.
            if let Some((tpid, tpages)) = state.tail.take() {
                self.freed.push(ExtentSpec::new(tpid, tpages));
            }
            for (pos, &pid) in state.extents.iter().enumerate().skip(keep) {
                self.freed.push(ExtentSpec::new(pid, table.size_of(pos)));
            }
            state.extents.truncate(keep);
        }
        // else: the new size still reaches into the tail extent — every
        // extent survives; the tail keeps its (now oversized) page count.

        state.size = new_size;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();
        state.prefix = BlobState::make_prefix(&content);

        let encoded = state.encode();
        rel.tree.insert(key, &encoded, true)?;
        self.undo.push(UndoOp::Update {
            rel: rel.id,
            key: key.to_vec(),
            old: old_encoded.clone(),
        });
        self.records.push(LogRecord::Update {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value: old_encoded,
            new_value: encoded,
        });
        Ok(())
    }

    // -------------------------------------------------- blob update -----

    /// Overwrite `data` at `offset` within an existing BLOB (no size
    /// change). Each touched extent independently uses delta logging or
    /// extent cloning per the configured [`UpdatePolicy`] (§III-D).
    pub fn update_blob(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        let old_encoded = rel.tree.lookup(key)?.ok_or(Error::KeyNotFound)?;
        let mut state = BlobState::decode(&old_encoded)?;
        if offset + data.len() as u64 > state.size {
            return Err(Error::InvalidArgument(
                "update range exceeds blob size (use append_blob to grow)".into(),
            ));
        }
        let page = self.db.geo.page_size();

        // Inline blob: the content IS the Blob State's prefix — patch it,
        // rehash, rewrite the record. One WAL record, zero content I/O.
        if state.is_inline() {
            let mut content = state.prefix[..state.size as usize].to_vec();
            content[offset as usize..offset as usize + data.len()].copy_from_slice(data);
            let mut hasher = Sha256::new();
            hasher.update(&content);
            state.sha_midstate = hasher.midstate().state_bytes();
            state.sha256 = hasher.finalize();
            state.prefix = BlobState::make_prefix(&content);
            let encoded = state.encode();
            rel.tree.insert(key, &encoded, true)?;
            self.undo.push(UndoOp::Update {
                rel: rel.id,
                key: key.to_vec(),
                old: old_encoded.clone(),
            });
            self.records.push(LogRecord::Update {
                txn: self.id,
                relation: rel.id,
                key: key.to_vec(),
                old_value: old_encoded,
                new_value: encoded,
            });
            self.stage_physlog(rel, key, offset, data);
            return Ok(());
        }

        // Each piece of [offset, offset+len) lives in one extent.
        let pieces = state.pieces(&self.db.table, page, offset, data.len() as u64)?;
        // Modeled costs: delta writes the new bytes twice (WAL + extent);
        // cloning writes the old extent content once more.
        let policy = self.db.cfg.update_policy;
        let use_delta = |p: &Piece| match policy {
            UpdatePolicy::AlwaysDelta => true,
            UpdatePolicy::AlwaysClone => false,
            UpdatePolicy::Auto => 2 * p.len as u64 <= p.spec.pages * page as u64,
        };
        // Reading the `before` images is a range read: same readahead hint.
        if pieces.iter().any(|p| use_delta(&p)) {
            self.prefetch_ahead(&pieces);
        }
        for p in pieces.iter() {
            let spec = p.spec;
            let ext_bytes = spec.pages * page as u64;
            let slice = &data[(p.blob_off - offset) as usize..][..p.len];
            if use_delta(&p) {
                let before = self.db.blob_pool.read_blob(
                    self.worker,
                    &[spec],
                    (p.ext_off + p.len) as u64,
                    |b| b[p.ext_off..].to_vec(),
                )?;
                self.records.push(LogRecord::BlobDelta {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    byte_offset: p.blob_off,
                    before: before.clone(),
                    after: slice.to_vec(),
                });
                self.undo.push(UndoOp::BlobBytes {
                    spec,
                    byte_off_in_extent: p.ext_off,
                    before,
                });
                self.db
                    .blob_pool
                    .write_range(spec, p.ext_off, slice, true)?;
                self.stage_flush(spec, p.ext_off, p.len);
            } else {
                // Clone: copy the extent, patch it, swap the pointer.
                let is_tail = p.index == state.extents.len();
                let clone_spec = if is_tail {
                    self.db.alloc.allocate_tail(spec.pages)?
                } else {
                    self.db.alloc.allocate_tier(p.index)?
                };
                self.allocated.push(clone_spec);
                let ext_base = p.blob_off - p.ext_off as u64;
                let live = (state.size - ext_base).min(ext_bytes) as usize;
                let mut content =
                    self.db
                        .blob_pool
                        .read_blob(self.worker, &[spec], live as u64, |b| b.to_vec())?;
                content[p.ext_off..p.ext_off + p.len].copy_from_slice(slice);
                self.db.blob_pool.fill_extent(clone_spec, &content)?;
                self.stage_flush(clone_spec, 0, live);
                self.freed.push(spec);
                if is_tail {
                    state.tail = Some((clone_spec.start, clone_spec.pages));
                } else {
                    state.extents[p.index] = clone_spec.start;
                }
            }
        }

        // Content changed: recompute the hash over the full object (growth
        // is the only op with a cheap incremental path, §III-D).
        let specs = state.extent_specs(&self.db.table);
        let mut hasher = Sha256::new();
        self.db
            .blob_pool
            .for_each_extent::<()>(&specs, state.size, |chunk| {
                hasher.update(chunk);
                None
            })?;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();
        if offset < PREFIX_LEN as u64 {
            let n = ((PREFIX_LEN as u64 - offset) as usize).min(data.len());
            state.prefix[offset as usize..offset as usize + n].copy_from_slice(&data[..n]);
        }

        let encoded = state.encode();
        rel.tree.insert(key, &encoded, true)?;
        self.undo.push(UndoOp::Update {
            rel: rel.id,
            key: key.to_vec(),
            old: old_encoded.clone(),
        });
        self.records.push(LogRecord::Update {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value: old_encoded,
            new_value: encoded,
        });
        Ok(())
    }

    // ---------------------------------------------- blob relocation -----

    /// Move a BLOB's content to a freshly allocated placement without
    /// changing a single byte of it — the defragmenter's core primitive.
    ///
    /// Protocol (crash-safe at every instant, see DESIGN.md §5g):
    ///  1. exclusive key lock — waits out every in-flight reader, so no
    ///     `get_blob`/`stream_blob_range` can span the swap;
    ///  2. allocate the new tier sequence and copy the old placement into
    ///     it through non-evicting reads, re-hashing in the same pass (the
    ///     piggybacked scrub);
    ///  3. quarantine-fence the old extents, swap the Blob State in the
    ///     tree, and stage a [`LogRecord::BlobRelocate`];
    ///  4. commit rides the ordinary group-commit pipeline; the fences are
    ///     released and the old extents freed only at the durability
    ///     frontier (`StageCtx::retire`).
    ///
    /// Returns `false` when there is nothing to move (missing key, inline
    /// blob, or quarantined blob). A hash mismatch during the copy
    /// quarantines the blob (degradation ladder) and fails the
    /// transaction; the caller must abort, which discards the new
    /// placement and lifts nothing that matters — the old placement was
    /// never unpublished.
    pub fn relocate_blob(&mut self, rel: &Relation, key: &[u8]) -> Result<bool> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        let Some(old_encoded) = rel.tree.lookup(key)? else {
            return Ok(false);
        };
        let state = BlobState::decode(&old_encoded)?;
        if state.is_inline() {
            return Ok(false); // inline: no placement to improve
        }
        if self.db.is_blob_quarantined(&rel.name, key) {
            return Ok(false); // evidence stays put; never move a suspect
        }
        let old_specs = state.extent_specs(&self.db.table);
        let db = self.db.clone();

        // Same size ⇒ same tier-sequence shape for the new placement.
        let pages = db.geo.pages_for(state.size);
        let plan = plan_sequence(&db.table, pages, state.tail.is_some())?;
        let mut new_state = BlobState {
            tail: None,
            extents: Vec::with_capacity(plan.sizes.len()),
            ..state.clone()
        };
        self.allocate_plan(&mut new_state, &plan)?;

        // Copy old → new through the defrag source guard: resident source
        // extents are leased (stable frame reads), cold ones are read
        // uncached from the device — the copy never faults data into the
        // pool or evicts anything hot. Hashing rides the same pass.
        let src = crate::defrag::SourceGuard::new(&db.blob_pool, &old_specs);
        let mut hasher = Sha256::new();
        for p in new_state
            .pieces(&db.table, db.geo.page_size(), 0, state.size)?
            .iter()
        {
            let mut buf = vec![0u8; p.len];
            read_uncached(&db, &state, p.blob_off, &mut buf)?;
            db.blob_pool
                .fill_extent_hashed(p.spec, &buf, &mut |b| hasher.update(b))?;
            self.stage_flush(p.spec, 0, p.len);
        }
        drop(src);

        // Piggybacked scrub: the copy re-hashed every byte of the old
        // placement. A mismatch means the *source* is rotten — feed the
        // verify-on-read degradation ladder and fail the relocation (the
        // caller's abort discards the new placement; the old one was
        // never unpublished, so the evidence is intact under its fence).
        let sha_midstate = hasher.midstate().state_bytes();
        let digest = hasher.finalize();
        // ordering: relaxed metrics counters; snapshot readers tolerate staleness
        self.db.metrics.scrub_blobs.fetch_add(1, Ordering::Relaxed);
        self.db
            .metrics
            .scrub_bytes
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            .fetch_add(state.size, Ordering::Relaxed);
        if digest != state.sha256 {
            self.db
                .metrics
                .scrub_failures
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                .fetch_add(1, Ordering::Relaxed);
            self.db.quarantine_blob(rel, key, &old_specs);
            return Err(Error::Corruption(format!(
                "relocation scrub: blob {:?} content does not match its Blob State SHA-256",
                String::from_utf8_lossy(key)
            )));
        }

        new_state.sha256 = digest;
        new_state.sha_midstate = sha_midstate;
        let encoded = new_state.encode();

        // Fence the old placement *before* publishing the swap: once the
        // tree points at the new placement no new reader resolves the old
        // extents, and the fence keeps the allocator from re-issuing them
        // while the swap's durability is still unknown. The guard lifts
        // the fences again if staging fails below.
        let fence = crate::defrag::FenceGuard::new(&self.db.alloc, old_specs);
        rel.tree.insert(key, &encoded, true)?;
        self.undo.push(UndoOp::Update {
            rel: rel.id,
            key: key.to_vec(),
            old: old_encoded.clone(),
        });
        self.records.push(LogRecord::BlobRelocate {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value: old_encoded,
            new_value: encoded,
        });
        self.refenced.extend(fence.disarm());
        // ordering: relaxed metrics counters; snapshot readers tolerate staleness
        self.db
            .metrics
            .defrag_relocations
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            .fetch_add(1, Ordering::Relaxed);
        self.db
            .metrics
            .defrag_bytes_moved
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            .fetch_add(state.size, Ordering::Relaxed);
        Ok(true)
    }

    /// Re-hash `key`'s content against its Blob State SHA-256 under a
    /// shared lock — the background scrubber's unit of work. Reads are
    /// non-evicting (same contract as relocation copies). Returns
    /// `Ok(None)` when there is nothing to check (missing key or already
    /// quarantined); `Ok(Some(false))` quarantines the blob.
    pub fn scrub_blob(&mut self, rel: &Relation, key: &[u8]) -> Result<Option<bool>> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Shared)?;
        let Some(state) = rel.tree.lookup_map(key, BlobState::decode)?.transpose()? else {
            return Ok(None);
        };
        if self.db.is_blob_quarantined(&rel.name, key) {
            return Ok(None);
        }
        let mut hasher = Sha256::new();
        if state.is_inline() {
            hasher.update(&state.prefix[..state.size as usize]);
        } else {
            let src = crate::defrag::SourceGuard::new(
                &self.db.blob_pool,
                &state.extent_specs(&self.db.table),
            );
            let mut buf = vec![0u8; (256 << 10).min(state.size as usize)];
            let mut off = 0u64;
            while off < state.size {
                let take = ((state.size - off) as usize).min(buf.len());
                read_uncached(&self.db, &state, off, &mut buf[..take])?;
                hasher.update(&buf[..take]);
                off += take as u64;
            }
            drop(src);
        }
        let ok = hasher.finalize() == state.sha256;
        // ordering: relaxed metrics counters; snapshot readers tolerate staleness
        self.db.metrics.scrub_blobs.fetch_add(1, Ordering::Relaxed);
        self.db
            .metrics
            .scrub_bytes
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            .fetch_add(state.size, Ordering::Relaxed);
        if !ok {
            self.db
                .metrics
                .scrub_failures
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                .fetch_add(1, Ordering::Relaxed);
            self.db
                .quarantine_blob(rel, key, &state.extent_specs(&self.db.table));
        }
        Ok(Some(ok))
    }

    // --------------------------------------------------------- scans ----

    /// Visit Blob States in key order starting at `from` (used by the
    /// metadata experiment, Figure 7).
    pub fn scan_states(
        &mut self,
        rel: &Relation,
        from: &[u8],
        mut f: impl FnMut(&[u8], &BlobState) -> bool,
    ) -> Result<()> {
        self.check_active()?;
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.db.metrics.metadata_ops.fetch_add(1, Ordering::Relaxed);
        rel.tree.scan_from(from, |k, v| match BlobState::decode(v) {
            Ok(state) => f(k, &state),
            Err(_) => false,
        })
    }

    // -------------------------------------------------- commit/abort ----

    /// Commit: WAL fsync first (Blob State durable), then the single
    /// content flush, then extent recycling.
    ///
    /// With [`crate::Config::commit_wait`] `false`, the durability work is
    /// handed to the background group committer and this returns
    /// immediately (§V-A's group-commit configuration).
    pub fn commit(self) -> Result<()> {
        let m = self.db.metrics.clone();
        let t = m.latencies.timer();
        let r = self.commit_inner();
        m.latencies.commit.record_timer(t);
        r
    }

    fn commit_inner(mut self) -> Result<()> {
        self.check_active()?;
        let db = self.db.clone();
        db.metrics
            .extent_allocs
            .fetch_add(self.allocated.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        if !self.records.is_empty() {
            self.records.push(LogRecord::TxnCommit { txn: self.id });
        }
        if self.has_writes() {
            // Both commit modes ride the same two-stage pipeline (sharing
            // its group fsync and in-flight extent flushes); they differ
            // only in whether this thread blocks on the batch's durability
            // epoch before acknowledging.
            let epoch = db.committer.submit(crate::group_commit::CommitBatch {
                records: std::mem::take(&mut self.records),
                toflush: std::mem::take(&mut self.toflush),
                freed: std::mem::take(&mut self.freed),
                refenced: std::mem::take(&mut self.refenced),
            })?;
            if db.cfg.commit_wait {
                db.committer.wait_for(epoch)?;
            }
        }
        db.locks.release(self.id, self.locked);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        db.metrics.txn_commits.fetch_add(1, Ordering::Relaxed);
        self.state = TxnState::Committed;
        db.maybe_checkpoint()?;
        Ok(())
    }

    /// Whether this transaction staged anything that needs the commit
    /// pipeline (log records, extent flushes, or recycling). Read-only
    /// participants of a cross-shard transaction commit locally and are
    /// excluded from the participant mask.
    pub(crate) fn has_writes(&self) -> bool {
        !self.records.is_empty()
            || !self.toflush.is_empty()
            || !self.freed.is_empty()
            || !self.refenced.is_empty()
    }

    /// Commit this transaction as one shard's slice of a cross-shard
    /// global transaction `gtxn`: a [`LogRecord::TxnCrossCommit`] marker
    /// (never a local `TxnCommit`) is appended and the batch is handed to
    /// this shard's group committer. Returns the shard's durability epoch
    /// *without waiting on it* — the sharded layer collects every
    /// participant's epoch and the global transaction is durable iff every
    /// shard's stage-1 WAL fsync covers its epoch.
    ///
    /// Locks are released at submission, exactly like the asynchronous
    /// local commit path; recovery's all-or-nothing decision rests on the
    /// marker set, not on runtime lock state.
    pub(crate) fn commit_cross(mut self, gtxn: u64, shard: u32, mask: u64) -> Result<u64> {
        self.check_active()?;
        let db = self.db.clone();
        db.metrics
            .extent_allocs
            .fetch_add(self.allocated.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                                                                        // The marker rides even when only flushes/frees are staged: every
                                                                        // participant named in `mask` must be able to produce it on
                                                                        // recovery, or the global transaction is decided aborted.
        self.records.push(LogRecord::TxnCrossCommit {
            txn: self.id,
            gtxn,
            shard,
            mask,
        });
        let epoch = db.committer.submit(crate::group_commit::CommitBatch {
            records: std::mem::take(&mut self.records),
            toflush: std::mem::take(&mut self.toflush),
            freed: std::mem::take(&mut self.freed),
            refenced: std::mem::take(&mut self.refenced),
        })?;
        db.locks.release(self.id, self.locked);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        db.metrics.txn_commits.fetch_add(1, Ordering::Relaxed);
        self.state = TxnState::Committed;
        Ok(epoch)
    }

    /// Roll back every change of this transaction.
    pub fn abort(mut self) {
        self.rollback();
    }

    fn rollback(&mut self) {
        if self.state != TxnState::Active {
            return;
        }
        self.state = TxnState::Aborted;
        let db = self.db.clone();
        // Reverse logical undo.
        for op in self.undo.drain(..).rev() {
            let result = match op {
                UndoOp::Insert { rel, key } => db
                    .relation_by_id(rel)
                    .map(|r| r.tree.remove(&key).map(drop))
                    .unwrap_or(Ok(())),
                UndoOp::Update { rel, key, old } | UndoOp::Delete { rel, key, old } => db
                    .relation_by_id(rel)
                    .map(|r| r.tree.insert(&key, &old, true).map(drop))
                    .unwrap_or(Ok(())),
                UndoOp::BlobBytes {
                    spec,
                    byte_off_in_extent,
                    before,
                } => db
                    .blob_pool
                    .write_range(spec, byte_off_in_extent, &before, true),
            };
            debug_assert!(result.is_ok(), "undo must not fail");
        }
        // Fresh allocations are discarded without ever reaching the device.
        db.blob_pool.drop_extents(&self.allocated);
        for spec in self.allocated.drain(..) {
            db.alloc.free_extent(spec);
        }
        // Freed extents were only staged; nothing to do.
        self.freed.clear();
        // Relocation fences are lifted *without* freeing: after undo the
        // old placement is the live one again.
        for spec in self.refenced.drain(..) {
            db.alloc.release_quarantine(spec);
        }
        if !self.records.is_empty() {
            // A durable abort record is unnecessary for correctness (no
            // earlier record of this txn was flushed), but harmless and
            // useful for log analytics.
            let _ = db.wal.append_batch(&[LogRecord::TxnAbort { txn: self.id }]);
        }
        db.locks.release(self.id, self.locked);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        db.metrics.txn_aborts.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.rollback();
    }
}

/// Read blob bytes `[off, off + buf.len())` of `state`'s placement
/// through non-evicting uncached reads (the growth path's partial block,
/// relocation copies and scrub).
fn read_uncached(db: &Database, state: &BlobState, off: u64, buf: &mut [u8]) -> Result<()> {
    let pieces = state.pieces(&db.table, db.geo.page_size(), off, buf.len() as u64)?;
    for p in pieces.iter() {
        let at = (p.blob_off - off) as usize;
        db.blob_pool
            .read_range_uncached(p.spec, p.ext_off, &mut buf[at..at + p.len])?;
    }
    Ok(())
}

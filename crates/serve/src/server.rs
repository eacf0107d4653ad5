//! The `lobster-serve` TCP front end.
//!
//! # Architecture
//!
//! One acceptor thread polls a non-blocking listener; each accepted
//! connection gets a session thread (connections are long-lived and
//! mostly parked in blocking reads, so thread-per-connection is the
//! right shape for a storage server without an async runtime). Engine
//! work is multiplexed over the engine's *worker-id slots*: a session
//! leases a slot per request from [`WorkerSlots`], which prefers a slot
//! whose home shard matches the request key's shard (the
//! `begin_with_worker` affinity contract), and returns it when the
//! request completes. This upholds the engine rule that each worker id
//! is used by one thread at a time while letting many more connections
//! than workers stay open.
//!
//! # Backpressure
//!
//! Three gates shed load instead of queueing it:
//!
//! 1. **Connection cap** ([`ServeConfig::max_conns`]): excess accepts get
//!    a `BUSY` frame and are closed.
//! 2. **Worker slots**: a request that cannot lease a worker id within
//!    [`ServeConfig::slot_timeout`] gets `BUSY`.
//! 3. **Pin gate** ([`PinGate`]): a streamed range read charges its
//!    pinned extent footprint against the lease budget before pinning;
//!    timeout → `BUSY`. A slow client therefore holds *budget* (bounded
//!    by its own streams) — never a latch, and never the whole pool — so
//!    eviction keeps running no matter how slowly clients drain.
//!
//! Socket writes carry [`ServeConfig::write_timeout`]; a dead client
//! fails its stream, which releases its leases, gate budget, and worker
//! slot on the error path (RAII in `Txn::stream_blob_range`).

use crate::protocol::{
    parse_request, response_header, write_response_header, Parsed, Request, Status,
    DEFAULT_MAX_FRAME,
};
use lobster_buffer::PinGate;
use lobster_core::{ShardedDatabase, ShardedRelation};
use lobster_metrics::Metrics;
use lobster_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use lobster_sync::{Arc, Condvar, Mutex};
use lobster_types::{Error, Result};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Server tuning knobs. `Default` is sized for the smoke/bench scale.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    pub addr: String,
    /// Admission cap: connections over this get `BUSY` and are closed.
    pub max_conns: usize,
    /// Maximum request frame body (opcode + payload).
    pub max_frame: u32,
    /// Streaming chunk size for get/get_range responses.
    pub chunk_bytes: usize,
    /// Pin-lease budget for concurrent streams (bytes). Defaults to a
    /// quarter of the pool, mirroring the committer's pin-budget rule.
    pub gate_budget: u64,
    /// How long a stream may wait for pin budget before `BUSY`.
    pub gate_timeout: Duration,
    /// How long a request may wait for a worker slot before `BUSY`.
    pub slot_timeout: Duration,
    /// Socket write timeout; a stalled client fails its stream.
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 256,
            max_frame: DEFAULT_MAX_FRAME,
            chunk_bytes: 256 << 10,
            gate_budget: 64 << 20,
            gate_timeout: Duration::from_millis(200),
            slot_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Lease pool for engine worker ids, bucketed by home shard so requests
/// prefer a worker whose `begin_with_worker` home matches their key's
/// shard (shard-affine routing). Guarantees each worker id is held by at
/// most one session at a time — the engine's worker contract.
pub struct WorkerSlots {
    by_shard: Mutex<Vec<Vec<usize>>>,
    cv: Condvar,
}

impl WorkerSlots {
    /// Create slots for worker ids `0..workers` over `num_shards` shards.
    pub fn new(workers: usize, num_shards: usize) -> WorkerSlots {
        let shards = num_shards.max(1);
        let mut by_shard = vec![Vec::new(); shards];
        for w in 0..workers.max(1) {
            if let Some(bucket) = by_shard.get_mut(w % shards) {
                bucket.push(w);
            }
        }
        WorkerSlots {
            by_shard: Mutex::new(by_shard),
            cv: Condvar::new(),
        }
    }

    /// Lease a worker id, preferring `shard`'s home bucket, falling back
    /// to any free slot (work-stealing), waiting up to `timeout`.
    pub fn acquire(&self, shard: usize, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let mut slots = self.by_shard.lock();
        loop {
            let n = slots.len();
            if let Some(w) = slots.get_mut(shard % n).and_then(Vec::pop) {
                return Some(w);
            }
            if let Some(w) = slots.iter_mut().find_map(Vec::pop) {
                return Some(w);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if self.cv.wait_for(&mut slots, deadline - now).timed_out() {
                // One post-timeout retry in case a release raced the wake,
                // scanning from the home bucket around the ring.
                let k = shard % slots.len();
                let (head, tail) = slots.split_at_mut(k);
                return tail.iter_mut().chain(head.iter_mut()).find_map(Vec::pop);
            }
        }
    }

    /// Return a leased worker id.
    pub fn release(&self, w: usize) {
        let mut slots = self.by_shard.lock();
        let n = slots.len();
        if let Some(bucket) = slots.get_mut(w % n) {
            bucket.push(w);
        }
        drop(slots);
        self.cv.notify_one();
    }
}

struct SlotGuard<'a> {
    slots: &'a WorkerSlots,
    w: usize,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.slots.release(self.w);
    }
}

/// Shared server state.
struct Shared {
    sdb: Arc<ShardedDatabase>,
    rel: ShardedRelation,
    cfg: ServeConfig,
    slots: WorkerSlots,
    gate: PinGate,
    shutdown: Arc<AtomicBool>,
    active: AtomicUsize,
    /// Serve counters land on shard 0's live metrics so the merged
    /// `ShardedDatabase::metrics()` view includes them.
    metrics: Metrics,
}

/// Running server. Obtain via [`Server::start`]; stop via
/// [`ServerHandle::shutdown`].
pub struct Server;

/// Handle to a running server: its bound address, the shutdown flag (for
/// signal handlers), and the graceful-drain teardown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `cfg.addr` and start serving `rel` from `sdb`.
    pub fn start(
        sdb: Arc<ShardedDatabase>,
        rel: ShardedRelation,
        cfg: ServeConfig,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr).map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let addr = listener.local_addr().map_err(Error::Io)?;

        let workers = sdb.config().workers;
        let shared = Arc::new(Shared {
            slots: WorkerSlots::new(workers, sdb.num_shards()),
            gate: PinGate::new(cfg.gate_budget),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: AtomicUsize::new(0),
            // lint-allow(no-panic-in-request-path): server construction, not the request path; a sharded DB always has >= 1 shard
            metrics: Arc::clone(sdb.shards()[0].metrics()),
            sdb,
            rel,
            cfg,
        });
        let sessions = Arc::new(Mutex::new(Vec::new()));

        let acc_shared = Arc::clone(&shared);
        let acc_sessions = Arc::clone(&sessions);
        let acceptor = std::thread::Builder::new()
            .name("lobster-serve-accept".into())
            .spawn(move || accept_loop(listener, acc_shared, acc_sessions))
            .map_err(Error::Io)?;

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            sessions,
        })
    }
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown flag; a signal handler may set it to trigger the same
    /// drain as [`ServerHandle::shutdown`].
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        // ordering: Relaxed; diagnostic gauge over a soft cap
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Pin-gate bytes currently held by in-flight streams (0 when idle —
    /// the lease-lifecycle tests assert disconnects return their budget).
    pub fn pin_gate_in_use(&self) -> u64 {
        self.shared.gate.in_use()
    }

    /// Graceful shutdown: stop accepting, let every session finish its
    /// in-flight request and close, then drain the group committers
    /// (surfacing any sticky `commit_errors`) and quiesce the engine.
    pub fn shutdown(mut self) -> Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.sessions.lock());
        for h in handles {
            let _ = h.join();
        }
        self.shared.sdb.wait_for_durability()?;
        self.shared.sdb.shutdown()
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // ordering: Relaxed; soft admission cap, a stale count only mis-admits by a connection
                if shared.active.load(Ordering::Relaxed) >= shared.cfg.max_conns {
                    // Admission control: reject at the door.
                    // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
                    let mut s = stream;
                    let _ = s.set_nonblocking(false);
                    let _ = write_response_header(&mut s, Status::Busy, 0);
                    continue;
                }
                // ordering: Relaxed; soft admission count, a stale read only mis-admits by a connection
                shared.active.fetch_add(1, Ordering::Relaxed);
                let sess_shared = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name("lobster-serve-conn".into())
                    .spawn(move || {
                        session(stream, &sess_shared);
                        // ordering: Relaxed; soft admission count, a stale read only mis-admits by a connection
                        sess_shared.active.fetch_sub(1, Ordering::Relaxed);
                    });
                match h {
                    Ok(h) => sessions.lock().push(h),
                    Err(_) => {
                        shared.active.fetch_sub(1, Ordering::Relaxed); // ordering: Relaxed; soft admission count, a stale read only mis-admits by a connection
                        shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// A session's receive buffer. Socket reads land straight in `buf`, and
/// `buf[head..tail]` holds the bytes received but not yet consumed. A
/// request frame is parsed where it lies and consumed by advancing
/// `head`, so a request costs no copy and no allocation unless its frame
/// outgrows the buffer.
struct RecvBuf {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl RecvBuf {
    /// Steady-state size: a 4 KiB PUT or a run of pipelined GETs fits.
    const BASE: usize = 16 << 10;

    fn new() -> RecvBuf {
        RecvBuf {
            buf: vec![0; Self::BASE],
            head: 0,
            tail: 0,
        }
    }

    fn pending(&self) -> &[u8] {
        self.buf.get(self.head..self.tail).unwrap_or_default()
    }

    /// Body of the `total`-byte frame (length prefix included) at the head.
    fn body(&self, total: usize) -> &[u8] {
        self.pending().get(4..total).unwrap_or_default()
    }

    /// Consume the `total`-byte frame at the head. An emptied buffer
    /// rewinds, and one grown for a large frame shrinks back to `BASE`.
    fn consume(&mut self, total: usize) {
        self.head = (self.head + total).min(self.tail);
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
            if self.buf.len() > Self::BASE {
                self.buf.truncate(Self::BASE);
                self.buf.shrink_to_fit();
            }
        }
    }

    /// One read from `r` into the free space. A full buffer first moves
    /// its pending bytes to the front or, if they already start there,
    /// grows: doubling, but never past the `need` bytes the frame at the
    /// head occupies, so memory follows the bytes that arrive.
    fn read_from(&mut self, r: &mut impl Read, need: usize) -> std::io::Result<usize> {
        if self.tail == self.buf.len() {
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            } else {
                let len = self.buf.len();
                self.buf.resize(need.clamp(len + 1, 2 * len), 0);
            }
        }
        let n = r.read(self.buf.get_mut(self.tail..).unwrap_or_default())?;
        self.tail = (self.tail + n).min(self.buf.len());
        Ok(n)
    }
}

/// Result of waiting for one complete request frame.
enum FrameRead {
    /// A complete frame of this many bytes (length prefix included) sits
    /// at the head of the session's [`RecvBuf`].
    Frame(usize),
    /// Length prefix exceeds `max_frame`; the stream cannot be re-synced.
    TooLarge,
    /// Peer closed between frames.
    CleanEof,
    /// Peer closed mid-frame or errored.
    DirtyEof,
    /// Server is draining and no frame is pending.
    Shutdown,
}

/// Read until `recv` holds one complete frame at its head and return its
/// length. Reads tick on a short timeout so the session notices the
/// shutdown flag while idle.
fn next_frame(stream: &mut TcpStream, recv: &mut RecvBuf, shared: &Shared) -> FrameRead {
    loop {
        let mut need = 4;
        if let Some(len_bytes) = recv.pending().first_chunk::<4>() {
            let len = u32::from_le_bytes(*len_bytes);
            if len > shared.cfg.max_frame {
                return FrameRead::TooLarge;
            }
            need = 4 + len as usize;
            if recv.pending().len() >= need {
                return FrameRead::Frame(need);
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain policy: fully received requests are in-flight and get
            // served (handled above); partial frames are not.
            return FrameRead::Shutdown;
        }
        match recv.read_from(stream, need) {
            Ok(0) => {
                return if recv.pending().is_empty() {
                    FrameRead::CleanEof
                } else {
                    FrameRead::DirtyEof
                };
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // timeout tick: re-check shutdown
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return FrameRead::DirtyEof,
        }
    }
}

fn session(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut recv = RecvBuf::new();
    loop {
        match next_frame(&mut stream, &mut recv, shared) {
            FrameRead::Frame(total) => {
                let keep = handle_request(&mut stream, recv.body(total), shared);
                recv.consume(total);
                if !keep {
                    return;
                }
            }
            FrameRead::TooLarge => {
                let _ = write_response_header(&mut stream, Status::TooLarge, 0);
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FrameRead::CleanEof => return,
            FrameRead::DirtyEof => {
                shared
                    .metrics
                    .serve_disconnects
                    .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                return;
            }
            FrameRead::Shutdown => {
                let _ = write_response_header(&mut stream, Status::ShuttingDown, 0);
                return;
            }
        }
    }
}

/// Serve one request; returns `false` when the connection must close
/// (mid-stream failure leaves the response body short — the only safe
/// continuation is a disconnect the client can detect).
fn handle_request(stream: &mut TcpStream, body: &[u8], shared: &Shared) -> bool {
    shared
        .metrics
        .serve_requests
        .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
    let req = match parse_request(body) {
        Parsed::Req(r) => r,
        Parsed::UnknownOpcode => {
            return write_response_header(stream, Status::UnknownOpcode, 0).is_ok();
        }
        Parsed::Bad => {
            return write_response_header(stream, Status::BadFrame, 0).is_ok();
        }
    };

    // Everything else runs engine work: lease a worker slot, preferring
    // the key's home shard.
    let key: &[u8] = match &req {
        Request::Put { key, .. }
        | Request::Get { key }
        | Request::GetRange { key, .. }
        | Request::Stat { key } => key,
        // No engine work: answered without leasing a worker slot.
        Request::Ping => return write_response_header(stream, Status::Ok, 0).is_ok(),
    };
    let shard = shared.sdb.shard_for_key(key);
    let Some(w) = shared.slots.acquire(shard, shared.cfg.slot_timeout) else {
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
        return write_response_header(stream, Status::Busy, 0).is_ok();
    };
    let _slot = SlotGuard {
        slots: &shared.slots,
        w,
    };

    match req {
        // Already answered before the slot lease; kept total (a stray
        // Ping degrades to a harmless Ok header) rather than panicking.
        Request::Ping => write_response_header(stream, Status::Ok, 0).is_ok(),
        Request::Put { key, value } => {
            let status = do_put(shared, w, &key, &value);
            write_response_header(stream, status, 0).is_ok()
        }
        Request::Stat { key } => {
            let mut t = shared.sdb.begin_with_worker(w);
            let r = t.blob_state(&shared.rel, &key);
            let _ = t.commit();
            match r {
                Ok(Some(state)) => {
                    let mut body = [0u8; 40];
                    let (size, sha) = body.split_at_mut(8);
                    size.copy_from_slice(&state.size.to_le_bytes());
                    sha.copy_from_slice(&state.sha256);
                    write_head(stream, Status::Ok, 40, &body).is_ok()
                }
                Ok(None) => write_response_header(stream, Status::NotFound, 0).is_ok(),
                Err(_) => write_response_header(stream, Status::ServerErr, 0).is_ok(),
            }
        }
        Request::Get { key } => do_stream(stream, shared, w, &key, 0, u64::MAX),
        Request::GetRange { key, offset, len } => do_stream(stream, shared, w, &key, offset, len),
    }
}

fn do_put(shared: &Shared, w: usize, key: &[u8], value: &[u8]) -> Status {
    // Upsert semantics with a bounded conflict-retry loop.
    for _ in 0..8 {
        let mut t = shared.sdb.begin_with_worker(w);
        let r = (|| {
            match t.delete_blob(&shared.rel, key) {
                Ok(()) | Err(Error::KeyNotFound) => {}
                Err(e) => return Err(e),
            }
            t.put_blob(&shared.rel, key, value)
        })();
        let r = match r {
            Ok(()) => t.commit(),
            Err(e) => {
                t.abort();
                Err(e)
            }
        };
        match r {
            Ok(()) => return Status::Ok,
            Err(Error::TxnConflict) => continue,
            Err(Error::BlobTooLarge) | Err(Error::OutOfSpace) => return Status::TooLarge,
            Err(Error::BufferFull) => return Status::Busy,
            Err(_) => return Status::ServerErr,
        }
    }
    Status::Busy
}

/// Write a response header and the first body bytes in one `writev`
/// (looping only on a short write), so a small response leaves as one
/// segment on the `TCP_NODELAY` socket. `first` is sent as it is, never
/// copied.
fn write_head(
    w: &mut impl Write,
    status: Status,
    body_len: u64,
    first: &[u8],
) -> std::io::Result<()> {
    let hdr = response_header(status, body_len);
    let mut slices = [IoSlice::new(&hdr), IoSlice::new(first)];
    let mut rest: &mut [IoSlice] = &mut slices;
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Serve a get/get_range in one key lock and one Blob State lookup: the
/// stream reports the clamped response length with every chunk, so the
/// header goes out with the first chunk, straight from the buffer pool's
/// frames under streaming leases. Returns `false` if the connection must
/// close.
fn do_stream(
    stream: &mut TcpStream,
    shared: &Shared,
    w: usize,
    key: &[u8],
    offset: u64,
    len: u64,
) -> bool {
    let mut t = shared.sdb.begin_with_worker(w);
    // The header is written lazily with the first chunk, so a missing key
    // or a pin-gate rejection (both precede any chunk) still becomes a
    // clean NOT_FOUND / BUSY frame instead of a broken stream. Once a
    // write has been attempted the frame may be partly on the wire.
    let mut sent_header = false;
    let res = t.stream_blob_range(
        &shared.rel,
        key,
        offset,
        len,
        shared.cfg.chunk_bytes,
        Some((&shared.gate, shared.cfg.gate_timeout)),
        &mut |total, chunk| {
            if sent_header {
                stream.write_all(chunk)
            } else {
                sent_header = true;
                write_head(stream, Status::Ok, total, chunk)
            }
            .map_err(Error::Io)?;
            shared
                .metrics
                .serve_bytes_streamed
                .fetch_add(chunk.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            Ok(())
        },
    );
    let _ = t.commit();
    match res {
        Ok(_) if sent_header => true,
        // Empty range (offset at or past the end, or len 0): no chunk.
        Ok(_) => write_response_header(stream, Status::Ok, 0).is_ok(),
        Err(Error::KeyNotFound) if !sent_header => {
            write_response_header(stream, Status::NotFound, 0).is_ok()
        }
        Err(Error::BufferFull) if !sent_header => {
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
            write_response_header(stream, Status::Busy, 0).is_ok()
        }
        Err(_) if !sent_header => write_response_header(stream, Status::ServerErr, 0).is_ok(),
        Err(_) => {
            // Header already on the wire: the body is short and the
            // client sees a disconnect. Pins and gate budget were
            // released by the stream's RAII guard.
            shared
                .metrics
                .serve_disconnects
                .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call, across slices.
    struct Trickle {
        cap: usize,
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for b in bufs {
                let take = room.min(b.len());
                self.out.extend_from_slice(&b[..take]);
                room -= take;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_head_emits_header_then_chunk_across_short_writes() {
        let chunk: Vec<u8> = (0..40u8).collect();
        for (cap, first) in [
            (3, &chunk[..]),
            (4, &chunk[..]),
            (3, &[][..]),
            (1 << 10, &chunk[..]),
        ] {
            let mut w = Trickle {
                cap,
                out: Vec::new(),
                calls: 0,
            };
            write_head(&mut w, Status::Ok, 1234, first).unwrap();
            let mut want = response_header(Status::Ok, 1234).to_vec();
            want.extend_from_slice(first);
            assert_eq!(w.out, want, "cap={cap}");
            assert_eq!(w.calls, want.len().div_ceil(cap), "cap={cap}");
        }
    }

    #[test]
    fn recv_buf_parses_in_place_and_grows_only_for_large_frames() {
        // Two pipelined frames, one larger than the base buffer.
        let big = vec![7u8; RecvBuf::BASE * 3];
        let mut wire = Vec::new();
        for body in [&b"small"[..], &big[..]] {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        let mut src = &wire[..];
        let mut recv = RecvBuf::new();
        let mut bodies = Vec::new();
        while bodies.len() < 2 {
            let pending = recv.pending();
            let need = pending
                .first_chunk::<4>()
                .map_or(4, |l| 4 + u32::from_le_bytes(*l) as usize);
            if pending.len() >= need {
                bodies.push(recv.body(need).to_vec());
                recv.consume(need);
            } else {
                assert!(recv.read_from(&mut src, need).unwrap() > 0);
                assert!(recv.buf.len() <= need.max(RecvBuf::BASE));
            }
        }
        assert_eq!(bodies, [b"small".to_vec(), big]);
        // Fully consumed: rewound and shrunk back to the base size.
        assert_eq!(
            (recv.head, recv.tail, recv.buf.len()),
            (0, 0, RecvBuf::BASE)
        );
    }
}

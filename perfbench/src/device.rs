//! The `storage` layer as the benchmark sees it: a [`Device`] wrapper that
//! times every call into a data or WAL device, and can simulate a power cut.
//!
//! The wrapper overrides every trait method, `submit_read`/`submit_write`
//! included, and forwards each to the same method of the inner device, so
//! the engine's batched-I/O path runs unchanged underneath.

use crate::trace::{self, Layer};
use lobster_storage::Device;
use lobster_types::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Which engine device a wrapper sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Data,
    Wal,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Read,
    Write,
    Sync,
}

/// Calls, bytes and busy time of one kind of device call.
#[derive(Default)]
struct OpStats {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

/// Per-role counters; shared between every wrapper of one role so that a
/// sharded engine reports one figure per role.
#[derive(Default)]
pub struct DeviceStats {
    read: OpStats,
    write: OpStats,
    sync: OpStats,
}

/// A point-in-time copy of [`DeviceStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IoSnapshot {
    pub read_calls: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub write_calls: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub sync_calls: u64,
    pub sync_ns: u64,
}

impl IoSnapshot {
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_calls: self.read_calls - earlier.read_calls,
            read_bytes: self.read_bytes - earlier.read_bytes,
            read_ns: self.read_ns - earlier.read_ns,
            write_calls: self.write_calls - earlier.write_calls,
            write_bytes: self.write_bytes - earlier.write_bytes,
            write_ns: self.write_ns - earlier.write_ns,
            sync_calls: self.sync_calls - earlier.sync_calls,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

impl DeviceStats {
    pub fn snapshot(&self) -> IoSnapshot {
        let r = |s: &AtomicU64| s.load(Ordering::Relaxed);
        IoSnapshot {
            read_calls: r(&self.read.calls),
            read_bytes: r(&self.read.bytes),
            read_ns: r(&self.read.nanos),
            write_calls: r(&self.write.calls),
            write_bytes: r(&self.write.bytes),
            write_ns: r(&self.write.nanos),
            sync_calls: r(&self.sync.calls),
            sync_ns: r(&self.sync.nanos),
        }
    }

    fn record(&self, kind: Kind, bytes: usize, started: Instant) {
        let s = match kind {
            Kind::Read => &self.read,
            Kind::Write => &self.write,
            Kind::Sync => &self.sync,
        };
        // ordering: Relaxed; independent statistics, read after the phase ends
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        s.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Power-cut model: once armed, the device keeps an undo record (the old
/// bytes) of every write that no completed `sync` has covered yet.
/// [`power_cut`] rolls those writes back, leaving exactly the bytes a sync
/// made durable.
#[derive(Default)]
struct UndoLog {
    /// Completion index handed to the next finished write.
    completed: u64,
    /// `(completion index, offset, bytes before the write)` of finished,
    /// unsynced writes. Overlapping writes are never concurrent, so the
    /// completion order of two that overlap is the order they hit the device.
    pending: Vec<(u64, u64, Vec<u8>)>,
}

/// Timing (and power-cut) wrapper around one engine device.
pub struct TimedDevice {
    inner: Arc<dyn Device>,
    role: Role,
    stats: Arc<DeviceStats>,
    undo: Mutex<UndoLog>,
    /// Set by [`TimedDevice::arm_power_model`]: writes from then on save the
    /// bytes they overwrite (an extra read, so only for durability checks).
    armed: AtomicBool,
    /// Writes and syncs hold it shared; arming and cutting take it
    /// exclusively, so no write is half-tracked or lands after a rollback.
    power: RwLock<()>,
    dead: AtomicBool,
}

impl TimedDevice {
    pub fn new(inner: Arc<dyn Device>, role: Role, stats: Arc<DeviceStats>) -> TimedDevice {
        TimedDevice {
            inner,
            role,
            stats,
            undo: Mutex::new(UndoLog::default()),
            armed: AtomicBool::new(false),
            power: RwLock::new(()),
            dead: AtomicBool::new(false),
        }
    }

    /// Start tracking unsynced writes. Every write finished before this
    /// call is made durable first, so a later [`power_cut`] leaves exactly
    /// what a sync covered.
    pub fn arm_power_model(&self) -> Result<()> {
        let _g = self.power.write().expect("power lock poisoned");
        self.inner.sync()?;
        self.armed.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn span_name(&self, kind: Kind) -> &'static str {
        match (self.role, kind) {
            (Role::Data, Kind::Read) => "storage.data.read",
            (Role::Data, Kind::Write) => "storage.data.write",
            (Role::Data, Kind::Sync) => "storage.data.sync",
            (Role::Wal, Kind::Read) => "storage.wal.read",
            (Role::Wal, Kind::Write) => "storage.wal.write",
            (Role::Wal, Kind::Sync) => "storage.wal.sync",
        }
    }

    fn check_power(&self) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(Error::Io(std::io::Error::other("power cut")));
        }
        Ok(())
    }

    fn timed<T>(&self, kind: Kind, bytes: usize, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let _span = trace::span(Layer::Storage, self.span_name(kind));
        let started = Instant::now();
        let r = f();
        self.stats.record(kind, bytes, started);
        r
    }

    /// Run a write under the power model: refuse after a cut, and save the
    /// overwritten bytes once armed.
    fn write_with<T>(&self, buf: &[u8], offset: u64, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let _g = self.power.read().expect("power lock poisoned");
        self.check_power()?;
        if !self.armed.load(Ordering::SeqCst) {
            return self.timed(Kind::Write, buf.len(), f);
        }
        let mut old = vec![0u8; buf.len()];
        self.inner.read_at(&mut old, offset)?;
        let r = self.timed(Kind::Write, buf.len(), f)?;
        let mut log = self.undo.lock().expect("undo log poisoned");
        let index = log.completed;
        log.completed += 1;
        log.pending.push((index, offset, old));
        Ok(r)
    }
}

impl Device for TimedDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        let len = buf.len();
        self.timed(Kind::Read, len, || self.inner.read_at(buf, offset))
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.write_with(buf, offset, || self.inner.write_at(buf, offset))
    }

    fn sync(&self) -> Result<()> {
        let _g = self.power.read().expect("power lock poisoned");
        self.check_power()?;
        if !self.armed.load(Ordering::SeqCst) {
            return self.timed(Kind::Sync, 0, || self.inner.sync());
        }
        // A sync covers only the writes that finished before it started.
        let covered = self.undo.lock().expect("undo log poisoned").completed;
        self.timed(Kind::Sync, 0, || self.inner.sync())?;
        self.undo
            .lock()
            .expect("undo log poisoned")
            .pending
            .retain(|(index, _, _)| *index >= covered);
        Ok(())
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn submit_read(&self, buf: &mut [u8], offset: u64) -> Result<Option<Instant>> {
        let len = buf.len();
        self.timed(Kind::Read, len, || self.inner.submit_read(buf, offset))
    }

    fn submit_write(&self, buf: &[u8], offset: u64) -> Result<Option<Instant>> {
        self.write_with(buf, offset, || self.inner.submit_write(buf, offset))
    }
}

/// Cut power to every device at once: later writes and syncs fail, and
/// every write no completed sync covered is rolled back. Returns how many
/// writes were dropped.
pub fn power_cut(devices: &[Arc<TimedDevice>]) -> Result<usize> {
    let _guards: Vec<_> = devices
        .iter()
        .map(|d| d.power.write().expect("power lock poisoned"))
        .collect();
    let mut dropped = 0;
    for d in devices {
        d.dead.store(true, Ordering::SeqCst);
        let pending = std::mem::take(&mut d.undo.lock().expect("undo log poisoned").pending);
        for (_, offset, old) in pending.iter().rev() {
            d.inner.write_at(old, *offset)?;
        }
        d.inner.sync()?;
        dropped += pending.len();
    }
    Ok(dropped)
}

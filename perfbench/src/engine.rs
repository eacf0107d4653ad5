//! The engine under test: a `ShardedDatabase` on file-backed devices, each
//! wrapped in a [`TimedDevice`], plus the background defragmenter.

use crate::device::{power_cut, DeviceStats, IoSnapshot, Role, TimedDevice};
use lobster_core::{
    Config, DefragConfig, Defragmenter, RelationKind, ShardDevices, ShardedDatabase,
    ShardedRelation,
};
use lobster_storage::{Device, FaultConfig, FaultDevice, FileDevice};
use lobster_types::Result;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relation every workload stores its blobs in.
pub const RELATION: &str = "blobs";

/// How a workload lays out and configures the engine.
#[derive(Clone, Debug)]
pub struct Layout {
    pub shards: usize,
    /// Data device bytes per shard.
    pub data_bytes: u64,
    /// WAL device bytes per shard.
    pub wal_bytes: u64,
    pub cfg: Config,
    /// Run the background defragmenter with `DefragConfig::default()`.
    pub defrag: bool,
}

impl Layout {
    /// One-line description of the engine configuration for the report.
    pub fn describe(&self) -> String {
        let c = &self.cfg;
        format!(
            "shards={} pool_mib_per_shard={} data_mib_per_shard={} wal_mib_per_shard={} \
             commit_wait={} checkpoint_threshold_kib={} workers={} io_threads={} \
             readahead_extents={} batched_faults={} verify_reads={} defrag={}",
            self.shards,
            (c.pool_frames * c.page_size as u64) >> 20,
            self.data_bytes >> 20,
            self.wal_bytes >> 20,
            c.commit_wait,
            c.checkpoint_threshold >> 10,
            c.workers,
            c.io_threads,
            c.readahead_extents,
            c.batched_faults,
            c.verify_reads,
            if self.defrag { "default" } else { "off" },
        )
    }
}

pub struct Engine {
    pub sdb: Arc<ShardedDatabase>,
    pub rel: ShardedRelation,
    devices: Vec<Arc<TimedDevice>>,
    data_stats: Arc<DeviceStats>,
    wal_stats: Arc<DeviceStats>,
    faults: Vec<Arc<FaultDevice<FileDevice>>>,
    defrag: Option<Defragmenter>,
}

fn paths(dir: &Path, shard: usize) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("data-s{shard}.lob")),
        dir.join(format!("wal-s{shard}.lob")),
    )
}

impl Engine {
    /// Create a fresh engine in `dir` (which must exist).
    /// With `fault`, every data device's multi-page reads go through a
    /// `FaultDevice` that stays disarmed until [`Engine::arm_faults`].
    pub fn create(dir: &Path, layout: &Layout, fault: Option<&FaultConfig>) -> Result<Engine> {
        Self::build(layout, true, fault, |p| {
            let (d, w) = paths(dir, p);
            Ok((
                FileDevice::create(&d, layout.data_bytes)?,
                FileDevice::create(&w, layout.wal_bytes)?,
            ))
        })
    }

    /// Reopen the engine files in `dir` after a crash; returns the time
    /// reopening took (`ShardedDatabase::open`, which runs recovery).
    pub fn reopen(dir: &Path, layout: &Layout) -> Result<(Engine, Duration)> {
        let t = Instant::now();
        let engine = Self::build(layout, false, None, |p| {
            let (d, w) = paths(dir, p);
            Ok((FileDevice::open(&d)?, FileDevice::open(&w)?))
        })?;
        Ok((engine, t.elapsed()))
    }

    fn build(
        layout: &Layout,
        fresh: bool,
        fault: Option<&FaultConfig>,
        open: impl Fn(usize) -> Result<(FileDevice, FileDevice)>,
    ) -> Result<Engine> {
        let data_stats = Arc::new(DeviceStats::default());
        let wal_stats = Arc::new(DeviceStats::default());
        let mut devices = Vec::new();
        let mut parts = Vec::new();
        let mut faults = Vec::new();
        for s in 0..layout.shards {
            let (d, w) = open(s)?;
            let d: Arc<dyn Device> = match fault {
                Some(cfg) => {
                    let f = Arc::new(FaultDevice::new(d, cfg.clone()));
                    faults.push(f.clone());
                    Arc::new(ContentFaults(f))
                }
                None => Arc::new(d),
            };
            let data = Arc::new(TimedDevice::new(d, Role::Data, data_stats.clone()));
            let wal = Arc::new(TimedDevice::new(Arc::new(w), Role::Wal, wal_stats.clone()));
            devices.push(data.clone());
            devices.push(wal.clone());
            parts.push(ShardDevices {
                data: data as Arc<dyn Device>,
                wal: wal as Arc<dyn Device>,
            });
        }
        let sdb = if fresh {
            ShardedDatabase::create(parts, layout.cfg.clone())?
        } else {
            ShardedDatabase::open(parts, layout.cfg.clone())?.0
        };
        let rel = match sdb.relation(RELATION) {
            Some(rel) => rel,
            None => sdb.create_relation(RELATION, RelationKind::Blob)?,
        };
        Ok(Engine {
            sdb,
            rel,
            devices,
            data_stats,
            wal_stats,
            faults,
            defrag: None,
        })
    }

    /// Start the background defragmenter, configured as `lobster-serve`
    /// runs it.
    pub fn start_defrag(&mut self) {
        self.defrag = Some(Defragmenter::start(
            self.sdb.shards().to_vec(),
            DefragConfig::default(),
        ));
    }

    /// `(data, wal)` device counters.
    pub fn io(&self) -> (IoSnapshot, IoSnapshot) {
        (self.data_stats.snapshot(), self.wal_stats.snapshot())
    }

    /// Device bytes held by allocated extents, over all shards.
    pub fn allocated_bytes(&self) -> u64 {
        self.sdb
            .shards()
            .iter()
            .map(|s| s.allocator().pages_in_use() * s.config().page_size as u64)
            .sum()
    }

    /// Mean extent-allocator fragmentation score and utilization over shards.
    pub fn extent_gauges(&self) -> (f64, f64) {
        let n = self.sdb.num_shards() as f64;
        let shards = self.sdb.shards();
        (
            shards.iter().map(|s| s.fragmentation_score()).sum::<f64>() / n,
            shards.iter().map(|s| s.utilization()).sum::<f64>() / n,
        )
    }

    /// Start injecting the faults configured at [`Engine::create`].
    pub fn arm_faults(&self) {
        for f in &self.faults {
            f.arm();
        }
    }

    /// Make every device track unsynced writes from now on.
    pub fn arm_power_model(&self) -> Result<()> {
        for d in &self.devices {
            d.arm_power_model()?;
        }
        Ok(())
    }

    /// Cut power to every device at once; returns the writes dropped.
    pub fn power_cut(&self) -> Result<usize> {
        power_cut(&self.devices)
    }

    /// Stop the defragmenter (draining its in-flight pass).
    pub fn stop_defrag(&mut self) {
        if let Some(d) = self.defrag.take() {
            d.stop();
        }
    }

    /// Clean shutdown: stop maintenance, then checkpoint every shard.
    pub fn close(mut self) -> Result<()> {
        self.stop_defrag();
        self.sdb.shutdown()
    }

    /// Drop after a power cut: stop maintenance and ignore the engine's
    /// errors, as the devices refuse every write.
    pub fn abandon(mut self) {
        self.stop_defrag();
    }
}

/// Routes reads longer than one page (BLOB extents) through a
/// `FaultDevice` and everything else to the clean file. One-page reads are
/// B-tree nodes, which share the pool with BLOB extents: a flipped bit there
/// yields a bogus Blob State, which the engine does not check before
/// indexing its page table (it panics), so the output check could never see
/// the corrupt bytes.
struct ContentFaults(Arc<FaultDevice<FileDevice>>);

impl ContentFaults {
    fn single_page(len: usize) -> bool {
        len <= 4096
    }
}

impl Device for ContentFaults {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        if Self::single_page(buf.len()) {
            self.0.inner().read_at(buf, offset)
        } else {
            self.0.read_at(buf, offset)
        }
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.0.inner().write_at(buf, offset)
    }

    fn sync(&self) -> Result<()> {
        self.0.inner().sync()
    }

    fn capacity(&self) -> u64 {
        self.0.capacity()
    }

    fn submit_read(&self, buf: &mut [u8], offset: u64) -> Result<Option<Instant>> {
        if Self::single_page(buf.len()) {
            self.0.inner().submit_read(buf, offset)
        } else {
            self.0.submit_read(buf, offset)
        }
    }

    fn submit_write(&self, buf: &[u8], offset: u64) -> Result<Option<Instant>> {
        self.0.inner().submit_write(buf, offset)
    }
}

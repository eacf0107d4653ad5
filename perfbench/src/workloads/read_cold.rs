//! `read-cold`: in-process, read-only, data four times the buffer pool.
//!
//! Two clients read blobs of 516 KiB–1020 KiB chosen uniformly, so most
//! reads miss the pool: 40 % whole-blob `get_blob`, 60 % "seek and play"
//! (eight consecutive 64 KiB `get_blob_range` windows from a random offset,
//! one transaction). Nothing is written while the clients run, so the
//! output check compares against a copy of every blob made at set-up.
//!
//! Every blob spans 129–255 pages, so every blob has the same extents
//! (tiers of 1, 2, 4, …, 128 pages). The pool's frame allocator never
//! merges freed frame runs: with blobs of 256 KiB–4 MiB it cannot place a
//! 512-frame extent once eviction has begun, and the load fails with
//! `BufferFull` while 602 of 8192 frames are in use; with 256 KiB–1020 KiB
//! (two extent shapes) some reads still fail that way.

use super::{Crashed, Expect, RunDir, Workload, CLIENTS, FIRST_WORKER};
use crate::client::{retry, timed, Client, Op, Tally};
use crate::engine::{Engine, Layout};
use crate::model::{key_name, loguniform_sizes, payload_seed, Blob};
use crate::trace::{self, Layer};
use crate::{Options, Scale};
use lobster_core::{Config, ShardedDatabase, ShardedRelation};
use lobster_types::Result;
use lobster_workloads::make_payload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: u64 = 4096;
const WINDOW: usize = 64 << 10;
const WINDOWS: usize = 8;

struct Params {
    pool_bytes: u64,
    min: usize,
    max: usize,
}

impl Params {
    fn new(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                pool_bytes: 32 << 20,
                min: 516 << 10,
                max: 1020 << 10,
            },
            Scale::Tiny => Params {
                pool_bytes: 4 << 20,
                min: 132 << 10,
                max: 252 << 10,
            },
        }
    }

    /// Blob count whose log-uniform sizes total about four pools.
    fn keys(&self) -> usize {
        let mean = (self.max - self.min) as f64 / (self.max as f64 / self.min as f64).ln();
        (4.0 * self.pool_bytes as f64 / mean).round() as usize
    }

    fn describe(&self, live: u64) -> String {
        format!(
            "{CLIENTS} closed-loop clients, uniform over {} blobs; sizes log-uniform {}..{} KiB \
             (total {:.1} MiB = {:.1}x the pool); mix get_blob 40% / seek-and-play 60% \
             ({WINDOWS} x {} KiB get_blob_range windows from a random offset); read-only",
            self.keys(),
            self.min >> 10,
            self.max >> 10,
            live as f64 / (1 << 20) as f64,
            live as f64 / self.pool_bytes as f64,
            WINDOW >> 10
        )
    }
}

fn layout(p: &Params, live: u64) -> Layout {
    Layout {
        shards: 1,
        data_bytes: (live * 2).max(64 << 20),
        wal_bytes: 32 << 20,
        cfg: Config {
            pool_frames: p.pool_bytes / PAGE,
            ..Config::default()
        },
        defrag: false,
    }
}

pub struct ReadClient {
    id: usize,
    worker: usize,
    sdb: Arc<ShardedDatabase>,
    rel: ShardedRelation,
    rng: StdRng,
    blobs: Arc<Vec<Blob>>,
    /// Every blob's bytes, generated once at set-up (blobs never change).
    content: Arc<Vec<Vec<u8>>>,
    buf: Vec<u8>,
    windows: Vec<Vec<u8>>,
}

impl ReadClient {
    fn get(&mut self, t: &mut Tally, i: usize) -> bool {
        let key = key_name(i as u64);
        let (sdb, rel, worker, buf) = (&self.sdb, &self.rel, self.worker, &mut self.buf);
        let (r, took) = timed(|| {
            let _op = trace::request("op.get");
            retry(t, || {
                let mut txn = sdb.begin_with_worker(worker);
                {
                    let _s = trace::span(Layer::Core, "core.get_blob");
                    txn.get_blob(rel, &key, |b| {
                        buf.clear();
                        buf.extend_from_slice(b);
                    })?;
                }
                let _s = trace::span(Layer::Core, "core.release");
                txn.commit()
            })
        });
        if r.is_err() {
            return false;
        }
        t.record(Op::Get, took);
        t.read_bytes += self.buf.len() as u64;
        if self.buf != self.content[i] {
            t.mismatches += 1;
            return false;
        }
        true
    }

    fn seek(&mut self, t: &mut Tally, i: usize) -> bool {
        let key = key_name(i as u64);
        let len = self.blobs[i].len();
        let start = self.rng.gen_range(0..len) as u64;
        let (sdb, rel, worker) = (&self.sdb, &self.rel, self.worker);
        let windows = &mut self.windows;
        let mut got = [0usize; WINDOWS];
        let mut window_lat = [Duration::ZERO; WINDOWS];
        let (r, took) = timed(|| {
            let _op = trace::request("op.seek");
            retry(t, || {
                let mut txn = sdb.begin_with_worker(worker);
                for (w, buf) in windows.iter_mut().enumerate() {
                    let off = start + (w * WINDOW) as u64;
                    if off >= len as u64 {
                        got[w] = 0;
                        continue;
                    }
                    let began = Instant::now();
                    let _s = trace::span(Layer::Core, "core.get_blob_range");
                    got[w] = txn.get_blob_range(rel, &key, off, buf)?;
                    window_lat[w] = began.elapsed();
                }
                let _s = trace::span(Layer::Core, "core.release");
                txn.commit()
            })
        });
        if r.is_err() {
            return false;
        }
        t.record(Op::Seek, took);
        for (w, lat) in window_lat.iter().enumerate() {
            if (start as usize + w * WINDOW) < len {
                t.record(Op::Range, *lat);
            }
        }
        t.read_bytes += got.iter().sum::<usize>() as u64;
        let expected = &self.content[i];
        for (w, n) in got.iter().enumerate() {
            let off = start as usize + w * WINDOW;
            let want = &expected[off.min(len)..(off + WINDOW).min(len)];
            if &self.windows[w][..*n] != want {
                t.mismatches += 1;
                return false;
            }
        }
        true
    }
}

impl Client for ReadClient {
    fn step(&mut self, t: &mut Tally) -> bool {
        let i = self.rng.gen_range(0..self.blobs.len());
        t.attempted += 1;
        let ok = if self.rng.gen_bool(0.4) {
            self.get(t, i)
        } else {
            self.seek(t, i)
        };
        if !ok {
            t.failed += 1;
        }
        true
    }
}

impl Expect for ReadClient {
    /// Every client reads every blob; each answers for its share of keys.
    fn expected(&self) -> Vec<(u64, Vec<Option<Blob>>)> {
        self.blobs
            .iter()
            .enumerate()
            .skip(self.id)
            .step_by(CLIENTS)
            .map(|(i, b)| (i as u64, vec![Some(b.clone())]))
            .collect()
    }
}

pub struct ReadCold {
    dir: RunDir,
    engine: Engine,
    clients: Vec<ReadClient>,
    layout: Layout,
    params: Params,
    live: u64,
}

impl Workload for ReadCold {
    type Client = ReadClient;

    fn setup(opts: &Options, rep: usize) -> Result<ReadCold> {
        let p = Params::new(opts.scale);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let sizes = loguniform_sizes(p.keys(), p.min, p.max, &mut rng);
        let live: u64 = sizes.iter().map(|&s| s as u64).sum();
        let layout = layout(&p, live);
        let dir = RunDir::new(opts, rep)?;
        let engine = Engine::create(dir.path(), &layout, opts.data_fault.as_ref())?;
        let mut blobs = Vec::with_capacity(sizes.len());
        let mut content = Vec::with_capacity(sizes.len());
        for (id, &len) in sizes.iter().enumerate() {
            let seed = payload_seed(opts.seed, id as u64, 0);
            let data = make_payload(len, seed);
            let mut txn = engine.sdb.begin_with_worker(FIRST_WORKER);
            txn.put_blob(&engine.rel, &key_name(id as u64), &data)?;
            txn.commit()?;
            blobs.push(Blob::new(seed, len));
            content.push(data);
        }
        // Start cold: everything on the device, nothing in the pool.
        engine.sdb.checkpoint()?;
        for shard in engine.sdb.shards() {
            shard.blob_pool().drop_caches();
        }
        engine.arm_faults();
        let blobs = Arc::new(blobs);
        let content = Arc::new(content);
        let clients = (0..CLIENTS)
            .map(|c| ReadClient {
                id: c,
                worker: FIRST_WORKER + c,
                sdb: engine.sdb.clone(),
                rel: engine.rel.clone(),
                rng: StdRng::seed_from_u64(opts.seed ^ (0x4EAD_0000 + c as u64)),
                blobs: blobs.clone(),
                content: content.clone(),
                buf: Vec::new(),
                windows: vec![vec![0u8; WINDOW]; WINDOWS],
            })
            .collect();
        Ok(ReadCold {
            dir,
            engine,
            clients,
            layout,
            params: p,
            live,
        })
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn split(&mut self) -> (&Engine, &mut [ReadClient]) {
        (&self.engine, &mut self.clients)
    }

    fn config(&self) -> String {
        self.layout.describe()
    }

    fn sizes(&self) -> String {
        self.params.describe(self.live)
    }

    fn live_bytes(&self) -> u64 {
        self.live
    }

    fn teardown(self) -> Result<()> {
        drop(self.clients);
        self.engine.close()
    }

    fn into_crashed(self) -> Crashed {
        Crashed {
            dir: self.dir,
            engine: self.engine,
            layout: self.layout,
        }
    }

    fn cut_while_running() -> bool {
        true
    }
}

//! `churn-durable`: in-process, durable small-to-large blob churn.
//!
//! Two clients run a Zipf-0.99 mix over a few thousand keys: upserting
//! put 40 %, append 10 %, delete then re-put 10 %, get 40 %. Every
//! operation is its own transaction under the library default
//! `commit_wait = true`, so every acknowledgement is durable. Sizes are
//! log-normal (median 32 KiB) clamped to 4 KiB–4 MiB. The defragmenter runs
//! as in `lobster-serve`.
//!
//! The buffer pool holds twice the live bytes, so reads hit the pool. A
//! pool smaller than the data cannot run this mix: the pool's frame
//! allocator never merges freed frame runs, and with mixed extent sizes the
//! load itself fails with `BufferFull` (pool = live bytes: a 512-frame
//! request fails while most frames are free). At 1.5× some puts still fail.

use super::{any_matches, Crashed, Expect, RunDir, Workload, CLIENTS, FIRST_WORKER};
use crate::client::{retry, timed, Client, Op, Tally};
use crate::engine::{Engine, Layout};
use crate::model::{key_name, payload_seed, Blob};
use crate::trace::{self, Layer};
use crate::{Options, Scale};
use lobster_core::{Config, ShardedDatabase, ShardedRelation};
use lobster_types::{Error, Result};
use lobster_workloads::{make_payload, PayloadDist, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const PAGE: u64 = 4096;

struct Params {
    keys: usize,
    median: f64,
    sigma: f64,
    min: usize,
    max: usize,
    append_min: usize,
    append_max: usize,
    checkpoint_threshold: u64,
}

impl Params {
    fn new(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                keys: 2048,
                median: 32.0 * 1024.0,
                sigma: 1.2,
                min: 4 << 10,
                max: 4 << 20,
                append_min: 4 << 10,
                append_max: 64 << 10,
                checkpoint_threshold: 1 << 20,
            },
            Scale::Tiny => Params {
                keys: 64,
                median: 16.0 * 1024.0,
                sigma: 1.0,
                min: 1 << 10,
                max: 256 << 10,
                append_min: 1 << 10,
                append_max: 16 << 10,
                checkpoint_threshold: 256 << 10,
            },
        }
    }

    fn put_dist(&self) -> PayloadDist {
        PayloadDist::LogNormal {
            mu: self.median.ln(),
            sigma: self.sigma,
            min: self.min,
            max: self.max,
        }
    }

    fn describe(&self, live: u64) -> String {
        format!(
            "{CLIENTS} closed-loop clients, Zipf 0.99 over {} keys (split between clients); \
             mix put(upsert) 40% / append 10% / delete+re-put 10% / get 40%; \
             sizes log-normal median {} KiB sigma {} clamped {}..{} KiB; appends {}..{} KiB; \
             live data at set-up {:.1} MiB; each op its own durable txn",
            self.keys,
            self.median / 1024.0,
            self.sigma,
            self.min >> 10,
            self.max >> 10,
            self.append_min >> 10,
            self.append_max >> 10,
            live as f64 / (1 << 20) as f64
        )
    }
}

fn layout(p: &Params, live: u64) -> Layout {
    Layout {
        shards: 1,
        data_bytes: (live * 8).max(64 << 20),
        wal_bytes: 64 << 20,
        cfg: Config {
            // Twice the live bytes (see the module docs for why not half),
            // and never under 16 MiB.
            pool_frames: (live * 2).max(16 << 20) / PAGE,
            checkpoint_threshold: p.checkpoint_threshold,
            ..Config::default()
        },
        defrag: true,
    }
}

/// One client's keys and their expected content.
pub struct ChurnClient {
    worker: usize,
    sdb: Arc<ShardedDatabase>,
    rel: ShardedRelation,
    run_seed: u64,
    rng: StdRng,
    zipf: Zipf,
    put_dist: PayloadDist,
    append: (usize, usize),
    /// Global key ids this client owns.
    keys: Vec<u64>,
    /// States each key may hold: one after a successful write, more after a
    /// failed one (the write may or may not have landed).
    states: Vec<Vec<Option<Blob>>>,
    versions: Vec<u64>,
    buf: Vec<u8>,
}

impl ChurnClient {
    fn next_seed(&mut self, i: usize) -> u64 {
        self.versions[i] += 1;
        payload_seed(self.run_seed, self.keys[i], self.versions[i])
    }

    /// Timed write transaction; updates the model by its outcome.
    fn write(
        &mut self,
        t: &mut Tally,
        op: Op,
        i: usize,
        new: Option<Blob>,
        body: impl Fn(&mut lobster_core::ShardedTxn, &ShardedRelation, &[u8]) -> Result<()>,
    ) -> bool {
        let key = key_name(self.keys[i]);
        let (sdb, rel, worker) = (&self.sdb, &self.rel, self.worker);
        let (r, took) = timed(|| {
            let _op = trace::request(op_span(op));
            retry(t, || {
                let mut txn = sdb.begin_with_worker(worker);
                body(&mut txn, rel, &key)?;
                let _s = trace::span(Layer::Core, "core.commit");
                txn.commit()
            })
        });
        match r {
            Ok(()) => {
                t.record(op, took);
                t.write_commits += 1;
                self.states[i] = vec![new];
                true
            }
            Err(_) => {
                self.states[i].push(new);
                false
            }
        }
    }

    fn put(&mut self, t: &mut Tally, i: usize, upsert: bool) -> bool {
        let len = self.put_dist.sample(&mut self.rng);
        let seed = self.next_seed(i);
        let data = make_payload(len, seed);
        let ok = self.write(
            t,
            Op::Put,
            i,
            Some(Blob::new(seed, len)),
            |txn, rel, key| {
                if upsert {
                    let _s = trace::span(Layer::Core, "core.delete_blob");
                    match txn.delete_blob(rel, key) {
                        Ok(()) | Err(Error::KeyNotFound) => {}
                        Err(e) => return Err(e),
                    }
                }
                let _s = trace::span(Layer::Core, "core.put_blob");
                txn.put_blob(rel, key, &data)
            },
        );
        if ok {
            t.puts += 1;
            t.written_bytes += len as u64;
        }
        ok
    }

    fn append(&mut self, t: &mut Tally, i: usize) -> bool {
        let current = match self.states[i].as_slice() {
            [Some(b)] => b.clone(),
            // Unknown or absent content: overwrite instead.
            _ => return self.put(t, i, true),
        };
        let len = self.rng.gen_range(self.append.0..=self.append.1);
        let seed = self.next_seed(i);
        let data = make_payload(len, seed);
        let ok = self.write(
            t,
            Op::Append,
            i,
            Some(current.appended(seed, len)),
            |txn, rel, key| {
                let _s = trace::span(Layer::Core, "core.append_blob");
                txn.append_blob(rel, key, &data)
            },
        );
        if ok {
            t.written_bytes += len as u64;
        }
        ok
    }

    fn delete_and_reput(&mut self, t: &mut Tally, i: usize) -> bool {
        self.write(t, Op::Delete, i, None, |txn, rel, key| {
            let _s = trace::span(Layer::Core, "core.delete_blob");
            txn.delete_blob(rel, key)
        }) && self.put(t, i, false)
    }

    fn get(&mut self, t: &mut Tally, i: usize) -> bool {
        let key = key_name(self.keys[i]);
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
        // The output check, outside the timer.
        if !any_matches(&self.states[i], Some(&self.buf)) {
            t.mismatches += 1;
            return false;
        }
        true
    }
}

fn op_span(op: Op) -> &'static str {
    match op {
        Op::Put => "op.put",
        Op::Append => "op.append",
        Op::Delete => "op.delete",
        _ => "op.other",
    }
}

impl Client for ChurnClient {
    fn step(&mut self, t: &mut Tally) -> bool {
        let u: f64 = self.rng.gen();
        let i = self.zipf.sample_scrambled(&mut self.rng) as usize;
        t.attempted += 1;
        let ok = if u < 0.4 {
            self.put(t, i, true)
        } else if u < 0.5 {
            self.append(t, i)
        } else if u < 0.6 {
            self.delete_and_reput(t, i)
        } else {
            self.get(t, i)
        };
        if !ok {
            t.failed += 1;
        }
        true
    }
}

impl Expect for ChurnClient {
    fn expected(&self) -> Vec<(u64, Vec<Option<Blob>>)> {
        self.keys
            .iter()
            .copied()
            .zip(self.states.iter().cloned())
            .collect()
    }
}

pub struct Churn {
    dir: RunDir,
    engine: Engine,
    clients: Vec<ChurnClient>,
    layout: Layout,
    params: Params,
    loaded: u64,
}

impl Workload for Churn {
    type Client = ChurnClient;

    fn setup(opts: &Options, rep: usize) -> Result<Churn> {
        let p = Params::new(opts.scale);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let sizes: Vec<usize> = (0..p.keys).map(|_| p.put_dist().sample(&mut rng)).collect();
        let loaded: u64 = sizes.iter().map(|&s| s as u64).sum();
        let layout = layout(&p, loaded);
        let dir = RunDir::new(opts, rep)?;
        let mut engine = Engine::create(dir.path(), &layout, opts.data_fault.as_ref())?;
        // Load in transactions of up to 8 MiB.
        let mut txn = engine.sdb.begin_with_worker(FIRST_WORKER);
        let mut pending = 0;
        for (id, &len) in sizes.iter().enumerate() {
            let data = make_payload(len, payload_seed(opts.seed, id as u64, 0));
            txn.put_blob(&engine.rel, &key_name(id as u64), &data)?;
            pending += len;
            if pending >= 8 << 20 {
                txn.commit()?;
                txn = engine.sdb.begin_with_worker(FIRST_WORKER);
                pending = 0;
            }
        }
        txn.commit()?;
        engine.sdb.checkpoint()?;
        engine.start_defrag();
        engine.arm_faults();
        let clients = (0..CLIENTS)
            .map(|c| {
                let keys: Vec<u64> = (c..p.keys).step_by(CLIENTS).map(|k| k as u64).collect();
                let states = keys
                    .iter()
                    .map(|&k| {
                        let len = sizes[k as usize];
                        vec![Some(Blob::new(payload_seed(opts.seed, k, 0), len))]
                    })
                    .collect();
                ChurnClient {
                    worker: FIRST_WORKER + c,
                    sdb: engine.sdb.clone(),
                    rel: engine.rel.clone(),
                    run_seed: opts.seed,
                    rng: StdRng::seed_from_u64(opts.seed ^ (0xC11E_0000 + c as u64)),
                    zipf: Zipf::new(keys.len() as u64, 0.99),
                    put_dist: p.put_dist(),
                    append: (p.append_min, p.append_max),
                    versions: vec![0; keys.len()],
                    keys,
                    states,
                    buf: Vec::new(),
                }
            })
            .collect();
        Ok(Churn {
            dir,
            engine,
            clients,
            layout,
            params: p,
            loaded,
        })
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn split(&mut self) -> (&Engine, &mut [ChurnClient]) {
        (&self.engine, &mut self.clients)
    }

    fn config(&self) -> String {
        self.layout.describe()
    }

    fn sizes(&self) -> String {
        self.params.describe(self.loaded)
    }

    fn live_bytes(&self) -> u64 {
        self.clients
            .iter()
            .flat_map(|c| c.states.iter())
            .filter_map(|s| s.first().and_then(|b| b.as_ref()))
            .map(|b| b.len() as u64)
            .sum()
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

//! `serve-hot`: `lobster_serve::Server` over loopback TCP, data in the pool.
//!
//! The server is configured like the `lobster-serve` defaults (4 shards,
//! 4 worker slots, asynchronous commit, defragmenter on). Two persistent
//! connections run 90 % GET / 10 % PUT over about 8k keys of 4 KiB, which
//! fit in the pool, so no request reads the device.

use super::{any_matches, Crashed, Expect, Replay, RunDir, Workload, CLIENTS, FIRST_WORKER};
use crate::client::{retry, run_phase, timed, Client, Op, Tally};
use crate::engine::{Engine, Layout};
use crate::model::{key_name, payload_seed, Blob};
use crate::trace::{self, Layer};
use crate::{Options, Scale};
use lobster_core::{AliasConfig, Config, PoolVariant, ShardedDatabase, ShardedRelation};
use lobster_serve::{ServeConfig, Server, ServerHandle, Status};
use lobster_types::{Error, Result};
use lobster_workloads::make_payload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

const PAGE: u64 = 4096;
const SHARDS: usize = 4;
const WORKERS: usize = 4;
const VALUE: usize = 4096;
const GET_SHARE: f64 = 0.9;

struct Params {
    keys: usize,
    pool_bytes_per_shard: u64,
}

impl Params {
    fn new(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                keys: 8192,
                pool_bytes_per_shard: 16 << 20,
            },
            Scale::Tiny => Params {
                keys: 256,
                pool_bytes_per_shard: 2 << 20,
            },
        }
    }

    fn describe(&self) -> String {
        format!(
            "{CLIENTS} persistent loopback connections, closed loop; uniform over {} keys \
             (split between connections) of {} KiB ({:.1} MiB, fits the {} MiB pool); \
             mix GET 90% / PUT 10%; BUSY replies count as failed",
            self.keys,
            VALUE >> 10,
            (self.keys * VALUE) as f64 / (1 << 20) as f64,
            (self.pool_bytes_per_shard * SHARDS as u64) >> 20
        )
    }
}

/// The engine as `lobster-serve` configures it, with a pool and capacity
/// sized for this data set. The log is twice the default checkpoint
/// threshold (`lobster-serve`'s is four times): a shard checkpoints once its
/// log passes the threshold, so however fast the host, puts never find the
/// log full.
fn layout(p: &Params) -> Layout {
    Layout {
        shards: SHARDS,
        data_bytes: 64 << 20,
        wal_bytes: 2 * Config::default().checkpoint_threshold,
        cfg: Config {
            pool_frames: p.pool_bytes_per_shard / PAGE,
            pool_variant: PoolVariant::Vm {
                alias: Some(AliasConfig {
                    workers: WORKERS,
                    worker_local_bytes: 16 << 20,
                    shared_bytes: 64 << 20,
                }),
            },
            workers: WORKERS,
            commit_wait: false,
            ..Config::default()
        },
        defrag: true,
    }
}

fn serve_config(p: &Params) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        // As `lobster-serve`: a quarter of the aggregate pool for streams.
        gate_budget: p.pool_bytes_per_shard * SHARDS as u64 / 4,
        ..ServeConfig::default()
    }
}

/// One connection's keys; the same client replays its traced requests in
/// process (through `ShardedTxn`) to split the served time.
pub struct ServeClient {
    conn: Option<lobster_serve::Client>,
    worker: usize,
    sdb: Arc<ShardedDatabase>,
    rel: ShardedRelation,
    run_seed: u64,
    rng: StdRng,
    keys: Vec<u64>,
    states: Vec<Vec<Option<Blob>>>,
    versions: Vec<u64>,
    /// `(key index, is GET)` of every traced request.
    log: Vec<(usize, bool)>,
    /// In-process replay of a logged phase.
    replay: Option<std::vec::IntoIter<(usize, bool)>>,
    buf: Vec<u8>,
}

impl ServeClient {
    fn new_value(&mut self, i: usize) -> (Blob, Vec<u8>) {
        self.versions[i] += 1;
        let seed = payload_seed(self.run_seed, self.keys[i], self.versions[i]);
        (Blob::new(seed, VALUE), make_payload(VALUE, seed))
    }

    fn check(&self, t: &mut Tally, i: usize, got: &[u8]) -> bool {
        t.read_bytes += got.len() as u64;
        if any_matches(&self.states[i], Some(got)) {
            true
        } else {
            t.mismatches += 1;
            false
        }
    }

    fn served_get(&mut self, t: &mut Tally, i: usize) -> bool {
        let key = key_name(self.keys[i]);
        let conn = self.conn.as_mut().expect("served mode has a connection");
        let (r, took) = timed(|| {
            let _op = trace::request("op.get");
            let _s = trace::span(Layer::Serve, "serve.get");
            conn.get(&key)
        });
        match r {
            Ok(resp) if resp.status == Status::Ok => {
                t.record(Op::Get, took);
                self.check(t, i, &resp.body)
            }
            Ok(resp) => {
                t.busy += u64::from(resp.status == Status::Busy);
                false
            }
            Err(_) => false,
        }
    }

    fn served_put(&mut self, t: &mut Tally, i: usize) -> bool {
        let key = key_name(self.keys[i]);
        let (blob, data) = self.new_value(i);
        let conn = self.conn.as_mut().expect("served mode has a connection");
        let (r, took) = timed(|| {
            let _op = trace::request("op.put");
            let _s = trace::span(Layer::Serve, "serve.put");
            conn.put(&key, &data)
        });
        match r {
            Ok(Status::Ok) => {
                t.record(Op::Put, took);
                t.puts += 1;
                t.write_commits += 1;
                t.written_bytes += VALUE as u64;
                self.states[i] = vec![Some(blob)];
                true
            }
            other => {
                t.busy += u64::from(matches!(other, Ok(Status::Busy)));
                self.states[i].push(Some(blob));
                false
            }
        }
    }

    fn local_get(&mut self, t: &mut Tally, i: usize) -> bool {
        let key = key_name(self.keys[i]);
        let (sdb, rel, worker, buf) = (&self.sdb, &self.rel, self.worker, &mut self.buf);
        let (r, took) = timed(|| {
            let _op = trace::request("op.local_get");
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
        let got = std::mem::take(&mut self.buf);
        let ok = self.check(t, i, &got);
        self.buf = got;
        ok
    }

    fn local_put(&mut self, t: &mut Tally, i: usize) -> bool {
        let key = key_name(self.keys[i]);
        let (blob, data) = self.new_value(i);
        let (sdb, rel, worker) = (&self.sdb, &self.rel, self.worker);
        let (r, took) = timed(|| {
            let _op = trace::request("op.local_put");
            retry(t, || {
                let mut txn = sdb.begin_with_worker(worker);
                {
                    let _s = trace::span(Layer::Core, "core.delete_blob");
                    match txn.delete_blob(rel, &key) {
                        Ok(()) | Err(Error::KeyNotFound) => {}
                        Err(e) => return Err(e),
                    }
                }
                {
                    let _s = trace::span(Layer::Core, "core.put_blob");
                    txn.put_blob(rel, &key, &data)?;
                }
                let _s = trace::span(Layer::Core, "core.commit");
                txn.commit()
            })
        });
        match r {
            Ok(()) => {
                t.record(Op::Put, took);
                t.puts += 1;
                t.write_commits += 1;
                t.written_bytes += VALUE as u64;
                self.states[i] = vec![Some(blob)];
                true
            }
            Err(_) => {
                self.states[i].push(Some(blob));
                false
            }
        }
    }
}

impl Client for ServeClient {
    fn step(&mut self, t: &mut Tally) -> bool {
        let ok = if let Some(replay) = &mut self.replay {
            let Some((i, is_get)) = replay.next() else {
                return false;
            };
            t.attempted += 1;
            if is_get {
                self.local_get(t, i)
            } else {
                self.local_put(t, i)
            }
        } else {
            let i = self.rng.gen_range(0..self.keys.len());
            let is_get = self.rng.gen_bool(GET_SHARE);
            if trace::enabled() {
                self.log.push((i, is_get));
            }
            t.attempted += 1;
            if is_get {
                self.served_get(t, i)
            } else {
                self.served_put(t, i)
            }
        };
        if !ok {
            t.failed += 1;
        }
        true
    }
}

impl Expect for ServeClient {
    fn expected(&self) -> Vec<(u64, Vec<Option<Blob>>)> {
        self.keys
            .iter()
            .copied()
            .zip(self.states.iter().cloned())
            .collect()
    }
}

pub struct ServeHot {
    dir: RunDir,
    engine: Engine,
    server: ServerHandle,
    clients: Vec<ServeClient>,
    layout: Layout,
    params: Params,
}

impl Workload for ServeHot {
    type Client = ServeClient;

    fn setup(opts: &Options, rep: usize) -> Result<ServeHot> {
        let p = Params::new(opts.scale);
        let layout = layout(&p);
        let dir = RunDir::new(opts, rep)?;
        let mut engine = Engine::create(dir.path(), &layout, opts.data_fault.as_ref())?;
        for id in 0..p.keys as u64 {
            let mut txn = engine.sdb.begin_with_worker(FIRST_WORKER);
            txn.put_blob(
                &engine.rel,
                &key_name(id),
                &make_payload(VALUE, payload_seed(opts.seed, id, 0)),
            )?;
            txn.commit()?;
        }
        engine.sdb.wait_for_durability()?;
        engine.sdb.checkpoint()?;
        engine.start_defrag();
        engine.arm_faults();
        let server = Server::start(engine.sdb.clone(), engine.rel.clone(), serve_config(&p))?;
        let addr = server.local_addr().to_string();
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let keys: Vec<u64> = (c..p.keys).step_by(CLIENTS).map(|k| k as u64).collect();
            let states = keys
                .iter()
                .map(|&k| vec![Some(Blob::new(payload_seed(opts.seed, k, 0), VALUE))])
                .collect();
            clients.push(ServeClient {
                conn: Some(lobster_serve::Client::connect(&addr)?),
                worker: FIRST_WORKER + c,
                sdb: engine.sdb.clone(),
                rel: engine.rel.clone(),
                run_seed: opts.seed,
                rng: StdRng::seed_from_u64(opts.seed ^ (0x5E4E_0000 + c as u64)),
                versions: vec![0; keys.len()],
                keys,
                states,
                log: Vec::new(),
                replay: None,
                buf: Vec::new(),
            });
        }
        Ok(ServeHot {
            dir,
            engine,
            server,
            clients,
            layout,
            params: p,
        })
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn split(&mut self) -> (&Engine, &mut [ServeClient]) {
        (&self.engine, &mut self.clients)
    }

    fn config(&self) -> String {
        format!(
            "{} | serve: {:?}",
            self.layout.describe(),
            serve_config(&self.params)
        )
    }

    fn sizes(&self) -> String {
        self.params.describe()
    }

    fn live_bytes(&self) -> u64 {
        self.clients
            .iter()
            .flat_map(|c| c.states.iter())
            .filter_map(|s| s.first().and_then(|b| b.as_ref()))
            .map(|b| b.len() as u64)
            .sum()
    }

    /// Stop in the order `lobster-serve` does: maintenance, then the server
    /// (which drains the committers), then the engine.
    fn teardown(mut self) -> Result<()> {
        self.engine.stop_defrag();
        drop(self.clients);
        self.server.shutdown()?;
        self.engine.close()
    }

    fn into_crashed(mut self) -> Crashed {
        self.engine.stop_defrag();
        drop(self.clients);
        // The devices refuse every write now, so the drain's error is expected.
        let _ = self.server.shutdown();
        Crashed {
            dir: self.dir,
            engine: self.engine,
            layout: self.layout,
        }
    }

    /// Asynchronous commit by design: check what `wait_for_durability`
    /// promises.
    fn cut_while_running() -> bool {
        false
    }

    /// Replay the traced requests in process on the same engine, while the
    /// connections are idle, to split served time from engine time.
    fn replay(&mut self, traced: &[Tally], stop: &AtomicBool) -> Result<Option<Replay>> {
        for c in &mut self.clients {
            c.replay = Some(std::mem::take(&mut c.log).into_iter());
        }
        trace::enable();
        let tallies = run_phase(&mut self.clients, Duration::from_secs(120), stop, || {});
        let core = trace::summarize(&trace::disable());
        for c in &mut self.clients {
            c.replay = None;
        }
        let mut served = Tally::default();
        for t in traced {
            served.merge(t);
        }
        Ok(Some(Replay {
            serve_overhead_us: served.lat(Op::Get).p50_us() - core.p50_us("core.get_blob"),
            core,
            tallies,
        }))
    }
}

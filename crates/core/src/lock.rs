//! Record-level two-phase locking with wait-die conflict resolution
//! (§III-H "Concurrency control for BLOBs").
//!
//! Locks are taken on `(relation, key)` Blob State records: a transaction
//! that updates a BLOB holds an exclusive lock on its record; readers hold
//! shared locks. Wait-die keeps it deadlock-free: an older transaction
//! (smaller id) waits for a younger holder, a younger requester aborts
//! immediately ([`lobster_types::Error::TxnConflict`]).
//!
//! The table is split into 64 mutex-guarded shards by key hash. A
//! transaction records which shards it locked in a [`ShardMask`] (one bit
//! per shard), and release visits only those shards: ending a transaction
//! that locked one key costs one shard lock, not a sweep of the table.

use lobster_sync::Mutex;
use lobster_types::{Error, Result};
use std::collections::HashMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

#[derive(Debug, Default)]
struct LockState {
    /// Shared holders (txn ids); exclusive iff `exclusive` is set.
    shared: Vec<u64>,
    exclusive: Option<u64>,
}

impl LockState {
    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none()
    }

    fn min_holder(&self) -> Option<u64> {
        self.exclusive
            .into_iter()
            .chain(self.shared.iter().copied())
            .min()
    }
}

/// Lock-table shard count; one bit of a [`ShardMask`] each.
const SHARDS: usize = 64;

/// The set of lock-table shards a transaction has locked in.
pub type ShardMask = u64;

type LockShard = Mutex<HashMap<(u32, Vec<u8>), LockState>>;

/// The lock table, sharded by key hash.
pub struct LockManager {
    shards: Vec<LockShard>,
    /// Upper bound on waiting before an older transaction gives up (guards
    /// against holders that never release, e.g. a stuck session).
    wait_timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(Duration::from_secs(5))
    }
}

impl LockManager {
    pub fn new(wait_timeout: Duration) -> Self {
        LockManager {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            wait_timeout,
        }
    }

    fn shard_of(relation: u32, key: &[u8]) -> usize {
        let mut h = relation as u64 ^ 0x9E37_79B9;
        for &b in key {
            h = h.wrapping_mul(0x100_0000_01B3) ^ b as u64;
        }
        (h % SHARDS as u64) as usize
    }

    /// Acquire a lock for `txn`; re-entrant (a held exclusive covers shared;
    /// a solo shared holder upgrades to exclusive). The key's shard is added
    /// to `held` *before* the attempt, so whatever a failed attempt touched
    /// is still covered by the transaction's [`LockManager::release`].
    pub fn lock(
        &self,
        txn: u64,
        held: &mut ShardMask,
        relation: u32,
        key: &[u8],
        mode: LockMode,
    ) -> Result<()> {
        let idx = Self::shard_of(relation, key);
        let shard = &self.shards[idx];
        *held |= 1 << idx;
        let deadline = Instant::now() + self.wait_timeout;
        loop {
            {
                let mut shard = shard.lock();
                let state = shard.entry((relation, key.to_vec())).or_default();
                match mode {
                    LockMode::Shared => {
                        match state.exclusive {
                            None => {
                                if !state.shared.contains(&txn) {
                                    state.shared.push(txn);
                                }
                                return Ok(());
                            }
                            Some(holder) if holder == txn => return Ok(()),
                            Some(holder) => {
                                // Wait-die: younger requester dies.
                                if txn > holder {
                                    return Err(Error::TxnConflict);
                                }
                            }
                        }
                    }
                    LockMode::Exclusive => {
                        let solo_shared = state.shared.len() == 1 && state.shared[0] == txn;
                        match state.exclusive {
                            Some(holder) if holder == txn => return Ok(()),
                            None if state.shared.is_empty() || solo_shared => {
                                state.shared.retain(|&t| t != txn);
                                state.exclusive = Some(txn);
                                return Ok(());
                            }
                            _ => {
                                // Wait-die against the oldest holder. A
                                // conflict implies a holder; should none be
                                // found, the requester dies rather than waits.
                                match state.min_holder() {
                                    Some(oldest) if txn <= oldest => {}
                                    _ => return Err(Error::TxnConflict),
                                }
                            }
                        }
                    }
                }
            }
            // Older transaction: wait briefly and retry.
            if Instant::now() > deadline {
                return Err(Error::TxnConflict);
            }
            std::thread::yield_now();
        }
    }

    /// Release every lock `txn` holds in the shards of `held` (end of
    /// two-phase locking); empty entries there are dropped.
    pub fn release(&self, txn: u64, held: ShardMask) {
        let mut rest = held;
        while rest != 0 {
            let idx = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let mut shard = self.shards[idx].lock();
            shard.retain(|_, state| {
                state.shared.retain(|&t| t != txn);
                if state.exclusive == Some(txn) {
                    state.exclusive = None;
                }
                !state.is_free()
            });
        }
    }

    /// Number of keys currently locked (diagnostics).
    pub fn locked_keys(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> LockManager {
        LockManager::new(Duration::from_millis(200))
    }

    /// A test transaction: its id and the lock shards it has touched.
    struct T(u64, ShardMask);

    impl T {
        fn lock(&mut self, m: &LockManager, rel: u32, key: &[u8], mode: LockMode) -> Result<()> {
            m.lock(self.0, &mut self.1, rel, key, mode)
        }

        fn release(self, m: &LockManager) {
            m.release(self.0, self.1);
        }
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        let (mut t1, mut t2) = (T(1, 0), T(2, 0));
        t1.lock(&m, 0, b"k", LockMode::Shared).unwrap();
        t2.lock(&m, 0, b"k", LockMode::Shared).unwrap();
        assert_eq!(m.locked_keys(), 1);
        t1.release(&m);
        t2.release(&m);
        assert_eq!(m.locked_keys(), 0);
    }

    #[test]
    fn exclusive_blocks_younger() {
        let m = mgr();
        T(1, 0).lock(&m, 0, b"k", LockMode::Exclusive).unwrap();
        // Younger (higher id) dies immediately.
        let mut t2 = T(2, 0);
        assert!(matches!(
            t2.lock(&m, 0, b"k", LockMode::Shared),
            Err(Error::TxnConflict)
        ));
        assert!(matches!(
            t2.lock(&m, 0, b"k", LockMode::Exclusive),
            Err(Error::TxnConflict)
        ));
    }

    #[test]
    fn older_waits_for_release() {
        let m = std::sync::Arc::new(LockManager::new(Duration::from_secs(5)));
        let mut t10 = T(10, 0);
        t10.lock(&m, 0, b"k", LockMode::Exclusive).unwrap();
        let m2 = m.clone();
        let h = std::thread::spawn(move || {
            // Older txn 5 waits until txn 10 releases.
            T(5, 0).lock(&m2, 0, b"k", LockMode::Exclusive).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        t10.release(&m);
        h.join().unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr();
        let mut t1 = T(1, 0);
        t1.lock(&m, 0, b"k", LockMode::Shared).unwrap();
        t1.lock(&m, 0, b"k", LockMode::Shared).unwrap();
        // Solo shared holder upgrades.
        t1.lock(&m, 0, b"k", LockMode::Exclusive).unwrap();
        t1.lock(&m, 0, b"k", LockMode::Shared).unwrap(); // X covers S
        t1.lock(&m, 0, b"k", LockMode::Exclusive).unwrap(); // re-entrant X

        // Another txn cannot get it.
        let mut t9 = T(9, 0);
        assert!(t9.lock(&m, 0, b"k", LockMode::Shared).is_err());
        t1.release(&m);
        t9.lock(&m, 0, b"k", LockMode::Shared).unwrap();
    }

    #[test]
    fn upgrade_with_other_sharers_conflicts_for_younger() {
        let m = mgr();
        let mut t2 = T(2, 0);
        T(1, 0).lock(&m, 0, b"k", LockMode::Shared).unwrap();
        t2.lock(&m, 0, b"k", LockMode::Shared).unwrap();
        // Txn 2 (younger than holder 1) must die trying to upgrade.
        assert!(matches!(
            t2.lock(&m, 0, b"k", LockMode::Exclusive),
            Err(Error::TxnConflict)
        ));
    }

    #[test]
    fn different_keys_do_not_conflict() {
        let m = mgr();
        let mut t2 = T(2, 0);
        T(1, 0).lock(&m, 0, b"a", LockMode::Exclusive).unwrap();
        t2.lock(&m, 0, b"b", LockMode::Exclusive).unwrap();
        t2.lock(&m, 1, b"a", LockMode::Exclusive).unwrap(); // other relation
    }

    #[test]
    fn timeout_eventually_fires_for_older_waiter() {
        let m = LockManager::new(Duration::from_millis(50));
        T(10, 0).lock(&m, 0, b"k", LockMode::Exclusive).unwrap();
        // Older txn 5 waits, but the holder never releases: timeout.
        let start = Instant::now();
        assert!(matches!(
            T(5, 0).lock(&m, 0, b"k", LockMode::Exclusive),
            Err(Error::TxnConflict)
        ));
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    /// Keys spread over several shards, as a multi-key transaction's are.
    fn keys_in_distinct_shards(n: usize) -> Vec<Vec<u8>> {
        let mut seen: ShardMask = 0;
        let mut keys = Vec::new();
        for i in 0u32.. {
            let key = i.to_le_bytes().to_vec();
            let bit = 1 << LockManager::shard_of(0, &key);
            if seen & bit == 0 {
                seen |= bit;
                keys.push(key);
                if keys.len() == n {
                    break;
                }
            }
        }
        keys
    }

    #[test]
    fn release_frees_every_shard_the_txn_touched() {
        let m = mgr();
        let keys = keys_in_distinct_shards(5);
        for (id, mode) in [(1, LockMode::Shared), (2, LockMode::Exclusive)] {
            let mut t = T(id, 0);
            for k in &keys {
                t.lock(&m, 0, k, mode).unwrap();
            }
            assert_eq!(t.1.count_ones(), 5);
            assert_eq!(m.locked_keys(), 5);
            t.release(&m);
            assert_eq!(m.locked_keys(), 0);
        }
    }

    #[test]
    fn failed_attempt_leaves_no_entry_once_holder_releases() {
        let m = mgr();
        let mut holder = T(1, 0);
        holder.lock(&m, 0, b"k", LockMode::Exclusive).unwrap();
        let mut loser = T(2, 0);
        assert!(matches!(
            loser.lock(&m, 0, b"k", LockMode::Shared),
            Err(Error::TxnConflict)
        ));
        // The failed attempt still marked its shard for the loser's release.
        assert_eq!(loser.1, holder.1);
        loser.release(&m);
        assert_eq!(m.locked_keys(), 1);
        holder.release(&m);
        assert_eq!(m.locked_keys(), 0);
    }

    #[test]
    fn release_leaves_other_txns_locks_alone() {
        let m = mgr();
        let keys = keys_in_distinct_shards(2);
        let (mut t1, mut t2) = (T(1, 0), T(2, 0));
        t1.lock(&m, 0, &keys[0], LockMode::Exclusive).unwrap();
        t2.lock(&m, 0, &keys[1], LockMode::Exclusive).unwrap();
        assert_eq!(t1.1 & t2.1, 0);
        t1.release(&m);
        // t2's key is still exclusively held: a younger txn still dies.
        assert_eq!(m.locked_keys(), 1);
        assert!(T(3, 0).lock(&m, 0, &keys[1], LockMode::Shared).is_err());
        T(4, 0).lock(&m, 0, &keys[0], LockMode::Exclusive).unwrap();
        t2.release(&m);
        assert_eq!(m.locked_keys(), 1);
    }
}

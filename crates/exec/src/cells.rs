//! The cell claim table: lets concurrent sweeps that share a pool
//! compute each distinct cell once.
//!
//! Every key is `Running` (a caller claimed it and is computing it),
//! `Done(v)` or `Failed`. A caller goes through three steps, in order:
//!
//! 1. [`CellTable::claim`] takes all of its keys under one lock. Keys
//!    nobody owns become the caller's ([`Claim::Owned`]); keys that
//!    another caller — or an earlier position of the same claim — is
//!    computing come back [`Claim::Pending`]; finished keys come back
//!    [`Claim::Done`].
//! 2. It computes its owned keys (one pool batch) and
//!    [`CellTable::resolve`]s every one of them, `None` on failure.
//! 3. Only then does it [`CellTable::wait`] on its pending keys.
//!
//! No caller waits before it has resolved everything it owns, so every
//! `Running` slot belongs to a caller that is still driving its batch
//! and waits cannot form a cycle. A waiter that is itself a worker of
//! the pool keeps running queued jobs while it waits, so an owner's
//! batch progresses even when every worker is waiting on it. A failed
//! key is claimable again: the next caller to ask for it computes it
//! afresh, and waiters see the failure instead of hanging.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::{lock, Pool};

/// What [`CellTable::claim`] found for one key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Claim<V> {
    /// The caller now owns the key and must [`CellTable::resolve`] it.
    Owned,
    /// Another owner is computing the key; [`CellTable::wait`] for it
    /// after resolving every owned key.
    Pending,
    /// The key's value is already computed.
    Done(V),
}

/// State of one key.
enum Slot<V> {
    Running,
    Done(V),
    Failed,
}

/// A keyed table of in-flight and finished computations; see the module
/// docs for the claim → resolve → wait protocol.
pub struct CellTable<K, V> {
    slots: Mutex<BTreeMap<K, Slot<V>>>,
    resolved: Condvar,
}

impl<K, V> Default for CellTable<K, V> {
    fn default() -> Self {
        CellTable {
            slots: Mutex::new(BTreeMap::new()),
            resolved: Condvar::new(),
        }
    }
}

impl<K: Ord, V: Clone> CellTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        CellTable::default()
    }

    /// Claims `keys` atomically, one [`Claim`] per key in order. A key
    /// that repeats within `keys` is owned at its first position and
    /// pending at the later ones.
    pub fn claim(&self, keys: impl IntoIterator<Item = K>) -> Vec<Claim<V>> {
        let mut slots = lock(&self.slots);
        keys.into_iter()
            .map(|key| match slots.entry(key) {
                Entry::Occupied(mut e) => match e.get() {
                    Slot::Running => Claim::Pending,
                    Slot::Done(v) => Claim::Done(v.clone()),
                    Slot::Failed => {
                        e.insert(Slot::Running);
                        Claim::Owned
                    }
                },
                Entry::Vacant(e) => {
                    e.insert(Slot::Running);
                    Claim::Owned
                }
            })
            .collect()
    }

    /// Resolves an owned key — `Some` with its value, `None` if computing
    /// it failed — and wakes every waiter.
    pub fn resolve(&self, key: K, value: Option<V>) {
        let slot = value.map_or(Slot::Failed, Slot::Done);
        lock(&self.slots).insert(key, slot);
        self.resolved.notify_all();
    }

    /// Blocks until `key` is resolved: `Some` with its value, `None` if
    /// its owner failed. A worker of `pool` runs queued jobs meanwhile.
    pub fn wait(&self, key: &K, pool: &Pool) -> Option<V> {
        let worker = pool.worker_id();
        let mut slots = lock(&self.slots);
        loop {
            match slots.get(key) {
                Some(Slot::Done(v)) => return Some(v.clone()),
                Some(Slot::Failed) | None => return None,
                Some(Slot::Running) => {}
            }
            match worker {
                Some(id) => {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "releases the table lock while this worker helps the pool"
                    )]
                    drop(slots);
                    let ran = pool.help(id);
                    slots = lock(&self.slots);
                    if !ran {
                        // Nothing queued: the owner's jobs are running
                        // elsewhere. Nap until a resolve, then re-check
                        // for work as well.
                        slots = self
                            .resolved
                            .wait_timeout(slots, Duration::from_millis(1))
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .0;
                    }
                }
                None => {
                    slots = self
                        .resolved
                        .wait(slots)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn claims_own_new_keys_and_pend_repeats() {
        let table = CellTable::<&str, u32>::new();
        assert_eq!(
            table.claim(["a", "b", "a"]),
            [Claim::Owned, Claim::Owned, Claim::Pending]
        );
        table.resolve("a", Some(1));
        assert_eq!(table.claim(["a", "b"]), [Claim::Done(1), Claim::Pending]);
    }

    #[test]
    fn failed_keys_fail_their_waiters_and_are_claimable_again() {
        let pool = Pool::new(1);
        let table = CellTable::<&str, u32>::new();
        assert_eq!(table.claim(["k"]), [Claim::Owned]);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| table.wait(&"k", &pool));
            table.resolve("k", None);
            assert_eq!(waiter.join().expect("waiter"), None);
        });
        assert_eq!(table.claim(["k"]), [Claim::Owned]);
        table.resolve("k", Some(7));
        assert_eq!(table.wait(&"k", &pool), Some(7));
    }

    #[test]
    fn a_waiting_worker_runs_the_owners_queued_job() {
        // The pool's only worker waits on a key whose owner's job is
        // queued behind it: unless the waiter runs that job, nothing
        // ever resolves the key.
        let pool = Arc::new(Pool::new(1));
        let table = Arc::new(CellTable::<&str, u32>::new());
        assert_eq!(table.claim(["k"]), [Claim::Owned]);
        let (started_tx, started_rx) = mpsc::channel();
        let waiter = {
            let (pool, table) = (Arc::clone(&pool), Arc::clone(&table));
            std::thread::spawn(move || {
                let inner = Arc::clone(&pool);
                pool.run_batch(vec![move || {
                    started_tx.send(()).expect("test alive");
                    table.wait(&"k", &inner)
                }])
            })
        };
        started_rx.recv().expect("waiter job started");
        let owner = Arc::clone(&table);
        pool.run_batch(vec![move || owner.resolve("k", Some(3))]);
        assert_eq!(waiter.join().expect("waiter thread"), [Some(3)]);
    }
}

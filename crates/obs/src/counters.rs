//! The per-mesh counter set: one atomic per pre-registered handle.
//!
//! A live mesh counts every protocol, transport and cluster event into
//! one [`CounterSet`] that all its nodes share. A bump is a single
//! relaxed `fetch_add` on a fixed slot — no lock, no name lookup, no
//! mirror — so the set is always on. The process-wide
//! [`crate::metrics()`] registry receives a mesh's final counts once,
//! through [`CounterSet::publish`].

use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::names;

macro_rules! counters {
    ($($handle:ident => $name:ident,)*) => {
        /// A pre-registered counter of a [`CounterSet`], named by a
        /// constant of [`crate::names`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $(
                #[doc = concat!("Prints as [`names::", stringify!($name), "`].")]
                $handle,
            )*
        }

        impl Counter {
            /// Every handle, in slot order.
            pub const ALL: [Counter; [$(stringify!($handle)),*].len()] = [$(Counter::$handle),*];

            /// The metric name the counter prints under.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$handle => names::$name,)*
                }
            }
        }
    };
}

counters! {
    Retries => LIVE_RETRIES,
    AckTimeouts => LIVE_ACK_TIMEOUTS,
    SendFailures => LIVE_SEND_FAILURES,
    StaleReplies => LIVE_STALE_REPLIES,
    ProvidersPurged => LIVE_PROVIDERS_PURGED,
    IncompleteQueries => LIVE_INCOMPLETE_QUERIES,
    LookupFailures => LIVE_LOOKUP_FAILURES,
    SolutionRounds => LIVE_SOLUTION_ROUNDS,
    SolutionsShipped => LIVE_SOLUTIONS_SHIPPED,
    SolutionBytes => LIVE_SOLUTION_BYTES,
    Admitted => LIVE_ADMITTED,
    Queued => LIVE_QUEUED,
    Rejected => LIVE_REJECTED,
    Batches => LIVE_BATCHES,
    BatchedRounds => LIVE_BATCHED_ROUNDS,
    ShuffleParts => EXEC_STRATEGY_SHUFFLE_PARTS,
    ShuffleBytes => EXEC_STRATEGY_SHUFFLE_BYTES,
    StitchedRows => EXEC_STRATEGY_STITCHED_ROWS,
    FramesSent => TRANSPORT_FRAMES_SENT,
    FramesReceived => TRANSPORT_FRAMES_RECEIVED,
    BytesSent => TRANSPORT_BYTES_SENT,
    BytesReceived => TRANSPORT_BYTES_RECEIVED,
    Connects => TRANSPORT_CONNECTS,
    Reconnects => TRANSPORT_RECONNECTS,
    TransportSendFailures => TRANSPORT_SEND_FAILURES,
    DecodeErrors => TRANSPORT_DECODE_ERRORS,
    ClusterMessages => CLUSTER_MESSAGES,
    ClusterDropped => CLUSTER_DROPPED,
}

const COUNT: usize = Counter::ALL.len();

/// One mesh's counters: a fixed array of atomics indexed by [`Counter`].
#[derive(Debug, Default)]
pub struct CounterSet([AtomicU64; COUNT]);

impl CounterSet {
    /// Adds `delta` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.0[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize].load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot(Counter::ALL.map(|c| self.get(c)))
    }

    /// Adds every non-zero count except the `cluster.*` ones to the
    /// process registry — a no-op while the registry is disabled. A mesh
    /// calls this once, when it is dropped, so experiment records carry
    /// its `live.*`, `exec.strategy.*` and `transport.*` totals.
    pub fn publish(&self) {
        let registry = crate::metrics();
        for (counter, value) in self.snapshot().iter() {
            let cluster = matches!(counter, Counter::ClusterMessages | Counter::ClusterDropped);
            if value > 0 && !cluster {
                registry.add(counter.name(), value);
            }
        }
    }
}

/// A point-in-time copy of a [`CounterSet`], indexed by [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot([u64; COUNT]);

impl CounterSnapshot {
    /// Every `(handle, value)` pair, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().zip(self.0)
    }
}

impl Index<Counter> for CounterSnapshot {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn every_handle_has_its_own_slot_and_name() {
        let names: HashSet<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), COUNT, "names must be distinct");
        for (slot, counter) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(counter as usize, slot);
        }
        let set = CounterSet::default();
        set.add(Counter::StaleReplies, 3);
        let snap = set.snapshot();
        assert_eq!(snap[Counter::StaleReplies], 3);
        assert_eq!(snap.iter().map(|(_, v)| v).sum::<u64>(), 3, "no other slot moved");
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let set = Arc::new(CounterSet::default());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        set.add(Counter::FramesSent, 1);
                        set.add(Counter::BytesSent, t + 1);
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(set.get(Counter::FramesSent), 80_000);
        assert_eq!(set.get(Counter::BytesSent), 10_000 * (1..=8).sum::<u64>());
    }
}

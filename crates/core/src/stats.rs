//! Per-query execution statistics.
//!
//! [`QueryStats`] is maintained two ways at once: the engine bumps the
//! legacy counters inline as it executes, and mirrors every bump into the
//! active [`rdfmesh_obs::QueryTrace`] (when one is installed). The two
//! views are provably equal — [`QueryStats::from_trace`] reconstructs the
//! stats from the trace alone, and the engine's correctness tests assert
//! the reconstruction matches the hand-counted values exactly.

use rdfmesh_net::{NetStats, SimTime};

/// What one distributed query cost — the quantities the paper's deferred
/// evaluation (and our EXPERIMENTS.md) reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Simulated response time: from submission at the initiator to the
    /// final solutions arriving back at the initiator. One of the two
    /// optimization objectives of Sect. IV-C ("the time used to answer
    /// the query").
    pub response_time: SimTime,
    /// Total inter-site bytes moved on behalf of the query (routing,
    /// sub-queries, intermediate results, final results). The other
    /// Sect. IV-C objective ("the total amount of data transmission").
    pub total_bytes: u64,
    /// Total inter-site messages. Not an explicit paper objective, but
    /// each message carries the fixed per-hop latency that dominates the
    /// response time of small transfers (Sect. V's experiment setup).
    pub messages: u64,
    /// Chord routing hops spent resolving index keys — the O(log N)
    /// first level of the two-level lookup of Sect. III-B.
    pub index_hops: usize,
    /// Storage nodes that received a sub-query: the providers selected
    /// from the location tables (Sect. III-C, Table I) plus any flooded
    /// recipients for the all-variable pattern (Sect. IV-B).
    pub providers_contacted: usize,
    /// Contacted storage nodes that turned out dead (query-ack timeout
    /// fired) — the lazy failure detection of Sect. III-D, after which
    /// their stale index entries are purged.
    pub dead_providers: usize,
    /// Intermediate solution mappings produced before post-processing —
    /// the "size of intermediate results" the paper's join-ordering
    /// optimization targets (Sect. IV-D).
    pub intermediate_solutions: usize,
    /// Solutions (or triples / boolean) in the final result, counted
    /// after the post-processing step of Fig. 3.
    pub result_size: usize,
}

impl QueryStats {
    /// Folds a network-stats delta into the query stats.
    pub fn absorb_net(&mut self, delta: &NetStats) {
        self.total_bytes += delta.total_bytes;
        self.messages += delta.messages;
    }

    /// Reconstructs the statistics from a query trace alone, making the
    /// legacy stats a derived view: bytes/messages come from the span
    /// tree's charges, the response time from the trace's critical-path
    /// frontier, and the remaining counters from the trace's named
    /// counts. For a query run under [`crate::Engine::execute_traced`]
    /// this equals the engine's hand-counted [`QueryStats`] exactly.
    pub fn from_trace(trace: &rdfmesh_obs::QueryTrace) -> QueryStats {
        QueryStats {
            response_time: SimTime(trace.response_time_us()),
            total_bytes: trace.total_bytes(),
            messages: trace.total_messages(),
            index_hops: trace.counter("index_hops") as usize,
            providers_contacted: trace.counter("providers_contacted") as usize,
            dead_providers: trace.counter("dead_providers") as usize,
            intermediate_solutions: trace.counter("intermediate_solutions") as usize,
            result_size: trace.counter("result_size") as usize,
        }
    }
}

impl std::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "time={} bytes={} msgs={} hops={} providers={} (dead {}) intermediate={} results={}",
            self.response_time,
            self.total_bytes,
            self.messages,
            self.index_hops,
            self.providers_contacted,
            self.dead_providers,
            self.intermediate_solutions,
            self.result_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_net::NodeId;

    #[test]
    fn absorb_net_accumulates() {
        let mut q = QueryStats::default();
        let mut n = NetStats::default();
        n.record(NodeId(1), NodeId(2), 100, SimTime(5));
        n.record(NodeId(2), NodeId(3), 50, SimTime(9));
        q.absorb_net(&n);
        assert_eq!(q.total_bytes, 150);
        assert_eq!(q.messages, 2);
    }

    #[test]
    fn display_is_single_line() {
        let q = QueryStats::default();
        assert!(!q.to_string().contains('\n'));
    }

    #[test]
    fn from_trace_reads_charges_counters_and_frontier() {
        let trace = rdfmesh_obs::QueryTrace::new();
        let span = trace.begin(rdfmesh_obs::phase::SHIPPING, "s", 0);
        trace.charge(120);
        trace.charge(80);
        trace.end(span, 500);
        trace.advance(rdfmesh_obs::phase::SHIPPING, 500);
        trace.count("index_hops", 3);
        trace.count("providers_contacted", 2);
        trace.count("intermediate_solutions", 7);
        trace.count("result_size", 4);
        trace.advance(rdfmesh_obs::phase::POST_PROCESS, 650);
        trace.finish(650);
        let q = QueryStats::from_trace(&trace);
        assert_eq!(q.response_time, SimTime(650));
        assert_eq!(q.total_bytes, 200);
        assert_eq!(q.messages, 2);
        assert_eq!(q.index_hops, 3);
        assert_eq!(q.providers_contacted, 2);
        assert_eq!(q.intermediate_solutions, 7);
        assert_eq!(q.dead_providers, 0);
        assert_eq!(q.result_size, 4);
    }
}

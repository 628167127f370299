//! Multi-query concurrency tests for the live mesh: many SPARQL
//! executions pipelined through one coordinator, under fault injection,
//! on both transports (docs/EXECUTION.md).
//!
//! The admission-control assertions are the executable form of the
//! overload contract: a rejected query costs *nothing* — no query id, no
//! solution round, no protocol message — and rejection is immediate,
//! never a deadline overrun.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rdfmesh_core::{Counter, FaultPlan, LiveConfig, LiveError, LiveMesh, Transport, COORDINATOR};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{Term, Triple};

const STORAGE_A: NodeId = NodeId(1);
const STORAGE_B: NodeId = NodeId(2);

/// Three index nodes (1000–1002) and two storage nodes: A holds two
/// `x foaf:knows bob/carol` triples, B holds one `dave foaf:knows bob`.
fn overlay() -> Overlay {
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut o = Overlay::new(32, 4, 2, net);
    for i in 0..3u64 {
        let addr = NodeId(1000 + i);
        let pos = o.ring().space().hash(&addr.0.to_be_bytes());
        o.add_index_node(addr, pos).unwrap();
    }
    let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
    let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
    o.add_storage_node(
        STORAGE_A,
        NodeId(1000),
        vec![
            Triple::new(person("alice"), knows.clone(), person("bob")),
            Triple::new(person("alice"), knows.clone(), person("carol")),
        ],
    )
    .unwrap();
    o.add_storage_node(
        STORAGE_B,
        NodeId(1001),
        vec![Triple::new(person("dave"), knows, person("bob"))],
    )
    .unwrap();
    o
}

fn tight() -> LiveConfig {
    LiveConfig {
        ack_timeout: Duration::from_millis(50),
        lookup_timeout: Duration::from_millis(50),
        query_deadline: Duration::from_secs(2),
        retries: 1,
        ..LiveConfig::default()
    }
}

fn spawn(o: &Overlay, cfg: LiveConfig, plan: FaultPlan, transport: Transport) -> LiveMesh {
    LiveMesh::spawn_with_transport(o, cfg, plan, transport).expect("transport binds")
}

const QUERY: &str = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }";

/// Many executions race through one coordinator while a fault plan
/// drops the first sub-query to a provider: every admitted query still
/// completes (the retry machinery is per-query), all answers agree, and
/// nothing is rejected under an ample window.
fn concurrent_executions_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    let plan = FaultPlan::new().drop_nth(COORDINATOR, STORAGE_B, 1);
    let mesh = Arc::new(spawn(&o, cfg, plan, transport));
    const N: usize = 8;
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let mesh = Arc::clone(&mesh);
                s.spawn(move || mesh.execute(QUERY, false, Duration::from_secs(10)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    // Providers answer in nondeterministic order under concurrency, so
    // compare answers as sorted row sets.
    let rows = |result: &rdfmesh_sparql::QueryResult| -> Vec<String> {
        let mut rows: Vec<String> = match result {
            rdfmesh_sparql::QueryResult::Solutions(sols) => {
                sols.iter().map(|s| format!("{s:?}")).collect()
            }
            other => panic!("expected solutions, got {other:?}"),
        };
        rows.sort();
        rows
    };
    let first = rows(&results[0].as_ref().expect("admitted").result);
    assert_eq!(first.len(), 3, "three foaf:knows rows in the corpus");
    for r in &results {
        let exec = r.as_ref().expect("every query admitted under an ample window");
        assert!(exec.complete, "dropped sub-query recovered by retry");
        assert!(exec.failed_providers.is_empty());
        assert_eq!(rows(&exec.result), first, "concurrent answers all agree");
    }
    let stats = mesh.stats();
    assert_eq!(stats[Counter::Admitted], N as u64);
    assert_eq!(stats[Counter::Rejected], 0);
    assert!(stats[Counter::Retries] >= 1, "the dropped frame forced at least one retry");
    mesh.shutdown();
}

/// A rejected query consumes nothing — no solution round, no protocol
/// message — and comes back immediately instead of eating the deadline.
fn rejection_consumes_nothing_scenario(transport: Transport) {
    let o = overlay();
    let cfg = LiveConfig { max_inflight: 1, queue_depth: 0, ..tight() };
    let mesh = spawn(&o, cfg, FaultPlan::new(), transport);
    // Warm up and fence so startup Publish traffic cannot race the
    // message-count baseline below.
    assert!(mesh.execute(QUERY, false, Duration::from_secs(10)).expect("warm-up").complete);
    for ix in o.index_nodes() {
        assert!(mesh.barrier(ix, Duration::from_secs(5)));
    }
    // Saturate the window from outside, then measure a rejected run.
    let permit = mesh.admission().acquire(Duration::from_millis(10)).expect("empty window");
    let rounds_before = mesh.stats()[Counter::SolutionRounds];
    let msgs_before = mesh.message_count();
    let started = Instant::now();
    let err = mesh.execute(QUERY, false, Duration::from_secs(10)).unwrap_err();
    let rejected_in = started.elapsed();
    let LiveError::Overloaded { retry_after } = err else {
        panic!("expected Overloaded, got {err:?}");
    };
    assert!(retry_after >= Duration::from_secs(1));
    assert!(
        rejected_in < cfg.query_deadline,
        "rejection must not wait out the deadline: {rejected_in:?}"
    );
    let stats = mesh.stats();
    assert_eq!(stats[Counter::SolutionRounds], rounds_before, "no provider rounds consumed");
    assert_eq!(mesh.message_count(), msgs_before, "no protocol messages sent");
    assert_eq!(stats[Counter::Rejected], 1);
    // Freeing the slot readmits the identical query.
    drop(permit);
    let exec = mesh.execute(QUERY, false, Duration::from_secs(10)).expect("readmitted");
    assert!(exec.complete);
    mesh.shutdown();
}

#[test]
fn concurrent_executions_pipeline_under_faults() {
    concurrent_executions_scenario(Transport::Threads);
}

#[test]
fn concurrent_executions_pipeline_under_faults_over_sockets() {
    concurrent_executions_scenario(Transport::Sockets);
}

#[test]
fn rejected_queries_consume_no_rounds() {
    rejection_consumes_nothing_scenario(Transport::Threads);
}

#[test]
fn rejected_queries_consume_no_rounds_over_sockets() {
    rejection_consumes_nothing_scenario(Transport::Sockets);
}

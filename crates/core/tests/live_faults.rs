//! Fault-injection tests for the live mesh (docs/FAULTS.md).
//!
//! Every assertion here is deterministic: where an outcome depends on
//! another thread having processed a message, the test fences with
//! [`LiveMesh::barrier`] (FIFO mailboxes make "barrier acked" imply
//! "everything delivered earlier was handled") instead of sleeping.
//!
//! Every scenario is **transport-parameterized**: the same function runs
//! once on [`Transport::Threads`] (crossbeam channels) and once on
//! [`Transport::Sockets`] (framed TCP over loopback), asserting the same
//! outcomes byte for byte. That is the contract `docs/DEPLOYMENT.md`
//! promises: [`rdfmesh_net::FaultPlan`] semantics are adjudicated on the
//! sender's side of the wire, so crash / drop-nth / delay behave
//! identically whether or not a socket sits in the middle.

use std::time::{Duration, Instant};

use rdfmesh_core::{
    Counter, FaultPlan, LiveAnswer, LiveConfig, LiveMesh, LiveMsg, QueryId, Transport, COORDINATOR,
};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{Term, TermPattern, Triple, TriplePattern, Variable};
use rdfmesh_sparql::eval::evaluate_pattern_with;
use rdfmesh_sparql::Solution;

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

fn knows_bob() -> TriplePattern {
    TriplePattern::new(
        TermPattern::var("x"),
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
        Term::iri("http://example.org/bob"),
    )
}

/// Simulator-side oracle: the solutions the overlay's storage nodes
/// would produce, restricted to the given live nodes.
fn oracle(o: &Overlay, pattern: &TriplePattern, live: &[NodeId]) -> Vec<Solution> {
    let mut expected: Vec<Solution> = live
        .iter()
        .flat_map(|n| {
            let store = &o.storage_node(*n).expect("storage node").store;
            evaluate_pattern_with(store, pattern, &[Solution::new()])
        })
        .collect();
    expected.sort();
    expected.dedup();
    expected
}

fn sorted(mut solutions: Vec<Solution>) -> Vec<Solution> {
    solutions.sort();
    solutions
}

/// One single-pattern round through the live protocol.
fn query(mesh: &LiveMesh, pattern: &TriplePattern, wait: Duration) -> LiveAnswer {
    mesh.query_solutions(pattern.clone(), None, None, wait).expect("within deadline")
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

/// Fences the ProviderDead path: the notification enters at the
/// coordinator's entry index node and is forwarded at most once to the
/// key owner, so fencing every index node twice (in any order) fences
/// the whole route.
fn fence_index_nodes(mesh: &LiveMesh, o: &Overlay) {
    for _ in 0..2 {
        for ix in o.index_nodes() {
            assert!(mesh.barrier(ix, Duration::from_secs(5)), "barrier on {ix:?}");
        }
    }
}

// ---- the scenarios, shared verbatim by both transports ---------------

fn crashed_provider_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    // Storage B is down from the start: sends to it fail fast, which the
    // coordinator treats as immediate ack timeouts (Sect. III-D).
    let mesh = spawn(&o, cfg, FaultPlan::new().crash(STORAGE_B), transport);
    let pattern = knows_bob();

    // Before the query, the owner's location table still lists B: the
    // index learns about the crash only lazily, from a failed query.
    let before = mesh.providers_of(&pattern);
    assert_eq!(before, vec![STORAGE_A, STORAGE_B]);

    let answer = query(&mesh, &pattern, cfg.query_deadline);
    assert!(!answer.complete, "a lost provider must be reported");
    assert_eq!(answer.failed_providers, vec![STORAGE_B]);
    assert_eq!(sorted(answer.solutions), oracle(&o, &pattern, &[STORAGE_A]));

    // Lazy removal: the ProviderDead notification was enqueued before the
    // answer was released, so fencing the index route makes it visible.
    fence_index_nodes(&mesh, &o);
    assert_eq!(mesh.providers_of(&pattern), vec![STORAGE_A]);

    let stats = mesh.stats();
    assert_eq!(stats[Counter::AckTimeouts], 1);
    assert_eq!(stats[Counter::ProvidersPurged], 1);
    assert_eq!(stats[Counter::IncompleteQueries], 1);
    assert!(stats[Counter::SendFailures] >= 2, "initial send and its retry both fail");

    // Restart does not resurrect the purged entry (the node must
    // republish, as in the paper's rejoin): the next query is complete
    // over the remaining provider alone.
    assert!(mesh.restart(STORAGE_B));
    let again = query(&mesh, &pattern, cfg.query_deadline);
    assert!(again.complete);
    assert_eq!(sorted(again.solutions), oracle(&o, &pattern, &[STORAGE_A]));
    mesh.shutdown();
}

fn dropped_subquery_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    // Silently lose the first coordinator → A message: that is the
    // sub-query, whose ack deadline must retransmit it.
    let mesh =
        spawn(&o, cfg, FaultPlan::new().drop_nth(COORDINATOR, STORAGE_A, 1), transport);
    let pattern = knows_bob();
    let answer = query(&mesh, &pattern, cfg.query_deadline);
    assert!(answer.complete, "one bounded retry must recover a single drop");
    assert!(answer.failed_providers.is_empty());
    assert_eq!(sorted(answer.solutions), oracle(&o, &pattern, &[STORAGE_A, STORAGE_B]));
    assert_eq!(mesh.dropped_count(), 1);
    let stats = mesh.stats();
    assert_eq!(stats[Counter::Retries], 1);
    assert_eq!(stats[Counter::AckTimeouts], 0, "the provider answered on the retry");
    assert_eq!(stats[Counter::IncompleteQueries], 0);
    mesh.shutdown();
}

fn stale_reply_scenario(transport: Transport) {
    let o = overlay();
    let mesh = spawn(&o, LiveConfig::default(), FaultPlan::new(), transport);
    let pattern = knows_bob();

    let first = query(&mesh, &pattern, Duration::from_secs(10));
    assert!(first.complete);
    assert_eq!(first.solutions.len(), 2);

    // Forge a delayed duplicate of query 1's reply, carrying query 1's
    // id (ids start at 1) and a solution that exists nowhere, arriving
    // between the two queries. The inject happens-before query 2's
    // submission (same FIFO mailbox, same sending thread — and on the
    // socket transport, the same self-link connection).
    let bogus =
        Solution::from_pairs([(Variable::new("x"), Term::iri("http://example.org/mallory"))]);
    mesh.inject(
        STORAGE_A,
        COORDINATOR,
        LiveMsg::Answer { entries: vec![(QueryId(1), vec![vec![bogus.clone()]])] },
    );

    let second = query(&mesh, &pattern, Duration::from_secs(10));
    assert!(second.complete);
    assert!(!second.solutions.contains(&bogus), "stale reply leaked into the next query");
    assert_eq!(sorted(second.solutions), oracle(&o, &pattern, &[STORAGE_A, STORAGE_B]));
    assert_eq!(mesh.stats()[Counter::StaleReplies], 1);
    mesh.shutdown();
}

fn unreachable_index_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    let mut plan = FaultPlan::new();
    for ix in o.index_nodes() {
        plan = plan.crash(ix);
    }
    let mesh = spawn(&o, cfg, plan, transport);
    let answer = query(&mesh, &knows_bob(), cfg.query_deadline);
    assert!(!answer.complete);
    assert!(answer.solutions.is_empty());
    let stats = mesh.stats();
    assert_eq!(stats[Counter::LookupFailures], 1);
    assert_eq!(stats[Counter::SendFailures], 2, "initial lookup and its retry");
    assert_eq!(stats[Counter::IncompleteQueries], 1);
    mesh.shutdown();
}

fn runtime_crash_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    let mesh = spawn(&o, cfg, FaultPlan::new(), transport);
    let pattern = knows_bob();

    let healthy = query(&mesh, &pattern, cfg.query_deadline);
    assert!(healthy.complete);
    assert_eq!(sorted(healthy.solutions), oracle(&o, &pattern, &[STORAGE_A, STORAGE_B]));

    // B crashes at runtime; the very next query degrades gracefully.
    assert!(mesh.crash(STORAGE_B));
    let degraded = query(&mesh, &pattern, cfg.query_deadline);
    assert!(!degraded.complete);
    assert_eq!(degraded.failed_providers, vec![STORAGE_B]);
    assert_eq!(sorted(degraded.solutions), oracle(&o, &pattern, &[STORAGE_A]));

    fence_index_nodes(&mesh, &o);
    assert_eq!(mesh.providers_of(&pattern), vec![STORAGE_A]);
    assert_eq!(mesh.stats()[Counter::ProvidersPurged], 1);

    // With the dead entry purged, the mesh answers complete again.
    let recovered = query(&mesh, &pattern, cfg.query_deadline);
    assert!(recovered.complete);
    assert_eq!(sorted(recovered.solutions), oracle(&o, &pattern, &[STORAGE_A]));
    mesh.shutdown();
}

// ---- thread transport ------------------------------------------------

#[test]
fn crashed_provider_yields_partial_result_and_lazy_purge() {
    crashed_provider_scenario(Transport::Threads);
}

#[test]
fn dropped_subquery_is_retried_to_a_complete_answer() {
    dropped_subquery_scenario(Transport::Threads);
}

#[test]
fn stale_reply_from_an_earlier_query_cannot_contaminate_the_next() {
    stale_reply_scenario(Transport::Threads);
}

#[test]
fn unreachable_index_fails_the_lookup_within_the_deadline() {
    unreachable_index_scenario(Transport::Threads);
}

#[test]
fn runtime_crash_between_queries_degrades_then_purges() {
    runtime_crash_scenario(Transport::Threads);
}

// ---- socket transport: the same scenarios over loopback TCP ----------

#[test]
fn crashed_provider_yields_partial_result_and_lazy_purge_over_sockets() {
    crashed_provider_scenario(Transport::Sockets);
}

#[test]
fn dropped_subquery_is_retried_to_a_complete_answer_over_sockets() {
    dropped_subquery_scenario(Transport::Sockets);
}

#[test]
fn stale_reply_from_an_earlier_query_cannot_contaminate_the_next_over_sockets() {
    stale_reply_scenario(Transport::Sockets);
}

#[test]
fn unreachable_index_fails_the_lookup_within_the_deadline_over_sockets() {
    unreachable_index_scenario(Transport::Sockets);
}

#[test]
fn runtime_crash_between_queries_degrades_then_purges_over_sockets() {
    runtime_crash_scenario(Transport::Sockets);
}

// ---- twin assertion: answers are identical across transports ---------

/// Runs the crashed-provider query on both transports and asserts the
/// [`rdfmesh_core::LiveAnswer`]s are *equal*, not merely both partial —
/// same surviving solutions, same failure report. The socket transport
/// must also have pushed every protocol message through real frames.
#[test]
fn socket_and_thread_transports_return_identical_answers() {
    let pattern = knows_bob();
    let answers: Vec<_> = [Transport::Threads, Transport::Sockets]
        .into_iter()
        .map(|t| {
            let o = overlay();
            let cfg = tight();
            let mesh = spawn(&o, cfg, FaultPlan::new().crash(STORAGE_B), t);
            let mut answer = query(&mesh, &pattern, cfg.query_deadline);
            answer.solutions.sort();
            let wire = mesh.stats();
            if t == Transport::Sockets {
                assert!(wire[Counter::FramesSent] > 0, "protocol must actually cross the socket");
                assert_eq!(wire[Counter::DecodeErrors], 0);
            } else {
                let transport = wire.iter().filter(|(c, _)| c.name().starts_with("transport."));
                for (counter, value) in transport {
                    assert_eq!(value, 0, "threads have no wire, yet {} moved", counter.name());
                }
            }
            mesh.shutdown();
            answer
        })
        .collect();
    assert_eq!(answers[0], answers[1], "transports disagreed on the same scenario");
}

// ---- a large single-pattern gather ------------------------------------

/// One provider holds 10^5 matches for one pattern. The gather must stay
/// linear and must never stall the coordinator thread: the big answer is
/// complete and equals the oracle, the provider stays indexed, and small
/// queries submitted while it is in flight each finish within their
/// deadline. A fixed ack deadline does not scale with answer size, so
/// the one here is sized for a 10^5-row answer: the test isolates the
/// gather, not the deadline.
#[test]
#[cfg_attr(debug_assertions, ignore = "10^5-row gather; run with --release")]
fn large_single_pattern_gather_stays_complete_and_live() {
    const ROWS: usize = 100_000;
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut o = Overlay::new(32, 4, 2, net);
    for i in 0..3u64 {
        let addr = NodeId(1000 + i);
        let pos = o.ring().space().hash(&addr.0.to_be_bytes());
        o.add_index_node(addr, pos).unwrap();
    }
    let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
    let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
    let big: Vec<Triple> = (0..ROWS)
        .map(|i| Triple::new(person(&format!("person{i}")), knows.clone(), person("bob")))
        .collect();
    o.add_storage_node(STORAGE_A, NodeId(1000), big).unwrap();
    let small_row = Triple::new(person("dave"), knows.clone(), person("carol"));
    o.add_storage_node(STORAGE_B, NodeId(1001), vec![small_row]).unwrap();
    let cfg = LiveConfig { ack_timeout: Duration::from_secs(2), ..LiveConfig::default() };
    let mesh = spawn(&o, cfg, FaultPlan::new(), Transport::Threads);
    let pattern = knows_bob();
    let small = TriplePattern::new(TermPattern::var("x"), knows, person("carol"));

    let big_round = mesh.submit_solutions(pattern.clone(), None, None);
    let waiter = std::thread::spawn(move || big_round.wait(Duration::from_secs(60)));
    let mut small_rounds = 0;
    while !waiter.is_finished() {
        let started = Instant::now();
        let answer = query(&mesh, &small, cfg.query_deadline);
        assert!(started.elapsed() < cfg.query_deadline, "small query stalled behind the gather");
        assert!(answer.complete);
        assert_eq!(sorted(answer.solutions), oracle(&o, &small, &[STORAGE_A, STORAGE_B]));
        small_rounds += 1;
    }
    assert!(small_rounds >= 1, "a small query ran while the big one was in flight");

    let answer = waiter.join().expect("waiter thread").expect("big round answers");
    assert!(answer.complete, "failed: {:?}", answer.failed_providers);
    assert_eq!(answer.solutions.len(), ROWS);
    assert_eq!(sorted(answer.solutions), oracle(&o, &pattern, &[STORAGE_A, STORAGE_B]));
    fence_index_nodes(&mesh, &o);
    assert_eq!(mesh.providers_of(&pattern), vec![STORAGE_A], "the provider stays indexed");
    assert_eq!(mesh.stats()[Counter::ProvidersPurged], 0);
    mesh.shutdown();
}

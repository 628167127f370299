//! §E18 — Socket-transport parity: the same mesh over real TCP frames.
//!
//! PR 6 put a transport seam under the live mesh: the identical protocol
//! runs over crossbeam channels ([`Transport::Threads`]) or over framed
//! loopback TCP sockets ([`Transport::Sockets`]). This experiment runs
//! the E17 full-SPARQL workload through the simulator and through *both*
//! live transports over the same data placement, asserting all three
//! produce identical solution sets — then prices what the socket path
//! costs: wire frames, on-wire bytes, and the wall-clock ratio against
//! the in-process channel transport. The `transport.*` metrics land in
//! `BENCH_socket_parity.json` in CI.

use std::time::{Duration, Instant};

use rdfmesh_core::{Counter, ExecConfig, FaultPlan, LiveConfig, LiveMesh, Transport};
use rdfmesh_sparql::{QueryResult, Solution};
use rdfmesh_workload::{foaf, FoafConfig};

use crate::{print_table, testbed_from};

const QUERIES: &[(&str, &str)] = &[
    ("chain-2", "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }"),
    ("star-3", "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . ?x foaf:knows ?y . }"),
    ("union", "SELECT * WHERE { { ?x foaf:nick ?v . } UNION { ?x foaf:mbox ?v . } }"),
    ("optional", "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . } }"),
    ("filter", "SELECT * WHERE { ?x foaf:age ?a . FILTER (?a >= 30 && ?a < 60) }"),
    ("distinct", "SELECT DISTINCT ?x WHERE { ?x foaf:knows ?y . } ORDER BY ?x"),
];

fn solutions(result: &QueryResult) -> Vec<Solution> {
    match result {
        QueryResult::Solutions(s) => {
            let mut s = s.clone();
            s.sort();
            s
        }
        other => panic!("workload queries are SELECTs, got {other:?}"),
    }
}

/// Runs the parity workload over both transports and prints the table.
pub fn run() {
    let data = foaf::generate(&FoafConfig { persons: 40, peers: 6, ..Default::default() });
    let mut testbed = testbed_from(&data.peers, 4);
    let cfg = ExecConfig { overlap_aware: false, range_index: false, ..ExecConfig::default() };
    let threads = LiveMesh::spawn(&testbed.overlay);
    let sockets = LiveMesh::spawn_with_transport(
        &testbed.overlay,
        LiveConfig::default(),
        FaultPlan::new(),
        Transport::Sockets,
    )
    .expect("loopback sockets bind");

    let mut rows = Vec::new();
    for (label, query) in QUERIES {
        let sim = testbed.run_full(cfg, query);
        let wire_before = sockets.stats();

        let started = Instant::now();
        let on_threads =
            threads.execute(query, cfg.bind_join, Duration::from_secs(30)).expect("threads run");
        let threads_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let on_sockets =
            sockets.execute(query, cfg.bind_join, Duration::from_secs(30)).expect("sockets run");
        let sockets_ms = started.elapsed().as_secs_f64() * 1e3;
        let wire = sockets.stats();

        assert!(on_threads.complete && on_sockets.complete, "fault-free run: {label}");
        let sim_sols = solutions(&sim.result);
        assert_eq!(sim_sols, solutions(&on_threads.result), "sim vs threads: {label}");
        assert_eq!(sim_sols, solutions(&on_sockets.result), "sim vs sockets: {label}");
        rows.push(vec![
            (*label).to_string(),
            sim_sols.len().to_string(),
            "yes".to_string(),
            on_sockets.rounds.to_string(),
            (wire[Counter::FramesSent] - wire_before[Counter::FramesSent]).to_string(),
            (wire[Counter::BytesSent] - wire_before[Counter::BytesSent]).to_string(),
            format!("{threads_ms:.1}"),
            format!("{sockets_ms:.1}"),
        ]);
    }
    let wire = sockets.stats();
    threads.shutdown();
    sockets.shutdown();
    assert_eq!(wire[Counter::DecodeErrors], 0, "loopback parity run must decode every frame");

    print_table(
        "Socket-transport parity: identical answers over channels and framed TCP \
         (40 persons / 6 peers, bind_join off)",
        &[
            "query",
            "results",
            "parity",
            "rounds",
            "wire frames",
            "wire bytes",
            "threads ms",
            "sockets ms",
        ],
        &rows,
    );
    println!(
        "\nwire totals: frames_sent={} frames_received={} bytes_sent={} \
         connects={} reconnects={} decode_errors={}",
        wire[Counter::FramesSent],
        wire[Counter::FramesReceived],
        wire[Counter::BytesSent],
        wire[Counter::Connects],
        wire[Counter::Reconnects],
        wire[Counter::DecodeErrors],
    );
    println!("\nShape check: the transport is invisible to the answer — simulator,");
    println!("channel mesh, and socket mesh agree on every solution set. The");
    println!("socket column prices the difference: every protocol message is a");
    println!("length-prefixed frame over loopback TCP, so the same rounds cost");
    println!("real syscalls and wire bytes, with wall-clock typically within a");
    println!("small factor of the in-process channel transport.");
}

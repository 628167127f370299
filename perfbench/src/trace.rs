//! The traced run: the per-layer split.
//!
//! It measures only from outside the program, in three parts:
//!
//! 1. The workload's phases over HTTP against the three serve processes,
//!    as in the end-to-end run, with `/metrics` scraped before and after:
//!    live-protocol, admission and transport counters.
//! 2. The same store directories reopened in this process behind three
//!    in-process `MeshNode`s on loopback. A sample of the workload's
//!    queries runs once over HTTP and once through `MeshNode::execute`
//!    (the endpoint's overhead), then through `live_execute_with` behind
//!    a [`Timed`] `SolutionRounds` wrapper, with `parse_query`,
//!    `optimize` + `compile`, wire encode/decode, `DistinctBuffer` and
//!    `to_json` timed on their own.
//! 3. The row path on one answer each of 10⁴, 10⁵ and 10⁶ rows, from a
//!    store built for it.

use std::io::Read;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rdfmesh::core::live_backend::live_execute_with;
use rdfmesh::core::{DistStrategy, ExecConfig, LiveAnswer, LiveConfig, MeshNode, SolutionRounds};
use rdfmesh::rdf::Variable;
use rdfmesh::sparql::solution::wire;
use rdfmesh::sparql::{
    eval, optimize, parse_query, to_json, DistinctBuffer, Expression, QueryResult, Solution,
};
use rdfmesh::{
    LoadConfig, PatternSource, PersistentStore, Term, TermPattern, Triple, TriplePattern,
};

use crate::http::{self, Outcome};
use crate::load::{self, median, quantile, Phase, Target};
use crate::mesh::Scrape;
use crate::report::{Metrics, Raw};
use crate::{corpus, drive, start_mesh, Args, Inputs, Tally, Workload, WARM_QUERY};

/// Caller-side wait per round, as `rdfmesh serve` sets it.
const WAIT: Duration = Duration::from_secs(25);
/// Rows of each rung of the row-path ladder, and its metric suffix.
const LADDER: [(usize, &str); 3] = [(10_000, "1e4"), (100_000, "1e5"), (1_000_000, "1e6")];
/// Store lookups timed per key set.
const STORE_LOOKUPS: usize = 2_000;

/// Times every solution round the wrapped node resolves.
struct Timed<'a> {
    node: &'a MeshNode,
    rounds_us: Mutex<Vec<f64>>,
}

impl Timed<'_> {
    fn timed(&self, round: impl FnOnce() -> Option<LiveAnswer>) -> Option<LiveAnswer> {
        let t = Instant::now();
        let answer = round();
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.rounds_us.lock().expect("round log lock").push(us);
        answer
    }
}

impl SolutionRounds for Timed<'_> {
    fn solution_round(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
        wait: Duration,
    ) -> Option<LiveAnswer> {
        self.timed(|| self.node.solution_round(pattern, filter, bound, wait))
    }

    fn multiway_round(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
        wait: Duration,
    ) -> Option<LiveAnswer> {
        self.timed(|| {
            self.node
                .multiway_round(patterns, join_vars, strategy, wait)
        })
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ns_per_row(t: Instant, rows: usize) -> f64 {
    t.elapsed().as_secs_f64() * 1e9 / rows.max(1) as f64
}

/// The queries timed in-process: a prefix of the workload's open-loop
/// pool.
fn sample(workload: Workload, inputs: &Inputs) -> Vec<String> {
    let n = match workload {
        Workload::Lookup => 300,
        Workload::Scan => 40,
    };
    inputs.open[..n].to_vec()
}

/// Runs the traced variant of `args.workload`; returns the tally of every
/// request checked over HTTP.
pub fn run(args: &Args, inputs: &Inputs, dir: &Path, out: &mut Metrics) -> Result<Tally, String> {
    let mut raw = Raw::new(args, inputs);
    let queries = sample(args.workload, inputs);

    // 1. The serving path, counters scraped around the phases.
    let mut mesh = start_mesh(args, inputs, dir, 0)?;
    let endpoints: Vec<_> = (0..corpus::PROCESSES).map(|i| mesh.http(i)).collect();
    let target = Target {
        endpoints: &endpoints,
        oracle: &inputs.oracle,
    };
    let (closed, open, scrapes) = drive(args.workload, &mesh, target, inputs, args.seconds)?;
    let (before, after) = (&scrapes[0], &scrapes[scrapes.len() - 1]);
    // One connection, one query at a time, all to process 1, which
    // coordinates the in-process pass too: the HTTP side of the endpoint
    // overhead.
    let first = [mesh.http(0)];
    let single = load::closed_sequence(
        Target {
            endpoints: &first,
            ..target
        },
        &queries,
    );
    let http_ms: Vec<f64> = single.samples.iter().map(|s| s.latency_ms).collect();
    mesh.stop();
    let all = closed.clone().merge(open.clone()).merge(single.clone());
    serving_metrics(out, before, after, &open, &all);
    out.put(
        "membership.converge_ms",
        mesh.converge.as_secs_f64() * 1e3,
        "ms",
    );
    out.put(
        "membership.warm_retries",
        f64::from(mesh.warm_retries),
        "count",
    );
    raw.phase("closed", &closed, &inputs.closed);
    raw.phase("open", &open, &inputs.open);
    raw.phase("single", &single, &queries);
    raw.scrapes(&scrapes);

    // 2. In-process mesh over the same stores.
    {
        let nodes = in_process_mesh(mesh.stores())?;
        let node = &nodes[0];
        let cfg = ExecConfig {
            bind_join: true,
            ..ExecConfig::default()
        };
        // The serve processes had answered these queries before the
        // timed pass; the reopened stores get one untimed pass too.
        for q in &queries {
            node.execute(q, true, WAIT)
                .map_err(|e| format!("in-process execute: {e}"))?;
        }
        let mut inproc_ms = Vec::new();
        for q in &queries {
            let t = Instant::now();
            node.execute(q, true, WAIT)
                .map_err(|e| format!("in-process execute: {e}"))?;
            inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let overhead: Vec<f64> = http_ms
            .iter()
            .zip(&inproc_ms)
            .map(|(h, i)| (h - i) * 1e3)
            .collect();
        out.put("endpoint.overhead_us", median(&overhead), "us");
        layer_metrics(out, &mut raw, node, &queries, &cfg, inputs)?;
    }

    // Store lookups and scans against one reopened store.
    store_metrics(out, &mesh.stores()[0], args.seed)?;
    drop(mesh);

    // 3. The row-path ladder.
    ladder(out, &dir.join("ladder"))?;

    raw.emit();
    Ok(Tally::of(&all))
}

/// Counter deltas of the serving phases, and their derived ratios.
fn serving_metrics(out: &mut Metrics, before: &Scrape, after: &Scrape, open: &Phase, all: &Phase) {
    let d = |name: &str| after.delta(before, name);
    let queries = d("live.admitted").max(1.0);
    let rounds = d("live.solution_rounds").max(1.0);
    let late: Vec<f64> = open.samples.iter().map(|s| s.late_ms).collect();
    out.put(
        "endpoint.rejected_503",
        all.count(Outcome::Rejected) as f64,
        "count",
    );
    out.put("admission.queued", d("live.queued"), "count");
    out.put("admission.rejected", d("live.rejected"), "count");
    out.put("live.rounds_per_query", rounds / queries, "ratio");
    out.put(
        "live.retries_per_round",
        d("live.retries") / rounds,
        "ratio",
    );
    for name in [
        "ack_timeouts",
        "providers_purged",
        "stale_replies",
        "incomplete_queries",
    ] {
        out.put(&format!("live.{name}"), d(&format!("live.{name}")), "count");
    }
    out.put(
        "net.frames_per_query",
        d("transport.frames_sent") / queries,
        "count",
    );
    out.put(
        "net.bytes_per_query",
        d("transport.bytes_sent") / queries,
        "B",
    );
    out.put(
        "net.bytes_per_row",
        d("transport.bytes_sent") / d("live.solutions_shipped").max(1.0),
        "B",
    );
    out.put("net.reconnects", d("transport.reconnects"), "count");
    out.put("net.decode_errors", d("transport.decode_errors"), "count");
    let load_s = after
        .counters
        .get("store.load.micros")
        .copied()
        .unwrap_or(0.0)
        / 1e6;
    let loaded = after
        .counters
        .get("store.load.statements")
        .copied()
        .unwrap_or(0.0);
    out.put("store.load_triples_per_s", loaded / load_s.max(1e-9), "1/s");
    out.put("loadgen.late_ms", quantile(&late, 0.99), "ms");
}

/// Three `MeshNode`s in this process, one per reopened store directory,
/// joined into one mesh.
fn in_process_mesh(stores: &[std::path::PathBuf]) -> Result<Vec<MeshNode>, String> {
    let mut nodes = Vec::new();
    for (i, dir) in stores.iter().enumerate() {
        let ps = PersistentStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let node = MeshNode::start(
            "127.0.0.1:0",
            i as u64 + 1,
            ps.into_shared(),
            LiveConfig::default(),
        )
        .map_err(|e| format!("in-process node: {e}"))?;
        if let Some(seed) = nodes.first().map(|n: &MeshNode| n.local_addr()) {
            if !node.join(seed) {
                return Err("in-process join failed".into());
            }
        }
        nodes.push(node);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while nodes.iter().any(|n| n.member_count() < nodes.len()) {
        if Instant::now() > deadline {
            return Err("in-process mesh did not converge".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    nodes[0]
        .execute(WARM_QUERY, true, WAIT)
        .map_err(|e| format!("in-process warm query: {e}"))?;
    Ok(nodes)
}

/// Parser, planner, live rounds, wire, gather and results on the sample,
/// and the tracing overhead.
fn layer_metrics(
    out: &mut Metrics,
    raw: &mut Raw,
    node: &MeshNode,
    queries: &[String],
    cfg: &ExecConfig,
    inputs: &Inputs,
) -> Result<(), String> {
    let timed = Timed {
        node,
        rounds_us: Mutex::new(Vec::new()),
    };
    let plan_cfg = ExecConfig {
        overlap_aware: false,
        range_index: false,
        ..*cfg
    };
    let (mut parse_us, mut plan_us, mut with_us, mut without_us) = (vec![], vec![], vec![], vec![]);
    let mut answers = Vec::new();
    for q in queries {
        let t = Instant::now();
        let parsed = parse_query(q).map_err(|e| format!("parse: {e}"))?;
        parse_us.push(us(t));
        let t = Instant::now();
        let pattern = optimize(parsed.pattern.clone(), &plan_cfg.optimizer);
        std::hint::black_box(rdfmesh::core::compile(&pattern, &plan_cfg));
        plan_us.push(us(t));

        // With and without the wrapper, alternating which goes first.
        let mut runs = [0.0; 2];
        let order: [bool; 2] = if with_us.len() % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        let mut result = None;
        for wrapped in order {
            let t = Instant::now();
            let exec = if wrapped {
                live_execute_with(&timed, q, cfg, WAIT)
            } else {
                live_execute_with(node, q, cfg, WAIT)
            }
            .map_err(|e| format!("live_execute_with: {e}"))?;
            runs[usize::from(wrapped)] = us(t);
            result = Some(exec);
        }
        without_us.push(runs[0]);
        with_us.push(runs[1]);
        let exec = result.expect("ran twice");
        let expected = inputs.oracle.expected(q);
        let digest = http::digest_bindings(to_json(&exec.result).as_bytes());
        if !exec.complete || digest != Some((expected.rows, expected.digest)) {
            return Err(format!("in-process answer differs from the oracle: {q}"));
        }
        if let QueryResult::Solutions(rows) = exec.result {
            answers.push(rows);
        }
    }
    let rounds = timed.rounds_us.into_inner().expect("round log lock");
    out.put("parser.parse_us", median(&parse_us), "us");
    out.put("planner.plan_us", median(&plan_us), "us");
    out.put("live.round_us.p50", median(&rounds), "us");
    out.put("live.round_us.p99", quantile(&rounds, 0.99), "us");
    let overhead: Vec<f64> = with_us
        .iter()
        .zip(&without_us)
        .map(|(w, o)| (w / o - 1.0) * 100.0)
        .collect();
    out.put("trace.overhead_pct", median(&overhead), "%");
    raw.value("trace.with_wrapper_us.median", median(&with_us));
    raw.value("trace.without_wrapper_us.median", median(&without_us));

    // The row-path layers over the sample's own answers.
    let rows: usize = answers.iter().map(Vec::len).sum();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = answers.iter().map(|a| wire::encode(a)).collect();
    out.put("wire.encode_ns_per_row", ns_per_row(t, rows), "ns");
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    out.put("wire.bytes_per_row", bytes as f64 / rows.max(1) as f64, "B");
    let t = Instant::now();
    let decoded: Vec<Vec<Solution>> = encoded
        .iter()
        .map(|b| wire::decode(b))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("decode: {e:?}"))?;
    out.put("wire.decode_ns_per_row", ns_per_row(t, rows), "ns");
    let t = Instant::now();
    let deduped: Vec<Vec<Solution>> = decoded
        .into_iter()
        .map(|a| {
            let mut buf = DistinctBuffer::new();
            buf.extend_distinct(a);
            buf.into_vec()
        })
        .collect();
    out.put("gather.dedup_ns_per_row", ns_per_row(t, rows), "ns");
    let t = Instant::now();
    let json_bytes: usize = deduped
        .into_iter()
        .map(|a| to_json(&QueryResult::Solutions(a)).len())
        .sum();
    out.put("results.json_ns_per_row", ns_per_row(t, rows), "ns");
    out.put(
        "results.json_bytes_per_row",
        json_bytes as f64 / rows.max(1) as f64,
        "B",
    );
    raw.value("sample.queries", queries.len() as f64);
    raw.value("sample.rows", rows as f64);
    Ok(())
}

/// Subject lookups against the cold key set (every student of the store,
/// uniformly) and the hot key set (20 students, warmed first), and a scan.
fn store_metrics(out: &mut Metrics, dir: &Path, seed: u64) -> Result<(), String> {
    let store = PersistentStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rng = rdfmesh::workload::Rng::new(seed ^ 0x57_02E);
    // Process 0 holds the departments d with d % 3 == 0.
    let key = |d: usize, i: usize| {
        TriplePattern::new(
            Term::iri(&format!("http://example.org/univ/d{d}/student{i}")),
            TermPattern::var("p"),
            TermPattern::var("o"),
        )
    };
    let cold: Vec<TriplePattern> = (0..STORE_LOOKUPS)
        .map(|_| {
            let d = corpus::PROCESSES
                * rng.below((corpus::DEPARTMENTS / corpus::PROCESSES) as u64) as usize;
            key(d, rng.below(corpus::STUDENTS as u64) as usize)
        })
        .collect();
    let hot: Vec<TriplePattern> = (0..corpus::HOT_STUDENTS).map(|i| key(0, i)).collect();
    let time = |patterns: &[TriplePattern], n: usize| -> Vec<f64> {
        (0..n)
            .map(|k| {
                let mut rows = 0usize;
                let t = Instant::now();
                store.for_each_match(&patterns[k % patterns.len()], &mut |_| rows += 1);
                std::hint::black_box(rows);
                us(t)
            })
            .collect()
    };
    let cold_us = time(&cold, cold.len());
    time(&hot, hot.len());
    let hot_us = time(&hot, STORE_LOOKUPS);
    out.put("store.lookup_us.cold", median(&cold_us), "us");
    out.put("store.lookup_us.hot", median(&hot_us), "us");
    let students = TriplePattern::new(
        TermPattern::var("x"),
        Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
        Term::iri(rdfmesh::workload::university::ub::STUDENT),
    );
    let mut scans = Vec::new();
    for _ in 0..5 {
        let mut rows = 0usize;
        let t = Instant::now();
        store.for_each_match(&students, &mut |_| rows += 1);
        scans.push(ns_per_row(t, rows));
    }
    out.put("store.scan_ns_per_row", median(&scans), "ns");
    Ok(())
}

/// Streams the ladder corpus as N-Triples: for each rung, `rows` triples
/// on a predicate of its own, with distinct subjects.
struct LadderText {
    rung: usize,
    i: usize,
    line: Vec<u8>,
    pos: usize,
}

fn ladder_predicate(rung: usize) -> String {
    format!("http://example.org/ladder#rows{}", LADDER[rung].1)
}

impl Read for LadderText {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.line.len() {
            while self.rung < LADDER.len() && self.i == LADDER[self.rung].0 {
                self.rung += 1;
                self.i = 0;
            }
            if self.rung == LADDER.len() {
                return Ok(0);
            }
            self.line = format!(
                "<http://example.org/ladder/person/{:08}> <{}> <http://example.org/ladder/group/{:04}> .\n",
                self.i,
                ladder_predicate(self.rung),
                self.i % 1000
            )
            .into_bytes();
            self.pos = 0;
            self.i += 1;
        }
        let n = buf.len().min(self.line.len() - self.pos);
        buf[..n].copy_from_slice(&self.line[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The row path on one answer of each rung: store scan, `Solution`
/// building, wire encode and decode, `DistinctBuffer` dedup, `to_json`.
fn ladder(out: &mut Metrics, dir: &Path) -> Result<(), String> {
    let mut store = PersistentStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let text = LadderText {
        rung: 0,
        i: 0,
        line: Vec::new(),
        pos: 0,
    };
    store
        .bulk_load(text, &LoadConfig::default())
        .map_err(|e| format!("ladder load: {e}"))?;
    for (rung, &(rows, suffix)) in LADDER.iter().enumerate() {
        let pattern = TriplePattern::new(
            TermPattern::var("s"),
            Term::iri(&ladder_predicate(rung)),
            TermPattern::var("o"),
        );
        let mut put =
            |name: &str, value: f64, unit: &str| out.put(&format!("{name}.{suffix}"), value, unit);
        let t = Instant::now();
        let mut triples: Vec<Triple> = Vec::with_capacity(rows);
        store.for_each_match(&pattern, &mut |tr| triples.push(tr));
        put("store.scan_ns_per_row", ns_per_row(t, rows), "ns");
        if triples.len() != rows {
            return Err(format!(
                "ladder rung {suffix}: {} rows, expected {rows}",
                triples.len()
            ));
        }
        let t = Instant::now();
        let unit = Solution::new();
        let sols: Vec<Solution> = triples
            .iter()
            .filter_map(|tr| eval::extend(&pattern, tr, &unit))
            .collect();
        put("rows.build_ns_per_row", ns_per_row(t, rows), "ns");
        drop(triples);
        let t = Instant::now();
        let bytes = wire::encode(&sols);
        put("wire.encode_ns_per_row", ns_per_row(t, rows), "ns");
        drop(sols);
        let t = Instant::now();
        let decoded = wire::decode(&bytes).map_err(|e| format!("ladder decode: {e:?}"))?;
        put("wire.decode_ns_per_row", ns_per_row(t, rows), "ns");
        drop(bytes);
        let t = Instant::now();
        let mut buf = DistinctBuffer::new();
        buf.extend_distinct(decoded);
        let distinct = buf.into_vec();
        put("gather.dedup_ns_per_row", ns_per_row(t, rows), "ns");
        let t = Instant::now();
        let json = to_json(&QueryResult::Solutions(distinct));
        put("results.json_ns_per_row", ns_per_row(t, rows), "ns");
        std::hint::black_box(json);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

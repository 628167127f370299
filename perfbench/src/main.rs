//! Serving-path benchmark for rdfmesh.
//!
//! ```text
//! perfbench --workload lookup|scan --seed N --seconds S --trace 0|1
//!           --rdfmesh PATH --work DIR [--commit ID] [--rustc VERSION]
//! ```
//!
//! Starts three `rdfmesh serve` processes on loopback, each bulk-loading
//! its share of a seeded university corpus, drives one workload over HTTP
//! and checks every answer against an oracle. With `--trace 0` the last
//! stdout line reports the end-to-end metrics; with `--trace 1` it reports
//! the per-layer metrics of a traced run. `perfbench/README.md` defines
//! every metric and workload; `perfbench/run.py` builds and runs this.

mod corpus;
mod http;
mod load;
mod mesh;
mod report;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use corpus::{Corpus, Oracle};
use load::{Phase, Target};
use mesh::{HostCpu, Mesh, Scrape};
use report::Metrics;

/// Meshes set up per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Unmeasured load before the measured phases, so caches and lazy
/// set-up settle first.
const WARMUP: Duration = Duration::from_millis(500);
/// A query every process takes part in: the set-up's warm query.
const WARM_QUERY: &str = "SELECT ?d WHERE { ?d <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/univ#Department> . }";

/// The traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Selective 1–10-row queries over cold subjects.
    Lookup,
    /// Analytic 10³–6×10⁴-row queries.
    Scan,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "lookup" => Some(Workload::Lookup),
            "scan" => Some(Workload::Scan),
            _ => None,
        }
    }

    /// Offered rate of the open-loop phase, in requests per second, fixed
    /// so every commit gets the same offered load. `lookup` runs at about a
    /// quarter of the closed-loop qps measured on the benchmark's first
    /// commit and `scan` at about half: at half, a lookup backlog left by a
    /// host stall drains at the spare capacity, which a few percent of lost
    /// CPU halves, and the latency figures follow the host more than the
    /// mesh.
    fn open_rate(self) -> f64 {
        match self {
            Workload::Lookup => 500.0,
            Workload::Scan => 8.0,
        }
    }

    /// The tail percentile of `tail_ms` and the window it is taken over.
    /// `scan` takes the highest percentile that leaves at least 10 of its
    /// 144 open-loop samples (at `--seconds 36`) beyond it, over the whole
    /// phase. `lookup` takes p90 in each 1-s window of 500 samples and
    /// reports the median over the windows: the host takes a vCPU away
    /// for a few ms at a time, and a lookup takes about 1 ms, so p90 over
    /// the whole phase follows every second of steal, the median only
    /// steal in most seconds (README.md). A change that slows the mesh in
    /// more than half of the seconds still moves the median.
    fn tail(self) -> (f64, Option<f64>) {
        match self {
            Workload::Lookup => (0.90, Some(1.0)),
            Workload::Scan => (0.90, None),
        }
    }
}

/// Parsed command line.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rdfmesh: PathBuf,
    work: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut rdfmesh, mut work) = (None, None);
    let (mut commit, mut rustc) = (String::from("unknown"), String::from("unknown"));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                })
            }
            "--rdfmesh" => rdfmesh = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            "--rustc" => rustc = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or_else(|| need("--seconds (> 0)"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        rdfmesh: rdfmesh.ok_or_else(|| need("--rdfmesh"))?,
        work: work.ok_or_else(|| need("--work"))?,
        commit,
        rustc,
    })
}

/// A working directory removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The corpus on disk, the query pools and their oracle.
pub struct Inputs {
    corpus: Corpus,
    shares: Vec<PathBuf>,
    /// Closed-loop pool.
    closed: Vec<String>,
    /// Open-loop pool.
    open: Vec<String>,
    oracle: Oracle,
}

impl Inputs {
    fn make(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
        let corpus = Corpus::generate(seed);
        let shares: Vec<PathBuf> = (0..corpus::PROCESSES)
            .map(|i| dir.join(format!("share{i}.nt")))
            .collect();
        for (i, path) in shares.iter().enumerate() {
            corpus
                .write_share(i, path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let (closed, open) = match workload {
            Workload::Lookup => {
                let mut pool = corpus::cold_lookups(seed, 49_000);
                let open = pool.split_off(40_000);
                (pool, open)
            }
            Workload::Scan => {
                let mut pool = corpus::scans(seed, 2_000);
                let open = pool.split_off(1_000);
                (pool, open)
            }
        };
        let store = corpus.oracle_store();
        let oracle = Oracle::build(
            &store,
            closed.iter().chain(&open).chain([&WARM_QUERY.to_string()]),
        );
        Ok(Inputs {
            corpus,
            shares,
            closed,
            open,
            oracle,
        })
    }
}

/// Starts a fresh mesh whose store directories are `tag`-suffixed.
fn start_mesh(args: &Args, inputs: &Inputs, dir: &Path, tag: usize) -> Result<Mesh, String> {
    let stores = (0..corpus::PROCESSES)
        .map(|i| dir.join(format!("store{tag}-{i}")))
        .collect();
    Mesh::start(
        &args.rdfmesh,
        &inputs.shares,
        stores,
        WARM_QUERY,
        inputs.oracle.expected(WARM_QUERY),
    )
}

/// The measured phases of `workload` against a running mesh, after an
/// unmeasured warm-up: `(closed, open, scrapes)`, with the mesh scraped
/// before, between and after the phases.
fn drive(
    workload: Workload,
    mesh: &Mesh,
    target: Target<'_>,
    inputs: &Inputs,
    seconds: u64,
) -> Result<(Phase, Phase, Vec<Scrape>), String> {
    let conns = nproc();
    let half = Duration::from_secs(seconds) / 2;
    load::closed(target, &inputs.closed, conns, WARMUP);
    let before = mesh.scrape()?;
    let closed = load::closed(target, &inputs.closed, conns, half);
    let between = mesh.scrape()?;
    let open = load::open(target, &inputs.open, conns, workload.open_rate(), half);
    Ok((closed, open, vec![before, between, mesh.scrape()?]))
}

/// Connections and threads the generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The end-to-end run: `SETUPS` set-ups, then the measured phases on the
/// last mesh.
fn run_end_to_end(
    args: &Args,
    inputs: &Inputs,
    dir: &Path,
    out: &mut Metrics,
) -> Result<Tally, String> {
    let (mut setups, mut warm_retries, mut steal) = (Vec::new(), Vec::new(), Vec::new());
    let mut mesh = None;
    for tag in 0..SETUPS {
        drop(mesh.take()); // the previous mesh is stopped and removed first
        let host = HostCpu::now();
        let m = start_mesh(args, inputs, dir, tag)?;
        steal.push(HostCpu::now().steal_pct_since(&host));
        setups.push(m.setup.as_secs_f64());
        warm_retries.push(f64::from(m.warm_retries));
        mesh = Some(m);
    }
    let mesh = mesh.expect("SETUPS > 0");
    let disk = mesh.disk_bytes() as f64;
    let endpoints: Vec<_> = (0..corpus::PROCESSES).map(|i| mesh.http(i)).collect();
    let target = Target {
        endpoints: &endpoints,
        oracle: &inputs.oracle,
    };
    let (closed, open, scrapes) = drive(args.workload, &mesh, target, inputs, args.seconds)?;
    let tally = Tally::of(&closed.clone().merge(open.clone()));
    let lat: Vec<f64> = open.samples.iter().map(|s| s.latency_ms).collect();
    let late: Vec<f64> = open.samples.iter().map(|s| s.late_ms).collect();

    out.put("setup_s", load::median(&setups), "s");
    out.put("qps", closed.qps(), "1/s");
    out.put("p50_ms", load::median(&lat), "ms");
    let (tail, window) = args.workload.tail();
    out.put(
        "tail_ms",
        load::windowed_quantile(&open, tail, window),
        "ms",
    );
    // Failures over both phases per offered open-loop request, smoothed
    // as in Laplace's rule of succession so a clean run is never 0. The
    // open loop sends rate × duration requests however fast the mesh is,
    // so a clean run reads the same on every commit and any failure moves
    // it.
    out.put(
        "error_rate",
        (tally.failed as f64 + 1.0) / (open.samples.len() as f64 + 2.0),
        "ratio",
    );
    // Over the open loop only: every commit gets the same offered load
    // there, while in the closed loop the processes run saturated and the
    // CPU a query costs follows how busy the host keeps them.
    let (between, after) = (&scrapes[1], &scrapes[2]);
    out.put(
        "cpu_ms_per_query",
        (after.cpu_s - between.cpu_s) * 1e3 / open.answered().max(1) as f64,
        "ms",
    );
    out.put("rss_mb", after.hwm_mb, "MB");
    out.put(
        "disk_bytes_per_triple",
        disk / inputs.corpus.len() as f64,
        "B",
    );

    let mut raw = report::Raw::new(args, inputs);
    raw.num("setup_s.runs", &setups);
    raw.num("setup.warm_retries", &warm_retries);
    raw.num("setup.host_steal_pct", &steal);
    raw.phase("closed", &closed, &inputs.closed);
    raw.phase("open", &open, &inputs.open);
    raw.value("open.rate_per_s", args.workload.open_rate());
    raw.value("tail_percentile", tail * 100.0);
    raw.value("tail_over_all_samples_ms", load::quantile(&lat, tail));
    for p in [0.5, 0.9, 0.95] {
        raw.num(
            &format!("open.window_1s_p{}_ms", p * 100.0),
            &load::window_quantiles(&open, p, 1.0),
        );
    }
    raw.value("loadgen.late_ms.p50", load::median(&late));
    raw.value("loadgen.late_ms.max", load::quantile(&late, 1.0));
    raw.scrapes(&scrapes);
    raw.emit();
    Ok(tally)
}

/// Request counts for the result line.
pub struct Tally {
    attempted: usize,
    failed: usize,
    /// Answers that were `200`, `complete=true` and wrong.
    wrong: usize,
}

impl Tally {
    fn of(phase: &Phase) -> Tally {
        Tally {
            attempted: phase.samples.len(),
            failed: phase.failed(),
            wrong: phase.count(http::Outcome::Mismatch),
        }
    }
}

fn run(args: &Args) -> Result<(Tally, Metrics), String> {
    let dir = args.work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _guard = WorkDir(dir.clone());
    let inputs = Inputs::make(args.workload, args.seed, &dir)?;
    let mut metrics = Metrics::default();
    let tally = if args.trace {
        trace::run(args, &inputs, &dir, &mut metrics)?
    } else {
        run_end_to_end(args, &inputs, &dir, &mut metrics)?
    };
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            // Incomplete answers and refusals are failures the mesh owns up
            // to; an answer that claims to be complete and is wrong is an
            // incorrect output.
            println!(
                "{}",
                metrics.result_line(tally.wrong == 0, tally.attempted, tally.failed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

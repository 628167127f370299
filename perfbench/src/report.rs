//! The result line and the raw record.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::load::Phase;
use crate::mesh::Scrape;
use crate::{corpus, nproc, Args, Inputs};

/// Metrics in the order they were measured, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The run's metadata and raw values, printed as one JSON line before the
/// result line.
pub struct Raw(BTreeMap<String, String>);

impl Raw {
    /// Metadata: commit, `nproc`, rustc, workload, seed, corpus sizes.
    pub fn new(args: &Args, inputs: &Inputs) -> Raw {
        let mut r = Raw(BTreeMap::new());
        r.text("commit", &args.commit);
        r.text("rustc", &args.rustc);
        r.text("workload", &format!("{:?}", args.workload).to_lowercase());
        r.value("seed", args.seed as f64);
        r.value("seconds", args.seconds as f64);
        r.value("trace", if args.trace { 1.0 } else { 0.0 });
        r.value("nproc", nproc() as f64);
        r.value("corpus.processes", corpus::PROCESSES as f64);
        r.value("corpus.triples", inputs.corpus.len() as f64);
        let shares: Vec<f64> = inputs
            .corpus
            .shares
            .iter()
            .map(|s| s.len() as f64)
            .collect();
        r.num("corpus.triples_per_process", &shares);
        r.value("oracle.distinct_queries", inputs.oracle.len() as f64);
        r
    }

    /// A string field.
    pub fn text(&mut self, key: &str, value: &str) {
        self.0.insert(key.into(), format!("\"{}\"", esc(value)));
    }

    /// A number field.
    pub fn value(&mut self, key: &str, value: f64) {
        self.0.insert(key.into(), num(value));
    }

    /// A list of numbers.
    pub fn num(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
        self.0.insert(key.into(), format!("[{}]", items.join(",")));
    }

    /// A phase's request counts by outcome, duration, latency summary,
    /// latency per query kind, and correct answers per whole second.
    pub fn phase(&mut self, name: &str, phase: &Phase, pool: &[String]) {
        use crate::http::Outcome::*;
        let lat: Vec<f64> = phase.samples.iter().map(|s| s.latency_ms).collect();
        self.value(&format!("{name}.attempted"), phase.samples.len() as f64);
        for (label, o) in [
            ("correct", Correct),
            ("rejected_503", Rejected),
            ("status", Status),
            ("incomplete", Incomplete),
            ("mismatch", Mismatch),
            ("io", Io),
        ] {
            self.value(&format!("{name}.{label}"), phase.count(o) as f64);
        }
        self.value(&format!("{name}.seconds"), phase.elapsed.as_secs_f64());
        self.value(&format!("{name}.qps"), phase.qps());
        for (label, p) in [
            ("p50", 0.5),
            ("p75", 0.75),
            ("p90", 0.9),
            ("p95", 0.95),
            ("p99", 0.99),
            ("max", 1.0),
        ] {
            self.value(
                &format!("{name}.latency_ms.{label}"),
                crate::load::quantile(&lat, p),
            );
        }
        let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &phase.samples {
            kinds
                .entry(corpus::kind(&pool[s.query]))
                .or_default()
                .push(s.latency_ms);
        }
        for (kind, lat) in kinds {
            self.value(&format!("{name}.kind.{kind}.count"), lat.len() as f64);
            self.value(
                &format!("{name}.kind.{kind}.latency_ms.p50"),
                crate::load::median(&lat),
            );
            self.value(
                &format!("{name}.kind.{kind}.latency_ms.p90"),
                crate::load::quantile(&lat, 0.9),
            );
        }
        let seconds = phase.elapsed.as_secs_f64().floor() as usize;
        let mut per_second = vec![0.0; seconds];
        for s in phase.samples.iter().filter(|s| s.outcome == Correct) {
            if let Some(slot) = per_second.get_mut(s.done_s as usize) {
                *slot += 1.0;
            }
        }
        self.num(&format!("{name}.correct_per_second"), &per_second);
    }

    /// For the closed and the open phase, between the scrapes around it:
    /// the deltas of every `live.*`, `transport.*` and `store.load.*`
    /// counter, retries per round, bytes per row, frames per query, server
    /// CPU and the machine's steal; and the peak memory at the last scrape.
    pub fn scrapes(&mut self, scrapes: &[Scrape]) {
        for (phase, pair) in ["closed", "open"].iter().zip(scrapes.windows(2)) {
            let (before, after) = (&pair[0], &pair[1]);
            for name in after.counters.keys() {
                if ["live.", "transport.", "store.load."]
                    .iter()
                    .any(|p| name.starts_with(p))
                {
                    self.value(&format!("{phase}.delta.{name}"), after.delta(before, name));
                }
            }
            let d = |n: &str| after.delta(before, n);
            let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
            self.value(
                &format!("{phase}.retries_per_round"),
                ratio(d("live.retries"), d("live.solution_rounds")),
            );
            self.value(
                &format!("{phase}.bytes_per_row"),
                ratio(d("transport.bytes_sent"), d("live.solutions_shipped")),
            );
            self.value(
                &format!("{phase}.frames_per_query"),
                ratio(d("transport.frames_sent"), d("live.admitted")),
            );
            self.value(&format!("{phase}.server_cpu_s"), after.cpu_s - before.cpu_s);
            self.value(
                &format!("{phase}.host_steal_pct"),
                after.host.steal_pct_since(&before.host),
            );
        }
        if let Some(last) = scrapes.last() {
            self.value("proc.vmhwm_mb", last.hwm_mb);
        }
    }

    /// Prints the record as one `{"perfbench_raw": {...}}` line.
    pub fn emit(&self) {
        let mut out = String::from("{\"perfbench_raw\":{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{v}", esc(k));
        }
        out.push_str("}}");
        println!("{out}");
    }
}

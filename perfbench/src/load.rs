//! The load generator: a closed loop and an open loop over HTTP.
//!
//! Neither uses more threads, nor holds more connections open, than the
//! connection count it is given. Requests rotate over the three
//! processes' endpoints, so every coordinator takes its share.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::corpus::Oracle;
use crate::http::{self, Outcome};

const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// From when the request was due (open loop) or sent (closed loop)
    /// until its answer was read and checked, in ms.
    pub latency_ms: f64,
    /// How long after its due time the request was sent, in ms (0 in a
    /// closed loop).
    pub late_ms: f64,
    /// How it ended.
    pub outcome: Outcome,
    /// Index of the query in its pool.
    pub query: usize,
    /// When the answer was checked, in seconds since the phase start.
    pub done_s: f64,
}

/// What one phase produced.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every request, in completion order per connection.
    pub samples: Vec<Sample>,
    /// From the phase start until the last request finished.
    pub elapsed: Duration,
}

impl Phase {
    /// Requests that ended in `outcome`.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.samples.iter().filter(|s| s.outcome == outcome).count()
    }

    /// Requests that did not end correct.
    pub fn failed(&self) -> usize {
        self.samples.len() - self.count(Outcome::Correct)
    }

    /// Correct answers per second.
    pub fn qps(&self) -> f64 {
        self.count(Outcome::Correct) as f64 / self.elapsed.as_secs_f64()
    }

    /// Requests answered with an HTTP response other than a 503.
    pub fn answered(&self) -> usize {
        self.samples.len() - self.count(Outcome::Io) - self.count(Outcome::Rejected)
    }

    /// Joins two phases' samples, keeping the longer duration.
    pub fn merge(mut self, other: Phase) -> Phase {
        self.samples.extend(other.samples);
        self.elapsed = self.elapsed.max(other.elapsed);
        self
    }
}

/// Where requests go and how answers are checked.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    /// The processes' HTTP endpoints; request `i` goes to `i % len`.
    pub endpoints: &'a [SocketAddr],
    /// Expected answers of every query in the pools.
    pub oracle: &'a Oracle,
}

impl Target<'_> {
    fn send(&self, i: usize, query: &str) -> Outcome {
        let addr = self.endpoints[i % self.endpoints.len()];
        http::sparql(
            addr,
            &http::sparql_request(addr, query),
            self.oracle.expected(query),
            REQUEST_TIMEOUT,
        )
    }
}

/// Closed loop: `conns` connections each send their next query as soon as
/// the previous answer is checked, until `duration` has passed. The
/// connections take `pool`'s queries in order, wrapping around.
pub fn closed(target: Target<'_>, pool: &[String], conns: usize, duration: Duration) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + duration;
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    while Instant::now() < end {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        let outcome = target.send(i, &pool[i % pool.len()]);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let done_s = start.elapsed().as_secs_f64();
                        samples.push(Sample {
                            latency_ms,
                            late_ms: 0.0,
                            outcome,
                            query: i % pool.len(),
                            done_s,
                        });
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop connection"))
            .collect()
    });
    Phase {
        samples: per_conn.into_iter().flatten().collect(),
        elapsed: start.elapsed(),
    }
}

/// Each query of `queries` once, in order, on one connection.
pub fn closed_sequence(target: Target<'_>, queries: &[String]) -> Phase {
    let start = Instant::now();
    let samples = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let sent = Instant::now();
            let outcome = target.send(i, q);
            let done_s = start.elapsed().as_secs_f64();
            Sample {
                latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                late_ms: 0.0,
                outcome,
                query: i,
                done_s,
            }
        })
        .collect();
    Phase {
        samples,
        elapsed: start.elapsed(),
    }
}

/// Open loop: request `i` is due at `i / rate` seconds after the start,
/// for every `i` due within `duration`. `conns` connections take requests
/// in due order; a request is timed from its due time, so time spent
/// waiting for a free connection counts.
pub fn open(
    target: Target<'_>,
    pool: &[String],
    conns: usize,
    rate: f64,
    duration: Duration,
) -> Phase {
    let total = (rate * duration.as_secs_f64()).floor() as usize;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break samples;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let outcome = target.send(i, &pool[i % pool.len()]);
                        let done = Instant::now();
                        samples.push(Sample {
                            latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            outcome,
                            query: i % pool.len(),
                            done_s: done.duration_since(start).as_secs_f64(),
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("open-loop connection"))
            .collect()
    });
    Phase {
        samples: per_conn.into_iter().flatten().collect(),
        elapsed: start.elapsed(),
    }
}

/// The nearest-rank `p`-quantile of `values` (`p` in (0, 1]).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The `p`-quantile of a phase's latencies in each whole window of
/// `window_s` seconds, by completion time.
pub fn window_quantiles(phase: &Phase, p: f64, window_s: f64) -> Vec<f64> {
    let windows = ((phase.elapsed.as_secs_f64() / window_s).floor() as usize).max(1);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for s in &phase.samples {
        per[((s.done_s / window_s) as usize).min(windows - 1)].push(s.latency_ms);
    }
    per.iter()
        .filter(|l| !l.is_empty())
        .map(|l| quantile(l, p))
        .collect()
}

/// The `p`-quantile of a phase's latencies: over all samples, or, given a
/// window length in seconds, the median over whole windows of each
/// window's `p`-quantile.
pub fn windowed_quantile(phase: &Phase, p: f64, window_s: Option<f64>) -> f64 {
    match window_s {
        Some(w) => median(&window_quantiles(phase, p, w)),
        None => {
            let lat: Vec<f64> = phase.samples.iter().map(|s| s.latency_ms).collect();
            quantile(&lat, p)
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

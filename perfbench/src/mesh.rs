//! The mesh under test: three `rdfmesh serve` processes on loopback, each
//! bulk-loading its share of the corpus into its own `--store-dir`.
//!
//! Ports are ephemeral: every process binds `127.0.0.1:0` and the
//! addresses are parsed from its two startup lines. [`Mesh`] kills the
//! processes and removes the store directories when dropped, so every exit
//! path, a panic included, cleans up.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::corpus::Expected;
use crate::http::{self, Outcome};

const HTTP_TIMEOUT: Duration = Duration::from_secs(60);

/// One running serve process.
struct Proc {
    child: Child,
    // Held so the process never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    mesh: String,
    http: SocketAddr,
}

/// Three serve processes and their store directories.
pub struct Mesh {
    procs: Vec<Proc>,
    stores: Vec<PathBuf>,
    /// Wall-clock set-up: spawn until every `/health` reports 3 members
    /// and one warm query is answered.
    pub setup: Duration,
    /// From the last joiner's startup line until every `/health` reports
    /// 3 members.
    pub converge: Duration,
    /// Warm-query answers that were incomplete or differed from the
    /// oracle before the first correct one.
    pub warm_retries: u32,
}

/// Counters and resource use of the processes at one instant.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// `/metrics` counters summed over the processes.
    pub counters: BTreeMap<String, f64>,
    /// User plus system CPU of the processes, in seconds.
    pub cpu_s: f64,
    /// Peak resident memory (`VmHWM`) summed over the processes, in MB.
    pub hwm_mb: f64,
    /// The machine's CPU time at the scrape.
    pub host: HostCpu,
}

/// The machine's CPU time from the `cpu` line of `/proc/stat`, in clock
/// ticks: all of it, and the part the hypervisor gave to other guests
/// (steal).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: f64,
    steal: f64,
}

impl HostCpu {
    /// The counters now; zero where `/proc/stat` cannot be read.
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<f64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .unwrap_or_default()
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user and nice.
        HostCpu {
            total: ticks.iter().take(8).sum(),
            steal: ticks.get(7).copied().unwrap_or(0.0),
        }
    }

    /// Steal since `before`, in % of the machine's CPU time.
    pub fn steal_pct_since(&self, before: &HostCpu) -> f64 {
        let total = self.total - before.total;
        if total > 0.0 {
            (self.steal - before.steal) * 100.0 / total
        } else {
            0.0
        }
    }
}

impl Scrape {
    /// `self[name] - before[name]`, 0 when absent.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
            - before.counters.get(name).copied().unwrap_or(0.0)
    }
}

impl Mesh {
    /// Spawns the mesh: process 0 first (the seed), then processes 1 and
    /// 2 joining through it, then waits for convergence and for `warm` to
    /// be answered complete and equal to `warm_expected`. `shares[i]` is
    /// process `i`'s N-Triples file and `stores[i]` its (fresh) store
    /// directory.
    pub fn start(
        rdfmesh: &Path,
        shares: &[PathBuf],
        stores: Vec<PathBuf>,
        warm: &str,
        warm_expected: Expected,
    ) -> Result<Mesh, String> {
        let started = Instant::now();
        let mut mesh = Mesh {
            procs: Vec::new(),
            stores,
            setup: Duration::ZERO,
            converge: Duration::ZERO,
            warm_retries: 0,
        };
        mesh.procs
            .push(spawn(rdfmesh, 1, &shares[0], &mesh.stores[0], None)?);
        let seed = mesh.procs[0].mesh.clone();
        // The joiners load in parallel; each prints only after its join
        // is welcomed, so collect their startup lines after both spawn.
        let mut pending = Vec::new();
        for (i, (share, store)) in shares.iter().zip(&mesh.stores).enumerate().skip(1) {
            match spawn_child(rdfmesh, i as u64 + 1, share, store, Some(&seed)) {
                Ok(child) => pending.push(child),
                Err(e) => {
                    reap(pending);
                    return Err(e);
                }
            }
        }
        let mut pending = pending.into_iter();
        while let Some(child) = pending.next() {
            match startup(child) {
                Ok(p) => mesh.procs.push(p),
                Err(e) => {
                    reap(pending);
                    return Err(e);
                }
            }
        }
        let joined = Instant::now();
        let deadline = joined + Duration::from_secs(60);
        while !mesh.converged()? {
            if Instant::now() > deadline {
                return Err("membership did not converge to 3 members within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        mesh.converge = joined.elapsed();
        // `/health` counts members, not published index rows: a query sent
        // while the joiners' republish is still in flight can come back
        // `complete` and short. Set-up ends when the warm query is answered
        // complete and equal to the oracle; the tries before are counted.
        let head = http::sparql_request(mesh.http(0), warm);
        loop {
            match http::sparql(mesh.http(0), &head, warm_expected, HTTP_TIMEOUT) {
                Outcome::Correct => break,
                other if Instant::now() > deadline => {
                    return Err(format!(
                        "warm query still {other:?} after {} tries",
                        mesh.warm_retries + 1
                    ))
                }
                _ => {
                    mesh.warm_retries += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        mesh.setup = started.elapsed();
        Ok(mesh)
    }

    fn converged(&self) -> Result<bool, String> {
        for p in &self.procs {
            let (_, body) =
                http::get(p.http, "/health", HTTP_TIMEOUT).map_err(|e| format!("/health: {e}"))?;
            if !String::from_utf8_lossy(&body).contains("\"members\":3") {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The HTTP endpoint of process `i`.
    pub fn http(&self, i: usize) -> SocketAddr {
        self.procs[i].http
    }

    /// Bytes in the store directories.
    pub fn disk_bytes(&self) -> u64 {
        self.stores.iter().map(|d| dir_bytes(d)).sum()
    }

    /// The store directories, for reopening after [`Mesh::stop`].
    pub fn stores(&self) -> &[PathBuf] {
        &self.stores
    }

    /// Scrapes every process's `/metrics` and `/proc` entries.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut s = Scrape {
            host: HostCpu::now(),
            ..Scrape::default()
        };
        for p in &self.procs {
            let (_, body) = http::get(p.http, "/metrics", HTTP_TIMEOUT)
                .map_err(|e| format!("/metrics: {e}"))?;
            for line in String::from_utf8_lossy(&body).lines() {
                if let Some((name, value)) = line.split_once(' ') {
                    if let Ok(v) = value.trim().parse::<f64>() {
                        *s.counters.entry(name.to_string()).or_default() += v;
                    }
                }
            }
            let pid = p.child.id();
            s.cpu_s += proc_cpu_s(pid)?;
            s.hwm_mb += proc_hwm_mb(pid)?;
        }
        Ok(s)
    }

    /// Kills the processes; the store directories stay until drop.
    pub fn stop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        self.procs.clear();
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.stop();
        for d in &self.stores {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

fn spawn_child(
    rdfmesh: &Path,
    id: u64,
    share: &Path,
    store: &Path,
    join: Option<&str>,
) -> Result<Child, String> {
    let mut cmd = Command::new(rdfmesh);
    cmd.args(["serve", "--node-id", &id.to_string()])
        .args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
        .arg("--load")
        .arg(share)
        .arg("--store-dir")
        .arg(store)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(seed) = join {
        cmd.args(["--join", seed]);
    }
    cmd.spawn()
        .map_err(|e| format!("spawn {}: {e}", rdfmesh.display()))
}

/// Reads a process's two startup lines: the mesh and the HTTP address.
fn startup(mut child: Child) -> Result<Proc, String> {
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut reader = BufReader::new(stdout);
    let mut line = |what: &str| {
        let mut l = String::new();
        match reader.read_line(&mut l) {
            Ok(n) if n > 0 => Ok(l),
            _ => Err(format!(
                "serve process exited before printing its {what} address"
            )),
        }
    };
    let parsed = line("mesh").and_then(|mesh_line| {
        let http_line = line("HTTP")?;
        let mesh = mesh_line
            .split("listening on ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .ok_or("no mesh address in startup line")?
            .to_string();
        let http = http_line
            .split("http://")
            .nth(1)
            .and_then(|r| r.trim().strip_suffix("/sparql"))
            .and_then(|a| a.parse().ok())
            .ok_or("no HTTP address in startup line")?;
        Ok((mesh, http))
    });
    match parsed {
        Ok((mesh, http)) => Ok(Proc {
            child,
            _stdout: reader,
            mesh,
            http,
        }),
        Err(e) => {
            reap([child]);
            Err(e)
        }
    }
}

fn reap(children: impl IntoIterator<Item = Child>) {
    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
}

fn spawn(
    rdfmesh: &Path,
    id: u64,
    share: &Path,
    store: &Path,
    join: Option<&str>,
) -> Result<Proc, String> {
    startup(spawn_child(rdfmesh, id, share, store, join)?)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`getconf
/// CLK_TCK`), 100 on Linux.
const CLK_TCK: f64 = 100.0;

fn proc_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Ok((ticks(11) + ticks(12)) / CLK_TCK)
}

fn proc_hwm_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    Ok(kb / 1024.0)
}

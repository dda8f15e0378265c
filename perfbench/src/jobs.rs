//! The `jobs_mix` workload: `manet serve-jobs` with 2 workers, driven
//! over loopback by a closed loop of 2 client threads.
//!
//! Each client works in rounds of eight jobs: a fresh `single` spec, the
//! same spec with a different `shards`/`workers` execution hint (the same
//! science, but a different cache key), then six exact repeats of its
//! most recent specs. Every first sight of a spec body is a cache miss
//! and every repeat a hit, so the hit ratio is fixed at 6/8 whatever the
//! seed; the seed picks the simulation seeds inside the specs and the
//! order of the repeats. Client pools are disjoint.

use crate::report::Report;
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use manet_experiments::spec::{result_json, run_scenario, ScenarioSpec};
use manet_util::json::Value;
use manet_util::Rng;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Interval between `GET /jobs/:id` polls of an unfinished job.
const POLL: Duration = Duration::from_millis(5);
/// A job not done within this is failed; its latency counts as this.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Per-request socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Times the server is started per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 7;
/// Miss specs re-run in-process for `spec.run_p50_ms`.
const DIRECT_RUNS: usize = 6;
/// Jobs per round: a new spec, its execution-hint variant, six repeats.
const ROUND: usize = 8;
/// Repeats are drawn from the client's most recent spec bodies.
const RECENT: usize = 4;

/// The spec geometry: N=100 at 400 nodes/km², about 0.1 s per run.
fn spec_body(seed: u64, variant: Option<(&str, usize)>) -> String {
    let hint = variant.map_or(String::new(), |(layout, workers)| {
        format!(r#","shards":"{layout}","workers":{workers}"#)
    });
    format!(
        r#"{{"kind":"single","nodes":100,"side":500.0,"radius":150.0,"speed":10.0,"warmup":5.0,"measure":130.0,"dt":0.5,"seeds":[{seed}]{hint}}}"#
    )
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, body.to_string()))
}

/// A running `manet serve-jobs` process; dropping it asks the server to
/// quit and waits for the process, killing it if it does not exit.
struct Server {
    child: Child,
    addr: String,
    /// Drains the server's stdout so it never blocks on a full pipe; ends
    /// at the server's exit.
    drain: Option<thread::JoinHandle<()>>,
}

impl Server {
    fn start(manet: &Path, hold: f64) -> io::Result<Server> {
        let mut child = Command::new(manet)
            .args(["serve-jobs", "--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .args(["--hold", &format!("{hold:.0}")])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let addr = lines.find_map(|line| {
            let line = line.ok()?;
            let rest = line.split("listening on http://").nth(1)?;
            Some(rest.split_whitespace().next()?.to_string())
        });
        let mut server = Server {
            child,
            addr: String::new(),
            drain: Some(thread::spawn(move || lines.for_each(drop))),
        };
        server.addr = addr.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "serve-jobs printed no address")
        })?;
        match request(&server.addr, "GET", "/health", "")? {
            (200, _) => Ok(server),
            (code, _) => Err(io::Error::other(format!("/health answered {code}"))),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = request(&self.addr, "GET", "/quit", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(self.child.try_wait(), Ok(Some(_))) {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One job as a client saw it.
#[derive(Debug, Clone)]
struct JobRecord {
    body: String,
    ok: bool,
    hit: bool,
    latency_ms: f64,
    /// Completion time, seconds since the load phase started.
    end_s: f64,
}

/// One client's share of a run.
#[derive(Debug, Default)]
struct ClientLog {
    jobs: Vec<JobRecord>,
    post_ms: Vec<f64>,
    get_ms: Vec<f64>,
    requests: u64,
    queue_depth_max: u64,
    /// The result bytes of each spec body's first completion.
    results: HashMap<String, String>,
}

impl ClientLog {
    fn first_result(&self, body: &str) -> Option<&String> {
        self.results.get(body)
    }
}

fn timed_request(
    log: &mut ClientLog,
    samples: fn(&mut ClientLog) -> &mut Vec<f64>,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Option<(u16, String)> {
    let t0 = Instant::now();
    let out = request(addr, method, path, body).ok();
    samples(log).push(t0.elapsed().as_secs_f64() * 1e3);
    log.requests += 1;
    out
}

/// Scrapes one sample (or counter) from the server's `/metrics`.
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (key, value) = l.split_once(' ')?;
            (key == name).then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0.0)
}

/// Submits `body`, polls until terminal, fetches the result.
fn run_job(
    addr: &str,
    body: &str,
    log: &mut ClientLog,
    traced: bool,
) -> (bool, bool, Option<String>) {
    let post = timed_request(log, |l| &mut l.post_ms, addr, "POST", "/jobs", body);
    let Some((code, answer)) = post else {
        return (false, false, None);
    };
    let answer = Value::parse(&answer).ok();
    let field = |k: &str| answer.as_ref().and_then(|v| v.get(k)).cloned();
    let (Some(id), true) = (
        field("id").and_then(|v| v.as_u64()),
        code == 200 || code == 202,
    ) else {
        return (false, false, None);
    };
    let hit = field("cache").and_then(|v| v.as_str().map(|s| s == "hit")) == Some(true);
    if traced && !hit {
        if let Ok((200, text)) = request(addr, "GET", "/metrics", "") {
            log.queue_depth_max = log
                .queue_depth_max
                .max(scrape(&text, "manet_jobs_queue_depth") as u64);
        }
    }
    let mut status = field("status").and_then(|v| v.as_str().map(str::to_string));
    let start = Instant::now();
    while status
        .as_deref()
        .is_some_and(|s| s == "queued" || s == "running")
    {
        if start.elapsed() > JOB_TIMEOUT {
            return (false, hit, None);
        }
        thread::sleep(POLL);
        let path = format!("/jobs/{id}");
        status = match timed_request(log, |l| &mut l.get_ms, addr, "GET", &path, "") {
            Some((200, s)) => Value::parse(&s)
                .ok()
                .and_then(|v| v.get("status").and_then(|s| s.as_str().map(str::to_string))),
            _ => None,
        };
    }
    if status.as_deref() != Some("done") {
        return (false, hit, None);
    }
    let path = format!("/jobs/{id}/result");
    match timed_request(log, |l| &mut l.get_ms, addr, "GET", &path, "") {
        Some((200, bytes)) => (true, hit, Some(bytes)),
        _ => (false, hit, None),
    }
}

/// One client's closed loop, starting jobs until `seconds` have passed.
fn client(
    addr: &str,
    seed: u64,
    index: usize,
    start: Instant,
    seconds: f64,
    traced: bool,
) -> ClientLog {
    let mut rng = Rng::seed_from_u64(seed).fork(index as u64 + 1);
    let mut log = ClientLog::default();
    let mut recent: Vec<String> = Vec::new();
    let variants = [("1x1", 1), ("2x2", 1)];
    let mut spec_seed = 0;
    let mut n = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let body = match n % ROUND {
            0 => {
                // Low byte = client index keeps the pools disjoint.
                spec_seed = (rng.u64() >> 24 << 8) | index as u64;
                spec_body(spec_seed, None)
            }
            1 => spec_body(spec_seed, Some(variants[n / ROUND % variants.len()])),
            _ => {
                let window = &recent[recent.len().saturating_sub(RECENT)..];
                window[rng.usize_below(window.len())].clone()
            }
        };
        n += 1;
        let t0 = Instant::now();
        let (mut ok, hit, bytes) = run_job(addr, &body, &mut log, traced);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(bytes) = bytes {
            match log.results.get(&body) {
                Some(seen) => ok &= *seen == bytes,
                None => {
                    log.results.insert(body.clone(), bytes);
                }
            }
        }
        if !recent.contains(&body) {
            recent.push(body.clone());
        }
        log.jobs.push(JobRecord {
            body,
            ok,
            hit,
            latency_ms: if ok {
                latency_ms
            } else {
                JOB_TIMEOUT.as_secs_f64() * 1e3
            },
            end_s: start.elapsed().as_secs_f64(),
        });
    }
    log
}

/// The merged outcome of one load phase against one server.
struct Phase {
    logs: Vec<ClientLog>,
    jobs_per_s: f64,
    metrics_text: String,
    peak_rss_mb: f64,
}

impl Phase {
    fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.logs.iter().flat_map(|l| l.jobs.iter())
    }

    fn latencies(&self, pick: impl Fn(&JobRecord) -> bool) -> Vec<f64> {
        self.jobs()
            .filter(|j| pick(j))
            .map(|j| j.latency_ms)
            .collect()
    }

    fn record_checks(&self, report: &mut Report) {
        for j in self.jobs() {
            report.check(j.ok, "job failed, timed out or returned different bytes");
        }
    }
}

fn load(manet: &Path, seed: u64, seconds: f64, traced: bool) -> io::Result<Phase> {
    let server = Server::start(manet, seconds + 120.0)?;
    let addr = server.addr.clone();
    let start = Instant::now();
    let logs: Vec<ClientLog> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = addr.as_str();
                s.spawn(move || client(addr, seed, i, start, seconds, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let done = logs.iter().flat_map(|l| &l.jobs).filter(|j| j.ok).count();
    let span = logs
        .iter()
        .flat_map(|l| &l.jobs)
        .map(|j| j.end_s)
        .fold(0.0, f64::max);
    let metrics_text = match request(&addr, "GET", "/metrics", "")? {
        (200, text) => text,
        (code, _) => return Err(io::Error::other(format!("/metrics answered {code}"))),
    };
    let peak_rss_mb = peak_rss_mb(Some(server.pid()));
    drop(server);
    Ok(Phase {
        jobs_per_s: ratio(done as f64, span),
        logs,
        metrics_text,
        peak_rss_mb,
    })
}

fn setup_seconds(manet: &Path) -> io::Result<f64> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let server = Server::start(manet, 60.0)?;
        times.push(t0.elapsed().as_secs_f64());
        drop(server);
    }
    Ok(median(&times))
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(
    manet: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> io::Result<String> {
    let setup = setup_seconds(manet)?;
    let phase = load(manet, seed, seconds, false)?;
    phase.record_checks(report);
    let all = phase.latencies(|_| true);
    report.set("throughput_per_s", phase.jobs_per_s);
    report.set("latency_p50_ms", quantile(&all, 0.5));
    report.set("latency_p90_ms", quantile(&all, 0.9));
    report.set("setup_s", setup);
    report.set("peak_rss_mb", phase.peak_rss_mb);
    Ok(format!(
        "jobs={} hits={}",
        all.len(),
        phase.jobs().filter(|j| j.hit).count()
    ))
}

/// The traced run: an untraced half, then a traced half against a fresh
/// server that also scrapes `/metrics`, then the miss specs re-run
/// in-process.
pub fn per_layer(manet: &Path, seed: u64, seconds: f64, report: &mut Report) -> io::Result<String> {
    let plain = load(manet, seed, seconds / 2.0, false)?;
    plain.record_checks(report);
    let phase = load(manet, seed, seconds / 2.0, true)?;
    phase.record_checks(report);

    let post: Vec<f64> = phase
        .logs
        .iter()
        .flat_map(|l| l.post_ms.iter().copied())
        .collect();
    let get: Vec<f64> = phase
        .logs
        .iter()
        .flat_map(|l| l.get_ms.iter().copied())
        .collect();
    let jobs = phase.jobs().count() as f64;
    let requests: u64 = phase.logs.iter().map(|l| l.requests).sum();
    let m = &phase.metrics_text;
    let hits = scrape(m, "manet_jobs_cache_hits_total");
    let misses = scrape(m, "manet_jobs_cache_misses_total");
    let rejected = scrape(m, "manet_jobs_rejected_total");
    let submitted = scrape(m, "manet_jobs_submitted_total");
    report.check(
        submitted == jobs,
        &format!("server counted {submitted} submissions, clients made {jobs}"),
    );
    report.set("http.post_p50_ms", quantile(&post, 0.5));
    report.set("http.post_p99_ms", quantile(&post, 0.99));
    report.set("http.get_p50_ms", quantile(&get, 0.5));
    report.set("http.requests_per_job", ratio(requests as f64, jobs));
    report.set("jobs.rejected_ratio", ratio(rejected, submitted + rejected));
    report.set(
        "jobs.queue_depth_max",
        phase
            .logs
            .iter()
            .map(|l| l.queue_depth_max)
            .max()
            .unwrap_or(0) as f64,
    );
    report.set("jobs.cache_hit_ratio", ratio(hits, hits + misses));
    report.set(
        "trace.overhead_ratio",
        ratio(plain.jobs_per_s, phase.jobs_per_s),
    );
    report.set("latency_p99_ms", quantile(&plain.latencies(|_| true), 0.99));

    // `run_scenario` timed directly on the miss specs; its bytes must be
    // the bytes the server returned.
    let mut run_ms = Vec::new();
    for j in phase.jobs().filter(|j| !j.hit && j.ok).take(DIRECT_RUNS) {
        let spec = ScenarioSpec::from_json(&j.body).expect("generated specs parse");
        let t0 = Instant::now();
        let out = run_scenario(&spec, None).expect("generated specs run");
        run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let bytes = result_json(&spec, &out).to_string();
        let served = phase.logs.iter().find_map(|l| l.first_result(&j.body));
        report.check(
            served.is_some_and(|s| *s == bytes),
            "served result differs from an in-process run_scenario",
        );
    }
    let spec_p50 = median(&run_ms);
    let miss_p50 = median(&phase.latencies(|j| !j.hit && j.ok));
    report.set("spec.run_p50_ms", spec_p50);
    report.set("jobs.miss_overhead_ms", miss_p50 - spec_p50);
    Ok(format!(
        "jobs={jobs} requests={requests} cache_hits={hits} cache_misses={misses} \
         miss_p50_ms={miss_p50:.3} spec_run_p50_ms={spec_p50:.3}"
    ))
}

//! The `home_day` workload: the paper's §5 household replayed in
//! process with `workload::execute`, while one scraper thread polls
//! `/metrics` on the home's observability plane at a fixed cadence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use grbac_core::{AccessRequest, Actor, EnvironmentSnapshot, Grbac};
use grbac_home::scenario::paper_household;
use grbac_home::workload::{self, WorkloadConfig, WorkloadEvent};
use grbac_home::AwareHome;
use grbac_obs::ObsServer;

use crate::report::Report;
use crate::spans::Span;
use crate::stats::Reservoir;
use crate::wire::{median_setup, FixedRate, SETUP_RUNS};

/// Simulated days generated per chunk of the replay.
pub const DAYS_PER_CHUNK: u32 = 30;
/// Requests per person per simulated day.
pub const REQUESTS_PER_PERSON_PER_DAY: u32 = 50;
/// Chance a person moves rooms before a request.
pub const MOVE_PROBABILITY: f64 = 0.3;
/// Time between scrapes of `/metrics`.
pub const SCRAPE_EVERY: Duration = Duration::from_millis(10);

/// The workload config of replay chunk `chunk`.
#[must_use]
pub fn chunk_config(seed: u64, chunk: usize) -> WorkloadConfig {
    WorkloadConfig {
        days: DAYS_PER_CHUNK,
        requests_per_person_per_day: REQUESTS_PER_PERSON_PER_DAY,
        move_probability: MOVE_PROBABILITY,
        seed: seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(chunk as u64),
    }
}

/// A household on its observability plane.
pub struct Deployed {
    /// The home.
    pub home: AwareHome,
    /// Its observability plane.
    pub obs: ObsServer,
}

/// Builds the household, binds its obs plane and compiles the index
/// with a first decide.
///
/// # Errors
///
/// Household build or bind failures.
pub fn deploy() -> std::io::Result<Deployed> {
    let home = paper_household().map_err(|err| std::io::Error::other(err.to_string()))?;
    let obs = crate::pin::on_server_core(|| home.serve_observability("127.0.0.1:0"))?;
    let subject = home
        .people()
        .map(|p| p.subject())
        .min()
        .expect("a household");
    let object = home.devices().map(|d| d.object()).min().expect("devices");
    let request = AccessRequest::by_subject(
        subject,
        home.vocab().operate,
        object,
        EnvironmentSnapshot::new(),
    );
    home.engine()
        .decide(&request)
        .map_err(|err| std::io::Error::other(err.to_string()))?;
    Ok(Deployed { home, obs })
}

/// A fresh household's policy engine, for serving as a tenant.
///
/// # Errors
///
/// Household build failures.
pub fn deploy_engine() -> std::io::Result<Grbac> {
    let home = paper_household().map_err(|err| std::io::Error::other(err.to_string()))?;
    let engine = home.engine().clone();
    Ok(engine)
}

/// `(subject_role, transaction)` names churn rules are added for in
/// the household's policy.
#[must_use]
pub fn edit_targets() -> Vec<(String, String)> {
    [
        ("child", "operate"),
        ("parent", "view"),
        ("service_agent", "repair"),
        ("elder", "adjust"),
    ]
    .iter()
    .map(|&(role, transaction)| (role.to_owned(), transaction.to_owned()))
    .collect()
}

/// Spans a traced replay keeps (the first requests'); the rest of the
/// replay runs the same code without recording.
const MAX_SPANS: usize = 250_000;

/// Request latencies a replay keeps: enough for a p99 with 2,600
/// samples beyond it, and few enough that the replay's memory does not
/// follow its throughput.
const LATENCY_SAMPLE: usize = 1 << 18;

/// What one timed replay measured.
#[derive(Debug)]
pub struct Replay {
    /// Requests mediated.
    pub requests: u64,
    /// Seconds spent replaying (generation excluded).
    pub replay_s: f64,
    /// Latency of request events' `workload::execute` calls, ns: a
    /// uniform sample over the whole replay.
    pub latencies: Reservoir,
    /// Scrape latencies, ns from due.
    pub scrapes: Vec<f64>,
    /// Scraper lateness, ns.
    pub scrape_lateness: Vec<f64>,
    /// Largest number of scrapes due and not yet started.
    pub scrape_backlog_max: u64,
    /// Scrapes that failed.
    pub scrape_failures: usize,
    /// `(chunk, events replayed, permits, denies)` in replay order.
    pub chunks: Vec<(usize, usize, u64, u64)>,
    /// Client spans when traced.
    pub spans: Vec<Span>,
}

/// Replays chunks of generated days for `seconds`, starting at chunk
/// `first_chunk`, with the scraper running throughout. Generating a
/// chunk pauses the replay clock.
///
/// # Errors
///
/// A mediation error (impossible for generated workloads).
pub fn replay(
    deployed: &mut Deployed,
    seed: u64,
    first_chunk: usize,
    seconds: f64,
    trace: bool,
) -> std::io::Result<Replay> {
    let addr = deployed.obs.addr();
    let stop = AtomicBool::new(false);
    let budget = (seconds * 1e9) as u64;
    let home = &mut deployed.home;
    std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            crate::pin::to_server_core();
            scrape_until(addr, &stop)
        });
        // The scraper must be stopped on every path, errors included.
        let replayed = crate::pin::on_client_core(|| -> std::io::Result<Replay> {
            let mut out = Replay {
                requests: 0,
                replay_s: 0.0,
                latencies: Reservoir::new(LATENCY_SAMPLE, seed ^ first_chunk as u64),
                scrapes: Vec::new(),
                scrape_lateness: Vec::new(),
                scrape_backlog_max: 0,
                scrape_failures: 0,
                chunks: Vec::new(),
                spans: Vec::new(),
            };
            let start = Instant::now();
            // Replay time: wall time minus time spent generating.
            let mut paused_ns = 0u64;
            let now = |paused_ns: u64| start.elapsed().as_nanos() as u64 - paused_ns;
            let mut chunk = first_chunk;
            'chunks: while now(paused_ns) < budget {
                let generating = Instant::now();
                let events = workload::generate(home, &chunk_config(seed, chunk));
                paused_ns += generating.elapsed().as_nanos() as u64;
                let (mut permits, mut denies) = (0, 0);
                for (i, event) in events.iter().enumerate() {
                    if i % 64 == 0 && now(paused_ns) >= budget {
                        out.chunks.push((chunk, i, permits, denies));
                        break 'chunks;
                    }
                    let t0 = now(paused_ns);
                    let stats = workload::execute(home, std::slice::from_ref(event))
                        .map_err(|err| std::io::Error::other(err.to_string()))?;
                    if !matches!(event, WorkloadEvent::Request { .. }) {
                        continue;
                    }
                    let t1 = now(paused_ns);
                    out.latencies.push((t1 - t0) as f64);
                    if trace && out.spans.len() < MAX_SPANS {
                        out.spans.push(Span {
                            name: "home.execute",
                            request: out.requests,
                            start_ns: t0,
                            end_ns: t1,
                            parent: None,
                        });
                    }
                    out.requests += 1;
                    permits += stats.permits;
                    denies += stats.denies;
                }
                out.chunks.push((chunk, events.len(), permits, denies));
                chunk += 1;
            }
            out.replay_s = now(paused_ns) as f64 / 1e9;
            Ok(out)
        });
        stop.store(true, Ordering::Release);
        let scraped = scraper.join().expect("scraper thread panicked");
        let mut out = replayed?;
        out.scrapes = scraped.latency;
        out.scrape_lateness = scraped.lateness;
        out.scrape_backlog_max = scraped.backlog_max;
        out.scrape_failures = scraped.failures;
        Ok(out)
    })
}

/// Scrapes taken by [`scrape_until`].
#[derive(Debug, Default)]
pub struct Scrapes {
    /// Latency from due, ns.
    pub latency: Vec<f64>,
    /// Start minus due, ns.
    pub lateness: Vec<f64>,
    /// Most scrapes due and not started at once.
    pub backlog_max: u64,
    /// Non-200 or empty answers, or transport errors.
    pub failures: usize,
}

/// Scrapes `/metrics` every [`SCRAPE_EVERY`] until `stop` is set.
pub fn scrape_until(addr: std::net::SocketAddr, stop: &AtomicBool) -> Scrapes {
    let mut out = Scrapes::default();
    let start = Instant::now();
    let every = SCRAPE_EVERY.as_nanos() as u64;
    let mut k = 0u64;
    while !stop.load(Ordering::Acquire) {
        let due = k * every;
        let now = start.elapsed().as_nanos() as u64;
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now).min(Duration::from_millis(2)));
            continue;
        }
        out.lateness.push((now - due) as f64);
        out.backlog_max = out.backlog_max.max(now / every + 1 - k);
        let good = scrape_once(addr).is_some();
        out.latency
            .push((start.elapsed().as_nanos() as u64 - due) as f64);
        if !good {
            out.failures += 1;
        }
        k += 1;
    }
    out
}

/// One `/metrics` scrape; the body size when it answered 200 with the
/// decision counters in it.
#[must_use]
pub fn scrape_once(addr: std::net::SocketAddr) -> Option<usize> {
    match grbac_obs::get(addr, "/metrics") {
        Ok((200, body)) if body.contains("grbac_decisions_permit_total") => Some(body.len()),
        _ => None,
    }
}

/// What [`naive_replay`] found.
pub struct NaiveReplay {
    /// Per chunk `(permits, denies)`.
    pub totals: Vec<(u64, u64)>,
    /// The first requests, with the environment each saw.
    pub requests: Vec<AccessRequest>,
    /// The household's policy engine.
    pub engine: Grbac,
}

/// Replays the same chunks on a fresh household with `decide_naive`,
/// keeping up to `keep` of the requests for the layer ladder.
///
/// # Errors
///
/// Household build failures.
pub fn naive_replay(
    seed: u64,
    chunks: &[(usize, usize, u64, u64)],
    keep: usize,
) -> std::io::Result<NaiveReplay> {
    let mut twin = paper_household().map_err(|err| std::io::Error::other(err.to_string()))?;
    let mut totals = Vec::with_capacity(chunks.len());
    let mut kept = Vec::with_capacity(keep);
    for &(chunk, replayed, _, _) in chunks {
        let events = workload::generate(&twin, &chunk_config(seed, chunk));
        let (mut permits, mut denies) = (0, 0);
        for event in &events[..replayed] {
            twin.advance_to(event.at());
            match *event {
                WorkloadEvent::Move { subject, zone, .. } => twin.place(subject, zone),
                WorkloadEvent::Request {
                    subject,
                    transaction,
                    object,
                    ..
                } => {
                    let (environment, env_health) = twin.environment_with_health(Some(subject));
                    let request = AccessRequest {
                        actor: Actor::Subject(subject),
                        transaction,
                        object,
                        environment,
                        env_health,
                        timestamp: Some(twin.now().as_seconds().max(0) as u64),
                    };
                    let decision = twin
                        .engine()
                        .decide_naive(&request)
                        .map_err(|err| std::io::Error::other(err.to_string()))?;
                    if decision.is_permitted() {
                        permits += 1;
                    } else {
                        denies += 1;
                    }
                    if kept.len() < keep {
                        kept.push(request);
                    }
                }
            }
        }
        totals.push((permits, denies));
    }
    let engine = twin.engine().clone();
    Ok(NaiveReplay {
        totals,
        requests: kept,
        engine,
    })
}

/// Compares a replay's per-chunk totals with the naive replay's,
/// recording mismatches as failures.
pub fn check_totals(replay: &Replay, naive: &[(u64, u64)], report: &mut Report) {
    let mut mismatched = 0u64;
    for (&(chunk, _, permits, denies), &(naive_permits, naive_denies)) in
        replay.chunks.iter().zip(naive)
    {
        let diff = permits.abs_diff(naive_permits) + denies.abs_diff(naive_denies);
        if diff > 0 {
            report.problem(format!(
                "chunk {chunk}: {permits} permits / {denies} denies, decide_naive says {naive_permits} / {naive_denies}"
            ));
            mismatched += permits
                .abs_diff(naive_permits)
                .max(denies.abs_diff(naive_denies));
        }
    }
    report.count(0, mismatched as usize);
}

/// Summary of a replay in the wire workloads' shape (requests as the
/// primary ops, scrapes as the side ops), and the requests mediated
/// per replay second.
#[must_use]
pub fn summarise(replay: &mut Replay) -> (FixedRate, f64) {
    let fixed = FixedRate::new(
        replay.latencies.values(),
        &mut replay.scrapes,
        &mut replay.scrape_lateness,
        u32::try_from(replay.scrape_backlog_max).unwrap_or(u32::MAX),
    );
    (fixed, replay.requests as f64 / replay.replay_s)
}

/// Runs `home_day` untraced.
///
/// # Errors
///
/// Set-up or replay failures.
pub fn run_workload(seed: u64, seconds: f64, report: &mut Report) -> std::io::Result<()> {
    let (mut deployed, setup_s) = median_setup(SETUP_RUNS, deploy, |d: Deployed| d.obs.shutdown())?;
    report.e2e("setup_s", setup_s, "s");
    // Half the run replays; checking the same requests with
    // `decide_naive` takes about as long again.
    let mut replayed = replay(&mut deployed, seed, 0, seconds * 0.5, false)?;
    deployed.obs.shutdown();
    let naive = naive_replay(seed, &replayed.chunks, 0)?;
    check_totals(&replayed, &naive.totals, report);
    report.count(
        replayed.requests as usize + replayed.scrapes.len(),
        replayed.scrape_failures,
    );
    let (fixed, per_s) = summarise(&mut replayed);
    report.end_to_end(&fixed);
    report.e2e("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    report.named("home_requests_per_s", per_s, "1/s");
    report.named("home_request_p50_us", fixed.decide_p50_us, "us");
    report.named("home_request_p90_us", fixed.decide_p90_us, "us");
    report.named("home_request_p99_us", fixed.decide_p99_us, "us");
    report.named("scrape_p50_ms", fixed.side_p50_us / 1e3, "ms");
    report.named("scrape_p90_ms", fixed.side_p90_us / 1e3, "ms");
    report.named("scrape_p99_ms", fixed.side_p99_us / 1e3, "ms");
    report.named("scraper.lateness_p50_us", fixed.lateness_p50_us, "us");
    report.named("scraper.backlog_max", f64::from(fixed.backlog_max), "count");
    let events: usize = replayed
        .chunks
        .iter()
        .map(|&(_, events, _, _)| events)
        .sum();
    report.note(format!(
        "replayed {} requests ({} events, ~{:.0} simulated days at {} requests/person/day) in {:.2}s; \
         {} scrapes every {:?} (tail at p{:.2})",
        replayed.requests,
        events,
        replayed.requests as f64 / (5.0 * f64::from(REQUESTS_PER_PERSON_PER_DAY)),
        REQUESTS_PER_PERSON_PER_DAY,
        replayed.replay_s,
        fixed.side_n,
        SCRAPE_EVERY,
        fixed.side_tail_p
    ));
    Ok(())
}

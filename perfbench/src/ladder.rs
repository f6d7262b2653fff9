//! The per-layer ladder: the same inputs replayed one layer at a time,
//! each call wrapped in a span from benchmark code. Rungs, innermost
//! first: the compiled index with bookkeeping switched off, the engine
//! as shipped, the audited `check`, JSON parse and encode, the service's
//! in-process line handling, a raw loopback echo, and a closed-loop
//! wire round trip. Policy edits, the obs plane and the household's
//! environment and request calls are timed beside them.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use grbac_bench::serveload::{parse_rule_id, remove_rule_line};
use grbac_core::{Effect, Grbac, MetricsRegistry, RoleKind, RuleDef};
use grbac_home::workload::{self, WorkloadEvent};
use grbac_serve::Client;
use serde::Value;

use crate::home::{chunk_config, scrape_once};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::wire::{decide_matches, Deployed, Expected, Inputs, CHURN_ROLE, TENANT};

/// Requests each rung replays.
pub const LADDER_REQUESTS: usize = 20_000;
/// Untimed calls before each rung, so every rung starts warm.
const WARMUP: usize = 512;
/// Edit pairs timed in process and through the service.
const EDIT_PAIRS: usize = 400;
/// Idle scrapes timed.
const IDLE_SCRAPES: usize = 200;
/// Span request ids of edits start here, apart from decide requests.
const EDIT_IDS: u64 = 1 << 40;

/// The enclosing layer of each ladder rung on a request's path.
#[must_use]
pub fn parent_of(layer: &str) -> Option<&'static str> {
    match layer {
        "index.decide" => Some("engine.decide"),
        "engine.decide" | "service.parse" | "service.encode" => Some("service.decide_line"),
        "service.decide_line" | "kernel.echo" => Some("server.wire_rtt"),
        _ => None,
    }
}

/// Reports p50 and p99 of `samples` (in ns) as `<name>.p50` and
/// `<name>.p99`, scaled by `scale` into `unit`.
pub fn layer_pcts(
    report: &mut Report,
    name: &str,
    mut samples: Vec<f64>,
    scale: f64,
    unit: &'static str,
) {
    for p in [50.0, 99.0] {
        let value = percentile(&mut samples, p).map_or(f64::NAN, |pct| pct.value / scale);
        report.layer(&format!("{name}.p{p:.0}"), value, unit);
    }
}

fn matches(decision: &grbac_core::Decision, expected: Expected) -> bool {
    (decision.effect() == Effect::Permit) == expected.permit
        && decision.winning_rule().map(u64::from) == expected.winner
}

/// `engine` with its bookkeeping switched off through public setters:
/// its own registry with heat, bus and latency sampling off, and no
/// flight recorder. What remains is the compiled index and the
/// decision-id mint.
#[must_use]
pub fn bare_engine(engine: &Grbac) -> Grbac {
    let mut bare = engine.clone();
    let registry = Arc::new(MetricsRegistry::new());
    registry.rule_heat.set_enabled(false);
    registry.events.set_enabled(false);
    registry.set_latency_sample_rate(1 << 62);
    bare.set_metrics(registry);
    bare.set_flight_recorder_capacity(0);
    bare
}

/// Times `f` on each of the first `n` inputs (after a warm-up) as
/// spans named `layer`; `f` returns whether the output was correct.
fn rung(
    rec: &mut Recorder,
    layer: &'static str,
    n: usize,
    report: &mut Report,
    mut f: impl FnMut(usize) -> bool,
) {
    for i in 0..WARMUP.min(n) {
        let _ = f(i);
    }
    let mut wrong = 0;
    for i in 0..n {
        let (ok, _) = rec.time(layer, i as u64, || f(i));
        if !ok {
            wrong += 1;
        }
    }
    report.count(n, wrong);
    if wrong > 0 {
        report.problem(format!("{layer}: {wrong} of {n} outputs wrong"));
    }
}

/// A loopback echo server for one connection: every line comes back
/// in one write. Returns its address and thread.
fn echo_server() -> std::io::Result<(std::net::SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let _ = stream.set_nodelay(true);
        let Ok(mut writer) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        while reader
            .read_until(b'\n', &mut line)
            .is_ok_and(|read| read > 0)
        {
            if writer.write_all(&line).is_err() {
                return;
            }
            line.clear();
        }
    });
    Ok((addr, handle))
}

/// Runs every rung on `inputs` against the deployed tenant and reports
/// the per-layer metrics, derived self times and index counts.
///
/// # Errors
///
/// Transport failures.
pub fn run(
    deployed: &Deployed,
    inputs: &Inputs,
    rec: &mut Recorder,
    report: &mut Report,
) -> std::io::Result<()> {
    let n = LADDER_REQUESTS;
    let pick = |i: usize| i % inputs.requests.len();
    let tenant = deployed.service.tenant(TENANT).expect("tenant provisioned");
    let shared = Arc::clone(&tenant.engine);

    // Engine rungs.
    let bare = bare_engine(&shared.read().expect("engine lock"));
    rung(rec, "index.decide", n, report, |i| {
        bare.decide(&inputs.requests[pick(i)])
            .is_ok_and(|d| matches(&d, inputs.expected[pick(i)]))
    });
    {
        let engine = shared.read().expect("engine lock");
        rung(rec, "engine.decide", n, report, |i| {
            engine
                .decide(&inputs.requests[pick(i)])
                .is_ok_and(|d| matches(&d, inputs.expected[pick(i)]))
        });
    }
    let mut audited = shared.read().expect("engine lock").clone();
    rung(rec, "engine.check", n, report, |i| {
        audited
            .check(&inputs.requests[pick(i)])
            .is_ok_and(|d| matches(&d, inputs.expected[pick(i)]))
    });
    drop(audited);

    // Service rungs.
    rung(rec, "service.parse", n, report, |i| {
        serde_json::from_str::<Value>(&inputs.lines[pick(i)]).is_ok()
    });
    let service = &deployed.service;
    let mut responses: Vec<Value> = Vec::with_capacity(inputs.requests.len().min(n));
    rung(rec, "service.decide_line", n, report, |i| {
        let response = service.handle_line(&inputs.lines[pick(i)]);
        if responses.len() < inputs.requests.len().min(n) && responses.len() == i {
            responses.push(serde_json::from_str(&response).unwrap_or(Value::Null));
        }
        decide_matches(&response, inputs.expected[pick(i)])
    });
    rung(rec, "service.encode", n, report, |i| {
        serde_json::to_string(&responses[i % responses.len()])
            .is_ok_and(|s| s.starts_with(r#"{"ok":true"#))
    });

    // Kernel and server rungs.
    let (echo_addr, echo) = echo_server()?;
    {
        let stream = TcpStream::connect(echo_addr)?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut out = Vec::with_capacity(512);
        let mut back = Vec::with_capacity(512);
        rung(rec, "kernel.echo", n, report, |i| {
            out.clear();
            out.extend_from_slice(inputs.lines[pick(i)].as_bytes());
            out.push(b'\n');
            back.clear();
            writer.write_all(&out).is_ok()
                && reader.read_until(b'\n', &mut back).is_ok()
                && back == out
        });
        let _ = writer.shutdown(std::net::Shutdown::Both);
    }
    echo.join().expect("echo server panicked");
    let mut client = Client::connect(deployed.server.local_addr())?;
    rung(rec, "server.wire_rtt", n, report, |i| {
        client
            .request_line(&inputs.lines[pick(i)])
            .is_ok_and(|response| decide_matches(&response, inputs.expected[pick(i)]))
    });

    // Edits: in process under the write lock, then as service lines.
    {
        let mut engine = shared.write().expect("engine lock");
        let churn = engine
            .roles()
            .find(RoleKind::Environment, CHURN_ROLE)
            .expect("churn role declared at set-up");
        let mut wrong = 0;
        for k in 0..EDIT_PAIRS {
            let (role, transaction) = &inputs.edit_targets[k % inputs.edit_targets.len()];
            let def = RuleDef::permit()
                .named(format!("ladder_{k}"))
                .subject_role(
                    engine
                        .roles()
                        .find(RoleKind::Subject, role)
                        .expect("target role"),
                )
                .transaction(
                    engine
                        .entities()
                        .find_transaction(transaction)
                        .expect("target transaction"),
                )
                .when(churn);
            let id = EDIT_IDS + k as u64;
            let (added, _) = rec.time("engine.add_rule", id, || engine.add_rule(def));
            let request = &inputs.requests[pick(k)];
            let (after_add, _) =
                rec.time("engine.repair_decide", 2 * id, || engine.decide(request));
            let (removed, _) = rec.time("engine.remove_rule", id, || {
                added.as_ref().is_ok_and(|&rule| engine.remove_rule(rule))
            });
            let (after_remove, _) = rec.time("engine.repair_decide", 2 * id + 1, || {
                engine.decide(request)
            });
            let expected = inputs.expected[pick(k)];
            let ok = removed
                && after_add.is_ok_and(|d| matches(&d, expected))
                && after_remove.is_ok_and(|d| matches(&d, expected));
            if !ok {
                wrong += 1;
            }
        }
        report.count(4 * EDIT_PAIRS, wrong);
        if wrong > 0 {
            report.problem(format!(
                "in-process edits: {wrong} of {EDIT_PAIRS} pairs wrong"
            ));
        }
    }
    let mut wrong = 0;
    for k in 0..EDIT_PAIRS {
        let id = EDIT_IDS + k as u64;
        let add = crate::wire::add_rule_line(&inputs.edit_targets, 1_000_000 + k);
        let (response, _) = rec.time("service.edit_line", 2 * id, || service.handle_line(&add));
        let removed = parse_rule_id(&response).is_some_and(|rule| {
            let remove = remove_rule_line(TENANT, rule);
            let (response, _) = rec.time("service.edit_line", 2 * id + 1, || {
                service.handle_line(&remove)
            });
            response.contains(r#""removed":true"#)
        });
        if !removed {
            wrong += 1;
        }
    }
    report.count(2 * EDIT_PAIRS, wrong);
    if wrong > 0 {
        report.problem(format!(
            "service edits: {wrong} of {EDIT_PAIRS} pairs wrong"
        ));
    }
    // The wire must still answer correctly after all the edits.
    if !client
        .request_line(&inputs.lines[0])
        .is_ok_and(|response| decide_matches(&response, inputs.expected[0]))
    {
        report.problem("wire decide wrong after the ladder's edits");
    }
    drop(client);

    // Obs plane with nothing else running.
    let mut idle = Vec::with_capacity(IDLE_SCRAPES);
    let mut bytes = 0;
    for _ in 0..IDLE_SCRAPES {
        let started = std::time::Instant::now();
        match scrape_once(deployed.obs.addr()) {
            Some(size) => bytes = size,
            None => report.problem("idle /metrics scrape failed"),
        }
        idle.push(started.elapsed().as_nanos() as f64);
    }
    report.count(IDLE_SCRAPES, 0);

    let snapshot = shared.read().expect("engine lock").metrics_snapshot();
    let full_rebuilds = snapshot
        .counters
        .get("grbac_index_full_rebuilds_total")
        .copied()
        .unwrap_or(0);
    let delta_applied: u64 = snapshot
        .keyed
        .get("grbac_index_delta_applied_total")
        .map_or(0, |keyed| keyed.values.values().sum());

    rec.link(parent_of);
    layer_pcts(
        report,
        "index.decide_ns",
        rec.durations("index.decide"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "engine.decide_ns",
        rec.durations("engine.decide"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "engine.bookkeeping_ns",
        rec.self_times("engine.decide", &["index.decide"]),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "engine.add_rule_ns",
        rec.durations("engine.add_rule"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "engine.remove_rule_ns",
        rec.durations("engine.remove_rule"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "engine.repair_decide_ns",
        rec.durations("engine.repair_decide"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "engine.check_ns",
        rec.durations("engine.check"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "audit.cost_ns",
        rec.self_times("engine.check", &["engine.decide"]),
        1.0,
        "ns",
    );
    report.layer("index.delta_applied", delta_applied as f64, "count");
    report.layer("index.full_rebuilds", full_rebuilds as f64, "count");
    layer_pcts(
        report,
        "service.parse_ns",
        rec.durations("service.parse"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "service.encode_ns",
        rec.durations("service.encode"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "service.decide_line_ns",
        rec.durations("service.decide_line"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "service.edit_line_ns",
        rec.durations("service.edit_line"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "service.self_ns",
        rec.self_times("service.decide_line", &["engine.decide"]),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "kernel.echo_rtt_us",
        rec.durations("kernel.echo"),
        1e3,
        "us",
    );
    layer_pcts(
        report,
        "server.wire_rtt_us",
        rec.durations("server.wire_rtt"),
        1e3,
        "us",
    );
    layer_pcts(
        report,
        "server.self_us",
        rec.self_times("server.wire_rtt", &["service.decide_line", "kernel.echo"]),
        1e3,
        "us",
    );
    layer_pcts(report, "obs.scrape_idle_ms", idle, 1e6, "ms");
    report.layer("obs.metrics_bytes", bytes as f64, "bytes");
    Ok(())
}

/// Times the household's environment and request calls over one
/// generated chunk (`env.snapshot_ns`, `home.request_ns`).
///
/// # Errors
///
/// Household build or mediation failures.
pub fn home_rungs(seed: u64, rec: &mut Recorder, report: &mut Report) -> std::io::Result<()> {
    let mut home = grbac_home::scenario::paper_household()
        .map_err(|err| std::io::Error::other(err.to_string()))?;
    let events = workload::generate(&home, &chunk_config(seed, usize::MAX / 2));
    let mut request = 0u64;
    for event in &events {
        home.advance_to(event.at());
        match *event {
            WorkloadEvent::Move { subject, zone, .. } => home.place(subject, zone),
            WorkloadEvent::Request {
                subject,
                transaction,
                object,
                ..
            } => {
                rec.time("env.snapshot", request, || {
                    home.environment_with_health(Some(subject))
                });
                let (decided, _) = rec.time("home.request", request, || {
                    home.request(subject, transaction, object)
                });
                decided.map_err(|err| std::io::Error::other(err.to_string()))?;
                request += 1;
            }
        }
    }
    report.count(request as usize, 0);
    layer_pcts(
        report,
        "env.snapshot_ns",
        rec.durations("env.snapshot"),
        1.0,
        "ns",
    );
    layer_pcts(
        report,
        "home.request_ns",
        rec.durations("home.request"),
        1.0,
        "ns",
    );
    Ok(())
}

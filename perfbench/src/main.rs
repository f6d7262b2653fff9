//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <decide_wire|churn_wire|home_day> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload end to end and prints
//! the end-to-end metrics; with `--trace 1` it replays the workload's
//! inputs one layer at a time with spans around each call and prints
//! the per-layer metrics, plus the tracing overhead. Every answer the
//! program gives is checked against `decide_naive` on a twin engine
//! built from the same seed. The last line of standard output is
//! `{"correct","attempted","failed","metrics"}`. See `README.md`.

mod home;
mod ladder;
mod loadgen;
mod pin;
mod report;
mod spans;
mod stats;
mod wire;

use std::process::ExitCode;
use std::time::Duration;

use loadgen::Plan;
use report::Report;
use spans::Recorder;
use wire::{WireScript, FIXED_RATE};

/// Where traced runs write their spans, relative to the checkout.
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|at| args.get(at + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_owned())?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".to_owned());
    }
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_owned())?,
        seconds,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".to_owned()),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <decide_wire|churn_wire|home_day> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("decide_wire", false) => wire::run_workload(false, args.seed, args.seconds, &mut report),
        ("churn_wire", false) => wire::run_workload(true, args.seed, args.seconds, &mut report),
        ("home_day", false) => home::run_workload(args.seed, args.seconds, &mut report),
        ("decide_wire", true) => traced_wire(false, &args, &mut report),
        ("churn_wire", true) => traced_wire(true, &args, &mut report),
        ("home_day", true) => traced_home(&args, &mut report),
        (other, _) => {
            eprintln!("perfbench: unknown workload `{other}` (decide_wire, churn_wire, home_day)");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = outcome {
        eprintln!("perfbench: {}: {err}", args.workload);
        return ExitCode::FAILURE;
    }
    report.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}

/// Writes the spans of a traced run as JSON lines.
fn write_spans(rec: &Recorder, args: &Args, report: &mut Report) {
    // One file per workload, overwritten by each traced run, so
    // repeated runs do not pile up span logs.
    let path = format!("{SPAN_DIR}/spans-{}.jsonl", args.workload);
    let written =
        std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, rec.to_jsonl()));
    match written {
        Ok(()) => report.note(format!("{} spans written to {path}", rec.spans().len())),
        Err(err) => report.note(format!("spans not written to {path}: {err}")),
    }
    report.layer("trace.spans", rec.spans().len() as f64, "count");
}

/// Traced run of a wire workload: the fixed-rate phase untraced and
/// then traced (their difference is the tracing overhead), then the
/// layer ladder on the same inputs.
fn traced_wire(churn: bool, args: &Args, report: &mut Report) -> std::io::Result<()> {
    let inputs = wire::synthetic_inputs(args.seed);
    let deployed = wire::Deployed::start(
        wire::synthetic_engine(args.seed),
        &inputs.lines[0],
        inputs.expected[0],
    )?;
    let mut phases = Vec::new();
    let (mut decide_base, mut pair_base) = (0, 0);
    let mut rec = Recorder::new();
    for trace in [false, true] {
        let script = WireScript {
            inputs: &inputs,
            churn,
            ops: WireScript::ops_for(churn, FIXED_RATE, args.seconds * 0.25),
            decide_base,
            pair_base,
        };
        let outcome = loadgen::run(
            &deployed.stream,
            &script,
            &Plan {
                rate_per_s: WireScript::op_rate(churn, FIXED_RATE),
                abort_latency_ns: None,
                response_timeout: Duration::from_secs(10),
                trace,
            },
        )?;
        decide_base = script.next_decide();
        pair_base += script.pairs();
        report.count(outcome.sent, outcome.failed);
        let fixed = wire::summarise(&outcome, &script);
        rec.extend(outcome.spans.iter().map(|span| spans::Span {
            request: span.request | 1 << 48,
            parent: None,
            ..*span
        }));
        phases.push(fixed);
    }
    let (untraced, traced) = (phases[0], phases[1]);
    report.layer("loadgen.lateness_p50_us", untraced.lateness_p50_us, "us");
    report.layer("loadgen.lateness_p99_us", untraced.lateness_p99_us, "us");
    report.layer(
        "loadgen.backlog_max",
        f64::from(untraced.backlog_max),
        "count",
    );
    report.layer(
        "trace.overhead_p50_us",
        traced.decide_p50_us - untraced.decide_p50_us,
        "us",
    );
    report.layer(
        "trace.overhead_p99_us",
        traced.decide_p99_us - untraced.decide_p99_us,
        "us",
    );
    report.generator(&untraced);
    report.named("decide_p50_us", untraced.decide_p50_us, "us");
    report.named("decide_p99_us", untraced.decide_p99_us, "us");
    report.named("traced_decide_p50_us", traced.decide_p50_us, "us");
    report.named("traced_decide_p99_us", traced.decide_p99_us, "us");

    let mut ladder_rec = Recorder::new();
    ladder::run(&deployed, &inputs, &mut ladder_rec, report)?;
    deployed.stop();
    ladder::home_rungs(args.seed, &mut ladder_rec, report)?;
    rec.extend(ladder_rec.spans().iter().copied());
    write_spans(&rec, args, report);
    Ok(())
}

/// Traced run of `home_day`: the replay untraced and then traced, then
/// the layer ladder on the requests the household saw, served from a
/// tenant holding the same policy.
fn traced_home(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let mut deployed = home::deploy()?;
    let untraced = home::replay(&mut deployed, args.seed, 0, args.seconds * 0.25, false)?;
    let next_chunk = untraced
        .chunks
        .last()
        .map_or(0, |&(chunk, _, _, _)| chunk + 1);
    let traced = home::replay(
        &mut deployed,
        args.seed,
        next_chunk,
        args.seconds * 0.25,
        true,
    )?;
    deployed.obs.shutdown();
    let chunks: Vec<_> = untraced
        .chunks
        .iter()
        .chain(&traced.chunks)
        .copied()
        .collect();
    let naive = home::naive_replay(args.seed, &chunks, ladder::LADDER_REQUESTS)?;
    let mut replays = [untraced, traced];
    let mut summaries = Vec::new();
    let mut naive_rest = naive.totals.as_slice();
    for replayed in &mut replays {
        let (mine, rest) = naive_rest.split_at(replayed.chunks.len());
        naive_rest = rest;
        home::check_totals(replayed, mine, report);
        report.count(
            replayed.requests as usize + replayed.scrapes.len(),
            replayed.scrape_failures,
        );
        summaries.push(home::summarise(replayed));
    }
    let mut rec = Recorder::new();
    rec.extend(replays[1].spans.iter().map(|span| spans::Span {
        request: span.request | 1 << 48,
        ..*span
    }));
    let ((untraced, untraced_rate), (traced, traced_rate)) = (summaries[0], summaries[1]);
    report.layer("loadgen.lateness_p50_us", untraced.lateness_p50_us, "us");
    report.layer("loadgen.lateness_p99_us", untraced.lateness_p99_us, "us");
    report.layer(
        "loadgen.backlog_max",
        f64::from(untraced.backlog_max),
        "count",
    );
    report.layer(
        "trace.overhead_p50_us",
        traced.decide_p50_us - untraced.decide_p50_us,
        "us",
    );
    report.layer(
        "trace.overhead_p99_us",
        traced.decide_p99_us - untraced.decide_p99_us,
        "us",
    );
    report.named("home_requests_per_s", untraced_rate, "1/s");
    report.named("traced_home_requests_per_s", traced_rate, "1/s");
    report.named("scrape_p99_ms", untraced.side_p99_us / 1e3, "ms");

    // The household's policy as a tenant, for the service and wire rungs.
    let mut engine = home::deploy_engine()?;
    engine
        .declare_environment_role(wire::CHURN_ROLE)
        .map_err(|err| std::io::Error::other(err.to_string()))?;
    let inputs = wire::Inputs::new(&naive.engine, naive.requests, home::edit_targets());
    let tenant = wire::Deployed::start(engine, &inputs.lines[0], inputs.expected[0])?;
    let mut ladder_rec = Recorder::new();
    ladder::run(&tenant, &inputs, &mut ladder_rec, report)?;
    tenant.stop();
    ladder::home_rungs(args.seed, &mut ladder_rec, report)?;
    rec.extend(ladder_rec.spans().iter().copied());
    write_spans(&rec, args, report);
    Ok(())
}

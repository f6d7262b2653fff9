//! The wire workloads: a self-hosted `ServeServer` with one tenant,
//! driven open loop over one connection. `decide_wire` sends decides
//! only; `churn_wire` interleaves an `add_rule` / `remove_rule` pair
//! with every 50 decides.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grbac_bench::fixtures::{synthetic_grbac, SyntheticConfig};
use grbac_bench::serveload::{parse_rule_id, remove_rule_line};
use grbac_core::{AccessRequest, Actor, Effect, Grbac};
use grbac_obs::ObsServer;
use grbac_serve::{PolicyService, ServeServer, ServiceConfig};

use crate::loadgen::{self, Class, Outcome, Plan, Script, Slots};
use crate::report::Report;
use crate::stats::{exact_percentile, median, percentile};

/// The served tenant.
pub const TENANT: &str = "bench";
/// The environment role churn rules are gated on. It is declared at
/// set-up and no decide ever activates it, so churn never changes a
/// decision.
pub const CHURN_ROLE: &str = "er_churn";
/// Decides per interleaved edit in `churn_wire`.
pub const DECIDES_PER_EDIT: usize = 25;
/// Decides per second in the fixed-rate phase.
pub const FIXED_RATE: f64 = 5_000.0;
/// Environment roles active per synthetic request.
pub const ACTIVE_ENV: usize = 3;
/// Distinct decide requests, cycled through by the load.
pub const DISTINCT_REQUESTS: usize = 4_096;
/// The SLO: decide p99 at or under this.
pub const SLO_P99_NS: u64 = 1_000_000;
/// SLO search bounds, decides per second, and bisection steps:
/// (128000/4000)^(1/2^7) < 1.03, so seven steps give better than 5%
/// resolution. The upper bound is about twice the rate one connection
/// sustains on a quiet two-core host, so a faster build can show.
pub const SLO_LOW: f64 = 4_000.0;
/// Upper SLO search bound.
pub const SLO_HIGH: f64 = 128_000.0;
/// Bisection steps.
pub const SLO_STEPS: usize = 7;
/// Probes the SLO phase's time is divided among: the bisection steps
/// plus room for retries (at most one per step).
pub const SLO_PROBE_SLOTS: f64 = 10.0;
/// Share of a run spent at the fixed rate; the SLO search takes the
/// rest.
pub const FIXED_SHARE: f64 = 0.6;
/// Set-ups per run; the median is reported and the last one is used.
pub const SETUP_RUNS: usize = 15;

/// The synthetic policy both wire workloads serve: 1024 rules over
/// 32 subject, 32 object and 16 environment roles.
#[must_use]
pub fn synthetic_config(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        subject_roles: 32,
        object_roles: 32,
        environment_roles: 16,
        rules: 1_024,
        seed,
        ..SyntheticConfig::default()
    }
}

/// The synthetic engine with the churn role declared.
#[must_use]
pub fn synthetic_engine(seed: u64) -> Grbac {
    let mut engine = synthetic_grbac(&synthetic_config(seed)).engine;
    engine
        .declare_environment_role(CHURN_ROLE)
        .expect("the fixture declares no er_churn");
    engine
}

/// What a correct decide answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Permit or deny.
    pub permit: bool,
    /// The winning rule's id, if a rule decided.
    pub winner: Option<u64>,
}

/// A tenant's decide inputs in both forms, with the reference answers.
#[derive(Debug)]
pub struct Inputs {
    /// In-process requests.
    pub requests: Vec<AccessRequest>,
    /// The same requests as wire lines, without newline.
    pub lines: Vec<String>,
    /// `decide_naive` on a twin engine, per request.
    pub expected: Vec<Expected>,
    /// `(subject_role, transaction)` names churn rules are added for.
    pub edit_targets: Vec<(String, String)>,
}

impl Inputs {
    /// Renders `requests` as wire lines against `twin`'s names and
    /// answers each with `twin.decide_naive`.
    #[must_use]
    pub fn new(
        twin: &Grbac,
        requests: Vec<AccessRequest>,
        edit_targets: Vec<(String, String)>,
    ) -> Self {
        let lines = requests.iter().map(|r| decide_line(twin, r)).collect();
        let expected = requests
            .iter()
            .map(|request| {
                let decision = twin
                    .decide_naive(request)
                    .expect("inputs name declared ids");
                Expected {
                    permit: decision.effect() == Effect::Permit,
                    winner: decision.winning_rule().map(u64::from),
                }
            })
            .collect();
        Self {
            requests,
            lines,
            expected,
            edit_targets,
        }
    }
}

/// The decide request line for `request`, by name.
#[must_use]
pub fn decide_line(engine: &Grbac, request: &AccessRequest) -> String {
    let Actor::Subject(subject) = request.actor else {
        panic!("benchmark requests name their subject");
    };
    let entities = engine.entities();
    let env: Vec<String> = request
        .environment
        .active()
        .iter()
        .map(|&role| {
            let name = engine.roles().role(role).expect("declared role").name();
            format!("\"{name}\"")
        })
        .collect();
    format!(
        r#"{{"op":"decide","tenant":"{TENANT}","subject":"{}","transaction":"{}","object":"{}","env":[{}]}}"#,
        entities.subject(subject).expect("declared subject").name(),
        entities
            .transaction(request.transaction)
            .expect("declared transaction")
            .name(),
        entities
            .object(request.object)
            .expect("declared object")
            .name(),
        env.join(",")
    )
}

/// An `add_rule` line for churn rule `k`, gated on [`CHURN_ROLE`].
#[must_use]
pub fn add_rule_line(targets: &[(String, String)], k: usize) -> String {
    let (role, transaction) = &targets[k % targets.len()];
    format!(
        r#"{{"op":"add_rule","tenant":"{TENANT}","effect":"permit","name":"churn_{k}","subject_role":"{role}","transaction":"{transaction}","when":["{CHURN_ROLE}"]}}"#
    )
}

/// The text after `key` in `response`, if present.
fn after<'a>(response: &'a str, key: &str) -> Option<&'a str> {
    response.find(key).map(|at| &response[at + key.len()..])
}

fn leading_u64(text: &str) -> Option<u64> {
    let end = text
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

/// Whether a decide response carries the expected effect and winner.
#[must_use]
pub fn decide_matches(response: &str, expected: Expected) -> bool {
    if !response.starts_with(r#"{"ok":true,"#) {
        return false;
    }
    let effect = if expected.permit {
        r#""effect":"permit""#
    } else {
        r#""effect":"deny""#
    };
    if !response.contains(effect) {
        return false;
    }
    let Some(winner) = after(response, r#""winner":"#) else {
        return false;
    };
    match expected.winner {
        Some(rule) => leading_u64(winner) == Some(rule),
        None => winner.starts_with("null"),
    }
}

/// Decides, and with `churn` an edit after every
/// [`DECIDES_PER_EDIT`] decides: an `add_rule`, then the
/// `remove_rule` of the rule it added, alternately.
pub struct WireScript<'a> {
    /// Requests and answers.
    pub inputs: &'a Inputs,
    /// Interleave edits.
    pub churn: bool,
    /// Total ops.
    pub ops: usize,
    /// First decide input used (so consecutive runs move on through
    /// the inputs).
    pub decide_base: usize,
    /// Number of the first churn rule (so rule names stay distinct
    /// across runs).
    pub pair_base: usize,
}

impl WireScript<'_> {
    /// Ops per edit cycle: the decides and the edit after them.
    const CYCLE: usize = DECIDES_PER_EDIT + 1;

    /// Ops per decide offered.
    fn ops_per_decide(churn: bool) -> f64 {
        if churn {
            Self::CYCLE as f64 / DECIDES_PER_EDIT as f64
        } else {
            1.0
        }
    }

    /// Ops needed to offer `decides_per_s` for `seconds`.
    #[must_use]
    pub fn ops_for(churn: bool, decides_per_s: f64, seconds: f64) -> usize {
        (decides_per_s * seconds * Self::ops_per_decide(churn)) as usize
    }

    /// Op rate that offers `decides_per_s`.
    #[must_use]
    pub fn op_rate(churn: bool, decides_per_s: f64) -> f64 {
        decides_per_s * Self::ops_per_decide(churn)
    }

    fn is_edit(&self, op: usize) -> bool {
        self.churn && op % Self::CYCLE == DECIDES_PER_EDIT
    }

    fn decide_index(&self, op: usize) -> usize {
        let decides_before = if self.churn {
            op - op / Self::CYCLE
        } else {
            op
        };
        (self.decide_base + decides_before) % self.inputs.lines.len()
    }

    /// Churn pairs the script starts.
    #[must_use]
    pub fn pairs(&self) -> usize {
        if self.churn {
            (self.ops / Self::CYCLE).div_ceil(2)
        } else {
            0
        }
    }

    /// The `decide_base` of a script that continues after this one.
    #[must_use]
    pub fn next_decide(&self) -> usize {
        self.decide_base + self.ops
    }
}

impl Script for WireScript<'_> {
    fn len(&self) -> usize {
        self.ops
    }

    fn class(&self, op: usize) -> Class {
        if self.is_edit(op) {
            Class::Side
        } else {
            Class::Primary
        }
    }

    fn slots(&self) -> usize {
        self.pairs()
    }

    fn line(&self, op: usize, slots: &Slots, out: &mut Vec<u8>) -> bool {
        let cycle = op / Self::CYCLE;
        match self.class(op) {
            Class::Primary => {
                out.extend_from_slice(self.inputs.lines[self.decide_index(op)].as_bytes())
            }
            Class::Side if cycle.is_multiple_of(2) => out.extend_from_slice(
                add_rule_line(&self.inputs.edit_targets, self.pair_base + cycle / 2).as_bytes(),
            ),
            Class::Side => match slots.get(cycle / 2) {
                Some(rule) => out.extend_from_slice(remove_rule_line(TENANT, rule).as_bytes()),
                None => return false,
            },
        }
        out.push(b'\n');
        true
    }

    fn check(&self, op: usize, response: &str, slots: &Slots) -> bool {
        let cycle = op / Self::CYCLE;
        match self.class(op) {
            Class::Primary => decide_matches(response, self.inputs.expected[self.decide_index(op)]),
            Class::Side if cycle.is_multiple_of(2) => match parse_rule_id(response) {
                Some(rule) => {
                    slots.publish(cycle / 2, rule);
                    true
                }
                None => {
                    slots.publish(cycle / 2, Slots::FAILED);
                    false
                }
            },
            Class::Side => response.contains(r#""removed":true"#),
        }
    }
}

/// A served tenant: service, NDJSON server, obs plane and the load
/// connection.
pub struct Deployed {
    /// The policy service.
    pub service: Arc<PolicyService>,
    /// The NDJSON endpoint.
    pub server: ServeServer,
    /// The tenant's observability plane.
    pub obs: ObsServer,
    /// The load connection.
    pub stream: TcpStream,
}

impl Deployed {
    /// Provisions `engine` as [`TENANT`] on a service at its shipped
    /// defaults, binds the server and the obs plane (their threads on
    /// the server core, see [`crate::pin`]), connects, and
    /// sends `first_decide` (whose answer must match `expected`) so
    /// the index is compiled before the first timed op.
    ///
    /// # Errors
    ///
    /// Bind, connect or transport failures, or a wrong first answer.
    pub fn start(engine: Grbac, first_decide: &str, expected: Expected) -> std::io::Result<Self> {
        let service = Arc::new(PolicyService::new(ServiceConfig::default()));
        service
            .create_tenant_with_engine(TENANT, engine)
            .map_err(|err| std::io::Error::other(err.to_string()))?;
        let (server, obs) = crate::pin::on_server_core(|| {
            let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0")?;
            let obs = service.serve_observability(TENANT, "127.0.0.1:0")?;
            Ok::<_, std::io::Error>((server, obs))
        })?;
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        writer.write_all(format!("{first_decide}\n").as_bytes())?;
        let mut response = String::new();
        BufReader::new(stream.try_clone()?).read_line(&mut response)?;
        if !decide_matches(response.trim_end(), expected) {
            return Err(std::io::Error::other(format!(
                "first decide answered {response}"
            )));
        }
        Ok(Self {
            service,
            server,
            obs,
            stream,
        })
    }

    /// Closes the connection and joins every server thread.
    pub fn stop(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        drop(self.stream);
        self.server.shutdown();
        self.obs.shutdown();
    }
}

/// Runs `setup` `times` times, stopping all but the last deployment,
/// and returns it with the median set-up seconds.
///
/// # Errors
///
/// The first failing set-up.
pub fn median_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> std::io::Result<T>,
    mut teardown: impl FnMut(T),
) -> std::io::Result<(T, f64)> {
    let mut seconds = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times.max(1) {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let started = Instant::now();
        let deployed = setup()?;
        seconds.push(started.elapsed().as_secs_f64());
        kept = Some(deployed);
    }
    let median = median(&mut seconds).expect("at least one set-up");
    Ok((kept.expect("at least one set-up"), median))
}

/// Percentile summary of a fixed-rate run. Every percentile is taken
/// over all of the run's samples, so a stall anywhere in the run is
/// charged to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedRate {
    /// Decide p50, microseconds.
    pub decide_p50_us: f64,
    /// Decide p90, microseconds.
    pub decide_p90_us: f64,
    /// Decide p99, microseconds.
    pub decide_p99_us: f64,
    /// Decide samples.
    pub decide_n: usize,
    /// Side-op p50, microseconds.
    pub side_p50_us: f64,
    /// Side-op p90, microseconds.
    pub side_p90_us: f64,
    /// Side-op p99 (or the highest percentile with ten samples beyond
    /// it), microseconds.
    pub side_p99_us: f64,
    /// Percentile actually reported for the side-op tail.
    pub side_tail_p: f64,
    /// Side-op samples.
    pub side_n: usize,
    /// Generator lateness p50, microseconds.
    pub lateness_p50_us: f64,
    /// Generator lateness p99 (or the highest percentile with ten
    /// samples beyond it), microseconds.
    pub lateness_p99_us: f64,
    /// Largest backlog of unanswered ops.
    pub backlog_max: u32,
}

/// Percentile `p` of `ns`, in microseconds; NaN when the sample does
/// not support it.
fn us(ns: &mut [f64], p: f64) -> f64 {
    exact_percentile(ns, p).map_or(f64::NAN, |v| v / 1e3)
}

impl FixedRate {
    /// Summarises latencies (ns, from due) of the primary ops, of the
    /// side ops, and the generator's lateness (ns) and backlog.
    #[must_use]
    pub fn new(
        primary: &mut [f64],
        side: &mut [f64],
        lateness: &mut [f64],
        backlog_max: u32,
    ) -> Self {
        let side_p99 = percentile(side, 99.0);
        Self {
            decide_p50_us: us(primary, 50.0),
            decide_p90_us: us(primary, 90.0),
            decide_p99_us: us(primary, 99.0),
            decide_n: primary.len(),
            side_p50_us: us(side, 50.0),
            side_p90_us: us(side, 90.0),
            side_p99_us: side_p99.map_or(f64::NAN, |p| p.value / 1e3),
            side_tail_p: side_p99.map_or(0.0, |p| p.p),
            side_n: side.len(),
            lateness_p50_us: us(lateness, 50.0),
            lateness_p99_us: percentile(lateness, 99.0).map_or(f64::NAN, |p| p.value / 1e3),
            backlog_max,
        }
    }
}

/// Summarises a fixed-rate outcome.
#[must_use]
pub fn summarise(outcome: &Outcome, script: &dyn Script) -> FixedRate {
    let mut lateness: Vec<f64> = outcome.lateness_ns.iter().map(|&l| l as f64).collect();
    FixedRate::new(
        &mut outcome.latencies(script, Class::Primary),
        &mut outcome.latencies(script, Class::Side),
        &mut lateness,
        outcome.backlog.iter().copied().max().unwrap_or(0),
    )
}

/// What one SLO probe found.
struct Probe {
    /// Decide p99 within the SLO, flat backlog, every answer right.
    pass: bool,
    /// Ops sent.
    sent: usize,
    /// Wrong or missing answers.
    failed: usize,
    /// The `decide_base` of the next probe.
    next_decide: usize,
    /// Churn pairs the probe used.
    pairs: usize,
}

/// One SLO probe: whether `decides_per_s` is sustained for `seconds`
/// with decide p99 within the SLO, a flat backlog and no failure.
fn probe(stream: &TcpStream, script: &WireScript, decides_per_s: f64) -> std::io::Result<Probe> {
    let outcome = loadgen::run(
        stream,
        script,
        &Plan {
            rate_per_s: WireScript::op_rate(script.churn, decides_per_s),
            abort_latency_ns: Some(20 * SLO_P99_NS),
            response_timeout: Duration::from_secs(10),
            trace: false,
        },
    )?;
    let mut decides = outcome.latencies(script, Class::Primary);
    let p99_ok = exact_percentile(&mut decides, 99.0).is_some_and(|p99| p99 <= SLO_P99_NS as f64);
    // Flat backlog: over the last tenth of the sends, the median
    // backlog stays within what 1 ms of arrivals can explain.
    let tail_from = outcome.backlog.len() * 9 / 10;
    let mut tail: Vec<f64> = outcome.backlog[tail_from..]
        .iter()
        .map(|&b| f64::from(b))
        .collect();
    let flat = median(&mut tail)
        .is_some_and(|b| b <= 1.0 + WireScript::op_rate(script.churn, decides_per_s) * 1e-3);
    let whole = !outcome.aborted && outcome.failed == 0 && outcome.sent == script.ops;
    Ok(Probe {
        pass: whole && flat && p99_ok,
        sent: outcome.sent,
        failed: outcome.failed,
        next_decide: script.next_decide(),
        pairs: script.pairs(),
    })
}

/// Bisects in log space between [`SLO_LOW`] and [`SLO_HIGH`] for the
/// highest decide rate meeting the SLO, continuing the inputs and
/// churn rules of `after`. Every failure inside a probe, a wrong
/// answer or a missing one, is summed into [`SloResult::failed`].
///
/// # Errors
///
/// Transport failures.
pub fn slo_search(
    stream: &TcpStream,
    after: &WireScript,
    seconds_per_probe: f64,
) -> std::io::Result<SloResult> {
    let (mut pass, mut fail) = (SLO_LOW, SLO_HIGH);
    let (mut decide_base, mut pair_base) = (after.next_decide(), after.pair_base + after.pairs());
    let mut result = SloResult::default();
    for _ in 0..SLO_STEPS {
        let rate = (pass * fail).sqrt();
        // A failed probe gets one retry: one host hiccup must not send
        // the search below a rate the service sustains, while a rate
        // beyond capacity fails both times.
        let mut ok = false;
        for _ in 0..2 {
            let script = WireScript {
                inputs: after.inputs,
                churn: after.churn,
                ops: WireScript::ops_for(after.churn, rate, seconds_per_probe),
                decide_base,
                pair_base,
            };
            let probed = probe(stream, &script, rate)?;
            decide_base = probed.next_decide;
            pair_base += probed.pairs;
            result.sent += probed.sent;
            result.failed += probed.failed;
            result.probes.push((rate, probed.pass));
            // Let a failed probe's queue drain before the next one.
            std::thread::sleep(Duration::from_millis(50));
            ok = probed.pass;
            if ok {
                break;
            }
        }
        if ok {
            pass = rate;
            result.decides_per_s = rate;
        } else {
            fail = rate;
        }
    }
    Ok(result)
}

/// What the SLO search found.
#[derive(Debug, Default)]
pub struct SloResult {
    /// Highest passing rate; 0 when no probe passed.
    pub decides_per_s: f64,
    /// Probes in order.
    pub probes: Vec<(f64, bool)>,
    /// Ops sent over all probes.
    pub sent: usize,
    /// Wrong or missing responses over all probes.
    pub failed: usize,
}

/// Inputs for the synthetic tenant: requests from the fixture's name
/// pools, rendered against a twin engine built from the same seed.
#[must_use]
pub fn synthetic_inputs(seed: u64) -> Inputs {
    let twin = synthetic_grbac(&synthetic_config(seed));
    let requests = twin.requests(DISTINCT_REQUESTS, ACTIVE_ENV, seed ^ 0x5eed_5eed);
    let mut engine = twin.engine;
    engine
        .declare_environment_role(CHURN_ROLE)
        .expect("the fixture declares no er_churn");
    let config = synthetic_config(seed);
    let targets = (0..config.subject_roles)
        .map(|i| (format!("sr_{i}"), format!("t_{}", i % config.transactions)))
        .collect();
    Inputs::new(&engine, requests, targets)
}

/// Runs `decide_wire` (`churn = false`) or `churn_wire` (`churn =
/// true`).
///
/// # Errors
///
/// Set-up or transport failures.
pub fn run_workload(
    churn: bool,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> std::io::Result<()> {
    let inputs = synthetic_inputs(seed);
    let (deployed, setup_s) = median_setup(
        SETUP_RUNS,
        || Deployed::start(synthetic_engine(seed), &inputs.lines[0], inputs.expected[0]),
        Deployed::stop,
    )?;
    report.e2e("setup_s", setup_s, "s");

    let fixed_seconds = seconds * FIXED_SHARE;
    let script = WireScript {
        inputs: &inputs,
        churn,
        ops: WireScript::ops_for(churn, FIXED_RATE, fixed_seconds),
        decide_base: 0,
        pair_base: 0,
    };
    let outcome = loadgen::run(
        &deployed.stream,
        &script,
        &Plan {
            rate_per_s: WireScript::op_rate(churn, FIXED_RATE),
            abort_latency_ns: None,
            response_timeout: Duration::from_secs(10),
            trace: false,
        },
    )?;
    report.count(outcome.sent, outcome.failed);
    let fixed = summarise(&outcome, &script);
    // Read before the SLO search, whose faster probes allocate more
    // per-op bookkeeping in the harness, so the figure does not follow
    // the search's result.
    let peak_rss_mb = crate::report::peak_rss_mb();
    let slo = slo_search(
        &deployed.stream,
        &script,
        seconds * (1.0 - FIXED_SHARE) / SLO_PROBE_SLOTS,
    )?;
    report.count(slo.sent, slo.failed);
    deployed.stop();

    report.end_to_end(&fixed);
    report.e2e("peak_rss_mb", peak_rss_mb, "MB");
    report.named("decide_p50_us", fixed.decide_p50_us, "us");
    report.named("decide_p90_us", fixed.decide_p90_us, "us");
    report.named("decide_p99_us", fixed.decide_p99_us, "us");
    report.named("slo_decides_per_s", slo.decides_per_s, "1/s");
    if churn {
        report.named("edit_p50_us", fixed.side_p50_us, "us");
        report.named("edit_p90_us", fixed.side_p90_us, "us");
        report.named("edit_p99_us", fixed.side_p99_us, "us");
    }
    report.generator(&fixed);
    let edits = if churn {
        format!(
            ", {} edits (tail reported at p{:.2})",
            fixed.side_n, fixed.side_tail_p
        )
    } else {
        String::new()
    };
    report.note(format!(
        "fixed rate {FIXED_RATE}/s decides for {fixed_seconds:.1}s: {} decides{edits}; slo probes {:?}",
        fixed.decide_n,
        slo.probes
            .iter()
            .map(|(rate, ok)| format!("{rate:.0}:{}", if *ok { "pass" } else { "fail" }))
            .collect::<Vec<_>>()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_check_compares_effect_and_winner() {
        let permit7 = Expected {
            permit: true,
            winner: Some(7),
        };
        let ok = r#"{"ok":true,"op":"decide","result":{"effect":"permit","decision_id":"ab","degraded":false,"winner":7}}"#;
        assert!(decide_matches(ok, permit7));
        assert!(!decide_matches(
            ok,
            Expected {
                permit: true,
                winner: Some(71)
            }
        ));
        assert!(!decide_matches(
            ok,
            Expected {
                permit: false,
                winner: Some(7)
            }
        ));
        let default_deny = r#"{"ok":true,"op":"decide","result":{"effect":"deny","decision_id":"ab","degraded":false,"winner":null}}"#;
        assert!(decide_matches(
            default_deny,
            Expected {
                permit: false,
                winner: None
            }
        ));
        assert!(!decide_matches(r#"{"ok":false,"op":"decide"}"#, permit7));
    }

    fn two_inputs() -> Inputs {
        Inputs {
            requests: Vec::new(),
            lines: vec!["d0".into(), "d1".into()],
            expected: vec![
                Expected {
                    permit: true,
                    winner: None
                };
                2
            ],
            edit_targets: vec![("sr_0".into(), "t_0".into())],
        }
    }

    #[test]
    fn decide_script_sends_decides_only() {
        let inputs = two_inputs();
        let script = WireScript {
            inputs: &inputs,
            churn: false,
            ops: 60,
            decide_base: 1,
            pair_base: 0,
        };
        assert!((0..script.ops).all(|op| script.class(op) == Class::Primary));
        assert_eq!(script.pairs(), 0);
        assert_eq!(WireScript::op_rate(false, FIXED_RATE), FIXED_RATE);
        let slots = Slots::new(script.slots());
        let mut line = Vec::new();
        assert!(script.line(26, &slots, &mut line));
        assert_eq!(line, b"d1\n");
        assert_eq!(script.next_decide(), 61);
    }

    #[test]
    fn churn_script_interleaves_one_edit_per_25_decides_and_pairs_them() {
        let inputs = two_inputs();
        let script = WireScript {
            inputs: &inputs,
            churn: true,
            ops: 26 * 4,
            decide_base: 0,
            pair_base: 10,
        };
        let slots = Slots::new(script.slots());
        let sides: Vec<usize> = (0..script.ops)
            .filter(|&op| script.class(op) == Class::Side)
            .collect();
        assert_eq!(sides, vec![25, 51, 77, 103]);
        let mut line = Vec::new();
        assert!(script.line(25, &slots, &mut line));
        assert!(String::from_utf8_lossy(&line).contains(r#""name":"churn_10""#));
        // The remove waits for the add's rule id.
        line.clear();
        assert!(!script.line(51, &slots, &mut line));
        assert!(script.check(
            25,
            r#"{"ok":true,"op":"add_rule","result":{"rule":99}}"#,
            &slots
        ));
        line.clear();
        assert!(script.line(51, &slots, &mut line));
        assert_eq!(
            String::from_utf8_lossy(&line),
            format!("{}\n", remove_rule_line(TENANT, 99))
        );
        assert_eq!(script.pairs(), 2);
    }
}

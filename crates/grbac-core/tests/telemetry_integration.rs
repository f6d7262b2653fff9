//! Engine-level telemetry integration: audit parity between `decide`
//! and `decide_batch`, audit gauges that survive eviction,
//! exporter agreement on a live engine's snapshot, rule-heat counters
//! fed by the live mediation path, watchdog alerts surfacing in the
//! scrape payload, and trace output.

use grbac_core::prelude::*;
use grbac_core::telemetry::{
    self, DecisionWatchdog, Exporter, JsonExporter, PrometheusExporter, Stage, WatchdogConfig,
};

struct Home {
    g: Grbac,
    alice: SubjectId,
    mom: SubjectId,
    tv: ObjectId,
    use_t: TransactionId,
    weekdays: RoleId,
    free_time: RoleId,
}

/// The §5.1 household: child may use entertainment devices on weekday
/// free time; everything else denies by default.
fn household() -> Home {
    let mut g = Grbac::new();
    let parent = g.declare_subject_role("parent").unwrap();
    let child = g.declare_subject_role("child").unwrap();
    let entertainment = g.declare_object_role("entertainment").unwrap();
    let weekdays = g.declare_environment_role("weekdays").unwrap();
    let free_time = g.declare_environment_role("free_time").unwrap();
    let use_t = g.declare_transaction("use").unwrap();

    let alice = g.declare_subject("alice").unwrap();
    let mom = g.declare_subject("mom").unwrap();
    g.assign_subject_role(alice, child).unwrap();
    g.assign_subject_role(mom, parent).unwrap();
    let tv = g.declare_object("tv").unwrap();
    g.assign_object_role(tv, entertainment).unwrap();

    g.add_rule(
        RuleDef::permit()
            .subject_role(child)
            .object_role(entertainment)
            .transaction(use_t)
            .when(weekdays)
            .when(free_time),
    )
    .unwrap();

    Home {
        g,
        alice,
        mom,
        tv,
        use_t,
        weekdays,
        free_time,
    }
}

fn requests(home: &Home) -> Vec<AccessRequest> {
    let evening = EnvironmentSnapshot::from_active([home.weekdays, home.free_time]);
    let school = EnvironmentSnapshot::from_active([home.weekdays]);
    (0..8)
        .flat_map(|i| {
            [
                AccessRequest::by_subject(home.alice, home.use_t, home.tv, evening.clone())
                    .at(i * 10),
                AccessRequest::by_subject(home.alice, home.use_t, home.tv, school.clone())
                    .at(i * 10 + 1),
                AccessRequest::by_subject(home.mom, home.use_t, home.tv, evening.clone())
                    .at(i * 10 + 2),
            ]
        })
        .collect()
}

#[test]
fn decide_batch_audits_identically_to_sequential_decide() {
    let sequential_home = household();
    let batched_home = household();
    let batch = requests(&batched_home);

    let sequential_decisions: Vec<Decision> = requests(&sequential_home)
        .iter()
        .map(|request| sequential_home.g.decide(request).unwrap())
        .collect();
    let batched_decisions: Vec<Decision> = batched_home
        .g
        .decide_batch(&batch)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    assert_eq!(batched_decisions, sequential_decisions);

    // Audit records are identical, field for field, in request order…
    let sequential_records: Vec<_> = sequential_home.g.audit().iter().collect();
    let batched_records: Vec<_> = batched_home.g.audit().iter().collect();
    assert_eq!(batched_records, sequential_records);
    assert_eq!(batched_records.len(), batch.len());

    // …and sequence numbers are strictly monotonic.
    for pair in batched_records.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq order broken: {pair:?}");
    }

    if telemetry::ENABLED {
        // The decision counters and audit gauges agree with the
        // sequential engine's; only batch accounting differs.
        let sequential_snapshot = sequential_home.g.metrics_snapshot();
        let batched_snapshot = batched_home.g.metrics_snapshot();
        for name in [
            "grbac_decisions_permit_total",
            "grbac_decisions_deny_total",
            "grbac_decide_errors_total",
        ] {
            assert_eq!(
                batched_snapshot.counter(name),
                sequential_snapshot.counter(name),
                "{name} diverged"
            );
        }
        for name in [
            "grbac_audit_permit_total",
            "grbac_audit_deny_total",
            "grbac_audit_retained",
        ] {
            assert_eq!(
                batched_snapshot.gauge(name),
                sequential_snapshot.gauge(name),
                "{name} diverged"
            );
        }
        assert_eq!(batched_snapshot.counter("grbac_batch_calls_total"), 1);
        assert_eq!(sequential_snapshot.counter("grbac_batch_calls_total"), 0);
    }
}

#[test]
fn audit_gauges_survive_eviction() {
    let mut home = household();
    home.g.set_flight_recorder_capacity(8);
    for request in requests(&home) {
        home.g.decide(&request).unwrap();
    }
    let permits = home.g.audit().permit_count();
    let denies = home.g.audit().deny_count();
    assert_eq!((permits, denies), (8, 16));
    assert_eq!(home.g.audit().len(), 8);
    assert_eq!(home.g.audit().evicted_count(), 16);

    if telemetry::ENABLED {
        let snapshot = home.g.metrics_snapshot();
        // The gauges mirror the log's running totals, which survive
        // eviction even though only 8 records remain.
        assert_eq!(snapshot.gauge("grbac_audit_permit_total"), permits);
        assert_eq!(snapshot.gauge("grbac_audit_deny_total"), denies);
        assert_eq!(snapshot.gauge("grbac_audit_evictions"), 16);
        assert_eq!(snapshot.gauge("grbac_audit_retained"), 8);
    }
}

#[test]
fn exporters_render_the_same_live_snapshot() {
    let home = household();
    for request in requests(&home) {
        home.g.decide(&request).unwrap();
    }
    let snapshot = home.g.metrics_snapshot();
    let text = PrometheusExporter.export(&snapshot);
    let json = JsonExporter.export(&snapshot);
    for (name, value) in &snapshot.counters {
        assert!(text.contains(&format!("{name} {value}")), "missing {name}");
        assert!(
            json.contains(&format!("\"{name}\":{value}")),
            "missing {name}"
        );
    }
    if telemetry::ENABLED {
        // Per-transaction series are labelled with declared names.
        assert!(text.contains("grbac_rule_matches_total{transaction=\"use\"}"));
        assert!(json.contains("\"use\":"));
    }
}

#[test]
fn degraded_decisions_carry_their_reason_into_the_audit_log() {
    let mut home = household();
    home.g.set_degraded_mode(DegradedMode::fail_closed());
    let evening = EnvironmentSnapshot::from_active([home.weekdays, home.free_time]);

    let fresh = AccessRequest::by_subject(home.alice, home.use_t, home.tv, evening.clone()).at(0);
    let stale = AccessRequest::by_subject(home.alice, home.use_t, home.tv, evening.clone())
        .at(1)
        .with_env_health(EnvHealth::Stale { age: 600 });
    let dark = AccessRequest::by_subject(home.alice, home.use_t, home.tv, evening)
        .at(2)
        .with_env_health(EnvHealth::Unavailable);

    let fresh_decision = home.g.decide(&fresh).unwrap();
    assert!(fresh_decision.is_permitted());
    assert!(!fresh_decision.is_degraded());

    let stale_decision = home.g.decide(&stale).unwrap();
    assert!(
        !stale_decision.is_permitted(),
        "fail-closed drops over-budget roles, so the rule cannot match"
    );
    assert_eq!(
        stale_decision.degraded(),
        Some(&DegradedReason::StaleRolesDropped {
            age: 600,
            dropped: 2
        })
    );

    let dark_decision = home.g.decide(&dark).unwrap();
    assert!(!dark_decision.is_permitted());
    assert_eq!(
        dark_decision.degraded(),
        Some(&DegradedReason::EnvUnavailable)
    );

    // The decision log retains each decision's reason, verbatim.
    let records: Vec<_> = home.g.audit().iter().collect();
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].degraded, None);
    assert_eq!(records[1].degraded, stale_decision.degraded().copied());
    assert_eq!(records[2].degraded, dark_decision.degraded().copied());

    if telemetry::ENABLED {
        let snapshot = home.g.metrics_snapshot();
        assert_eq!(snapshot.counter("grbac_decisions_degraded_total"), 2);
        assert_eq!(snapshot.counter("grbac_env_roles_dropped_stale_total"), 2);
    }
}

#[test]
fn degraded_audits_are_identical_across_decide_and_decide_batch() {
    let mut sequential_home = household();
    let mut batched_home = household();
    for home in [&mut sequential_home, &mut batched_home] {
        // A 15-minute budget: 10-minute staleness is absorbed silently,
        // 30-minute staleness degrades.
        home.g
            .set_degraded_mode(DegradedMode::fail_closed().with_default_budget(900));
    }
    let evening =
        EnvironmentSnapshot::from_active([sequential_home.weekdays, sequential_home.free_time]);
    let batch: Vec<AccessRequest> = [
        EnvHealth::Fresh,
        EnvHealth::Stale { age: 600 },
        EnvHealth::Stale { age: 1_800 },
        EnvHealth::Unavailable,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, health)| {
        AccessRequest::by_subject(
            sequential_home.alice,
            sequential_home.use_t,
            sequential_home.tv,
            evening.clone(),
        )
        .at(i as u64)
        .with_env_health(health)
    })
    .collect();

    let sequential_decisions: Vec<Decision> = batch
        .iter()
        .map(|request| sequential_home.g.decide(request).unwrap())
        .collect();
    let batched_decisions: Vec<Decision> = batched_home
        .g
        .decide_batch(&batch)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    assert_eq!(batched_decisions, sequential_decisions);

    // Within-budget staleness is not a degradation; past-budget is.
    assert!(sequential_decisions[0].is_permitted());
    assert!(sequential_decisions[1].is_permitted());
    assert!(!sequential_decisions[1].is_degraded());
    assert!(sequential_decisions[2].is_degraded());
    assert!(sequential_decisions[3].is_degraded());

    // Audit parity extends to the degraded field.
    let sequential_records: Vec<_> = sequential_home.g.audit().iter().collect();
    let batched_records: Vec<_> = batched_home.g.audit().iter().collect();
    assert_eq!(batched_records, sequential_records);
    for (record, decision) in sequential_records.iter().zip(&sequential_decisions) {
        assert_eq!(record.degraded, decision.degraded().copied());
    }

    if telemetry::ENABLED {
        for home in [&sequential_home, &batched_home] {
            let snapshot = home.g.metrics_snapshot();
            assert_eq!(snapshot.counter("grbac_decisions_degraded_total"), 2);
        }
    }
}

#[test]
fn rule_heat_follows_the_live_mediation_path() {
    if !telemetry::ENABLED {
        return;
    }
    let home = household();
    for request in requests(&home) {
        home.g.decide(&request).unwrap();
    }

    // 8 evening requests match and win the single permit rule; the 8
    // school and 8 mom requests fall through to the default deny, which
    // has no winning rule.
    let heat = home.g.heat_snapshot();
    assert_eq!(heat.decisions, 24);
    let rule = heat.get(0);
    assert_eq!(rule.matched, 8);
    assert_eq!(rule.won_permit, 8);
    assert_eq!(rule.won_deny, 0);
    assert!(rule.last_fired_generation.is_some());

    // The scrape payload labels the series with the engine's rule label
    // (display form, since the rule is unnamed).
    let text = PrometheusExporter.export(&home.g.metrics_snapshot());
    assert!(text.contains("grbac_rule_heat_matched_total{rule=\"rule0\"} 8"));
    assert!(text.contains("grbac_rule_heat_won_permit_total{rule=\"rule0\"} 8"));
    assert!(text.contains("grbac_rule_heat_enabled 1"));

    // Disabling at runtime stops accrual without clearing history;
    // resetting clears it and counts the reset.
    home.g.metrics().rule_heat.set_enabled(false);
    let evening = EnvironmentSnapshot::from_active([home.weekdays, home.free_time]);
    home.g
        .decide(&AccessRequest::by_subject(
            home.alice, home.use_t, home.tv, evening,
        ))
        .unwrap();
    assert_eq!(home.g.heat_snapshot().decisions, 24);
    home.g.metrics().rule_heat.set_enabled(true);
    home.g.metrics().rule_heat.reset();
    let cleared = home.g.heat_snapshot();
    assert_eq!(cleared.decisions, 0);
    assert_eq!(cleared.resets, 1);
    assert_eq!(cleared.get(0).matched, 0);
}

#[test]
fn watchdog_alerts_surface_in_the_scrape_payload() {
    if !telemetry::ENABLED {
        return;
    }
    let home = household();
    let registry = home.g.metrics();
    let mut watchdog = DecisionWatchdog::new(WatchdogConfig {
        warmup_ticks: 3,
        min_decisions: 1,
        min_polls: 1,
        ..WatchdogConfig::default()
    });

    // A calm baseline (5% denies) followed by a hostile tick (90%).
    for _ in 0..6 {
        registry.decisions_permit.add(95);
        registry.decisions_deny.add(5);
        assert!(watchdog.tick(registry).is_empty());
    }
    registry.decisions_permit.add(10);
    registry.decisions_deny.add(90);
    let alerts = watchdog.tick(registry);
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].kind, telemetry::AlertKind::DenyRateSpike);

    let text = PrometheusExporter.export(&home.g.metrics_snapshot());
    assert!(text.contains("grbac_alerts_total{kind=\"deny_rate_spike\"} 1"));
    assert!(text.contains("grbac_watchdog_ticks_total 7"));
    assert!(text.contains("# HELP grbac_alerts_total"));
}

#[test]
fn traces_expose_the_pipeline() {
    let home = household();
    let evening = EnvironmentSnapshot::from_active([home.weekdays, home.free_time]);
    let request = AccessRequest::by_subject(home.alice, home.use_t, home.tv, evening);
    let (decision, trace) = home.g.decide_traced(&request).unwrap();
    assert!(decision.is_permitted());
    assert_eq!(trace.stages.len(), 5);
    // Exactly one candidate rule exists and it matched.
    assert_eq!(trace.stage(Stage::CandidateMerge).unwrap().items, 1);
    assert_eq!(trace.stage(Stage::PrecedenceResolution).unwrap().items, 1);
    // weekdays + free_time active.
    assert_eq!(trace.stage(Stage::EnvironmentEvaluation).unwrap().items, 2);
    let rendered = trace.render();
    assert!(rendered.contains("candidate_merge"));
    assert!(rendered.contains("total"));
}

//! Forensic queries and reference-grade replay over recorded decisions.
//!
//! A [`ProvenanceRecord`] carries the full request (actor, triple,
//! environment, health, timestamp), so any recorded decision can be
//! **replayed** against a policy engine — the one that made it, today's
//! mutated one, or a historical snapshot loaded from serde — and the
//! two outcomes diffed structurally: did the verdict flip, which rules
//! entered or left the matched set, did the subject's role closure
//! change. Replays go through [`Grbac::decide_naive`], the engine's
//! reference path, so a replay diff indicts the *policy change*, never
//! the compiled index; and the naive path does not feed the flight
//! recorder, so forensics never pollutes its own evidence.

use serde::{Deserialize, Serialize};

use crate::audit::{AuditFilter, AuditRecord};
use crate::engine::{AccessRequest, Grbac};
use crate::environment::EnvironmentSnapshot;
use crate::error::Result;
use crate::id::{DecisionId, RuleId};
use crate::rule::Effect;
use crate::telemetry::{RuleHeatSnapshot, Stage};

use super::recorder::ProvenanceRecord;

/// A filter over flight-recorder records: the shared [`AuditFilter`]
/// semantics plus provenance-only predicates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ForensicQuery {
    /// Field filter shared with [`AuditView`](crate::audit::AuditView)
    /// queries.
    pub filter: AuditFilter,
    /// Match only records that carry stage timings (latency-sampled or
    /// explicitly traced decisions).
    pub traced_only: bool,
}

impl ForensicQuery {
    /// A query matching every record.
    #[must_use]
    pub fn any() -> Self {
        Self::default()
    }

    /// Whether a record passes the query.
    ///
    /// The subject filter matches [`ProvenanceRecord::subject`], the
    /// subject resolved at decision time, so open-session records match
    /// their session's subject.
    #[must_use]
    pub fn matches(&self, record: &ProvenanceRecord) -> bool {
        if self.traced_only && !record.is_traced() {
            return false;
        }
        self.filter.matches_parts(
            record.subject,
            record.transaction,
            record.object,
            record.effect,
            record.timestamp,
            record.degraded.as_ref(),
        )
    }

    /// The records in `records` passing this query, in input order.
    #[must_use]
    pub fn select<'a>(&self, records: &'a [ProvenanceRecord]) -> Vec<&'a ProvenanceRecord> {
        records.iter().filter(|r| self.matches(r)).collect()
    }
}

/// Rebuilds the exact [`AccessRequest`] a record was mediated from.
#[must_use]
pub fn rebuild_request(record: &ProvenanceRecord) -> AccessRequest {
    AccessRequest {
        actor: record.actor.clone(),
        transaction: record.transaction,
        object: record.object,
        environment: EnvironmentSnapshot::from_active(record.env_roles.iter().copied()),
        timestamp: record.timestamp,
        env_health: record.env_health,
    }
}

/// How the subject's role closure moved between recording and replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClosureDelta {
    /// Policy generation at recording time.
    pub generation_then: u64,
    /// Policy generation of the replaying engine.
    pub generation_now: u64,
    /// Expanded subject-role count at recording time.
    pub roles_then: u32,
    /// Expanded subject-role count on replay.
    pub roles_now: u32,
}

impl ClosureDelta {
    /// True when the subject's expanded role count moved. (The
    /// generation alone moving is not a closure change — any
    /// decision-relevant mutation bumps it.)
    #[must_use]
    pub fn roles_changed(&self) -> bool {
        self.roles_then != self.roles_now
    }
}

/// The structural difference between a recorded decision and its
/// replay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayDiff {
    /// The replayed verdict differs from the recorded one.
    pub verdict_flipped: bool,
    /// The rule carrying the decision changed.
    pub winner_changed: bool,
    /// Rules matching on replay that did not match at recording time.
    pub rules_added: Vec<RuleId>,
    /// Rules that matched at recording time but not on replay.
    pub rules_removed: Vec<RuleId>,
    /// Role-closure movement.
    pub closure: ClosureDelta,
}

impl ReplayDiff {
    /// True when the replay reproduced the recorded decision exactly
    /// (same verdict, same winner, same matched set). Closure movement
    /// alone does not dirty a replay — a policy edit that did not touch
    /// this decision is still a clean replay.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self.verdict_flipped
            && !self.winner_changed
            && self.rules_added.is_empty()
            && self.rules_removed.is_empty()
    }
}

/// One replayed record: the recorded outcome, the fresh outcome, and
/// their diff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Global sequence number of the replayed record.
    pub seq: u64,
    /// The verdict at recording time.
    pub recorded_effect: Effect,
    /// The verdict the replaying engine produced.
    pub replayed_effect: Effect,
    /// The structural diff.
    pub diff: ReplayDiff,
}

/// Replays a record against `engine` through the reference
/// ([`Grbac::decide_naive`]) path and diffs the outcome against what
/// was recorded.
///
/// # Errors
///
/// Fails when the replaying engine no longer knows the record's
/// transaction or object (or its sessions, for session actors) — a
/// structural diff is meaningless against a policy that cannot even
/// express the request.
pub fn replay(engine: &Grbac, record: &ProvenanceRecord) -> Result<ReplayReport> {
    replay_with_health(engine, record, record.env_health)
}

/// [`replay`], but with the environment health forced to `health` —
/// the counterfactual "what would this decision have been had the
/// sensing layer been healthy (or dead)?". Comparing a degraded
/// record's replay under its recorded health against one under
/// [`EnvHealth::Fresh`](crate::degraded::EnvHealth::Fresh) quantifies
/// exactly what the degradation cost.
///
/// # Errors
///
/// As for [`replay`].
pub fn replay_with_health(
    engine: &Grbac,
    record: &ProvenanceRecord,
    health: crate::degraded::EnvHealth,
) -> Result<ReplayReport> {
    let mut request = rebuild_request(record);
    request.env_health = health;
    let decision = engine.decide_naive(&request)?;

    let replayed_matched: Vec<RuleId> = decision
        .explanation()
        .matched
        .iter()
        .map(|m| m.rule)
        .collect();
    let rules_added: Vec<RuleId> = replayed_matched
        .iter()
        .copied()
        .filter(|rule| !record.matched_rules.contains(rule))
        .collect();
    let rules_removed: Vec<RuleId> = record
        .matched_rules
        .iter()
        .copied()
        .filter(|rule| !replayed_matched.contains(rule))
        .collect();

    let roles_now = u32::try_from(decision.explanation().subject_roles.len()).unwrap_or(u32::MAX);
    Ok(ReplayReport {
        seq: record.seq,
        recorded_effect: record.effect,
        replayed_effect: decision.effect(),
        diff: ReplayDiff {
            verdict_flipped: decision.effect() != record.effect,
            winner_changed: decision.winning_rule() != record.winning_rule,
            rules_added,
            rules_removed,
            closure: ClosureDelta {
                generation_then: record.generation,
                generation_now: engine.policy_generation(),
                roles_then: record.subject_role_count,
                roles_now,
            },
        },
    })
}

/// Replays every record passing `query` and returns the reports in
/// record order. Records the engine can no longer express (unknown
/// transaction/object/session after a policy edit) are skipped and
/// counted in the second return value rather than aborting the sweep.
#[must_use]
pub fn replay_all(
    engine: &Grbac,
    records: &[ProvenanceRecord],
    query: &ForensicQuery,
) -> (Vec<ReplayReport>, u64) {
    let mut reports = Vec::new();
    let mut unreplayable = 0;
    for record in records.iter().filter(|r| query.matches(r)) {
        match replay(engine, record) {
            Ok(report) => reports.push(report),
            Err(_) => unreplayable += 1,
        }
    }
    (reports, unreplayable)
}

/// Everything one correlation id resolves to: the flight-recorder
/// record, a fresh reference replay of it, and its audit row — the
/// "full story" of a single decision, joined on its [`DecisionId`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionStory {
    /// The id the story was resolved for.
    pub decision_id: DecisionId,
    /// The full recorded provenance (request, outcome, timings).
    pub record: ProvenanceRecord,
    /// A reference-path replay of the record against the engine's
    /// *current* policy, when the policy can still express the request.
    pub replay: Option<ReplayReport>,
    /// The record's audit row. Every story the engine resolves has one
    /// (the row is a view of the record); the `Option` keeps the
    /// story's JSON shape.
    pub audit: Option<AuditRecord>,
}

impl DecisionStory {
    /// True when the replay (if it ran) started from the recorded
    /// effect. A `false` localizes an evidence inconsistency.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.replay
            .as_ref()
            .is_none_or(|report| report.recorded_effect == self.record.effect)
    }
}

/// Resolves everything `engine` still knows about one decision id:
/// finds the flight-recorder record minted under `decision_id`, replays
/// it through the reference path, and derives its audit row. Returns
/// `None` when the recorder no longer holds the id (ring eviction, or
/// an id this engine never minted).
#[must_use]
pub fn decision_story(engine: &Grbac, decision_id: DecisionId) -> Option<DecisionStory> {
    let record = engine.flight_recorder().find(decision_id)?;
    let replay = replay(engine, &record).ok();
    Some(DecisionStory {
        decision_id,
        audit: Some(AuditRecord::from(&record)),
        record,
        replay,
    })
}

/// One stage timing lifted from a traced record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSample {
    /// Global sequence number of the record the sample came from.
    pub seq: u64,
    /// The mediation stage.
    pub stage: Stage,
    /// Wall-clock nanoseconds the stage took.
    pub nanos: u64,
}

/// The `n` slowest per-stage timings across all traced records, slowest
/// first — "which stage of which decision hurt". Ties break toward the
/// older record.
#[must_use]
pub fn slowest_stages(records: &[ProvenanceRecord], n: usize) -> Vec<StageSample> {
    let mut samples: Vec<StageSample> = records
        .iter()
        .filter_map(|record| record.stage_nanos.map(|nanos| (record.seq, nanos)))
        .flat_map(|(seq, nanos)| {
            Stage::ALL
                .iter()
                .zip(nanos)
                .map(move |(&stage, nanos)| StageSample { seq, stage, nanos })
        })
        .collect();
    samples.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.seq.cmp(&b.seq)));
    samples.truncate(n);
    samples
}

/// Rebuilds a [`RuleHeatSnapshot`] from recorded decisions, as if the
/// heat table had watched exactly these records: every rule in a
/// record's matched set accrues a match, the winning rule accrues a win
/// under the recorded effect, and `last_fired_generation` takes the
/// newest recording generation per rule.
///
/// This is the forensic cross-check for the live table: over a window
/// where the flight recorder dropped nothing and the heat table was
/// neither reset nor disabled, the reconstruction and
/// [`Grbac::heat_snapshot`](crate::engine::Grbac::heat_snapshot) agree
/// on every per-rule count. A divergence localizes the evidence gap —
/// ring-buffer eviction, a reset, or a disabled interval
/// (reconstruction `resets` is always 0; it never witnesses one).
#[must_use]
pub fn reconstruct_heat<'a>(
    records: impl IntoIterator<Item = &'a ProvenanceRecord>,
) -> RuleHeatSnapshot {
    let mut snapshot = RuleHeatSnapshot::default();
    for record in records {
        for rule in &record.matched_rules {
            let entry = snapshot.rules.entry(rule.as_raw()).or_default();
            entry.matched += 1;
            entry.last_fired_generation = entry.last_fired_generation.max(Some(record.generation));
        }
        if let Some(winner) = record.winning_rule {
            let entry = snapshot.rules.entry(winner.as_raw()).or_default();
            match record.effect {
                Effect::Permit => entry.won_permit += 1,
                Effect::Deny => entry.won_deny += 1,
            }
        }
        snapshot.decisions += 1;
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degraded::EnvHealth;
    use crate::prelude::*;

    /// A small household policy plus one recorded permit and one
    /// recorded (degraded) deny.
    fn recorded_engine() -> (Grbac, Vec<ProvenanceRecord>) {
        let mut g = Grbac::new();
        let child = g.declare_subject_role("child").unwrap();
        let media = g.declare_object_role("media").unwrap();
        let free_time = g.declare_environment_role("free_time").unwrap();
        let use_t = g.declare_transaction("use").unwrap();
        let bobby = g.declare_subject("bobby").unwrap();
        g.assign_subject_role(bobby, child).unwrap();
        let tv = g.declare_object("tv").unwrap();
        g.assign_object_role(tv, media).unwrap();
        g.add_rule(
            RuleDef::permit()
                .subject_role(child)
                .object_role(media)
                .transaction(use_t)
                .when(free_time),
        )
        .unwrap();

        let env = EnvironmentSnapshot::from_active([free_time]);
        let fresh = AccessRequest::by_subject(bobby, use_t, tv, env.clone()).at(100);
        assert!(g.decide(&fresh).unwrap().is_permitted());
        let stale = AccessRequest::by_subject(bobby, use_t, tv, env)
            .at(200)
            .with_env_health(EnvHealth::Stale { age: 600 });
        assert!(!g.decide(&stale).unwrap().is_permitted());

        let records = g.flight_recorder().snapshot();
        assert_eq!(records.len(), 2);
        (g, records)
    }

    #[test]
    fn reconstructed_heat_matches_the_live_table() {
        let (g, records) = recorded_engine();
        let rebuilt = reconstruct_heat(records.iter());
        assert_eq!(rebuilt.decisions, 2);
        assert_eq!(rebuilt.resets, 0);
        let rule = records[0].winning_rule.unwrap().as_raw();
        // The permit matched and won; the degraded deny matched nothing.
        let entry = rebuilt.get(rule);
        assert_eq!(entry.matched, 1);
        assert_eq!(entry.won_permit, 1);
        assert_eq!(entry.won_deny, 0);
        assert_eq!(entry.last_fired_generation, Some(records[0].generation));
        if crate::telemetry::ENABLED {
            // Nothing evicted, reset or disabled: the forensic
            // reconstruction and the live table agree exactly.
            let live = g.heat_snapshot();
            assert_eq!(rebuilt.rules, live.rules);
            assert_eq!(rebuilt.decisions, live.decisions);
        }
    }

    #[test]
    fn unchanged_policy_replays_clean() {
        let (g, records) = recorded_engine();
        for record in &records {
            let report = replay(&g, record).unwrap();
            assert!(report.diff.is_clean(), "seq {}: {:?}", record.seq, report);
            assert_eq!(report.recorded_effect, report.replayed_effect);
            assert!(!report.diff.closure.roles_changed());
        }
    }

    #[test]
    fn flipped_rule_shows_in_the_diff() {
        let (mut g, records) = recorded_engine();
        let rule = records[0].winning_rule.unwrap();
        assert!(g.remove_rule(rule));
        let report = replay(&g, &records[0]).unwrap();
        assert!(report.diff.verdict_flipped);
        assert!(report.diff.winner_changed);
        assert_eq!(report.diff.rules_removed, vec![rule]);
        assert!(report.diff.rules_added.is_empty());
        assert_ne!(
            report.diff.closure.generation_then,
            report.diff.closure.generation_now
        );
        // The degraded deny already matched nothing, so it replays the
        // same deny even under the edited policy.
        let report = replay(&g, &records[1]).unwrap();
        assert!(!report.diff.verdict_flipped);
    }

    #[test]
    fn counterfactual_health_quantifies_degradation() {
        let (g, records) = recorded_engine();
        let degraded = &records[1];
        assert_eq!(degraded.effect, Effect::Deny);
        assert!(degraded.degraded.is_some());
        // Same record, healthy sensing: the permit it would have been.
        let healthy = replay_with_health(&g, degraded, EnvHealth::Fresh).unwrap();
        assert_eq!(healthy.replayed_effect, Effect::Permit);
        assert!(healthy.diff.verdict_flipped);
    }

    #[test]
    fn queries_filter_on_shared_and_provenance_fields() {
        let (_, records) = recorded_engine();
        assert_eq!(ForensicQuery::any().select(&records).len(), 2);

        let denies = ForensicQuery {
            filter: AuditFilter {
                effect: Some(Effect::Deny),
                ..AuditFilter::any()
            },
            ..ForensicQuery::any()
        };
        let hits = denies.select(&records);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].degraded.is_some());

        let degraded = ForensicQuery {
            filter: AuditFilter {
                degraded_kind: Some("stale_roles_dropped".into()),
                ..AuditFilter::any()
            },
            ..ForensicQuery::any()
        };
        assert_eq!(degraded.select(&records).len(), 1);

        let early = ForensicQuery {
            filter: AuditFilter {
                until: Some(150),
                ..AuditFilter::any()
            },
            ..ForensicQuery::any()
        };
        assert_eq!(early.select(&records).len(), 1);
    }

    /// Session-mediated records carry their session's subject, so a
    /// subject query finds them.
    #[test]
    fn subject_query_matches_session_decisions() {
        let mut g = Grbac::new();
        let child = g.declare_subject_role("child").unwrap();
        let media = g.declare_object_role("media").unwrap();
        let use_t = g.declare_transaction("use").unwrap();
        let alice = g.declare_subject("alice").unwrap();
        let bob = g.declare_subject("bob").unwrap();
        g.assign_subject_role(alice, child).unwrap();
        let tv = g.declare_object("tv").unwrap();
        g.assign_object_role(tv, media).unwrap();
        g.add_rule(
            RuleDef::permit()
                .subject_role(child)
                .object_role(media)
                .transaction(use_t),
        )
        .unwrap();
        let session = g.open_session(alice).unwrap();
        g.activate_role(session, child).unwrap();
        let request = AccessRequest::by_session(session, use_t, tv, EnvironmentSnapshot::new());
        assert!(g.decide(&request).unwrap().is_permitted());

        let records = g.flight_recorder().snapshot();
        let by_alice = ForensicQuery {
            filter: AuditFilter {
                subject: Some(alice),
                ..AuditFilter::any()
            },
            ..ForensicQuery::any()
        };
        let hits = by_alice.select(&records);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].actor, Actor::Session(session));
        assert_eq!(hits[0].subject, Some(alice));
        let by_bob = ForensicQuery {
            filter: AuditFilter {
                subject: Some(bob),
                ..AuditFilter::any()
            },
            ..ForensicQuery::any()
        };
        assert!(by_bob.select(&records).is_empty());
    }

    #[test]
    fn decision_story_joins_record_replay_and_audit() {
        let (g, records) = recorded_engine();
        let id = records[0].decision_id;
        assert!(id.is_assigned(), "decide() mints an id");
        let story = decision_story(&g, id).expect("retained id resolves");
        assert_eq!(story.decision_id, id);
        assert_eq!(story.record.seq, records[0].seq);
        let replay = story.replay.as_ref().expect("policy unchanged: replayable");
        assert!(replay.diff.is_clean());
        // Every decide is audited: the story carries the row, which
        // is the record's audit columns.
        let audit = story.audit.as_ref().expect("every decide has an audit row");
        assert_eq!(audit.seq, records[0].seq);
        assert_eq!(audit.decision_id, id);
        assert_eq!(audit.effect, records[0].effect);
        assert_eq!(audit.winning_rule, records[0].winning_rule);
        assert_eq!(Some(audit), g.audit().find_by_decision_id(id).as_ref());
        assert!(story.agrees());
        // Ids nobody minted — and the unassigned sentinel — resolve to
        // nothing rather than somebody else's record.
        assert!(decision_story(&g, DecisionId::from_parts(1, 1)).is_none());
        assert!(decision_story(&g, DecisionId::UNASSIGNED).is_none());
    }

    #[test]
    fn replay_all_counts_unreplayable_records() {
        let (mut g, records) = recorded_engine();
        let (reports, unreplayable) = replay_all(&g, &records, &ForensicQuery::any());
        assert_eq!((reports.len(), unreplayable), (2, 0));
        // Wipe the whole policy: the old records reference entities the
        // new engine has never heard of.
        g = Grbac::new();
        let (reports, unreplayable) = replay_all(&g, &records, &ForensicQuery::any());
        assert_eq!((reports.len(), unreplayable), (0, 2));
    }

    #[test]
    fn slowest_stages_ranks_traced_records() {
        let (_, mut records) = recorded_engine();
        records[0].stage_nanos = Some([10, 50, 5, 900, 2]);
        records[0].total_nanos = Some(967);
        records[1].stage_nanos = Some([20, 700, 5, 30, 2]);
        records[1].total_nanos = Some(757);
        let top = slowest_stages(&records, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].nanos, 900);
        assert_eq!(top[0].seq, records[0].seq);
        assert_eq!(top[1].nanos, 700);
        assert_eq!(top[2].nanos, 50);

        let traced = ForensicQuery {
            traced_only: true,
            ..ForensicQuery::any()
        };
        assert_eq!(traced.select(&records).len(), 2);
    }
}

//! Workload generation: simulated days of household activity.
//!
//! Produces a time-ordered stream of movements and access requests that
//! experiments E9 (Aware-Home day simulation) and the mediation-scaling
//! benches replay against a home. Generation is seeded and fully
//! deterministic.

use grbac_core::engine::{AccessRequest, Actor};
use grbac_core::id::{ObjectId, SubjectId, TransactionId};
use grbac_env::location::ZoneId;
use grbac_env::time::{Duration, Timestamp};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::home::AwareHome;

/// Knobs for the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// How many simulated days to generate.
    pub days: u32,
    /// Average access requests per person per day.
    pub requests_per_person_per_day: u32,
    /// Probability that a person moves rooms between requests.
    pub move_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            days: 1,
            requests_per_person_per_day: 20,
            move_probability: 0.3,
            seed: 0,
        }
    }
}

/// One event in a generated workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadEvent {
    /// A person moves to a zone.
    Move {
        /// When.
        at: Timestamp,
        /// Who.
        subject: SubjectId,
        /// Where to.
        zone: ZoneId,
    },
    /// A person attempts a transaction on a device.
    Request {
        /// When.
        at: Timestamp,
        /// Who.
        subject: SubjectId,
        /// What they try to do.
        transaction: TransactionId,
        /// On which device.
        object: ObjectId,
    },
}

impl WorkloadEvent {
    /// The event's timestamp.
    #[must_use]
    pub fn at(&self) -> Timestamp {
        match self {
            WorkloadEvent::Move { at, .. } | WorkloadEvent::Request { at, .. } => *at,
        }
    }
}

/// Aggregate results of replaying a workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Requests mediated.
    pub requests: u64,
    /// Requests permitted.
    pub permits: u64,
    /// Requests denied.
    pub denies: u64,
    /// Movements applied.
    pub moves: u64,
    /// Per-subject `(permits, denies)` breakdown.
    pub by_subject: std::collections::BTreeMap<SubjectId, (u64, u64)>,
    /// Per-transaction `(permits, denies)` breakdown.
    pub by_transaction: std::collections::BTreeMap<TransactionId, (u64, u64)>,
}

impl WorkloadStats {
    /// Fraction of requests permitted (0 when none ran).
    #[must_use]
    pub fn grant_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.permits as f64 / self.requests as f64
        }
    }
}

/// Generates a deterministic, time-ordered workload for the home's
/// current household and devices. People request `operate` on devices
/// mostly, with occasional `view`/`read`/`adjust`.
#[must_use]
pub fn generate(home: &AwareHome, config: &WorkloadConfig) -> Vec<WorkloadEvent> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let people: Vec<SubjectId> = {
        let mut p: Vec<_> = home.people().map(|p| p.subject()).collect();
        p.sort_unstable();
        p
    };
    let devices: Vec<ObjectId> = {
        let mut d: Vec<_> = home.devices().map(|d| d.object()).collect();
        d.sort_unstable();
        d
    };
    let rooms: Vec<ZoneId> = {
        let mut z: Vec<ZoneId> = home
            .topology()
            .enclosing_zones(home.home_zone())
            .into_iter()
            .collect();
        // enclosing_zones of the root is just the root; enumerate all
        // declared zones instead.
        z.clear();
        for i in 0..home.topology().len() as u64 {
            z.push(ZoneId::from_raw(i));
        }
        z
    };
    let vocab = *home.vocab();
    let transactions = [
        vocab.operate,
        vocab.operate,
        vocab.operate,
        vocab.view,
        vocab.read,
        vocab.adjust,
    ];

    // Generate over full civil days *after* the current instant, so
    // wall-clock offsets below mean what they say regardless of the
    // home's start time (and the replay clock never has to rewind).
    let first_day = home.now().date().plus_days(1);
    let mut events = Vec::new();
    if people.is_empty() || devices.is_empty() {
        return events;
    }
    for day in 0..config.days {
        let day_start = first_day.plus_days(i64::from(day)).midnight();
        for &subject in &people {
            for _ in 0..config.requests_per_person_per_day {
                // Requests cluster in waking hours: 07:00–23:00.
                let offset_s = rng.gen_range(7 * 3600..23 * 3600);
                let at = day_start + Duration::seconds(i64::from(offset_s));
                if rng.gen::<f64>() < config.move_probability {
                    let zone = *rooms.choose(&mut rng).expect("rooms nonempty");
                    events.push(WorkloadEvent::Move { at, subject, zone });
                }
                let object = *devices.choose(&mut rng).expect("devices nonempty");
                let transaction = *transactions.choose(&mut rng).expect("nonempty");
                events.push(WorkloadEvent::Request {
                    at,
                    subject,
                    transaction,
                    object,
                });
            }
        }
    }
    events.sort_by_key(WorkloadEvent::at);
    events
}

/// Replays a workload against the home, advancing the clock to each
/// event's timestamp and mediating every request.
///
/// # Errors
///
/// Propagates mediation errors (unknown ids — impossible for workloads
/// generated from the same home).
pub fn execute(
    home: &mut AwareHome,
    events: &[WorkloadEvent],
) -> crate::error::Result<WorkloadStats> {
    let mut stats = WorkloadStats::default();
    for event in events {
        home.advance_to(event.at());
        match event {
            WorkloadEvent::Move { subject, zone, .. } => {
                home.place(*subject, *zone);
                stats.moves += 1;
            }
            WorkloadEvent::Request {
                subject,
                transaction,
                object,
                ..
            } => {
                let decision = home.request(*subject, *transaction, *object)?;
                record(&mut stats, *subject, *transaction, decision.is_permitted());
            }
        }
    }
    Ok(stats)
}

/// Replays a workload in two phases: first walk the timeline applying
/// movements and capturing each request with the environment snapshot
/// it would have seen, then mediate the whole set with
/// [`Grbac::decide_batch`](grbac_core::engine::Grbac::decide_batch)
/// under the engine read lock.
///
/// Decisions, stats, audit totals and telemetry are identical to
/// [`execute`]'s — snapshots freeze the environment at capture time —
/// but mediation runs against one compiled-index snapshot and, with
/// grbac-core's `parallel` feature, across threads (the decision log
/// then holds the rows in completion order).
///
/// # Errors
///
/// Propagates mediation errors (unknown ids — impossible for workloads
/// generated from the same home).
pub fn execute_batched(
    home: &mut AwareHome,
    events: &[WorkloadEvent],
) -> crate::error::Result<WorkloadStats> {
    let mut stats = WorkloadStats::default();
    let mut requests = Vec::new();
    let mut keys = Vec::new();
    for event in events {
        home.advance_to(event.at());
        match event {
            WorkloadEvent::Move { subject, zone, .. } => {
                home.place(*subject, *zone);
                stats.moves += 1;
            }
            WorkloadEvent::Request {
                subject,
                transaction,
                object,
                ..
            } => {
                let (environment, env_health) = home.environment_with_health(Some(*subject));
                requests.push(AccessRequest {
                    actor: Actor::Subject(*subject),
                    transaction: *transaction,
                    object: *object,
                    environment,
                    env_health,
                    timestamp: Some(event.at().as_seconds().max(0) as u64),
                });
                keys.push((*subject, *transaction));
            }
        }
    }
    let decisions = home.engine().decide_batch(&requests);
    for (decision, (subject, transaction)) in decisions.into_iter().zip(keys) {
        record(&mut stats, subject, transaction, decision?.is_permitted());
    }
    Ok(stats)
}

fn record(
    stats: &mut WorkloadStats,
    subject: SubjectId,
    transaction: TransactionId,
    permitted: bool,
) {
    stats.requests += 1;
    let subject_entry = stats.by_subject.entry(subject).or_insert((0, 0));
    let txn_entry = stats.by_transaction.entry(transaction).or_insert((0, 0));
    if permitted {
        stats.permits += 1;
        subject_entry.0 += 1;
        txn_entry.0 += 1;
    } else {
        stats.denies += 1;
        subject_entry.1 += 1;
        txn_entry.1 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::paper_household;

    #[test]
    fn generation_is_deterministic() {
        let home = paper_household().unwrap();
        let config = WorkloadConfig::default();
        let a = generate(&home, &config);
        let b = generate(&home, &config);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let home = paper_household().unwrap();
        let a = generate(
            &home,
            &WorkloadConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let b = generate(
            &home,
            &WorkloadConfig {
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn events_are_time_ordered() {
        let home = paper_household().unwrap();
        let events = generate(
            &home,
            &WorkloadConfig {
                days: 2,
                ..Default::default()
            },
        );
        assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn request_volume_matches_config() {
        let home = paper_household().unwrap();
        let config = WorkloadConfig {
            days: 2,
            requests_per_person_per_day: 10,
            move_probability: 0.0,
            seed: 3,
        };
        let events = generate(&home, &config);
        let requests = events
            .iter()
            .filter(|e| matches!(e, WorkloadEvent::Request { .. }))
            .count();
        assert_eq!(requests, 2 * 10 * home.people().count());
        assert!(events
            .iter()
            .all(|e| matches!(e, WorkloadEvent::Request { .. })));
    }

    #[test]
    fn execute_counts_decisions() {
        let mut home = paper_household().unwrap();
        let events = generate(
            &home,
            &WorkloadConfig {
                days: 1,
                requests_per_person_per_day: 8,
                move_probability: 0.5,
                seed: 7,
            },
        );
        let stats = execute(&mut home, &events).unwrap();
        assert_eq!(stats.requests, stats.permits + stats.denies);
        assert!(stats.requests > 0);
        assert!(stats.moves > 0);
        // Breakdowns cover every person and sum to the totals.
        assert_eq!(stats.by_subject.len(), home.people().count());
        let (p, d): (u64, u64) = stats
            .by_subject
            .values()
            .fold((0, 0), |(p, d), &(sp, sd)| (p + sp, d + sd));
        assert_eq!((p, d), (stats.permits, stats.denies));
        let (p, d): (u64, u64) = stats
            .by_transaction
            .values()
            .fold((0, 0), |(p, d), &(sp, sd)| (p + sp, d + sd));
        assert_eq!((p, d), (stats.permits, stats.denies));
        // The paper's policy: parents are granted far more than the
        // repair technician.
        let mom = home.person("mom").unwrap().subject();
        let tech = home.person("repair_technician").unwrap().subject();
        assert!(stats.by_subject[&mom].0 > stats.by_subject[&tech].0);
        // The paper household's policy is restrictive: children and the
        // technician are denied most things, parents get devices.
        assert!(stats.grant_rate() > 0.0 && stats.grant_rate() < 1.0);
        // The decision log saw everything.
        assert_eq!(home.engine().audit().total_recorded(), stats.requests);
    }

    #[test]
    fn batched_replay_matches_sequential() {
        let events = generate(
            &paper_household().unwrap(),
            &WorkloadConfig {
                days: 2,
                requests_per_person_per_day: 12,
                move_probability: 0.4,
                seed: 11,
            },
        );
        let mut sequential_home = paper_household().unwrap();
        let mut batched_home = paper_household().unwrap();
        let sequential = execute(&mut sequential_home, &events).unwrap();
        let batched = execute_batched(&mut batched_home, &events).unwrap();
        assert_eq!(sequential, batched);
        // The batched replay leaves the same audit totals.
        assert_eq!(
            batched_home.engine().audit().total_recorded(),
            sequential_home.engine().audit().total_recorded(),
        );
        assert_eq!(
            batched.requests,
            batched_home.engine().audit().total_recorded()
        );
        assert_eq!(
            batched_home.engine().audit().permit_count(),
            sequential_home.engine().audit().permit_count(),
        );
    }

    #[test]
    fn empty_stats_grant_rate_is_zero() {
        assert_eq!(WorkloadStats::default().grant_rate(), 0.0);
    }
}

//! Lock-cheap metric primitives and the engine-wide registry.
//!
//! Every hot-path update is one relaxed atomic RMW; the only lock in
//! the module is the [`KeyedCounter`]'s `RwLock`, taken in read mode
//! on every update and in write mode only when a new key widens the
//! dense slot table. Under the `telemetry-off` feature all update
//! methods compile to no-ops (readings stay zero).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use super::events::{EventBus, EventKind};
use super::health::AlertKind;
use super::heat::RuleHeat;
use super::sketch::{Exemplar, QuantileSketch, SketchSnapshot};
use super::trace::{DecisionTrace, Stage};
use super::ENABLED;
use crate::delta::DeltaKind;
use crate::id::DecisionId;

/// A monotonically increasing counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if ENABLED {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (relaxed atomic store).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        if ENABLED {
            self.0.store(value, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket bounds are inclusive upper limits; the final bound must be
/// `u64::MAX` so every observation lands somewhere. Observation is a
/// short linear scan plus three relaxed atomics — no locks, no
/// allocation.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty, unsorted, or does not end in `u64::MAX`.
    #[must_use]
    pub fn new(bounds: &'static [u64]) -> Self {
        assert!(
            bounds.last() == Some(&u64::MAX),
            "histogram bounds must end in u64::MAX"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds,
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        if !ENABLED {
            return;
        }
        let slot = self.bounds.partition_point(|&bound| bound < value);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds (last is `u64::MAX`).
    pub bounds: Vec<u64>,
    /// Observations per bucket (same length as `bounds`).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// This snapshot minus an earlier one (saturating per field).
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let counts = if self.bounds == earlier.bounds {
            self.counts
                .iter()
                .zip(&earlier.counts)
                .map(|(now, was)| now.saturating_sub(*was))
                .collect()
        } else {
            self.counts.clone()
        };
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts,
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Counters keyed by a dense `u64` id (transaction ids in practice).
///
/// The update path takes the slot table's read lock and performs one
/// relaxed atomic add; the write lock is taken only when a key beyond
/// the current table length appears for the first time.
///
/// Label cardinality is bounded: keys at or beyond the configured cap
/// (default [`Self::DEFAULT_CARDINALITY_CAP`]) are folded into a single
/// overflow bucket — exported as the `other` label — instead of
/// widening the slot table without limit, and each folded update is
/// counted toward `grbac_labels_dropped_total`.
#[derive(Debug)]
pub struct KeyedCounter {
    slots: RwLock<Vec<AtomicU64>>,
    /// Maximum number of distinct key slots before folding into
    /// `overflow`; runtime-configurable.
    cap: AtomicU64,
    /// Total count folded into the `other` bucket.
    overflow: AtomicU64,
    /// Number of updates redirected to the `other` bucket.
    dropped: AtomicU64,
}

impl Default for KeyedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyedCounter {
    /// Default bound on distinct label slots per family.
    pub const DEFAULT_CARDINALITY_CAP: u64 = 1_024;

    /// An empty keyed counter with the default cardinality cap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_cap(Self::DEFAULT_CARDINALITY_CAP)
    }

    /// An empty keyed counter bounded to `cap` distinct key slots
    /// (0 is treated as 1: the overflow bucket always exists).
    #[must_use]
    pub fn with_cap(cap: u64) -> Self {
        Self {
            slots: RwLock::new(Vec::new()),
            cap: AtomicU64::new(cap.max(1)),
            overflow: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The current cardinality cap.
    #[must_use]
    pub fn cap(&self) -> u64 {
        self.cap.load(Ordering::Relaxed)
    }

    /// Reconfigures the cardinality cap. Lowering it does not shrink an
    /// already-widened slot table; it only bounds future growth.
    pub fn set_cap(&self, cap: u64) {
        self.cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// Total count folded into the `other` overflow bucket.
    #[must_use]
    pub fn overflow_total(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Number of updates redirected to the overflow bucket because
    /// their key lay beyond the cardinality cap.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Adds `n` to the counter for `key` (or to the overflow bucket
    /// when `key` lies beyond the cardinality cap).
    pub fn add(&self, key: u64, n: u64) {
        if !ENABLED {
            return;
        }
        if key >= self.cap.load(Ordering::Relaxed) {
            self.overflow.fetch_add(n, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let index = key as usize;
        {
            let slots = self
                .slots
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(slot) = slots.get(index) {
                slot.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        let mut slots = self
            .slots
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slots.len() <= index {
            slots.resize_with(index + 1, AtomicU64::default);
        }
        slots[index].fetch_add(n, Ordering::Relaxed);
    }

    /// The counter for `key` (0 if never touched).
    #[must_use]
    pub fn get(&self, key: u64) -> u64 {
        self.slots
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key as usize)
            .map_or(0, |slot| slot.load(Ordering::Relaxed))
    }

    /// All non-zero `(key, value)` pairs, ascending by key.
    #[must_use]
    pub fn snapshot(&self) -> BTreeMap<u64, u64> {
        self.slots
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .enumerate()
            .filter_map(|(key, slot)| {
                let value = slot.load(Ordering::Relaxed);
                (value > 0).then_some((key as u64, value))
            })
            .collect()
    }
}

/// Decision latencies in nanoseconds: 128 ns … 4 ms, then overflow.
static LATENCY_BOUNDS_NS: &[u64] = &[
    128,
    256,
    512,
    1_024,
    2_048,
    4_096,
    8_192,
    16_384,
    32_768,
    65_536,
    131_072,
    262_144,
    524_288,
    1_048_576,
    4_194_304,
    u64::MAX,
];

/// Batch sizes: 1 … 64k requests, then overflow.
static BATCH_BOUNDS: &[u64] = &[
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1_024,
    4_096,
    16_384,
    65_536,
    u64::MAX,
];

/// The engine-wide metrics registry.
///
/// One registry is created per [`Grbac`](crate::engine::Grbac) and
/// shared by reference-count: engine clones, `decide_batch` workers,
/// and the `grbac-env` providers attached via
/// `EnvironmentRoleProvider::attach_metrics` all publish into the same
/// instance. All fields are public so call sites (and downstream
/// crates) can update them directly.
#[derive(Debug)]
#[allow(clippy::struct_field_names)]
pub struct MetricsRegistry {
    /// Decisions that resolved to `Permit`.
    pub decisions_permit: Counter,
    /// Decisions that resolved to `Deny`.
    pub decisions_deny: Counter,
    /// Mediation calls that failed (unknown ids in the request).
    pub decide_errors: Counter,
    /// Decisions that were latency-sampled (fed the latency histogram
    /// and the per-stage quantile sketches). Read alongside
    /// `decisions_*_total` to know what fraction of traffic the
    /// latency series describe.
    pub decisions_sampled: Counter,
    /// Sampled `decide()` latency in nanoseconds (one observation per
    /// [`Self::latency_sample_rate`] decisions).
    pub decide_latency_ns: Histogram,
    /// Streaming quantile sketch of sampled end-to-end decide latency
    /// (p50/p95/p99 at fixed memory; complements the fixed-bucket
    /// histogram).
    pub decide_latency_sketch: QuantileSketch,
    /// Per-stage latency sketches, indexed like [`Stage::ALL`].
    pub stage_latency: [QuantileSketch; 5],
    /// Matched (applicable) rules per request transaction, keyed by
    /// raw transaction id.
    pub rule_matches_by_transaction: KeyedCounter,
    /// Compiled-index installs at a new generation (generation
    /// misses), by either the delta-apply or full-rebuild path; see
    /// [`Self::index_full_rebuilds`] and [`Self::index_delta_applied`]
    /// for the split.
    pub index_rebuilds: Counter,
    /// Total nanoseconds spent on from-scratch index rebuilds
    /// (incremental patches report into
    /// [`Self::index_delta_apply_ns`] instead).
    pub index_rebuild_ns: Counter,
    /// Index installs that fell back to a from-scratch build: cold
    /// cell, trimmed delta history, bitset widening, or closure damage
    /// past the planner's threshold.
    pub index_full_rebuilds: Counter,
    /// Policy deltas applied incrementally to the compiled index,
    /// keyed by [`DeltaKind`](crate::telemetry::DeltaKind) slot.
    pub index_delta_applied: KeyedCounter,
    /// Streaming quantile sketch of incremental delta-application
    /// latency (planning plus shard patching), in nanoseconds.
    pub index_delta_apply_ns: QuantileSketch,
    /// Mediations served by an already-built index (generation hits).
    pub index_cache_hits: Counter,
    /// Role expansions served from the compiled index (trusted-subject
    /// and object expansions).
    pub closure_cache_hits: Counter,
    /// Role expansions computed per request (session actives, sensed
    /// claim merges, environment snapshots).
    pub closure_cache_misses: Counter,
    /// `decide_batch()` invocations.
    pub batch_calls: Counter,
    /// Requests per `decide_batch()` call.
    pub batch_size: Histogram,
    /// Audit permits ever recorded (survives eviction). Filled from the
    /// decision log by `Grbac::metrics_snapshot`, like the next three.
    pub audit_permit_total: Gauge,
    /// Audit denies ever recorded (survives eviction).
    pub audit_deny_total: Gauge,
    /// Audit records dropped from retention by the decision log.
    pub audit_evictions: Gauge,
    /// Audit records currently retained.
    pub audit_retained: Gauge,
    /// Declared roles in the current compiled index.
    pub index_roles: Gauge,
    /// Transaction-keyed rule buckets in the current compiled index.
    pub index_rule_buckets: Gauge,
    /// Largest rule bucket in the current compiled index.
    pub index_max_bucket: Gauge,
    /// Environment-provider snapshot evaluations (polls).
    pub env_polls: Counter,
    /// Environment roles that flipped inactive → active between polls.
    pub env_role_activations: Counter,
    /// Environment roles that flipped active → inactive between polls.
    pub env_role_deactivations: Counter,
    /// Decisions annotated with a degraded-mode reason (stale or
    /// unavailable environment data).
    pub decisions_degraded: Counter,
    /// Active environment roles dropped because their snapshot outlived
    /// its staleness budget (fail-closed and expired last-known-good).
    pub env_roles_dropped_stale: Counter,
    /// Provider polls that failed with a timeout (published by the
    /// `grbac-env` resilience layer).
    pub env_provider_timeouts: Counter,
    /// Provider polls that failed with a transient error.
    pub env_provider_errors: Counter,
    /// Retry attempts made after a failed provider poll.
    pub env_provider_retries: Counter,
    /// Total virtual milliseconds of retry backoff (base + jitter).
    pub env_backoff_ms: Counter,
    /// Polls answered from the last-known-good snapshot.
    pub env_stale_served: Counter,
    /// Polls with no snapshot to serve at all.
    pub env_unavailable: Counter,
    /// Circuit-breaker transitions into the open state.
    pub env_breaker_opened: Counter,
    /// Circuit-breaker transitions into the half-open state.
    pub env_breaker_half_open: Counter,
    /// Circuit-breaker transitions back to the closed state.
    pub env_breaker_closed: Counter,
    /// Current circuit-breaker state: 0 closed, 1 half-open, 2 open.
    pub env_breaker_state: Gauge,
    /// Per-rule heat: matches, wins by effect, and last-fired
    /// generation, fed by the compiled decide path (see
    /// [`RuleHeat`]).
    pub rule_heat: RuleHeat,
    /// Watchdog evaluations ([`DecisionWatchdog::tick`]
    /// calls).
    ///
    /// [`DecisionWatchdog::tick`]: super::DecisionWatchdog::tick
    pub watchdog_ticks: Counter,
    /// Anomaly alerts raised, keyed by [`AlertKind`] slot.
    pub alerts_by_kind: KeyedCounter,
    /// The watchdog's learned deny-rate baseline, in parts per million.
    pub watchdog_deny_baseline_ppm: Gauge,
    /// The watchdog's learned degraded-rate baseline, in parts per
    /// million.
    pub watchdog_degraded_baseline_ppm: Gauge,
    /// The watchdog's learned env-role flap-rate baseline, in parts per
    /// million.
    pub watchdog_flap_baseline_ppm: Gauge,
    /// The watchdog's learned staleness-burn baseline, in parts per
    /// million.
    pub watchdog_staleness_baseline_ppm: Gauge,
    /// The live-telemetry broadcast bus (see
    /// [`EventBus`](super::EventBus)): the engine's decide path, the
    /// watchdog, and the index installer publish typed events here,
    /// and the serve/obs streaming surfaces subscribe. Snapshots
    /// export its publish/drop accounting as
    /// `grbac_events_published_total{kind}`,
    /// `grbac_events_dropped_total`, and the subscriber gauge.
    pub events: EventBus,
    /// Round-robin sample selector for `decide_timer`.
    decide_sample: AtomicU64,
    /// `sample_rate - 1`, where the rate is a power of two; applied as
    /// a mask over `decide_sample`. Runtime-configurable via
    /// [`Self::set_latency_sample_rate`].
    latency_sample_mask: AtomicU64,
    /// Epoch of the ids in the recent-decision ring (one engine, one
    /// epoch; last-writer-wins under mixed registries).
    recent_id_epoch: AtomicU64,
    /// Ring of recently minted decision-id sequences (0 = empty slot).
    recent_id_seqs: Vec<AtomicU64>,
    /// Monotonic write cursor into `recent_id_seqs`.
    recent_id_cursor: AtomicU64,
}

impl MetricsRegistry {
    /// Default latency sampling rate: one in this many decisions
    /// (power of two). Change it at runtime with
    /// [`Self::set_latency_sample_rate`].
    pub const DEFAULT_LATENCY_SAMPLE: u64 = 8;

    /// A zeroed registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            decisions_permit: Counter::new(),
            decisions_deny: Counter::new(),
            decide_errors: Counter::new(),
            decisions_sampled: Counter::new(),
            decide_latency_ns: Histogram::new(LATENCY_BOUNDS_NS),
            decide_latency_sketch: QuantileSketch::new(),
            stage_latency: std::array::from_fn(|_| QuantileSketch::new()),
            rule_matches_by_transaction: KeyedCounter::new(),
            index_rebuilds: Counter::new(),
            index_rebuild_ns: Counter::new(),
            index_full_rebuilds: Counter::new(),
            index_delta_applied: KeyedCounter::new(),
            index_delta_apply_ns: QuantileSketch::new(),
            index_cache_hits: Counter::new(),
            closure_cache_hits: Counter::new(),
            closure_cache_misses: Counter::new(),
            batch_calls: Counter::new(),
            batch_size: Histogram::new(BATCH_BOUNDS),
            audit_permit_total: Gauge::new(),
            audit_deny_total: Gauge::new(),
            audit_evictions: Gauge::new(),
            audit_retained: Gauge::new(),
            index_roles: Gauge::new(),
            index_rule_buckets: Gauge::new(),
            index_max_bucket: Gauge::new(),
            env_polls: Counter::new(),
            env_role_activations: Counter::new(),
            env_role_deactivations: Counter::new(),
            decisions_degraded: Counter::new(),
            env_roles_dropped_stale: Counter::new(),
            env_provider_timeouts: Counter::new(),
            env_provider_errors: Counter::new(),
            env_provider_retries: Counter::new(),
            env_backoff_ms: Counter::new(),
            env_stale_served: Counter::new(),
            env_unavailable: Counter::new(),
            env_breaker_opened: Counter::new(),
            env_breaker_half_open: Counter::new(),
            env_breaker_closed: Counter::new(),
            env_breaker_state: Gauge::new(),
            rule_heat: RuleHeat::new(),
            watchdog_ticks: Counter::new(),
            alerts_by_kind: KeyedCounter::new(),
            watchdog_deny_baseline_ppm: Gauge::new(),
            watchdog_degraded_baseline_ppm: Gauge::new(),
            watchdog_flap_baseline_ppm: Gauge::new(),
            watchdog_staleness_baseline_ppm: Gauge::new(),
            events: EventBus::new(),
            decide_sample: AtomicU64::new(0),
            latency_sample_mask: AtomicU64::new(Self::DEFAULT_LATENCY_SAMPLE - 1),
            recent_id_epoch: AtomicU64::new(0),
            recent_id_seqs: (0..Self::RECENT_IDS).map(|_| AtomicU64::new(0)).collect(),
            recent_id_cursor: AtomicU64::new(0),
        }
    }

    /// Capacity of the recent-decision-id ring read by the watchdog.
    pub const RECENT_IDS: usize = 256;

    /// Publishes a freshly minted decision id into the recent-id ring.
    /// Called by the engine's minting entry points on every decision;
    /// three relaxed atomic operations, no locks.
    pub fn note_decision(&self, id: DecisionId) {
        if !ENABLED || !id.is_assigned() {
            return;
        }
        self.recent_id_epoch.store(id.epoch(), Ordering::Relaxed);
        let slot = self.recent_id_cursor.fetch_add(1, Ordering::Relaxed) as usize;
        self.recent_id_seqs[slot % Self::RECENT_IDS].store(id.seq(), Ordering::Relaxed);
    }

    /// The current write cursor of the recent-id ring. Pass a saved
    /// cursor to [`Self::recent_decision_ids_since`] to read the ids
    /// published in between.
    #[must_use]
    pub fn recent_decision_cursor(&self) -> u64 {
        self.recent_id_cursor.load(Ordering::Relaxed)
    }

    /// The decision ids published since `since` (a cursor previously
    /// returned by [`Self::recent_decision_cursor`] or by this method),
    /// oldest first, plus the new cursor. At most
    /// [`Self::RECENT_IDS`] ids survive — older ones have been
    /// overwritten by the ring.
    #[must_use]
    pub fn recent_decision_ids_since(&self, since: u64) -> (Vec<DecisionId>, u64) {
        let now = self.recent_id_cursor.load(Ordering::Relaxed);
        let epoch = self.recent_id_epoch.load(Ordering::Relaxed);
        let span = now.saturating_sub(since).min(Self::RECENT_IDS as u64);
        let ids = (now - span..now)
            .filter_map(|position| {
                let seq = self.recent_id_seqs[position as usize % Self::RECENT_IDS]
                    .load(Ordering::Relaxed);
                (seq != 0).then(|| DecisionId::from_parts(epoch, seq))
            })
            .collect();
        (ids, now)
    }

    /// The current latency sampling rate: one in this many decisions is
    /// timed and traced into the latency series.
    #[must_use]
    pub fn latency_sample_rate(&self) -> u64 {
        self.latency_sample_mask.load(Ordering::Relaxed) + 1
    }

    /// Sets the latency sampling rate. `rate` is rounded up to a power
    /// of two; a rate of 1 times every decision, larger rates shrink
    /// tracing overhead at the cost of quantile coverage (reported by
    /// the `grbac_decide_sampled_total` counter). A rate of 0 is
    /// treated as 1.
    pub fn set_latency_sample_rate(&self, rate: u64) {
        let rate = rate.max(1).next_power_of_two();
        self.latency_sample_mask.store(rate - 1, Ordering::Relaxed);
    }

    /// Starts a latency sample for one decision: `Some(now)` for one
    /// in [`Self::latency_sample_rate`] calls, `None` otherwise (and
    /// always `None` with telemetry off). Sampling keeps the common
    /// decide path free of clock reads.
    #[must_use]
    pub fn decide_timer(&self) -> Option<Instant> {
        if !ENABLED {
            return None;
        }
        let mask = self.latency_sample_mask.load(Ordering::Relaxed);
        (self.decide_sample.fetch_add(1, Ordering::Relaxed) & mask == 0).then(Instant::now)
    }

    /// Completes a latency sample started by [`Self::decide_timer`].
    pub fn observe_decide_latency(&self, timer: Option<Instant>) {
        if let Some(start) = timer {
            self.decide_latency_ns
                .observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Feeds a completed decision trace into the continuous-profiling
    /// series: the end-to-end latency histogram and sketch, one
    /// quantile sketch per mediation stage, and the sampled-decision
    /// counter. Called by the engine for every latency-sampled or
    /// explicitly traced decision.
    /// When the trace carries an assigned [`DecisionId`], the id is
    /// retained as an exemplar on the latency sketches, correlating the
    /// exported quantiles back to one concrete decision.
    pub fn observe_trace(&self, trace: &DecisionTrace) {
        if !ENABLED {
            return;
        }
        self.decisions_sampled.inc();
        self.decide_latency_ns.observe(trace.total_nanos);
        self.decide_latency_sketch
            .observe_with_exemplar(trace.total_nanos, trace.decision_id);
        for record in &trace.stages {
            if let Some(slot) = Stage::ALL.iter().position(|&s| s == record.stage) {
                self.stage_latency[slot].observe_with_exemplar(record.nanos, trace.decision_id);
            }
        }
    }

    /// A point-in-time snapshot with raw-id transaction and rule
    /// labels.
    ///
    /// Use [`Grbac::metrics_snapshot`](crate::engine::Grbac::metrics_snapshot)
    /// to resolve transaction and rule ids to their declared names.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_with(|raw| raw.to_string())
    }

    /// Like [`Self::snapshot`], labelling per-transaction series with
    /// `transaction_label(raw_id)`. Per-rule series keep raw
    /// `rule<id>` labels; see [`Self::snapshot_with_labels`].
    #[must_use]
    pub fn snapshot_with(&self, transaction_label: impl Fn(u64) -> String) -> MetricsSnapshot {
        self.snapshot_with_labels(transaction_label, |raw| format!("rule{raw}"))
    }

    /// Like [`Self::snapshot`], labelling per-transaction series with
    /// `transaction_label(raw_id)` and per-rule heat series with
    /// `rule_label(raw_id)`.
    #[must_use]
    pub fn snapshot_with_labels(
        &self,
        transaction_label: impl Fn(u64) -> String,
        rule_label: impl Fn(u64) -> String,
    ) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for (name, counter) in [
            ("grbac_decisions_permit_total", &self.decisions_permit),
            ("grbac_decisions_deny_total", &self.decisions_deny),
            ("grbac_decide_errors_total", &self.decide_errors),
            ("grbac_decide_sampled_total", &self.decisions_sampled),
            ("grbac_index_rebuilds_total", &self.index_rebuilds),
            ("grbac_index_rebuild_ns_total", &self.index_rebuild_ns),
            ("grbac_index_full_rebuilds_total", &self.index_full_rebuilds),
            ("grbac_index_cache_hits_total", &self.index_cache_hits),
            ("grbac_closure_cache_hits_total", &self.closure_cache_hits),
            (
                "grbac_closure_cache_misses_total",
                &self.closure_cache_misses,
            ),
            ("grbac_batch_calls_total", &self.batch_calls),
            ("grbac_env_polls_total", &self.env_polls),
            (
                "grbac_env_role_activations_total",
                &self.env_role_activations,
            ),
            (
                "grbac_env_role_deactivations_total",
                &self.env_role_deactivations,
            ),
            ("grbac_decisions_degraded_total", &self.decisions_degraded),
            (
                "grbac_env_roles_dropped_stale_total",
                &self.env_roles_dropped_stale,
            ),
            (
                "grbac_env_provider_timeouts_total",
                &self.env_provider_timeouts,
            ),
            ("grbac_env_provider_errors_total", &self.env_provider_errors),
            (
                "grbac_env_provider_retries_total",
                &self.env_provider_retries,
            ),
            ("grbac_env_backoff_ms_total", &self.env_backoff_ms),
            ("grbac_env_stale_served_total", &self.env_stale_served),
            ("grbac_env_unavailable_total", &self.env_unavailable),
            ("grbac_env_breaker_opened_total", &self.env_breaker_opened),
            (
                "grbac_env_breaker_half_open_total",
                &self.env_breaker_half_open,
            ),
            ("grbac_env_breaker_closed_total", &self.env_breaker_closed),
            ("grbac_watchdog_ticks_total", &self.watchdog_ticks),
        ] {
            counters.insert(name.to_owned(), counter.get());
        }
        counters.insert(
            "grbac_rule_heat_resets_total".to_owned(),
            self.rule_heat.reset_count(),
        );
        counters.insert(
            "grbac_labels_dropped_total".to_owned(),
            self.rule_matches_by_transaction.dropped_total()
                + self.index_delta_applied.dropped_total()
                + self.alerts_by_kind.dropped_total(),
        );
        counters.insert(
            "grbac_events_dropped_total".to_owned(),
            self.events.dropped_total(),
        );

        let mut gauges = BTreeMap::new();
        for (name, gauge) in [
            ("grbac_audit_permit_total", &self.audit_permit_total),
            ("grbac_audit_deny_total", &self.audit_deny_total),
            ("grbac_audit_evictions", &self.audit_evictions),
            ("grbac_audit_retained", &self.audit_retained),
            ("grbac_index_roles", &self.index_roles),
            ("grbac_index_rule_buckets", &self.index_rule_buckets),
            ("grbac_index_max_bucket", &self.index_max_bucket),
            ("grbac_env_breaker_state", &self.env_breaker_state),
            (
                "grbac_watchdog_deny_baseline_ppm",
                &self.watchdog_deny_baseline_ppm,
            ),
            (
                "grbac_watchdog_degraded_baseline_ppm",
                &self.watchdog_degraded_baseline_ppm,
            ),
            (
                "grbac_watchdog_flap_baseline_ppm",
                &self.watchdog_flap_baseline_ppm,
            ),
            (
                "grbac_watchdog_staleness_baseline_ppm",
                &self.watchdog_staleness_baseline_ppm,
            ),
        ] {
            gauges.insert(name.to_owned(), gauge.get());
        }
        gauges.insert(
            "grbac_rule_heat_enabled".to_owned(),
            u64::from(self.rule_heat.is_enabled()),
        );
        gauges.insert(
            "grbac_decide_sample_rate".to_owned(),
            if ENABLED {
                self.latency_sample_rate()
            } else {
                0
            },
        );
        gauges.insert(
            "grbac_event_subscribers".to_owned(),
            self.events.subscriber_count(),
        );
        gauges.insert(
            "grbac_events_enabled".to_owned(),
            u64::from(self.events.is_enabled()),
        );

        let mut histograms = BTreeMap::new();
        histograms.insert(
            "grbac_decide_latency_ns".to_owned(),
            self.decide_latency_ns.snapshot(),
        );
        histograms.insert("grbac_batch_size".to_owned(), self.batch_size.snapshot());

        let mut series = BTreeMap::new();
        for (slot, &stage) in Stage::ALL.iter().enumerate() {
            series.insert(
                stage.name().to_owned(),
                QuantileSnapshot::from_sketch(&self.stage_latency[slot].snapshot()),
            );
        }
        series.insert(
            "total".to_owned(),
            QuantileSnapshot::from_sketch(&self.decide_latency_sketch.snapshot()),
        );
        let mut summaries = BTreeMap::new();
        summaries.insert(
            "grbac_stage_latency_ns".to_owned(),
            SummaryFamily {
                label: "stage".to_owned(),
                series,
            },
        );
        summaries.insert(
            "grbac_index_delta_apply_ns".to_owned(),
            SummaryFamily {
                label: "op".to_owned(),
                series: BTreeMap::from([(
                    "apply".to_owned(),
                    QuantileSnapshot::from_sketch(&self.index_delta_apply_ns.snapshot()),
                )]),
            },
        );

        let mut rule_matches: BTreeMap<String, u64> = self
            .rule_matches_by_transaction
            .snapshot()
            .into_iter()
            .map(|(raw, value)| (transaction_label(raw), value))
            .collect();
        let overflow = self.rule_matches_by_transaction.overflow_total();
        if overflow > 0 {
            *rule_matches.entry("other".to_owned()).or_insert(0) += overflow;
        }
        let mut keyed = BTreeMap::new();
        keyed.insert(
            "grbac_rule_matches_total".to_owned(),
            KeyedSnapshot {
                label: "transaction".to_owned(),
                values: rule_matches,
            },
        );
        let heat = self.rule_heat.snapshot();
        let heat_family = |pick: fn(&super::heat::RuleHeatEntry) -> u64| KeyedSnapshot {
            label: "rule".to_owned(),
            values: heat
                .rules
                .iter()
                .filter(|(_, entry)| pick(entry) > 0)
                .map(|(&raw, entry)| (rule_label(raw), pick(entry)))
                .collect(),
        };
        keyed.insert(
            "grbac_rule_heat_matched_total".to_owned(),
            heat_family(|entry| entry.matched),
        );
        keyed.insert(
            "grbac_rule_heat_won_permit_total".to_owned(),
            heat_family(|entry| entry.won_permit),
        );
        keyed.insert(
            "grbac_rule_heat_won_deny_total".to_owned(),
            heat_family(|entry| entry.won_deny),
        );
        keyed.insert(
            "grbac_index_delta_applied_total".to_owned(),
            KeyedSnapshot {
                label: "kind".to_owned(),
                values: self
                    .index_delta_applied
                    .snapshot()
                    .into_iter()
                    .filter_map(|(slot, value)| {
                        DeltaKind::from_slot(slot).map(|kind| (kind.name().to_owned(), value))
                    })
                    .collect(),
            },
        );
        keyed.insert(
            "grbac_events_published_total".to_owned(),
            KeyedSnapshot {
                label: "kind".to_owned(),
                values: EventKind::ALL
                    .iter()
                    .filter_map(|&kind| {
                        let value = self.events.published_total(kind);
                        (value > 0).then(|| (kind.name().to_owned(), value))
                    })
                    .collect(),
            },
        );
        keyed.insert(
            "grbac_alerts_total".to_owned(),
            KeyedSnapshot {
                label: "kind".to_owned(),
                values: self
                    .alerts_by_kind
                    .snapshot()
                    .into_iter()
                    .filter_map(|(slot, value)| {
                        AlertKind::from_slot(slot).map(|kind| (kind.name().to_owned(), value))
                    })
                    .collect(),
            },
        );

        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            keyed,
            summaries,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Compact quantile readings lifted from a [`SketchSnapshot`] for
/// export: the three headline percentiles plus the exact scalar
/// accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantileSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exemplar correlated with the median bucket, if one was retained.
    #[serde(default)]
    pub exemplar_p50: Option<Exemplar>,
    /// Exemplar correlated with the p95 bucket.
    #[serde(default)]
    pub exemplar_p95: Option<Exemplar>,
    /// Exemplar correlated with the p99 bucket.
    #[serde(default)]
    pub exemplar_p99: Option<Exemplar>,
}

impl QuantileSnapshot {
    /// Reads the headline quantiles — and the exemplars nearest each of
    /// them — out of a full sketch snapshot.
    #[must_use]
    pub fn from_sketch(sketch: &SketchSnapshot) -> Self {
        Self {
            count: sketch.count,
            sum: sketch.sum,
            min: if sketch.count == 0 { 0 } else { sketch.min },
            max: sketch.max,
            p50: sketch.quantile(0.5),
            p95: sketch.quantile(0.95),
            p99: sketch.quantile(0.99),
            exemplar_p50: sketch.exemplar_near(0.5),
            exemplar_p95: sketch.exemplar_near(0.95),
            exemplar_p99: sketch.exemplar_near(0.99),
        }
    }
}

/// One labelled family of quantile summaries in a snapshot (e.g.
/// per-stage latency, labelled by stage name).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryFamily {
    /// The label key (e.g. `stage`).
    pub label: String,
    /// Label value → quantile readings.
    pub series: BTreeMap<String, QuantileSnapshot>,
}

/// One labelled counter family in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyedSnapshot {
    /// The label key (e.g. `transaction`).
    pub label: String,
    /// Label value → counter value.
    pub values: BTreeMap<String, u64>,
}

/// A point-in-time copy of a [`MetricsRegistry`], ready for export or
/// diffing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Labelled counter families by name.
    pub keyed: BTreeMap<String, KeyedSnapshot>,
    /// Quantile summary families by name (defaults to empty for
    /// snapshots serialized before the field existed).
    #[serde(default)]
    pub summaries: BTreeMap<String, SummaryFamily>,
}

impl MetricsSnapshot {
    /// This snapshot minus an `earlier` one: counters, histograms and
    /// keyed series subtract (saturating); gauges and quantile
    /// summaries keep this snapshot's values (a gauge is a level, and
    /// a quantile is not subtractable — diff the underlying
    /// [`SketchSnapshot`]s for windowed quantiles).
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &value)| {
                let was = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), value.saturating_sub(was))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, histogram)| {
                let diffed = match earlier.histograms.get(name) {
                    Some(was) => histogram.delta(was),
                    None => histogram.clone(),
                };
                (name.clone(), diffed)
            })
            .collect();
        let keyed = self
            .keyed
            .iter()
            .map(|(name, family)| {
                let values = family
                    .values
                    .iter()
                    .map(|(label, &value)| {
                        let was = earlier
                            .keyed
                            .get(name)
                            .and_then(|f| f.values.get(label))
                            .copied()
                            .unwrap_or(0);
                        (label.clone(), value.saturating_sub(was))
                    })
                    .collect();
                (
                    name.clone(),
                    KeyedSnapshot {
                        label: family.label.clone(),
                        values,
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            keyed,
            summaries: self.summaries.clone(),
        }
    }

    /// Convenience: a counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience: a gauge's value (0 when absent).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let registry = MetricsRegistry::new();
        registry.decisions_permit.inc();
        registry.decisions_permit.add(2);
        registry.audit_retained.set(7);
        if super::ENABLED {
            assert_eq!(registry.decisions_permit.get(), 3);
            assert_eq!(registry.audit_retained.get(), 7);
        } else {
            assert_eq!(registry.decisions_permit.get(), 0);
            assert_eq!(registry.audit_retained.get(), 0);
        }
    }

    #[test]
    fn histogram_buckets_values() {
        let histogram = Histogram::new(&[10, 100, u64::MAX]);
        histogram.observe(5);
        histogram.observe(10);
        histogram.observe(50);
        histogram.observe(1_000);
        let snap = histogram.snapshot();
        if super::ENABLED {
            assert_eq!(snap.counts, vec![2, 1, 1]);
            assert_eq!(snap.count, 4);
            assert_eq!(snap.sum, 1_065);
            assert!((snap.mean() - 266.25).abs() < f64::EPSILON);
        } else {
            assert_eq!(snap.count, 0);
        }
    }

    #[test]
    #[should_panic(expected = "must end in u64::MAX")]
    fn histogram_rejects_unbounded_tails() {
        let _ = Histogram::new(&[10, 100]);
    }

    #[test]
    fn keyed_counter_widens_on_demand() {
        let keyed = KeyedCounter::new();
        keyed.add(3, 2);
        keyed.add(0, 1);
        keyed.add(3, 1);
        if super::ENABLED {
            assert_eq!(keyed.get(3), 3);
            assert_eq!(keyed.get(0), 1);
            assert_eq!(keyed.get(9), 0);
            assert_eq!(keyed.snapshot(), BTreeMap::from([(0, 1), (3, 3)]));
        } else {
            assert!(keyed.snapshot().is_empty());
        }
    }

    #[test]
    fn keyed_counter_caps_cardinality_into_other() {
        let keyed = KeyedCounter::with_cap(4);
        keyed.add(0, 1);
        keyed.add(3, 2);
        keyed.add(4, 5); // at the cap: folded
        keyed.add(1_000_000, 7); // far past it: folded, table untouched
        if super::ENABLED {
            assert_eq!(keyed.get(0), 1);
            assert_eq!(keyed.get(3), 2);
            assert_eq!(keyed.get(4), 0, "capped key never got a slot");
            assert_eq!(keyed.overflow_total(), 12);
            assert_eq!(keyed.dropped_total(), 2);
            assert_eq!(keyed.snapshot(), BTreeMap::from([(0, 1), (3, 2)]));
            // Raising the cap lets new keys through again.
            keyed.set_cap(8);
            keyed.add(4, 1);
            assert_eq!(keyed.get(4), 1);
            assert_eq!(keyed.dropped_total(), 2);
        } else {
            assert_eq!(keyed.overflow_total(), 0);
        }
    }

    #[test]
    fn registry_folds_capped_transaction_labels_into_other() {
        let registry = MetricsRegistry::new();
        registry.rule_matches_by_transaction.set_cap(2);
        registry.rule_matches_by_transaction.add(0, 3);
        registry.rule_matches_by_transaction.add(9, 4);
        registry.rule_matches_by_transaction.add(7, 1);
        let snap = registry.snapshot();
        if super::ENABLED {
            let family = &snap.keyed["grbac_rule_matches_total"];
            assert_eq!(family.values["0"], 3);
            assert_eq!(family.values["other"], 5);
            assert_eq!(snap.counter("grbac_labels_dropped_total"), 2);
        } else {
            assert_eq!(snap.counter("grbac_labels_dropped_total"), 0);
        }
    }

    #[test]
    fn recent_id_ring_windows_between_cursors() {
        let registry = MetricsRegistry::new();
        let cursor = registry.recent_decision_cursor();
        for seq in 1..=5u64 {
            registry.note_decision(DecisionId::from_parts(11, seq));
        }
        registry.note_decision(DecisionId::UNASSIGNED); // ignored
        let (ids, cursor) = registry.recent_decision_ids_since(cursor);
        if super::ENABLED {
            assert_eq!(
                ids,
                (1..=5)
                    .map(|seq| DecisionId::from_parts(11, seq))
                    .collect::<Vec<_>>()
            );
        } else {
            assert!(ids.is_empty());
        }
        // Nothing new since the fresh cursor.
        let (ids, _) = registry.recent_decision_ids_since(cursor);
        assert!(ids.is_empty());
        // Overflowing the ring keeps only the newest RECENT_IDS ids.
        for seq in 6..=(MetricsRegistry::RECENT_IDS as u64 + 10) {
            registry.note_decision(DecisionId::from_parts(11, seq));
        }
        let (ids, _) = registry.recent_decision_ids_since(0);
        if super::ENABLED {
            assert_eq!(ids.len(), MetricsRegistry::RECENT_IDS);
            assert_eq!(
                ids.last().copied(),
                Some(DecisionId::from_parts(
                    11,
                    MetricsRegistry::RECENT_IDS as u64 + 10
                ))
            );
        }
    }

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let registry = MetricsRegistry::new();
        registry.decisions_permit.add(5);
        registry.audit_retained.set(2);
        let before = registry.snapshot();
        registry.decisions_permit.add(3);
        registry.audit_retained.set(9);
        registry.rule_matches_by_transaction.add(1, 4);
        let after = registry.snapshot();
        let delta = after.delta(&before);
        if super::ENABLED {
            assert_eq!(delta.counter("grbac_decisions_permit_total"), 3);
            assert_eq!(delta.gauge("grbac_audit_retained"), 9);
            assert_eq!(delta.keyed["grbac_rule_matches_total"].values["1"], 4);
        } else {
            assert_eq!(delta.counter("grbac_decisions_permit_total"), 0);
        }
    }

    #[test]
    fn latency_sampling_is_one_in_n() {
        let registry = MetricsRegistry::new();
        let sampled = (0..64)
            .filter(|_| {
                let timer = registry.decide_timer();
                registry.observe_decide_latency(timer);
                timer.is_some()
            })
            .count() as u64;
        if super::ENABLED {
            assert_eq!(sampled, 64 / MetricsRegistry::DEFAULT_LATENCY_SAMPLE);
            assert_eq!(registry.decide_latency_ns.count(), sampled);
        } else {
            assert_eq!(sampled, 0);
        }
    }

    #[test]
    fn latency_sample_rate_is_runtime_configurable() {
        let registry = MetricsRegistry::new();
        assert_eq!(
            registry.latency_sample_rate(),
            MetricsRegistry::DEFAULT_LATENCY_SAMPLE
        );
        registry.set_latency_sample_rate(1);
        assert_eq!(registry.latency_sample_rate(), 1);
        let all = (0..10)
            .filter(|_| registry.decide_timer().is_some())
            .count();
        if super::ENABLED {
            assert_eq!(all, 10, "rate 1 samples every decision");
        } else {
            assert_eq!(all, 0);
        }
        // Non-power-of-two rates round up; zero clamps to one.
        registry.set_latency_sample_rate(3);
        assert_eq!(registry.latency_sample_rate(), 4);
        registry.set_latency_sample_rate(0);
        assert_eq!(registry.latency_sample_rate(), 1);
    }

    #[test]
    fn observe_trace_feeds_every_stage_sketch() {
        use super::super::trace::{DecisionTrace, Stage, StageRecord};
        let registry = MetricsRegistry::new();
        let trace = DecisionTrace {
            decision_id: DecisionId::from_parts(3, 17),
            stages: Stage::ALL
                .iter()
                .enumerate()
                .map(|(i, &stage)| StageRecord {
                    stage,
                    nanos: (i as u64 + 1) * 100,
                    items: 1,
                })
                .collect(),
            total_nanos: 1_500,
        };
        registry.observe_trace(&trace);
        registry.observe_trace(&trace);
        let snap = registry.snapshot();
        if super::ENABLED {
            assert_eq!(snap.counter("grbac_decide_sampled_total"), 2);
            assert_eq!(snap.histograms["grbac_decide_latency_ns"].count, 2);
            let family = &snap.summaries["grbac_stage_latency_ns"];
            assert_eq!(family.label, "stage");
            assert_eq!(family.series.len(), 6, "five stages plus total");
            for stage in Stage::ALL {
                assert_eq!(family.series[stage.name()].count, 2);
            }
            let total = &family.series["total"];
            assert_eq!(total.count, 2);
            // Every observation was 1500 ns, so the quantiles agree.
            assert!(total.p50.abs_diff(1_500) as f64 / 1_500.0 <= 0.07);
            assert!(total.p99.abs_diff(1_500) as f64 / 1_500.0 <= 0.07);
            // The traced decision's id survives as the p99 exemplar.
            let exemplar = total.exemplar_p99.expect("exemplar retained");
            assert_eq!(exemplar.decision_id, DecisionId::from_parts(3, 17));
            assert_eq!(exemplar.value, 1_500);
            assert_eq!(snap.gauge("grbac_decide_sample_rate"), 8);
        } else {
            assert_eq!(snap.counter("grbac_decide_sampled_total"), 0);
            assert_eq!(
                snap.summaries["grbac_stage_latency_ns"].series["total"].count,
                0
            );
        }
    }
}

//! Mediation telemetry: metrics, decision tracing, and exporters.
//!
//! The paper's Aware Home assumes an always-on mediator serving a
//! chatty sensor network; a production engine needs a window into that
//! mediator beyond the bounded decision log (the
//! [flight recorder](crate::provenance::FlightRecorder) and its
//! [audit view](crate::audit::AuditView)).
//! This module provides that window with zero external dependencies:
//!
//! * [`MetricsRegistry`] — lock-cheap atomic counters, gauges and
//!   fixed-bucket histograms covering the whole pipeline: decisions by
//!   effect, per-transaction rule hits, compiled-index rebuilds (count
//!   and nanoseconds), expansion-cache hits/misses, batch sizes, audit
//!   totals and evictions (filled from the decision log by
//!   [`Grbac::metrics_snapshot`](crate::engine::Grbac::metrics_snapshot)),
//!   and the environment-provider counters that
//!   `grbac-env` publishes into the same registry.
//! * [`DecisionTrace`] — a stage-by-stage span model of one mediation
//!   (subject-role expansion → object-role expansion → environment
//!   evaluation → rule candidate merge → precedence resolution) with
//!   per-stage timings and item counts, produced by
//!   [`Grbac::decide_traced`](crate::engine::Grbac::decide_traced).
//! * [`Span`] / [`SpanStore`] / [`TraceContext`] — wire-propagated
//!   request tracing: `traceparent`-style context parsed from (and
//!   echoed onto) the serve protocol, spans covering queue wait, lock
//!   acquisition and the engine call, collected in sharded
//!   [`SlotRing`](crate::ring::SlotRing)s with counted evictions and a
//!   runtime sampling rate. Engine-call spans are stamped with the
//!   decision's [`DecisionId`](crate::id::DecisionId), joining traces to the
//!   flight-recorder (and its audit rows) and exemplar evidence. Deliberately *not*
//!   compiled out by `telemetry-off` (propagation is a wire contract).
//! * [`QuantileSketch`] — a fixed-memory HDR-style streaming sketch
//!   giving p50/p95/p99 for end-to-end decide latency and for each of
//!   the five mediation stages, fed continuously by the sampled path
//!   (see [`MetricsRegistry::observe_trace`]) and exported as summary
//!   families.
//! * [`Exporter`] — renders a [`MetricsSnapshot`] as Prometheus text
//!   ([`PrometheusExporter`]) or JSON ([`JsonExporter`]); snapshots
//!   support [`delta`](MetricsSnapshot::delta) for diffing two points
//!   in time.
//! * [`RuleHeat`] — sharded per-rule heat counters (matches, wins by
//!   effect, last-fired generation) fed by every compiled decision;
//!   joined with the static [`analysis`](crate::analysis) report into
//!   a [`PolicyHealthReport`](crate::analysis::PolicyHealthReport).
//! * [`DecisionWatchdog`] — pull-model anomaly detection over the
//!   registry's decision-stream counters (deny rate, degraded rate,
//!   env-role flaps, staleness burn) with EWMA baselines and
//!   structured [`AlertRecord`]s.
//! * [`EventBus`] — the push plane: a bounded multi-subscriber
//!   broadcast of typed [`TelemetryEvent`]s (decisions with their
//!   effect and id, watchdog alerts, degraded-mode edges, policy-delta
//!   installs, completed spans) with per-subscriber drop-oldest rings,
//!   exact `delivered + dropped == published` accounting, and a
//!   runtime kill switch, plus a replay window of recent events kept
//!   while an [`EventWindow`] holds it (the obs plane's `/events`
//!   resume). Publishing with nobody listening is a couple of relaxed
//!   loads.
//! * [`MetricsHistory`] — the time-series plane: a bounded ring of
//!   periodic [`MetricsSnapshot`] deltas with windowed rate queries
//!   (deny rate, decide throughput, degraded ppm) feeding the obs
//!   server's `/timeseries` endpoint and dashboard sparklines.
//!
//! Every retained log here is one of the two rings in [`crate::ring`].
//!
//! Telemetry is **on by default and cheap**: every counter update is a
//! single relaxed atomic operation, decision latency is sampled (one
//! in [`MetricsRegistry::latency_sample_rate`] decisions — default
//! [`MetricsRegistry::DEFAULT_LATENCY_SAMPLE`], runtime-configurable —
//! pays for the clock reads and the stage trace), and the whole
//! subsystem compiles to no-ops under the `telemetry-off` feature.
//! Experiment E10 in EXPERIMENTS.md holds the default-on overhead
//! under 5% on the E5 1024-rule workload.

mod events;
mod export;
mod health;
mod heat;
mod history;
mod metrics;
mod sketch;
mod span;
mod trace;

pub use crate::delta::DeltaKind;
pub use events::{
    EventBus, EventData, EventFilter, EventKind, EventSubscription, EventWindow, Severity,
    TelemetryEvent,
};
pub use export::{Exporter, JsonExporter, PrometheusExporter};
pub use health::{AlertKind, AlertRecord, DecisionWatchdog, WatchdogConfig};
pub use heat::{RuleHeat, RuleHeatEntry, RuleHeatSnapshot};
pub use history::{HistoryWindow, MetricsHistory};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, KeyedCounter, KeyedSnapshot, MetricsRegistry,
    MetricsSnapshot, QuantileSnapshot, SummaryFamily,
};
pub use sketch::{Exemplar, QuantileSketch, SketchSnapshot};
pub use span::{
    assemble_trace, monotonic_nanos, otlp_value, unix_nanos_at, Span, SpanId, SpanKind, SpanStatus,
    SpanStore, SpanTree, TraceContext, TraceId,
};
pub use trace::{DecisionTrace, Stage, StageRecord};

pub(crate) use trace::{NoTrace, TraceCollector, TraceSink};

/// True when the crate was built with telemetry enabled (the default).
///
/// With the `telemetry-off` feature every counter, gauge and histogram
/// update compiles to a no-op and all readings stay zero; downstream
/// tests can branch on this constant instead of duplicating the
/// feature gate.
pub const ENABLED: bool = cfg!(not(feature = "telemetry-off"));

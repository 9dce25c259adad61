//! Structured pipeline tracing for the Legion RMI.
//!
//! The paper's evaluation (§6) argues about the resource management
//! infrastructure in terms of where simulated time and messages go:
//! Collection queries, reservation negotiation (and the thrashing its
//! bitmap variants avoid), enactment retries, object starts, and
//! watchdog recoveries. This crate turns those stages into data:
//!
//! * [`TraceSink`] collects [`Span`]s (vocabulary in `legion-core`)
//!   scoped to [`EpisodeId`]s, with parent/episode context propagated
//!   through a per-thread stack so the synchronous pipeline needs no
//!   signature changes.
//! * [`LatencyHistogram`] aggregates span durations per stage into
//!   fixed log2 buckets, lock-free at record time;
//!   [`HistogramSnapshot`] supports order-independent merging and
//!   tail-percentile queries.
//! * [`trace_json`], [`episode_report`] and [`latency_report`] export a
//!   run as a `legion-trace/v1` JSON document, a per-episode span tree,
//!   and a per-stage latency table.
//!
//! Sinks start **disabled** — instrumentation points cost one atomic
//! load until `enable()` is called — so benches and untraced tests are
//! unaffected.
//!
//! Span durations are *simulated* cost: virtual-clock elapsed time plus
//! message latency charged via [`charge_active`] (the clock does not
//! advance for messages; the fabric charges the active span instead).

pub mod export;
pub mod histogram;
pub mod sink;

pub use export::{episode_report, latency_report, trace_json};
pub use histogram::{bucket_of, bucket_upper_us, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use legion_core::{EpisodeId, Span, SpanId, SpanKind, SpanOutcome};
pub use sink::{charge_active, ClockFn, EpisodeGuard, SpanGuard, TraceRollup, TraceSink};

//! # redlight-obs
//!
//! The platform's telemetry spine: a deterministic, dependency-free
//! tracing + metrics layer shared by the crawler, the transport stack and
//! the analysis stages.
//!
//! Three pieces:
//!
//! * [`Registry`] — named counters / gauges / log-2 [`Histogram`]s over
//!   lock-free atomics. Handles are cheap clones; per-worker registries
//!   fold into the study-wide one with [`Registry::absorb`] in job order,
//!   so aggregate metrics are deterministic.
//! * [`Trace`] / [`Tracer`] — hierarchical spans recorded into per-shard
//!   buffers (one single-threaded [`Tracer`] per worker, shard names from
//!   job indices), merged by [`Trace::journal`] into a [`Journal`] whose
//!   ids and logical clock depend only on the span structure.
//! * Exporters — [`Journal::json_lines`], [`Journal::chrome_trace`]
//!   (Perfetto-loadable) and [`MetricsSnapshot::prometheus`]. All exported
//!   bytes are a pure function of the seed: wall-clock values stay
//!   in-memory (for `--timings`) and never reach an export.
//!
//! Everything is built so the *unobserved* path stays free: a disabled
//! [`Trace`] records nothing, and a standalone [`Counter`] is exactly the
//! `AtomicU64` the bespoke structs used before this crate existed.

#![warn(missing_docs)]

mod journal;
pub mod json;
mod metrics;
mod span;
mod timeline;

pub use journal::{Journal, JournalSpan};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsSnapshot, Registry, Unit,
    HISTOGRAM_BUCKETS,
};
pub use span::{AttrVal, SpanLink, Trace, Tracer, DEFAULT_SHARD_CAP};
pub use timeline::{SloEvent, SloKind, SloPolicy, SloTracker, Timeline, WindowHist, WindowRow};

/// The telemetry every pipeline layer records into: a span collector, a
/// metrics registry and the span new shards hang under. It rides on the
/// study configuration, so each layer has one entry point whether or not
/// anything is being recorded. Cloning shares the trace and the registry.
#[derive(Debug, Clone, Default)]
pub struct ObsContext {
    /// Span collector.
    pub trace: Trace,
    /// Metrics registry.
    pub metrics: Registry,
    /// Span the shards opened through [`tracer`](Self::tracer) attach to
    /// (`None`: they are roots of the span forest).
    pub parent: Option<SpanLink>,
}

impl ObsContext {
    /// An enabled context: spans recorded, metrics registered.
    pub fn new() -> Self {
        ObsContext {
            trace: Trace::new(),
            metrics: Registry::new(),
            parent: None,
        }
    }

    /// The context a study configuration starts with: span recording
    /// disabled, metrics land in a registry nobody exports.
    pub fn disabled() -> Self {
        ObsContext {
            trace: Trace::disabled(),
            metrics: Registry::new(),
            parent: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// A tracer for the shard named `shard`, rooted under
    /// [`parent`](Self::parent) when one is set.
    pub fn tracer(&self, shard: &str) -> Tracer {
        match &self.parent {
            Some(link) => self.trace.tracer_under(shard, link.clone()),
            None => self.trace.tracer(shard),
        }
    }
}

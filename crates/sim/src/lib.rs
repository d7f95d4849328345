//! Deterministic discrete-event simulation for the redlight measurement
//! pipeline.
//!
//! This crate gives the measurement pipeline a logical clock and an event
//! kernel, so elapsed time is a first-class simulated quantity — every
//! crawl session and every traffic run consumes it, none sleeps:
//!
//! * [`queue`] — [`SimTime`] and the stable-order [`EventQueue`]
//!   (`(time, seq)` tie-breaking, tombstone cancellation).
//! * [`kernel`] — [`SimClock`], the [`Actor`] abstraction and the
//!   [`ActorSystem`] run loop.
//! * [`service`] — the per-request [`ServiceModel`] and per-host
//!   connection [`HostPool`]s.
//! * [`transport`] — [`SimTransport`], rehosting every crawl's websim
//!   `WebServer` stack on the logical clock so crawler retries and fault
//!   stalls cost logical time while outcomes pass through untouched.
//! * [`traffic`] — the million-visitor load-generator workload
//!   ([`run_traffic`]), reporting throughput and latency percentiles
//!   through `obs` histograms.
//! * [`flight`] — the bounded [`FlightRecorder`] ring that freezes the
//!   causal neighborhood of SLO violations into the journal.
//!
//! Everything is seeded and wall-clock-free: same seed ⇒ same event log,
//! same report, bit for bit.

#![warn(missing_docs)]

pub mod flight;
pub mod kernel;
pub mod queue;
pub mod service;
pub mod traffic;
pub mod transport;

pub use flight::{FlightEvent, FlightKind, FlightRecorder, FlightSnapshot};
pub use kernel::{Actor, ActorId, ActorSystem, Addressed, Outbox, SimClock};
pub use queue::{EventId, EventQueue, SimTime};
pub use service::{HostPool, ServiceModel};
pub use traffic::{
    run_traffic, TierRow, TimelineReport, TimelineSpec, TrafficConfig, TrafficReport,
};
pub use transport::{SimHandle, SimTransport};

//! Zero-dependency observability primitives for llhsc.
//!
//! Four small, independent pieces share this crate:
//!
//! * [`trace`] — a thread-safe [`Tracer`] recording hierarchical spans
//!   (pipeline → stage → per-VM product check → individual solver call)
//!   with attached `u64` counters, exportable as Chrome trace-event JSON.
//! * [`metrics`] — a [`Registry`] of labelled [`Counter`]s and fixed-bucket
//!   [`Histogram`]s (with per-bucket [`Exemplar`]s) rendered in the
//!   Prometheus text exposition format.
//! * [`flight`] — a bounded, lock-light [`FlightRecorder`] ring of recent
//!   request records, always on in the daemon.
//! * [`log`] — a leveled, timestamped stderr logger gated by the
//!   `LLHSC_LOG=error|warn|info|debug` environment variable.
//!
//! The crate deliberately depends on nothing (not even other llhsc
//! crates) so every layer — `sat` excepted, which stays instrumentation
//! free — can link it without cycles. Time is injectable via [`Clock`]:
//! the tool records every span on the [`WallClock`], once, and every
//! view of where a run's time went (`--stats`, the daemon's `build`
//! timings, slow-request dumps) reads those spans. Unit tests use a
//! [`ManualClock`].

pub mod clock;
pub mod flight;
pub mod log;
pub mod metrics;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use flight::{FlightRecord, FlightRecorder};
pub use log::{LogLevel, Logger};
pub use metrics::{Counter, Exemplar, Histogram, MetricKind, Registry};
pub use trace::{chrome_trace_of, SpanId, SpanRecord, TraceCtx, Tracer};

/// Name of the environment variable read by [`Logger::from_env`].
pub const LOG_ENV: &str = "LLHSC_LOG";

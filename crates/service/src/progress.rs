//! Progress sinks: where in-solve heartbeats go.
//!
//! The CDCL core emits a [`Heartbeat`] every `heartbeat_every` conflicts
//! (see `llhsc_sat::SolverConfig`); this module provides the two
//! consumers the tool ships:
//!
//! * [`RequestProgress`] — a lock-light accumulator the daemon registers
//!   per in-flight request, surfaced live through the `stats` op's
//!   `"active"` array.
//! * [`StderrProgress`] — the `llhsc check --progress` printer: one
//!   stderr line per heartbeat with a conflicts/s rate on the wall
//!   clock.
//!
//! Both are observation-only by construction: the solver hands the sink
//! an immutable snapshot and never reads anything back, so attaching a
//! sink cannot perturb the search (pinned by tests in `llhsc_sat`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use llhsc::{Heartbeat, ProgressSink};
use llhsc_obs::{Clock, WallClock};

/// Live progress of one daemon request, updated by solver heartbeats.
///
/// All fields are atomics (the phase string is a tiny mutex), so the
/// `stats` op can snapshot an in-flight request without blocking the
/// worker solving it.
#[derive(Debug)]
pub struct RequestProgress {
    trace_id: String,
    op: String,
    phase: Mutex<String>,
    heartbeats: AtomicU64,
    conflicts: AtomicU64,
    trail_depth: AtomicU64,
    restarts: AtomicU64,
    learnt: AtomicU64,
    proof_steps: AtomicU64,
}

/// A point-in-time copy of a [`RequestProgress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    pub trace_id: String,
    pub op: String,
    pub phase: String,
    pub heartbeats: u64,
    pub conflicts: u64,
    pub trail_depth: u64,
    pub restarts: u64,
    pub learnt: u64,
    pub proof_steps: u64,
}

impl RequestProgress {
    /// A fresh tracker in phase `"queued"`.
    pub fn new(trace_id: impl Into<String>, op: impl Into<String>) -> RequestProgress {
        RequestProgress {
            trace_id: trace_id.into(),
            op: op.into(),
            phase: Mutex::new("queued".to_string()),
            heartbeats: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            trail_depth: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            learnt: AtomicU64::new(0),
            proof_steps: AtomicU64::new(0),
        }
    }

    /// The request's trace ID.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Marks the coarse phase the request is in (`"parse"`, `"check"`,
    /// `"render"`, …).
    pub fn set_phase(&self, phase: &str) {
        let mut guard = self.phase.lock().unwrap_or_else(|e| e.into_inner());
        phase.clone_into(&mut guard);
    }

    /// Copies the current state.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            trace_id: self.trace_id.clone(),
            op: self.op.clone(),
            phase: self.phase.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            trail_depth: self.trail_depth.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            learnt: self.learnt.load(Ordering::Relaxed),
            proof_steps: self.proof_steps.load(Ordering::Relaxed),
        }
    }
}

impl ProgressSink for RequestProgress {
    fn heartbeat(&self, beat: &Heartbeat) {
        self.heartbeats.fetch_add(1, Ordering::Relaxed);
        self.conflicts.store(beat.conflicts, Ordering::Relaxed);
        self.trail_depth.store(beat.trail_depth, Ordering::Relaxed);
        self.restarts.store(beat.restarts, Ordering::Relaxed);
        self.learnt.store(beat.learnt, Ordering::Relaxed);
        self.proof_steps.store(beat.proof_steps, Ordering::Relaxed);
    }
}

/// The `llhsc check --progress` sink: one stderr line per heartbeat.
///
/// The conflicts/s rate comes from the sink's own wall clock, never
/// from the solver; everything else on the line is conflict-count
/// based, as is the heartbeat cadence, so two runs over the same input
/// print the same lines up to their rates.
#[derive(Default)]
pub struct StderrProgress {
    clock: WallClock,
}

impl StderrProgress {
    /// Renders one heartbeat as the line `--progress` prints (without
    /// the trailing newline). Public so tests can pin the format.
    pub fn render(beat: &Heartbeat, elapsed_us: u64) -> String {
        let rate = match beat
            .conflicts
            .saturating_mul(1_000_000)
            .checked_div(elapsed_us)
        {
            Some(per_s) => per_s.to_string(),
            None => "-".to_string(),
        };
        format!(
            "progress: solve {} | {} conflicts ({rate}/s) | trail {} | {} restarts | {} learnt | {} proof steps",
            beat.solves, beat.conflicts, beat.trail_depth, beat.restarts, beat.learnt, beat.proof_steps
        )
    }
}

impl ProgressSink for StderrProgress {
    fn heartbeat(&self, beat: &Heartbeat) {
        eprintln!("{}", StderrProgress::render(beat, self.clock.now_us()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_progress_tracks_latest_heartbeat() {
        let p = RequestProgress::new("00000001-000001", "check");
        p.set_phase("check");
        p.heartbeat(&Heartbeat {
            solves: 2,
            conflicts: 1024,
            trail_depth: 17,
            restarts: 3,
            learnt: 96,
            proof_steps: 400,
        });
        p.heartbeat(&Heartbeat {
            solves: 2,
            conflicts: 2048,
            trail_depth: 9,
            restarts: 4,
            learnt: 120,
            proof_steps: 800,
        });
        let snap = p.snapshot();
        assert_eq!(snap.trace_id, "00000001-000001");
        assert_eq!(snap.op, "check");
        assert_eq!(snap.phase, "check");
        assert_eq!(snap.heartbeats, 2);
        assert_eq!(snap.conflicts, 2048, "latest beat wins");
        assert_eq!(snap.trail_depth, 9);
        assert_eq!(snap.restarts, 4);
        assert_eq!(snap.learnt, 120);
        assert_eq!(snap.proof_steps, 800);
    }

    #[test]
    fn progress_line_format_is_pinned() {
        let beat = Heartbeat {
            solves: 1,
            conflicts: 4096,
            trail_depth: 12,
            restarts: 5,
            learnt: 301,
            proof_steps: 9000,
        };
        let line = StderrProgress::render(&beat, 0);
        assert_eq!(
            line,
            "progress: solve 1 | 4096 conflicts (-/s) | trail 12 | 5 restarts | 301 learnt | 9000 proof steps"
        );
        assert_eq!(StderrProgress::render(&beat, 0), line);
        let timed = StderrProgress::render(&beat, 2_000_000);
        assert!(timed.contains("(2048/s)"), "{timed}");
    }
}

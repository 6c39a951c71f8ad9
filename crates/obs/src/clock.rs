//! Injectable time sources.
//!
//! The tracer never calls `Instant::now` directly; it asks a [`Clock`]
//! for "microseconds since the clock was created". Every tracer the
//! tool builds reads the [`WallClock`]; unit tests substitute a
//! [`ManualClock`] for predictable timestamps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond clock. Implementations must be thread-safe:
/// spans are opened and closed from `std::thread::scope` workers.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since some fixed origin (typically clock
    /// construction). Must be monotonic per clock instance.
    fn now_us(&self) -> u64;
}

/// Real wall-clock time, measured from construction.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for unit tests that want distinct, predictable
/// timestamps without sleeping.
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn new() -> ManualClock {
        ManualClock {
            now: AtomicU64::new(0),
        }
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.now.fetch_add(us, Ordering::SeqCst);
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance(7);
        c.advance(5);
        assert_eq!(c.now_us(), 12);
    }
}

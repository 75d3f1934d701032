//! Wall-clock access for the whole workspace — the **only** module
//! outside the vendored Criterion stand-in that reads
//! `Instant`/`SystemTime`.
//!
//! Confinement is the point: the root `clippy.toml` denies both types
//! everywhere, and this module carries the one exemption. Everything
//! downstream (wall_seconds, pool busy time, log timestamps, request
//! latencies, span durations) is telemetry that is stripped from, or
//! never enters, a `results.json`; simulated time comes from the cycle
//! counter.
#![expect(
    clippy::disallowed_types,
    reason = "the single clock module: its readings feed telemetry only, never results"
)]

use std::time::{Instant, SystemTime};

/// A started stopwatch; the only way to measure elapsed wall time.
#[derive(Clone, Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Starts the stopwatch now.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Nanoseconds elapsed since [`Timer::start`], saturating.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Microseconds elapsed since [`Timer::start`], saturating.
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since [`Timer::start`], as a float.
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Seconds since the Unix epoch (0 if the system clock is before it).
pub fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_now_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotonic_and_clock_is_sane() {
        let t = Timer::start();
        let a = t.elapsed_micros();
        let b = t.elapsed_micros();
        assert!(b >= a);
        assert!(t.elapsed_nanos() >= b * 1000);
        assert!(t.elapsed_secs() >= 0.0);
        // Both epoch reads agree to within a generous margin.
        let (s, ms) = (unix_now_secs(), unix_now_millis());
        assert!(ms / 1000 >= s.saturating_sub(2) && ms / 1000 <= s + 2);
        assert!(s > 1_500_000_000, "system clock is before 2017?");
    }
}

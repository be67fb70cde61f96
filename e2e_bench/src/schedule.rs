//! Open-loop request timing.
//!
//! An open-loop generator sends request `k` when it is **due**, at
//! `start + k / rate`, whether or not earlier replies have arrived.  Each
//! request is timed from its due time, not from when it was actually sent,
//! so a stall that delays later sends is charged to every request it
//! delayed (no coordinated omission).  How late the generator itself ran
//! (actual send − due) is reported separately, so a lagging generator is
//! visible rather than silently lowering the offered rate.

use std::time::{Duration, Instant};

/// A fixed-rate schedule anchored at `start`.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

impl OpenLoop {
    /// A schedule of `rate_per_s` requests per second from `start`.
    ///
    /// # Panics
    /// Panics unless `rate_per_s` is positive and finite.
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "rate must be positive"
        );
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `k` (0-based) is due.
    pub fn due(&self, k: u32) -> Instant {
        self.start + self.period * k
    }

    /// Sleep until request `k` is due (returns at once if it is overdue).
    pub fn wait_for(&self, k: u32) {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

/// One open-loop request's timestamps.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When it was actually written.
    pub sent: Instant,
    /// When its reply was read.
    pub done: Instant,
}

impl Timed {
    /// Latency charged to the request: reply time minus **due** time.
    pub fn latency_ms(&self) -> f64 {
        ms_between(self.due, self.done)
    }

    /// How late the generator sent it.
    pub fn lag_ms(&self) -> f64 {
        ms_between(self.due, self.sent)
    }
}

/// Milliseconds from `from` to `to` (zero if `to` is earlier).
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_nanos() as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let t0 = Instant::now();
        let s = OpenLoop::new(t0, 25.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(1) - t0, Duration::from_millis(40));
        assert_eq!(s.due(25) - t0, Duration::from_secs(1));
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        // 25/s: requests due at 0, 40, 80 ms.  The server stalls until
        // 100 ms, so request 0 completes at 100 ms and requests 1 and 2 are
        // only sent then, answering 1 ms apart.
        let t0 = Instant::now();
        let s = OpenLoop::new(t0, 25.0);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let reqs = [
            Timed {
                due: s.due(0),
                sent: at(0),
                done: at(100),
            },
            Timed {
                due: s.due(1),
                sent: at(100),
                done: at(101),
            },
            Timed {
                due: s.due(2),
                sent: at(101),
                done: at(102),
            },
        ];
        let lat: Vec<f64> = reqs.iter().map(Timed::latency_ms).collect();
        let lag: Vec<f64> = reqs.iter().map(Timed::lag_ms).collect();
        assert_eq!(lat, vec![100.0, 61.0, 22.0]);
        assert_eq!(lag, vec![0.0, 60.0, 21.0]);
        // Timed from the send instead, the stall would vanish (1 ms each).
        assert_eq!(ms_between(reqs[1].sent, reqs[1].done), 1.0);
    }

    #[test]
    fn waiting_never_returns_early() {
        let s = OpenLoop::new(Instant::now(), 200.0);
        s.wait_for(2);
        assert!(Instant::now() >= s.due(2));
        s.wait_for(0); // overdue: immediate
    }
}

//! Open-loop scheduling: requests are *due* on a fixed timetable whatever
//! the replies do, and each is timed from when it was due. A stall
//! therefore charges its delay to every request queued behind it, which a
//! closed loop (send the next when the last returns) silently forgives.

use std::time::{Duration, Instant};

/// A fixed-rate timetable starting at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Timetable {
    start: Instant,
    per_second: u64,
}

/// What one open-loop request cost, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Reply time minus **due** time: what the user waited.
    pub latency_ns: u64,
    /// Send time minus due time: how late the generator ran.
    pub lateness_ns: u64,
    /// Reply time minus send time: the server's part.
    pub service_ns: u64,
}

impl Timetable {
    /// `per_second` requests a second from `start` on.
    pub fn new(start: Instant, per_second: u64) -> Self {
        assert!(per_second > 0, "an open loop needs a rate");
        Self { start, per_second }
    }

    /// When request `i` is due, in ns after the start. Computed from `i`
    /// alone, so neither rounding nor a slow reply can make later requests
    /// drift.
    pub fn due_ns(&self, i: u64) -> u64 {
        (u128::from(i) * 1_000_000_000 / u128::from(self.per_second)) as u64
    }

    /// Nanoseconds since the start.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Blocks until request `i` is due; returns at once when it already is
    /// (the generator is behind and catches up without skipping requests).
    /// Sleeps while far away, yields for the last stretch: a sleep overshoots
    /// by tens of microseconds, which at kHz rates is the measurement.
    pub fn wait_until_due(&self, i: u64) {
        const SPIN_NS: u64 = 60_000;
        let due = self.due_ns(i);
        loop {
            let now = self.now_ns();
            if now >= due {
                return;
            }
            if due - now > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// The timing of request `i`, sent at `sent_ns` and answered at
    /// `reply_ns` (both ns after the start).
    pub fn timing(&self, i: u64, sent_ns: u64, reply_ns: u64) -> Timing {
        let due = self.due_ns(i);
        Timing {
            latency_ns: reply_ns.saturating_sub(due),
            lateness_ns: sent_ns.saturating_sub(due),
            service_ns: reply_ns.saturating_sub(sent_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_depend_on_the_index_alone() {
        let t = Timetable::new(Instant::now(), 3_000);
        assert_eq!(t.due_ns(0), 0);
        assert_eq!(t.due_ns(3_000), 1_000_000_000);
        assert_eq!(t.due_ns(3), 1_000_000);
        // No drift: a million requests later the timetable is exact.
        assert_eq!(t.due_ns(3_000_000_000), 1_000_000_000_000_000);
        // 3 does not divide 1e9: rounding stays below one nanosecond each.
        assert_eq!(t.due_ns(1), 333_333);
        assert_eq!(t.due_ns(2), 666_666);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let t = Timetable::new(Instant::now(), 1_000); // one per millisecond
                                                       // Request 0 is sent on time but takes 5 ms.
        let slow = t.timing(0, 0, 5_000_000);
        assert_eq!((slow.latency_ns, slow.lateness_ns), (5_000_000, 0));
        // Request 1 was due at 1 ms, could only be sent at 5 ms, and was
        // served in 0.1 ms: the user still waited 4.1 ms.
        let queued = t.timing(1, 5_000_000, 5_100_000);
        assert_eq!(queued.latency_ns, 4_100_000);
        assert_eq!(queued.lateness_ns, 4_000_000);
        assert_eq!(queued.service_ns, 100_000);
        // The timetable did not move: request 6 is still due at 6 ms.
        assert_eq!(t.due_ns(6), 6_000_000);
    }

    #[test]
    fn waiting_returns_at_or_after_the_due_time_and_at_once_when_late() {
        let t = Timetable::new(Instant::now(), 500); // every 2 ms
        t.wait_until_due(2);
        let now = t.now_ns();
        assert!(now >= t.due_ns(2), "{now}");
        let before = Instant::now();
        t.wait_until_due(1); // already past
        assert!(before.elapsed() < Duration::from_millis(1));
    }
}

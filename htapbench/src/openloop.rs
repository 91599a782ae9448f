//! Open-loop load: operations are due on a fixed schedule whether or not
//! the system kept up, and each one is timed from when it was due.
//!
//! A closed-loop writer slows down with the system and hides a growing
//! backlog; an open-loop one does not, so the benchmark also watches the
//! backlog and refuses a run in which it grew or the generator fell
//! behind its own schedule.

use std::time::{Duration, Instant};

/// A fixed-rate schedule.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start: Instant,
    period_ns: f64,
    issued: u64,
}

/// One send against the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// When the operation was due: its latency is measured from here.
    pub due: Instant,
    /// How late it was sent, in ms (0 when on time or early).
    pub late_ms: f64,
}

impl OpenLoop {
    /// Operations due at `start`, `start + 1/rate`, `start + 2/rate`, ...
    pub fn new(start: Instant, rate_per_s: f64) -> OpenLoop {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        OpenLoop {
            start,
            period_ns: 1e9 / rate_per_s,
            issued: 0,
        }
    }

    /// When the next operation is due.
    pub fn next_due(&self) -> Instant {
        self.start + Duration::from_nanos((self.issued as f64 * self.period_ns) as u64)
    }

    /// Record that the next operation is being sent at `at`.
    pub fn send(&mut self, at: Instant) -> Sent {
        let due = self.next_due();
        self.issued += 1;
        Sent {
            due,
            late_ms: at.saturating_duration_since(due).as_secs_f64() * 1e3,
        }
    }

    /// Operations sent so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// How far behind schedule the generator is at `now`: the age of the
    /// oldest operation that is due but not yet sent (0 when none is).
    pub fn behind(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.next_due())
    }
}

/// State of an open-loop workload at the end of one sub-window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubWindow {
    /// Replication backlog: written LSN minus the replica's applied LSN.
    pub lag_lsn: u64,
    /// How far the generator was behind its schedule when it first
    /// looked at the clock after the sub-window ended, in ms.
    pub behind_ms: f64,
}

/// What an open-loop generator sends, and what it does in between.
pub trait Load {
    /// Use the time until `due`, when the next operation is due;
    /// return by then (at once when it is already past).
    fn idle(&mut self, due: Instant);
    /// Issue operation number `seq`, due at `sent.due`.
    fn issue(&mut self, sent: Sent, seq: u64);
    /// Current replication backlog in LSN.
    fn lag_lsn(&self) -> u64;
}

/// Send `load`'s operations on `sched` until the last of `sub_ends`, and
/// on past it while `hold()` is true. Returns one [`SubWindow`] per entry
/// of `sub_ends`, each closed the first time the generator looks at the
/// clock after that end, before it sends again: a generator that is
/// stalled across an end is seen as behind, not as caught up.
pub fn drive(
    load: &mut impl Load,
    sched: &mut OpenLoop,
    sub_ends: &[Instant],
    hold: impl Fn() -> bool,
) -> Vec<SubWindow> {
    let end = *sub_ends
        .last()
        .expect("a window has at least one sub-window");
    let mut subs = Vec::with_capacity(sub_ends.len());
    loop {
        let due = sched.next_due();
        if due >= end && !hold() {
            break;
        }
        load.idle(due);
        let now = Instant::now();
        while sub_ends.get(subs.len()).is_some_and(|&b| b <= now) {
            subs.push(sub_window(load, sched, now));
        }
        let seq = sched.issued();
        let sent = sched.send(now);
        load.issue(sent, seq);
    }
    // Every operation due in the window was sent: the generator ended
    // on schedule. Close what is left.
    let now = Instant::now().min(end);
    while subs.len() < sub_ends.len() {
        subs.push(sub_window(load, sched, now));
    }
    subs
}

fn sub_window(load: &impl Load, sched: &OpenLoop, now: Instant) -> SubWindow {
    SubWindow {
        lag_lsn: load.lag_lsn(),
        behind_ms: sched.behind(now).as_secs_f64() * 1e3,
    }
}

/// Limits beyond which an open-loop run is invalid rather than "fast".
#[derive(Debug, Clone, Copy)]
pub struct BacklogLimits {
    /// The generator may end the window at most this far behind
    /// schedule, as seen when it first looks at the clock after the end.
    pub max_behind_ms: f64,
    /// The backlog grew when the mean lag of the last third of the
    /// sub-windows exceeds twice that of the first third plus this.
    pub lag_slack_lsn: u64,
}

/// `Ok` when the backlog stayed bounded and the generator kept to its
/// schedule across the window; otherwise why the run is invalid.
pub fn backlog_verdict(subs: &[SubWindow], limits: BacklogLimits) -> Result<(), String> {
    if subs.len() < 3 {
        return Err(format!(
            "only {} sub-windows recorded; need 3 to judge the backlog",
            subs.len()
        ));
    }
    let last = subs[subs.len() - 1];
    if last.behind_ms > limits.max_behind_ms {
        return Err(format!(
            "generator ended {:.1} ms behind schedule (limit {:.1} ms)",
            last.behind_ms, limits.max_behind_ms
        ));
    }
    let third = subs.len() / 3;
    let mean_lag =
        |s: &[SubWindow]| s.iter().map(|w| w.lag_lsn as f64).sum::<f64>() / s.len() as f64;
    let first = mean_lag(&subs[..third]);
    let end = mean_lag(&subs[subs.len() - third..]);
    if end > 2.0 * first + limits.lag_slack_lsn as f64 {
        return Err(format!(
            "replication backlog grew across the window: mean lag {first:.0} -> {end:.0} LSN"
        ));
    }
    Ok(())
}

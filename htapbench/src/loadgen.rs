//! The open-loop write generator shared by the HTAP workloads.
//!
//! One thread sends transactions at a fixed rate, timed from when each
//! was due. Between sends it measures the visibility delay (VD) of every
//! commit it made: it parks on the RO's applied-LSN condvar for the
//! oldest pending commit until the next send is due, so VD needs no
//! extra thread. In traced sub-windows it also polls the RO's reader
//! progress, splitting VD into log read and apply.

use crate::harness::{Clock, Sample};
use htapbench::openloop::{drive, Load, OpenLoop, Sent, SubWindow};
use htapbench::trace::{Span, Tracer};
use imci_cluster::{Cluster, RoNode};
use imci_common::Result;
use rowstore::RowEngine;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long the generator waits, after the window, for its last commits
/// to become visible; a commit still invisible then counts as failed.
const DRAIN: Duration = Duration::from_secs(10);

/// What the generator measured.
#[derive(Default)]
pub struct GenOut {
    /// Due time to commit return, per measured transaction.
    pub commit: Vec<Sample>,
    /// Commit return to visible on the RO, per measured transaction.
    pub vd: Vec<Sample>,
    /// Commit return to the RO's reader passing the commit (traced).
    pub read_ms: Vec<f64>,
    /// Reader passing the commit to applied (traced).
    pub apply_ms: Vec<f64>,
    /// Lateness of every measured send.
    pub late_ms: Vec<f64>,
    /// Backlog and schedule state at the end of each sub-window.
    pub subs: Vec<SubWindow>,
    /// Transactions sent in the window.
    pub attempted: u64,
    /// Transactions that failed, or whose commit never became visible.
    pub failed: u64,
    /// Transactions committed in the window.
    pub committed: u64,
    /// First few error messages.
    pub errors: Vec<String>,
    /// Spans of traced transactions.
    pub spans: Vec<Span>,
}

struct Pending {
    lsn: u64,
    committed_at: Instant,
    /// Trace flag and sub-window of the transaction, for its VD sample.
    sample: Sample,
    measured: bool,
    read_at: Option<Instant>,
}

/// The generator's state while it runs.
struct Gen<'a, F> {
    cluster: &'a Cluster,
    ro: &'a RoNode,
    clock: Clock,
    tracer: Tracer,
    pending: VecDeque<Pending>,
    out: GenOut,
    txn: F,
}

impl<F: FnMut(&RowEngine, &mut Tracer, u64) -> Result<()>> Load for Gen<'_, F> {
    fn idle(&mut self, due: Instant) {
        observe(self.ro, &mut self.pending, due, false, &mut self.out);
    }

    fn lag_lsn(&self) -> u64 {
        self.cluster
            .written_lsn()
            .saturating_sub(self.ro.applied_lsn())
    }

    fn issue(&mut self, sent: Sent, seq: u64) {
        let (clock, out) = (self.clock, &mut self.out);
        let due = sent.due;
        let measured = clock.measured(due);
        if measured {
            out.late_ms.push(sent.late_ms);
            out.attempted += 1;
        }
        self.tracer.set_enabled(clock.traced_at(due));
        let txn = &mut self.txn;
        let result = self
            .cluster
            .rw()
            .and_then(|rw| self.tracer.span("txn", |t| txn(&rw, t, seq)));
        match result {
            Ok(()) => {
                let done = Instant::now();
                if measured {
                    out.committed += 1;
                    out.commit.push(
                        clock.sample(due, done.saturating_duration_since(due).as_secs_f64() * 1e3),
                    );
                }
                self.pending.push_back(Pending {
                    lsn: self.cluster.written_lsn(),
                    committed_at: done,
                    sample: clock.sample(due, 0.0),
                    measured,
                    read_at: None,
                });
            }
            Err(e) => {
                if measured {
                    out.failed += 1;
                }
                if out.errors.len() < 5 {
                    out.errors.push(format!("transaction {seq}: {e}"));
                }
            }
        }
    }
}

/// Run `txn` at `rate` per second from `clock.warm` until `clock.end`,
/// and past it while `hold` is set; `txn` gets the writer, a tracer and
/// the transaction's sequence number.
pub fn generate(
    cluster: &Cluster,
    ro: &RoNode,
    clock: Clock,
    rate: f64,
    hold: &AtomicBool,
    thread: u64,
    txn: impl FnMut(&RowEngine, &mut Tracer, u64) -> Result<()>,
) -> GenOut {
    let mut gen = Gen {
        cluster,
        ro,
        clock,
        tracer: Tracer::new(clock.warm, thread),
        pending: VecDeque::new(),
        out: GenOut::default(),
        txn,
    };
    let mut sched = OpenLoop::new(clock.warm, rate);
    let sub_ends: Vec<Instant> = (0..clock.subs()).map(|i| clock.sub_end(i)).collect();
    let subs = drive(&mut gen, &mut sched, &sub_ends, || {
        hold.load(Ordering::Relaxed)
    });
    let Gen {
        mut pending,
        mut out,
        tracer,
        ..
    } = gen;
    out.subs = subs;
    let drain_until = Instant::now() + DRAIN;
    observe(ro, &mut pending, drain_until, true, &mut out);
    for p in pending {
        if p.measured {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors
                    .push(format!("commit at LSN {} not visible after drain", p.lsn));
            }
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// Until `until` (or, when `drain`, until none is pending), wait for
/// pending commits to become visible on `ro` and record their visibility
/// delay.
fn observe(
    ro: &RoNode,
    pending: &mut VecDeque<Pending>,
    until: Instant,
    drain: bool,
    out: &mut GenOut,
) {
    loop {
        let now = Instant::now();
        if now >= until {
            return;
        }
        let Some(front) = pending.front_mut() else {
            if drain {
                return;
            }
            // Nothing pending: park on the replica's applied-LSN condvar
            // until the next send is due.
            ro.pipeline.wait_applied(ro.applied_lsn() + 1, until - now);
            continue;
        };
        if front.sample.traced && front.read_at.is_none() {
            // Traced only: poll the reader so VD splits into read and
            // apply. Polling costs a core, which is part of the
            // tracing overhead this run reports.
            if ro.pipeline.metrics().read_lsn() >= front.lsn {
                front.read_at = Some(now);
            } else {
                std::thread::yield_now();
                continue;
            }
        }
        if !ro.pipeline.wait_applied(front.lsn, until - now) {
            continue;
        }
        let seen = Instant::now();
        let applied = ro.applied_lsn();
        while pending.front().is_some_and(|p| p.lsn <= applied) {
            let p = pending.pop_front().expect("front exists");
            if !p.measured {
                continue;
            }
            out.vd.push(Sample {
                ms: seen.saturating_duration_since(p.committed_at).as_secs_f64() * 1e3,
                ..p.sample
            });
            if let Some(read_at) = p.read_at {
                out.read_ms.push(
                    read_at
                        .saturating_duration_since(p.committed_at)
                        .as_secs_f64()
                        * 1e3,
                );
                out.apply_ms
                    .push(seen.saturating_duration_since(read_at).as_secs_f64() * 1e3);
            }
        }
    }
}

//! `scale_out`: TPC-H at a small scale plus a writer at a fixed rate,
//! and back-to-back elasticity cycles: `checkpoint_now` → `scale_out` →
//! first query answered on the new node → `scale_in`.
//!
//! Elasticity is a paper goal, and checkpointing, checkpoint objects on
//! shared storage and catch-up replay run nowhere else. A cycle counts as
//! failed when the new node's applied LSN is below the RW's written LSN
//! at the call when `scale_out` returns, or its first answer is wrong.

use crate::harness::{self, Args, Clock, Headline, Io, Layers, Repl, RunResult, Sample};
use crate::loadgen;
use htapbench::stats;
use htapbench::trace::{Span, Tracer};
use imci_cluster::{Cluster, ClusterConfig};
use imci_common::{Error, Result, Value};
use imci_sql::{EngineChoice, QueryOptions};
use imci_workloads::tpch;
use polarfs_sim::LatencyProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TPC-H scale factor of the static data.
pub const SF: f64 = 0.005;
/// Writer transactions per second, open loop.
pub const WRITE_RATE: f64 = 500.0;
/// The first query on a new node: TPC-H Q1 over static data, so its
/// answer is known in advance.
const PROBE: usize = 0;
const WARMUP: Duration = Duration::from_secs(1);
/// Backlog growth tolerated before a run is invalid: ~0.25 s of log.
const LAG_SLACK_LSN: u64 = 400;

/// Measured cycles per run: about two per second of the window on the
/// two-core reference host.
pub fn cycles_per_run(seconds: u64) -> u64 {
    2 * seconds
}

struct System {
    cluster: Arc<Cluster>,
    expected: Vec<Vec<Value>>,
}

fn build(seed: u64) -> Result<System> {
    let cluster = Cluster::start(ClusterConfig {
        latency: LatencyProfile::polarfs_like(),
        ..ClusterConfig::default()
    });
    tpch::load(&cluster, SF, seed)?;
    cluster.execute(
        "CREATE TABLE wlog (id INT NOT NULL, v INT, note VARCHAR(32), PRIMARY KEY(id), \
         KEY COLUMN_INDEX(id, v, note))",
    )?;
    if !cluster.wait_sync(Duration::from_secs(60)) {
        return Err(Error::Execution("RO did not catch up with the load".into()));
    }
    let ro = cluster.ros.read()[0].clone();
    let probe = &tpch::queries()[PROBE].1;
    let expected = ro
        .query
        .run(probe, &QueryOptions::forced(Some(EngineChoice::Row)))?
        .rows;
    Ok(System { cluster, expected })
}

/// One elasticity cycle's timings (ms) and outcome.
struct Cycle {
    /// Why the new node was not caught up when `scale_out` returned.
    stale: Option<String>,
    /// The new node's first answer was wrong.
    wrong: bool,
    traced: bool,
    /// The whole cycle, checkpoint to scale-in.
    cycle_ms: f64,
    scaleout_ms: f64,
    checkpoint_ms: f64,
    load_ms: f64,
    catchup_ms: f64,
    first_query_ms: f64,
    replay_txn_per_s: f64,
}

fn cycle(cluster: &Cluster, expected: &[Vec<Value>], t: &mut Tracer) -> Result<Cycle> {
    let probe = &tpch::queries()[PROBE].1;
    let t0 = Instant::now();
    t.span("cluster.checkpoint", |_| cluster.checkpoint_now())?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let target = cluster.written_lsn();
    let t1 = Instant::now();
    let report = t.span("cluster.scale_out", |_| cluster.scale_out())?;
    let node = cluster
        .ros
        .read()
        .iter()
        .find(|n| n.name == report.name)
        .cloned()
        .ok_or_else(|| Error::Execution(format!("{} is not in the routing set", report.name)))?;
    let applied = node.applied_lsn();
    let replayed = node
        .pipeline
        .metrics()
        .txns_committed
        .load(std::sync::atomic::Ordering::Relaxed);
    let t2 = Instant::now();
    let answer = t.span("cluster.first_query", |_| {
        node.query.run(probe, &QueryOptions::default())
    });
    let first_query_ms = t2.elapsed().as_secs_f64() * 1e3;
    let scaleout_ms = t1.elapsed().as_secs_f64() * 1e3;
    let removed = t.span("cluster.scale_in", |_| cluster.scale_in());
    if removed.as_deref() != Some(report.name.as_str()) {
        return Err(Error::Execution(format!(
            "scale_in removed {removed:?}, not {}",
            report.name
        )));
    }
    let stale = (applied < target).then(|| {
        format!(
            "{} returned at applied LSN {applied}, below the written LSN {target}",
            report.name
        )
    });
    let wrong = !harness::same_rows(&answer?.rows, expected);
    let catchup_s = report.catchup_time.as_secs_f64();
    Ok(Cycle {
        stale,
        wrong,
        traced: t.enabled(),
        cycle_ms: t0.elapsed().as_secs_f64() * 1e3,
        scaleout_ms,
        checkpoint_ms,
        load_ms: report.load_time.as_secs_f64() * 1e3,
        catchup_ms: catchup_s * 1e3,
        first_query_ms,
        replay_txn_per_s: if catchup_s > 0.0 {
            replayed as f64 / catchup_s
        } else {
            0.0
        },
    })
}

pub fn run(args: &Args) -> Result<RunResult> {
    harness::run_with_setups(
        || build(args.seed),
        |s| s.cluster.shutdown(),
        |s| measure(args, s),
    )
}

fn measure(args: &Args, system: System) -> Result<RunResult> {
    let System { cluster, expected } = system;
    let ro = cluster.ros.read()[0].clone();
    let repl0 = Repl::read(&ro);
    let io0 = Io::read(&cluster);
    let clock = Clock::new(WARMUP, args.seconds, args.trace);
    // The writer keeps going past the window until the cycles are done:
    // a new node catches up by applying commits made after its
    // checkpoint.
    let writer_hold = std::sync::atomic::AtomicBool::new(true);
    let (cycles, gen) = std::thread::scope(|s| {
        let gen = s.spawn(|| {
            let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5752_4954);
            loadgen::generate(
                &cluster,
                &ro,
                clock,
                WRITE_RATE,
                &writer_hold,
                1,
                |rw, t, seq| {
                    let row = vec![
                        (seq as i64).into(),
                        rng.gen_range(0..1_000_000i64).into(),
                        format!("w{:x}", rng.gen::<u64>()).into(),
                    ];
                    let mut txn = rw.begin();
                    if let Err(e) = t.span("rowstore.txn", |_| rw.insert(&mut txn, "wlog", row)) {
                        rw.abort(txn)?;
                        return Err(e);
                    }
                    t.span("rowstore.commit", |_| rw.commit(txn)).map(|_| ())
                },
            )
        });
        let mut tracer = Tracer::new(clock.warm, 2);
        // One warm-up cycle, then a fixed number, so every run measures
        // the same cycles: each checkpoint stays on shared storage, and
        // later cycles load from a fuller volume than earlier ones.
        let mut cycles: Vec<Result<Cycle>> = Vec::new();
        for i in 0..=cycles_per_run(args.seconds) {
            tracer.set_enabled(args.trace && i % 2 == 0 && i > 0);
            let c = tracer.span("scale.cycle", |t| cycle(&cluster, &expected, t));
            if i > 0 {
                cycles.push(c);
            }
        }
        writer_hold.store(false, std::sync::atomic::Ordering::Relaxed);
        ((cycles, tracer.into_spans()), gen.join())
    });
    let gen = gen.map_err(|_| Error::Execution("writer panicked".into()))?;
    let rss_mib = harness::rss_mib();
    let (cycles, cycle_spans): (Vec<Result<Cycle>>, Vec<Span>) = cycles;
    let io = Io::read(&cluster).since(&io0);
    let mut notes: Vec<String> = gen.errors.clone();
    let mut problems = Vec::new();
    harness::check_backlog(&gen, LAG_SLACK_LSN, &mut problems);
    let mut ok = Vec::new();
    let mut failed_cycles = 0u64;
    for c in cycles {
        match c {
            Ok(Cycle {
                stale: Some(why), ..
            }) => {
                failed_cycles += 1;
                notes.push(format!("cycle failed: {why}"));
            }
            Ok(c) if c.wrong => {
                failed_cycles += 1;
                problems.push("a new node answered its first query wrongly".into());
            }
            Ok(c) => ok.push(c),
            Err(e) => {
                failed_cycles += 1;
                notes.push(format!("cycle failed: {e}"));
            }
        }
    }
    if ok.is_empty() {
        problems.push("no elasticity cycle completed in the window".into());
    }
    let samples: Vec<Sample> = ok
        .iter()
        .map(|c| Sample {
            ms: c.scaleout_ms,
            traced: c.traced,
        })
        .collect();
    let latency = Headline::median(&samples);
    // Cycles per second of cycle time, per half: not quantized by how
    // many cycles fit in the window.
    let rate = |traced: bool| {
        let ms: Vec<f64> = ok
            .iter()
            .filter(|c| c.traced == traced)
            .map(|c| c.cycle_ms)
            .collect();
        (!ms.is_empty()).then(|| ms.len() as f64 * 1e3 / ms.iter().sum::<f64>())
    };
    let throughput = Headline::of(rate(false), rate(true));

    let mut layers = Layers::new();
    let med =
        |f: fn(&Cycle) -> f64| stats::median(&ok.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    layers.set("scaleout_p50_ms", latency.plain);
    layers.set("cluster.checkpoint_ms", med(|c| c.checkpoint_ms));
    layers.set("cluster.scaleout_load_ms", med(|c| c.load_ms));
    layers.set("cluster.scaleout_catchup_ms", med(|c| c.catchup_ms));
    layers.set("cluster.first_query_ms", med(|c| c.first_query_ms));
    layers.set("replication.replay_txn_per_s", med(|c| c.replay_txn_per_s));
    harness::set_loadgen_layers(&mut layers, &gen, &io);
    let lag_end = gen.subs.last().map_or(0, |w| w.lag_lsn);
    harness::set_replication_layers(&mut layers, &ro, repl0, lag_end);
    layers.set("polarfs.page_reads", io.page_reads as f64);
    layers.set("polarfs.object_puts", io.object_puts as f64);
    harness::set_core_layers(&mut layers, &ro.store);
    let attempted = gen.attempted + ok.len() as u64 + failed_cycles;
    let failed = gen.failed + failed_cycles;
    let mut spans = cycle_spans;
    spans.extend(gen.spans);
    cluster.shutdown();
    Ok(RunResult {
        setup_s: Vec::new(),
        rss_mib,
        latency,
        throughput,
        layers,
        attempted,
        failed,
        problems,
        notes,
        spans,
    })
}

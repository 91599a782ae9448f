//! `htap_chbench`: CH-benCHmark with 2 warehouses on storage with
//! PolarFS-like latency (an fsync on every commit). One thread sends
//! NewOrder and Payment 1:1 open-loop at a fixed rate and measures the
//! visibility delay of every commit; one client runs the CH analytical
//! queries on the RO plus an aggregate over the newest orders, whose
//! insert-ordered keys let pack pruning fire.
//!
//! This covers the paper's perturbation and freshness claims: the row
//! store, log, shared storage, replication and column-store apply carry
//! the work while the executor reads a column store being written beside
//! it.

use crate::harness::{self, Args, Clock, Headline, Io, Layers, Repl, RunResult, Sample};
use crate::{loadgen, olap};
use htapbench::trace::Tracer;
use imci_cluster::{Cluster, ClusterConfig};
use imci_common::{Error, Result, Value};
use imci_workloads::chbench;
use polarfs_sim::LatencyProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rowstore::RowEngine;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Warehouses (the CH-benCH scale).
pub const WAREHOUSES: i64 = 2;
/// Items in the catalog.
pub const ITEMS: i64 = 1000;
/// Customers per district.
pub const CUSTOMERS_PER_DISTRICT: i64 = 30;
/// Orders placed during set-up, so the analytical side starts with data.
pub const PRELOAD_ORDERS: i64 = 2000;
/// NewOrder + Payment transactions per second, open loop.
pub const RATE: f64 = 1000.0;
/// Orders counted by the recency aggregate.
pub const RECENT_ORDERS: i64 = 100;
const WARMUP: Duration = Duration::from_secs(1);
/// Backlog growth tolerated before a run is invalid: ~0.25 s of log.
const LAG_SLACK_LSN: u64 = 4000;

fn config() -> ClusterConfig {
    ClusterConfig {
        latency: LatencyProfile::polarfs_like(),
        ..ClusterConfig::default()
    }
}

fn build(seed: u64) -> Result<(Arc<Cluster>, i64)> {
    let cluster = Cluster::start(config());
    for ddl in chbench::ddl() {
        cluster.execute(ddl)?;
    }
    let rw = cluster.rw()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut txn = rw.begin();
    let mut rows: Vec<(&str, Vec<Value>)> = Vec::new();
    for w in 0..WAREHOUSES {
        rows.push((
            "warehouse",
            vec![w.into(), format!("wh{w}").into(), 0.1.into(), 0.0.into()],
        ));
        for d in 0..10 {
            let d_id = w * 10 + d;
            rows.push((
                "district",
                vec![d_id.into(), w.into(), 0.05.into(), 0.0.into(), 0.into()],
            ));
            for c in 0..CUSTOMERS_PER_DISTRICT {
                rows.push((
                    "chcustomer",
                    vec![
                        (d_id * 1000 + c).into(),
                        d_id.into(),
                        w.into(),
                        Value::Double(if rng.gen_range(0..9) == 0 {
                            -10.0
                        } else {
                            100.0
                        }),
                        10.0.into(),
                        1.into(),
                        format!("LAST{}", c % 10).into(),
                    ],
                ));
            }
        }
        for i in 0..ITEMS {
            rows.push((
                "chstock",
                vec![
                    (w * ITEMS + i).into(),
                    i.into(),
                    w.into(),
                    100.into(),
                    0.into(),
                ],
            ));
        }
    }
    for i in 0..ITEMS {
        rows.push((
            "chitem",
            vec![
                i.into(),
                format!("item{i}").into(),
                rng.gen_range(1.0..100.0).into(),
            ],
        ));
    }
    for (table, row) in rows {
        rw.insert(&mut txn, table, row)?;
    }
    rw.commit(txn)?;
    let mut off = Tracer::new(std::time::Instant::now(), 0);
    for o in 0..PRELOAD_ORDERS {
        new_order(&rw, &mut off, &mut rng, o)?;
    }
    if !cluster.wait_sync(Duration::from_secs(60)) {
        return Err(Error::Execution(
            "RO did not catch up with the CH-benCH load".into(),
        ));
    }
    Ok((cluster, PRELOAD_ORDERS))
}

/// Run `ops` in one transaction, aborting it on the first error.
fn in_txn(
    rw: &RowEngine,
    t: &mut Tracer,
    ops: impl FnOnce(&mut rowstore::Txn, &mut Tracer) -> Result<()>,
) -> Result<()> {
    let mut txn = rw.begin();
    if let Err(e) = ops(&mut txn, t) {
        rw.abort(txn)?;
        return Err(e);
    }
    t.span("rowstore.commit", |_| rw.commit(txn)).map(|_| ())
}

/// NewOrder: an order with 5 to 15 lines, each decrementing a stock row.
fn new_order(rw: &RowEngine, t: &mut Tracer, rng: &mut StdRng, o_id: i64) -> Result<()> {
    let w = rng.gen_range(0..WAREHOUSES);
    let d = w * 10 + rng.gen_range(0..10);
    let c = d * 1000 + rng.gen_range(0..CUSTOMERS_PER_DISTRICT);
    let n_lines = rng.gen_range(5..=15i64);
    let lines: Vec<(i64, i64, f64)> = (0..n_lines)
        .map(|_| {
            (
                rng.gen_range(0..ITEMS),
                rng.gen_range(1..=10),
                rng.gen_range(1.0..300.0),
            )
        })
        .collect();
    in_txn(rw, t, |txn, t| {
        let order = vec![
            o_id.into(),
            d.into(),
            w.into(),
            c.into(),
            Value::Date(10_000 + o_id % 365),
            n_lines.into(),
        ];
        t.span("rowstore.txn", |_| rw.insert(txn, "chorder", order))?;
        for (l, &(i, qty, amount)) in lines.iter().enumerate() {
            let line = vec![
                (o_id * 16 + l as i64).into(),
                o_id.into(),
                d.into(),
                w.into(),
                i.into(),
                qty.into(),
                amount.into(),
            ];
            t.span("rowstore.txn", |_| rw.insert(txn, "order_line", line))?;
            let s_id = w * ITEMS + i;
            let stock = t.span("rowstore.txn", |_| rw.get_row("chstock", s_id))?;
            let mut row = stock.ok_or_else(|| Error::Execution(format!("stock {s_id} missing")))?;
            let q = row.values[3].as_int().unwrap_or(100);
            row.values[3] = Value::Int(if q <= 10 { 100 } else { q - 1 });
            row.values[4] = Value::Int(row.values[4].as_int().unwrap_or(0) + 1);
            t.span("rowstore.txn", |_| {
                rw.update(txn, "chstock", s_id, row.values)
            })?;
        }
        Ok(())
    })
}

/// Payment: move an amount from a customer's balance to the district.
fn payment(rw: &RowEngine, t: &mut Tracer, rng: &mut StdRng) -> Result<()> {
    let w = rng.gen_range(0..WAREHOUSES);
    let d = w * 10 + rng.gen_range(0..10);
    let c = d * 1000 + rng.gen_range(0..CUSTOMERS_PER_DISTRICT);
    let amount = rng.gen_range(1.0..5000.0);
    in_txn(rw, t, |txn, t| {
        let customer = t.span("rowstore.txn", |_| rw.get_row("chcustomer", c))?;
        let mut row = customer.ok_or_else(|| Error::Execution(format!("customer {c} missing")))?;
        row.values[3] = Value::Double(row.values[3].as_f64().unwrap_or(0.0) - amount);
        row.values[4] = Value::Double(row.values[4].as_f64().unwrap_or(0.0) + amount);
        row.values[5] = Value::Int(row.values[5].as_int().unwrap_or(0) + 1);
        t.span("rowstore.txn", |_| {
            rw.update(txn, "chcustomer", c, row.values)
        })?;
        let district = t.span("rowstore.txn", |_| rw.get_row("district", d))?;
        let mut row = district.ok_or_else(|| Error::Execution(format!("district {d} missing")))?;
        row.values[3] = Value::Double(row.values[3].as_f64().unwrap_or(0.0) + amount);
        t.span("rowstore.txn", |_| {
            rw.update(txn, "district", d, row.values)
        })
    })
}

/// `COUNT(*)` and `SUM(ol_amount)` of `order_line` as the RW's row store
/// holds it.
fn rw_order_line_totals(rw: &RowEngine) -> Result<(i64, f64)> {
    let (mut n, mut sum) = (0i64, 0.0);
    rw.scan("order_line", i64::MIN, i64::MAX, |_, row| {
        n += 1;
        sum += row.values[6].as_f64().unwrap_or(0.0);
    })?;
    Ok((n, sum))
}

pub fn run(args: &Args) -> Result<RunResult> {
    harness::run_with_setups(
        || build(args.seed),
        |(c, _)| c.shutdown(),
        |system| measure(args, system),
    )
}

fn measure(args: &Args, (cluster, preloaded): (Arc<Cluster>, i64)) -> Result<RunResult> {
    let ro = cluster.ros.read()[0].clone();
    let mut queries = chbench::analytical_queries();
    let recency = queries.len();
    queries.push(("CH-recent", String::new()));
    let newest = AtomicI64::new(preloaded - 1);
    let io0 = Io::read(&cluster);
    let repl0 = Repl::read(&ro);
    let clock = Clock::new(WARMUP, args.seconds, args.trace);
    let (olap, gen) = std::thread::scope(|s| {
        let gen = s.spawn(|| {
            let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4e4f_5041);
            loadgen::generate(
                &cluster,
                &ro,
                clock,
                RATE,
                &AtomicBool::new(false),
                1,
                |rw, t, seq| {
                    if seq % 2 == 1 {
                        return payment(rw, t, &mut rng);
                    }
                    let o_id = preloaded + (seq / 2) as i64;
                    new_order(rw, t, &mut rng, o_id)?;
                    newest.store(o_id, Ordering::Relaxed);
                    Ok(())
                },
            )
        });
        let mut next = harness::shuffled_cycle(
            queries.len(),
            StdRng::seed_from_u64(args.seed ^ 0x4348_4150),
        );
        let olap = olap::run_client(&cluster, clock, 2, || {
            let qi = next();
            let sql = if qi == recency {
                let from = newest.load(Ordering::Relaxed) - RECENT_ORDERS + 1;
                format!("SELECT COUNT(*), SUM(ol_amount) FROM order_line WHERE ol_o_id >= {from}")
            } else {
                queries[qi].1.clone()
            };
            (qi, sql)
        });
        (olap, gen.join())
    });
    let gen = gen.map_err(|_| Error::Execution("transaction generator panicked".into()))?;
    let rss_mib = harness::rss_mib();
    let io = Io::read(&cluster).since(&io0);
    let lag_end = gen.subs.last().map_or(0, |w| w.lag_lsn);
    let notes: Vec<String> = olap.errors.iter().chain(&gen.errors).cloned().collect();
    let mut problems = Vec::new();
    harness::check_backlog(&gen, LAG_SLACK_LSN, &mut problems);

    // Output check after the window drained: the RO's order_line totals
    // equal the RW's.
    let mut wrong = 0u64;
    if !cluster.wait_sync(Duration::from_secs(30)) {
        problems.push("RO did not catch up after the window".into());
    }
    let rw_totals = cluster.rw().and_then(|rw| rw_order_line_totals(&rw));
    let ro_totals = cluster.execute("SELECT COUNT(*), SUM(ol_amount) FROM order_line");
    match (rw_totals, ro_totals) {
        (Ok((n, sum)), Ok(r)) if harness::same_rows(&r.rows, &[vec![n.into(), sum.into()]]) => {}
        (rw, ro) => {
            wrong += 1;
            problems.push(format!(
                "order_line totals differ: RW {rw:?}, RO {:?}",
                ro.map(|r| r.rows)
            ));
        }
    }

    let mut layers = Layers::new();
    let all: Vec<Sample> = olap.samples.iter().map(|(_, s)| *s).collect();
    let throughput = Headline::rate(&all, &clock);
    let latency = Headline::median(&gen.commit);
    let olap_latency = harness::geomean_of_medians(&olap.samples, queries.len());
    layers.set("olap_geomean_ms", olap_latency.plain);
    layers.set("olap_qps", throughput.plain);
    olap::set_layers(&mut layers, &olap);
    harness::set_core_layers(&mut layers, &ro.store);
    harness::set_loadgen_layers(&mut layers, &gen, &io);
    harness::set_replication_layers(&mut layers, &ro, repl0, lag_end);
    layers.set("polarfs.page_reads", io.page_reads as f64);
    layers.set("polarfs.object_puts", io.object_puts as f64);
    let recent = olap.samples.iter().filter(|(qi, _)| *qi == recency).count();
    eprintln!(
        "inputs: htap_chbench rate={RATE}/s olap_queries={} recent_data_share={:.3}",
        olap.samples.len(),
        recent as f64 / olap.samples.len().max(1) as f64
    );
    let attempted = olap.attempted + gen.attempted + 1;
    let failed = olap.failed + gen.failed + wrong;
    let mut spans = olap.spans;
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

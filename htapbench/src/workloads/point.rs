//! `server_point`: `imci_server` over TCP (protocol v2), one closed-loop
//! connection per core. Zipf-keyed point SELECTs at eventual consistency
//! plus ~10% `UPDATE ... WHERE id = k`. The table has several times more
//! pages than the RW buffer pool, so the write path misses and reads
//! pages from shared storage.
//!
//! The service tier, proxy routing, the SQL point fast path and the row
//! store do the work; the column executor does none.

use crate::harness::{self, Args, Clock, Headline, Io, Layers, Repl, RunResult, Sample, US};
use htapbench::stats;
use htapbench::trace::{Span, Tracer};
use imci_cluster::{Cluster, ClusterConfig, Consistency, ExecOpts};
use imci_common::{Error, Result, Value};
use imci_server::{Client, Server, ServerConfig};
use imci_sql::{EngineChoice, QueryOptions};
use imci_workloads::Zipf;
use polarfs_sim::LatencyProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows in the table.
pub const ROWS: i64 = 100_000;
/// RW buffer-pool capacity in pages, well below the table's pages.
pub const BP_CAPACITY: usize = 256;
/// Client connections, one per core of the two-core reference host.
pub const CONNECTIONS: u64 = 2;
/// Share of statements that are updates.
pub const UPDATE_SHARE: f64 = 0.1;
/// Zipf skew of the key choice.
pub const ZIPF_THETA: f64 = 0.9;
const WARMUP: Duration = Duration::from_secs(1);
/// Scatters Zipf ranks over the key space (a prime, so the map is a
/// bijection on `0..ROWS`): hot keys land on many pages.
const SCATTER: u64 = 2_654_435_761;

fn key_of(rank: u64) -> i64 {
    ((rank - 1) * SCATTER % ROWS as u64) as i64
}

/// The `pad` column of row `k`.
fn pad(k: i64, salt: u64) -> String {
    format!("{salt:016x}-{k:08}-{}", "p".repeat(80))
}

struct System {
    cluster: Arc<Cluster>,
    server: Server,
}

fn build(seed: u64) -> Result<System> {
    let cluster = Cluster::start(ClusterConfig {
        bp_capacity: BP_CAPACITY,
        latency: LatencyProfile::polarfs_like(),
        ..ClusterConfig::default()
    });
    cluster
        .execute("CREATE TABLE kv (id INT NOT NULL, c INT, pad VARCHAR(120), PRIMARY KEY(id))")?;
    let rw = cluster.rw()?;
    let mut k = 0;
    while k < ROWS {
        let mut txn = rw.begin();
        for id in k..(k + 5000).min(ROWS) {
            rw.insert(
                &mut txn,
                "kv",
                vec![id.into(), (id * 1000).into(), pad(id, seed).into()],
            )?;
        }
        rw.commit(txn)?;
        k += 5000;
    }
    if !cluster.wait_sync(Duration::from_secs(60)) {
        return Err(Error::Execution("RO did not catch up with the load".into()));
    }
    // One reactor and one statement worker per connection. With the
    // default sizing (16 workers, a reactor per core) the service tier's
    // threads outnumber the two cores, and statements per second spread
    // 0.148 over five seeds against 0.083 sized like this (README).
    let server = Server::start(
        cluster.clone(),
        ServerConfig {
            workers: CONNECTIONS as usize,
            reactors: 1,
            ..ServerConfig::default()
        },
    )?;
    Ok(System { cluster, server })
}

fn teardown(system: System) {
    system.server.shutdown();
    system.cluster.shutdown();
}

#[derive(Default)]
struct ClientOut {
    stmts: Vec<Sample>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    updates: u64,
    column_results: u64,
    results: u64,
    /// Time traced reads spent in their in-process replays, in s.
    replay_s: f64,
    errors: Vec<String>,
    spans: Vec<Span>,
}

/// Whether a point read returned exactly the row key `k` implies: its
/// id and pad, and a `c` whose thousands encode `k` (updates rewrite
/// only the last three digits).
fn row_is_right(rows: &[Vec<Value>], k: i64, salt: u64) -> bool {
    matches!(rows, [row] if row.len() == 3
        && row[0] == Value::Int(k)
        && row[1].as_int().is_some_and(|c| c / 1000 == k)
        && row[2] == Value::Str(pad(k, salt)))
}

fn client(
    addr: SocketAddr,
    cluster: &Cluster,
    clock: Clock,
    thread: u64,
    seed: u64,
) -> Result<ClientOut> {
    let mut out = ClientOut::default();
    let mut conn = Client::connect(addr)?;
    conn.set_consistency(Consistency::Eventual)?;
    let mut rng = StdRng::seed_from_u64(seed ^ (thread << 32) ^ 0x504f_494e);
    let zipf = Zipf::new(ROWS as u64, ZIPF_THETA);
    let eventual = ExecOpts {
        consistency: Some(Consistency::Eventual),
        ..ExecOpts::default()
    };
    let mut tracer = Tracer::new(clock.warm, thread);
    loop {
        let t0 = Instant::now();
        if t0 >= clock.end {
            break;
        }
        let k = key_of(zipf.sample(rng.gen::<f64>()));
        let update = rng.gen_bool(UPDATE_SHARE);
        let sql = if update {
            format!(
                "UPDATE kv SET c = {} WHERE id = {k}",
                k * 1000 + rng.gen_range(0..1000)
            )
        } else {
            format!("SELECT id, c, pad FROM kv WHERE id = {k}")
        };
        let measured = clock.measured(t0);
        let traced = clock.traced_at(t0);
        tracer.set_enabled(traced);
        let (result, ms) = tracer.span("point.stmt", |t| {
            let start = Instant::now();
            let result = t.span("server.roundtrip", |_| conn.execute(&sql));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if t.enabled() && !update {
                // The same read in process, whole and as its two calls,
                // so the service tier's share can be told apart.
                let replay = Instant::now();
                let _ = t.span("cluster.execute", |_| cluster.execute_opts(&sql, eventual));
                if let Ok(node) = t.span("cluster.route", |_| {
                    cluster.route_ro_with(Consistency::Eventual)
                }) {
                    let _ = t.span("sql.point", |_| {
                        node.query.run(&sql, &QueryOptions::default())
                    });
                }
                out.replay_s += replay.elapsed().as_secs_f64();
            }
            (result, ms)
        });
        if !measured {
            continue;
        }
        out.attempted += 1;
        match result {
            Ok(r) if update => {
                out.updates += 1;
                out.stmts.push(clock.sample(t0, ms));
                if r.affected != 1 {
                    out.wrong += 1;
                    if out.errors.len() < 5 {
                        out.errors
                            .push(format!("update of {k} affected {} rows", r.affected));
                    }
                }
            }
            Ok(r) => {
                out.stmts.push(clock.sample(t0, ms));
                out.results += 1;
                out.column_results += u64::from(r.engine == EngineChoice::Column);
                if !row_is_right(&r.rows, k, seed) {
                    out.wrong += 1;
                    if out.errors.len() < 5 {
                        out.errors
                            .push(format!("read of {k} returned {:?}", r.rows));
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 5 {
                    out.errors.push(format!("statement on key {k}: {e}"));
                }
            }
        }
    }
    out.spans = tracer.into_spans();
    Ok(out)
}

pub fn run(args: &Args) -> Result<RunResult> {
    harness::run_with_setups(|| build(args.seed), teardown, |s| measure(args, s))
}

fn measure(args: &Args, system: System) -> Result<RunResult> {
    let System { cluster, server } = system;
    let ro = cluster.ros.read()[0].clone();
    let rw = cluster.rw()?;
    let table_pages = rw.table("kv")?.tree.all_pages()?.len();
    let bp = rw.buffer_pool().clone();
    let stats = server.stats_handle();
    let addr = server.local_addr();
    let io0 = Io::read(&cluster);
    let (hits0, misses0) = (bp.hits(), bp.misses());
    let busy0 = stats.busy_rejected_conns.load(Ordering::Relaxed)
        + stats.busy_rejected_stmts.load(Ordering::Relaxed);
    let errors0 = stats.errors.load(Ordering::Relaxed);
    let repl0 = Repl::read(&ro);
    let clock = Clock::new(WARMUP, args.seconds, args.trace);
    let outs: Vec<Result<ClientOut>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|i| {
                let cluster = &cluster;
                s.spawn(move || client(addr, cluster, clock, i + 1, args.seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Error::Execution("client panicked".into())))
            })
            .collect()
    });
    let rss_mib = harness::rss_mib();
    let lag_end = cluster.written_lsn().saturating_sub(ro.applied_lsn());
    let io = Io::read(&cluster).since(&io0);
    let (hits, misses) = (bp.hits() - hits0, bp.misses() - misses0);
    let busy = stats.busy_rejected_conns.load(Ordering::Relaxed)
        + stats.busy_rejected_stmts.load(Ordering::Relaxed)
        - busy0;
    let server_errors = stats.errors.load(Ordering::Relaxed) - errors0;

    let mut all = ClientOut::default();
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    for out in outs {
        match out {
            Ok(o) => {
                all.stmts.extend(o.stmts);
                all.attempted += o.attempted;
                all.failed += o.failed;
                all.wrong += o.wrong;
                all.updates += o.updates;
                all.results += o.results;
                all.column_results += o.column_results;
                all.replay_s += o.replay_s;
                notes.extend(o.errors);
                all.spans.extend(o.spans);
            }
            Err(e) => problems.push(format!("client failed: {e}")),
        }
    }

    let mut layers = Layers::new();
    let latency = Headline::median(&all.stmts);
    let mut throughput = Headline::rate(&all.stmts, &clock);
    // Traced statements share their connections' time with the in-process
    // replays; their rate counts only the time left to them, so the
    // tracing overhead does not include the replays.
    let (_, traced_s) = clock.split_seconds();
    let statement_s = traced_s - all.replay_s / CONNECTIONS as f64;
    if statement_s > 0.0 {
        throughput.traced *= traced_s / statement_s;
    }
    let plain = harness::half(&all.stmts, false);
    layers.set("stmt_p50_us", latency.plain * 1e3);
    if let Some((_, v)) = stats::supported_tail(&plain, 99.0) {
        layers.set("stmt_p99_us", v * 1e3);
    }
    layers.set("stmt_qps", throughput.plain);
    layers.set_self_times(
        &all.spans,
        &[
            ("server.roundtrip", "server.roundtrip_us", US),
            ("cluster.execute", "cluster.execute_us", US),
            ("cluster.route", "cluster.route_us", US),
            ("sql.point", "sql.point_us", US),
        ],
    );
    layers.set("net.busy_rejected", busy as f64);
    layers.set("server.errors", server_errors as f64);
    if hits + misses > 0 {
        layers.set("rowstore.bp_hit_rate", hits as f64 / (hits + misses) as f64);
    }
    if all.results > 0 {
        layers.set(
            "sql.column_routed_frac",
            all.column_results as f64 / all.results as f64,
        );
    }
    if all.updates > 0 {
        let per_txn = |x: u64| x as f64 / all.updates as f64;
        layers.set("wal.bytes_per_txn", per_txn(io.bytes_appended));
        layers.set("polarfs.fsyncs_per_txn", per_txn(io.fsyncs));
        layers.set("polarfs.log_reads_per_txn", per_txn(io.log_reads));
    }
    layers.set("polarfs.page_reads", io.page_reads as f64);
    layers.set("polarfs.object_puts", io.object_puts as f64);
    harness::set_replication_layers(&mut layers, &ro, repl0, lag_end);
    harness::set_core_layers(&mut layers, &ro.store);
    eprintln!(
        "inputs: server_point rows={ROWS} table_pages={table_pages} rw_bp_capacity={BP_CAPACITY} \
         update_share={:.3} column_routed_share={:.3}",
        all.updates as f64 / all.attempted.max(1) as f64,
        layers.get("sql.column_routed_frac"),
    );
    if all.wrong > 0 {
        problems.push(format!("{} statements returned a wrong result", all.wrong));
    }
    let failed = all.failed + all.wrong;
    let spans = all.spans;
    teardown(System { cluster, server });
    Ok(RunResult {
        setup_s: Vec::new(),
        rss_mib,
        latency,
        throughput,
        layers,
        attempted: all.attempted,
        failed,
        problems,
        notes,
        spans,
    })
}

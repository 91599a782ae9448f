//! Statements the service tier answers on its reactor threads, without
//! the worker handoff: point SELECTs read resident pages only and fall
//! back to a worker (same answer) whenever they would have to wait,
//! read storage, or honour a column-engine pin; `STATUS` is answered
//! while every worker is busy.

use polardb_imci::cluster::{Cluster, ClusterConfig, Consistency};
use polardb_imci::common::Value;
use polardb_imci::polarfs::LatencyProfile;
use polardb_imci::rowstore::Page;
use polardb_imci::server::{Client, Server, ServerConfig};
use polardb_imci::sql::EngineChoice;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: i64 = 2000;

fn boot(latency: LatencyProfile, workers: usize) -> (Server, Arc<Cluster>) {
    let cluster = Cluster::start(ClusterConfig {
        group_cap: 64,
        latency,
        ..Default::default()
    });
    cluster
        .execute(
            "CREATE TABLE kv (id INT NOT NULL, v INT, PRIMARY KEY(id), KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
    let values: Vec<String> = (0..ROWS).map(|i| format!("({i}, {})", i * 10)).collect();
    cluster
        .execute(&format!("INSERT INTO kv VALUES {}", values.join(", ")))
        .unwrap();
    assert!(cluster.wait_sync(Duration::from_secs(30)));
    let server = Server::start(
        cluster.clone(),
        ServerConfig {
            reactors: 1,
            workers,
            ..Default::default()
        },
    )
    .unwrap();
    (server, cluster)
}

fn point(k: i64) -> String {
    format!("SELECT id, v FROM kv WHERE id = {k}")
}

fn page_reads(cluster: &Cluster) -> u64 {
    cluster.fs.stats().page_reads()
}

#[test]
fn inline_point_reads_on_an_ro_read_no_pages() {
    let (server, cluster) = boot(LatencyProfile::zero(), 2);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let before = page_reads(&cluster);
    for i in 0..500 {
        let k = (i * 7919) % ROWS;
        let r = c.execute(&point(k)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(k), Value::Int(k * 10)]]);
        assert_eq!(r.engine, EngineChoice::Row);
    }
    assert_eq!(page_reads(&cluster), before, "point reads touched storage");
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn non_resident_page_or_lookup_error_falls_back_with_the_same_answer() {
    let (server, cluster) = boot(LatencyProfile::zero(), 2);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let k = 1234;
    let want = c.execute(&point(k)).unwrap();
    assert_eq!(want.rows, vec![vec![Value::Int(k), Value::Int(k * 10)]]);

    // Make the RO's leaf for `k` non-resident. Shared storage must hold
    // the current image first: the fallback reads it from there.
    cluster.rw().unwrap().flush_all();
    let ro = cluster.route_ro().unwrap();
    let bp = ro.engine.buffer_pool();
    let leaf = bp
        .export_pages()
        .into_iter()
        .find(|(_, bytes)| {
            Page::decode(bytes)
                .ok()
                .and_then(|p| {
                    p.leaf_entries()
                        .ok()
                        .map(|e| e.iter().any(|(pk, _)| *pk == k))
                })
                .unwrap_or(false)
        })
        .map(|(id, _)| id)
        .expect("leaf holding the key");
    bp.discard(leaf);
    assert!(bp.get_local(leaf).is_none());

    let before = page_reads(&cluster);
    let got = c.execute(&point(k)).unwrap();
    assert_eq!(got.rows, want.rows);
    assert_eq!(got.columns, want.columns);
    assert!(
        page_reads(&cluster) > before,
        "the fallback loads the page from storage"
    );
    assert!(
        bp.get_local(leaf).is_some(),
        "and the page is resident again"
    );

    // Lookup errors: the resident path declines, the worker reports the
    // same error the in-process path does.
    for sql in [
        "SELECT nope FROM kv WHERE id = 1",
        "SELECT id FROM missing WHERE id = 1",
    ] {
        let wire = c.execute(sql).unwrap_err();
        let local = cluster.execute(sql).unwrap_err();
        assert_eq!(wire.kind(), local.kind(), "{sql}");
    }
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn strong_session_reads_its_own_write_while_the_ro_lags() {
    // Every log read the RO's replication makes costs 20 ms, so the RO
    // trails each commit.
    let lagging = LatencyProfile {
        read_ns: 20_000_000,
        ..LatencyProfile::zero()
    };
    let (server, cluster) = boot(lagging, 2);
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_consistency(Consistency::Strong).unwrap();
    let mut lagged = 0;
    for i in 0..10 {
        c.execute(&format!("UPDATE kv SET v = {i} WHERE id = 7"))
            .unwrap();
        if cluster.applied_lsn() < cluster.written_lsn() {
            lagged += 1;
        }
        let r = c.execute(&point(7)).unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(7), Value::Int(i)]],
            "write {i}"
        );
    }
    assert!(lagged > 0, "the RO never lagged; the test proves nothing");
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn force_engine_column_session_never_takes_the_row_fast_path() {
    let (server, cluster) = boot(LatencyProfile::zero(), 2);
    let mut row = Client::connect(server.local_addr()).unwrap();
    let mut column = Client::connect(server.local_addr()).unwrap();
    column.set_force_engine(Some(EngineChoice::Column)).unwrap();
    for k in [0, 5, 999, ROWS - 1] {
        let fast = row.execute(&point(k)).unwrap();
        let pinned = column.execute(&point(k)).unwrap();
        assert_eq!(fast.engine, EngineChoice::Row);
        assert_eq!(pinned.engine, EngineChoice::Column, "key {k}");
        assert_eq!(pinned.rows, fast.rows);
    }
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn status_is_answered_while_every_worker_is_held() {
    // Each commit's fsync takes 400 ms: two INSERTs hold both workers.
    let slow_commits = LatencyProfile {
        fsync_ns: 400_000_000,
        ..LatencyProfile::zero()
    };
    let (server, cluster) = boot(slow_commits, 2);
    let addr = server.local_addr();
    let mut watcher = Client::connect(addr).unwrap();
    let writers: Vec<TcpStream> = (0..2)
        .map(|i| {
            let mut w = TcpStream::connect(addr).unwrap();
            writeln!(w, "INSERT INTO kv VALUES ({}, 0)", ROWS + i).unwrap();
            w
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    let status = watcher.status().unwrap();
    let waited = start.elapsed();
    assert_eq!(status.rows.len(), 1);
    assert_eq!(status.rows[0][0], Value::Str("rw".into()));
    assert!(
        waited < Duration::from_millis(50),
        "STATUS waited {waited:?} for a worker"
    );
    for w in writers {
        let mut line = String::new();
        BufReader::new(w).read_line(&mut line).unwrap();
        assert_eq!(line, "OK 1\n");
    }
    assert!(
        start.elapsed() >= Duration::from_millis(300),
        "the inserts were slow, so both workers were held"
    );
    server.shutdown();
    cluster.shutdown();
}

//! Overload, churn, and lifecycle behaviour of the reactor service
//! tier, exercised end-to-end through the SQL server (PR 6 tentpole).
//!
//! The `imci_net` crate pins the same properties against a toy echo
//! protocol; these tests prove they survive the real protocol stack:
//! slow-loris writers cannot stall other sessions, connection churn
//! leaks neither sessions nor file descriptors, a saturated statement
//! queue sheds retryable `busy` errors while accepts keep working, the
//! connection budget refuses at accept with a readable frame, idle
//! sessions are reaped while active ones are not, and graceful
//! shutdown says goodbye with a retryable error.

use polardb_imci::cluster::{Cluster, ClusterConfig, Consistency};
use polardb_imci::common::Value;
use polardb_imci::server::{Client, RetryPolicy, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot(config: ServerConfig) -> (Server, Arc<Cluster>) {
    let cluster = Cluster::start(ClusterConfig {
        group_cap: 64,
        ..Default::default()
    });
    let server = Server::start(cluster.clone(), config).unwrap();
    (server, cluster)
}

/// Open file descriptors of this process (0 where /proc is missing,
/// which skips the fd-leak assertions).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn slow_loris_writers_do_not_stall_other_sessions() {
    let (server, cluster) = boot(ServerConfig {
        reactors: 1,
        workers: 2,
        ..Default::default()
    });
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.execute(
        "CREATE TABLE kv (id INT NOT NULL, v INT, PRIMARY KEY(id),
         KEY COLUMN_INDEX(id, v))",
    )
    .unwrap();
    c.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
    c.set_consistency(Consistency::Strong).unwrap();

    // Eight sessions dribble a request one byte every 20ms. Under the
    // old thread-per-connection design each of these pinned a thread
    // in a blocking read; on the reactor they cost one fd and an
    // occasional readiness event.
    const LORIS: usize = 8;
    let mut handles = Vec::new();
    for _ in 0..LORIS {
        handles.push(std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            for b in b"SET CONSISTENCY STRONG\n" {
                s.write_all(&[*b]).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
            // The dribbled line, once complete, is served normally.
            let mut line = String::new();
            BufReader::new(&s).read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "OK 0");
        }));
    }

    // Meanwhile a well-behaved session gets normal service: its reads
    // must finish long before the loris sessions finish dribbling.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    for _ in 0..100 {
        let res = c.execute("SELECT v FROM kv WHERE id = 1").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(10)]]);
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "100 point reads took {:?} behind {LORIS} slow-loris writers",
        t0.elapsed()
    );
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn connection_churn_storm_leaks_no_sessions_or_fds() {
    let (server, cluster) = boot(ServerConfig {
        reactors: 1,
        workers: 2,
        ..Default::default()
    });
    let addr = server.local_addr();
    let stats = server.stats_handle();
    let mut admin = Client::connect(addr).unwrap();
    admin
        .execute("CREATE TABLE churn (id INT NOT NULL, PRIMARY KEY(id))")
        .unwrap();
    admin.set_consistency(Consistency::Strong).unwrap();
    let baseline = open_fds();

    const ROUNDS: usize = 120;
    for i in 0..ROUNDS {
        match i % 3 {
            // A full session: handshake, one statement, abrupt drop.
            0 => {
                let mut c = Client::connect(addr).unwrap();
                c.execute(&format!("INSERT INTO churn VALUES ({i})"))
                    .unwrap();
            }
            // Connect and slam the door without sending a byte.
            1 => {
                let _ = TcpStream::connect(addr).unwrap();
            }
            // Half a request line, then vanish mid-frame.
            _ => {
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = s.write_all(b"SELECT count");
            }
        }
    }

    // The acceptor takes the last clients off the listen backlog after
    // they are gone, so wait for it before the drain can mean anything.
    wait_until(
        "every connection to be accepted",
        Duration::from_secs(10),
        || stats.connections.load(Ordering::SeqCst) >= ROUNDS as u64,
    );
    // Every server-side session is reaped...
    wait_until("sessions to drain", Duration::from_secs(10), || {
        stats.active_sessions.load(Ordering::SeqCst) <= 1 // admin stays
    });
    // ...and with the client ends dropped, so is every fd.
    if baseline > 0 {
        wait_until("fds to return to baseline", Duration::from_secs(10), || {
            open_fds() <= baseline + 4
        });
    }

    // The server is still perfectly serviceable afterwards.
    let res = admin.execute("SELECT COUNT(*) FROM churn").unwrap();
    assert_eq!(res.rows, vec![vec![Value::Int((ROUNDS / 3) as i64)]]);
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn saturated_statement_queue_sheds_retryable_busy_and_keeps_accepting() {
    // Two workers: the heavy batch occupies one; the other keeps
    // serving zero-cost control units (HELLO, SET), so new sessions
    // can still handshake while the statement budget is exhausted.
    let (server, cluster) = boot(ServerConfig {
        reactors: 1,
        workers: 2,
        max_queued_statements: 2,
        ..Default::default()
    });
    let addr = server.local_addr();
    let stats = server.stats_handle();
    let mut admin = Client::connect(addr).unwrap();
    admin
        .execute(
            "CREATE TABLE big (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
    const ROWS: i64 = 20_000;
    for chunk in 0..20i64 {
        let vals: Vec<String> = (0..1000)
            .map(|i| {
                let id = chunk * 1000 + i;
                format!("({id}, {i})")
            })
            .collect();
        admin
            .execute(&format!("INSERT INTO big VALUES {}", vals.join(", ")))
            .unwrap();
    }
    admin.set_consistency(Consistency::Strong).unwrap();
    let queries_before = stats.queries.load(Ordering::SeqCst);

    // One oversized batch (admittable from an empty queue even though
    // it dwarfs the cap) occupies the single worker for a while and
    // holds 1500 statement slots of a 2-slot budget the whole time.
    let heavy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let stmts: Vec<String> = (0..1500)
            .map(|_| "SELECT COUNT(*), SUM(v) FROM big".to_string())
            .collect();
        let results = c.execute_batch(&stmts).unwrap();
        assert_eq!(results.len(), stmts.len());
        for r in results {
            r.unwrap();
        }
    });
    // The queries counter jumps when the worker *starts* the batch;
    // its admission cost is held until the batch finishes, so from
    // here until then every new statement is deterministically shed.
    wait_until("the heavy batch to start", Duration::from_secs(30), || {
        stats.queries.load(Ordering::SeqCst) > queries_before
    });

    // Accepts keep working under saturation (HELLO and SET are free),
    // and the statement comes back as a retryable `busy` in its
    // response slot — the session is NOT closed.
    let mut c = Client::connect(addr).unwrap();
    let err = c.execute("SELECT COUNT(*) FROM big").unwrap_err();
    assert_eq!(err.kind(), "busy", "expected shed, got: {err}");
    assert!(err.is_retryable());

    // Same connection, with a retry policy: the statement eventually
    // lands once the batch drains, transparently.
    c.set_retry_policy(Some(RetryPolicy {
        max_retries: 1000,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
    }));
    c.set_consistency(Consistency::Strong).unwrap();
    let res = c.execute("SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(res.rows, vec![vec![Value::Int(ROWS)]]);

    heavy.join().unwrap();
    assert!(
        stats.busy_rejected_stmts.load(Ordering::SeqCst) >= 1,
        "shed counter never moved"
    );
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn connection_budget_refusal_is_a_readable_busy_frame() {
    let (server, cluster) = boot(ServerConfig {
        reactors: 1,
        workers: 1,
        max_connections: 2,
        ..Default::default()
    });
    let addr = server.local_addr();
    let stats = server.stats_handle();
    let c1 = Client::connect(addr).unwrap();
    let _c2 = Client::connect(addr).unwrap();

    // The third connection is accepted at the socket level, answered
    // with one retryable `busy` line (v1 text: no session exists, so
    // no negotiated encoding), then closed — never left hanging.
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR busy "), "refusal frame: {line:?}");
    line.clear();
    assert_eq!(r.read_line(&mut line).unwrap(), 0, "EOF after refusal");
    assert!(stats.busy_rejected_conns.load(Ordering::SeqCst) >= 1);

    // Dropping a session frees its budget slot (after the reactor
    // notices the close, so poll).
    drop(c1);
    let t0 = Instant::now();
    loop {
        match Client::connect(addr) {
            Ok(_) => break,
            Err(_) => assert!(
                t0.elapsed() < Duration::from_secs(10),
                "slot never freed after session close"
            ),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn idle_sessions_are_reaped_and_active_ones_are_not() {
    let (server, cluster) = boot(ServerConfig {
        reactors: 1,
        workers: 2,
        idle_timeout: Some(Duration::from_millis(200)),
        ..Default::default()
    });
    let addr = server.local_addr();
    let stats = server.stats_handle();

    // An idle raw connection never writes, so the goodbye frame can't
    // be lost to a reset: it must arrive as a v1 error line, followed
    // by EOF, and not before the timeout.
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let t0 = Instant::now();
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR execution idle"),
        "idle goodbye: {line:?}"
    );
    assert!(
        t0.elapsed() >= Duration::from_millis(150),
        "reaped too early: {:?}",
        t0.elapsed()
    );
    line.clear();
    assert_eq!(r.read_line(&mut line).unwrap(), 0, "EOF after goodbye");
    assert!(stats.idle_closed.load(Ordering::SeqCst) >= 1);

    // A session ticking every 60ms sails through many 200ms spans.
    let mut c = Client::connect(addr).unwrap();
    c.execute("CREATE TABLE tick (id INT NOT NULL, PRIMARY KEY(id))")
        .unwrap();
    c.set_consistency(Consistency::Strong).unwrap();
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(60));
        c.execute("SELECT COUNT(*) FROM tick").unwrap();
    }
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn light_tenant_is_served_while_heavy_tenant_still_pipelines() {
    let (server, cluster) = boot(ServerConfig {
        reactors: 1,
        workers: 1,
        ..Default::default()
    });
    let addr = server.local_addr();
    let stats = server.stats_handle();
    let mut admin = Client::connect(addr).unwrap();
    admin
        .execute(
            "CREATE TABLE fair (id INT NOT NULL, v INT, PRIMARY KEY(id),
             KEY COLUMN_INDEX(id, v))",
        )
        .unwrap();
    let vals: Vec<String> = (0..20_000).map(|i| format!("({i}, {i})")).collect();
    admin
        .execute(&format!("INSERT INTO fair VALUES {}", vals.join(", ")))
        .unwrap();
    admin.set_consistency(Consistency::Strong).unwrap();
    let queries_before = stats.queries.load(Ordering::SeqCst);

    // The heavy tenant pipelines 800 scans through the single worker.
    let heavy_done = Arc::new(AtomicBool::new(false));
    let heavy = {
        let heavy_done = heavy_done.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.set_consistency(Consistency::Strong).unwrap();
            for _ in 0..800 {
                c.send("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM fair")
                    .unwrap();
            }
            for _ in 0..800 {
                c.recv().unwrap();
            }
            heavy_done.store(true, Ordering::SeqCst);
        })
    };
    wait_until(
        "the heavy pipeline to start",
        Duration::from_secs(30),
        || stats.queries.load(Ordering::SeqCst) > queries_before,
    );

    // The light tenant's handful of point reads must be interleaved by
    // the round-robin tenant lanes, not parked behind all 800 scans.
    let mut c = Client::connect(addr).unwrap();
    c.set_tenant("light").unwrap();
    c.set_consistency(Consistency::Strong).unwrap();
    for _ in 0..3 {
        let res = c.execute("SELECT v FROM fair WHERE id = 5").unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int(5)]]);
    }
    assert!(
        !heavy_done.load(Ordering::SeqCst),
        "light tenant finished only after the whole heavy pipeline — no fairness"
    );
    heavy.join().unwrap();
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn graceful_shutdown_says_goodbye_with_retryable_busy() {
    let (server, cluster) = boot(ServerConfig {
        reactors: 1,
        workers: 2,
        ..Default::default()
    });
    let addr = server.local_addr();
    let stats = server.stats_handle();

    // A quiet connection present at shutdown must get a final frame
    // telling it why (retryable: reconnect-and-retry is safe), then a
    // clean EOF — not an abrupt reset.
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let shutter = std::thread::spawn(move || server.shutdown());
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR busy "), "drain goodbye: {line:?}");
    line.clear();
    assert_eq!(r.read_line(&mut line).unwrap(), 0, "EOF after goodbye");
    shutter.join().unwrap();
    assert!(stats.drained.load(Ordering::SeqCst) >= 1);

    // The listener is gone: new connections are refused, not hung.
    assert!(TcpStream::connect(addr).is_err());
    cluster.shutdown();
}

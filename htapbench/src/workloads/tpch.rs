//! `tpch_olap`: the 22 TPC-H queries, cost-routed through
//! `Cluster::execute`, from one client on one RO.
//!
//! `sql`, `executor` and `core` do nearly all the work; replication, the
//! log, row-store commits and the service tier are idle, so this is the
//! workload on which write-path and service-tier changes must show no
//! change. The data is not clustered on the query predicates, so pack
//! pruning skips little.

use crate::harness::{self, geomean_of_medians, Args, Clock, Headline, Layers, RunResult, Sample};
use crate::olap;
use imci_cluster::{Cluster, ClusterConfig};
use imci_common::{Error, Result};
use imci_sql::{EngineChoice, QueryOptions};
use imci_workloads::tpch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// TPC-H scale factor (~164k rows, ~2 s to load on two cores).
pub const SF: f64 = 0.02;
const WARMUP: Duration = Duration::from_secs(1);

fn build(seed: u64) -> Result<Arc<Cluster>> {
    let cluster = Cluster::start(ClusterConfig::default());
    tpch::load(&cluster, SF, seed)?;
    if !cluster.wait_sync(Duration::from_secs(60)) {
        return Err(Error::Execution(
            "RO did not catch up with the TPC-H load".into(),
        ));
    }
    Ok(cluster)
}

pub fn run(args: &Args) -> Result<RunResult> {
    harness::run_with_setups(|| build(args.seed), |c| c.shutdown(), |c| measure(args, c))
}

fn measure(args: &Args, cluster: Arc<Cluster>) -> Result<RunResult> {
    let ro = cluster.ros.read()[0].clone();
    let queries = tpch::queries();
    let clock = Clock::new(WARMUP, args.seconds, args.trace);
    let mut next = harness::shuffled_cycle(
        queries.len(),
        StdRng::seed_from_u64(args.seed ^ 0x5450_4348),
    );
    let olap = olap::run_client(&cluster, clock, 1, || {
        let qi = next();
        (qi, queries[qi].1.clone())
    });
    let rss_mib = harness::rss_mib();
    let notes = olap.errors.clone();
    let mut problems = Vec::new();

    // Outputs: every query's cost-routed answer, and its column-engine
    // answer where the column engine supports it, must equal the row
    // engine's.
    let mut wrong = 0u64;
    for (name, sql) in &queries {
        let row = ro
            .query
            .run(sql, &QueryOptions::forced(Some(EngineChoice::Row)));
        let routed = cluster.execute(sql);
        let column = ro
            .query
            .run(sql, &QueryOptions::forced(Some(EngineChoice::Column)));
        let ok = match (&row, &routed) {
            (Ok(r), Ok(c)) => {
                harness::same_rows(&r.rows, &c.rows)
                    && match &column {
                        Ok(col) => harness::same_rows(&r.rows, &col.rows),
                        Err(Error::ColumnEngineUnsupported(_)) => true,
                        Err(_) => false,
                    }
            }
            _ => false,
        };
        if !ok {
            wrong += 1;
            problems.push(format!("{name}: column and row engines disagree or failed"));
        }
    }

    let mut layers = Layers::new();
    let latency = geomean_of_medians(&olap.samples, queries.len());
    let all: Vec<Sample> = olap.samples.iter().map(|(_, s)| *s).collect();
    let throughput = Headline::rate(&all, &clock);
    layers.set("olap_geomean_ms", latency.plain);
    layers.set("olap_qps", throughput.plain);
    olap::set_layers(&mut layers, &olap);
    harness::set_core_layers(&mut layers, &ro.store);
    let attempted = olap.attempted + queries.len() as u64;
    let failed = olap.failed + wrong;
    let spans = olap.spans;
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

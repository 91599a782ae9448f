//! The closed-loop analytical client shared by `tpch_olap` and
//! `htap_chbench`.
//!
//! Untraced, a query goes through `Cluster::execute`, the cost-routed
//! path users take. Traced, a query the cost router sent to the column
//! engine is issued as the calls that path makes, each in its own span:
//! route, parse, bind + plan, execute (with operator stats).

use crate::harness::{Clock, Layers, Sample, MS, US};
use htapbench::stats;
use htapbench::trace::{Span, Tracer};
use imci_cluster::{Cluster, Consistency};
use imci_common::{Error, FxHashMap, Result, TableId};
use imci_executor::{execute_with_stats, ExecContext, PhysicalPlan};
use imci_sql::{EngineChoice, Statement};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What the client measured.
#[derive(Default)]
pub struct OlapOut {
    /// (query index, latency) per measured query.
    pub samples: Vec<(usize, Sample)>,
    /// Queries sent in the window.
    pub attempted: u64,
    /// Queries that returned an error.
    pub failed: u64,
    /// Untraced queries the router sent to the column engine.
    pub column_routed: u64,
    /// Untraced queries.
    pub routed: u64,
    /// Rows produced by column scans (traced queries).
    pub scan_rows: u64,
    /// Result rows (traced column queries).
    pub out_rows: u64,
    /// Morsels per traced column query.
    pub morsels: Vec<f64>,
    /// First few error messages.
    pub errors: Vec<String>,
    /// Spans of traced queries.
    pub spans: Vec<Span>,
}

/// Run queries from `next` back to back from `clock.warm` until
/// `clock.end`. `next` yields (query index, SQL).
pub fn run_client(
    cluster: &Cluster,
    clock: Clock,
    thread: u64,
    mut next: impl FnMut() -> (usize, String),
) -> OlapOut {
    let mut out = OlapOut::default();
    let mut tracer = Tracer::new(clock.warm, thread);
    // Engine each query was last routed to; only column-routed queries
    // are decomposed when traced.
    let mut engine_of: HashMap<usize, EngineChoice> = HashMap::new();
    loop {
        let t0 = Instant::now();
        if t0 >= clock.end {
            break;
        }
        let (qi, sql) = next();
        let measured = clock.measured(t0);
        let traced = clock.traced_at(t0);
        tracer.set_enabled(traced);
        let result = if traced && engine_of.get(&qi) == Some(&EngineChoice::Column) {
            tracer.span("olap.query", |t| column_query(cluster, &sql, t, &mut out))
        } else {
            tracer.span("olap.query", |t| {
                t.span("cluster.execute", |_| cluster.execute(&sql))
                    .map(|r| r.engine)
            })
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(engine) => {
                if !traced {
                    engine_of.insert(qi, engine);
                }
                if measured {
                    out.samples.push((qi, clock.sample(t0, ms)));
                    if !traced {
                        out.routed += 1;
                        out.column_routed += u64::from(engine == EngineChoice::Column);
                    }
                }
            }
            Err(e) => {
                if measured {
                    out.failed += 1;
                }
                if out.errors.len() < 5 {
                    out.errors.push(format!("query {qi}: {e}"));
                }
            }
        }
        if measured {
            out.attempted += 1;
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// One column-engine query as its layer calls, each in a span.
fn column_query(
    cluster: &Cluster,
    sql: &str,
    t: &mut Tracer,
    out: &mut OlapOut,
) -> Result<EngineChoice> {
    let node = t.span("cluster.route", |_| {
        cluster.route_ro_with(Consistency::Eventual)
    })?;
    let Statement::Select(select) = t.span("sql.parse", |_| imci_sql::parse(sql))? else {
        return Err(Error::Plan("analytical query is not a SELECT".into()));
    };
    let plan = t.span("sql.bind_plan", |_| node.query.column_plan(&select))?;
    // One snapshot per scanned table, as `QueryEngine::run` pins them.
    let mut snapshots = FxHashMap::default();
    for table in scanned_tables(&plan) {
        let index = node.store.index(table)?;
        snapshots.insert(table, Arc::new(index.snapshot()));
    }
    let mut ctx = ExecContext::new(snapshots);
    if !plan.parallel_safe() {
        ctx.parallelism = 1;
    }
    let (batch, stats) = t.span("executor.exec", |_| execute_with_stats(&plan, &ctx))?;
    let scans: u64 = plan
        .explain()
        .iter()
        .zip(&stats.rows)
        .filter(|(line, _)| line.trim_start().starts_with("ColumnScan"))
        .map(|(_, rows)| *rows)
        .sum();
    out.scan_rows += scans;
    out.out_rows += batch.len as u64;
    out.morsels.push(stats.total_morsels() as f64);
    Ok(EngineChoice::Column)
}

/// Tables the column scans of `plan` read.
fn scanned_tables(plan: &PhysicalPlan) -> Vec<TableId> {
    match plan {
        PhysicalPlan::ColumnScan { table, .. } => vec![*table],
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::HashAgg { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. } => scanned_tables(input),
        PhysicalPlan::HashJoin { left, right, .. } => {
            let mut tables = scanned_tables(left);
            tables.extend(scanned_tables(right));
            tables
        }
    }
}

/// Per-layer metrics of the analytical client.
pub fn set_layers(layers: &mut Layers, olap: &OlapOut) {
    layers.set_self_times(
        &olap.spans,
        &[
            ("cluster.route", "cluster.route_us", US),
            ("sql.parse", "sql.parse_us", US),
            ("sql.bind_plan", "sql.bind_plan_us", US),
            ("executor.exec", "executor.exec_ms", MS),
        ],
    );
    if olap.routed > 0 {
        layers.set(
            "sql.column_routed_frac",
            olap.column_routed as f64 / olap.routed as f64,
        );
    }
    if let Some(m) = stats::mean(&olap.morsels) {
        layers.set("executor.morsels", m);
    }
    if olap.out_rows > 0 {
        layers.set(
            "executor.rows_in_per_row_out",
            olap.scan_rows as f64 / olap.out_rows as f64,
        );
    }
}

//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// The workloads, by CLI name.
pub const WORKLOADS: &[&str] = &["tpch_olap", "htap_chbench", "server_point", "scale_out"];

/// End-to-end metrics, reported by every workload in the untraced run.
/// `latency_ms` and `throughput_per_s` are each workload's headline
/// operation (see the README for which one).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("rss_mib", "MiB"),
    def("latency_ms", "ms"),
    def("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload in the traced run; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    // Workload-specific end-to-end views, from the run's untraced half.
    def("olap_geomean_ms", "ms"),
    def("olap_qps", "1/s"),
    def("oltp_p50_ms", "ms"),
    def("oltp_p99_ms", "ms"),
    def("vd_p50_ms", "ms"),
    def("vd_p99_ms", "ms"),
    def("stmt_p50_us", "us"),
    def("stmt_p99_us", "us"),
    def("stmt_qps", "1/s"),
    def("scaleout_p50_ms", "ms"),
    def("failed_frac", "frac"),
    // Traced-vs-untraced difference, as a fraction of the untraced value.
    def("trace.overhead.latency_frac", "frac"),
    def("trace.overhead.throughput_frac", "frac"),
    def("trace.overhead.vd_frac", "frac"),
    // Service tier.
    def("server.roundtrip_us", "us"),
    def("cluster.execute_us", "us"),
    def("net.busy_rejected", "count"),
    def("server.errors", "count"),
    // Proxy / cluster.
    def("cluster.route_us", "us"),
    def("cluster.checkpoint_ms", "ms"),
    def("cluster.scaleout_load_ms", "ms"),
    def("cluster.scaleout_catchup_ms", "ms"),
    def("cluster.first_query_ms", "ms"),
    // SQL front end.
    def("sql.parse_us", "us"),
    def("sql.bind_plan_us", "us"),
    def("sql.point_us", "us"),
    def("sql.column_routed_frac", "frac"),
    // Column executor.
    def("executor.exec_ms", "ms"),
    def("executor.morsels", "count"),
    def("executor.rows_in_per_row_out", "ratio"),
    // Column store.
    def("core.live_frac", "frac"),
    def("core.bytes_per_row", "B"),
    def("core.groups", "count"),
    // Row store.
    def("rowstore.txn_us", "us"),
    def("rowstore.commit_us", "us"),
    def("rowstore.bp_hit_rate", "frac"),
    // Log and shared storage.
    def("wal.bytes_per_txn", "B"),
    def("polarfs.fsyncs_per_txn", "count"),
    def("polarfs.log_reads_per_txn", "count"),
    def("polarfs.page_reads", "count"),
    def("polarfs.object_puts", "count"),
    // Replication.
    def("replication.read_ms", "ms"),
    def("replication.apply_ms", "ms"),
    def("replication.txns_per_batch", "count"),
    def("replication.lag_lsn_end", "lsn"),
    def("replication.replay_txn_per_s", "1/s"),
    // Load generator.
    def("loadgen.late_p99_ms", "ms"),
];

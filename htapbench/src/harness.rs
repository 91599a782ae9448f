//! Shared plumbing of the workloads: the measurement clock, repeated
//! set-up, counters read before and after the window, result comparison
//! and the per-layer table.

use htapbench::catalog::PER_LAYER;
use htapbench::stats;
use htapbench::trace::{self_time_by_name, Span};
use imci_cluster::{Cluster, RoNode};
use imci_common::{Result, Value};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see `catalog::WORKLOADS`).
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Length of one sub-window. In the traced run odd sub-windows are
/// traced and even ones are not, so both halves see the same phases of
/// the window and their difference is the tracing overhead.
pub const SUB: Duration = Duration::from_millis(500);

/// Times of one run: load runs from `warm`, is measured from `start`
/// until `end`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Load starts here; operations due before `start` are warm-up.
    pub warm: Instant,
    /// Measurement starts.
    pub start: Instant,
    /// Measurement ends.
    pub end: Instant,
    trace: bool,
}

impl Clock {
    /// A window of `seconds` after `warmup`, starting now.
    pub fn new(warmup: Duration, seconds: u64, trace: bool) -> Clock {
        let warm = Instant::now();
        let start = warm + warmup;
        Clock {
            warm,
            start,
            end: start + Duration::from_secs(seconds),
            trace,
        }
    }

    /// Whether an operation due at `t` falls in the measured window.
    pub fn measured(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether an operation due at `t` is traced.
    pub fn traced_at(&self, t: Instant) -> bool {
        t >= self.start && self.traced_sub(self.sub_index(t))
    }

    /// Index of the sub-window holding `t` (0 before the window).
    pub fn sub_index(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.start).as_nanos() / SUB.as_nanos()) as u64
    }

    /// End of sub-window `i`.
    pub fn sub_end(&self, i: u64) -> Instant {
        (self.start + SUB * (i as u32 + 1)).min(self.end)
    }

    /// A sample of `ms` for an operation that started (or was due) at `t`.
    pub fn sample(&self, t: Instant, ms: f64) -> Sample {
        Sample {
            ms,
            traced: self.traced_at(t),
        }
    }

    /// Whether sub-window `i` is traced.
    pub fn traced_sub(&self, i: u64) -> bool {
        self.trace && i % 2 == 1
    }

    /// Length of sub-window `i` in seconds.
    pub fn sub_seconds(&self, i: u64) -> f64 {
        let a = (self.start + SUB * i as u32).min(self.end);
        self.sub_end(i).duration_since(a).as_secs_f64()
    }

    /// Seconds of the window that were (untraced, traced).
    pub fn split_seconds(&self) -> (f64, f64) {
        (0..self.subs()).fold((0.0, 0.0), |(plain, traced), i| {
            if self.traced_sub(i) {
                (plain, traced + self.sub_seconds(i))
            } else {
                (plain + self.sub_seconds(i), traced)
            }
        })
    }

    /// Number of sub-windows in the window.
    pub fn subs(&self) -> u64 {
        let total = self.end.duration_since(self.start).as_nanos();
        total.div_ceil(SUB.as_nanos()) as u64
    }
}

/// One timed operation and whether it ran traced.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency in ms.
    pub ms: f64,
    /// Ran in a traced sub-window.
    pub traced: bool,
}

/// The latencies of the untraced or of the traced samples.
pub fn half(samples: &[Sample], traced: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.traced == traced)
        .map(|s| s.ms)
        .collect()
}

/// A headline figure measured untraced, and traced in the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Headline {
    /// Untraced value.
    pub plain: f64,
    /// Traced value (0 in the untraced run).
    pub traced: f64,
}

impl Headline {
    /// From per-half values.
    pub fn of(plain: Option<f64>, traced: Option<f64>) -> Headline {
        Headline {
            plain: plain.unwrap_or(0.0),
            traced: traced.unwrap_or(0.0),
        }
    }

    /// Median of each half of `samples`.
    pub fn median(samples: &[Sample]) -> Headline {
        Headline::of(
            stats::median(&half(samples, false)),
            stats::median(&half(samples, true)),
        )
    }

    /// Operations per second in each half of the window.
    pub fn rate(samples: &[Sample], clock: &Clock) -> Headline {
        let (plain_s, traced_s) = clock.split_seconds();
        let n = |t: bool| samples.iter().filter(|s| s.traced == t).count() as f64;
        Headline::of(
            (plain_s > 0.0).then(|| n(false) / plain_s),
            (traced_s > 0.0).then(|| n(true) / traced_s),
        )
    }

    /// How much worse the traced value is, as a fraction of the untraced
    /// one (`higher_better` flips the direction).
    pub fn overhead(&self, higher_better: bool) -> f64 {
        if self.plain <= 0.0 || self.traced <= 0.0 {
            return 0.0;
        }
        if higher_better {
            self.plain / self.traced - 1.0
        } else {
            self.traced / self.plain - 1.0
        }
    }
}

extern "C" {
    /// glibc: return free heap pages to the operating system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Resident set size of this process in MiB, after free heap pages are
/// returned to the operating system.
pub fn rss_mib() -> f64 {
    // SAFETY: malloc_trim takes no pointers and only releases pages the
    // allocator holds as free; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Number of times each workload builds its system; the reported
/// `setup_s` is the median of the build times.
pub const SETUPS: usize = 5;

/// Build the system [`SETUPS`] times, timing each, and measure the first
/// build. It is made in a fresh process, and the others only after
/// `measure` has returned and dropped it, so the memory it holds at the
/// end of the window includes nothing left over from another build.
/// `measure` shuts its build down; `teardown` shuts down the others. The
/// result's `setup_s` holds every build time in s, the measured one first.
pub fn run_with_setups<T>(
    mut build: impl FnMut() -> Result<T>,
    mut teardown: impl FnMut(T),
    measure: impl FnOnce(T) -> Result<RunResult>,
) -> Result<RunResult> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let t0 = Instant::now();
    let system = build()?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let mut run = measure(system)?;
    while setup_s.len() < SETUPS {
        let t0 = Instant::now();
        let system = build()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        teardown(system);
    }
    run.setup_s = setup_s;
    Ok(run)
}

/// Shared-storage counters (`IoStats`), read before and after the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    /// REDO bytes appended.
    pub bytes_appended: u64,
    /// Log fsyncs.
    pub fsyncs: u64,
    /// Log reads (replication readers).
    pub log_reads: u64,
    /// Page reads (buffer-pool misses).
    pub page_reads: u64,
    /// Objects written (checkpoints).
    pub object_puts: u64,
}

impl Io {
    /// Current counters of the cluster's volume.
    pub fn read(cluster: &Cluster) -> Io {
        let s = cluster.fs.stats();
        Io {
            bytes_appended: s.bytes_appended(),
            fsyncs: s.fsyncs(),
            log_reads: s.log_reads(),
            page_reads: s.page_reads(),
            object_puts: s.object_puts(),
        }
    }

    /// Counter growth since `before`.
    pub fn since(&self, before: &Io) -> Io {
        Io {
            bytes_appended: self.bytes_appended - before.bytes_appended,
            fsyncs: self.fsyncs - before.fsyncs,
            log_reads: self.log_reads - before.log_reads,
            page_reads: self.page_reads - before.page_reads,
            object_puts: self.object_puts - before.object_puts,
        }
    }
}

/// The per-layer table: every catalogued name, 0 until set.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// All per-layer metrics at 0.
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|d| (d.name, 0.0)).collect())
    }

    /// Set one metric; the name must be catalogued.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalogue"));
        *slot = value;
    }

    /// Value of one metric.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Set each `metric` to the mean self time per span named `span`,
    /// scaled from ns by `ns_per_unit`.
    pub fn set_self_times(&mut self, spans: &[Span], map: &[(&str, &'static str, f64)]) {
        let by_name = self_time_by_name(spans);
        for &(span, metric, ns_per_unit) in map {
            if let Some(&(n, total_ns)) = by_name.get(span) {
                if n > 0 {
                    self.set(metric, total_ns as f64 / n as f64 / ns_per_unit);
                }
            }
        }
    }
}

/// ns per µs and per ms, for [`Layers::set_self_times`].
pub const US: f64 = 1e3;
pub const MS: f64 = 1e6;

/// Everything a workload hands back to `main`.
pub struct RunResult {
    /// Time of each set-up, in s (filled in by [`run_with_setups`]).
    pub setup_s: Vec<f64>,
    /// Resident memory at the end of the window, in MiB.
    pub rss_mib: f64,
    /// The workload's headline latency, in ms.
    pub latency: Headline,
    /// The workload's headline operations per second.
    pub throughput: Headline,
    /// Per-layer metrics (traced run).
    pub layers: Layers,
    /// Operations attempted in the window, plus output checks.
    pub attempted: u64,
    /// Operations that failed, plus failed output checks.
    pub failed: u64,
    /// Failed output checks and validity problems; any makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Messages of failed operations (counted in `failed`).
    pub notes: Vec<String>,
    /// Spans of the traced sub-windows.
    pub spans: Vec<Span>,
}

/// Whether two results hold the same rows as multisets, with doubles
/// compared to a relative tolerance of 1e-6.
pub fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a: Vec<&Vec<Value>> = a.iter().collect();
    let mut b: Vec<&Vec<Value>> = b.iter().collect();
    a.sort();
    b.sort();
    a.iter().zip(&b).all(|(x, y)| {
        x.len() == y.len()
            && x.iter().zip(y.iter()).all(|(u, v)| match (u, v) {
                (Value::Double(p), Value::Double(q)) => {
                    (p - q).abs() <= 1e-6 * p.abs().max(q.abs()).max(1.0)
                }
                (Value::Double(p), Value::Int(q)) | (Value::Int(q), Value::Double(p)) => {
                    (p - *q as f64).abs() <= 1e-6 * p.abs().max(1.0)
                }
                _ => u == v,
            })
    })
}

/// Column store shape over every index of an RO: (Σ live rows,
/// Σ rows inserted, Σ packed bytes, rows in packed groups, groups).
pub fn column_shape(store: &imci_core::ColumnStore) -> (u64, u64, u64, u64, u64) {
    let (mut live, mut inserted, mut bytes, mut packed_rows, mut groups) = (0, 0, 0, 0, 0);
    for idx in store.all() {
        live += idx.approx_live_rows();
        inserted += idx.rows_inserted();
        for g in idx.groups() {
            groups += 1;
            let packs: Vec<_> = (0..g.width()).filter_map(|c| g.column_pack(c)).collect();
            if !packs.is_empty() {
                bytes += packs
                    .iter()
                    .map(|p| p.compressed_size() as u64)
                    .sum::<u64>();
                packed_rows += g.live_rows() as u64;
            }
        }
    }
    (live, inserted, bytes, packed_rows, groups)
}

/// Set the `core.*` metrics from an RO's column store.
pub fn set_core_layers(layers: &mut Layers, store: &imci_core::ColumnStore) {
    let (live, inserted, bytes, packed_rows, groups) = column_shape(store);
    if inserted > 0 {
        layers.set("core.live_frac", live as f64 / inserted as f64);
    }
    if packed_rows > 0 {
        layers.set("core.bytes_per_row", bytes as f64 / packed_rows as f64);
    }
    layers.set("core.groups", groups as f64);
}

/// Set the open-loop generator's metrics shared by every workload that
/// runs one.
pub fn set_loadgen_layers(layers: &mut Layers, gen: &crate::loadgen::GenOut, io: &Io) {
    if let Some((_, v)) = stats::supported_tail(&gen.late_ms, 99.0) {
        layers.set("loadgen.late_p99_ms", v);
    } else if let Some(max) = gen.late_ms.iter().copied().reduce(f64::max) {
        layers.set("loadgen.late_p99_ms", max);
    }
    if gen.committed > 0 {
        let per_txn = |x: u64| x as f64 / gen.committed as f64;
        layers.set("wal.bytes_per_txn", per_txn(io.bytes_appended));
        layers.set("polarfs.fsyncs_per_txn", per_txn(io.fsyncs));
        layers.set("polarfs.log_reads_per_txn", per_txn(io.log_reads));
    }
    if let Some(v) = stats::mean(&gen.read_ms) {
        layers.set("replication.read_ms", v);
    }
    if let Some(v) = stats::mean(&gen.apply_ms) {
        layers.set("replication.apply_ms", v);
    }
    if let Some(v) = stats::median(&half(&gen.commit, false)) {
        layers.set("oltp_p50_ms", v);
    }
    if let Some((_, v)) = stats::supported_tail(&half(&gen.commit, false), 99.0) {
        layers.set("oltp_p99_ms", v);
    }
    let vd = Headline::median(&gen.vd);
    layers.set("vd_p50_ms", vd.plain);
    layers.set("trace.overhead.vd_frac", vd.overhead(false));
    if let Some((_, v)) = stats::supported_tail(&half(&gen.vd, false), 99.0) {
        layers.set("vd_p99_ms", v);
    }
    layers.set_self_times(
        &gen.spans,
        &[
            ("rowstore.txn", "rowstore.txn_us", US),
            ("rowstore.commit", "rowstore.commit_us", US),
        ],
    );
}

/// The open-loop generator may end the window at most this far behind
/// its schedule.
pub const MAX_BEHIND_MS: f64 = 100.0;

/// Record a problem when the generator's backlog grew across the window
/// or it fell behind schedule: such a run is invalid, not fast.
pub fn check_backlog(gen: &crate::loadgen::GenOut, lag_slack_lsn: u64, problems: &mut Vec<String>) {
    let limits = htapbench::openloop::BacklogLimits {
        max_behind_ms: MAX_BEHIND_MS,
        lag_slack_lsn,
    };
    if let Some(last) = gen.subs.last() {
        eprintln!(
            "backlog: end of window {:.1} ms behind schedule, lag {} LSN",
            last.behind_ms, last.lag_lsn
        );
    }
    if let Err(e) = htapbench::openloop::backlog_verdict(&gen.subs, limits) {
        problems.push(format!("invalid run: {e}"));
    }
}

/// Indices `0..n`, in a fresh seeded order every cycle.
pub fn shuffled_cycle(n: usize, mut rng: rand::rngs::StdRng) -> impl FnMut() -> usize {
    let mut order: Vec<usize> = Vec::new();
    move || {
        if order.is_empty() {
            order = (0..n).collect();
            // Fisher-Yates.
            for i in (1..n).rev() {
                order.swap(i, rand::Rng::gen_range(&mut rng, 0..=i));
            }
        }
        order.pop().expect("refilled above")
    }
}

/// Geometric mean over queries of each query's median latency, per half.
pub fn geomean_of_medians(samples: &[(usize, Sample)], n_queries: usize) -> Headline {
    let per_half = |traced: bool| {
        let medians: Vec<f64> = (0..n_queries)
            .filter_map(|q| {
                let xs: Vec<f64> = samples
                    .iter()
                    .filter(|(qi, s)| *qi == q && s.traced == traced)
                    .map(|(_, s)| s.ms)
                    .collect();
                stats::median(&xs)
            })
            .collect();
        stats::geomean(&medians)
    };
    Headline::of(per_half(false), per_half(true))
}

/// Replication counters of an RO, read before and after the window.
#[derive(Debug, Clone, Copy)]
pub struct Repl {
    txns: u64,
    batches: u64,
}

impl Repl {
    /// Current counters of `ro`'s pipeline.
    pub fn read(ro: &RoNode) -> Repl {
        let m = ro.pipeline.metrics();
        Repl {
            txns: m.txns_committed.load(Ordering::Relaxed),
            batches: m.batches.load(Ordering::Relaxed),
        }
    }
}

/// Set the `replication.*` counters of `ro` over the window.
pub fn set_replication_layers(layers: &mut Layers, ro: &RoNode, before: Repl, lag_end: u64) {
    let now = Repl::read(ro);
    if now.batches > before.batches {
        let txns = (now.txns - before.txns) as f64;
        layers.set(
            "replication.txns_per_batch",
            txns / (now.batches - before.batches) as f64,
        );
    }
    layers.set("replication.lag_lsn_end", lag_end as f64);
}

//! Tests of the benchmark's own logic: metric names, sample-count rules,
//! open-loop lateness and backlog accounting, and span self time.

use htapbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use htapbench::openloop::{backlog_verdict, drive, BacklogLimits, Load, OpenLoop, Sent, SubWindow};
use htapbench::report::{valid_name, valid_unit, Metric, Outcome};
use htapbench::stats::{geomean, median, percentile, supported_tail, MIN_BEYOND};
use htapbench::trace::{self_time_by_name, self_times, Span, Tracer};
use std::time::{Duration, Instant};

#[test]
fn metric_names_follow_the_pattern() {
    for ok in ["setup_s", "sql.parse_us", "a-b.c_d", "9lives", "x"] {
        assert!(valid_name(ok), "{ok} should be valid");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/y",
        "päd",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?} should be invalid");
    }
    assert!(valid_name(&"x".repeat(64)));
    for ok in ["ms", "1/s", "%", "MiB", "count"] {
        assert!(valid_unit(ok));
    }
    assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
}

#[test]
fn catalogue_names_are_valid_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name) && valid_unit(d.unit), "{d:?}");
        assert!(seen.insert(d.name), "{} listed twice", d.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

/// Names (and units, where given) listed in one array of BENCHMARK.json.
fn listed(compact: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = compact
        .find(&format!("\"{key}\":["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &compact[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split("{\"name\":\"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit = entry
                .split("\"unit\":\"")
                .nth(1)
                .map(|u| u[..u.find('"').expect("unit closes")].to_string());
            (name, unit)
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    let defs = |ds: &[htapbench::catalog::Def]| -> Vec<(String, Option<String>)> {
        ds.iter()
            .map(|d| (d.name.to_string(), Some(d.unit.to_string())))
            .collect()
    };
    assert_eq!(listed(&compact, "end_to_end"), defs(END_TO_END));
    assert_eq!(listed(&compact, "per_layer"), defs(PER_LAYER));
    let workloads: Vec<String> = listed(&compact, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn outcome_renders_one_json_line_and_rejects_bad_metrics() {
    let m = |name, value| Metric {
        name,
        value,
        unit: "ms",
    };
    let ok = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![m("latency_ms", 1.25), m("vd_p50_ms", 0.1)],
    };
    assert_eq!(
        ok.to_json().unwrap(),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": \
         {\"value\": 1.25, \"unit\": \"ms\"}, \"vd_p50_ms\": {\"value\": 0.1, \"unit\": \"ms\"}}}"
    );
    let twice = Outcome {
        metrics: vec![m("a", 1.0), m("a", 2.0)],
        ..ok.clone()
    };
    assert!(twice.to_json().is_err());
    let nan = Outcome {
        metrics: vec![m("a", f64::NAN)],
        ..ok.clone()
    };
    assert!(nan.to_json().is_err());
    let bad = Outcome {
        metrics: vec![m("bad name", 1.0)],
        ..ok
    };
    assert!(bad.to_json().is_err());
}

#[test]
fn median_needs_one_sample_and_averages_the_middle_pair() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&xs, 99.0), Some(990.0));
    // 999 samples leave only 9 above the p99 rank.
    assert_eq!(percentile(&xs[..999], 99.0), None);
    let small: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&small, 50.0), Some(10.0));
    assert_eq!(percentile(&small, 51.0), None);
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(percentile(&[], 50.0), None);
    // The highest supported tail of 500 samples is p98.
    let five_hundred: Vec<f64> = (1..=500).map(f64::from).collect();
    assert_eq!(supported_tail(&five_hundred, 99.0), Some((98.0, 490.0)));
    assert_eq!(supported_tail(&small, 99.0), Some((50.0, 10.0)));
    assert_eq!(supported_tail(&small[..15], 99.0), None);
}

#[test]
fn geomean_needs_positive_samples() {
    assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[]), None);
}

#[test]
fn open_loop_times_from_the_due_time_and_counts_lateness() {
    let t0 = Instant::now();
    let ms = Duration::from_millis;
    let mut ol = OpenLoop::new(t0, 1000.0);
    assert_eq!(ol.next_due(), t0);
    // On time.
    assert_eq!(ol.send(t0).due, t0);
    // A 5 ms stall: the next send is due at 1 ms and goes out 4 ms late,
    // and the generator is 3 ms behind (the 2 ms send is overdue).
    let sent = ol.send(t0 + ms(5));
    assert_eq!(sent.due, t0 + ms(1));
    assert_eq!(ol.behind(t0 + ms(5)), ms(3));
    // Catching up: sends due at 2, 3, 4 ms go out at 5 ms too.
    let mut late = vec![0.0, sent.late_ms];
    for _ in 0..3 {
        late.push(ol.send(t0 + ms(5)).late_ms);
    }
    assert_eq!(ol.issued(), 5);
    assert_eq!(ol.behind(t0 + ms(5)), Duration::ZERO);
    let late: Vec<i64> = late.iter().map(|x| x.round() as i64).collect();
    assert_eq!(late, vec![0, 4, 3, 2, 1]);
    // Sending early is never negative lateness.
    let mut early = OpenLoop::new(t0 + ms(10), 100.0);
    assert_eq!(early.send(t0).late_ms, 0.0);
}

#[test]
fn backlog_guard_rejects_growth_and_falling_behind() {
    let limits = BacklogLimits {
        max_behind_ms: 100.0,
        lag_slack_lsn: 50,
    };
    let w = |lag_lsn, behind_ms| SubWindow { lag_lsn, behind_ms };
    let steady = [
        w(10, 0.0),
        w(30, 0.0),
        w(5, 2.0),
        w(20, 0.0),
        w(12, 0.0),
        w(25, 1.0),
    ];
    assert!(backlog_verdict(&steady, limits).is_ok());
    let growing = [
        w(10, 0.0),
        w(20, 0.0),
        w(400, 0.0),
        w(800, 0.0),
        w(1600, 0.0),
        w(3200, 0.0),
    ];
    assert!(backlog_verdict(&growing, limits)
        .unwrap_err()
        .contains("backlog grew"));
    let behind = [w(10, 0.0), w(10, 50.0), w(10, 150.0)];
    assert!(backlog_verdict(&behind, limits)
        .unwrap_err()
        .contains("behind schedule"));
    // A stall the generator recovered from is fine.
    let recovered = [w(10, 0.0), w(10, 500.0), w(10, 0.0)];
    assert!(backlog_verdict(&recovered, limits).is_ok());
    assert!(backlog_verdict(&steady[..2], limits).is_err());
}

fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        root: 1,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span(1, None, "root", 0, 100),
        // Overlapping children cover 10..40 once, not twice.
        span(2, Some(1), "a", 10, 30),
        span(3, Some(1), "b", 20, 40),
        span(4, Some(1), "c", 60, 70),
        // A grandchild counts against its parent only.
        span(5, Some(4), "d", 62, 66),
        // A child reaching past its parent is clipped.
        span(6, Some(1), "e", 95, 120),
    ];
    assert_eq!(
        self_times(&spans),
        vec![100 - 30 - 10 - 5, 20, 20, 6, 4, 25]
    );
    let by = self_time_by_name(&spans);
    assert_eq!(by["root"], (1, 55));
    assert_eq!(by["c"], (1, 6));
}

#[test]
fn tracer_nests_spans_and_records_nothing_when_disabled() {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 7);
    assert_eq!(t.span("off", |_| 1), 1);
    t.set_enabled(true);
    let v = t.span("outer", |t| {
        t.span("inner", |_| ());
        t.span("waited", |_| ());
        2
    });
    assert_eq!(v, 2);
    t.span("second", |_| ());
    let spans = t.into_spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["outer", "inner", "waited", "second"]);
    let outer = &spans[0];
    assert_eq!(outer.id >> 40, 7);
    assert_eq!(outer.parent, None);
    assert_eq!(outer.root, outer.id);
    for child in &spans[1..3] {
        assert_eq!(child.parent, Some(outer.id));
        assert_eq!(child.root, outer.id);
        assert!(child.start_ns >= outer.start_ns && child.end_ns <= outer.end_ns);
    }
    assert_eq!(spans[3].root, spans[3].id);
}

/// A load that sleeps until each send is due and stalls once, in the
/// send of `stall_seq`.
struct Stalling {
    stall_seq: Option<u64>,
    stall: Duration,
    sent: u64,
}

impl Load for Stalling {
    fn idle(&mut self, due: Instant) {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    }

    fn issue(&mut self, _sent: Sent, seq: u64) {
        self.sent += 1;
        if self.stall_seq == Some(seq) {
            std::thread::sleep(self.stall);
        }
    }

    fn lag_lsn(&self) -> u64 {
        0
    }
}

/// Drive `load` at 200/s over three 100 ms sub-windows.
fn drive_window(load: &mut Stalling) -> Vec<SubWindow> {
    let start = Instant::now();
    let ms = Duration::from_millis;
    let ends = [start + ms(100), start + ms(200), start + ms(300)];
    drive(load, &mut OpenLoop::new(start, 200.0), &ends, || false)
}

#[test]
fn generator_stalled_across_the_window_end_is_refused() {
    let limits = BacklogLimits {
        max_behind_ms: 100.0,
        lag_slack_lsn: 50,
    };
    // On schedule: sends due at 0, 5, ..., 295 ms, none behind.
    let mut on_time = Stalling {
        stall_seq: None,
        stall: Duration::ZERO,
        sent: 0,
    };
    let subs = drive_window(&mut on_time);
    assert_eq!(subs.len(), 3);
    assert_eq!(on_time.sent, 60);
    assert!(backlog_verdict(&subs, limits).is_ok(), "{subs:?}");
    // The send due at 280 ms stalls for 300 ms, past the end at 300 ms.
    // The generator then sends the overdue operations and stops; the
    // window's end must still be seen as ~295 ms behind.
    let mut stalled = Stalling {
        stall_seq: Some(56),
        stall: Duration::from_millis(300),
        sent: 0,
    };
    let subs = drive_window(&mut stalled);
    assert_eq!(stalled.sent, 60);
    assert!(subs[2].behind_ms >= 250.0, "{subs:?}");
    assert!(backlog_verdict(&subs, limits)
        .unwrap_err()
        .contains("behind schedule"));
    // A stall inside the window that the generator recovers from by the
    // end shows in its sub-window and in lateness, not in the verdict.
    let mut recovered = Stalling {
        stall_seq: Some(22),
        stall: Duration::from_millis(150),
        sent: 0,
    };
    let subs = drive_window(&mut recovered);
    assert!(subs[1].behind_ms >= 100.0, "{subs:?}");
    assert!(backlog_verdict(&subs, limits).is_ok(), "{subs:?}");
}

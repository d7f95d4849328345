//! Timeline-sampling overhead: the traffic workload with and without the
//! windowed telemetry recorder, at the million-session scale.
//!
//! Each scale runs [`run_traffic`] twice — bare kernel vs. kernel with a
//! 1-second timeline (tick hook, window sampling, SLO tracking, flight
//! ring) — taking the best of two runs per arm to damp scheduler noise,
//! and reports both arms' events-per-wall-second plus the overhead
//! percentage. The acceptance target is ≤ 10% overhead at the top scale.
//! A same-seed re-run pins determinism: the timeline's JSON-lines export
//! must be byte-identical. Results land in `BENCH_timeline.json`.
//!
//! ```sh
//! cargo bench -p redlight-bench --bench timeline            # full scale + JSON
//! cargo bench -p redlight-bench --bench timeline -- --test  # small smoke (JSON under target/bench-smoke/)
//! ```

use redlight_obs::ObsContext;
use redlight_sim::{run_traffic, TimelineSpec, TrafficConfig, TrafficReport};
use redlight_websim::WorldConfig;

fn config(sessions: u64, timeline: bool) -> TrafficConfig {
    TrafficConfig {
        world: WorldConfig::tiny(2019),
        timeline: timeline.then(TimelineSpec::default),
        ..TrafficConfig::new(sessions)
    }
}

/// Best-of-`runs` kernel wall time for one arm (fastest run is the least
/// noisy estimate of the arm's cost).
fn best_of(sessions: u64, timeline: bool, runs: usize) -> TrafficReport {
    (0..runs)
        .map(|_| run_traffic(&config(sessions, timeline), &ObsContext::new()))
        .min_by(|a, b| a.wall.cmp(&b.wall))
        .expect("at least one run")
}

struct Row {
    sessions: u64,
    base: TrafficReport,
    timed: TrafficReport,
}

impl Row {
    fn base_rate(&self) -> f64 {
        self.base.events as f64 / self.base.wall.as_secs_f64().max(1e-9)
    }

    fn timeline_rate(&self) -> f64 {
        self.timed.events as f64 / self.timed.wall.as_secs_f64().max(1e-9)
    }

    fn overhead_pct(&self) -> f64 {
        (self.base_rate() / self.timeline_rate().max(1e-9) - 1.0) * 100.0
    }
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from("{\"bench\":\"timeline\",\"world\":\"tiny\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tl = r.timed.timeline.as_ref().expect("timeline arm records one");
        out.push_str(&format!(
            "{{\"sessions\":{},\"events\":{},\"windows\":{},\"slo_events\":{},\
             \"flight_freezes\":{},\"base_events_per_sec\":{:.0},\
             \"timeline_events_per_sec\":{:.0},\"overhead_pct\":{:.2}}}",
            r.sessions,
            r.timed.events,
            tl.timeline.windows().len(),
            tl.slo_events.len(),
            tl.flight_freezes,
            r.base_rate(),
            r.timeline_rate(),
            r.overhead_pct(),
        ));
    }
    out.push_str("]}\n");
    out
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let scales: &[u64] = if test_mode { &[5_000] } else { &[1_000_000] };
    let runs = 2;

    // Determinism pin: same seed ⇒ byte-identical timeline exports, and
    // the kernel must deliver exactly as many events with the hook as
    // without it (sampling reads, never schedules).
    let pin = run_traffic(&config(scales[0].min(5_000), true), &ObsContext::new());
    let pin2 = run_traffic(&config(scales[0].min(5_000), true), &ObsContext::new());
    let (a, b) = (
        pin.timeline.as_ref().expect("timeline on"),
        pin2.timeline.as_ref().expect("timeline on"),
    );
    assert_eq!(
        a.json_lines(),
        b.json_lines(),
        "same-seed timelines must export byte-identically"
    );
    assert_eq!(a.csv(), b.csv());
    let bare = run_traffic(&config(scales[0].min(5_000), false), &ObsContext::new());
    assert_eq!(
        bare.events, pin.events,
        "the tick hook must not change the event schedule"
    );

    let mut rows = Vec::new();
    for &sessions in scales {
        let base = best_of(sessions, false, runs);
        let timed = best_of(sessions, true, runs);
        let row = Row {
            sessions,
            base,
            timed,
        };
        println!(
            "{:>9} sessions: bare {:>10.0} ev/s, timeline {:>10.0} ev/s \
             ({:>+5.2}% overhead, {} windows)",
            row.sessions,
            row.base_rate(),
            row.timeline_rate(),
            row.overhead_pct(),
            row.timed
                .timeline
                .as_ref()
                .map(|t| t.timeline.windows().len())
                .unwrap_or(0),
        );
        if !test_mode {
            assert!(
                row.overhead_pct() <= 10.0,
                "timeline sampling overhead {:.2}% exceeds the 10% budget at {} sessions",
                row.overhead_pct(),
                row.sessions
            );
        }
        rows.push(row);
    }

    let path = redlight_bench::results_path("timeline", test_mode);
    std::fs::write(&path, json(&rows)).expect("write BENCH_timeline.json");
    println!("wrote {}", path.display());
}

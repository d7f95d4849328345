//! Traffic-kernel sweep: the discrete-event visitor workload at rising
//! session counts, up to one million simulated visitors.
//!
//! Each point runs [`run_traffic`] over the tiny world with the default
//! profile and reports kernel throughput (events and sessions per
//! *wall* second), logical throughput, and the request/page latency
//! percentiles the `obs` histograms saw. A same-seed re-run at the
//! smallest scale pins determinism — the rendered report must be
//! byte-identical. Results land in `BENCH_traffic.json` at the repo root.
//!
//! ```sh
//! cargo bench -p redlight-bench --bench traffic            # full sweep + JSON
//! cargo bench -p redlight-bench --bench traffic -- --test  # small smoke (JSON under target/bench-smoke/)
//! ```

use std::time::Instant;

use redlight_obs::ObsContext;
use redlight_sim::{run_traffic, TrafficConfig, TrafficReport};
use redlight_websim::WorldConfig;

struct Row {
    sessions: u64,
    report: TrafficReport,
    /// Wall time of the whole run (world build + harvest + kernel).
    total_wall: f64,
}

fn config(sessions: u64) -> TrafficConfig {
    TrafficConfig {
        world: WorldConfig::tiny(2019),
        ..TrafficConfig::new(sessions)
    }
}

fn run(sessions: u64) -> Row {
    let t0 = Instant::now();
    let report = run_traffic(&config(sessions), &ObsContext::new());
    Row {
        sessions,
        total_wall: t0.elapsed().as_secs_f64(),
        report,
    }
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from("{\"bench\":\"traffic\",\"world\":\"tiny\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rep = &r.report;
        let kernel_wall = rep.wall.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "{{\"sessions\":{},\"events\":{},\"requests\":{},\
             \"events_per_wall_sec\":{:.0},\"sessions_per_wall_sec\":{:.0},\
             \"logical_sessions_per_sec\":{:.1},\"logical_requests_per_sec\":{:.1},\
             \"makespan_s\":{:.3},\"request_p50_us\":{},\"request_p95_us\":{},\
             \"request_p99_us\":{},\"page_p50_us\":{},\"page_p99_us\":{},\
             \"peak_in_flight\":{},\"peak_queue\":{},\"kernel_wall_s\":{:.3},\
             \"total_wall_s\":{:.3}}}",
            r.sessions,
            rep.events,
            rep.requests,
            rep.events as f64 / kernel_wall,
            (rep.completed + rep.failed) as f64 / kernel_wall,
            rep.sessions_per_sec(),
            rep.requests_per_sec(),
            rep.makespan.as_secs_f64(),
            rep.request_p50_us,
            rep.request_p95_us,
            rep.request_p99_us,
            rep.page_p50_us,
            rep.page_p99_us,
            rep.peak_in_flight,
            rep.peak_queue,
            rep.wall.as_secs_f64(),
            r.total_wall,
        ));
    }
    out.push_str("]}\n");
    out
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let scales: &[u64] = if test_mode {
        &[2_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    // Determinism pin: the same seed must render byte-identically.
    let pin = scales[0];
    let a = run_traffic(&config(pin), &ObsContext::new());
    let b = run_traffic(&config(pin), &ObsContext::new());
    assert_eq!(
        a.render(),
        b.render(),
        "same-seed traffic reports must be byte-identical"
    );

    let mut rows = Vec::new();
    for &sessions in scales {
        let row = run(sessions);
        let rep = &row.report;
        assert_eq!(
            rep.completed + rep.failed,
            sessions,
            "every session must finish"
        );
        assert!(rep.request_p99_us >= rep.request_p50_us, "p99 ≥ p50");
        assert!(rep.makespan.as_secs_f64() > 0.0);
        println!(
            "{:>9} sessions: {:>9} events in {:>7.2}s wall ({:>9.0} ev/s) — \
             logical {:>6.1} sessions/s, request p50 {} µs p99 {} µs, \
             peak in-flight {}",
            row.sessions,
            rep.events,
            rep.wall.as_secs_f64(),
            rep.events as f64 / rep.wall.as_secs_f64().max(1e-9),
            rep.sessions_per_sec(),
            rep.request_p50_us,
            rep.request_p99_us,
            rep.peak_in_flight,
        );
        rows.push(row);
    }

    if !test_mode {
        // Guardrail: kernel throughput must not collapse at the top scale —
        // memory stays bounded, so events/second should be roughly flat.
        let base = &rows[0];
        let top = rows.last().expect("at least one row");
        let base_rate = base.report.events as f64 / base.report.wall.as_secs_f64().max(1e-9);
        let top_rate = top.report.events as f64 / top.report.wall.as_secs_f64().max(1e-9);
        assert!(
            top_rate >= base_rate / 4.0,
            "kernel throughput collapsed at scale: {top_rate:.0} ev/s at {} vs {base_rate:.0} at {}",
            top.sessions,
            base.sessions
        );
    }

    let path = redlight_bench::results_path("traffic", test_mode);
    std::fs::write(&path, json(&rows)).expect("write BENCH_traffic.json");
    println!("wrote {}", path.display());
}

//! Corpus-scale sweep: pipeline throughput and interned-string footprint
//! as the simulated world grows 1×/4×/16× (`--sites-scale` in bench form).
//!
//! For each factor the bench grows the tiny world multiplicatively (same
//! proportions, larger populations), runs collection plus the sharded
//! analysis layer (shard count = growth factor, so shard size stays
//! constant), and reports sites/second end to end together with the
//! interned bytes per recorded visit. The sweep lands in
//! `BENCH_scale.json` at the repo root; the columnar store earns its keep
//! only if sites/sec stays flat-ish and interned bytes grow at most
//! linearly with the corpus.
//!
//! ```sh
//! cargo bench -p redlight-bench --bench scale            # full sweep + JSON
//! cargo bench -p redlight-bench --bench scale -- --test  # 1× smoke, no JSON
//! ```

use std::time::Instant;

use redlight_core::stages::{self, AnalysisContext};
use redlight_core::{Study, StudyConfig};
use redlight_websim::World;

struct Row {
    factor: usize,
    sites: usize,
    visits: usize,
    wall_s: f64,
    sites_per_sec: f64,
    interned_bytes: usize,
    bytes_per_visit: f64,
}

fn sweep(factor: usize, reps: usize) -> Row {
    let mut config = StudyConfig::tiny(2019);
    config.world = config.world.scaled(factor);
    config.shards = factor;
    let world = World::build(config.world.clone());

    // The pipeline is deterministic, so every rep produces the same db and
    // results; only the wall time varies with scheduler noise. Best-of-N
    // (more reps for the cheap small scales) keeps the throughput ratio
    // honest on loaded machines.
    let mut best_wall = f64::INFINITY;
    let mut measured = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let (db, timings) = Study::collect_db(&world, &config);
        let ctx = AnalysisContext::build(&world, &config, &db);
        let (outputs, _) = stages::run(&db, &ctx, &stages::all_stages());
        let wall_s = t0.elapsed().as_secs_f64();
        assert!(
            outputs.corpus_summary.is_some(),
            "analysis produced a corpus summary"
        );
        best_wall = best_wall.min(wall_s);
        measured = Some((db, timings));
    }
    let (db, timings) = measured.expect("at least one rep ran");

    let sites: usize = timings.iter().map(|t| t.sites).sum();
    let visits: usize = db.crawls().iter().map(|c| c.visits.len()).sum();
    let interned_bytes: usize = db.crawls().iter().map(|c| c.names().arena_bytes()).sum();
    Row {
        factor,
        sites,
        visits,
        wall_s: best_wall,
        sites_per_sec: sites as f64 / best_wall.max(1e-9),
        interned_bytes,
        bytes_per_visit: interned_bytes as f64 / visits.max(1) as f64,
    }
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from("{\"bench\":\"scale\",\"world\":\"tiny\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"scale\":{},\"sites\":{},\"visits\":{},\"wall_s\":{:.3},\
             \"sites_per_sec\":{:.1},\"interned_bytes\":{},\"interned_bytes_per_visit\":{:.1}}}",
            r.factor,
            r.sites,
            r.visits,
            r.wall_s,
            r.sites_per_sec,
            r.interned_bytes,
            r.bytes_per_visit
        ));
    }
    out.push_str("]}\n");
    out
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let factors: &[usize] = if test_mode { &[1] } else { &[1, 4, 16] };

    if !test_mode {
        // One throwaway 1× run pays the process-warmup costs (allocator,
        // page cache) so the first measured scale isn't penalized.
        sweep(1, 1);
    }

    let mut rows = Vec::new();
    for &factor in factors {
        let row = sweep(factor, (16 / factor).clamp(1, 5));
        println!(
            "scale {:>2}x: {:>5} sites, {:>6} visits in {:>7.3}s — {:>8.1} sites/s, \
             {:>6.1} interned B/visit",
            row.factor, row.sites, row.visits, row.wall_s, row.sites_per_sec, row.bytes_per_visit
        );
        rows.push(row);
    }

    if test_mode {
        println!("scale: test mode, 1x smoke only, ok");
        return;
    }

    // Guardrails the sweep is meant to keep honest: throughput must not
    // collapse as the corpus grows, and interning must not go superlinear.
    let base = &rows[0];
    let top = rows.last().expect("at least one row");
    assert!(
        top.sites_per_sec >= 0.8 * base.sites_per_sec,
        "throughput collapsed: {:.1} sites/s at {}x vs {:.1} at 1x",
        top.sites_per_sec,
        top.factor,
        base.sites_per_sec
    );
    assert!(
        top.bytes_per_visit <= 1.5 * base.bytes_per_visit.max(1.0),
        "interned bytes grew superlinearly: {:.1} B/visit at {}x vs {:.1} at 1x",
        top.bytes_per_visit,
        top.factor,
        base.bytes_per_visit
    );

    let path = redlight_bench::results_path("scale", false);
    std::fs::write(&path, json(&rows)).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());
}

//! The sharded map/reduce contract: analyzing a study per-shard and
//! merging the partials must yield `StudyResults` byte-identical to the
//! monolithic whole-crawl run, for every shard count ≥ 1 — including
//! oversubscribed splits with more shards than visits.
//!
//! The measurement DB is collected once (collection is untouched by
//! sharding); every property case re-runs only the analysis layer with a
//! randomly drawn shard count and compares the rendered summary bytes.

use std::sync::OnceLock;

use proptest::prelude::*;

use redlight::core::results::StageReport;
use redlight::core::stages::{self, AnalysisContext};
use redlight::crawler::db::MeasurementDb;
use redlight::{Study, StudyConfig, World, WorldConfig};

struct Seeded {
    world: World,
    config: StudyConfig,
    db: MeasurementDb,
    monolithic_summary: String,
}

/// The seeded study, collected and analyzed monolithically exactly once.
fn seeded() -> &'static Seeded {
    static CELL: OnceLock<Seeded> = OnceLock::new();
    CELL.get_or_init(|| {
        let config = StudyConfig::tiny(4242);
        let world = World::build(WorldConfig::tiny(4242));
        let (db, _) = Study::collect_db(&world, &config);
        let mut fixture = Seeded {
            monolithic_summary: String::new(),
            world,
            config,
            db,
        };
        fixture.monolithic_summary = analyze(&fixture, 1);
        fixture
    })
}

/// Runs the full analysis layer over the seeded DB with `shards` shards
/// and renders the deterministic summary.
fn analyze(fixture: &Seeded, shards: usize) -> String {
    let config = StudyConfig {
        shards,
        ..fixture.config.clone()
    };
    let ctx = AnalysisContext::build(&fixture.world, &config, &fixture.db);
    let (outputs, _) = stages::run(&fixture.db, &ctx, &stages::all_stages());
    let best_ranks = ctx.best_ranks.clone();
    outputs
        .into_results(best_ranks, StageReport::default())
        .render_summary()
}

proptest! {
    #[test]
    fn any_shard_split_merges_byte_identical(shards in 1usize..=24) {
        let fixture = seeded();
        prop_assert_eq!(
            analyze(fixture, shards),
            fixture.monolithic_summary.clone(),
            "shards={} diverged from the monolithic run",
            shards
        );
    }
}

#[test]
fn oversubscribed_split_still_merges_identically() {
    // More shards than the tiny corpus has visits: most shards are empty.
    let fixture = seeded();
    assert_eq!(analyze(fixture, 512), fixture.monolithic_summary);
}

#[test]
fn full_sharded_study_matches_monolithic_run() {
    // End to end through `Study::run_on` with `config.shards` set, covering
    // the sharded context build, the sharded stage runner and the
    // shard-stat report.
    let config = StudyConfig::tiny(77);
    let world = World::build(WorldConfig::tiny(77));
    let mono = Study::run_on(&world, &config);
    let sharded = Study::run_on(
        &world,
        &StudyConfig {
            shards: 3,
            ..config
        },
    );
    assert_eq!(mono.render_summary(), sharded.render_summary());
    // Shard stats ride along in the report (never in the summary).
    assert!(mono.stage_report.shards.is_empty());
    assert!(!sharded.stage_report.shards.is_empty());
    for stat in &sharded.stage_report.shards {
        assert_eq!(stat.shards, 3.min(stat.visits.max(1)));
        assert!(stat.min_shard <= stat.max_shard);
        assert!(stat.interned_bytes > 0, "visited crawls intern domains");
    }
}

//! Determinism and coverage guarantees of the observability subsystem:
//! the same study configuration and fault seed must produce byte-identical
//! journal exports and metrics snapshots across runs (spans are merged
//! from per-worker shards by shard name, never by arrival order), while
//! divergent fault seeds must visibly diverge in the retry counters.

use redlight::core::stages::{self, STAGES};
use redlight::net::transport::NetProfile;
use redlight::obs::{Journal, JournalSpan, ObsContext};
use redlight::{Study, StudyConfig, World};

/// Runs the full tiny pipeline under an enabled observability context and
/// returns the context (journal + metrics) for inspection.
fn observed_run(world_seed: u64, net: NetProfile) -> ObsContext {
    let mut config = StudyConfig::tiny(world_seed);
    config.net = net;
    config.obs = ObsContext::new();
    let world = World::build(config.world.clone());
    let _results = Study::run_on(&world, &config);
    config.obs
}

#[test]
fn same_seed_produces_byte_identical_exports() {
    let net = NetProfile::named("flaky")
        .expect("flaky profile registered")
        .with_fault_seed(7);
    let a = observed_run(42, net.clone());
    let b = observed_run(42, net);

    let ja = a.trace.journal();
    let jb = b.trace.journal();
    assert_eq!(ja.json_lines(), jb.json_lines());
    assert_eq!(ja.chrome_trace(), jb.chrome_trace());

    // The deterministic metric surface (everything except wall-clock-unit
    // metrics) and its Prometheus rendering match exactly.
    assert_eq!(
        a.metrics.snapshot().deterministic(),
        b.metrics.snapshot().deterministic()
    );
    assert_eq!(
        a.metrics.snapshot().prometheus(),
        b.metrics.snapshot().prometheus()
    );
}

#[test]
fn divergent_fault_seeds_diverge_in_retry_counters() {
    let flaky = NetProfile::named("flaky").expect("flaky profile registered");
    let a = observed_run(42, flaky.clone().with_fault_seed(7));
    let b = observed_run(42, flaky.with_fault_seed(8));

    let ra = a.metrics.snapshot().counter("transport.retries");
    let rb = b.metrics.snapshot().counter("transport.retries");
    assert!(
        ra > 0 && rb > 0,
        "flaky runs retry at least once (got {ra} and {rb})"
    );
    assert_ne!(
        ra, rb,
        "different fault seeds must produce different network weather"
    );
}

#[test]
fn journal_covers_every_crawl_batch_and_stage() {
    let journal = observed_run(42, NetProfile::default()).trace.journal();
    assert_eq!(journal.dropped, 0, "nothing hit the shard cap");

    // Layer roots.
    assert_eq!(journal.count_named("collect"), 1);
    assert_eq!(journal.count_named("analyze"), 1);
    assert_eq!(journal.count_named("corpus.compile"), 1);
    assert_eq!(journal.count_named("context.build"), 1);

    // Every planned crawl records exactly one span: the tiny plan covers
    // Spain (porn + regular), USA and Russia OpenWPM sweeps plus the four
    // gate-country Selenium crawls.
    for crawl in [
        "crawl.openwpm.es.porn",
        "crawl.openwpm.es.regular",
        "crawl.openwpm.us.porn",
        "crawl.openwpm.ru.porn",
        "crawl.selenium.es",
        "crawl.selenium.us",
        "crawl.selenium.gb",
        "crawl.selenium.ru",
    ] {
        assert_eq!(journal.count_named(crawl), 1, "{crawl} span recorded");
    }

    // Crawl spans hang under the collect root; visit batches under crawls.
    let collect_id = journal.find("collect").expect("collect root").id;
    let crawl_es = journal
        .find("crawl.openwpm.es.porn")
        .expect("main crawl span");
    assert_eq!(crawl_es.parent, collect_id);
    let batches: Vec<_> = journal
        .spans
        .iter()
        .filter(|s| s.name.starts_with("visits."))
        .collect();
    assert!(!batches.is_empty(), "visit batches recorded");
    let crawl_ids: Vec<u64> = journal
        .spans
        .iter()
        .filter(|s| s.name.starts_with("crawl."))
        .map(|s| s.id)
        .collect();
    assert!(batches.iter().all(|b| crawl_ids.contains(&b.parent)));

    // Every analysis stage records exactly one span, parented on the
    // analyze root.
    let analyze_id = journal.find("analyze").expect("analyze root").id;
    for stage in STAGES {
        let name = format!("stage.{stage}");
        let span = journal
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} span recorded"));
        assert_eq!(span.parent, analyze_id, "{name} hangs under analyze");
    }

    // Chrome trace export stays balanced (one B and one E per span).
    let trace = journal.chrome_trace();
    let begins = trace.matches("\"ph\":\"B\"").count();
    let ends = trace.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, journal.len());
    assert_eq!(begins, ends);
}

#[test]
fn observed_results_match_unobserved_results() {
    // Observability must be a pure tap: the summary a journaled run
    // renders is byte-identical to the default path's.
    let config = StudyConfig::tiny(42);
    let world = World::build(config.world.clone());
    let plain = Study::run_on(&world, &config);
    let observed = Study::run_on(
        &world,
        &StudyConfig {
            obs: ObsContext::new(),
            ..config
        },
    );
    assert_eq!(plain.render_summary(), observed.render_summary());
}

#[test]
fn stage_subset_journal_matches_the_full_run_layout() {
    // A stage subset (what `reproduce --stage` runs) goes through the same
    // analysis entry as the full run: its stage spans hang under one
    // `analyze` root next to `context.build`, and the layer roots tick in
    // the same order as in the full run's journal.
    let selected = stages::expand_selection(&["cookies".to_string()]).expect("known stage");
    let mut config = StudyConfig::tiny(42);
    config.obs = ObsContext::new();
    let world = World::build(config.world.clone());
    let (db, crawls) = Study::collect_db(&world, &config);
    let _analysis = Study::analyze(&world, &config, &db, crawls, &selected);
    let subset = config.obs.trace.journal();
    let full = observed_run(42, NetProfile::default()).trace.journal();

    let analyze = subset.find("analyze").expect("analyze root");
    assert_eq!(analyze.parent, 0);
    let build = subset.find("context.build").expect("context.build span");
    assert_eq!(build.parent, analyze.id);
    assert!(build.ts > analyze.ts);
    let stage = subset.find("stage.cookies").expect("selected stage span");
    assert_eq!(
        stage.parent, analyze.id,
        "stage.cookies hangs under analyze"
    );
    assert!(
        stage.ts > build.end,
        "stages tick after the context is built"
    );
    let stage_spans = subset
        .spans
        .iter()
        .filter(|s| s.name.starts_with("stage."))
        .count();
    assert_eq!(stage_spans, 1, "only the selected stage ran");

    let layout = |journal: &Journal| -> Vec<String> {
        let mut roots: Vec<&JournalSpan> = journal
            .spans
            .iter()
            .filter(|s| {
                ["collect", "analyze", "context.build", "stage.cookies"].contains(&s.name.as_str())
            })
            .collect();
        roots.sort_by_key(|s| s.ts);
        roots.iter().map(|s| s.name.clone()).collect()
    };
    assert_eq!(layout(&subset), layout(&full));
}

//! Shared fixtures for the criterion benches.
//!
//! A bench builds the fixture once (world + the two main Spanish crawls —
//! the expensive, non-benchmarked part), then lets Criterion time the step
//! it studies. Per-table output and per-stage wall times come from
//! `reproduce` (`--stage <name> --timings`), not from benches.

use redlight_analysis::ats::AtsClassifier;
use redlight_crawler::corpus::{CorpusCompiler, CorpusReport};
use redlight_crawler::db::{CorpusLabel, CrawlRecord};
use redlight_crawler::openwpm::{CrawlConfig, OpenWpmCrawler};
use redlight_net::geoip::Country;
use redlight_websim::{World, WorldConfig};

/// Seed shared by all benches so their outputs cross-reference.
pub const BENCH_SEED: u64 = 2019;

/// A world with compiled corpus and the two main Spanish crawls.
pub struct Fixture {
    pub world: World,
    pub corpus: CorpusReport,
    pub porn: CrawlRecord,
    pub regular: CrawlRecord,
}

impl Fixture {
    /// Builds the standard small-scale fixture (~340 porn sites).
    pub fn small() -> Fixture {
        Self::with_config(WorldConfig::small(BENCH_SEED))
    }

    /// Builds the tiny fixture for crawl-heavy benches.
    pub fn tiny() -> Fixture {
        Self::with_config(WorldConfig::tiny(BENCH_SEED))
    }

    fn with_config(config: WorldConfig) -> Fixture {
        let world = World::build(config);
        let corpus = CorpusCompiler::new(&world).compile();
        let porn = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Spain,
                corpus: CorpusLabel::Porn,
                store_dom: true,
            },
        )
        .crawl(&corpus.sanitized);
        let regular = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Spain,
                corpus: CorpusLabel::Regular,
                store_dom: false,
            },
        )
        .crawl(&corpus.reference_regular);
        Fixture {
            world,
            corpus,
            porn,
            regular,
        }
    }

    /// The blocklist classifier for this world.
    pub fn classifier(&self) -> AtsClassifier {
        AtsClassifier::from_lists(&self.world.easylist, &self.world.easyprivacy)
    }

    /// Porn domains sorted by best 2018 rank.
    pub fn ranked_domains(&self) -> Vec<String> {
        let histories = self.world.rank_histories();
        let mut ranked = self.corpus.sanitized.clone();
        ranked.sort_by_key(|d| histories.get(d).and_then(|h| h.best()).unwrap_or(u32::MAX));
        ranked
    }
}

/// Where a bench writes its `BENCH_<name>.json` rows: the committed file at
/// the repo root after a full run, `target/bench-smoke/` after a `--test`
/// smoke run, so smoke rows never overwrite committed results.
pub fn results_path(name: &str, test_mode: bool) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if test_mode {
        root.join("target/bench-smoke")
    } else {
        root
    };
    std::fs::create_dir_all(&dir).expect("create the bench results directory");
    dir.join(format!("BENCH_{name}.json"))
}

/// Criterion defaults tuned for heavyweight end-to-end benches.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

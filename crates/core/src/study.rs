//! The end-to-end pipeline driver: plan the crawls, collect the
//! measurement database, run the analysis stages, assemble the results.
//!
//! The pipeline has three layers, each with one entry point:
//!
//! 1. **Collection** — [`StudyConfig::crawl_plan`] derives a
//!    [`CrawlPlan`] (countries × corpora × store-DOM flags plus the
//!    Selenium interaction crawls) and [`Study::collect_db`] executes it,
//!    recording *every* crawl into a [`MeasurementDb`].
//! 2. **Analysis** — [`Study::analyze`] derives the shared
//!    [`AnalysisContext`] and runs the selected stages over the DB,
//!    independent stages concurrently.
//! 3. **Reporting** — per-crawl and per-stage timings land in a
//!    [`StageReport`] inside [`StudyResults`].
//!
//! [`Study::run_on`] is exactly `collect_db` then `analyze` over every
//! stage; `reproduce --stage` runs the same two calls over a subset.
//! Telemetry and the analysis shard count travel on the [`StudyConfig`]
//! every layer receives: [`StudyConfig::obs`] (off by default) collects the
//! span journal and metrics, and [`StudyConfig::shards`] fans the
//! decomposable analysis scans over visit-range shards. Neither changes
//! the results.

use std::collections::{BTreeMap, BTreeSet};

use redlight_crawler::corpus::CorpusCompiler;
use redlight_crawler::db::{CorpusLabel, MeasurementDb};
use redlight_crawler::openwpm::CrawlConfig;
use redlight_crawler::plan::{
    CrawlPlan, CrawlSpec, CrawlTiming, DomainSel, InteractionSpec, PlanDomains,
};
use redlight_net::geoip::Country;
use redlight_net::transport::NetProfile;
use redlight_obs::ObsContext;
use redlight_websim::{World, WorldConfig};

use crate::results::{StageReport, StudyResults};
use crate::stages::{self, AnalysisContext, StageOutputs, GATE_COUNTRIES};

/// Study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// World.
    pub world: WorldConfig,
    /// Countries to crawl (Spain is mandatory; the paper uses six).
    pub countries: Vec<Country>,
    /// Size of the manually studied most-popular subset for age gates
    /// (50 in the paper; scaled for smaller worlds).
    pub agegate_top_n: usize,
    /// Cap on policy pairs examined for the §7.3 similarity sweep.
    pub max_policy_pairs: usize,
    /// Network profile every crawl runs over: transport stack (direct /
    /// metered / fault-injecting) plus the visit retry policy. The default
    /// injects nothing, so results stay byte-identical to a direct run.
    pub net: NetProfile,
    /// Telemetry every layer records into: the span journal (disabled by
    /// default) and the metrics registry. Results never depend on it.
    pub obs: ObsContext,
    /// How many contiguous visit-range shards the decomposable analysis
    /// scans fan over. `1` (the default) scans each crawl whole on the
    /// calling thread; larger counts bound per-scan memory by the shard
    /// size. Results are byte-identical for every count.
    pub shards: usize,
}

impl StudyConfig {
    /// Paper-scale study (slow: six full crawls).
    pub fn paper_scale(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::paper_scale(seed),
            countries: Country::ALL.to_vec(),
            agegate_top_n: 50,
            max_policy_pairs: 1_300_000,
            net: NetProfile::default(),
            obs: ObsContext::disabled(),
            shards: 1,
        }
    }

    /// A ~20× smaller study for tests, examples and benches.
    pub fn small(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::small(seed),
            countries: Country::ALL.to_vec(),
            agegate_top_n: 12,
            max_policy_pairs: 40_000,
            net: NetProfile::default(),
            obs: ObsContext::disabled(),
            shards: 1,
        }
    }

    /// Tiny smoke-test study.
    pub fn tiny(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::tiny(seed),
            countries: vec![Country::Spain, Country::Usa, Country::Russia],
            agegate_top_n: 8,
            max_policy_pairs: 5_000,
            net: NetProfile::default(),
            obs: ObsContext::disabled(),
            shards: 1,
        }
    }

    /// Every crawl the study performs, as data.
    ///
    /// * OpenWPM: the main Spanish porn crawl (DOM retained for banner
    ///   analysis) + the Spanish regular reference crawl, then one porn
    ///   crawl per remaining geo-sweep country — the USA keeps its DOM
    ///   for Table 8's EU-vs-USA comparison, the rest are summary-only.
    /// * Selenium: the full-corpus Spanish interaction crawl (§7.3/§4.1)
    ///   plus the §7.2 age-gate crawls of the top-N set from the other
    ///   [`GATE_COUNTRIES`].
    pub fn crawl_plan(&self) -> CrawlPlan {
        let mut openwpm = vec![
            CrawlSpec {
                config: CrawlConfig {
                    country: Country::Spain,
                    corpus: CorpusLabel::Porn,
                    store_dom: true,
                },
                domains: DomainSel::Porn,
                net: self.net.clone(),
            },
            CrawlSpec {
                config: CrawlConfig {
                    country: Country::Spain,
                    corpus: CorpusLabel::Regular,
                    store_dom: false,
                },
                domains: DomainSel::Regular,
                net: self.net.clone(),
            },
        ];
        for &country in self.countries.iter().filter(|c| **c != Country::Spain) {
            openwpm.push(CrawlSpec {
                config: CrawlConfig {
                    country,
                    corpus: CorpusLabel::Porn,
                    store_dom: country == Country::Usa,
                },
                domains: DomainSel::Porn,
                net: self.net.clone(),
            });
        }

        let mut interactions = vec![InteractionSpec {
            country: Country::Spain,
            domains: DomainSel::Porn,
            net: self.net.clone(),
        }];
        for country in GATE_COUNTRIES {
            if country != Country::Spain {
                interactions.push(InteractionSpec {
                    country,
                    domains: DomainSel::AgeGateTop,
                    net: self.net.clone(),
                });
            }
        }

        CrawlPlan {
            openwpm,
            interactions,
        }
    }
}

/// The analysis half of a run: the outputs of the stages that ran, the
/// instrumentation report and the rank artifact results assembly needs.
pub struct Analysis {
    /// One slot per stage, filled for the stages that ran.
    pub outputs: StageOutputs,
    /// Per-domain best 2018 rank.
    pub best_ranks: BTreeMap<String, u32>,
    /// Crawl, stage, cache and shard instrumentation.
    pub report: StageReport,
}

/// The study driver.
pub struct Study;

impl Study {
    /// The collection layer: compiles the corpus, derives the crawl plan
    /// and executes it, recording every OpenWPM and Selenium crawl (the
    /// OpenWPM-SQLite stand-in) with per-crawl wall times. This is the
    /// literal first half of [`Study::run_on`]; downstream consumers that
    /// want to run their own analyses call it and read the tables.
    ///
    /// Records a `collect` span (one `corpus.compile` child, then
    /// per-crawl subtrees in per-worker shards) into `config.obs.trace` and
    /// publishes every transport and crawl counter into
    /// `config.obs.metrics`.
    pub fn collect_db(world: &World, config: &StudyConfig) -> (MeasurementDb, Vec<CrawlTiming>) {
        let mut tracer = config.obs.tracer("collect");
        tracer.open("collect");

        tracer.open("corpus.compile");
        let corpus = CorpusCompiler::new(world).compile();
        let (_, _, ranked) = stages::ranked_corpus(world, &corpus.sanitized);
        let top: Vec<String> = ranked.into_iter().take(config.agegate_top_n).collect();
        tracer.attr("candidates", corpus.candidates.len());
        tracer.attr("sanitized", corpus.sanitized.len());
        tracer.close();

        let (db, timings) = config.crawl_plan().execute_observed(
            world,
            PlanDomains {
                porn: &corpus.sanitized,
                regular: &corpus.reference_regular,
                agegate_top: &top,
            },
            &ObsContext {
                parent: tracer.link(),
                ..config.obs.clone()
            },
        );
        tracer.attr("crawls", timings.len());
        tracer.close();
        tracer.finish();
        (db, timings)
    }

    /// The analysis layer: builds the [`AnalysisContext`] and runs the
    /// `selected` stages over `db` (see [`stages::expand_selection`]),
    /// reporting `crawls` alongside the stage timings. This is the literal
    /// second half of [`Study::run_on`].
    ///
    /// Records an `analyze` span (one `context.build` child, then a
    /// `stage.<name>` span per stage in per-stage shards) into
    /// `config.obs.trace` and publishes the stage and cache counters into
    /// `config.obs.metrics`.
    pub fn analyze(
        world: &World,
        config: &StudyConfig,
        db: &MeasurementDb,
        crawls: Vec<CrawlTiming>,
        selected: &BTreeSet<&'static str>,
    ) -> Analysis {
        let mut tracer = config.obs.tracer("analyze");
        tracer.open("analyze");
        tracer.open("context.build");
        let mut ctx = AnalysisContext::build(world, config, db);
        tracer.attr("corpus_sanitized", ctx.corpus.sanitized.len());
        tracer.close();
        ctx.obs.parent = tracer.link();
        let (outputs, stage_timings) = stages::run(db, &ctx, selected);
        tracer.attr("stages", stage_timings.len());
        tracer.close();
        tracer.finish();

        config.obs.metrics.absorb(&ctx.cache_metrics());
        Analysis {
            outputs,
            report: StageReport {
                crawls,
                stages: stage_timings,
                caches: ctx.cache_counters(),
                shards: stages::shard_stats(db, config.shards),
            },
            best_ranks: std::mem::take(&mut ctx.best_ranks),
        }
    }

    /// Runs the full pipeline and returns every table/figure.
    pub fn run(config: StudyConfig) -> StudyResults {
        let world = World::build(config.world.clone());
        Self::run_on(&world, &config)
    }

    /// Runs the pipeline on an existing world (lets callers keep the world
    /// for validation against ground truth): [`collect_db`](Self::collect_db)
    /// then [`analyze`](Self::analyze) over every stage.
    pub fn run_on(world: &World, config: &StudyConfig) -> StudyResults {
        let (db, crawls) = Self::collect_db(world, config);
        let analysis = Self::analyze(world, config, &db, crawls, &stages::all_stages());
        analysis
            .outputs
            .into_results(analysis.best_ranks, analysis.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_db_gathers_every_planned_crawl() {
        let world = World::build(WorldConfig::tiny(5));
        let config = StudyConfig::tiny(5);
        let (db, timings) = Study::collect_db(&world, &config);

        // tiny plan: Spain porn+regular, USA porn, Russia porn.
        assert_eq!(db.crawls().len(), 4);
        assert_eq!(
            db.countries(),
            vec![Country::Usa, Country::Spain, Country::Russia]
        );
        assert!(db
            .crawl(Country::Spain, CorpusLabel::Porn)
            .is_some_and(|c| c.success_count() > 0 && !c.visits[0].visit.dom_html.is_empty()));
        assert!(db
            .crawl(Country::Spain, CorpusLabel::Regular)
            .is_some_and(|c| c.success_count() > 0));
        assert!(db
            .crawl(Country::Russia, CorpusLabel::Porn)
            .is_some_and(|c| c.visits[0].visit.dom_html.is_empty()));

        // Interaction crawls: Spain full corpus + the other gate countries.
        assert!(!db.interactions().is_empty());
        for country in GATE_COUNTRIES {
            assert!(
                db.interactions_in(country).count() > 0,
                "{country:?} gate crawl recorded"
            );
        }

        // One timing per crawl: 4 OpenWPM + 4 Selenium.
        assert_eq!(timings.len(), 8);
        assert!(timings.iter().all(|t| t.sites > 0));
    }

    #[test]
    fn tiny_study_runs_end_to_end() {
        let results = Study::run(StudyConfig::tiny(2024));
        assert!(results.corpus.sanitized > 0);
        assert!(results.table2.porn_third_party > 0);
        assert!(!results.fig3_porn.is_empty());
        assert!(results.cookie_stats.total_cookies > 0);
        assert_eq!(results.table7.rows.len(), 3);
        assert!(results.policies.with_policy > 0);
        // The instrumentation rides along: every crawl and stage timed.
        assert_eq!(results.stage_report.crawls.len(), 8);
        assert_eq!(results.stage_report.stages.len(), stages::STAGES.len());
    }
}

//! The crawl plan — the collection layer's single entry point.
//!
//! A [`CrawlPlan`] declares every crawl a study performs: OpenWPM-style
//! sweeps as country × corpus × store-DOM triples, and Selenium-style
//! interaction crawls as country × domain-selector pairs. The plan itself
//! is data; [`CrawlPlan::execute_observed`] resolves the domain selectors
//! against the compiled corpus, fans every crawl out through one job runner,
//! and records it all — the Spanish main crawls, the geo sweep, the
//! per-country age-gate crawls — into one [`MeasurementDb`], with per-crawl
//! wall timings for the stage report. [`CrawlPlan::execute`] is the same
//! call with telemetry off.

use std::time::Duration;

use redlight_net::geoip::Country;
use redlight_net::transport::{NetProfile, TransportStats};
use redlight_obs::ObsContext;
use redlight_websim::World;

use crate::db::{CorpusLabel, MeasurementDb};
use crate::openwpm::CrawlConfig;
use crate::parallel::run_jobs;

/// Which domain list a planned crawl sweeps. Selectors are resolved at
/// execution time, so a plan can be built before the corpus is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainSel {
    /// The sanitized porn corpus.
    Porn,
    /// The regular (reference) corpus.
    Regular,
    /// The most-popular porn subset manually studied for age gates (§7.2).
    AgeGateTop,
}

/// One planned OpenWPM-style crawl.
#[derive(Debug, Clone)]
pub struct CrawlSpec {
    /// Crawler configuration (country × corpus × store-DOM).
    pub config: CrawlConfig,
    /// Domain list to sweep.
    pub domains: DomainSel,
    /// Network the crawl runs over (transport stack + retry policy).
    pub net: NetProfile,
}

/// One planned interaction crawl.
#[derive(Debug, Clone)]
pub struct InteractionSpec {
    /// Vantage point.
    pub country: Country,
    /// Domain list to interact with.
    pub domains: DomainSel,
    /// Network the crawl runs over (transport stack + retry policy).
    pub net: NetProfile,
}

/// The concrete domain lists a plan's selectors resolve against.
#[derive(Debug, Clone, Copy)]
pub struct PlanDomains<'a> {
    /// The sanitized porn corpus.
    pub porn: &'a [String],
    /// The regular reference corpus.
    pub regular: &'a [String],
    /// The top-N porn sites by best historical rank.
    pub agegate_top: &'a [String],
}

impl PlanDomains<'_> {
    fn resolve(&self, sel: DomainSel) -> &[String] {
        match sel {
            DomainSel::Porn => self.porn,
            DomainSel::Regular => self.regular,
            DomainSel::AgeGateTop => self.agegate_top,
        }
    }
}

/// Wall time, size and network instrumentation of one executed crawl.
#[derive(Debug, Clone)]
pub struct CrawlTiming {
    /// `"openwpm"` or `"selenium"`.
    pub crawler: &'static str,
    /// Vantage point.
    pub country: Country,
    /// Corpus swept (OpenWPM crawls only).
    pub corpus: Option<CorpusLabel>,
    /// Number of sites the crawl covered.
    pub sites: usize,
    /// Document-load attempts spent across those sites.
    pub attempts: u64,
    /// Attempts beyond each site's first (retry-policy spillover).
    pub retries: u64,
    /// Sites whose document never loaded.
    pub failures: u64,
    /// Wall-clock duration of the crawl.
    pub wall: Duration,
    /// Transport-layer counters, when the crawl's profile metered.
    pub net: Option<TransportStats>,
}

/// Every crawl one study performs.
#[derive(Debug, Clone, Default)]
pub struct CrawlPlan {
    /// OpenWPM-style sweeps, in recording order.
    pub openwpm: Vec<CrawlSpec>,
    /// Interaction crawls, in recording order.
    pub interactions: Vec<InteractionSpec>,
}

impl CrawlPlan {
    /// [`execute_observed`](Self::execute_observed) with telemetry off.
    pub fn execute(
        &self,
        world: &World,
        domains: PlanDomains<'_>,
    ) -> (MeasurementDb, Vec<CrawlTiming>) {
        self.execute_observed(world, domains, &ObsContext::disabled())
    }

    /// Executes every planned crawl — concurrently across crawls — and
    /// records the results into a fresh [`MeasurementDb`] in plan order,
    /// returning it with one [`CrawlTiming`] per crawl. Every crawl records
    /// its span tree into a per-worker journal shard under `obs.parent` and
    /// publishes its transport counters into `obs.metrics`, plus one
    /// `crawl.<crawler>.<country>[.<corpus>].{sites,attempts,retries,failures}`
    /// counter group per executed crawl — the same numbers the returned
    /// [`CrawlTiming`]s carry, so the timing rows are a view over the
    /// registry. The db and timings do not depend on `obs`.
    pub fn execute_observed(
        &self,
        world: &World,
        domains: PlanDomains<'_>,
        obs: &ObsContext,
    ) -> (MeasurementDb, Vec<CrawlTiming>) {
        let openwpm: Vec<_> = self
            .openwpm
            .iter()
            .map(|spec| (spec, domains.resolve(spec.domains)))
            .collect();
        let interactions: Vec<_> = self
            .interactions
            .iter()
            .map(|spec| (spec, domains.resolve(spec.domains)))
            .collect();

        let mut db = MeasurementDb::new();
        let mut timings = Vec::with_capacity(openwpm.len() + interactions.len());
        for (record, timing) in run_jobs(world, &openwpm, obs) {
            timings.push(timing);
            db.push_crawl(record);
        }
        for (records, timing) in run_jobs(world, &interactions, obs) {
            timings.push(timing);
            db.push_interactions(records);
        }
        (db, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusCompiler;
    use crate::openwpm::OpenWpmCrawler;
    use redlight_websim::WorldConfig;

    #[test]
    fn plan_records_every_crawl_with_timings() {
        let world = World::build(WorldConfig::tiny(81));
        let corpus = CorpusCompiler::new(&world).compile();
        let top: Vec<String> = corpus.sanitized.iter().take(4).cloned().collect();
        let plan = CrawlPlan {
            openwpm: vec![
                CrawlSpec {
                    config: CrawlConfig {
                        country: Country::Spain,
                        corpus: CorpusLabel::Porn,
                        store_dom: true,
                    },
                    domains: DomainSel::Porn,
                    net: NetProfile::default(),
                },
                CrawlSpec {
                    config: CrawlConfig {
                        country: Country::Spain,
                        corpus: CorpusLabel::Regular,
                        store_dom: false,
                    },
                    domains: DomainSel::Regular,
                    net: NetProfile::default(),
                },
                CrawlSpec {
                    config: CrawlConfig {
                        country: Country::Russia,
                        corpus: CorpusLabel::Porn,
                        store_dom: false,
                    },
                    domains: DomainSel::Porn,
                    net: NetProfile::default(),
                },
            ],
            interactions: vec![
                InteractionSpec {
                    country: Country::Spain,
                    domains: DomainSel::Porn,
                    net: NetProfile::default(),
                },
                InteractionSpec {
                    country: Country::Uk,
                    domains: DomainSel::AgeGateTop,
                    net: NetProfile::default(),
                },
            ],
        };

        let (db, timings) = plan.execute(
            &world,
            PlanDomains {
                porn: &corpus.sanitized,
                regular: &corpus.reference_regular,
                agegate_top: &top,
            },
        );

        assert_eq!(db.crawls().len(), 3);
        assert_eq!(timings.len(), 5);
        assert_eq!(db.countries(), vec![Country::Spain, Country::Russia]);
        let porn_es = db.crawl(Country::Spain, CorpusLabel::Porn).unwrap();
        assert_eq!(porn_es.visits.len(), corpus.sanitized.len());
        assert!(porn_es.visits.iter().any(|v| !v.visit.dom_html.is_empty()));
        let porn_ru = db.crawl(Country::Russia, CorpusLabel::Porn).unwrap();
        assert!(porn_ru.visits.iter().all(|v| v.visit.dom_html.is_empty()));
        assert_eq!(
            db.interactions_in(Country::Spain).count(),
            corpus.sanitized.len()
        );
        assert_eq!(db.interactions_in(Country::Uk).count(), top.len());
        assert!(timings
            .iter()
            .filter(|t| t.crawler == "selenium")
            .all(|t| t.corpus.is_none() && t.sites > 0));
    }

    #[test]
    fn plan_execution_matches_direct_crawling() {
        // The single code path must reproduce exactly what a hand-rolled
        // crawler invocation records (determinism across entry points).
        let world = World::build(WorldConfig::tiny(82));
        let corpus = CorpusCompiler::new(&world).compile();
        let config = CrawlConfig {
            country: Country::Usa,
            corpus: CorpusLabel::Porn,
            store_dom: true,
        };
        let plan = CrawlPlan {
            openwpm: vec![CrawlSpec {
                config: config.clone(),
                domains: DomainSel::Porn,
                net: NetProfile::default(),
            }],
            interactions: vec![],
        };
        let (db, _) = plan.execute(
            &world,
            PlanDomains {
                porn: &corpus.sanitized,
                regular: &[],
                agegate_top: &[],
            },
        );
        let direct = OpenWpmCrawler::new(&world, config).crawl(&corpus.sanitized);
        let planned = db.crawl(Country::Usa, CorpusLabel::Porn).unwrap();
        assert_eq!(planned.client_ip, direct.client_ip);
        assert_eq!(planned.visits.len(), direct.visits.len());
        for (a, b) in planned.visits.iter().zip(&direct.visits) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.visit.success, b.visit.success);
            assert_eq!(a.visit.requests.len(), b.visit.requests.len());
            assert_eq!(a.visit.dom_html, b.visit.dom_html);
        }
    }
}

//! Parallel crawl execution, behind [`CrawlPlan::execute`](crate::plan::CrawlPlan::execute).
//!
//! Crawls are independent browser sessions, so they parallelize cleanly
//! across a crossbeam scoped-thread pool; **within** one crawl the visits
//! stay sequential because the paper keeps a single browser session alive to
//! observe cookie syncing (§3.1) — which also keeps each session's transport
//! stack (meters, fault injectors) deterministic regardless of thread
//! interleaving. Both planned crawl shapes — [`CrawlSpec`] for OpenWPM-style
//! sweeps and [`InteractionSpec`] for Selenium-style interaction crawls —
//! run through one job runner that records each job's spans and counters
//! into the plan's [`ObsContext`] and reports each job's [`CrawlTiming`].

use std::time::{Duration, Instant};

use redlight_obs::{ObsContext, Registry, Tracer};
use redlight_websim::World;

use crate::db::{CrawlRecord, InteractionRecord};
use crate::openwpm::{corpus_slug, OpenWpmCrawler};
use crate::plan::{CrawlSpec, CrawlTiming, InteractionSpec};
use crate::selenium::SeleniumCrawler;

/// A planned crawl the job runner can execute.
pub(crate) trait Job: Sync {
    /// What the crawl records.
    type Output: Send;

    /// Journal shard for job `index`. Derived from the index, so shard
    /// names — and the merged journal — never depend on thread scheduling.
    fn shard(&self, index: usize) -> String;

    /// Crawls `domains`, recording spans into `tracer` and counters into
    /// `registry`. The timing's `wall` is left for the runner to fill.
    fn run(
        &self,
        world: &World,
        domains: &[String],
        tracer: &mut Tracer,
        registry: &Registry,
    ) -> (Self::Output, CrawlTiming);
}

impl Job for CrawlSpec {
    type Output = CrawlRecord;

    fn shard(&self, index: usize) -> String {
        format!(
            "collect/openwpm.{index:02}.{}.{}",
            self.config.country.code().to_ascii_lowercase(),
            corpus_slug(self.config.corpus),
        )
    }

    fn run(
        &self,
        world: &World,
        domains: &[String],
        tracer: &mut Tracer,
        registry: &Registry,
    ) -> (CrawlRecord, CrawlTiming) {
        let (record, net) = OpenWpmCrawler::new(world, self.config.clone())
            .with_net(self.net.clone())
            .crawl_observed(domains, tracer, registry);
        // One pass over the visit column for all three totals.
        let rollup = record.rollup();
        let timing = CrawlTiming {
            crawler: "openwpm",
            country: record.country,
            corpus: Some(record.corpus),
            sites: record.visits.len(),
            attempts: rollup.attempts,
            retries: rollup.retries,
            failures: rollup.failures,
            wall: Duration::ZERO,
            net,
        };
        (record, timing)
    }
}

impl Job for InteractionSpec {
    type Output = Vec<InteractionRecord>;

    fn shard(&self, index: usize) -> String {
        format!(
            "collect/selenium.{index:02}.{}",
            self.country.code().to_ascii_lowercase()
        )
    }

    fn run(
        &self,
        world: &World,
        domains: &[String],
        tracer: &mut Tracer,
        registry: &Registry,
    ) -> (Vec<InteractionRecord>, CrawlTiming) {
        let crawl = SeleniumCrawler::new(world, self.country)
            .with_net(self.net.clone())
            .crawl_observed(domains, tracer, registry);
        let timing = CrawlTiming {
            crawler: "selenium",
            country: self.country,
            corpus: None,
            sites: crawl.records.len(),
            attempts: crawl.attempts,
            retries: crawl.retries,
            failures: crawl.records.iter().filter(|r| !r.reachable).count() as u64,
            wall: Duration::ZERO,
            net: crawl.transport,
        };
        (crawl.records, timing)
    }
}

/// Runs `jobs` — each a planned crawl with its resolved domain list —
/// concurrently, returning each output with its [`CrawlTiming`] in job
/// order. Job `i` records its spans into its own shard under `obs.parent`
/// and its counters into a scratch [`Registry`]; scratch snapshots are
/// absorbed into `obs.metrics` in job order, so the study-wide counters are
/// deterministic for a given plan and seed.
pub(crate) fn run_jobs<J: Job>(
    world: &World,
    jobs: &[(&J, &[String])],
    obs: &ObsContext,
) -> Vec<(J::Output, CrawlTiming)> {
    let finished: Vec<_> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(job, domains))| {
                scope.spawn(move |_| {
                    let mut tracer = obs.tracer(&job.shard(i));
                    let registry = Registry::new();
                    let start = Instant::now();
                    let (output, mut timing) = job.run(world, domains, &mut tracer, &registry);
                    tracer.finish();
                    timing.wall = start.elapsed();
                    (output, timing, registry.snapshot())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("crawl thread panicked"))
            .collect()
    })
    .expect("crossbeam scope");

    finished
        .into_iter()
        .map(|(output, timing, snapshot)| {
            obs.metrics.absorb(&snapshot);
            publish_timing(obs, &timing);
            (output, timing)
        })
        .collect()
}

/// Mirrors one crawl's [`CrawlTiming`] into per-crawl registry counters.
fn publish_timing(obs: &ObsContext, t: &CrawlTiming) {
    let mut prefix = format!(
        "crawl.{}.{}",
        t.crawler,
        t.country.code().to_ascii_lowercase()
    );
    if let Some(corpus) = t.corpus {
        prefix.push('.');
        prefix.push_str(corpus_slug(corpus));
    }
    for (field, value) in [
        ("sites", t.sites as u64),
        ("attempts", t.attempts),
        ("retries", t.retries),
        ("failures", t.failures),
    ] {
        obs.metrics.counter(&format!("{prefix}.{field}")).add(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusCompiler;
    use crate::db::CorpusLabel;
    use crate::openwpm::CrawlConfig;
    use crate::plan::{CrawlPlan, DomainSel, PlanDomains};
    use redlight_net::geoip::Country;
    use redlight_net::transport::NetProfile;
    use redlight_websim::WorldConfig;

    /// A plan of porn-corpus OpenWPM sweeps, one per `(country, store_dom)`.
    fn porn_sweeps(countries: &[(Country, bool)]) -> CrawlPlan {
        CrawlPlan {
            openwpm: countries
                .iter()
                .map(|&(country, store_dom)| CrawlSpec {
                    config: CrawlConfig {
                        country,
                        corpus: CorpusLabel::Porn,
                        store_dom,
                    },
                    domains: DomainSel::Porn,
                    net: NetProfile::default(),
                })
                .collect(),
            interactions: Vec::new(),
        }
    }

    fn porn_only(domains: &[String]) -> PlanDomains<'_> {
        PlanDomains {
            porn: domains,
            regular: &[],
            agegate_top: &[],
        }
    }

    #[test]
    fn parallel_crawls_match_sequential() {
        let world = World::build(WorldConfig::tiny(61));
        let corpus = CorpusCompiler::new(&world).compile();
        let domains: Vec<String> = corpus.sanitized.iter().take(12).cloned().collect();
        let plan = porn_sweeps(&[
            (Country::Spain, true),
            (Country::Usa, false),
            (Country::Russia, false),
        ]);

        let (db, _) = plan.execute(&world, porn_only(&domains));
        assert_eq!(db.crawls().len(), 3);
        assert_eq!(db.crawls()[0].country, Country::Spain);

        // Sequential rerun of one country must agree request-for-request.
        let sequential = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Usa,
                corpus: CorpusLabel::Porn,
                store_dom: false,
            },
        )
        .crawl(&domains);
        let par_usa = &db.crawls()[1];
        assert_eq!(par_usa.visits.len(), sequential.visits.len());
        for (a, b) in par_usa.visits.iter().zip(&sequential.visits) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.visit.requests.len(), b.visit.requests.len());
            assert_eq!(a.visit.success, b.visit.success);
        }
    }

    #[test]
    fn dom_retention_respects_country_list() {
        let world = World::build(WorldConfig::tiny(62));
        let corpus = CorpusCompiler::new(&world).compile();
        let domains: Vec<String> = corpus.sanitized.iter().take(6).cloned().collect();
        let plan = porn_sweeps(&[(Country::Spain, true), (Country::India, false)]);
        let (db, _) = plan.execute(&world, porn_only(&domains));
        let records = db.crawls();
        assert!(records[0]
            .visits
            .iter()
            .any(|v| !v.visit.dom_html.is_empty()));
        assert!(records[1]
            .visits
            .iter()
            .all(|v| v.visit.dom_html.is_empty()));
    }

    #[test]
    fn heterogeneous_jobs_keep_order_and_report_timings() {
        let world = World::build(WorldConfig::tiny(63));
        let corpus = CorpusCompiler::new(&world).compile();
        let porn: Vec<String> = corpus.sanitized.iter().take(5).cloned().collect();
        let regular: Vec<String> = corpus.reference_regular.iter().take(5).cloned().collect();

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
            ],
            interactions: vec![InteractionSpec {
                country: Country::Usa,
                domains: DomainSel::Porn,
                net: NetProfile::default(),
            }],
        };
        let (db, timings) = plan.execute(
            &world,
            PlanDomains {
                porn: &porn,
                regular: &regular,
                agegate_top: &[],
            },
        );
        let crawls = db.crawls();
        assert_eq!(crawls.len(), 2);
        assert_eq!(crawls[0].corpus, CorpusLabel::Porn);
        assert_eq!(crawls[1].corpus, CorpusLabel::Regular);
        assert_eq!(crawls[0].visits.len(), porn.len());
        assert_eq!(crawls[1].visits.len(), regular.len());
        assert!(timings.iter().all(|t| t.wall > Duration::ZERO));
        // The default profile meters: the transport saw every request the
        // visits recorded (and the redirect hops inside them).
        for (crawl, timing) in crawls.iter().zip(&timings) {
            let stats = timing.net.as_ref().expect("default profile meters");
            let recorded: u64 = crawl
                .visits
                .iter()
                .map(|v| v.visit.requests.len() as u64)
                .sum();
            assert_eq!(stats.requests, recorded);
            assert_eq!(timing.attempts, crawl.visits.len() as u64);
            assert_eq!(timing.retries, 0);
        }

        let interactions: Vec<_> = db.interactions_in(Country::Usa).collect();
        assert_eq!(interactions.len(), porn.len());
        assert_eq!(db.interactions().len(), porn.len());
        assert!(interactions.iter().all(|r| r.country == Country::Usa));
        assert!(timings[2].net.as_ref().unwrap().requests > 0);
    }
}

//! The OpenWPM-style crawler (paper §3.1).
//!
//! One long-lived browser session per crawl — the study deliberately never
//! restarts the browser between visits so cookie synchronization stays
//! observable — visiting only each site's landing page, recording every
//! HTTP exchange, cookie and instrumented JS call. Visits are attempted
//! HTTPS-first with HTTP downgrade; pages may hit the 120 s timeout.
//!
//! The session fetches through the transport stack assembled from the
//! crawl's [`NetProfile`] — the in-process server, optionally wrapped in
//! metering and deterministic fault-injection decorators — on the
//! profile's simulated clock. Failed document loads are retried up to the
//! profile's [`RetryPolicy`](redlight_net::transport::RetryPolicy) budget
//! with the backoff consumed as logical time, and every
//! [`SiteVisitRecord`](crate::db::SiteVisitRecord) carries the attempt
//! count and the visit's logical wall time, so walls replay exactly.

use std::time::Duration;

use redlight_browser::Browser;
use redlight_net::geoip::Country;
use redlight_net::transport::{BrowserKind, NetProfile, TransportMeter, TransportStats};
use redlight_net::url::Url;
use redlight_obs::{Registry, Trace, Tracer};
use redlight_websim::World;

use crate::db::{CorpusLabel, CrawlRecord};
use crate::session::Session;

/// Sites per `visits.NNN` batch span in the crawl journal.
pub const VISIT_BATCH: usize = 25;

/// Crawl configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Country.
    pub country: Country,
    /// Corpus.
    pub corpus: CorpusLabel,
    /// Keep the fetched document markup in the DB (needed for consent-banner
    /// and owner analyses; dropped for pure-geo sweeps to save memory).
    pub store_dom: bool,
}

/// The crawler.
pub struct OpenWpmCrawler<'w> {
    world: &'w World,
    config: CrawlConfig,
    net: NetProfile,
}

impl<'w> OpenWpmCrawler<'w> {
    /// Creates a crawler for `world` with `config` over a default (healthy,
    /// metered, no-retry) network.
    pub fn new(world: &'w World, config: CrawlConfig) -> Self {
        OpenWpmCrawler {
            world,
            config,
            net: NetProfile::default(),
        }
    }

    /// Replaces the network profile the crawl runs over.
    pub fn with_net(mut self, net: NetProfile) -> Self {
        self.net = net;
        self
    }

    /// Crawls `domains` sequentially in one browser session, with
    /// telemetry off.
    pub fn crawl(&self, domains: &[String]) -> CrawlRecord {
        let mut tracer = Trace::disabled().tracer("crawl");
        self.crawl_observed(domains, &mut tracer, &Registry::new())
            .0
    }

    /// Crawls `domains` sequentially in one browser session, returning the
    /// record with the transport-layer counters when the profile meters
    /// (`None` on bare stacks). The crawl records a
    /// `crawl.openwpm.<country>.<corpus>` span with one `visits.NNN` child
    /// per [`VISIT_BATCH`] sites into `tracer`, and publishes `transport.*`
    /// counters, `transport.retries`, `crawl.failed_visits` and the
    /// `crawl.attempts` / `crawl.requests_per_visit` histograms into
    /// `registry`. The record does not depend on either.
    pub fn crawl_observed(
        &self,
        domains: &[String],
        tracer: &mut Tracer,
        registry: &Registry,
    ) -> (CrawlRecord, Option<TransportStats>) {
        let ctx = Browser::context_for(self.world, self.config.country, BrowserKind::OpenWpm);
        let client_ip = ctx.client_ip;
        let meter = TransportMeter::in_registry(registry);
        let mut session = Session::open(self.world, ctx, &self.net, &meter);

        let retries = registry.counter("transport.retries");
        let failed_visits = registry.counter("crawl.failed_visits");
        let attempts_hist = registry.histogram("crawl.attempts");
        let requests_hist = registry.histogram("crawl.requests_per_visit");

        tracer.open(&format!(
            "crawl.openwpm.{}.{}",
            self.config.country.code().to_ascii_lowercase(),
            corpus_slug(self.config.corpus),
        ));
        tracer.attr("sites", domains.len());
        tracer.attr("store_dom", self.config.store_dom);

        let mut record = CrawlRecord::new(self.config.country, self.config.corpus, client_ip);
        record.visits.reserve(domains.len());
        for (batch_idx, batch) in domains.chunks(VISIT_BATCH).enumerate() {
            tracer.open(&format!("visits.{batch_idx:03}"));
            let mut batch_attempts = 0u64;
            let mut batch_failures = 0u64;
            for domain in batch {
                let Ok(url) = Url::parse(&format!("https://{domain}/")) else {
                    // A corpus entry that never parses still costs a visit
                    // slot: dropping it here would silently shrink the crawl
                    // and skew every per-corpus denominator downstream.
                    record.push_visit_with(domain, unparsable_visit(), 0, Duration::ZERO);
                    attempts_hist.record(0);
                    requests_hist.record(0);
                    failed_visits.inc();
                    batch_failures += 1;
                    continue;
                };
                let load = session.load(&url);
                let (mut visit, attempts) = (load.visit, load.attempts);
                retries.add(attempts.saturating_sub(1) as u64);
                attempts_hist.record(attempts as u64);
                requests_hist.record(visit.requests.len() as u64);
                batch_attempts += attempts as u64;
                if !visit.success {
                    failed_visits.inc();
                    batch_failures += 1;
                }
                if !self.config.store_dom {
                    visit.dom_html = String::new();
                }
                record.push_visit_with(domain, visit, attempts, load.wall);
            }
            tracer.attr("sites", batch.len());
            tracer.attr("attempts", batch_attempts);
            tracer.attr("failures", batch_failures);
            tracer.close();
        }
        tracer.close();

        let stats = self.net.metered.then(|| meter.snapshot());
        (record, stats)
    }
}

/// Lower-case label for span/metric names.
pub(crate) fn corpus_slug(corpus: CorpusLabel) -> &'static str {
    match corpus {
        CorpusLabel::Porn => "porn",
        CorpusLabel::Regular => "regular",
    }
}

/// The failed-visit placeholder for corpus entries that are not valid
/// hostnames (`invalid.` is the RFC 2606 reserved TLD, so the sentinel can
/// never collide with a generated site).
fn unparsable_visit() -> redlight_browser::PageVisit {
    redlight_browser::PageVisit::failed(
        Url::parse("https://invalid.invalid/").expect("static sentinel URL"),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusCompiler;
    use redlight_websim::WorldConfig;

    #[test]
    fn crawl_visits_all_domains_and_records_failures() {
        let world = World::build(WorldConfig::tiny(7));
        let corpus = CorpusCompiler::new(&world).compile();
        let crawler = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Spain,
                corpus: CorpusLabel::Porn,
                store_dom: true,
            },
        );
        let crawl = crawler.crawl(&corpus.sanitized);
        assert_eq!(crawl.visits.len(), corpus.sanitized.len());
        // The record carries the Spanish vantage point's public IP.
        let spain_ip = redlight_net::geoip::VantagePoint::study_default()
            .into_iter()
            .find(|v| v.country == Country::Spain)
            .unwrap()
            .client_ip;
        assert_eq!(crawl.client_ip, spain_ip);
        let expected_success = world
            .sites
            .iter()
            .filter(|s| s.is_porn() && !s.unresponsive && !s.openwpm_timeout)
            .count();
        assert_eq!(crawl.success_count(), expected_success);
        // Timeouts show up as timeout-flagged failures.
        let timeouts = crawl.visits.iter().filter(|v| v.visit.timeout).count();
        let expected_timeouts = world
            .sites
            .iter()
            .filter(|s| s.is_porn() && !s.unresponsive && s.openwpm_timeout)
            .count();
        assert_eq!(timeouts, expected_timeouts);
        // Without a retry budget every visit spends exactly one attempt.
        assert!(crawl.visits.iter().all(|v| v.attempts == 1));
        assert_eq!(crawl.total_retries(), 0);
    }

    #[test]
    fn malformed_domains_become_failed_visits_not_gaps() {
        let world = World::build(WorldConfig::tiny(7));
        let domains = vec![
            "not a hostname".to_string(),
            world
                .sites
                .iter()
                .find(|s| s.is_porn() && !s.unresponsive && !s.openwpm_timeout)
                .unwrap()
                .domain
                .clone(),
        ];
        let crawl = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Spain,
                corpus: CorpusLabel::Porn,
                store_dom: false,
            },
        )
        .crawl(&domains);
        // Visit counts always equal corpus size, malformed entries included.
        assert_eq!(crawl.visits.len(), domains.len());
        let bad = &crawl.visits[0];
        assert_eq!(crawl.name(bad.domain), "not a hostname");
        assert!(!bad.visit.success);
        assert_eq!(bad.attempts, 0, "nothing was ever fetched");
        assert!(crawl.visits[1].visit.success);
        assert_eq!(crawl.failure_count(), 1);
    }

    #[test]
    fn store_dom_flag_prunes_markup() {
        let world = World::build(WorldConfig::tiny(7));
        let corpus = CorpusCompiler::new(&world).compile();
        let slim = OpenWpmCrawler::new(
            &world,
            CrawlConfig {
                country: Country::Usa,
                corpus: CorpusLabel::Porn,
                store_dom: false,
            },
        )
        .crawl(&corpus.sanitized[..4.min(corpus.sanitized.len())]);
        assert!(slim.visits.iter().all(|v| v.visit.dom_html.is_empty()));
        // Requests are still recorded.
        assert!(slim.visits.iter().any(|v| !v.visit.requests.is_empty()));
    }
}

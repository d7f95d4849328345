//! One crawl session on the simulated clock, shared by both crawlers.
//!
//! A [`Session`] is the long-lived browser of one crawl: it fetches
//! through the [`NetProfile`]'s transport stack rehosted on a logical
//! clock ([`SimTransport`]), so every fetch, fault stall and retry backoff
//! consumes simulated time — never a real sleep, never the wall clock.
//! [`Session::load`] is the crawlers' one retry loop.

use std::time::Duration;

use redlight_browser::{Browser, PageVisit};
use redlight_net::transport::{ClientContext, NetProfile, RetryPolicy, TransportMeter};
use redlight_net::url::Url;
use redlight_sim::{SimHandle, SimTransport};
use redlight_websim::server::WebServer;
use redlight_websim::World;

/// A landing-page load after its retries.
pub(crate) struct Load {
    /// The last attempt's visit.
    pub visit: PageVisit,
    /// Attempts spent (≥ 1).
    pub attempts: u32,
    /// Logical time the load took: every attempt's fetches plus the
    /// backoff consumed between them.
    pub wall: Duration,
}

/// A browser over the profile's stack, on the profile's simulated clock.
pub(crate) struct Session<'w> {
    /// The session's browser, for follow-up fetches on a loaded page.
    pub browser: Browser<'w>,
    clock: SimHandle,
    retry: RetryPolicy,
}

impl<'w> Session<'w> {
    /// Opens a session on `world` as `ctx`, counting transport traffic into
    /// `meter`.
    pub fn open(
        world: &'w World,
        ctx: ClientContext,
        net: &NetProfile,
        meter: &TransportMeter,
    ) -> Self {
        let clock = SimHandle::new(net.sim);
        let stack = SimTransport::new(net.stack(WebServer::new(world), meter), clock.clone());
        Session {
            browser: Browser::with_transport(Box::new(stack), ctx),
            clock,
            retry: net.retry.clone(),
        }
    }

    /// Loads `url`, re-visiting failed loads up to the retry budget and
    /// consuming each backoff on the clock before the next attempt.
    pub fn load(&mut self, url: &Url) -> Load {
        let (t0, b0) = (self.clock.now(), self.clock.backoff_consumed());
        let mut attempts = 1u32;
        let mut visit = self.browser.visit(url);
        while !visit.success && attempts < self.retry.max_attempts {
            attempts += 1;
            self.clock
                .consume_backoff(self.retry.backoff_before(attempts));
            visit = self.browser.visit(url);
        }
        assert_eq!(
            self.clock.backoff_consumed() - b0,
            self.retry.total_backoff(attempts),
            "the backoff schedule must equal the logical time consumed"
        );
        Load {
            visit,
            attempts,
            wall: self.clock.now() - t0,
        }
    }
}

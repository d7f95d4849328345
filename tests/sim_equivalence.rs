//! Time accounting never changes what is measured: every crawl runs on
//! the network profile's simulated clock, and `SimTransport` charges
//! logical time per outcome but returns every outcome untouched. A study
//! under a very different service model must therefore render exactly
//! like the default one — only *when* things happen changes, never
//! *what*.

use std::time::Duration;

use redlight::net::transport::SimSpec;
use redlight::{Study, StudyConfig};

#[test]
fn time_accounting_never_changes_the_study() {
    let default_config = StudyConfig::tiny(2019);
    let mut slow_config = StudyConfig::tiny(2019);
    slow_config.net = slow_config.net.with_sim(SimSpec {
        base_service: Duration::from_millis(50),
        per_kbyte: Duration::from_millis(1),
        connect_fail: Duration::from_millis(500),
        timeout: Duration::from_secs(1),
        jitter_pm: 0,
        conn_limit: 1,
        seed: 99,
    });
    assert_ne!(slow_config.net.sim, default_config.net.sim);

    let default_results = Study::run(default_config);
    let slow_results = Study::run(slow_config);

    assert_eq!(
        default_results.render_summary(),
        slow_results.render_summary(),
        "the service model must not change any measured result"
    );
}

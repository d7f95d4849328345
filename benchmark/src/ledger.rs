//! The traced run: per-layer metrics from sequential calls into each
//! layer's public functions, timed from this file only. Nothing inside the
//! program is instrumented; the collection path is observed through a
//! timing [`Transport`] wrapped around the bare `WebServer`, and its bodies
//! are replayed through each crate's public parser, interpreter, jar and
//! interner.
//!
//! Every workload's traced run emits every layer metric. Layers a workload
//! runs are measured on that workload's own input. The rest are measured on
//! a companion input so that no metric is absent: `study-quarter` adds a
//! 20k-session traffic run, and `traffic-1m` adds a study of its own small
//! world. The fault and retry side of the crawl path comes from a
//! paper-scale collection on the `flaky` network. `README.md` lists which
//! metrics are companions per workload.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::Instant;

use redlight_analysis::ats::AtsClassifier;
use redlight_analysis::orgs::CertHarvest;
use redlight_analysis::{cookies, thirdparty};
use redlight_blocklist::{FilterSet, RequestContext};
use redlight_browser::Browser;
use redlight_core::stages::{self, AnalysisContext};
use redlight_core::{Study, StudyConfig};
use redlight_crawler::corpus::CorpusCompiler;
use redlight_crawler::db::{CorpusLabel, MeasurementDb};
use redlight_crawler::plan::{CrawlPlan, PlanDomains};
use redlight_crawler::store::StrTable;
use redlight_net::cookie::Cookie;
use redlight_net::geoip::Country;
use redlight_net::http::Request;
use redlight_net::jar::CookieJar;
use redlight_net::transport::{
    BrowserKind, ClientContext, FetchOutcome, Transport, TransportMeter,
};
use redlight_net::url::Url;
use redlight_obs::ObsContext;
use redlight_script::interp::{run_program, DEFAULT_BUDGET};
use redlight_script::{lexer, parse_program, CollectingHost};
use redlight_sim::run_traffic;
use redlight_websim::server::WebServer;
use redlight_websim::World;

use crate::sys::{self, Mark};
use crate::workloads::{
    check_flaky_collection, flaky_config, study_config, study_iteration, traffic_config,
    traffic_iteration, Record, Size, Workload,
};

/// Visits whose bodies are kept for the parser, interpreter, jar and
/// interner replays (the first ones of the traced crawl).
const REPLAY_VISITS: usize = 2_000;

/// Runs for each timeline on/off measurement on a companion traffic input,
/// whose kernel runs only milliseconds.
const COMPANION_TRAFFIC_REPEATS: usize = 5;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &'static str)> = [
        ("websim.world_build_s", "s"),
        ("crawler.collect_wall_s", "s"),
        ("crawler.collect_cpu_s", "s"),
        ("core.context_build_s", "s"),
        ("core.stages_wall_s", "s"),
        ("core.stages_cpu_s", "s"),
        ("report.render_s", "s"),
        ("sim.kernel_wall_s", "s"),
        ("websim.serve_ns_per_req", "ns"),
        ("browser.visit_p50_us", "us"),
        ("browser.visit_p99_us", "us"),
        ("browser.visits", "count"),
        ("html.parse_ns_per_kib", "ns/KiB"),
        ("script.lex_ns_per_kib", "ns/KiB"),
        ("script.parse_ns_per_kib", "ns/KiB"),
        ("script.interp_ns_per_script", "ns"),
        ("net.jar_store_ns", "ns"),
        ("net.transport_stack_ns_per_req", "ns"),
        ("crawler.intern_ns", "ns"),
        ("crawler.interned_bytes", "bytes"),
        ("crawler.corpus_compile_s", "s"),
        ("crawler.parallel_efficiency", "ratio"),
        ("net.requests", "count"),
        ("net.unreachable", "count"),
        ("net.timeouts", "count"),
        ("net.retries", "count"),
        ("crawler.flaky_collect_wall_s", "s"),
        ("net.flaky_timeouts", "count"),
        ("net.flaky_retries", "count"),
        ("analysis.ats.classify_batch_s", "s"),
        ("blocklist.match_ns_per_url", "ns"),
        ("analysis.thirdparty.extract_s", "s"),
        ("analysis.orgs.cert_harvest_s", "s"),
        ("analysis.cookies.collect_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for cache in CACHES {
        list.push((format!("analysis.cache.{cache}.hit_ratio"), "ratio"));
    }
    for stage in stages::STAGES {
        list.push((format!("core.stage.{stage}_s"), "s"));
    }
    list.extend(
        [
            ("core.stages_parallelism", "ratio"),
            ("sim.events", "count"),
            ("sim.peak_queue", "count"),
            ("sim.peak_in_flight", "count"),
            ("obs.timeline_overhead_pct", "%"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    list
}

/// The shared analysis caches `AnalysisContext::cache_counters` reports.
const CACHES: [&str; 6] = [
    "etld1-hosts",
    "ats-url-verdicts",
    "ats-fqdn-verdicts",
    "ats-prefilter",
    "ats-batch-dedup",
    "thirdparty-extracts",
];

/// The traced run of `workload`: one untraced iteration for the phase
/// boundaries and output check, then the layer ledger.
pub fn ledger(workload: Workload, seed: u64, size: Size) -> Record {
    match workload {
        Workload::Traffic1m => {
            let (report, mut rec) = traffic_iteration(seed, size);
            // The timed part above carried the timeline; the same run
            // without it prices the telemetry.
            let off = run_traffic(&traffic_config(seed, size, false), &ObsContext::new());
            rec.set(
                "obs.timeline_overhead_pct",
                overhead_pct(report.wall.as_secs_f64(), off.wall.as_secs_f64()),
            );
            let companion = match size {
                Size::Full => StudyConfig::small(seed),
                Size::Reduced => StudyConfig::tiny(seed),
            };
            let study = study_ledger(companion, seed, Size::Reduced);
            merge_missing(&mut rec, &study);
            rec
        }
        Workload::StudyQuarter => {
            let mut rec = study_ledger(study_config(seed, size), seed, size);
            sim_companion(seed, &mut rec);
            rec
        }
    }
}

/// Copies `from`'s layer metrics that `into` lacks, keeping `into`'s own
/// metrics, digest and ops; output-check failures carry over.
fn merge_missing(into: &mut Record, from: &Record) {
    for (name, _) in layer_metrics() {
        if let Some(v) = from.values.get(&name) {
            into.values.entry(name).or_insert_with(|| v.clone());
        }
    }
    into.problems.extend(from.problems.iter().cloned());
}

fn overhead_pct(on: f64, off: f64) -> f64 {
    (on - off) / off * 100.0
}

/// The sim layer on a 20k-session companion run, timeline on and off.
fn sim_companion(seed: u64, rec: &mut Record) {
    let mut on = Vec::new();
    let mut off = Vec::new();
    let mut last = None;
    for _ in 0..COMPANION_TRAFFIC_REPEATS {
        let report = run_traffic(
            &traffic_config(seed, Size::Reduced, true),
            &ObsContext::new(),
        );
        on.push(report.wall.as_secs_f64());
        last = Some(report);
        let bare = run_traffic(
            &traffic_config(seed, Size::Reduced, false),
            &ObsContext::new(),
        );
        off.push(bare.wall.as_secs_f64());
    }
    let report = last.expect("at least one companion run");
    rec.set("sim.kernel_wall_s", sys::median(&on));
    rec.set(
        "obs.timeline_overhead_pct",
        overhead_pct(sys::median(&on), sys::median(&off)),
    );
    rec.set("sim.events", report.events);
    rec.set("sim.peak_queue", report.peak_queue);
    rec.set("sim.peak_in_flight", report.peak_in_flight);
}

/// Study-side ledger: the untraced iteration's phases, then analysis and
/// collection layers measured on its world and database, and a collection
/// on the `flaky` network.
fn study_ledger(config: StudyConfig, seed: u64, size: Size) -> Record {
    let run = study_iteration(config, seed, size);
    let mut rec = run.rec;
    rec.set(
        "websim.world_build_s",
        rec.num("setup_s").expect("setup measured"),
    );

    let net: Vec<_> = run
        .timings
        .iter()
        .map(|t| t.net.clone().unwrap_or_default())
        .collect();
    rec.set("net.requests", net.iter().map(|s| s.requests).sum::<u64>());
    rec.set(
        "net.unreachable",
        net.iter().map(|s| s.unreachable).sum::<u64>(),
    );
    rec.set("net.timeouts", net.iter().map(|s| s.timeouts).sum::<u64>());
    rec.set(
        "net.retries",
        run.timings.iter().map(|t| t.retries).sum::<u64>(),
    );
    let interned: usize = run
        .db
        .crawls()
        .iter()
        .map(|c| c.names().arena_bytes())
        .sum();
    rec.set("crawler.interned_bytes", interned);

    analysis_layers(&run.world, &run.config, &run.db, &mut rec);
    let collect_wall = rec.num("crawler.collect_wall_s").expect("collection timed");
    drop(run.db);
    flaky_collection(seed, size, &mut rec);
    collection_layers(&run.world, &run.config, collect_wall, &mut rec);
    rec
}

/// The fault and retry side of the crawl path: `Study::collect_db` of the
/// paper-scale world on the `flaky` network, with its counts checked and
/// pinned.
fn flaky_collection(seed: u64, size: Size, rec: &mut Record) {
    let config = flaky_config(seed, size);
    let world = World::build(config.world.clone());
    let t0 = Mark::now();
    let (db, timings) = Study::collect_db(&world, &config);
    rec.set("crawler.flaky_collect_wall_s", t0.wall_to(&Mark::now()));
    let digest = check_flaky_collection(&config, &db, &timings, seed, size, rec);
    rec.set("flaky_digest", digest);
    let timeouts: u64 = timings
        .iter()
        .filter_map(|t| t.net.as_ref())
        .map(|n| n.timeouts)
        .sum();
    rec.set("net.flaky_timeouts", timeouts);
    rec.set(
        "net.flaky_retries",
        timings.iter().map(|t| t.retries).sum::<u64>(),
    );
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Analysis layers, each called on its own on a fresh classifier or
/// context: classification, URL matching, extracts, the certificate
/// harvest, cookie rows, and every stage's self time.
fn analysis_layers(world: &World, config: &StudyConfig, db: &MeasurementDb, rec: &mut Record) {
    let porn = db
        .crawl(Country::Spain, CorpusLabel::Porn)
        .expect("Spanish porn crawl recorded");
    let regular = db
        .crawl(Country::Spain, CorpusLabel::Regular)
        .expect("Spanish regular crawl recorded");

    let classifier = AtsClassifier::from_lists(&world.easylist, &world.easyprivacy);
    rec.set(
        "analysis.ats.classify_batch_s",
        secs(|| {
            for crawl in db.crawls() {
                black_box(classifier.classify_batch(crawl.full()));
            }
        }),
    );

    let mut filters = FilterSet::new();
    filters.add_list(&world.easylist);
    filters.add_list(&world.easyprivacy);
    filters.build_prefilter();
    let mut queries = Vec::new();
    for record in porn.successful() {
        let Some(page) = record.final_host else {
            continue;
        };
        for (i, req) in record.visit.requests.iter().enumerate() {
            if req.status.is_some() {
                let ctx = RequestContext::new(
                    porn.name(page),
                    porn.name(record.request_hosts[i]),
                    req.kind,
                );
                queries.push((porn.name(record.request_urls[i]), ctx));
            }
        }
    }
    let t = secs(|| {
        for (url, ctx) in &queries {
            black_box(filters.matches(url, ctx).is_blocked());
        }
    });
    rec.set(
        "blocklist.match_ns_per_url",
        t * 1e9 / queries.len().max(1) as f64,
    );

    rec.set(
        "analysis.thirdparty.extract_s",
        secs(|| {
            black_box(thirdparty::extract(porn, true));
            black_box(thirdparty::extract(regular, true));
        }),
    );
    let probe = |host: &str| -> Option<redlight_net::tls::CertSummary> {
        world.resolve_host(host)?;
        Some((&world.cert_for_host(host)).into())
    };
    rec.set(
        "analysis.orgs.cert_harvest_s",
        secs(|| {
            black_box(CertHarvest::collect(&[porn, regular], Some(&probe)));
        }),
    );
    rec.set(
        "analysis.cookies.collect_s",
        secs(|| {
            black_box(cookies::collect(porn));
        }),
    );

    // Stage self time: each stage runs with its dependencies, one stage at
    // a time. `stages::run` reports each stage's own wall, and a stage
    // starts only after its dependencies' wave has finished, so that wall
    // holds no dependency time (subtracting the dependencies' separate
    // times does not work: they run in parallel within a wave).
    let ctx = AnalysisContext::build(world, config, db);
    for stage in stages::STAGES {
        let selection =
            stages::expand_selection(&[stage.to_string()]).expect("registered stage name");
        let (outputs, timings) = stages::run(db, &ctx, &selection);
        black_box(outputs);
        let own = timings
            .iter()
            .find(|t| t.name == stage)
            .expect("the selected stage ran");
        rec.set(&format!("core.stage.{stage}_s"), own.wall.as_secs_f64());
    }
}

/// A transport that times and counts the fetches it forwards, and can keep
/// the script bodies it sees for replay.
struct Timed<T> {
    inner: T,
    nanos: Cell<u64>,
    calls: Cell<u64>,
    /// While set, script bodies passing through are kept in `scripts`.
    keep_scripts: Cell<bool>,
    scripts: RefCell<Vec<String>>,
}

impl<T> Timed<T> {
    fn new(inner: T, keep_scripts: bool) -> Self {
        Timed {
            inner,
            nanos: Cell::new(0),
            calls: Cell::new(0),
            keep_scripts: Cell::new(keep_scripts),
            scripts: RefCell::new(Vec::new()),
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn fetch(&self, req: &Request, ctx: &ClientContext) -> FetchOutcome {
        let t0 = Instant::now();
        let out = self.inner.fetch(req, ctx);
        self.nanos
            .set(self.nanos.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        if let FetchOutcome::Response(resp) = &out {
            if self.keep_scripts.get() && resp.content_type.contains("javascript") {
                self.scripts.borrow_mut().push(resp.text());
            }
        }
        out
    }

    fn resolvable(&self, host: &str) -> bool {
        self.inner.resolvable(host)
    }
}

/// Collection layers: corpus compile, each crawl run alone, then one traced
/// crawl of the Spanish porn corpus whose bodies are replayed layer by
/// layer.
fn collection_layers(world: &World, config: &StudyConfig, collect_wall: f64, rec: &mut Record) {
    let mut corpus = None;
    rec.set(
        "crawler.corpus_compile_s",
        secs(|| corpus = Some(CorpusCompiler::new(world).compile())),
    );
    let corpus = corpus.expect("compiled");
    let histories = world.rank_histories();
    let mut ranked = corpus.sanitized.clone();
    ranked.sort_by_key(|d| histories.get(d).and_then(|h| h.best()).unwrap_or(u32::MAX));
    ranked.truncate(config.agegate_top_n);
    let domains = PlanDomains {
        porn: &corpus.sanitized,
        regular: &corpus.reference_regular,
        agegate_top: &ranked,
    };

    let plan = config.crawl_plan();
    let mut alone = 0.0;
    for spec in &plan.openwpm {
        let single = CrawlPlan {
            openwpm: vec![spec.clone()],
            interactions: Vec::new(),
        };
        alone += secs(|| drop(black_box(single.execute(world, domains))));
    }
    for spec in &plan.interactions {
        let single = CrawlPlan {
            openwpm: Vec::new(),
            interactions: vec![spec.clone()],
        };
        alone += secs(|| drop(black_box(single.execute(world, domains))));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    rec.set(
        "crawler.parallel_efficiency",
        alone / (cores * collect_wall),
    );

    traced_crawl(world, config, &corpus.sanitized, rec);
}

/// Bodies and keys a traced crawl keeps for the replays.
#[derive(Default)]
struct Replay {
    docs: Vec<String>,
    cookies: Vec<(Cookie, Url)>,
    names: Vec<String>,
}

fn traced_crawl(world: &World, config: &StudyConfig, porn: &[String], rec: &mut Record) {
    let serve = Timed::new(WebServer::new(world), true);
    let meter = TransportMeter::new();
    let top = Timed::new(config.net.stack(&serve, &meter), false);
    let ctx = Browser::context_for(world, Country::Spain, BrowserKind::OpenWpm);
    let mut browser = Browser::with_transport(Box::new(&top), ctx);

    let mut visit_us = Vec::new();
    let mut replay = Replay::default();
    for (i, domain) in porn.iter().enumerate() {
        if i == REPLAY_VISITS {
            serve.keep_scripts.set(false);
        }
        let Ok(url) = Url::parse(&format!("https://{domain}/")) else {
            continue;
        };
        let mut attempts = 0;
        let visit = loop {
            attempts += 1;
            let t0 = Instant::now();
            let visit = browser.visit(&url);
            visit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if visit.success || attempts >= config.net.retry.max_attempts {
                break visit;
            }
        };
        if i >= REPLAY_VISITS {
            continue;
        }
        replay.names.push(domain.clone());
        for req in &visit.requests {
            replay.names.push(req.url.host().as_str().to_string());
            replay.names.push(req.url.without_fragment());
        }
        for obs in &visit.cookies {
            if let Ok(origin) = Url::parse(&format!("https://{}/", obs.origin_host)) {
                replay.cookies.push((obs.cookie.clone(), origin));
            }
        }
        if visit.success {
            replay.docs.push(visit.dom_html);
        }
    }
    drop(browser);

    rec.set(
        "websim.serve_ns_per_req",
        serve.nanos.get() as f64 / serve.calls.get().max(1) as f64,
    );
    rec.set(
        "net.transport_stack_ns_per_req",
        (top.nanos.get() - serve.nanos.get()) as f64 / top.calls.get().max(1) as f64,
    );
    rec.set("browser.visit_p50_us", sys::percentile(&visit_us, 50.0));
    rec.set("browser.visit_p99_us", sys::percentile(&visit_us, 99.0));
    rec.set("browser.visits", visit_us.len());

    let kib = |bodies: &[String]| bodies.iter().map(|b| b.len()).sum::<usize>() as f64 / 1024.0;
    let t = secs(|| {
        for doc in &replay.docs {
            black_box(redlight_html::parse(doc));
        }
    });
    rec.set(
        "html.parse_ns_per_kib",
        t * 1e9 / kib(&replay.docs).max(1e-9),
    );

    let scripts = serve.scripts.take();
    let lex = secs(|| {
        for s in &scripts {
            let _ = black_box(lexer::lex(s));
        }
    });
    let mut programs = Vec::new();
    let parse = secs(|| {
        for s in &scripts {
            if let Ok(p) = parse_program(s) {
                programs.push(p);
            }
        }
    });
    let script_kib = kib(&scripts).max(1e-9);
    rec.set("script.lex_ns_per_kib", lex * 1e9 / script_kib);
    // parse_program lexes its input first; its self time excludes that.
    rec.set("script.parse_ns_per_kib", (parse - lex) * 1e9 / script_kib);
    let interp = secs(|| {
        for p in &programs {
            let mut host = CollectingHost::default();
            let _ = black_box(run_program(p, &mut host, DEFAULT_BUDGET));
        }
    });
    rec.set(
        "script.interp_ns_per_script",
        interp * 1e9 / programs.len().max(1) as f64,
    );

    let mut jar = CookieJar::new();
    let stores = replay.cookies.len();
    let t = secs(|| {
        for (cookie, origin) in replay.cookies {
            black_box(jar.store(cookie, &origin));
        }
    });
    rec.set("net.jar_store_ns", t * 1e9 / stores.max(1) as f64);

    let mut table = StrTable::new();
    let t = secs(|| {
        for name in &replay.names {
            black_box(table.intern(name));
        }
    });
    rec.set(
        "crawler.intern_ns",
        t * 1e9 / replay.names.len().max(1) as f64,
    );
}

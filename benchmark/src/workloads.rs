//! The two workloads, each run once per call through the repository's
//! public entry points, with wall/CPU marks taken only between those calls.
//!
//! An iteration returns a [`Record`]: its metrics, its operation count, the
//! digest of its output and any output check that failed.

use std::collections::BTreeMap;
use std::time::Duration;

use redlight_core::results::StageReport;
use redlight_core::stages::{self, AnalysisContext};
use redlight_core::{Study, StudyConfig};
use redlight_crawler::db::MeasurementDb;
use redlight_crawler::plan::CrawlTiming;
use redlight_net::transport::{NetProfile, SimSpec};
use redlight_obs::ObsContext;
use redlight_report::paper;
use redlight_sim::{run_traffic, TimelineSpec, TrafficConfig, TrafficReport};
use redlight_websim::{World, WorldConfig};

use crate::expected::{self, Pinned};
use crate::reproduce::comparisons;
use crate::sys::{self, Mark};

/// Setups per iteration; `setup_s` is the median over all of a run's
/// setups. A study world builds in about 0.4 s and a traffic setup (small
/// world plus harvest) in about 0.1 s, so traffic takes more samples for the
/// same steadiness. Few setups per iteration leave room for more iterations.
const STUDY_SETUPS: usize = 2;
const TRAFFIC_SETUPS: usize = 5;

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full study on a world with a quarter of the paper's sites, on the
    /// default network.
    StudyQuarter,
    /// One million open-loop visitor sessions on the discrete-event kernel.
    Traffic1m,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::StudyQuarter, Workload::Traffic1m];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyQuarter => "study-quarter",
            Workload::Traffic1m => "traffic-1m",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Iterations a run takes even when `--seconds` have passed. On a 2-core
/// machine a study iteration lasts ~7 s and a traffic one ~13 s, short
/// enough for one burst of host contention to slow it alone, so a run
/// reports the median of at least three.
pub const MIN_ITERATIONS: usize = 3;

/// Input size: the benchmark proper, or the reduced self-test size (tiny
/// world, 20k sessions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Reduced => "reduced",
        }
    }
}

/// Metrics, counts and digests of one run, as `key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub values: BTreeMap<String, String>,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
}

impl Record {
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.values.insert(key.to_string(), value.to_string());
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Line protocol between a child process and the harness.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            out.push_str(&format!("{k}\t{v}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("problem\t{p}\n"));
        }
        out
    }

    pub fn from_lines(text: &str) -> Record {
        let mut rec = Record::default();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('\t') {
                if k == "problem" {
                    rec.problems.push(v.to_string());
                } else {
                    rec.set(k, v);
                }
            }
        }
        rec
    }
}

/// `WorldConfig::small` is a twentieth of the paper's world; five of it is
/// a quarter. A paper-scale study runs 25–45 s on a 2-core machine and a
/// half-scale one ~15 s: a run of either holds only one to three of them,
/// and their walls move with bursts of host contention, so ten-run sets
/// spread past 0.25. A quarter of the sites keeps every paper parameter
/// and code path at ~7 s per iteration and half the memory, so a run takes
/// the median of seven or more.
const QUARTER_PAPER: usize = 5;

/// The configuration `study-quarter` runs.
pub fn study_config(seed: u64, size: Size) -> StudyConfig {
    match size {
        Size::Full => StudyConfig {
            world: WorldConfig::small(seed).scaled(QUARTER_PAPER),
            ..StudyConfig::paper_scale(seed)
        },
        Size::Reduced => StudyConfig::tiny(seed),
    }
}

/// The collection the traced study run adds: the paper-scale world (tiny
/// when reduced) on the fault-injecting `flaky` network profile, with that
/// profile's own fault seed.
pub fn flaky_config(seed: u64, size: Size) -> StudyConfig {
    let config = match size {
        Size::Full => StudyConfig::paper_scale(seed),
        Size::Reduced => StudyConfig::tiny(seed),
    };
    StudyConfig {
        net: NetProfile::named("flaky").expect("flaky is a named profile"),
        ..config
    }
}

/// The traffic configuration: the small world (tiny when reduced), the
/// `sim` service model and 1 s timeline windows.
pub fn traffic_config(seed: u64, size: Size, timeline: bool) -> TrafficConfig {
    let (sessions, world) = match size {
        Size::Full => (1_000_000, StudyConfig::small(seed).world),
        Size::Reduced => (20_000, StudyConfig::tiny(seed).world),
    };
    TrafficConfig {
        seed,
        world,
        net: NetProfile::default().with_sim(SimSpec::default()),
        timeline: timeline.then(|| TimelineSpec::with_window(Duration::from_secs(1))),
        ..TrafficConfig::new(sessions)
    }
}

/// Builds the workload's world [`STUDY_SETUPS`] times, recording
/// each build's seconds, and keeps the last.
fn build_world(config: &StudyConfig, setups: &mut Vec<f64>) -> World {
    let mut world = None;
    for _ in 0..STUDY_SETUPS {
        drop(world.take());
        let t0 = Mark::now();
        world = Some(World::build(config.world.clone()));
        setups.push(t0.wall_to(&Mark::now()));
    }
    world.expect("at least one build")
}

/// Everything a study iteration leaves behind, so the traced run can keep
/// measuring on the same world and database.
pub struct StudyRun {
    pub world: World,
    pub config: StudyConfig,
    pub db: MeasurementDb,
    pub timings: Vec<CrawlTiming>,
    pub rec: Record,
}

/// One study iteration on `config`: setup, then the timed part:
/// collection, context build, all stages, the summary and the paper
/// comparisons. Phase marks sit between the public calls, so the phase
/// walls tile `wall_s` exactly.
pub fn study_iteration(config: StudyConfig, seed: u64, size: Size) -> StudyRun {
    let mut rec = Record::default();
    let mut setups = Vec::new();
    let world = build_world(&config, &mut setups);

    let m0 = Mark::now();
    let (db, timings) = Study::collect_db(&world, &config);
    let m1 = Mark::now();
    rec.set("crawler.collect_wall_s", m0.wall_to(&m1));
    rec.set("crawler.collect_cpu_s", m0.cpu_to(&m1));
    let (summary, end) = analyse(&world, &config, &db, timings.clone(), &m1, &mut rec);
    check_study(&summary, seed, size, &mut rec);

    rec.set("wall_s", m0.wall_to(&end));
    rec.set("cpu_s", m0.cpu_to(&end));
    rec.set("peak_rss_mib", sys::peak_rss_mib());
    let ops = visits(&db);
    rec.set("ops", ops);
    rec.set("events_per_s", ops as f64 / m0.wall_to(&end));
    set_setups(&mut rec, &setups);
    StudyRun {
        world,
        config,
        db,
        timings,
        rec,
    }
}

/// Page visits a collection made: every OpenWPM site visit plus every
/// interaction-crawl record.
pub fn visits(db: &MeasurementDb) -> u64 {
    (db.crawls().iter().map(|c| c.visits.len()).sum::<usize>() + db.interactions().len()) as u64
}

fn set_setups(rec: &mut Record, setups: &[f64]) {
    rec.set("setup_s", sys::median(setups));
    let list: Vec<String> = setups.iter().map(|s| s.to_string()).collect();
    rec.set("setup_samples", list.join(","));
}

/// The analysis half of the study, timed phase by phase from `start`:
/// context build, all 17 stages with result assembly, then the summary and
/// the paper comparisons. Returns the rendered output and the closing mark.
pub fn analyse(
    world: &World,
    config: &StudyConfig,
    db: &MeasurementDb,
    timings: Vec<CrawlTiming>,
    start: &Mark,
    rec: &mut Record,
) -> (String, Mark) {
    let ctx = AnalysisContext::build(world, config, db);
    let m2 = Mark::now();
    let (outputs, stage_timings) = stages::run(db, &ctx, &stages::all_stages());
    let stage_count = stage_timings.len();
    let results = outputs.into_results(
        ctx.best_ranks.clone(),
        StageReport {
            crawls: timings,
            stages: stage_timings,
            caches: ctx.cache_counters(),
            shards: Vec::new(),
        },
    );
    let m3 = Mark::now();
    let rows = comparisons(&results, paper_factor(config));
    let output = format!(
        "{}\n{}",
        results.render_summary(),
        paper::render_comparisons("Paper vs measured", &rows)
    );
    let m4 = Mark::now();

    rec.set("core.context_build_s", start.wall_to(&m2));
    rec.set("core.stages_wall_s", m2.wall_to(&m3));
    rec.set("core.stages_cpu_s", m2.cpu_to(&m3));
    rec.set("core.stages_parallelism", m2.cpu_to(&m3) / m2.wall_to(&m3));
    rec.set("report.render_s", m3.wall_to(&m4));
    for cache in ctx.cache_counters() {
        let attempts = cache.hits + cache.misses;
        let ratio = if attempts == 0 {
            0.0
        } else {
            cache.hits as f64 / attempts as f64
        };
        rec.set(&format!("analysis.cache.{}.hit_ratio", cache.name), ratio);
    }
    rec.check(stage_count == stages::STAGES.len(), || {
        format!("{stage_count} of {} stages ran", stages::STAGES.len())
    });
    rec.check(rows.len() == EXPECTED_COMPARISONS, || {
        format!(
            "{} paper comparisons, expected {EXPECTED_COMPARISONS}",
            rows.len()
        )
    });
    (output, m4)
}

/// How many times larger the paper's world is than `config`'s: the factor
/// `reproduce` rescales count comparisons by (1 at paper scale, 20 for
/// `small`, 4 for a quarter).
fn paper_factor(config: &StudyConfig) -> f64 {
    let paper = WorldConfig::paper_scale(0).n_regular as f64;
    (paper / config.world.n_regular as f64).round()
}

/// Rows the paper-vs-measured table has at every seed and scale.
const EXPECTED_COMPARISONS: usize = 78;

/// `study-quarter` output check: the rendered summary plus comparison table
/// is byte-identical across runs at a fixed seed, so its digest is pinned.
fn check_study(output: &str, seed: u64, size: Size, rec: &mut Record) {
    let digest = sys::digest(output.as_bytes());
    rec.check(output.contains("Paper vs measured"), || {
        "rendered output lacks the comparison table".into()
    });
    if let Some(want) = expected::digest(Pinned::Study, size, seed) {
        rec.check(digest == want, || {
            format!("summary digest {digest}, pinned {want}")
        });
    }
    rec.set("digest", digest);
}

/// Output check of a collection on the `flaky` network: per-crawl visit,
/// attempt, retry, failure and transport counts, pinned by digest;
/// structural rules hold at any seed. Returns the digest.
pub fn check_flaky_collection(
    config: &StudyConfig,
    db: &MeasurementDb,
    timings: &[CrawlTiming],
    seed: u64,
    size: Size,
    rec: &mut Record,
) -> String {
    let mut lines = String::new();
    let (mut retries, mut timeouts) = (0u64, 0u64);
    for t in timings {
        let net = t.net.clone().unwrap_or_default();
        lines.push_str(&format!(
            "{} {:?} {:?} sites={} attempts={} retries={} failures={} requests={} responses={} \
             unreachable={} timeouts={} server_errors={} redirects={} body_bytes={}\n",
            t.crawler,
            t.country,
            t.corpus,
            t.sites,
            t.attempts,
            t.retries,
            t.failures,
            net.requests,
            net.responses,
            net.unreachable,
            net.timeouts,
            net.server_errors,
            net.redirects,
            net.body_bytes,
        ));
        retries += t.retries;
        timeouts += net.timeouts;
        if t.crawler == "openwpm" {
            rec.check(t.attempts == t.sites as u64 + t.retries, || {
                format!("{:?} crawl: attempts != sites + retries", t.country)
            });
        }
        rec.check(t.net.is_some(), || {
            format!("{:?} crawl was not metered", t.country)
        });
    }
    let plan = config.crawl_plan();
    rec.check(
        timings.len() == plan.openwpm.len() + plan.interactions.len(),
        || {
            format!(
                "{} crawls recorded for a plan of {}",
                timings.len(),
                plan.openwpm.len() + plan.interactions.len()
            )
        },
    );
    rec.check(db.crawls().len() == plan.openwpm.len(), || {
        "OpenWPM crawl count".into()
    });
    rec.check(retries > 0, || "the flaky network caused no retries".into());
    rec.check(timeouts > 0, || {
        "the flaky network caused no timeouts".into()
    });
    let digest = sys::digest(lines.as_bytes());
    if let Some(want) = expected::digest(Pinned::FlakyCollection, size, seed) {
        rec.check(digest == want, || {
            format!("flaky crawl-count digest {digest}, pinned {want}")
        });
    }
    digest
}

/// One traffic iteration. Setup is the same call with no sessions (world
/// build plus template harvest, run [`TRAFFIC_SETUPS`] times); the
/// timed part is the `run_traffic` call.
pub fn traffic_iteration(seed: u64, size: Size) -> (TrafficReport, Record) {
    let mut rec = Record::default();
    let mut setups = Vec::new();
    for _ in 0..TRAFFIC_SETUPS {
        let idle = TrafficConfig {
            sessions: 0,
            ..traffic_config(seed, size, true)
        };
        let t0 = Mark::now();
        let report = run_traffic(&idle, &ObsContext::new());
        setups.push(t0.wall_to(&Mark::now()));
        rec.check(report.events == 0, || {
            "an idle traffic run delivered events".into()
        });
    }

    let config = traffic_config(seed, size, true);
    let m0 = Mark::now();
    let report = run_traffic(&config, &ObsContext::new());
    let m1 = Mark::now();
    let kernel = report.wall.as_secs_f64();
    rec.set("wall_s", m0.wall_to(&m1));
    rec.set("cpu_s", m0.cpu_to(&m1));
    rec.set("peak_rss_mib", sys::peak_rss_mib());
    rec.set("events_per_s", report.events as f64 / kernel);
    rec.set("sim.kernel_wall_s", kernel);
    rec.set("ops", report.requests);
    set_setups(&mut rec, &setups);
    check_traffic(&config, &report, seed, size, &mut rec);
    (report, rec)
}

/// `traffic-1m` output check: session, page, request and event counts and
/// the makespan. The log-2 latency histogram percentiles stay out.
fn check_traffic(
    config: &TrafficConfig,
    report: &TrafficReport,
    seed: u64,
    size: Size,
    rec: &mut Record,
) {
    let counts = format!(
        "sessions={} completed={} failed={} pages={} requests={} failed_requests={} events={} makespan_ns={}",
        report.sessions,
        report.completed,
        report.failed,
        report.pages,
        report.requests,
        report.failed_requests,
        report.events,
        report.makespan.as_nanos(),
    );
    rec.check(report.sessions == config.sessions, || {
        "session count".into()
    });
    rec.check(report.completed + report.failed == report.sessions, || {
        "completed + failed != sessions".into()
    });
    rec.check(
        report.pages >= report.completed && report.requests >= report.pages,
        || "pages and requests are not ordered".into(),
    );
    rec.check(report.events > report.requests, || {
        "fewer kernel events than requests".into()
    });
    rec.check(report.timeline.is_some(), || {
        "timeline telemetry missing".into()
    });
    let digest = sys::digest(counts.as_bytes());
    if let Some(want) = expected::digest(Pinned::Traffic, size, seed) {
        rec.check(digest == want, || {
            format!("traffic-count digest {digest} ({counts}), pinned {want}")
        });
    }
    rec.set("digest", digest);
    rec.set("sim.events", report.events);
    rec.set("sim.peak_queue", report.peak_queue);
    rec.set("sim.peak_in_flight", report.peak_in_flight);
}

/// Runs one untraced iteration of `workload` and returns its record.
pub fn iteration(workload: Workload, seed: u64, size: Size) -> Record {
    match workload {
        Workload::Traffic1m => traffic_iteration(seed, size).1,
        Workload::StudyQuarter => study_iteration(study_config(seed, size), seed, size).rec,
    }
}

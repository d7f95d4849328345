//! Hot-path sweep: batched vs per-request ATS classification over the same
//! measurement database, at 1×/4×/16× world growth.
//!
//! For each factor the bench collects the tiny-world database once, then
//! classifies every answered request of every successful visit two ways
//! with a cold classifier each time:
//!
//! * **per-request** — the pre-batching hot path: render the fragmentless
//!   URL string and the two host strings for every occurrence and call
//!   [`AtsClassifier::is_ats_url`] each time (the string-keyed memo absorbs
//!   duplicates, but every occurrence still pays rendering + string
//!   hashing).
//! * **batch** — [`AtsClassifier::classify_batch`] per crawl (one verdict
//!   per distinct interned key, keys grouped by request FQDN), then one
//!   Sym-keyed [`AtsVerdicts::request_verdict`] column lookup per
//!   occurrence.
//!
//! Both paths must agree on every verdict; the bench asserts the summed
//! verdicts match before it reports. Results land in `BENCH_hotpath.json`
//! at the repo root: requests/second for both paths, allocations per visit
//! (via a counting global allocator), interned bytes per visit, and the
//! matcher's prefilter hit rate.
//!
//! ```sh
//! cargo bench -p redlight-bench --bench hotpath            # full sweep + JSON
//! cargo bench -p redlight-bench --bench hotpath -- --test  # 1× smoke (JSON under target/bench-smoke/)
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use redlight_analysis::ats::{AtsClassifier, AtsVerdicts};
use redlight_core::{Study, StudyConfig};
use redlight_crawler::db::MeasurementDb;
use redlight_net::psl::HostCache;
use redlight_websim::World;

/// Counts every heap allocation so the sweep can report allocations per
/// visit for both classification paths.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Row {
    factor: usize,
    requests: usize,
    visits: usize,
    per_request_rps: f64,
    batch_rps: f64,
    speedup: f64,
    per_request_allocs_per_visit: f64,
    batch_allocs_per_visit: f64,
    interned_bytes_per_visit: f64,
    prefilter_hit_rate: f64,
}

fn fresh_classifier(world: &World) -> AtsClassifier {
    AtsClassifier::with_hosts(
        &world.easylist,
        &world.easyprivacy,
        Arc::new(HostCache::new()),
    )
}

/// The pre-batching hot path: strings rendered and classified per
/// occurrence. Returns (occurrences, blocked verdicts).
fn classify_per_request(db: &MeasurementDb, classifier: &AtsClassifier) -> (usize, usize) {
    let mut requests = 0usize;
    let mut blocked = 0usize;
    for crawl in db.crawls() {
        for record in crawl.full().successful() {
            let Some(final_url) = record.visit.final_url.as_ref() else {
                continue;
            };
            let page = final_url.host().as_str();
            for req in &record.visit.requests {
                if req.status.is_none() {
                    continue;
                }
                requests += 1;
                blocked += usize::from(classifier.is_ats_url(
                    &req.url.without_fragment(),
                    page,
                    req.url.host().as_str(),
                    req.kind,
                ));
            }
        }
    }
    (requests, blocked)
}

/// The batched path: one column per crawl, one Sym-keyed lookup per
/// occurrence. Returns (occurrences, blocked verdicts).
fn classify_batched(db: &MeasurementDb, classifier: &AtsClassifier) -> (usize, usize) {
    let mut requests = 0usize;
    let mut blocked = 0usize;
    for crawl in db.crawls() {
        let batch = classifier.classify_batch(crawl.full());
        let ats = AtsVerdicts::with_batch(classifier, &batch);
        for record in crawl.full().successful() {
            let Some(page) = record.final_host else {
                continue;
            };
            for (i, req) in record.visit.requests.iter().enumerate() {
                if req.status.is_none() {
                    continue;
                }
                requests += 1;
                blocked += usize::from(ats.request_verdict(crawl.names(), record, page, i));
            }
        }
    }
    (requests, blocked)
}

/// Best-of-`reps` wall time and the allocation count of one run of `f`,
/// with a cold classifier per rep so no rep inherits a warm verdict memo.
fn measure(
    world: &World,
    db: &MeasurementDb,
    reps: usize,
    f: impl Fn(&MeasurementDb, &AtsClassifier) -> (usize, usize),
) -> (f64, u64, usize, usize, AtsClassifier) {
    let mut best_wall = f64::INFINITY;
    let mut allocs = 0u64;
    let mut counts = (0usize, 0usize);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let classifier = fresh_classifier(world);
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        counts = f(db, &classifier);
        let wall = t0.elapsed().as_secs_f64();
        if wall < best_wall {
            best_wall = wall;
            allocs = ALLOCS.load(Ordering::Relaxed) - a0;
        }
        last = Some(classifier);
    }
    let classifier = last.expect("at least one rep ran");
    (best_wall, allocs, counts.0, counts.1, classifier)
}

fn sweep(factor: usize, reps: usize) -> Row {
    let mut config = StudyConfig::tiny(2019);
    config.world = config.world.scaled(factor);
    let world = World::build(config.world.clone());
    let (db, _) = Study::collect_db(&world, &config);

    let (base_wall, base_allocs, base_requests, base_blocked, _) =
        measure(&world, &db, reps, classify_per_request);
    let (batch_wall, batch_allocs, batch_requests, batch_blocked, batch_classifier) =
        measure(&world, &db, reps, classify_batched);
    assert_eq!(base_requests, batch_requests, "same occurrence walk");
    assert_eq!(
        base_blocked, batch_blocked,
        "batched verdicts diverged from per-request verdicts"
    );

    let visits: usize = db.crawls().iter().map(|c| c.visits.len()).sum();
    let interned_bytes: usize = db.crawls().iter().map(|c| c.names().arena_bytes()).sum();
    let pre = batch_classifier.prefilter_stats();
    Row {
        factor,
        requests: base_requests,
        visits,
        per_request_rps: base_requests as f64 / base_wall.max(1e-9),
        batch_rps: batch_requests as f64 / batch_wall.max(1e-9),
        speedup: base_wall / batch_wall.max(1e-9),
        per_request_allocs_per_visit: base_allocs as f64 / visits.max(1) as f64,
        batch_allocs_per_visit: batch_allocs as f64 / visits.max(1) as f64,
        interned_bytes_per_visit: interned_bytes as f64 / visits.max(1) as f64,
        prefilter_hit_rate: pre.hits as f64 / (pre.hits + pre.misses).max(1) as f64,
    }
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from("{\"bench\":\"hotpath\",\"world\":\"tiny\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"scale\":{},\"requests\":{},\"visits\":{},\"per_request_rps\":{:.1},\
             \"batch_rps\":{:.1},\"speedup\":{:.2},\"per_request_allocs_per_visit\":{:.1},\
             \"batch_allocs_per_visit\":{:.1},\"interned_bytes_per_visit\":{:.1},\
             \"prefilter_hit_rate\":{:.3}}}",
            r.factor,
            r.requests,
            r.visits,
            r.per_request_rps,
            r.batch_rps,
            r.speedup,
            r.per_request_allocs_per_visit,
            r.batch_allocs_per_visit,
            r.interned_bytes_per_visit,
            r.prefilter_hit_rate
        ));
    }
    out.push_str("]}\n");
    out
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let factors: &[usize] = if test_mode { &[1] } else { &[1, 4, 16] };

    if !test_mode {
        // Throwaway warm-up run: allocator and page-cache warmup should not
        // penalize the first measured factor.
        sweep(1, 1);
    }

    let mut rows = Vec::new();
    for &factor in factors {
        let reps = if test_mode {
            1
        } else {
            (16 / factor).clamp(1, 5)
        };
        let row = sweep(factor, reps);
        println!(
            "scale {:>2}x: {:>7} requests / {:>6} visits — {:>9.0} rps per-request, \
             {:>9.0} rps batched ({:.2}x), allocs/visit {:>6.1} → {:>6.1}, \
             prefilter hit rate {:.1}%",
            row.factor,
            row.requests,
            row.visits,
            row.per_request_rps,
            row.batch_rps,
            row.speedup,
            row.per_request_allocs_per_visit,
            row.batch_allocs_per_visit,
            100.0 * row.prefilter_hit_rate
        );
        rows.push(row);
    }

    // Record the measured rows before judging them, so a failed guardrail
    // still leaves the numbers that failed it.
    let path = redlight_bench::results_path("hotpath", test_mode);
    std::fs::write(&path, json(&rows)).expect("write BENCH_hotpath.json");
    println!("wrote {}", path.display());

    if !test_mode {
        // Guardrails: batching must actually win at the top scale, and its
        // allocation footprint must stay flat as the corpus grows.
        let base = &rows[0];
        let top = rows.last().expect("at least one row");
        assert!(
            top.speedup >= 2.0,
            "batched classification only {:.2}x faster at {}x (want >= 2x)",
            top.speedup,
            top.factor
        );
        assert!(
            top.batch_allocs_per_visit <= 1.5 * base.batch_allocs_per_visit.max(1.0),
            "batch allocations grew superlinearly: {:.1}/visit at {}x vs {:.1} at 1x",
            top.batch_allocs_per_visit,
            top.factor,
            base.batch_allocs_per_visit
        );
    }
}

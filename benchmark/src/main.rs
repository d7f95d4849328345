//! The repository benchmark: two workloads driven through the public
//! entry points of `websim`, `crawler`, `core`, `report` and `sim`.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload study-quarter --seed 2019 --seconds 60 --trace 0
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` repeats untraced iterations of the workload, each in a fresh
//! child process so peak RSS and CPU time belong to that iteration alone,
//! while another iteration still fits in `--seconds` (and at least
//! three times), and reports the median of every end-to-end
//! metric.
//! `--trace 1` runs one traced child that emits the per-layer ledger. The
//! last stdout line is the JSON result; the line before it is the run's
//! manifest. Any failed output check makes the run
//! incorrect, counts all its operations as failed and exits 1.

mod expected;
mod ledger;
// The paper comparisons live in the `reproduce` binary, not in a library.
// Compiling that file as a module times exactly the comparisons users run.
#[allow(dead_code)]
#[path = "../../crates/bench/src/bin/reproduce.rs"]
mod reproduce;
mod sys;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use workloads::{Record, Size, Workload};

/// End-to-end metrics with their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("events_per_s", "1/s"),
];

struct Args {
    /// One workload, or all of them for `--workload all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<String>,
    size: Size,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: expected::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        child: None,
        size: Size::Full,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; expected all or one of {}",
                        names.join(", ")
                    )
                })?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--child" => args.child = Some(value),
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "reduced" => Size::Reduced,
                    _ => return Err("--size expects full or reduced".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = &args.child {
        return child(kind, &args);
    }
    if args.self_test {
        return self_test(&args);
    }
    if args.workloads.is_empty() {
        eprintln!("benchmark: --workload is required (or --self-test)");
        return ExitCode::from(2);
    }
    let mut code = ExitCode::SUCCESS;
    for &workload in &args.workloads {
        if !run(workload, &args) {
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// Child-process entry: one iteration, one ledger or the accounting
/// self-test, reported on stdout in the [`Record`] line protocol.
fn child(kind: &str, args: &Args) -> ExitCode {
    let workload = args
        .workloads
        .first()
        .copied()
        .unwrap_or(Workload::StudyQuarter);
    let rec = match kind {
        "iteration" => workloads::iteration(workload, args.seed, args.size),
        "ledger" => ledger::ledger(workload, args.seed, args.size),
        "accounting" => accounting_check(),
        _ => {
            eprintln!("benchmark: unknown child kind {kind:?}");
            return ExitCode::from(2);
        }
    };
    print!("{}", rec.to_lines());
    ExitCode::SUCCESS
}

/// Runs one child process to completion and parses its record. A child
/// that fails to start, panics or exits non-zero yields a record carrying
/// that as a problem.
fn spawn(kind: &str, workload: Workload, seed: u64, size: Size) -> Record {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let output = Command::new(exe)
        .args(["--child", kind, "--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--size", size.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    match output {
        Ok(out) if out.status.success() => {
            Record::from_lines(&String::from_utf8_lossy(&out.stdout))
        }
        Ok(out) => {
            let mut rec = Record::default();
            rec.problems
                .push(format!("{kind} child failed: {}", out.status));
            rec
        }
        Err(e) => {
            let mut rec = Record::default();
            rec.problems.push(format!("cannot start {kind} child: {e}"));
            rec
        }
    }
}

/// One benchmark run of `workload`, as the result contract describes.
/// Returns whether every output check passed.
fn run(workload: Workload, args: &Args) -> bool {
    let started = Instant::now();
    let steal0 = sys::steal_s();
    let mut recs = Vec::new();
    if args.trace {
        recs.push(spawn("ledger", workload, args.seed, Size::Full));
    } else {
        // Iterations take about the same time, so the run stops when the
        // next one would end past `--seconds`, instead of overrunning by up
        // to an iteration.
        let mut lengths = Vec::new();
        loop {
            let t0 = Instant::now();
            let rec = spawn("iteration", workload, args.seed, Size::Full);
            lengths.push(t0.elapsed().as_secs_f64());
            let failed = !rec.problems.is_empty();
            recs.push(rec);
            let next_end = started.elapsed().as_secs_f64() + sys::median(&lengths);
            let enough = recs.len() >= workloads::MIN_ITERATIONS && next_end > args.seconds as f64;
            if failed || enough {
                break;
            }
        }
    }

    let mut problems: Vec<String> = recs.iter().flat_map(|r| r.problems.clone()).collect();
    let mut digests: Vec<&String> = recs.iter().filter_map(|r| r.values.get("digest")).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!(
            "iterations disagree on the output digest: {digests:?}"
        ));
    }
    digests.extend(recs.iter().filter_map(|r| r.values.get("flaky_digest")));
    // An iteration that died before reporting counts as many operations as
    // the largest one that did.
    let per_iteration = recs.iter().filter_map(|r| r.num("ops")).fold(1.0, f64::max);
    let attempted = (per_iteration * recs.len() as f64) as u64;

    let metrics: Vec<(String, &str, Option<f64>)> = if args.trace {
        ledger::layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let v = recs[0].num(&name);
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let samples: Vec<f64> = if name == "setup_s" {
                    recs.iter()
                        .filter_map(|r| r.values.get("setup_samples"))
                        .flat_map(|s| s.split(',').filter_map(|v| v.parse().ok()))
                        .collect()
                } else {
                    recs.iter().filter_map(|r| r.num(name)).collect()
                };
                let v = (!samples.is_empty()).then(|| sys::median(&samples));
                (name.to_string(), unit, v)
            })
            .collect()
    };
    for (name, _, v) in &metrics {
        if !v.is_some_and(f64::is_finite) {
            problems.push(format!("metric {name} was not measured"));
        }
    }
    let correct = problems.is_empty();
    let failed = if correct { 0 } else { attempted };
    for p in &problems {
        eprintln!("benchmark: CHECK FAILED: {p}");
    }

    for (name, unit, v) in &metrics {
        match v {
            Some(v) => eprintln!("{name:<40} {v:>16.6} {unit}"),
            None => eprintln!("{name:<40} {:>16} {unit}", "-"),
        }
    }
    eprintln!(
        "attempted {attempted} operations, failed {failed}, {} iteration(s)",
        recs.len()
    );

    let metric_json: Vec<String> = metrics
        .iter()
        .filter_map(|(name, unit, v)| {
            v.filter(|v| v.is_finite())
                .map(|v| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metric_json.join(", ")
    );
    let steal = sys::steal_s() - steal0;
    let manifest = manifest(
        Some(workload),
        Size::Full,
        args,
        recs.len(),
        &digests,
        steal,
    );
    println!("{manifest}");
    println!("{result}");
    save(&format!(
        "{{\"manifest\": {manifest}, \"result\": {result}}}"
    ));
    correct
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's stdout, or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(benchmark_dir())
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// What produced a result: inputs, sizes, machine and build. `None` stands
/// for all workloads (the self-test).
fn manifest(
    workload: Option<Workload>,
    size: Size,
    args: &Args,
    iterations: usize,
    digests: &[&String],
    steal_s: f64,
) -> String {
    let scale = match (workload, size) {
        (_, Size::Reduced) => "tiny",
        (Some(Workload::Traffic1m), Size::Full) => "small",
        (Some(Workload::StudyQuarter), Size::Full) => "quarter-paper",
        (None, Size::Full) => "mixed",
    };
    let sessions = match workload {
        Some(Workload::StudyQuarter) => 0,
        _ => workloads::traffic_config(args.seed, size, true).sessions,
    };
    // Only the traced study run (and the self-test) collects on the flaky
    // network.
    let fault_seed = match workload {
        Some(Workload::StudyQuarter) if args.trace => flaky_fault_seed(args.seed, size),
        None => flaky_fault_seed(args.seed, size),
        Some(_) => "none".to_string(),
    };
    let mode = match size {
        Size::Full => "full",
        Size::Reduced => "self-test",
    };
    let mut digests: Vec<&String> = digests.to_vec();
    digests.dedup();
    let digests: Vec<String> = digests.iter().map(|d| json_str(d)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"fault_seed\": {}, \"scale\": {}, \"sessions\": {sessions}, \
         \"trace\": {}, \"seconds\": {}, \"iterations\": {iterations}, \"digests\": [{}], \
         \"host_steal_s\": {steal_s:.2}, \"git_revision\": {}, \"nproc\": {}, \"rustc\": {}, \"mode\": {}}}",
        json_str(workload.map_or("all", Workload::name)),
        args.seed,
        json_str(&fault_seed),
        json_str(scale),
        u8::from(args.trace),
        args.seconds,
        digests.join(", "),
        json_str(&probe("git", &["rev-parse", "HEAD"])),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&probe("rustc", &["--version"])),
        json_str(mode),
    )
}

fn flaky_fault_seed(seed: u64, size: Size) -> String {
    workloads::flaky_config(seed, size)
        .net
        .fault_seed
        .to_string()
}

/// Appends a full-mode record to `results/runs.jsonl` in the benchmark
/// directory. Self-test runs never call this.
fn save(line: &str) {
    let dir: PathBuf = benchmark_dir().join("results");
    let written = std::fs::create_dir_all(&dir).and_then(|_| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("runs.jsonl"))?;
        writeln!(f, "{line}")
    });
    if let Err(e) = written {
        eprintln!("benchmark: cannot record the run in {}: {e}", dir.display());
    }
}

/// A spin loop must be charged to CPU time and touching a 64 MiB buffer
/// must raise the peak RSS.
fn accounting_check() -> Record {
    let mut rec = Record::default();
    let before = sys::Mark::now();
    let spin_until = Instant::now() + Duration::from_millis(400);
    let mut x = 0u64;
    while Instant::now() < spin_until {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let after = sys::Mark::now();
    let cpu = before.cpu_to(&after);
    rec.set("spin_wall_s", before.wall_to(&after));
    rec.set("spin_cpu_s", cpu);
    rec.check((0.3..0.6).contains(&cpu), || {
        format!("a 0.4 s spin was charged {cpu} CPU s")
    });

    let peak0 = sys::peak_rss_mib();
    let mut buffer = vec![0u8; 64 << 20];
    for page in buffer.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&buffer);
    let rise = sys::peak_rss_mib() - peak0;
    rec.set("touch_peak_rise_mib", rise);
    rec.check(rise >= 60.0, || {
        format!("touching 64 MiB raised the peak by {rise} MiB")
    });
    rec
}

/// Reduced-size harness self-test: the accounting check, every workload's
/// iteration twice (identical counts and digests, phases tiling the wall),
/// every workload's ledger once with every layer metric present, and
/// `BENCHMARK.json` listing exactly the metrics this program emits.
fn self_test(args: &Args) -> ExitCode {
    let steal0 = sys::steal_s();
    let mut problems = Vec::new();
    let mut digests = Vec::new();
    let seed = args.seed;
    let accounting = spawn("accounting", Workload::StudyQuarter, seed, Size::Reduced);
    problems.extend(accounting.problems.iter().cloned());
    eprintln!(
        "self-test: spin charged {:?} CPU s, 64 MiB touch raised the peak {:?} MiB",
        accounting.num("spin_cpu_s"),
        accounting.num("touch_peak_rise_mib")
    );

    for workload in Workload::ALL {
        let name = workload.name();
        let a = spawn("iteration", workload, seed, Size::Reduced);
        let b = spawn("iteration", workload, seed, Size::Reduced);
        for rec in [&a, &b] {
            problems.extend(rec.problems.iter().map(|p| format!("{name}: {p}")));
        }
        for key in ["digest", "ops"] {
            if !a.values.contains_key(key) || a.values.get(key) != b.values.get(key) {
                problems.push(format!("{name}: {key} differs between two runs"));
            }
        }
        let phases: &[&str] = match workload {
            Workload::StudyQuarter => &[
                "crawler.collect_wall_s",
                "core.context_build_s",
                "core.stages_wall_s",
                "report.render_s",
            ],
            Workload::Traffic1m => &[],
        };
        if !phases.is_empty() {
            let sum: f64 = phases.iter().filter_map(|p| a.num(p)).sum();
            let wall = a.num("wall_s").unwrap_or(f64::NAN);
            if (sum - wall).abs() > 1e-9 * wall.max(1.0) {
                problems.push(format!("{name}: phases sum to {sum} s, wall_s is {wall} s"));
            }
        }
        let traced = spawn("ledger", workload, seed, Size::Reduced);
        problems.extend(
            traced
                .problems
                .iter()
                .map(|p| format!("{name} ledger: {p}")),
        );
        for (metric, _) in ledger::layer_metrics() {
            if !traced.num(&metric).is_some_and(f64::is_finite) {
                problems.push(format!("{name} ledger: {metric} missing"));
            }
        }
        eprintln!(
            "self-test: {name} digest {:?}, ops {:?}",
            a.values.get("digest"),
            a.num("ops")
        );
        digests.extend(a.values.get("digest").cloned());
    }

    let spec_path = benchmark_dir().join("../BENCHMARK.json");
    match std::fs::read_to_string(&spec_path) {
        Ok(spec) => {
            let listed = spec.matches("\"name\":").count();
            let names: Vec<String> = END_TO_END
                .iter()
                .map(|(n, _)| n.to_string())
                .chain(ledger::layer_metrics().into_iter().map(|(n, _)| n))
                .collect();
            for n in &names {
                if !spec.contains(&format!("\"name\": \"{n}\"")) {
                    problems.push(format!("BENCHMARK.json does not list {n}"));
                }
            }
            let workloads = Workload::ALL.len();
            if listed != names.len() + workloads {
                problems.push(format!(
                    "BENCHMARK.json names {listed} entries, expected {} metrics and {workloads} workloads",
                    names.len()
                ));
            }
        }
        Err(e) => problems.push(format!("cannot read {}: {e}", spec_path.display())),
    }

    for p in &problems {
        eprintln!("self-test: FAILED: {p}");
    }
    let digests: Vec<&String> = digests.iter().collect();
    let steal = sys::steal_s() - steal0;
    println!(
        "{}",
        manifest(None, Size::Reduced, args, 2, &digests, steal)
    );
    if problems.is_empty() {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        println!("self-test: {} problem(s)", problems.len());
        ExitCode::FAILURE
    }
}

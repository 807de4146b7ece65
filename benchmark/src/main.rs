//! `fivm-e2e` — the repository's benchmark.  See `README.md`.
//!
//! ```text
//! fivm-e2e run [--seed N] [--quick]                 every workload, untraced then traced, then the micro-kernels
//! fivm-e2e run --workload W --seed N --seconds S --trace 0|1   one pass (the driver's form)
//! fivm-e2e repeat N [--seed N] [--quick]            N full sets and their agreement
//! fivm-e2e spec                                     prints BENCHMARK.json
//! ```
//!
//! A pass prints every metric by name with its unit and, as the last line
//! of standard output, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod fleet;
mod gen;
mod harness;
mod micro;
mod pair;
mod service;
mod spec;
mod trace;
mod util;

use harness::{out_dir, Params, Report};
use spec::{Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use util::{json_num, json_str, peak_rss_mb, quartile_spread, ResultLine};

/// Seconds per pass under `--quick` (numbers are then not comparable).
const QUICK_SECONDS: f64 = 0.5;
/// Seconds a traced run spends on each *other* workload's layers.
const TOUR_SECONDS: f64 = 1.0;
/// The pass that runs only the micro-kernels (internal to `run`/`repeat`).
const MICRO: &str = "micro";

struct Args {
    command: String,
    repeat: usize,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    /// Internal, for the passes `run` and `repeat` spawn: report only what
    /// the named workload (or `micro`) measures itself.
    native_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("missing command: run | repeat N | spec")?;
    let mut args = Args {
        command,
        repeat: 2,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        native_only: false,
    };
    let value = |flag: &str, argv: &mut dyn Iterator<Item = String>| {
        argv.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload", &mut argv)?),
            "--seed" => {
                args.seed = value("--seed", &mut argv)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value("--seconds", &mut argv)?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => args.trace = value("--trace", &mut argv)? == "1",
            "--quick" => args.quick = true,
            "--native-only" => args.native_only = true,
            n if args.command == "repeat" && n.parse::<usize>().is_ok() => {
                args.repeat = n.parse().unwrap_or(2)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        let known =
            spec::workload_names().contains(&w.as_str()) || (args.native_only && w == MICRO);
        if !known {
            return Err(format!(
                "unknown workload `{w}` (have: {})",
                spec::workload_names().join(", ")
            ));
        }
    }
    Ok(args)
}

fn run_workload(name: &str, p: &Params, tr: &mut Tracer) -> Report {
    match name {
        "retailer-fact" => pair::run::<pair::RetailerFact>(p, tr),
        "favorita-ring" => pair::run::<pair::FavoritaRing>(p, tr),
        "retailer-mixed" => pair::run::<pair::RetailerMixed>(p, tr),
        "retailer-service" => service::run(p, tr),
        "retailer-fleet" => fleet::run(p, tr),
        MICRO => micro::run(p, tr),
        other => unreachable!("workload `{other}` was validated against the spec"),
    }
}

/// One pass of one workload in this process; prints the metrics and the
/// result line.
fn run_pass(name: &str, args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        spec::RUN_SECONDS as f64
    });
    let p = Params {
        seed: args.seed,
        seconds,
        full: !args.quick,
        trace: args.trace,
    };
    let mut tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut report = tr.span("bench.pass", 0, |tr| run_workload(name, &p, tr));
    report.e2e("peak_rss_mb", peak_rss_mb());
    let wanted: &[Metric] = if args.trace {
        report.layer("bench.unattributed_pct", tr.unattributed_pct());
        report.layer("bench.trace_spans", tr.recorded() as f64);
        if let Err(e) = tr.write_json(&out_dir().join(format!("trace-{name}.json")), name) {
            eprintln!("fivm-e2e: cannot write the trace: {e}");
            return ExitCode::FAILURE;
        }
        if !args.native_only {
            // Every layer is measured in every traced run: the layers this
            // workload bypasses get a short reduced-scale pass of the
            // workload that exercises them (a per-layer pass like this one,
            // probes included, but with recording off), then the
            // micro-kernels run.
            let tour = Params {
                seconds: TOUR_SECONDS.min(seconds),
                full: false,
                ..p
            };
            for other in spec::workload_names().into_iter().filter(|w| *w != name) {
                report.adopt_layers(run_workload(other, &tour, &mut Tracer::off()));
            }
            report.adopt_layers(micro::run(&p, &mut Tracer::off()));
        }
        PER_LAYER
    } else {
        END_TO_END
    };

    let values = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let mut line = ResultLine::default();
    println!(
        "workload {name}  seed {}  seconds {seconds}  trace {}{}",
        p.seed,
        u8::from(p.trace),
        if args.quick {
            "  (quick: not comparable)"
        } else {
            ""
        }
    );
    for m in wanted {
        let value = match values.get(m.name).copied().filter(|v| v.is_finite()) {
            Some(value) => value,
            None if args.native_only => continue,
            None => {
                eprintln!("fivm-e2e: {name} did not measure `{}`", m.name);
                report.failed += 1;
                0.0
            }
        };
        println!("  {:<34} {:>16.4} {}", m.name, value, m.unit);
        line.metrics
            .insert(m.name.to_string(), (value, m.unit.to_string()));
    }
    for failure in &report.failures {
        eprintln!("fivm-e2e: FAILED {failure}");
    }
    line.attempted = report.attempted.max(1);
    line.failed = report.failed;
    line.correct = report.failed == 0;
    println!("{}", line.to_json());
    if line.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one pass in a fresh child process and parses its result line.
fn child_pass(name: &str, args: &Args, trace: bool) -> Result<(ResultLine, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "run",
        "--native-only",
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    // Traced passes only attribute time; half the window is enough.
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        spec::RUN_SECONDS as f64
    });
    cmd.args([
        "--seconds",
        &(if trace { seconds / 2.0 } else { seconds }).to_string(),
    ]);
    if args.quick {
        cmd.arg("--quick");
    }
    let start = Instant::now();
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .and_then(ResultLine::parse)
        .ok_or(format!("{name}: no result line"))?;
    Ok((line, start.elapsed().as_secs_f64()))
}

struct SetResult {
    /// workload → metric → value, end-to-end and per-layer together.
    metrics: BTreeMap<String, BTreeMap<String, f64>>,
    wall_s: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Every workload, each pass in its own child process, one after another.
fn run_set(args: &Args) -> Result<SetResult, String> {
    let mut set = SetResult {
        metrics: BTreeMap::new(),
        wall_s: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    for name in spec::workload_names() {
        let mut wall = 0.0;
        for trace in [false, true] {
            let (line, secs) = child_pass(name, args, trace)?;
            wall += secs;
            set.attempted += line.attempted;
            set.failed += line.failed;
            let entry = set.metrics.entry(name.to_string()).or_default();
            for (metric, (value, _)) in line.metrics {
                entry.insert(metric, value);
            }
        }
        eprintln!("fivm-e2e: {name} done in {wall:.1} s");
        set.wall_s.insert(name.to_string(), wall);
    }
    let (line, secs) = child_pass(MICRO, args, true)?;
    set.attempted += line.attempted;
    set.failed += line.failed;
    set.metrics.insert(
        MICRO.to_string(),
        line.metrics.into_iter().map(|(m, (v, _))| (m, v)).collect(),
    );
    set.wall_s.insert(MICRO.to_string(), secs);
    Ok(set)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn print_set(set: &SetResult) {
    for (workload, metrics) in &set.metrics {
        println!("{workload}");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = metrics.get(m.name) {
                println!("  {:<34} {:>16.4} {}", m.name, v, m.unit);
            }
        }
    }
}

fn write_result_json(args: &Args, set: &SetResult) -> std::io::Result<()> {
    let workloads: Vec<String> = set
        .metrics
        .iter()
        .map(|(w, metrics)| {
            let body: Vec<String> = metrics
                .iter()
                .map(|(m, v)| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_str(m),
                        json_num(*v),
                        json_str(spec::unit_of(m).unwrap_or(""))
                    )
                })
                .collect();
            format!(
                "    {}: {{\"wall_s\": {}, \"metrics\": {{{}}}}}",
                json_str(w),
                json_num(set.wall_s[w]),
                body.join(", ")
            )
        })
        .collect();
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let text = format!(
        "{{\n  \"seed\": {},\n  \"nproc\": {},\n  \"git_revision\": {},\n  \"rustc\": {},\n  \"profile\": {},\n  \"quick\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        std::thread::available_parallelism().map_or(1, usize::from),
        json_str(&command_line("git", &["-C", manifest_dir, "rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["-V"])),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release (lto = thin, debug = true)" }),
        args.quick,
        set.attempted,
        set.failed,
        workloads.join(",\n")
    );
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join("result.json"), text)
}

fn run_all(args: &Args) -> ExitCode {
    match run_set(args) {
        Ok(set) => {
            print_set(&set);
            println!(
                "ops_attempted {}  ops_failed {}{}",
                set.attempted,
                set.failed,
                if args.quick {
                    "  (quick: not comparable)"
                } else {
                    ""
                }
            );
            if let Err(e) = write_result_json(args, &set) {
                eprintln!("fivm-e2e: cannot write result.json: {e}");
                return ExitCode::FAILURE;
            }
            if set.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fivm-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repeat N`: N full sets with one seed; fails if an end-to-end metric
/// moves by more than its bound between sets, or a count metric is not
/// exactly equal.
fn repeat(args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for i in 0..args.repeat.max(2) {
        eprintln!("fivm-e2e: set {} of {}", i + 1, args.repeat.max(2));
        match run_set(args) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("fivm-e2e: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut bad = sets.iter().map(|s| s.failed).sum::<u64>();
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "min", "max", "spread", "bound"
    );
    for (workload, first) in &sets[0].metrics {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.metrics.get(workload)?.get(m.name).copied())
                .collect();
            if values.len() != sets.len() || !first.contains_key(m.name) {
                continue;
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let spread = if values.len() >= 4 {
                quartile_spread(&values)
            } else if lo == 0.0 {
                0.0
            } else {
                (hi - lo) / lo.abs()
            };
            let verdict = if spec::is_count(m.name) && lo != hi {
                bad += 1;
                "COUNT DIFFERS"
            } else if m.bound > 0.0 && m.name != "setup_s" && spread > m.bound {
                bad += 1;
                "OVER BOUND"
            } else {
                ""
            };
            if m.bound > 0.0 || !verdict.is_empty() {
                println!(
                    "{workload:<18} {:<34} {lo:>14.4} {hi:>14.4} {:>8.2}% {:>6.0}% {verdict}",
                    m.name,
                    spread * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fivm-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), &args.workload) {
        ("spec", _) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        ("run", Some(name)) => run_pass(name, &args),
        ("run", None) => run_all(&args),
        ("repeat", _) => repeat(&args),
        (other, _) => {
            eprintln!("fivm-e2e: unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}

//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path sizing_bench/Cargo.toml -- \
//!     --workload dnnopt_ota --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path sizing_bench/Cargo.toml -- --manifest
//! ```
//!
//! `--trace 0` times untraced sizing runs and prints the end-to-end metrics;
//! `--trace 1` adds one traced run of the same workload and seed and prints
//! the per-layer metrics. The last stdout line is the JSON result.
//! `--manifest` prints `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use opt::{RunResult, SizingProblem};
use sizing_bench::{
    failures, manifest, median, same_history, same_spec, MetricSpec, TimedProblem, Workload,
    END_TO_END, PER_LAYER,
};
use telemetry::{Metric, SinkKind, SpanId, Summary};

/// Set-up is timed in batches of `SETUP_BATCH` problem builds: for 1 s
/// before the first sizing run and for 0.2 s after each one. `setup_s` is
/// the median over batches of the mean build time. Sampling across the
/// whole invocation keeps a short burst of host noise from setting it.
const SETUP_BATCH: usize = 25;
const SETUP_FIRST_SECONDS: f64 = 1.0;
const SETUP_BETWEEN_SECONDS: f64 = 0.2;
/// Untraced sizing runs per invocation, at least; more while time remains.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// The benchmark measures the program's default configuration: any
/// `DNNOPT_*` override (threads, sparse engine, fault plane, tracing) would
/// change what is measured.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DNNOPT_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration",
            set.join(", ")
        ))
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and build this result was measured on.
fn host_record() -> String {
    // Only ask git inside a checkout's own repository, never a parent's.
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    format!(
        "{{\"nproc\": \"{}\", \"pool_threads\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        command_output("nproc", &[]),
        opt::parallel::max_threads(),
        env!("SIZING_BENCH_RUSTC"),
        commit
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time consumed so far by every thread of this process, in seconds
/// (the scheduler's per-thread run time, which leaves out time a virtual
/// CPU was preempted by its host).
fn process_cpu_s() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten();
    let ns: f64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum();
    ns * 1e-9
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Appends set-up samples (mean build time of a batch) for `seconds`.
fn sample_setup(w: Workload, samples: &mut Vec<f64>, seconds: f64) {
    let start = Instant::now();
    while secs(start.elapsed()) < seconds {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(w.build());
        }
        samples.push(secs(t0.elapsed()) / SETUP_BATCH as f64);
    }
}

/// Checks one run against the workload's contract and the reference run,
/// returning what is wrong.
fn check_run(w: Workload, run: &RunResult, reference: &RunResult, what: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if run.history.len() != w.budget() {
        errors.push(format!(
            "{what}: history has {} entries, budget is {}",
            run.history.len(),
            w.budget()
        ));
    }
    if !same_history(&run.history, &reference.history) {
        errors.push(format!(
            "{what}: history differs from the first untraced run"
        ));
    }
    errors
}

/// Re-simulates the reported best design and compares it with the record.
fn check_best(problem: &dyn SizingProblem, run: &RunResult) -> Option<String> {
    let Some(best) = run.history.best() else {
        return Some("run recorded no best design".to_string());
    };
    (!same_spec(&problem.evaluate(&best.x), &best.spec))
        .then(|| "re-evaluating the best design gives a different SpecResult".to_string())
}

/// Per-layer metrics of the traced run.
fn layer_metrics(
    out: &mut BTreeMap<&'static str, f64>,
    s: &Summary,
    tb: &sizing_bench::TestbenchReport,
    traced: &RunResult,
    traced_wall: f64,
) {
    let span_s = |id: SpanId| s.span_ns(id) as f64 * 1e-9;
    let count = |m: Metric| s.metric(m).count as f64;
    let sum = |m: Metric| s.metric(m).sum as f64;
    let threads = opt::parallel::max_threads() as f64;

    out.insert("dnn_opt.critic_train_s", span_s(SpanId::CriticTrain));
    out.insert("dnn_opt.actor_train_s", span_s(SpanId::ActorTrain));
    out.insert(
        "dnn_opt.generations",
        s.span_count(SpanId::Generation) as f64,
    );
    out.insert("nn.train_steps", count(Metric::TrainSteps));

    // Every GEMM records its flops; only those at or above the parallel
    // work cutoff open a `gemm` span, so `gemm.s` times that subset.
    let gemm_calls = count(Metric::GemmFlops);
    let split = s.metric(Metric::GemmSplitWidth);
    out.insert("gemm.calls", gemm_calls);
    out.insert("gemm.s", span_s(SpanId::Gemm));
    out.insert(
        "gemm.gflops",
        ratio(sum(Metric::GemmFlops) * 1e-9, span_s(SpanId::Gemm)),
    );
    out.insert(
        "gemm.mean_split_width",
        ratio(
            split.sum as f64 + (gemm_calls - split.count as f64),
            gemm_calls,
        ),
    );

    out.insert("pool.threads", threads);
    out.insert("pool.dispatches", count(Metric::PoolDispatchNs));
    out.insert(
        "pool.dispatch_us_mean",
        s.metric(Metric::PoolDispatchNs).mean() * 1e-3,
    );
    out.insert("pool.busy_s", sum(Metric::PoolBusyNs) * 1e-9);

    let busy = secs(tb.busy);
    let active = secs(tb.active);
    out.insert("opt.eval_active_s", active);
    out.insert("opt.eval_util", ratio(busy, active * threads));
    out.insert("opt.eval_idle_s", active * threads - busy);

    out.insert("circuits.tb_calls", tb.calls as f64);
    out.insert("circuits.tb_busy_s", busy);
    out.insert("circuits.tb_ms_p50", secs(tb.p50) * 1e3);
    out.insert("circuits.tb_ms_p99", secs(tb.p99) * 1e3);
    out.insert("circuits.tb_failed", tb.failed as f64);
    out.insert(
        "circuits.untagged_failures",
        traced.history.robustness_report().untagged as f64,
    );
    out.insert(
        "circuits.tb_unattributed_s",
        span_s(SpanId::Testbench) - span_s(SpanId::Solve),
    );

    let newton = s.metric(Metric::NewtonIterations);
    out.insert("spice.solves", s.span_count(SpanId::Solve) as f64);
    out.insert("spice.solve_s", span_s(SpanId::Solve));
    out.insert("spice.newton_iters", newton.sum as f64);
    out.insert("spice.newton_iters_per_solve", newton.mean());
    out.insert("spice.gmin_steps", sum(Metric::GminSteps));
    out.insert("spice.source_steps", sum(Metric::SourceSteps));
    out.insert("spice.step_halvings", sum(Metric::StepHalvings));
    let hits = count(Metric::WorkspaceHits);
    out.insert(
        "spice.workspace_hit_ratio",
        ratio(hits, hits + count(Metric::WorkspaceMisses)),
    );

    let refactors = s.span_count(SpanId::Refactor) as f64;
    out.insert("sparse.factors", count(Metric::SparseFactors));
    out.insert("sparse.factor_s", span_s(SpanId::Factor));
    out.insert("sparse.refactors", count(Metric::SparseRefactors));
    out.insert("sparse.refactor_s", span_s(SpanId::Refactor));
    out.insert(
        "sparse.refactor_us_mean",
        ratio(span_s(SpanId::Refactor) * 1e6, refactors),
    );
    out.insert(
        "sparse.blocked_dispatch_frac",
        ratio(
            sum(Metric::SparseBlockedDispatch),
            count(Metric::SparseBlockedDispatch),
        ),
    );

    let untraced_wall = out["run_wall_s"];
    out.insert("telemetry.overhead_frac", traced_wall / untraced_wall - 1.0);
    out.insert("dnn_opt.model_share", out["model_s"] / untraced_wall);
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    specs: &[MetricSpec],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, values[m.name], m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn bench(args: &Args) -> bool {
    let w = args.workload;
    // Tracing stays off for the timed runs, whatever the environment says.
    telemetry::install(None);
    println!("host: {}", host_record());
    println!(
        "workload: {} seed={} budget={} optimizer={}",
        w.name(),
        args.seed,
        w.budget(),
        w.optimizer().name()
    );

    let start = Instant::now();
    let mut setup = Vec::new();
    sample_setup(w, &mut setup, SETUP_FIRST_SECONDS);
    let problem = w.build();
    let mut runs: Vec<RunResult> = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    while runs.len() < MIN_RUNS || secs(start.elapsed()) < args.seconds {
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let run = w.run(&problem, args.seed);
        walls.push(secs(t0.elapsed()));
        cpus.push(process_cpu_s() - c0);
        runs.push(run);
        sample_setup(w, &mut setup, SETUP_BETWEEN_SECONDS);
    }

    let list = |v: &[f64]| {
        v.iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "untraced runs: n={} wall_s=[{}] cpu_s=[{}]",
        walls.len(),
        list(&walls),
        list(&cpus)
    );

    // `failed` counts the sizing runs that failed a check.
    let mut errors = Vec::new();
    let mut failed = 0;
    for (i, run) in runs.iter().enumerate() {
        let mut e = check_run(w, run, &runs[0], &format!("untraced run {i}"));
        if i == 0 {
            e.extend(check_best(&problem, run));
        }
        failed += usize::from(!e.is_empty());
        errors.extend(e);
    }

    let first = &runs[0];
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("setup_s", median(&setup));
    values.insert("run_wall_s", median(&walls));
    values.insert("run_cpu_s", median(&cpus));
    values.insert(
        "sim_s",
        median(&runs.iter().map(|r| secs(r.sim_time)).collect::<Vec<_>>()),
    );
    values.insert(
        "model_s",
        median(&runs.iter().map(|r| secs(r.model_time)).collect::<Vec<_>>()),
    );
    values.insert(
        "best_fom",
        *first.history.best_trace().last().expect("budget > 0"),
    );
    values.insert(
        "failed_sims_frac",
        failures(&first.history) as f64 / first.history.len() as f64,
    );
    values.insert("peak_rss_mb", peak_rss_mb());
    let mut attempted = runs.len();

    if args.trace {
        telemetry::reset();
        telemetry::install(Some(SinkKind::Summary));
        let timed = TimedProblem::new(&problem);
        let t0 = Instant::now();
        let traced = w.run(&timed, args.seed);
        let traced_wall = secs(t0.elapsed());
        let summary = telemetry::snapshot();
        telemetry::install(None);
        attempted += 1;
        let e = check_run(w, &traced, first, "traced run");
        failed += usize::from(!e.is_empty());
        errors.extend(e);
        layer_metrics(&mut values, &summary, &timed.report(), &traced, traced_wall);
    }

    let specs: &[MetricSpec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = values.get(m.name) {
            println!("metric {:<32} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        result_json(correct, attempted, failed, specs, &values)
    );
    correct
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", manifest());
            return;
        }
        Err(e) => {
            eprintln!("sizing_bench: {e}");
            eprintln!(
                "usage: sizing_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = check_environment() {
        eprintln!("sizing_bench: {e}");
        std::process::exit(2);
    }
    if !bench(&args) {
        std::process::exit(1);
    }
}

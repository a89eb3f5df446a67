//! End-to-end sizing-run benchmark: the workloads, the timing decorator that
//! attributes a traced run's time to the testbench layer, and the metric
//! table `BENCHMARK.json` is generated from.
//!
//! The binary (`src/main.rs`) drives one workload per process; see
//! `README.md` for the workload/metric map.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use circuits::tech::CornerSet;
use circuits::FoldedCascodeOta;
use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{
    AnalysisSpec, DifferentialEvolution, Fom, History, Optimizer, RunResult, SizingProblem,
    SpecResult, StopPolicy, FAILURE_PENALTY,
};

// ---------------------------------------------------------------------------
// Workloads.

/// One named benchmark workload: a testbench variant, an optimizer with its
/// default configuration, and a fixed simulation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DNN-Opt on the nominal folded-cascode OTA (paper Table II / Fig. 3).
    DnnOptOta,
    /// The paper's DE baseline on the OTA across the five-corner PVT plane.
    DeOtaPvt5,
    /// DE on the post-layout OTA (per-node parasitic RC ladders).
    DeOtaPostLayout,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 3] = [
        Workload::DnnOptOta,
        Workload::DeOtaPvt5,
        Workload::DeOtaPostLayout,
    ];

    /// The name given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DnnOptOta => "dnnopt_ota",
            Workload::DeOtaPvt5 => "de_ota_pvt5",
            Workload::DeOtaPostLayout => "de_ota_post_layout",
        }
    }

    /// Why the workload is in the benchmark (one line, for the manifest).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DnnOptOta => {
                "model-bound: DNN-Opt critic/actor training, nn and GEMM pool splits dominate; \
                 spice does little (paper Table II setting)"
            }
            Workload::DeOtaPvt5 => {
                "simulation-only: 5 corners x 2 analyses per candidate; evaluation grid, pool \
                 load balance and corner Newton solves on small systems"
            }
            Workload::DeOtaPostLayout => {
                "simulation-only on post-layout MNA systems of several hundred unknowns; sparse \
                 refactor cost and the supernodal gate at n >= 64"
            }
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulations one sizing run spends.
    pub fn budget(self) -> usize {
        match self {
            Workload::DnnOptOta => 40,
            Workload::DeOtaPvt5 => 100,
            Workload::DeOtaPostLayout => 100,
        }
    }

    /// Builds the problem instance (the benchmark's set-up step).
    pub fn build(self) -> FoldedCascodeOta {
        match self {
            Workload::DnnOptOta => FoldedCascodeOta::new(),
            Workload::DeOtaPvt5 => FoldedCascodeOta::with_corners(CornerSet::pvt5()),
            Workload::DeOtaPostLayout => FoldedCascodeOta::post_layout(),
        }
    }

    /// The optimizer, with its default configuration.
    pub fn optimizer(self) -> Box<dyn Optimizer> {
        match self {
            Workload::DnnOptOta => Box::new(DnnOpt::new(DnnOptConfig::default())),
            Workload::DeOtaPvt5 | Workload::DeOtaPostLayout => {
                Box::new(DifferentialEvolution::default())
            }
        }
    }

    /// One fixed-seed, fixed-budget `StopPolicy::Exhaust` sizing run on
    /// `problem`, scored with the OTA Eq. 4 weights of `repro ota`.
    pub fn run(self, problem: &dyn SizingProblem, seed: u64) -> RunResult {
        let fom = Fom::new(100.0, vec![0.25; problem.num_constraints()]);
        self.optimizer()
            .run(problem, &fom, self.budget(), StopPolicy::Exhaust, seed)
    }
}

// ---------------------------------------------------------------------------
// The timing decorator.

/// What the decorator saw of the testbench layer during one run.
#[derive(Debug)]
pub struct TestbenchReport {
    /// Calls into the problem's evaluation methods.
    pub calls: usize,
    /// Calls whose result was a failure.
    pub failed: usize,
    /// Time inside those calls, summed over threads.
    pub busy: Duration,
    /// Wall time during which at least one call was in flight.
    pub active: Duration,
    /// Median call duration.
    pub p50: Duration,
    /// 99th-percentile call duration.
    pub p99: Duration,
}

#[derive(Debug)]
struct Ledger {
    in_flight: usize,
    active_since: Instant,
    active: Duration,
    durations: Vec<Duration>,
    failed: usize,
}

/// A [`SizingProblem`] decorator that forwards every method to the wrapped
/// problem and times each call into the testbench (`evaluate`,
/// `evaluate_corner`, `evaluate_analysis`). It never alters a result, so a
/// wrapped run is bit-identical to an unwrapped one.
pub struct TimedProblem<'a> {
    inner: &'a dyn SizingProblem,
    ledger: Mutex<Ledger>,
}

/// Closes one timed call when dropped, so a panicking testbench (which the
/// evaluator turns into a failed result) still leaves the ledger balanced.
struct Call<'a> {
    ledger: &'a Mutex<Ledger>,
    start: Instant,
    failed: bool,
}

impl Drop for Call<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        // Every ledger update is complete before it unlocks, so a poisoned
        // lock still holds consistent data.
        let mut guard = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        let l = &mut *guard;
        l.durations.push(end - self.start);
        l.failed += usize::from(self.failed);
        l.in_flight -= 1;
        if l.in_flight == 0 {
            l.active += end - l.active_since;
        }
    }
}

impl<'a> TimedProblem<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn SizingProblem) -> Self {
        TimedProblem {
            inner,
            ledger: Mutex::new(Ledger {
                in_flight: 0,
                active_since: Instant::now(),
                active: Duration::ZERO,
                durations: Vec::new(),
                failed: 0,
            }),
        }
    }

    fn enter(&self) -> Call<'_> {
        let mut l = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        let start = Instant::now();
        if l.in_flight == 0 {
            l.active_since = start;
        }
        l.in_flight += 1;
        Call {
            ledger: &self.ledger,
            start,
            // Until the call returns a result, it counts as failed.
            failed: true,
        }
    }

    /// The testbench-layer totals recorded so far.
    pub fn report(&self) -> TestbenchReport {
        let l = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        let mut sorted = l.durations.clone();
        sorted.sort_unstable();
        TestbenchReport {
            calls: sorted.len(),
            failed: l.failed,
            busy: sorted.iter().sum(),
            active: l.active,
            p50: nearest_rank(&sorted, 0.50).unwrap_or_default(),
            p99: nearest_rank(&sorted, 0.99).unwrap_or_default(),
        }
    }
}

/// True if a partial analysis result is a failure: a hard failure, or an
/// entry `SpecResult::is_failure` would reject.
fn analysis_failed(unit: &AnalysisSpec) -> bool {
    let bad = |v: f64| !v.is_finite() || v >= FAILURE_PENALTY;
    unit.failed || unit.objective.is_some_and(bad) || unit.constraints.iter().any(|c| bad(c.1))
}

impl SizingProblem for TimedProblem<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        self.inner.bounds()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn evaluate(&self, x: &[f64]) -> SpecResult {
        let mut call = self.enter();
        let spec = self.inner.evaluate(x);
        call.failed = spec.is_failure();
        spec
    }

    fn num_corners(&self) -> usize {
        self.inner.num_corners()
    }

    fn corner_name(&self, k: usize) -> String {
        self.inner.corner_name(k)
    }

    fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
        let mut call = self.enter();
        let spec = self.inner.evaluate_corner(x, k);
        call.failed = spec.is_failure();
        spec
    }

    fn num_analyses(&self) -> usize {
        self.inner.num_analyses()
    }

    fn analysis_name(&self, a: usize) -> String {
        self.inner.analysis_name(a)
    }

    fn evaluate_analysis(&self, x: &[f64], k: usize, a: usize) -> AnalysisSpec {
        let mut call = self.enter();
        let unit = self.inner.evaluate_analysis(x, k, a);
        call.failed = analysis_failed(&unit);
        unit
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn variable_names(&self) -> Vec<String> {
        self.inner.variable_names()
    }

    fn nominal(&self) -> Vec<f64> {
        self.inner.nominal()
    }
}

// ---------------------------------------------------------------------------
// Statistics and checks.

/// Nearest-rank quantile `q` of an ascending slice (`None` when empty).
fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Failed simulations in a history (aggregate spec per candidate).
pub fn failures(history: &History) -> usize {
    history
        .entries()
        .iter()
        .filter(|e| e.spec.is_failure())
        .count()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// True when two results are bit-identical, failure diagnosis included.
pub fn same_spec(a: &SpecResult, b: &SpecResult) -> bool {
    bits(&a.as_vector()) == bits(&b.as_vector()) && a.failure == b.failure
}

/// True when two histories are bit-identical: the same candidates, scores
/// and results, entry by entry (so also the same best trace and failures).
pub fn same_history(a: &History, b: &History) -> bool {
    a.len() == b.len()
        && a.entries().iter().zip(b.entries()).all(|(p, q)| {
            bits(&p.x) == bits(&q.x)
                && p.fom.to_bits() == q.fom.to_bits()
                && same_spec(&p.spec, &q.spec)
        })
}

// ---------------------------------------------------------------------------
// The metric table and the manifest generated from it.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric: name, unit and direction, plus the regression bound
/// for end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: Option<f64>,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`). Every one
/// is nonzero on every workload and steady across seeds on a busy host.
pub const END_TO_END: [MetricSpec; 3] = [
    e2e("setup_s", "s", 0.25),
    e2e("run_cpu_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.1),
];

/// Per-layer metrics, from the traced run (`--trace 1`). A metric that is
/// structurally zero on a workload prints 0.
pub const PER_LAYER: [MetricSpec; 43] = [
    // Results of the untraced runs that are 0 on some workload, vary with
    // the seed by design, or swing with host scheduling (`run_wall_s` and
    // `sim_s` on `dnnopt_ota`); see README.md.
    layer("run_wall_s", "s", Lower),
    layer("sim_s", "s", Lower),
    layer("model_s", "s", Lower),
    layer("best_fom", "fom", Lower),
    layer("failed_sims_frac", "ratio", Lower),
    // dnn_opt
    layer("dnn_opt.critic_train_s", "s", Lower),
    layer("dnn_opt.actor_train_s", "s", Lower),
    layer("dnn_opt.generations", "count", Lower),
    layer("dnn_opt.model_share", "ratio", Lower),
    // nn
    layer("nn.train_steps", "count", Lower),
    // linalg::gemm
    layer("gemm.calls", "count", Lower),
    layer("gemm.s", "s", Lower),
    layer("gemm.gflops", "GFLOP/s", Higher),
    layer("gemm.mean_split_width", "threads", Lower),
    // linalg::pool
    layer("pool.threads", "threads", Higher),
    layer("pool.dispatches", "count", Lower),
    layer("pool.dispatch_us_mean", "us", Lower),
    layer("pool.busy_s", "s", Lower),
    // opt (evaluation grid, from the decorator)
    layer("opt.eval_active_s", "s", Lower),
    layer("opt.eval_util", "ratio", Higher),
    layer("opt.eval_idle_s", "s", Lower),
    // circuits (from the decorator)
    layer("circuits.tb_calls", "count", Lower),
    layer("circuits.tb_busy_s", "s", Lower),
    layer("circuits.tb_ms_p50", "ms", Lower),
    layer("circuits.tb_ms_p99", "ms", Lower),
    layer("circuits.tb_failed", "count", Lower),
    layer("circuits.untagged_failures", "count", Lower),
    layer("circuits.tb_unattributed_s", "s", Lower),
    // spice
    layer("spice.solves", "count", Lower),
    layer("spice.solve_s", "s", Lower),
    layer("spice.newton_iters", "count", Lower),
    layer("spice.newton_iters_per_solve", "count", Lower),
    layer("spice.gmin_steps", "count", Lower),
    layer("spice.source_steps", "count", Lower),
    layer("spice.step_halvings", "count", Lower),
    layer("spice.workspace_hit_ratio", "ratio", Higher),
    // linalg::sparse
    layer("sparse.factors", "count", Lower),
    layer("sparse.factor_s", "s", Lower),
    layer("sparse.refactors", "count", Lower),
    layer("sparse.refactor_s", "s", Lower),
    layer("sparse.refactor_us_mean", "us", Lower),
    layer("sparse.blocked_dispatch_frac", "ratio", Higher),
    // telemetry
    layer("telemetry.overhead_frac", "ratio", Lower),
];

/// Seconds one benchmark invocation measures.
pub const RUN_SECONDS: u32 = 30;

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metric_json(m: &MetricSpec) -> String {
    let better = match m.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        json_str(m.name),
        json_str(m.unit),
        json_str(better)
    );
    if let Some(b) = m.bound {
        s += &format!(", \"bound\": {b}");
    }
    s + "}"
}

/// The contents of `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "sizing_bench/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"sizing_bench\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.map(json_str).join(", "),
        RUN_SECONDS,
        list(workloads),
        list(END_TO_END.iter().map(metric_json).collect()),
        list(PER_LAYER.iter().map(metric_json).collect()),
    )
}

//! Run bookkeeping: evaluation history, budgets and timing.

use std::time::{Duration, Instant};

use crate::failure::{FailureDiag, FailureKind, RecoveryStage};
use crate::fom::Fom;
use crate::problem::{AnalysisSpec, SizingProblem, SpecResult};

/// One recorded evaluation.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The design point.
    pub x: Vec<f64>,
    /// The raw simulation outcome. For a corner-indexed problem this is
    /// the worst-case merge over the corner plane
    /// ([`SpecResult::worst_case`]).
    pub spec: SpecResult,
    /// Figure of merit (Eq. 4) of this design, on [`Evaluation::spec`].
    pub fom: f64,
    /// Whether all constraints were met (at every corner, for a corner
    /// problem — the merge is pessimal).
    pub feasible: bool,
    /// Per-corner metric vectors, in corner order — populated for a
    /// corner-indexed problem ([`SizingProblem::num_corners`] > 1); empty
    /// for a single-corner problem.
    pub corner_specs: Vec<SpecResult>,
}

impl Evaluation {
    /// The corner-resolved spec vector
    /// `[f0_worst, c_0@corner0, …, c_{m−1}@corner0, c_0@corner1, …]` —
    /// the widened critic input of the corner-resolved surrogate mode
    /// (pairs with [`crate::Fom::tiled`]).
    ///
    /// A failed/non-finite corner contributes the [`SpecResult::failed`]
    /// placeholder constraints instead of its raw values — the same
    /// sanitization the worst-case merge applies to the aggregate — so a
    /// single NaN corner cannot poison surrogate training targets.
    ///
    /// # Panics
    ///
    /// Panics if the evaluation carries no per-corner records.
    pub fn corner_vector(&self) -> Vec<f64> {
        assert!(
            !self.corner_specs.is_empty(),
            "evaluation has no per-corner records"
        );
        let m = self.corner_specs[0].constraints.len();
        let mut v = Vec::with_capacity(1 + m * self.corner_specs.len());
        v.push(self.spec.objective);
        for cs in &self.corner_specs {
            if cs.is_failure() {
                // The same placeholder the aggregate fold produces, from
                // the one source of truth.
                v.extend(SpecResult::failed(m).constraints);
            } else {
                v.extend_from_slice(&cs.constraints);
            }
        }
        v
    }
}

/// Full history of a run: every evaluation in order, plus derived
/// statistics the paper reports (first-feasible index, best-FoM trace).
#[derive(Debug, Clone, Default)]
pub struct History {
    entries: Vec<Evaluation>,
    best_trace: Vec<f64>,
    first_feasible: Option<usize>,
    best_index: Option<usize>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an evaluation, updating the derived statistics.
    pub fn push(&mut self, eval: Evaluation) {
        let idx = self.entries.len();
        if eval.feasible && self.first_feasible.is_none() {
            self.first_feasible = Some(idx + 1); // 1-based "number of sims"
        }
        let better = match self.best_index {
            None => true,
            Some(b) => eval.fom < self.entries[b].fom,
        };
        let best_fom = if better {
            self.best_index = Some(idx);
            eval.fom
        } else {
            self.entries[self
                .best_index
                .expect("best_index set whenever entries exist")]
            .fom
        };
        self.best_trace.push(best_fom);
        self.entries.push(eval);
    }

    /// All evaluations in order.
    pub fn entries(&self) -> &[Evaluation] {
        &self.entries
    }

    /// Number of evaluations so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Best-FoM-so-far trace, one entry per evaluation (the series plotted
    /// in the paper's Figures 3 and 4).
    pub fn best_trace(&self) -> &[f64] {
        &self.best_trace
    }

    /// 1-based index of the first feasible evaluation ("# of simulations"
    /// in the paper's tables), if any.
    pub fn first_feasible(&self) -> Option<usize> {
        self.first_feasible
    }

    /// The best evaluation so far (lowest FoM).
    pub fn best(&self) -> Option<&Evaluation> {
        self.best_index.map(|i| &self.entries[i])
    }

    /// The best *feasible* evaluation (lowest objective among feasible).
    pub fn best_feasible(&self) -> Option<&Evaluation> {
        self.entries
            .iter()
            .filter(|e| e.feasible)
            .min_by(|a, b| a.spec.objective.partial_cmp(&b.spec.objective).unwrap())
    }

    /// Aggregates every failure recorded in the history into a
    /// [`RobustnessReport`]: counts by failure kind, a recovery-ladder
    /// stage histogram, and the retry budget (Newton iterations, step
    /// halvings) the failed solves burned. The per-candidate×corner unit
    /// is each corner record for corner-plane evaluations and the
    /// aggregate spec otherwise.
    pub fn robustness_report(&self) -> RobustnessReport {
        let mut report = RobustnessReport {
            evaluations: self.entries.len(),
            ..RobustnessReport::default()
        };
        for e in &self.entries {
            if e.spec.is_failure() {
                report.failed_evaluations += 1;
            }
            let units: &[SpecResult] = if e.corner_specs.is_empty() {
                std::slice::from_ref(&e.spec)
            } else {
                &e.corner_specs
            };
            for spec in units.iter().filter(|s| s.is_failure()) {
                report.failures += 1;
                match spec.failure_diag() {
                    None => report.untagged += 1,
                    Some(diag) => {
                        report.tally(diag);
                    }
                }
            }
        }
        report
    }
}

/// Batch-level failure statistics derived from a [`History`] by
/// [`History::robustness_report`]. The counting unit is one
/// candidate×corner evaluation (one corner record, or the aggregate spec
/// for single-corner problems).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// History entries inspected (one per candidate).
    pub evaluations: usize,
    /// Candidates whose aggregate (worst-case) spec is a failure.
    pub failed_evaluations: usize,
    /// Candidate×corner failures, diagnosed or not.
    pub failures: usize,
    /// Failures that carried no structured diagnosis.
    pub untagged: usize,
    /// Failures forced by a deterministic fault plan.
    pub injected: usize,
    /// Diagnosed failures by kind, in [`FailureKind::ALL`] order.
    pub by_kind: [usize; FailureKind::ALL.len()],
    /// Diagnosed failures by deepest ladder stage reached, in
    /// [`RecoveryStage::ALL`] order.
    pub by_stage: [usize; RecoveryStage::ALL.len()],
    /// Newton iterations burned across all diagnosed failures (the retry
    /// budget the recovery ladders spent before giving up).
    pub iterations_spent: usize,
    /// Transient step halvings burned across all diagnosed failures.
    pub halvings_spent: usize,
    /// Diagnosed failures by analysis label, in first-seen order — the
    /// per-unit attribution the analysis grid carries through assembly
    /// (e.g. `"open-loop: dc operating point"`).
    pub by_analysis: Vec<(String, usize)>,
}

impl RobustnessReport {
    fn tally(&mut self, diag: &FailureDiag) {
        let k = FailureKind::ALL.iter().position(|&k| k == diag.kind);
        self.by_kind[k.expect("every kind is in ALL")] += 1;
        let s = RecoveryStage::ALL.iter().position(|&s| s == diag.stage);
        self.by_stage[s.expect("every stage is in ALL")] += 1;
        if diag.injected {
            self.injected += 1;
        }
        self.iterations_spent += diag.iterations;
        self.halvings_spent += diag.halvings;
        match self
            .by_analysis
            .iter_mut()
            .find(|(name, _)| *name == diag.analysis)
        {
            Some((_, n)) => *n += 1,
            None => self.by_analysis.push((diag.analysis.clone(), 1)),
        }
    }

    /// Diagnosed failures attributed to one analysis label.
    pub fn analysis_count(&self, analysis: &str) -> usize {
        self.by_analysis
            .iter()
            .find(|(name, _)| name == analysis)
            .map_or(0, |(_, n)| *n)
    }

    /// Diagnosed failures of one kind.
    pub fn kind_count(&self, kind: FailureKind) -> usize {
        let i = FailureKind::ALL.iter().position(|&k| k == kind);
        self.by_kind[i.expect("every kind is in ALL")]
    }

    /// Diagnosed failures whose deepest ladder stage was `stage`.
    pub fn stage_count(&self, stage: RecoveryStage) -> usize {
        let i = RecoveryStage::ALL.iter().position(|&s| s == stage);
        self.by_stage[i.expect("every stage is in ALL")]
    }
}

impl std::fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failures in {} evaluations ({} candidates failed worst-case; {} injected, {} untagged)",
            self.failures, self.evaluations, self.failed_evaluations, self.injected, self.untagged
        )?;
        for (kind, n) in FailureKind::ALL.iter().zip(self.by_kind) {
            if n > 0 {
                write!(f, "\n  kind {:>15}: {n}", kind.label())?;
            }
        }
        for (stage, n) in RecoveryStage::ALL.iter().zip(self.by_stage) {
            if n > 0 {
                write!(f, "\n  stage {:>15}: {n}", stage.label())?;
            }
        }
        for (analysis, n) in &self.by_analysis {
            write!(f, "\n  analysis {analysis}: {n}")?;
        }
        write!(
            f,
            "\n  retry budget spent: {} NR iterations, {} halvings",
            self.iterations_spent, self.halvings_spent
        )
    }
}

/// Budgeted, history-recording wrapper around a [`SizingProblem`]: the one
/// object optimizers call to spend simulations.
pub struct Evaluator<'a> {
    problem: &'a dyn SizingProblem,
    fom: &'a Fom,
    budget: usize,
    history: History,
    sim_time: Duration,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with a simulation budget.
    pub fn new(problem: &'a dyn SizingProblem, fom: &'a Fom, budget: usize) -> Self {
        Evaluator {
            problem,
            fom,
            budget,
            history: History::new(),
            sim_time: Duration::ZERO,
        }
    }

    /// Runs (and records) one expensive evaluation: a batch of one through
    /// [`Evaluator::evaluate_batch`], so a corner- or analysis-indexed
    /// candidate still fans its grid units out across worker threads —
    /// optimizers stay unchanged and consume the aggregated worst-case
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if the budget is already exhausted; optimizers must check
    /// [`Evaluator::exhausted`] first.
    pub fn evaluate(&mut self, x: &[f64]) -> Evaluation {
        assert!(!self.exhausted(), "simulation budget exhausted");
        self.evaluate_batch(&[x.to_vec()])
            .pop()
            .expect("budget checked above")
    }

    /// Evaluates a candidate population — the one evaluation path. The
    /// population is flattened into the **candidate×corner×analysis
    /// grid** (`k = num_corners()` corners, `na = num_analyses()`
    /// analyses; a nominal monolithic problem is the 1×1 case), in
    /// `(i, c, a)` lexicographic order, and the grid is fanned out
    /// round-robin over the worker pool (see [`crate::parallel`]), so
    /// sub-candidate parallelism is available even for a
    /// single-candidate-per-iteration optimizer.
    ///
    /// Units are reassembled per (candidate, corner) with
    /// [`AnalysisSpec::assemble`] — bit-identical to the monolithic
    /// `evaluate_corner` by the [`SizingProblem::num_analyses`] contract —
    /// and recorded **in candidate order**, so histories (including the
    /// attached per-corner vectors) are bit-identical to the serial path
    /// for any thread count. A single-corner problem records the
    /// assembled result raw with no per-corner vectors; a corner problem
    /// records the worst-case merge ([`SpecResult::worst_case`]) with the
    /// per-corner vectors attached. One history entry (one unit of budget)
    /// per *candidate*, regardless of grid size — the corner plane
    /// multiplies simulator work, not the paper's "# of sims".
    ///
    /// At most [`Evaluator::remaining`] candidates are evaluated; the rest
    /// are silently dropped, which keeps optimizers' budget accounting a
    /// non-event. Returns the recorded evaluations.
    pub fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Evaluation> {
        let take = xs.len().min(self.remaining());
        let batch = &xs[..take];
        let problem = self.problem;
        let (k, na) = (problem.num_corners(), problem.num_analyses());
        let grid: Vec<(usize, usize, usize)> = (0..take)
            .flat_map(|i| (0..k).flat_map(move |c| (0..na).map(move |a| (i, c, a))))
            .collect();
        let _eb = telemetry::span_with(telemetry::SpanId::EvalBatch, grid.len() as u64);
        // Each worker keeps one context for its whole share of the grid: a
        // simulator-time accumulator here, and — inside the testbenches —
        // pool-leased solver workspaces reused across its units. Durations
        // are timed inside the workers and summed, so `sim_time` is total
        // simulator time (not batch wall-clock) for any thread count.
        // Per-unit panic isolation: one panicking analysis becomes one
        // hard-failed unit (which collapses its corner to a diagnosed
        // failed placeholder), never a dead batch.
        let (units, worker_times) = crate::parallel::try_par_map_with(
            &grid,
            || Duration::ZERO,
            |spent, &(i, c, a)| {
                let _cand = telemetry::span_with(telemetry::SpanId::Candidate, i as u64);
                let _corner = telemetry::span_with(telemetry::SpanId::Corner, c as u64);
                let _an = telemetry::span_with(telemetry::SpanId::Analysis, a as u64);
                let t0 = Instant::now();
                let unit = problem.evaluate_analysis(&batch[i], c, a);
                *spent += t0.elapsed();
                unit
            },
        );
        self.sim_time += worker_times.iter().sum::<Duration>();
        let units: Vec<AnalysisSpec> = units
            .into_iter()
            .zip(&grid)
            .map(|(unit, &(_, _, a))| {
                let mut unit = unit
                    .unwrap_or_else(|msg| AnalysisSpec::hard_failed(Some(FailureDiag::panic(msg))));
                // Attribute the diagnosis to the unit that produced it: the
                // testbench-level diag only names the inner analysis kind
                // ("dc operating point"), which is ambiguous once several
                // independent units assemble into one corner record. A
                // single-analysis problem keeps its diagnosis as is.
                if na > 1 {
                    if let Some(diag) = unit.failure.as_deref_mut() {
                        let label = problem.analysis_name(a);
                        if !diag.analysis.starts_with(&label) {
                            diag.analysis = format!("{label}: {}", diag.analysis);
                        }
                    }
                }
                unit
            })
            .collect();
        let m = problem.num_constraints();
        let mut out = Vec::with_capacity(take);
        for (x, units) in batch.iter().zip(units.chunks(k * na)) {
            let mut corner_specs: Vec<SpecResult> = units
                .chunks(na)
                .map(|corner| AnalysisSpec::assemble(m, corner))
                .collect();
            // A single corner is recorded raw: `worst_case` would replace a
            // raw non-placeholder failure (e.g. `+inf`) with the penalty
            // placeholder, changing the critic's training targets.
            let spec = if k == 1 {
                corner_specs.pop().expect("one corner per candidate")
            } else {
                SpecResult::worst_case(&corner_specs)
            };
            out.push(self.record(x.clone(), spec, corner_specs));
        }
        out
    }

    /// Scores, records and returns one finished evaluation.
    fn record(
        &mut self,
        x: Vec<f64>,
        spec: SpecResult,
        corner_specs: Vec<SpecResult>,
    ) -> Evaluation {
        let fom = self.fom.value(&spec);
        let eval = Evaluation {
            x,
            feasible: spec.feasible(),
            fom,
            spec,
            corner_specs,
        };
        self.history.push(eval.clone());
        eval
    }

    /// True when no budget remains.
    pub fn exhausted(&self) -> bool {
        self.history.len() >= self.budget
    }

    /// Simulations remaining.
    pub fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.history.len())
    }

    /// Simulations used.
    pub fn used(&self) -> usize {
        self.history.len()
    }

    /// The underlying problem.
    pub fn problem(&self) -> &dyn SizingProblem {
        self.problem
    }

    /// The FoM in use.
    pub fn fom(&self) -> &Fom {
        self.fom
    }

    /// Recorded history so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Simulator time spent inside [`SizingProblem::evaluate_analysis`],
    /// summed over grid units (not batch wall-clock).
    pub fn sim_time(&self) -> Duration {
        self.sim_time
    }

    /// Consumes the evaluator, returning the history and simulation time.
    pub fn into_parts(self) -> (History, Duration) {
        (self.history, self.sim_time)
    }
}

/// Completed run: what an [`crate::Optimizer`] returns.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Name of the optimizer that produced the run.
    pub optimizer: String,
    /// Full evaluation history.
    pub history: History,
    /// Wall-clock time spent in surrogate-model fitting (the paper's
    /// "modeling time").
    pub model_time: Duration,
    /// Wall-clock time spent in simulations.
    pub sim_time: Duration,
    /// Total run wall-clock time.
    pub total_time: Duration,
}

impl RunResult {
    /// Best feasible objective, if a feasible design was found.
    pub fn best_feasible_objective(&self) -> Option<f64> {
        self.history.best_feasible().map(|e| e.spec.objective)
    }

    /// 1-based simulation count at which the first feasible design
    /// appeared.
    pub fn sims_to_feasible(&self) -> Option<usize> {
        self.history.first_feasible()
    }
}

/// End-of-run observability report: the history's robustness aggregate
/// plus — when the telemetry plane is active (`DNNOPT_TRACE` set or a sink
/// installed programmatically) — the drained telemetry summary with span
/// timings and solver/pool metric histograms.
///
/// [`RunReport::collect`] drains the telemetry plane, so collect **once**,
/// at the end of the run; a second collect returns empty aggregates. The
/// drain also writes the configured JSONL/Chrome trace file, making this
/// the natural last statement of an example or service run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Failure taxonomy aggregated from the run's history.
    pub robustness: RobustnessReport,
    /// Drained telemetry aggregates; `None` when the plane is disabled.
    pub telemetry: Option<telemetry::Summary>,
}

impl RunReport {
    /// Builds the report for a finished run and drains/writes the
    /// telemetry plane's aggregates and event buffers.
    pub fn collect(history: &History) -> Self {
        RunReport {
            robustness: history.robustness_report(),
            telemetry: telemetry::finish(),
        }
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "robustness: {}", self.robustness)?;
        if let Some(t) = &self.telemetry {
            write!(f, "\n{t}")?;
        }
        Ok(())
    }
}

/// When an optimizer should stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopPolicy {
    /// Use the whole simulation budget (needed for FoM-curve figures).
    Exhaust,
    /// Return as soon as a feasible design is simulated (paper Alg. 1
    /// line 11, and the industrial Table V protocol).
    FirstFeasible,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::Sphere;

    fn eval(fom: f64, feasible: bool) -> Evaluation {
        Evaluation {
            x: vec![0.0],
            spec: SpecResult {
                failure: None,
                objective: fom,
                constraints: vec![],
            },
            fom,
            feasible,
            corner_specs: Vec::new(),
        }
    }

    #[test]
    fn best_trace_is_monotone() {
        let mut h = History::new();
        for f in [5.0, 3.0, 4.0, 1.0, 2.0] {
            h.push(eval(f, false));
        }
        assert_eq!(h.best_trace(), &[5.0, 3.0, 3.0, 1.0, 1.0]);
        assert_eq!(h.best().unwrap().fom, 1.0);
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn first_feasible_is_one_based_and_sticky() {
        let mut h = History::new();
        h.push(eval(5.0, false));
        h.push(eval(4.0, true));
        h.push(eval(3.0, true));
        assert_eq!(h.first_feasible(), Some(2));
    }

    #[test]
    fn best_feasible_prefers_objective() {
        let mut h = History::new();
        // Feasible but worse objective…
        let mut a = eval(0.5, true);
        a.spec.objective = 10.0;
        h.push(a);
        // Infeasible with great objective must be ignored…
        let mut b = eval(0.1, false);
        b.spec.objective = 0.1;
        h.push(b);
        // Feasible with better objective wins.
        let mut c = eval(0.6, true);
        c.spec.objective = 3.0;
        h.push(c);
        assert_eq!(h.best_feasible().unwrap().spec.objective, 3.0);
    }

    #[test]
    fn evaluator_enforces_budget() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let mut ev = Evaluator::new(&p, &fom, 3);
        assert_eq!(ev.remaining(), 3);
        ev.evaluate(&[0.3, 0.3]);
        ev.evaluate(&[0.5, 0.5]);
        assert!(!ev.exhausted());
        ev.evaluate(&[0.1, 0.1]);
        assert!(ev.exhausted());
        assert_eq!(ev.used(), 3);
        assert_eq!(ev.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "budget exhausted")]
    fn evaluator_panics_past_budget() {
        let p = Sphere { d: 1 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let mut ev = Evaluator::new(&p, &fom, 1);
        ev.evaluate(&[0.3]);
        ev.evaluate(&[0.4]);
    }

    /// A three-corner analytic problem: corner `k` tightens the constraint
    /// by `0.1·k` and inflates the objective by `k`.
    struct CorneredSphere;

    impl SizingProblem for CorneredSphere {
        fn dim(&self) -> usize {
            2
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; 2], vec![1.0; 2])
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn num_corners(&self) -> usize {
            3
        }
        fn corner_name(&self, k: usize) -> String {
            format!("tightened-{k}")
        }
        fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
            SpecResult {
                failure: None,
                objective: x[0] + x[1] + k as f64,
                constraints: vec![0.3 + 0.1 * k as f64 - x[0]],
            }
        }
        fn evaluate(&self, x: &[f64]) -> SpecResult {
            crate::problem::evaluate_worst_case(self, x)
        }
    }

    #[test]
    fn evaluator_expands_corner_problems_transparently() {
        let p = CorneredSphere;
        let fom = Fom::uniform(1.0, 1);
        let mut ev = Evaluator::new(&p, &fom, 4);
        // `evaluate` routes through the grid: worst case over 3 corners.
        let e = ev.evaluate(&[0.6, 0.2]);
        assert_eq!(e.corner_specs.len(), 3);
        assert_eq!(e.spec.objective, 0.6 + 0.2 + 2.0); // worst corner
        assert_eq!(e.spec.constraints, vec![0.5 - 0.6]); // tightest corner
        assert!(e.feasible);
        // One history entry per candidate, not per corner.
        assert_eq!(ev.used(), 1);
        // The corner-resolved vector: worst f0 then per-corner constraints.
        let v = e.corner_vector();
        assert_eq!(v.len(), 1 + 3);
        assert_eq!(v[0], e.spec.objective);
        assert_eq!(v[1], 0.3 - 0.6);
        assert_eq!(v[3], 0.5 - 0.6);
        // Feasible only when every corner passes.
        let e2 = ev.evaluate(&[0.45, 0.0]);
        assert!(!e2.feasible, "corner 2 requires x0 > 0.5");
        // Batch path produces identical records.
        let batch = ev.evaluate_batch(&[vec![0.6, 0.2], vec![0.45, 0.0]]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].spec, e.spec);
        assert_eq!(batch[0].corner_specs.len(), 3);
        for (a, b) in batch[0].corner_specs.iter().zip(&e.corner_specs) {
            assert_eq!(a, b);
        }
        assert_eq!(batch[1].feasible, e2.feasible);
        assert_eq!(ev.used(), 4);
        assert!(ev.exhausted());
    }

    #[test]
    fn corner_grid_serial_matches_parallel() {
        let p = CorneredSphere;
        let fom = Fom::uniform(1.0, 1);
        let xs: Vec<Vec<f64>> = (0..17)
            .map(|i| vec![i as f64 / 16.0, 1.0 - i as f64 / 16.0])
            .collect();
        crate::parallel::set_max_threads(1);
        let mut ev_s = Evaluator::new(&p, &fom, xs.len());
        let serial = ev_s.evaluate_batch(&xs);
        crate::parallel::set_max_threads(8);
        let mut ev_p = Evaluator::new(&p, &fom, xs.len());
        let par = ev_p.evaluate_batch(&xs);
        crate::parallel::set_max_threads(0);
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.fom.to_bits(), b.fom.to_bits());
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.corner_specs, b.corner_specs);
        }
    }

    /// [`CorneredSphere`] split into two independent analyses per corner:
    /// analysis 0 owns the objective, analysis 1 the constraint. The math
    /// is identical, so histories must match the monolithic problem
    /// bit-for-bit through the finer unit grid.
    struct SplitCorneredSphere;

    impl SizingProblem for SplitCorneredSphere {
        fn dim(&self) -> usize {
            2
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; 2], vec![1.0; 2])
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn num_corners(&self) -> usize {
            3
        }
        fn num_analyses(&self) -> usize {
            2
        }
        fn analysis_name(&self, a: usize) -> String {
            ["objective", "constraint"][a].to_string()
        }
        fn evaluate_analysis(&self, x: &[f64], k: usize, a: usize) -> AnalysisSpec {
            match a {
                0 => AnalysisSpec {
                    objective: Some(x[0] + x[1] + k as f64),
                    ..AnalysisSpec::partial()
                },
                1 => AnalysisSpec {
                    constraints: vec![(0, 0.3 + 0.1 * k as f64 - x[0])],
                    ..AnalysisSpec::partial()
                },
                _ => panic!("analysis {a} out of range"),
            }
        }
        fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
            AnalysisSpec::assemble(
                1,
                &[
                    self.evaluate_analysis(x, k, 0),
                    self.evaluate_analysis(x, k, 1),
                ],
            )
        }
        fn evaluate(&self, x: &[f64]) -> SpecResult {
            crate::problem::evaluate_worst_case(self, x)
        }
    }

    #[test]
    fn analysis_grid_matches_monolithic_grid_at_any_thread_count() {
        let fom = Fom::uniform(1.0, 1);
        let xs: Vec<Vec<f64>> = (0..11)
            .map(|i| vec![i as f64 / 10.0, 1.0 - i as f64 / 10.0])
            .collect();
        let mut ev_mono = Evaluator::new(&CorneredSphere, &fom, xs.len());
        let reference = ev_mono.evaluate_batch(&xs);
        let split = SplitCorneredSphere;
        // 1, an even, and an odd thread count (odd catches remainder bugs
        // in the round-robin reassembly).
        for threads in [1usize, 2, 7] {
            crate::parallel::set_max_threads(threads);
            let mut ev = Evaluator::new(&split, &fom, xs.len());
            let out = ev.evaluate_batch(&xs);
            crate::parallel::set_max_threads(0);
            assert_eq!(out.len(), reference.len(), "threads={threads}");
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.fom.to_bits(), b.fom.to_bits(), "threads={threads}");
                assert_eq!(a.spec, b.spec, "threads={threads}");
                assert_eq!(a.corner_specs, b.corner_specs, "threads={threads}");
            }
        }
    }

    /// Single-corner, two-analysis problem whose second analysis panics on
    /// a marker candidate.
    struct PanickyAnalysis;

    impl SizingProblem for PanickyAnalysis {
        fn dim(&self) -> usize {
            1
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0], vec![1.0])
        }
        fn num_constraints(&self) -> usize {
            2
        }
        fn num_analyses(&self) -> usize {
            2
        }
        fn evaluate_analysis(&self, x: &[f64], _k: usize, a: usize) -> AnalysisSpec {
            match a {
                0 => AnalysisSpec {
                    objective: Some(x[0]),
                    constraints: vec![(0, -x[0])],
                    ..AnalysisSpec::partial()
                },
                1 => {
                    assert!(x[0] != 0.5, "injected analysis panic");
                    AnalysisSpec {
                        constraints: vec![(1, x[0] - 2.0)],
                        ..AnalysisSpec::partial()
                    }
                }
                _ => panic!("analysis {a} out of range"),
            }
        }
        fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
            AnalysisSpec::assemble(
                2,
                &[
                    self.evaluate_analysis(x, k, 0),
                    self.evaluate_analysis(x, k, 1),
                ],
            )
        }
        fn evaluate(&self, x: &[f64]) -> SpecResult {
            self.evaluate_corner(x, 0)
        }
    }

    #[test]
    fn single_corner_analysis_grid_keeps_legacy_history_shape() {
        let p = PanickyAnalysis;
        let fom = Fom::uniform(1.0, 2);
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0]).collect();
        // xs[4] = [0.5] panics in analysis 1. The batch must survive with
        // the panicking candidate collapsed to a diagnosed failure, the
        // rest intact, and — single corner — no per-corner records.
        let mut batches = Vec::new();
        for threads in [1usize, 3] {
            crate::parallel::set_max_threads(threads);
            let mut ev = Evaluator::new(&p, &fom, xs.len());
            let out = ev.evaluate_batch(&xs);
            crate::parallel::set_max_threads(0);
            for (i, e) in out.iter().enumerate() {
                assert!(e.corner_specs.is_empty(), "legacy single-corner shape");
                if i == 4 {
                    assert!(e.spec.is_failure());
                    let d = e.spec.failure_diag().expect("panic is diagnosed");
                    assert_eq!(d.kind, FailureKind::Panic);
                } else {
                    assert_eq!(e.spec, p.evaluate(&xs[i]), "candidate {i}");
                }
            }
            batches.push(out);
        }
        // Bit-identical across thread counts (diagnoses included).
        for (a, b) in batches[0].iter().zip(&batches[1]) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(
                a.spec.failure_diag().map(|d| format!("{d:?}")),
                b.spec.failure_diag().map(|d| format!("{d:?}"))
            );
        }
    }

    #[test]
    #[should_panic(expected = "no per-corner records")]
    fn corner_vector_requires_corner_records() {
        let _ = eval(1.0, false).corner_vector();
    }

    #[test]
    fn corner_vector_sanitizes_failed_corners() {
        // A NaN corner must contribute the finite failed placeholder, not
        // raw NaN — otherwise corner-critic training targets go NaN and
        // every network weight follows.
        let good = SpecResult {
            failure: None,
            objective: 1.0,
            constraints: vec![-0.5, 0.25],
        };
        let nan = SpecResult {
            failure: None,
            objective: 1.0,
            constraints: vec![f64::NAN, 0.0],
        };
        let e = Evaluation {
            x: vec![0.0],
            spec: SpecResult::worst_case(&[good.clone(), nan.clone()]),
            fom: 0.0,
            feasible: false,
            corner_specs: vec![good, nan],
        };
        let v = e.corner_vector();
        assert_eq!(v.len(), 1 + 2 * 2);
        assert!(v.iter().all(|x| x.is_finite()), "no NaN may survive: {v:?}");
        // The healthy corner's values pass through untouched; the failed
        // corner is the placeholder.
        assert_eq!(&v[1..3], &[-0.5, 0.25]);
        assert_eq!(&v[3..5], &[1e12, 1e12]);
    }

    /// Sphere that panics whenever the first coordinate is exactly 0.5.
    struct PanickySphere;

    impl SizingProblem for PanickySphere {
        fn dim(&self) -> usize {
            2
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; 2], vec![1.0; 2])
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn evaluate(&self, x: &[f64]) -> SpecResult {
            assert!(x[0] != 0.5, "injected testbench panic");
            SpecResult {
                failure: None,
                objective: x[0] + x[1],
                constraints: vec![0.1 - x[0]],
            }
        }
    }

    #[test]
    fn evaluator_maps_panics_to_diagnosed_failures() {
        let p = PanickySphere;
        let fom = Fom::uniform(1.0, 1);
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0, 0.5]).collect();
        // xs[4] = [0.5, 0.5] panics. Batch must survive in order, serial
        // and parallel, with identical records.
        let mut batches = Vec::new();
        for threads in [1usize, 4] {
            crate::parallel::set_max_threads(threads);
            let mut ev = Evaluator::new(&p, &fom, xs.len());
            let out = ev.evaluate_batch(&xs);
            crate::parallel::set_max_threads(0);
            assert_eq!(out.len(), xs.len());
            for (i, e) in out.iter().enumerate() {
                if i == 4 {
                    assert!(e.spec.is_failure());
                    let d = e.spec.failure_diag().expect("panic must be diagnosed");
                    assert_eq!(d.kind, FailureKind::Panic);
                    assert!(d.analysis.contains("injected testbench panic"));
                } else {
                    assert!(!e.spec.is_failure());
                    assert_eq!(e.x, xs[i]);
                }
            }
            batches.push(out);
        }
        for (a, b) in batches[0].iter().zip(&batches[1]) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.fom.to_bits(), b.fom.to_bits());
        }
        // The single-candidate path degrades identically.
        let mut ev = Evaluator::new(&p, &fom, 1);
        let e = ev.evaluate(&[0.5, 0.5]);
        assert_eq!(e.spec.failure_diag().unwrap().kind, FailureKind::Panic);
    }

    #[test]
    fn robustness_report_tallies_kinds_stages_and_budget() {
        use crate::failure::FailureDiag;
        let mut h = History::new();
        h.push(eval(1.0, true)); // healthy
                                 // A diagnosed solver failure.
        let mut a = eval(2.0, false);
        a.spec = SpecResult::failed_with(
            1,
            FailureDiag {
                kind: FailureKind::Singular,
                analysis: "dc operating point".into(),
                stage: RecoveryStage::SourceStepping,
                iterations: 40,
                halvings: 0,
                injected: true,
            },
        );
        h.push(a);
        // A corner-plane entry: one healthy corner, one step-underflow.
        let good = SpecResult {
            failure: None,
            objective: 0.5,
            constraints: vec![-0.1],
        };
        let bad = SpecResult::failed_with(
            1,
            FailureDiag {
                kind: FailureKind::StepUnderflow,
                analysis: "transient".into(),
                stage: RecoveryStage::StepHalving,
                iterations: 12,
                halvings: 9,
                injected: false,
            },
        );
        let mut b = eval(3.0, false);
        b.spec = SpecResult::worst_case(&[good.clone(), bad.clone()]);
        b.corner_specs = vec![good, bad];
        h.push(b);
        // An untagged legacy failure.
        let mut c = eval(4.0, false);
        c.spec = SpecResult::failed(1);
        h.push(c);

        let r = h.robustness_report();
        assert_eq!(r.evaluations, 4);
        assert_eq!(r.failed_evaluations, 3);
        assert_eq!(r.failures, 3); // 1 aggregate + 1 corner + 1 untagged
        assert_eq!(r.untagged, 1);
        assert_eq!(r.injected, 1);
        assert_eq!(r.kind_count(FailureKind::Singular), 1);
        assert_eq!(r.kind_count(FailureKind::StepUnderflow), 1);
        assert_eq!(r.kind_count(FailureKind::Panic), 0);
        assert_eq!(r.stage_count(RecoveryStage::SourceStepping), 1);
        assert_eq!(r.stage_count(RecoveryStage::StepHalving), 1);
        assert_eq!(r.iterations_spent, 52);
        assert_eq!(r.halvings_spent, 9);
        let text = r.to_string();
        assert!(text.contains("singular"));
        assert!(text.contains("step-halving"));
        assert!(text.contains("52 NR iterations"));
    }

    #[test]
    fn evaluator_records_feasibility() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let mut ev = Evaluator::new(&p, &fom, 10);
        let good = ev.evaluate(&[0.3, 0.3]);
        assert!(good.feasible);
        let bad = ev.evaluate(&[0.0, 0.0]);
        assert!(!bad.feasible);
        assert_eq!(ev.history().first_feasible(), Some(1));
    }

    /// A spec's exact bits: objective, constraints and diagnosis.
    fn spec_bits(s: &SpecResult) -> (u64, Vec<u64>, Option<String>) {
        (
            s.objective.to_bits(),
            s.constraints.iter().map(|c| c.to_bits()).collect(),
            s.failure_diag().map(|d| format!("{d:?}")),
        )
    }

    #[test]
    fn every_grid_shape_records_identically_one_by_one_and_batched() {
        // (problem, k corners, na analyses); candidate 4 has x0 = 0.5, which
        // panics in the two Panicky problems.
        let shapes: [(&dyn SizingProblem, usize, usize); 4] = [
            (&PanickySphere, 1, 1),
            (&CorneredSphere, 3, 1),
            (&PanickyAnalysis, 1, 2),
            (&SplitCorneredSphere, 3, 2),
        ];
        for (p, k, na) in shapes {
            assert_eq!((p.num_corners(), p.num_analyses()), (k, na));
            let fom = Fom::uniform(1.0, p.num_constraints());
            let xs: Vec<Vec<f64>> = (0..8)
                .map(|i| {
                    let mut x = vec![0.5; p.dim()];
                    x[0] = i as f64 / 8.0;
                    x
                })
                .collect();
            for threads in [1usize, 2, 7] {
                let ctx = format!("k={k} na={na} threads={threads}");
                crate::parallel::set_max_threads(threads);
                let mut ev = Evaluator::new(p, &fom, xs.len());
                let one_by_one: Vec<Evaluation> = xs.iter().map(|x| ev.evaluate(x)).collect();
                let mut ev = Evaluator::new(p, &fom, xs.len());
                let batched = ev.evaluate_batch(&xs);
                crate::parallel::set_max_threads(0);
                assert_eq!(batched.len(), xs.len(), "{ctx}");
                for (a, b) in one_by_one.iter().zip(&batched) {
                    assert_eq!(spec_bits(&a.spec), spec_bits(&b.spec), "{ctx}");
                    assert_eq!(a.fom.to_bits(), b.fom.to_bits(), "{ctx}");
                    assert_eq!(a.feasible, b.feasible, "{ctx}");
                    let corners = |e: &Evaluation| -> Vec<_> {
                        e.corner_specs.iter().map(spec_bits).collect()
                    };
                    assert_eq!(corners(a), corners(b), "{ctx}");
                    // A single corner records no per-corner vectors.
                    assert_eq!(b.corner_specs.len(), if k == 1 { 0 } else { k }, "{ctx}");
                }
                // The panic diagnosis is exact: relabelled with the
                // analysis name only on a multi-analysis problem.
                let expected = match (k, na) {
                    (1, 1) => Some("panic: injected testbench panic"),
                    (1, 2) => Some("analysis1: panic: injected analysis panic"),
                    _ => None,
                };
                if let Some(expected) = expected {
                    let d = batched[4].spec.failure_diag().expect("panic is diagnosed");
                    assert_eq!(d.kind, FailureKind::Panic, "{ctx}");
                    assert_eq!(d.analysis, expected, "{ctx}");
                }
            }
        }
    }

    /// Single-corner problem whose constraint 0 is a raw `+inf` failure.
    struct InfConstraint;

    impl SizingProblem for InfConstraint {
        fn dim(&self) -> usize {
            1
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0], vec![1.0])
        }
        fn num_constraints(&self) -> usize {
            2
        }
        fn evaluate(&self, x: &[f64]) -> SpecResult {
            SpecResult {
                failure: None,
                objective: x[0],
                constraints: vec![f64::INFINITY, -0.2],
            }
        }
    }

    #[test]
    fn single_corner_raw_failure_is_recorded_raw() {
        let p = InfConstraint;
        let fom = Fom::uniform(1.0, 2);
        let mut ev = Evaluator::new(&p, &fom, 2);
        let raw = p.evaluate(&[0.5]);
        for e in [
            ev.evaluate(&[0.5]),
            ev.evaluate_batch(&[vec![0.5]]).remove(0),
        ] {
            assert_eq!(e.spec, raw);
            assert!(e.corner_specs.is_empty());
        }
        // The worst-case fold would have swapped in the penalty placeholder.
        assert_ne!(SpecResult::worst_case(std::slice::from_ref(&raw)), raw);
    }
}

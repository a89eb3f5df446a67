//! The timing decorator must be invisible to the optimizer: it forwards
//! every `SizingProblem` method, and wrapped sizing runs are bit-identical
//! to unwrapped ones. Also pins `BENCHMARK.json` to the metric table the
//! binary reports from.

use circuits::tech::CornerSet;
use circuits::FoldedCascodeOta;
use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{
    AnalysisSpec, DifferentialEvolution, Fom, Optimizer, SizingProblem, SpecResult, StopPolicy,
};
use sizing_bench::{same_history, TimedProblem};

/// A problem whose every method answers something no trait default would,
/// so a method the decorator failed to forward shows up as a mismatch.
struct Distinct;

impl SizingProblem for Distinct {
    fn dim(&self) -> usize {
        3
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![-1.0, 0.0, 2.0], vec![1.0, 5.0, 9.0])
    }
    fn num_constraints(&self) -> usize {
        2
    }
    fn evaluate(&self, x: &[f64]) -> SpecResult {
        SpecResult {
            objective: x[0] + 0.5,
            constraints: vec![x[1], -7.0],
            failure: None,
        }
    }
    fn num_corners(&self) -> usize {
        4
    }
    fn corner_name(&self, k: usize) -> String {
        format!("skew{k}")
    }
    fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
        SpecResult {
            objective: x[2] * k as f64,
            constraints: vec![1e12, f64::NAN],
            failure: None,
        }
    }
    fn num_analyses(&self) -> usize {
        3
    }
    fn analysis_name(&self, a: usize) -> String {
        format!("sweep{a}")
    }
    fn evaluate_analysis(&self, x: &[f64], k: usize, a: usize) -> AnalysisSpec {
        AnalysisSpec {
            objective: Some(x[0] * 10.0 + k as f64),
            constraints: vec![(a, 3.0)],
            failure: None,
            failed: false,
        }
    }
    fn name(&self) -> &str {
        "distinct"
    }
    fn variable_names(&self) -> Vec<String> {
        vec!["alpha".into(), "beta".into(), "gamma".into()]
    }
    fn nominal(&self) -> Vec<f64> {
        vec![0.25, 4.0, 8.5]
    }
}

#[test]
fn decorator_forwards_every_method() {
    let inner = Distinct;
    let timed = TimedProblem::new(&inner);
    let x = [0.75, 1.5, 3.0];

    assert_eq!(timed.dim(), inner.dim());
    assert_eq!(timed.bounds(), inner.bounds());
    assert_eq!(timed.num_constraints(), inner.num_constraints());
    assert_eq!(timed.num_corners(), inner.num_corners());
    assert_eq!(timed.corner_name(2), inner.corner_name(2));
    assert_eq!(timed.num_analyses(), inner.num_analyses());
    assert_eq!(timed.analysis_name(1), inner.analysis_name(1));
    assert_eq!(timed.evaluate(&x), inner.evaluate(&x));
    let (a, b) = (timed.evaluate_corner(&x, 3), inner.evaluate_corner(&x, 3));
    assert_eq!(a.objective, b.objective);
    assert_eq!(a.constraints[0], b.constraints[0]);
    assert!(a.constraints[1].is_nan() && b.constraints[1].is_nan());
    assert_eq!(
        timed.evaluate_analysis(&x, 2, 1),
        inner.evaluate_analysis(&x, 2, 1)
    );
    assert_eq!(timed.name(), inner.name());
    assert_eq!(timed.variable_names(), inner.variable_names());
    assert_eq!(timed.nominal(), inner.nominal());

    // The three evaluation calls were timed; only the corner call failed.
    let report = timed.report();
    assert_eq!(report.calls, 3);
    assert_eq!(report.failed, 1);
    assert!(report.busy >= report.p50 && report.p99 >= report.p50);
}

fn ota_fom(p: &dyn SizingProblem) -> Fom {
    Fom::new(100.0, vec![0.25; p.num_constraints()])
}

#[test]
fn wrapped_dnn_opt_run_is_bit_identical() {
    let ota = FoldedCascodeOta::new();
    let fom = ota_fom(&ota);
    let cfg = DnnOptConfig {
        n_init: 8,
        critic_epochs: 20,
        actor_epochs: 10,
        ..DnnOptConfig::default()
    };
    let dnn = DnnOpt::new(cfg);
    let plain = dnn.run(&ota, &fom, 12, StopPolicy::Exhaust, 5);
    let timed = TimedProblem::new(&ota);
    let wrapped = dnn.run(&timed, &fom, 12, StopPolicy::Exhaust, 5);
    assert!(same_history(&plain.history, &wrapped.history));
    assert_eq!(timed.report().calls, 12 * ota.num_analyses());
}

#[test]
fn wrapped_de_run_is_bit_identical() {
    let ota = FoldedCascodeOta::with_corners(CornerSet::pvt5());
    let fom = ota_fom(&ota);
    let de = DifferentialEvolution {
        population: 6,
        ..DifferentialEvolution::default()
    };
    let plain = de.run(&ota, &fom, 10, StopPolicy::Exhaust, 9);
    let timed = TimedProblem::new(&ota);
    let wrapped = de.run(&timed, &fom, 10, StopPolicy::Exhaust, 9);
    assert!(same_history(&plain.history, &wrapped.history));
    assert_eq!(timed.report().calls, 10 * 5 * ota.num_analyses());
}

#[test]
fn committed_manifest_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, sizing_bench::manifest());
}

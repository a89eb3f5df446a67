//! Sensitivity analysis and design-space pruning (paper §II-C, Eq. 7).
//!
//! For large industrial circuits the paper perturbs each design variable
//! around its nominal value, records the impact on every spec
//! (`S_ij = δf_i/δd_j`), and keeps only the variables whose sensitivity
//! exceeds a threshold — "empirically, this analysis prunes design search
//! space effectively, allowing us to work on large scale circuits."

use linalg::Matrix;
use opt::{SizingProblem, SpecResult};

/// Result of a sensitivity sweep: the `(m+1)×d` sensitivity matrix of
/// Eq. 7, computed with central differences on range-normalized variables.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// `s[(i, j)] = |δf_i/δu_j|` where `u_j` is variable `j` mapped to the
    /// unit cube. Row 0 is the objective; row `i ≥ 1` is constraint `i−1`.
    s: Matrix,
    /// Variable names for reporting.
    names: Vec<String>,
}

impl SensitivityReport {
    /// Runs the sweep around `x0` with per-variable perturbation
    /// `step` (fraction of each variable's range, e.g. 0.05).
    ///
    /// On a corner-indexed problem the sweep differentiates the
    /// **corner-resolved** spec vector (`K·(1 + m)` rows: every corner's
    /// objective and constraints, in corner order), never the worst-case
    /// fold — the max over corners has zero derivative with respect to
    /// any variable whose effect is confined to a non-dominant corner,
    /// which would silently prune variables that matter only at one
    /// corner. This keeps e.g. the level shifter's sweep at the paper's
    /// full 60 specs (plus its six per-corner energy rows).
    ///
    /// Costs `2·d` full evaluations (central differences; the nominal
    /// itself is not needed) — each a whole corner sweep on a corner
    /// problem, exactly like `evaluate`. The perturbation points fan out
    /// over worker threads (`opt::parallel`), with results consumed in
    /// variable order so the matrix is thread-count independent.
    ///
    /// # Panics
    ///
    /// Panics if `x0` has the wrong dimension or `step` is not in (0, 0.5).
    pub fn compute(problem: &dyn SizingProblem, x0: &[f64], step: f64) -> Self {
        let d = problem.dim();
        assert_eq!(x0.len(), d, "nominal dimension mismatch");
        assert!(
            step > 0.0 && step < 0.5,
            "step must be a small range fraction"
        );
        let (lb, ub) = problem.bounds();
        let m = problem.num_constraints();
        let k = problem.num_corners();
        // Corner-resolved spec vector: each corner's full
        // `[f0, f1, …, fm]` in corner order, so *every* per-corner spec —
        // objective included — votes on its own row.
        let spec_vector = |x: &[f64]| -> Vec<f64> {
            if k <= 1 {
                return clip_spec(problem.evaluate(x));
            }
            let mut v = Vec::with_capacity(k * (1 + m));
            for c in 0..k {
                let spec = problem.evaluate_corner(x, c);
                v.push(spec.objective);
                v.extend_from_slice(&spec.constraints);
            }
            clip_values(v)
        };
        let rows = k * (1 + m);
        // The 2·d perturbation points (and their corners) are independent
        // simulations: evaluate them like a population batch.
        let mut points = Vec::with_capacity(2 * d);
        let mut dus = Vec::with_capacity(d);
        for j in 0..d {
            let range = (ub[j] - lb[j]).max(1e-300);
            let h = step * range;
            let mut xp = x0.to_vec();
            xp[j] = (x0[j] + h).min(ub[j]);
            let mut xm = x0.to_vec();
            xm[j] = (x0[j] - h).max(lb[j]);
            dus.push((xp[j] - xm[j]) / range); // actual normalized step
            points.push(xp);
            points.push(xm);
        }
        let (specs, _) = opt::parallel::try_par_map_with(&points, || (), |(), x| spec_vector(x));
        let specs: Vec<Vec<f64>> = specs
            .into_iter()
            .map(|r| r.unwrap_or_else(|msg| panic!("population evaluation worker panicked: {msg}")))
            .collect();
        let mut s = Matrix::zeros(rows, d);
        for j in 0..d {
            let (fp, fm) = (&specs[2 * j], &specs[2 * j + 1]);
            for i in 0..rows {
                let diff = (fp[i] - fm[i]).abs();
                s[(i, j)] = if dus[j] > 0.0 { diff / dus[j] } else { 0.0 };
            }
        }
        SensitivityReport {
            s,
            names: problem.variable_names(),
        }
    }

    /// The raw sensitivity matrix. Single-corner problems: row 0 is the
    /// objective, rows `1..=m` the constraints. Corner-indexed problems:
    /// `K` blocks of `1 + m` rows (objective then constraints), one per
    /// corner in corner order.
    pub fn matrix(&self) -> &Matrix {
        &self.s
    }

    /// Per-variable criticality score in `[0, 1]`: each spec row is first
    /// winsorized (cliff protection) and normalized by its own largest
    /// entry, so every spec "votes" with equal weight regardless of units
    /// or steepness; the score of a variable is its maximum vote across
    /// specs.
    pub fn scores(&self) -> Vec<f64> {
        let d = self.s.cols();
        let mut scores = vec![0.0_f64; d];
        for i in 0..self.s.rows() {
            // Winsorize the row at 30x its median positive entry: a
            // functional cliff produces one entry orders of magnitude above
            // the rest, which would otherwise zero out every smooth
            // response after normalization.
            let mut row: Vec<f64> = (0..d).map(|j| self.s[(i, j)]).collect();
            let mut pos: Vec<f64> = row.iter().copied().filter(|v| *v > 0.0).collect();
            if pos.is_empty() {
                continue;
            }
            pos.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = pos[pos.len() / 2];
            if median > 0.0 {
                let cap = 30.0 * median;
                for v in &mut row {
                    *v = v.min(cap);
                }
            }
            let row_max = row.iter().copied().fold(0.0_f64, f64::max);
            if row_max <= 0.0 {
                continue;
            }
            for (j, sc) in scores.iter_mut().enumerate() {
                *sc = sc.max(row[j] / row_max);
            }
        }
        scores
    }

    /// Indices of the variables whose normalized score exceeds `thresh`
    /// (the paper's user-defined threshold), sorted by decreasing score.
    pub fn critical_variables(&self, thresh: f64) -> Vec<usize> {
        let scores = self.scores();
        let mut idx: Vec<usize> = (0..scores.len()).filter(|&j| scores[j] > thresh).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        idx
    }

    /// Human-readable table of scores.
    pub fn table(&self) -> String {
        let scores = self.scores();
        let mut out = String::from("variable          score\n");
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        for j in order {
            out.push_str(&format!("{:<16} {:>7.4}\n", self.names[j], scores[j]));
        }
        out
    }
}

fn clip_spec(spec: SpecResult) -> Vec<f64> {
    clip_values(spec.as_vector())
}

fn clip_values(mut v: Vec<f64>) -> Vec<f64> {
    for x in &mut v {
        *x = x.clamp(-1e6, 1e6);
    }
    v
}

/// A pruned view of a large problem: only the `active` variables move; the
/// rest stay pinned at the nominal design (paper Alg. 1 prerequisite).
pub struct ReducedProblem<'a> {
    inner: &'a dyn SizingProblem,
    base: Vec<f64>,
    active: Vec<usize>,
}

impl<'a> ReducedProblem<'a> {
    /// Creates the reduced problem.
    ///
    /// # Panics
    ///
    /// Panics if `active` contains an out-of-range or duplicate index, or
    /// `base` has the wrong length.
    pub fn new(inner: &'a dyn SizingProblem, base: Vec<f64>, active: Vec<usize>) -> Self {
        assert_eq!(base.len(), inner.dim(), "base dimension mismatch");
        let mut seen = vec![false; inner.dim()];
        for &j in &active {
            assert!(j < inner.dim(), "active index out of range");
            assert!(!seen[j], "duplicate active index");
            seen[j] = true;
        }
        ReducedProblem {
            inner,
            base,
            active,
        }
    }

    /// Expands a reduced design vector into the full space.
    pub fn expand(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.active.len(), "reduced dimension mismatch");
        let mut full = self.base.clone();
        for (k, &j) in self.active.iter().enumerate() {
            full[j] = x[k];
        }
        full
    }

    /// The active variable indices.
    pub fn active(&self) -> &[usize] {
        &self.active
    }
}

impl SizingProblem for ReducedProblem<'_> {
    fn dim(&self) -> usize {
        self.active.len()
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let (lb, ub) = self.inner.bounds();
        (
            self.active.iter().map(|&j| lb[j]).collect(),
            self.active.iter().map(|&j| ub[j]).collect(),
        )
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn num_corners(&self) -> usize {
        self.inner.num_corners()
    }

    fn corner_name(&self, k: usize) -> String {
        self.inner.corner_name(k)
    }

    fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
        self.inner.evaluate_corner(&self.expand(x), k)
    }

    fn evaluate(&self, x: &[f64]) -> SpecResult {
        self.inner.evaluate(&self.expand(x))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn variable_names(&self) -> Vec<String> {
        let names = self.inner.variable_names();
        self.active.iter().map(|&j| names[j].clone()).collect()
    }

    fn nominal(&self) -> Vec<f64> {
        self.active.iter().map(|&j| self.base[j]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only variables 0 and 2 matter; 1 and 3 are inert.
    struct PartiallyInert;

    impl SizingProblem for PartiallyInert {
        fn dim(&self) -> usize {
            4
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; 4], vec![1.0; 4])
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn evaluate(&self, x: &[f64]) -> SpecResult {
            SpecResult {
                failure: None,
                objective: 3.0 * x[0] + 0.5 * x[2],
                constraints: vec![x[2] - 0.5],
            }
        }
    }

    #[test]
    fn sensitivity_ranks_variables_correctly() {
        let p = PartiallyInert;
        let rep = SensitivityReport::compute(&p, &[0.5; 4], 0.05);
        let scores = rep.scores();
        // x0 dominates the objective row; x2 dominates the constraint row —
        // both earn full scores under per-spec normalization.
        assert!(scores[0] > 0.9, "x0 dominates the objective: {scores:?}");
        assert!(scores[2] > 0.9, "x2 dominates the constraint: {scores:?}");
        assert!(
            scores[1] < 1e-9 && scores[3] < 1e-9,
            "inert vars: {scores:?}"
        );
    }

    #[test]
    fn critical_set_prunes_inert_variables() {
        let p = PartiallyInert;
        let rep = SensitivityReport::compute(&p, &[0.5; 4], 0.05);
        let crit = rep.critical_variables(0.05);
        assert_eq!(crit, vec![0, 2]);
        assert!(rep.table().contains("x0"));
    }

    #[test]
    fn reduced_problem_roundtrip() {
        let p = PartiallyInert;
        let red = ReducedProblem::new(&p, vec![0.5; 4], vec![0, 2]);
        assert_eq!(red.dim(), 2);
        assert_eq!(red.num_constraints(), 1);
        let (lb, ub) = red.bounds();
        assert_eq!(lb.len(), 2);
        assert_eq!(ub.len(), 2);
        let full = red.expand(&[0.1, 0.9]);
        assert_eq!(full, vec![0.1, 0.5, 0.9, 0.5]);
        // Evaluation matches the expanded evaluation.
        let a = red.evaluate(&[0.1, 0.9]);
        let b = p.evaluate(&full);
        assert_eq!(a, b);
        assert_eq!(
            red.variable_names(),
            vec!["x0".to_string(), "x2".to_string()]
        );
    }

    #[test]
    #[should_panic(expected = "active index out of range")]
    fn bad_active_index_panics() {
        let p = PartiallyInert;
        let _ = ReducedProblem::new(&p, vec![0.5; 4], vec![7]);
    }

    /// Two-corner wrapper over [`PartiallyInert`]: corner 1 tightens the
    /// constraint.
    struct CorneredInert;

    impl SizingProblem for CorneredInert {
        fn dim(&self) -> usize {
            4
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; 4], vec![1.0; 4])
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn num_corners(&self) -> usize {
            2
        }
        fn corner_name(&self, k: usize) -> String {
            format!("c{k}")
        }
        fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
            SpecResult {
                failure: None,
                objective: 3.0 * x[0] + 0.5 * x[2],
                constraints: vec![x[2] - 0.5 + 0.1 * k as f64],
            }
        }
        fn evaluate(&self, x: &[f64]) -> SpecResult {
            opt::evaluate_worst_case(self, x)
        }
    }

    /// A variable whose effect is confined to a corner the worst-case
    /// fold never selects: corner 0's constraint is a dominant constant,
    /// so `evaluate` (the max) is flat in `x1` — only the corner-resolved
    /// sweep can see it.
    struct MaskedCornerVar;

    impl SizingProblem for MaskedCornerVar {
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
            2
        }
        fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
            if k == 0 {
                // Dominant constant corner: the fold is flat in x.
                SpecResult {
                    failure: None,
                    objective: 10.0,
                    constraints: vec![10.0],
                }
            } else {
                // All sensitivity — objective included — lives in the
                // non-dominant corner.
                SpecResult {
                    failure: None,
                    objective: 3.0 * x[0],
                    constraints: vec![x[1] - 20.0],
                }
            }
        }
        fn evaluate(&self, x: &[f64]) -> SpecResult {
            opt::evaluate_worst_case(self, x)
        }
    }

    #[test]
    fn sensitivity_sees_variables_masked_by_the_worst_case_fold() {
        let p = MaskedCornerVar;
        // Sanity: the folded view really is flat in both variables.
        let a = p.evaluate(&[0.5, 0.2]);
        let b = p.evaluate(&[0.1, 0.8]);
        assert_eq!(a, b);
        let rep = SensitivityReport::compute(&p, &[0.5, 0.5], 0.05);
        // Corner-resolved matrix: 2 corners × (1 objective + 1
        // constraint) rows.
        assert_eq!(rep.matrix().rows(), 4);
        let crit = rep.critical_variables(0.1);
        assert!(
            crit.contains(&1),
            "x1 only moves a non-dominant corner's constraint but must not be pruned: {crit:?}"
        );
        assert!(
            crit.contains(&0),
            "x0 only moves a non-dominant corner's *objective* but must not be pruned: {crit:?}"
        );
    }

    #[test]
    fn reduced_problem_forwards_the_corner_plane() {
        let p = CorneredInert;
        let red = ReducedProblem::new(&p, vec![0.5; 4], vec![0, 2]);
        assert_eq!(red.num_corners(), 2);
        assert_eq!(red.corner_name(1), "c1");
        let a = red.evaluate_corner(&[0.1, 0.9], 1);
        let b = p.evaluate_corner(&red.expand(&[0.1, 0.9]), 1);
        assert_eq!(a, b);
        // The reduced sign-off view is still the worst case.
        let m = red.evaluate(&[0.1, 0.9]);
        assert_eq!(m.constraints[0], 0.9 - 0.5 + 0.1);
    }
}

//! Pseudo-sample generation (paper Eq. 2).
//!
//! From `N` simulated designs, DNN-Opt constructs up to `N²` critic
//! training pairs: for designs `x_i`, `x_j` the pseudo-sample is
//!
//! ```text
//! x_ps = [x_i, x_j − x_i],   target = f(x_j)
//! ```
//!
//! which teaches the critic to predict the performance of "where a step
//! lands" — exactly what the actor needs. The paper reports that the 2d
//! input trained on pseudo-samples is significantly more accurate than a
//! d-input network on the raw samples (validated here by the ablation
//! bench).
//!
//! The critic trainer draws a fresh batch every epoch through a
//! [`PseudoSampler`]: it standardizes the targets and tabulates the
//! locality tournament's pairwise distances once per training, so each
//! batch is built in one pass that writes every input and target row
//! exactly once. It draws the same pairs from the same RNG stream as
//! [`sample_pseudo_batch_into`] followed by a target-scaling pass, bit for
//! bit; the free functions remain as the reference and for one-off sets.

use linalg::Matrix;
use rand::Rng;

/// Builds the full `N²` Cartesian pseudo-sample set.
///
/// `xs` are design points (unit-cube coordinates, one per row of the
/// conceptual matrix) and `fs` the corresponding spec vectors. Outputs the
/// critic input matrix (`N²×2d`) and target matrix (`N²×(m+1)`).
///
/// # Panics
///
/// Panics if `xs` and `fs` lengths differ or are empty.
pub fn all_pseudo_samples(xs: &[Vec<f64>], fs: &[Vec<f64>]) -> (Matrix, Matrix) {
    let mut inp = Matrix::default();
    let mut out = Matrix::default();
    all_pseudo_samples_into(xs, fs, &mut inp, &mut out);
    (inp, out)
}

/// [`all_pseudo_samples`] into caller-owned buffers (reshaped to fit,
/// reusing their allocations) — the per-epoch path of the critic trainer.
///
/// # Panics
///
/// Panics if `xs` and `fs` lengths differ or are empty.
pub fn all_pseudo_samples_into(
    xs: &[Vec<f64>],
    fs: &[Vec<f64>],
    inp: &mut Matrix,
    out: &mut Matrix,
) {
    assert_eq!(xs.len(), fs.len(), "design/spec count mismatch");
    assert!(!xs.is_empty(), "need at least one design");
    let n = xs.len();
    let d = xs[0].len();
    let mo = fs[0].len();
    inp.reshape_zeroed(n * n, 2 * d);
    out.reshape_zeroed(n * n, mo);
    for i in 0..n {
        for j in 0..n {
            let r = i * n + j;
            write_pair(inp.row_mut(r), &xs[i], &xs[j]);
            out.row_mut(r).copy_from_slice(&fs[j]);
        }
    }
}

/// Writes the Eq. 2 input `[x_i, x_j − x_i]` into one `2d`-wide row.
#[inline]
fn write_pair(row: &mut [f64], xi: &[f64], xj: &[f64]) {
    let (origin, step) = row.split_at_mut(xi.len());
    origin.copy_from_slice(xi);
    for ((s, &b), &a) in step.iter_mut().zip(xj).zip(xi) {
        *s = b - a;
    }
}

/// Squared Euclidean distance, the locality tournament's comparison key.
fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum()
}

/// Draws the `(origin, destination)` design indices of batch row `r` out
/// of `n` designs. Even rows are uniform pairs; odd rows pick the
/// destination nearest the origin (by `dist(i, c)`) among 8 random ones.
#[inline]
fn draw_pair<R: Rng + ?Sized>(
    n: usize,
    r: usize,
    rng: &mut R,
    dist: impl Fn(usize, usize) -> f64,
) -> (usize, usize) {
    let i = rng.gen_range(0..n);
    let j = if r.is_multiple_of(2) {
        rng.gen_range(0..n)
    } else {
        // Tournament locality: nearest of 8 random destinations.
        let mut best = rng.gen_range(0..n);
        let mut bd = dist(i, best);
        for _ in 0..7 {
            let c = rng.gen_range(0..n);
            let cd = dist(i, c);
            if cd < bd {
                bd = cd;
                best = c;
            }
        }
        best
    };
    (i, j)
}

/// Draws `count` random pseudo-samples — the subsampled variant used once
/// `N²` outgrows the per-epoch budget. Half of the pairs are uniform
/// (global structure); the other half are *locality-biased*: the
/// destination `j` is the nearest of several random candidates to the
/// origin `i`, which concentrates training signal on the short steps the
/// actor actually proposes (an implementation refinement of Eq. 2's
/// subsampling; the full N² set is used whenever it fits).
///
/// # Panics
///
/// Panics if `xs` and `fs` lengths differ or are empty.
pub fn sample_pseudo_batch<R: Rng + ?Sized>(
    xs: &[Vec<f64>],
    fs: &[Vec<f64>],
    count: usize,
    rng: &mut R,
) -> (Matrix, Matrix) {
    let mut inp = Matrix::default();
    let mut out = Matrix::default();
    sample_pseudo_batch_into(xs, fs, count, rng, &mut inp, &mut out);
    (inp, out)
}

/// [`sample_pseudo_batch`] into caller-owned buffers (reshaped to fit,
/// reusing their allocations). Draws the identical sample sequence as the
/// allocating variant for the same RNG state.
///
/// # Panics
///
/// Panics if `xs` and `fs` lengths differ or are empty.
pub fn sample_pseudo_batch_into<R: Rng + ?Sized>(
    xs: &[Vec<f64>],
    fs: &[Vec<f64>],
    count: usize,
    rng: &mut R,
    inp: &mut Matrix,
    out: &mut Matrix,
) {
    assert_eq!(xs.len(), fs.len(), "design/spec count mismatch");
    assert!(!xs.is_empty(), "need at least one design");
    let n = xs.len();
    let d = xs[0].len();
    let mo = fs[0].len();
    inp.reshape_zeroed(count, 2 * d);
    out.reshape_zeroed(count, mo);
    for r in 0..count {
        let (i, j) = draw_pair(n, r, rng, |i, c| dist_sq(&xs[i], &xs[c]));
        write_pair(inp.row_mut(r), &xs[i], &xs[j]);
        out.row_mut(r).copy_from_slice(&fs[j]);
    }
}

/// One population's pseudo-sample source for a whole critic training:
/// the per-design targets, already standardized, and the `N × N` table of
/// squared distances the locality tournament compares, both computed once
/// so every batch is built in a single pass.
#[derive(Debug, Clone)]
pub struct PseudoSampler<'a> {
    xs: &'a [Vec<f64>],
    /// Row `j` is the (scaled) target of design `j`.
    targets: Matrix,
    /// `dist[i·N + c]` is the squared distance from design `i` to `c`.
    dist: Vec<f64>,
}

impl<'a> PseudoSampler<'a> {
    /// Tabulates the sampler of designs `xs` with per-design training
    /// targets `targets` (one row per design, e.g. the specs after the
    /// critic's target scaler).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or its length differs from the target rows.
    pub fn new(xs: &'a [Vec<f64>], targets: Matrix) -> Self {
        assert_eq!(xs.len(), targets.rows(), "design/spec count mismatch");
        assert!(!xs.is_empty(), "need at least one design");
        let dist = xs
            .iter()
            .flat_map(|xi| xs.iter().map(move |xc| dist_sq(xi, xc)))
            .collect();
        PseudoSampler { xs, targets, dist }
    }

    /// The full `N²` set in [`all_pseudo_samples_into`]'s row order, with
    /// this sampler's targets.
    pub fn all_into(&self, inp: &mut Matrix, out: &mut Matrix) {
        let n = self.xs.len();
        self.reshape(n * n, inp, out);
        for (r, (i, j)) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).enumerate() {
            self.write_row(r, i, j, inp, out);
        }
    }

    /// `count` random pseudo-samples: the same draws from `rng` as
    /// [`sample_pseudo_batch_into`], with this sampler's targets, every
    /// row written once.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        inp: &mut Matrix,
        out: &mut Matrix,
    ) {
        let n = self.xs.len();
        self.reshape(count, inp, out);
        for r in 0..count {
            let (i, j) = draw_pair(n, r, rng, |i, c| self.dist[i * n + c]);
            self.write_row(r, i, j, inp, out);
        }
    }

    /// Shapes both outputs for `rows` rows without clearing them: every
    /// element is written by [`PseudoSampler::write_row`].
    fn reshape(&self, rows: usize, inp: &mut Matrix, out: &mut Matrix) {
        inp.reshape_for_overwrite(rows, 2 * self.xs[0].len());
        out.reshape_for_overwrite(rows, self.targets.cols());
    }

    /// Writes pair `(i, j)` as row `r` of both outputs.
    #[inline]
    fn write_row(&self, r: usize, i: usize, j: usize, inp: &mut Matrix, out: &mut Matrix) {
        write_pair(inp.row_mut(r), &self.xs[i], &self.xs[j]);
        out.row_mut(r).copy_from_slice(self.targets.row(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn toy() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let xs = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.2, 0.8]];
        let fs = vec![vec![1.0], vec![2.0], vec![3.0]];
        (xs, fs)
    }

    #[test]
    fn full_set_has_n_squared_rows() {
        let (xs, fs) = toy();
        let (inp, out) = all_pseudo_samples(&xs, &fs);
        assert_eq!(inp.rows(), 9);
        assert_eq!(inp.cols(), 4);
        assert_eq!(out.rows(), 9);
        assert_eq!(out.cols(), 1);
    }

    #[test]
    fn pair_layout_matches_eq2() {
        let (xs, fs) = toy();
        let (inp, out) = all_pseudo_samples(&xs, &fs);
        // Row for (i=0, j=1): [x0, x1 − x0], target f(x1).
        let r = 1;
        assert_eq!(inp.row(r), &[0.0, 0.0, 1.0, 0.5]);
        assert_eq!(out[(r, 0)], fs[1][0]);
        // Diagonal (i=j): delta is zero, target is own spec.
        let r = 4; // (1,1)
        assert_eq!(inp.row(r), &[1.0, 0.5, 0.0, 0.0]);
        assert_eq!(out[(r, 0)], fs[1][0]);
    }

    #[test]
    fn target_is_destination_not_origin() {
        let (xs, fs) = toy();
        let (_, out) = all_pseudo_samples(&xs, &fs);
        // Row (i=2, j=0) -> target must be f(x0), not f(x2).
        assert_eq!(out[(2 * 3, 0)], fs[0][0]);
    }

    /// The one-pass sampler against the reference two-pass build (pairs,
    /// then target scaling): bit-identical batches over many epochs into
    /// reused buffers, and the RNG left in the same state.
    #[test]
    fn sampler_matches_two_pass_build() {
        use nn::Scaler;
        let mut gen = StdRng::seed_from_u64(4);
        let xs: Vec<Vec<f64>> = (0..23)
            .map(|_| (0..5).map(|_| gen.gen::<f64>()).collect())
            .collect();
        let fs: Vec<Vec<f64>> = (0..23)
            .map(|_| (0..3).map(|_| 100.0 * gen.gen::<f64>() - 7.0).collect())
            .collect();
        let f_mat = Matrix::from_fn(23, 3, |i, j| fs[i][j]);
        let scaler = Scaler::fit(&f_mat);
        let sampler = PseudoSampler::new(&xs, scaler.transform(&f_mat));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let (mut raw, mut expect_inp, mut expect_out) = Default::default();
        let (mut inp, mut out) = (Matrix::default(), Matrix::default());
        all_pseudo_samples_into(&xs, &fs, &mut expect_inp, &mut raw);
        scaler.transform_into(&raw, &mut expect_out);
        sampler.all_into(&mut inp, &mut out);
        assert_eq!(bits(&inp), bits(&expect_inp));
        assert_eq!(bits(&out), bits(&expect_out));

        let mut rng_ref = StdRng::seed_from_u64(12);
        let mut rng = StdRng::seed_from_u64(12);
        for count in [128, 128, 37, 200] {
            sample_pseudo_batch_into(&xs, &fs, count, &mut rng_ref, &mut expect_inp, &mut raw);
            scaler.transform_into(&raw, &mut expect_out);
            sampler.sample_into(count, &mut rng, &mut inp, &mut out);
            assert_eq!((inp.rows(), inp.cols()), (count, 10));
            assert_eq!((out.rows(), out.cols()), (count, 3));
            assert_eq!(bits(&inp), bits(&expect_inp));
            assert_eq!(bits(&out), bits(&expect_out));
        }
        assert_eq!(rng.gen::<u64>(), rng_ref.gen::<u64>());
    }

    #[test]
    fn subsampled_batch_shapes_and_consistency() {
        let (xs, fs) = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let (inp, out) = sample_pseudo_batch(&xs, &fs, 50, &mut rng);
        assert_eq!(inp.rows(), 50);
        assert_eq!(out.rows(), 50);
        // Every row must be a valid (x_i, x_j - x_i) pair: x part matches a
        // known design and x + delta matches another.
        for r in 0..50 {
            let row = inp.row(r);
            let x = &row[0..2];
            let dx = &row[2..4];
            let dest = [x[0] + dx[0], x[1] + dx[1]];
            let found_src = xs.iter().any(|p| p[0] == x[0] && p[1] == x[1]);
            let found_dst = xs
                .iter()
                .position(|p| (p[0] - dest[0]).abs() < 1e-12 && (p[1] - dest[1]).abs() < 1e-12);
            assert!(found_src, "row {r} origin not a design");
            let j = found_dst.expect("destination must be a design");
            assert_eq!(out[(r, 0)], fs[j][0], "target must be destination spec");
        }
    }
}

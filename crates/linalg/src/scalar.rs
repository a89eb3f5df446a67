//! The scalar abstraction shared by the real and complex sparse LU paths.
//!
//! `sparse.rs` and `supernodal.rs` are written once over [`Scalar`] and
//! monomorphized for `f64` (DC/transient Newton systems) and [`C64`]
//! (frequency-domain `G + jωC` systems). The trait pins down exactly the
//! operations the elimination needs — zero/one, magnitude for pivot
//! checks, the reciprocal used to turn divisions into multiplications —
//! plus one dense kernel hook, [`Scalar::gemm_nn`], through which the
//! supernodal replay reaches the blocked [`crate::gemm`] engine.
//!
//! Bit-compatibility contract: each impl must perform the *same arithmetic
//! in the same order* as the previously hand-written scalar code. In
//! particular `f64::recip` here is literally `1.0 / self` and
//! [`C64::recip`] is the conjugate-over-squared-magnitude form the dense
//! complex solvers use, so the generic elimination reproduces the old
//! per-type implementations bit for bit.
//!
//! The complex GEMM hook splits its operands into real/imaginary/sum
//! planes and issues three real [`crate::gemm`] products — the
//! Karatsuba-style 3M scheme `T1 = Are·Bre`, `T2 = Aim·Bim`,
//! `T3 = (Are+Aim)·(Bre+Bim)` with `Cre = T1 − T2`,
//! `Cim = T3 − T1 − T2` — inheriting the real kernel's determinism
//! instead of duplicating a complex micro-kernel. Blocks that are written once and applied many
//! times cache their planes ([`Scalar::Planes`]) so only the small `B`
//! operand splits per call. The real hook wraps its operands in
//! [`Matrix`] headers without copying (`from_vec`/`into_vec` move the
//! allocation).

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::complex::C64;
use crate::{gemm, GemmOp, GemmWorkspace, Matrix};

/// Element type of the generic sparse factorization
/// ([`crate::SparseLu`] = `f64`, [`crate::SparseComplexLu`] = [`C64`]).
///
/// Implemented for `f64` and [`C64`] only; the methods exist for the
/// solver internals and are not a general numeric-tower abstraction.
pub trait Scalar:
    Copy
    + PartialEq
    + Default
    + Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Real multiply-add cost of one element product relative to `f64`
    /// (1 for `f64`, 4 for [`C64`]) — scales the flop thresholds that
    /// decide when a batch is big enough for the packed GEMM kernel.
    const FLOP_WEIGHT: usize;
    /// Minimum supernode width that forms a dense panel in the supernodal
    /// replay; anything narrower runs the scalar column kernel (and
    /// mirrors into dense mini-blocks when a panel consumes it). Below
    /// ~6 columns a panel is all gather/scatter overhead for `f64`;
    /// complex panels carry 4× the element-wise cost for the same
    /// blocking payoff, so [`C64`] requires more width before the panel
    /// machinery pays.
    const PANEL_MIN_WIDTH: usize;
    /// Column-block width of the supernodal panel factor and TRSM: the
    /// rank-1 updates inside a block run element-wise, the retirement of
    /// the block against everything trailing runs as one packed GEMM.
    /// Complex arithmetic pays `FLOP_WEIGHT`× for every element-wise
    /// multiply-add while its 3M-scheme GEMM stays near the real kernel's
    /// rate, so [`C64`] picks a narrower block to shift work into the
    /// retirement product.
    const PANEL_NB: usize;

    /// Reusable scratch for [`Scalar::gemm_nn`] (packed panels, and for
    /// [`C64`] the split real/imaginary planes).
    type GemmScratch: Debug + Clone + Default + Send + Sync;

    /// Magnitude used by pivot-acceptance checks (`|x|`; `hypot` for
    /// [`C64`] — the same quantity the pivoting pass maximized).
    fn mag(self) -> f64;

    /// Multiplicative inverse: exactly `1.0 / self` for `f64`, conjugate
    /// over squared magnitude for [`C64`] — matching the arithmetic of
    /// the scalar elimination paths bit for bit.
    fn recip(self) -> Self;

    /// Dense product `c = a · b` with `a` row-major `m×k` and `b`
    /// row-major `k×n`; `c` is resized to `m·n`. Operands are taken by
    /// `&mut` so the `f64` impl can move the allocations into [`Matrix`]
    /// headers copy-free; contents are unchanged on return. Delegates to
    /// the serial [`crate::gemm`].
    fn gemm_nn(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<Self>,
        b: &mut Vec<Self>,
        c: &mut Vec<Self>,
        ws: &mut Self::GemmScratch,
    );

    /// Cached split-plane form of a dense operand that is written once and
    /// multiplied many times ([`C64`]: real/imaginary plane matrices;
    /// `f64`: nothing — the interleaved buffer already is the plane).
    type Planes: Debug + Clone + Default + Send + Sync;

    /// Refreshes the cached planes of a row-major `m×k` operand.
    fn split_planes(m: usize, k: usize, a: &[Self], p: &mut Self::Planes);

    /// [`Scalar::gemm_nn`] with the `a` operand supplied both interleaved
    /// (used by `f64`) and as cached planes (used by [`C64`], skipping the
    /// per-call split of `a` — the dominant per-call cost when one block
    /// is applied to many targets). `p` must hold the planes of the
    /// current contents of `a`; the product is bit-identical to
    /// [`Scalar::gemm_nn`] on the same operands.
    #[allow(clippy::too_many_arguments)]
    fn gemm_nn_planes(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<Self>,
        p: &Self::Planes,
        b: &mut Vec<Self>,
        c: &mut Vec<Self>,
        ws: &mut Self::GemmScratch,
    );

    /// Computes `Y = A·B` exactly like [`Scalar::gemm_nn_planes`] and
    /// subtracts it from a column-major panel through row/column maps:
    /// `panel[cols[ci]·nr + rows[bi]] -= Y[bi·n + ci]` for every mapped
    /// row (`rows[bi] != u32::MAX`; `rows.len() == m`, `cols.len() == n`).
    /// `y` is scratch for impls that materialize the product first; the
    /// complex impl instead merges its real partial products directly
    /// inside the subtraction, skipping the interleaved result round-trip.
    #[allow(clippy::too_many_arguments)]
    fn gemm_sub_into_panel(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<Self>,
        p: &Self::Planes,
        b: &mut Vec<Self>,
        y: &mut Vec<Self>,
        panel: &mut [Self],
        nr: usize,
        rows: &[u32],
        cols: &[u32],
        ws: &mut Self::GemmScratch,
    );
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const FLOP_WEIGHT: usize = 1;
    const PANEL_MIN_WIDTH: usize = 6;
    const PANEL_NB: usize = 32;

    type GemmScratch = GemmWorkspace;

    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn recip(self) -> f64 {
        1.0 / self
    }

    fn gemm_nn(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<f64>,
        b: &mut Vec<f64>,
        c: &mut Vec<f64>,
        ws: &mut GemmWorkspace,
    ) {
        // Move (not copy) the buffers into Matrix headers around the call.
        let am = Matrix::from_vec(m, k, std::mem::take(a));
        let bm = Matrix::from_vec(k, n, std::mem::take(b));
        c.clear();
        let mut cm = Matrix::from_vec(0, 0, std::mem::take(c));
        cm.reshape_for_overwrite(m, n);
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &am,
            &bm,
            0.0,
            &mut cm,
            ws,
        );
        *a = am.into_vec();
        *b = bm.into_vec();
        *c = cm.into_vec();
    }

    type Planes = ();

    #[inline]
    fn split_planes(_m: usize, _k: usize, _a: &[f64], _p: &mut ()) {}

    #[inline]
    fn gemm_nn_planes(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<f64>,
        _p: &(),
        b: &mut Vec<f64>,
        c: &mut Vec<f64>,
        ws: &mut GemmWorkspace,
    ) {
        f64::gemm_nn(m, n, k, a, b, c, ws);
    }

    fn gemm_sub_into_panel(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<f64>,
        _p: &(),
        b: &mut Vec<f64>,
        y: &mut Vec<f64>,
        panel: &mut [f64],
        nr: usize,
        rows: &[u32],
        cols: &[u32],
        ws: &mut GemmWorkspace,
    ) {
        f64::gemm_nn(m, n, k, a, b, y, ws);
        for (bi, &p) in rows.iter().enumerate() {
            if p != u32::MAX {
                for (ci, &yv) in y[bi * n..(bi + 1) * n].iter().enumerate() {
                    panel[cols[ci] as usize * nr + p as usize] -= yv;
                }
            }
        }
    }
}

/// Split-plane scratch for the complex GEMM hook: real/imaginary/sum
/// planes of both operands and the three real partial products of the
/// 3M scheme, plus the packing workspace they share.
#[derive(Debug, Clone, Default)]
pub struct ComplexGemmScratch {
    are: Matrix,
    aim: Matrix,
    asum: Matrix,
    bre: Matrix,
    bim: Matrix,
    bsum: Matrix,
    cre: Matrix,
    cim: Matrix,
    csum: Matrix,
    ws: GemmWorkspace,
}

/// Cached real/imaginary/sum planes of a complex block operand
/// ([`Scalar::Planes`] for [`C64`]).
#[derive(Debug, Clone, Default)]
pub struct C64Planes {
    re: Matrix,
    im: Matrix,
    sum: Matrix,
}

/// The shared core of the complex GEMM hooks: `b` split into planes, three
/// real products against the given `a` planes (the Karatsuba-style 3M
/// scheme: `T1 = Are·Bre`, `T2 = Aim·Bim`,
/// `T3 = (Are+Aim)·(Bre+Bim)`, from which `Cre = T1 − T2` and
/// `Cim = T3 − T1 − T2`). One real product fewer than the textbook split
/// at the cost of one extra plane per operand — the win that pushes the
/// complex supernodal replay past the scalar complex kernel's high
/// natural flop density. The partial products are left in the
/// `cre`/`cim`/`csum` planes for the caller to merge.
#[allow(clippy::too_many_arguments)]
fn complex_gemm_products(
    n: usize,
    k: usize,
    are: &Matrix,
    aim: &Matrix,
    asum: &Matrix,
    b: &[C64],
    g: (
        &mut Matrix,
        &mut Matrix,
        &mut Matrix,
        &mut Matrix,
        &mut Matrix,
        &mut Matrix,
    ),
    g_ws: &mut GemmWorkspace,
) {
    let (bre, bim, bsum, cre, cim, csum) = g;
    bre.reshape_for_overwrite(k, n);
    bim.reshape_for_overwrite(k, n);
    bsum.reshape_for_overwrite(k, n);
    for (i, v) in b.iter().enumerate() {
        bre.as_mut_slice()[i] = v.re;
        bim.as_mut_slice()[i] = v.im;
        bsum.as_mut_slice()[i] = v.re + v.im;
    }
    gemm(
        GemmOp::NoTrans,
        GemmOp::NoTrans,
        1.0,
        are,
        bre,
        0.0,
        cre,
        g_ws,
    );
    gemm(
        GemmOp::NoTrans,
        GemmOp::NoTrans,
        1.0,
        aim,
        bim,
        0.0,
        cim,
        g_ws,
    );
    gemm(
        GemmOp::NoTrans,
        GemmOp::NoTrans,
        1.0,
        asum,
        bsum,
        0.0,
        csum,
        g_ws,
    );
}

/// Interleaved merge of the 3M partial products into `c`.
fn complex_gemm_merge(cre: &Matrix, cim: &Matrix, csum: &Matrix, c: &mut Vec<C64>) {
    c.clear();
    c.extend(
        cre.as_slice()
            .iter()
            .zip(cim.as_slice())
            .zip(csum.as_slice())
            .map(|((&t1, &t2), &t3)| C64::new(t1 - t2, t3 - t1 - t2)),
    );
}

impl Scalar for C64 {
    const ZERO: C64 = C64::ZERO;
    const ONE: C64 = C64::ONE;
    const FLOP_WEIGHT: usize = 4;
    const PANEL_MIN_WIDTH: usize = 10;
    const PANEL_NB: usize = 32;

    type GemmScratch = ComplexGemmScratch;

    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn recip(self) -> C64 {
        C64::recip(self)
    }

    fn gemm_nn(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<C64>,
        b: &mut Vec<C64>,
        c: &mut Vec<C64>,
        g: &mut ComplexGemmScratch,
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        let ComplexGemmScratch {
            are,
            aim,
            asum,
            bre,
            bim,
            bsum,
            cre,
            cim,
            csum,
            ws,
        } = g;
        are.reshape_for_overwrite(m, k);
        aim.reshape_for_overwrite(m, k);
        asum.reshape_for_overwrite(m, k);
        for (i, v) in a.iter().enumerate() {
            are.as_mut_slice()[i] = v.re;
            aim.as_mut_slice()[i] = v.im;
            asum.as_mut_slice()[i] = v.re + v.im;
        }
        complex_gemm_products(
            n,
            k,
            are,
            aim,
            asum,
            b,
            (bre, bim, bsum, cre, cim, csum),
            ws,
        );
        complex_gemm_merge(cre, cim, csum, c);
    }

    type Planes = C64Planes;

    fn split_planes(m: usize, k: usize, a: &[C64], p: &mut C64Planes) {
        debug_assert_eq!(a.len(), m * k);
        p.re.reshape_for_overwrite(m, k);
        p.im.reshape_for_overwrite(m, k);
        p.sum.reshape_for_overwrite(m, k);
        for (i, v) in a.iter().enumerate() {
            p.re.as_mut_slice()[i] = v.re;
            p.im.as_mut_slice()[i] = v.im;
            p.sum.as_mut_slice()[i] = v.re + v.im;
        }
    }

    fn gemm_nn_planes(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<C64>,
        p: &C64Planes,
        b: &mut Vec<C64>,
        c: &mut Vec<C64>,
        g: &mut ComplexGemmScratch,
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(p.re.as_slice().len(), m * k, "stale plane cache");
        let ComplexGemmScratch {
            bre,
            bim,
            bsum,
            cre,
            cim,
            csum,
            ws,
            ..
        } = g;
        complex_gemm_products(
            n,
            k,
            &p.re,
            &p.im,
            &p.sum,
            b,
            (bre, bim, bsum, cre, cim, csum),
            ws,
        );
        complex_gemm_merge(cre, cim, csum, c);
    }

    fn gemm_sub_into_panel(
        m: usize,
        n: usize,
        k: usize,
        a: &mut Vec<C64>,
        p: &C64Planes,
        b: &mut Vec<C64>,
        _y: &mut Vec<C64>,
        panel: &mut [C64],
        nr: usize,
        rows: &[u32],
        cols: &[u32],
        g: &mut ComplexGemmScratch,
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(rows.len(), m);
        debug_assert_eq!(cols.len(), n);
        let ComplexGemmScratch {
            bre,
            bim,
            bsum,
            cre,
            cim,
            csum,
            ws,
            ..
        } = g;
        complex_gemm_products(
            n,
            k,
            &p.re,
            &p.im,
            &p.sum,
            b,
            (bre, bim, bsum, cre, cim, csum),
            ws,
        );
        // Merge the partial products directly into the mapped subtraction:
        // no interleaved result buffer between the products and the panel.
        let (t1s, t2s, t3s) = (cre.as_slice(), cim.as_slice(), csum.as_slice());
        for (bi, &pr) in rows.iter().enumerate() {
            if pr == u32::MAX {
                continue;
            }
            let base = pr as usize;
            let (r1, r2, r3) = (
                &t1s[bi * n..(bi + 1) * n],
                &t2s[bi * n..(bi + 1) * n],
                &t3s[bi * n..(bi + 1) * n],
            );
            for ci in 0..n {
                let (t1, t2, t3) = (r1[ci], r2[ci], r3[ci]);
                panel[cols[ci] as usize * nr + base] -= C64::new(t1 - t2, t3 - t1 - t2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recip_matches_scalar_arithmetic_bitwise() {
        for v in [3.0f64, -0.125, 1e-7, 2.5e11] {
            assert_eq!(Scalar::recip(v), 1.0 / v);
        }
        let z = C64::new(2.0, -3.0);
        assert_eq!(Scalar::recip(z), z.conj() * (1.0 / z.abs_sq()));
    }

    #[test]
    fn complex_gemm_nn_matches_naive_product() {
        let (m, n, k) = (7usize, 5, 6);
        let mut a: Vec<C64> = (0..m * k)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut b: Vec<C64> = (0..k * n)
            .map(|i| C64::new((i as f64 * 0.23).cos(), (i as f64 * 0.41).sin()))
            .collect();
        let mut c = Vec::new();
        let mut g = ComplexGemmScratch::default();
        C64::gemm_nn(m, n, k, &mut a, &mut b, &mut c, &mut g);
        assert_eq!(c.len(), m * n);
        for i in 0..m {
            for j in 0..n {
                let mut s = C64::ZERO;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                assert!((s - c[i * n + j]).abs() < 1e-12, "({i}, {j})");
            }
        }
    }

    #[test]
    fn f64_gemm_nn_roundtrips_buffers() {
        let (m, n, k) = (4usize, 3, 2);
        let mut a: Vec<f64> = (0..m * k).map(|i| i as f64 + 1.0).collect();
        let mut b: Vec<f64> = (0..k * n).map(|i| 0.5 - i as f64).collect();
        let a0 = a.clone();
        let b0 = b.clone();
        let mut c = Vec::new();
        let mut ws = GemmWorkspace::new();
        f64::gemm_nn(m, n, k, &mut a, &mut b, &mut c, &mut ws);
        assert_eq!(a, a0);
        assert_eq!(b, b0);
        for i in 0..m {
            for j in 0..n {
                let s: f64 = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
                assert_eq!(c[i * n + j], s);
            }
        }
    }
}

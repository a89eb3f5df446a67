//! Cache-blocked dense GEMM engine with register-tiled micro-kernels.
//!
//! One entry point, [`gemm`] (and its epilogue-fusing sibling
//! [`gemm_with`]), covers every matrix-product shape the workspace needs:
//! `C := α·op(A)·op(B) + β·C` with independent transposition selectors for
//! both operands, so the NN/NT/TN products of an MLP's forward and backward
//! passes all run through the same kernel.
//!
//! # Blocking scheme
//!
//! The implementation follows the classic Goto/BLIS decomposition:
//!
//! - the output is processed in `NC`-wide column blocks;
//! - each column block accumulates over `KC`-deep panels of the inner
//!   dimension; the `KC × NC` slice of `op(B)` is packed once per panel
//!   into [`GemmWorkspace::pack_b`], laid out in `NR`-column micro-panels;
//! - inside a panel, `MC`-tall row blocks of `op(A)` are packed into
//!   [`GemmWorkspace::pack_a`] as `MR`-row micro-panels;
//! - a register-tiled micro-kernel then computes `MR × NR` output tiles
//!   (`4 × 8` f64 accumulators) from the two packed panels, walking both
//!   with stride-1 loads and no transposition logic in the inner loop.
//!
//! Packing handles both transposition and edge padding (partial tiles are
//! zero-padded to full `MR`/`NR` width), so the micro-kernel is a single
//! branch-free loop. On x86-64 hosts with AVX2+FMA a fused-multiply-add
//! variant of the micro-kernel is selected once per process; everywhere
//! else a portable scalar-tiled kernel runs. Small products (`m·n·k ≤`
//! [`GEMM_NAIVE_CUTOFF`]) skip the packing machinery entirely and use the
//! naive reference kernel, which is also exposed as [`gemm_naive`] for
//! differential testing.
//!
//! # Threading
//!
//! Every product runs serially on the calling thread. The workspace has
//! one parallel layer, the evaluation grid in `opt::parallel`, and it
//! already owns every core while candidates simulate. The DNN-Opt
//! training GEMMs between generations are ~128×48×40 products of tens of
//! microseconds, too small to pay for a pool dispatch plus a second
//! packing of the shared `B` panel per worker.
//!
//! # Determinism
//!
//! The tiling is fixed (compile-time `MC`/`KC`/`NC`/`MR`/`NR`) and the
//! per-element accumulation order depends only on the operand shapes, so
//! repeated calls are bit-identical on a given host. The FMA and portable
//! micro-kernels may differ in final-bit rounding (fused vs separate
//! multiply-add), but the selection is constant for the lifetime of the
//! process.
//!
//! # Epilogues
//!
//! [`gemm_with`] applies an [`Epilogue`] to every finished output element
//! exactly once, after all `KC`-panel contributions have accumulated. This
//! is how the NN crate fuses bias-add + activation into the forward GEMM
//! and the activation-derivative product into the backward GEMM without an
//! extra pass over the output.

use crate::Matrix;

/// Transposition selector for a [`gemm`] operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmOp {
    /// Use the operand as stored.
    NoTrans,
    /// Use the operand's transpose (without materializing it).
    Trans,
}

impl GemmOp {
    /// Effective `(rows, cols)` of `m` under this op.
    fn dims(self, m: &Matrix) -> (usize, usize) {
        match self {
            GemmOp::NoTrans => (m.rows(), m.cols()),
            GemmOp::Trans => (m.cols(), m.rows()),
        }
    }
}

/// A fused output transformation applied by [`gemm_with`].
///
/// `apply` is called exactly once per output element, after the element's
/// value is final, as `apply(row, col0, seg)` where `seg` is the contiguous
/// slice `c[row][col0 .. col0 + seg.len()]`. Implementations must treat the
/// call element-wise (the segmentation — full rows for the naive kernel,
/// `NC`-wide column blocks for the blocked kernel — is not part of the
/// contract).
pub trait Epilogue {
    /// Transforms one finished output-row segment in place.
    fn apply(&mut self, row: usize, col0: usize, seg: &mut [f64]);
}

/// The identity epilogue of plain [`gemm`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEpilogue;

impl Epilogue for NoEpilogue {
    #[inline]
    fn apply(&mut self, _row: usize, _col0: usize, _seg: &mut [f64]) {}
}

/// Reusable packing buffers for the blocked kernel. One workspace serves
/// any sequence of [`gemm`] calls; the buffers grow to the largest panel
/// seen and are reused allocation-free afterwards.
#[derive(Debug, Clone, Default)]
pub struct GemmWorkspace {
    /// `MC × KC` panel of `op(A)`, packed in `MR`-row micro-panels.
    pack_a: Vec<f64>,
    /// `KC × NC` panel of `op(B)`, packed in `NR`-column micro-panels.
    pack_b: Vec<f64>,
}

impl GemmWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Micro-kernel tile height (rows of `C` per register tile).
const MR: usize = 4;
/// Micro-kernel tile width (columns of `C` per register tile).
const NR: usize = 8;
/// Row-panel height: rows of `op(A)` packed per inner block.
const MC: usize = 128;
/// Depth of one packed panel of the inner dimension.
const KC: usize = 256;
/// Column-block width of the outermost loop.
const NC: usize = 4096;

/// `m·n·k` at or below which [`gemm`] runs the naive reference kernel
/// instead of the blocked one (packing overhead dominates tiny products).
pub const GEMM_NAIVE_CUTOFF: usize = 4096;

/// `m·n·k` at or above which a blocked product opens a `gemm` telemetry
/// span, so traced training loops don't drown in micro-product events.
const GEMM_SPAN_MIN_WORK: usize = 65_536;

/// General matrix multiply `C := α·op(A)·op(B) + β·C`.
///
/// With `beta == 0.0` the output matrix is reshaped to fit (reusing its
/// allocation) and the old contents are ignored entirely — `C` may be a
/// default-constructed buffer. With `beta != 0.0` the output must already
/// have the product's shape.
///
/// # Panics
///
/// Panics if the effective inner dimensions disagree, or if `beta != 0.0`
/// and `C` has the wrong shape.
#[allow(clippy::too_many_arguments)] // the canonical BLAS dgemm signature
pub fn gemm(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
) {
    gemm_with(op_a, op_b, alpha, a, b, beta, c, ws, &mut NoEpilogue);
}

/// [`gemm`] with a fused [`Epilogue`] applied to every finished output
/// element (bias-add, activation, elementwise products — anything that
/// would otherwise need a second pass over `C`).
///
/// # Panics
///
/// Same conditions as [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_with<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
    epilogue: &mut E,
) {
    debug_assert_finite_operand(a, "A");
    debug_assert_finite_operand(b, "B");
    let (m, n, k) = checked_dims(op_a, op_b, a, b);
    prepare_output(beta, m, n, c);
    if m * n * k <= GEMM_NAIVE_CUTOFF {
        naive_body(op_a, op_b, alpha, a, b, beta, c, epilogue, (m, n, k));
    } else {
        blocked_body(op_a, op_b, alpha, a, b, beta, c, ws, epilogue, (m, n, k));
    }
}

/// The naive reference kernel: straight i-j-k triple loops with the same
/// `C := α·op(A)·op(B) + β·C` semantics as [`gemm`]. Used as the
/// ground truth of the differential property tests and by [`gemm`] itself
/// below [`GEMM_NAIVE_CUTOFF`].
///
/// # Panics
///
/// Same conditions as [`gemm`].
pub fn gemm_naive(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    gemm_naive_with(op_a, op_b, alpha, a, b, beta, c, &mut NoEpilogue);
}

/// [`gemm_naive`] with a fused [`Epilogue`] — the reference implementation
/// of the epilogue contract.
///
/// # Panics
///
/// Same conditions as [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive_with<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    epilogue: &mut E,
) {
    let (m, n, k) = checked_dims(op_a, op_b, a, b);
    prepare_output(beta, m, n, c);
    naive_body(op_a, op_b, alpha, a, b, beta, c, epilogue, (m, n, k));
}

/// Effective `(m, n, k)` of the product, with the inner-dimension check.
fn checked_dims(op_a: GemmOp, op_b: GemmOp, a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    let (m, ka) = op_a.dims(a);
    let (kb, n) = op_b.dims(b);
    assert_eq!(ka, kb, "inner dimensions must agree");
    (m, n, ka)
}

/// Shapes (or shape-checks) the output for the accumulation. With
/// `beta == 0` the old contents are never read — the naive kernel assigns
/// every element and the blocked kernel's first `KC` panel *stores* instead
/// of accumulating — so the reshape skips the memset.
fn prepare_output(beta: f64, m: usize, n: usize, c: &mut Matrix) {
    if beta == 0.0 {
        c.reshape_for_overwrite(m, n);
    } else {
        assert_eq!(
            (c.rows(), c.cols()),
            (m, n),
            "output shape mismatch for beta != 0"
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn naive_body<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    epilogue: &mut E,
    (m, n, k): (usize, usize, usize),
) {
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for p in 0..k {
                let av = match op_a {
                    GemmOp::NoTrans => a[(i, p)],
                    GemmOp::Trans => a[(p, i)],
                };
                let bv = match op_b {
                    GemmOp::NoTrans => b[(p, j)],
                    GemmOp::Trans => b[(j, p)],
                };
                s += av * bv;
            }
            // beta == 0 must ignore the old contents entirely (they may be
            // stale or non-finite), not multiply them by zero.
            let prev = if beta == 0.0 { 0.0 } else { beta * c[(i, j)] };
            c[(i, j)] = alpha * s + prev;
        }
        epilogue.apply(i, 0, c.row_mut(i));
    }
}

/// Telemetry for one blocked product (one gate check when tracing is
/// off): its flop count, plus a `gemm` span at or above
/// [`GEMM_SPAN_MIN_WORK`]. Every product runs on one thread, so the
/// span's argument (the worker count) is always 1.
fn trace_product(work: usize) -> Option<telemetry::Span> {
    if !telemetry::enabled() {
        return None;
    }
    telemetry::record(telemetry::Metric::GemmFlops, 2 * work as u64);
    (work >= GEMM_SPAN_MIN_WORK).then(|| telemetry::span_with(telemetry::SpanId::Gemm, 1))
}

/// The `β·C` pre-pass of the blocked kernels. `beta == 0` needs none: the
/// output holds stale values (`prepare_output` skips the memset), and the
/// first `KC` panel *stores* its tiles instead of accumulating, overwriting
/// every element. `beta == 1` accumulates as-is.
fn scale_output(beta: f64, c: &mut Matrix) {
    if beta != 0.0 && beta != 1.0 {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
}

/// The Goto loop nest: `NC`-column blocks × `KC`-depth panels × `MC`-row
/// blocks, packing into `ws` and merging through the micro-kernel, then
/// the fused epilogue once every element is final.
#[allow(clippy::too_many_arguments)]
fn blocked_body<E: Epilogue>(
    op_a: GemmOp,
    op_b: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
    epilogue: &mut E,
    (m, n, k): (usize, usize, usize),
) {
    let kernel = select_micro_kernel();
    let _span = trace_product(m.saturating_mul(n).saturating_mul(k));
    scale_output(beta, c);
    let ccols = c.cols();
    let cbase = c.as_mut_slice().as_mut_ptr();
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            // The first panel of a beta == 0 product *stores* its tiles
            // (the stale output is never read); later panels accumulate.
            let store = beta == 0.0 && pc == 0;

            pack_b(op_b, b, pc, kc, jc, nc, &mut ws.pack_b);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(op_a, a, ic, mc, pc, kc, &mut ws.pack_a);
                // SAFETY: `cbase` addresses the whole `m × n` output, and
                // the `mc × nc` block at `(ic, jc)` lies inside it.
                unsafe {
                    macro_kernel(
                        alpha,
                        (mc, nc, kc),
                        &ws.pack_a,
                        &ws.pack_b,
                        cbase,
                        ccols,
                        ic,
                        jc,
                        kernel,
                        store,
                    );
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
    for i in 0..m {
        epilogue.apply(i, 0, c.row_mut(i));
    }
}

/// A pre-packed right-hand operand for [`gemm_prepacked_with`]: the
/// `NR`-column micro-panel layout of a *single* `KC × NC` panel, computed
/// once and reused across many products. The fast path for frozen weight
/// matrices (e.g. the DNN-Opt critic inside the actor's training loop),
/// whose panels would otherwise be re-packed on every call.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    data: Vec<f64>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Effective inner dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Effective column count of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packs `op(B)` when it fits a single panel, `None` otherwise (the
    /// caller falls back to the on-the-fly path).
    pub fn try_pack(op_b: GemmOp, b: &Matrix) -> Option<PackedB> {
        let (k, n) = op_b.dims(b);
        if k > KC || n > NC {
            return None;
        }
        let mut out = PackedB::default();
        pack_b_into(op_b, b, &mut out);
        Some(out)
    }
}

/// Debug-build quarantine tripwire: a NaN or ∞ entering a GEMM operand
/// silently poisons every downstream weight, so in debug builds every
/// entry point rejects non-finite operands outright. The failure-penalty
/// mapping upstream (see `opt::FAILURE_PENALTY`) is supposed to make this
/// unreachable; release builds pay nothing.
#[inline]
fn debug_assert_finite_operand(m: &Matrix, name: &str) {
    if cfg!(debug_assertions) {
        for i in 0..m.rows() {
            for (j, v) in m.row(i).iter().enumerate() {
                debug_assert!(
                    v.is_finite(),
                    "non-finite value {v} in GEMM operand {name} at ({i}, {j})"
                );
            }
        }
    }
}

/// Packs `op(B)` into `out` for reuse with [`gemm_prepacked_with`]. The
/// layout is identical to the per-call packing of [`gemm`], so prepacked
/// products are bit-identical to blocked on-the-fly ones.
///
/// # Panics
///
/// Panics if the effective dimensions exceed one panel (`k > KC` or
/// `n > NC`) — multi-panel operands must use the on-the-fly path.
pub fn pack_b_into(op_b: GemmOp, b: &Matrix, out: &mut PackedB) {
    debug_assert_finite_operand(b, "packed B");
    let (k, n) = op_b.dims(b);
    assert!(
        k <= KC && n <= NC,
        "pack_b_into supports single-panel operands only (k ≤ {KC}, n ≤ {NC})"
    );
    pack_b(op_b, b, 0, k, 0, n, &mut out.data);
    out.k = k;
    out.n = n;
}

/// `C := α·op(A)·B + β·C` with a pre-packed right operand: identical
/// result bits to the blocked [`gemm`] on the same operands, minus the
/// per-call packing of `B`.
///
/// # Panics
///
/// Panics if the inner dimensions disagree, or if `beta != 0.0` and `C`
/// has the wrong shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_prepacked_with<E: Epilogue>(
    op_a: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &PackedB,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
    epilogue: &mut E,
) {
    debug_assert_finite_operand(a, "A");
    let (m, ka) = op_a.dims(a);
    let (k, n) = (b.k, b.n);
    assert_eq!(ka, k, "inner dimensions must agree");
    prepare_output(beta, m, n, c);
    if m == 0 || n == 0 {
        return;
    }
    let kernel = select_micro_kernel();
    let _span = trace_product(m.saturating_mul(n).saturating_mul(k));
    scale_output(beta, c);
    // The packed operand is a single panel (k ≤ KC), so the loop nest is
    // just the MC-row loop over the shared B panel.
    let store = beta == 0.0;
    let ccols = c.cols();
    let cbase = c.as_mut_slice().as_mut_ptr();
    let mut ic = 0;
    while ic < m {
        let mc = MC.min(m - ic);
        pack_a(op_a, a, ic, mc, 0, k, &mut ws.pack_a);
        // SAFETY: `cbase` addresses the whole `m × n` output, and the
        // `mc × n` block at row `ic` lies inside it.
        unsafe {
            macro_kernel(
                alpha,
                (mc, n, k),
                &ws.pack_a,
                &b.data,
                cbase,
                ccols,
                ic,
                0,
                kernel,
                store,
            );
        }
        ic += MC;
    }
    for i in 0..m {
        epilogue.apply(i, 0, c.row_mut(i));
    }
}

/// Packs the `mc × kc` block of `op(A)` at `(ic, pc)` into `MR`-row
/// micro-panels: panel `t` holds rows `ic + t·MR ..`, laid out so the
/// micro-kernel reads `buf[t·kc·MR + p·MR + r]` with stride-1 `p` walks.
/// Partial edge panels are zero-padded to full `MR` height.
fn pack_a(op: GemmOp, a: &Matrix, ic: usize, mc: usize, pc: usize, kc: usize, buf: &mut Vec<f64>) {
    let tiles = mc.div_ceil(MR);
    let need = tiles * kc * MR;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for t in 0..tiles {
        let base = t * kc * MR;
        let mr = MR.min(mc - t * MR);
        match op {
            GemmOp::NoTrans => {
                for r in 0..mr {
                    let row = &a.row(ic + t * MR + r)[pc..pc + kc];
                    for (p, &v) in row.iter().enumerate() {
                        buf[base + p * MR + r] = v;
                    }
                }
            }
            GemmOp::Trans => {
                // Effective A[i][p] = a[p][i]: each source row is one `p`.
                for p in 0..kc {
                    let src = &a.row(pc + p)[ic + t * MR..ic + t * MR + mr];
                    buf[base + p * MR..base + p * MR + mr].copy_from_slice(src);
                }
            }
        }
        // Zero only the padding lanes of a partial edge tile (the buffer is
        // reused across calls and may hold stale values there).
        for p in 0..kc {
            for r in mr..MR {
                buf[base + p * MR + r] = 0.0;
            }
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` at `(pc, jc)` into `NR`-column
/// micro-panels (`buf[u·kc·NR + p·NR + j]`), zero-padding partial edge
/// panels to full `NR` width.
fn pack_b(op: GemmOp, b: &Matrix, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut Vec<f64>) {
    let tiles = nc.div_ceil(NR);
    let need = tiles * kc * NR;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for u in 0..tiles {
        let base = u * kc * NR;
        let nr = NR.min(nc - u * NR);
        match op {
            GemmOp::NoTrans => {
                for p in 0..kc {
                    let src = &b.row(pc + p)[jc + u * NR..jc + u * NR + nr];
                    buf[base + p * NR..base + p * NR + nr].copy_from_slice(src);
                }
            }
            GemmOp::Trans => {
                // Effective B[p][j] = b[j][p]: each source row is one `j`.
                for j in 0..nr {
                    let src = &b.row(jc + u * NR + j)[pc..pc + kc];
                    for (p, &v) in src.iter().enumerate() {
                        buf[base + p * NR + j] = v;
                    }
                }
            }
        }
        // Zero only the padding lanes of a partial edge tile.
        for p in 0..kc {
            for j in nr..NR {
                buf[base + p * NR + j] = 0.0;
            }
        }
    }
}

/// Runs the register-tiled micro-kernel over every `MR × NR` tile of the
/// packed `mc × nc` block and merges `α`-scaled results into the output
/// (`store` replaces instead of accumulating — the first-panel fast path).
///
/// # Safety
///
/// `cbase` must point to the start of a row-major buffer of row length
/// `ccols` covering at least rows `ic..ic + mc` and columns
/// `jc..jc + nc`, with no concurrent access to that block from any other
/// thread.
#[allow(clippy::too_many_arguments)]
unsafe fn macro_kernel(
    alpha: f64,
    (mc, nc, kc): (usize, usize, usize),
    pack_a: &[f64],
    pack_b: &[f64],
    cbase: *mut f64,
    ccols: usize,
    ic: usize,
    jc: usize,
    kernel: MicroKernel,
    store: bool,
) {
    let row_tiles = mc.div_ceil(MR);
    let col_tiles = nc.div_ceil(NR);
    for u in 0..col_tiles {
        let jr = u * NR;
        let nr = NR.min(nc - jr);
        let bp = &pack_b[u * kc * NR..(u + 1) * kc * NR];
        for t in 0..row_tiles {
            let ir = t * MR;
            let mr = MR.min(mc - ir);
            let ap = &pack_a[t * kc * MR..(t + 1) * kc * MR];
            #[cfg(target_arch = "x86_64")]
            if kernel == MicroKernel::Fma && mr == MR && nr == NR {
                // Full tile on the FMA kernel: accumulate in registers and
                // write α-scaled results straight into C — no stack
                // spill + separate writeback pass. Identical arithmetic to
                // the buffered path below.
                // SAFETY: rows ic+ir .. ic+ir+MR and columns jc+jr .. +NR
                // are in bounds (full tile), and the FMA features were
                // detected at selection time.
                unsafe {
                    let dst = cbase.add((ic + ir) * ccols + jc + jr);
                    micro_kernel_fma_direct(ap, bp, dst, ccols, alpha, store);
                }
                continue;
            }
            let mut acc = [[0.0f64; NR]; MR];
            run_micro_kernel(ap, bp, &mut acc, kernel);
            for r in 0..mr {
                // SAFETY: row ic+ir+r, columns jc+jr .. +nr are inside the
                // caller-guaranteed exclusive block.
                let crow = unsafe {
                    std::slice::from_raw_parts_mut(cbase.add((ic + ir + r) * ccols + jc + jr), nr)
                };
                if store {
                    for (cv, &av) in crow.iter_mut().zip(&acc[r][..nr]) {
                        *cv = alpha * av;
                    }
                } else {
                    for (cv, &av) in crow.iter_mut().zip(&acc[r][..nr]) {
                        *cv += alpha * av;
                    }
                }
            }
        }
    }
}

/// Which micro-kernel implementation the host runs. Selected once per
/// process, so the accumulation arithmetic is fixed for every call; the
/// two fused variants produce bit-identical results (both use exactly
/// rounded fused multiply-adds in the same order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroKernel {
    /// 256-bit fused multiply-add tiles.
    #[cfg(target_arch = "x86_64")]
    Fma,
    /// Portable scalar-tiled kernel (separate multiply and add).
    Reference,
}

/// Dispatches one `MR × NR` tile to the selected kernel.
#[inline]
fn run_micro_kernel(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR], kernel: MicroKernel) {
    match kernel {
        // SAFETY: the variant is only constructed when AVX2+FMA were
        // detected at runtime (see `select_micro_kernel`).
        #[cfg(target_arch = "x86_64")]
        MicroKernel::Fma => unsafe { micro_kernel_fma(ap, bp, acc) },
        MicroKernel::Reference => micro_kernel_ref(ap, bp, acc),
    }
}

/// Portable micro-kernel: `MR × NR` independent accumulator chains, one
/// multiply-add per packed element pair. The `NR`-wide inner loop has no
/// cross-lane dependencies, so it auto-vectorizes on any SIMD width.
#[inline]
fn micro_kernel_ref(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (accr, &a) in acc.iter_mut().zip(av) {
            for (cv, &b) in accr.iter_mut().zip(bv) {
                *cv += a * b;
            }
        }
    }
}

/// AVX2+FMA micro-kernel: the same arithmetic as [`micro_kernel_ref`] with
/// exactly rounded fused multiply-adds, written with explicit 256-bit
/// intrinsics — each tile row is two `ymm` accumulators, so every packed
/// `A` element costs one broadcast and two FMAs. (The autovectorizer
/// leaves the equivalent safe loop as 32 scalar FMAs, which measured ~2×
/// slower.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_fma(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    use core::arch::x86_64::*;
    const { assert!(NR == 8, "kernel is written for 8-wide (two ymm) tiles") };
    // SAFETY: the packed panels hold `kc` complete `MR`/`NR` chunks and
    // each acc row is exactly NR = 8 doubles (two ymm registers).
    unsafe {
        let mut c: [[__m256d; 2]; MR] = [[_mm256_setzero_pd(); 2]; MR];
        for (cr, accr) in c.iter_mut().zip(acc.iter()) {
            cr[0] = _mm256_loadu_pd(accr.as_ptr());
            cr[1] = _mm256_loadu_pd(accr.as_ptr().add(4));
        }
        let kc = bp.len() / NR;
        for p in 0..kc {
            let b0 = _mm256_loadu_pd(bp.as_ptr().add(p * NR));
            let b1 = _mm256_loadu_pd(bp.as_ptr().add(p * NR + 4));
            let a = ap.as_ptr().add(p * MR);
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.add(r));
                cr[0] = _mm256_fmadd_pd(av, b0, cr[0]);
                cr[1] = _mm256_fmadd_pd(av, b1, cr[1]);
            }
        }
        for (cr, accr) in c.iter().zip(acc.iter_mut()) {
            _mm256_storeu_pd(accr.as_mut_ptr(), cr[0]);
            _mm256_storeu_pd(accr.as_mut_ptr().add(4), cr[1]);
        }
    }
}

/// Full-tile FMA micro-kernel writing `α`-scaled results directly into
/// `C` (`dst` = `&mut c[i0][j0]`, rows `row_stride` apart): accumulates in
/// registers from zero and skips the stack-buffer round trip of the
/// buffered path. Same multiplies/adds in the same order, so the output
/// bits match the buffered FMA path exactly.
///
/// # Safety
///
/// Requires AVX2+FMA, `MR` full rows of `NR` elements at `dst`, and packed
/// panels holding complete `MR`/`NR` chunks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_fma_direct(
    ap: &[f64],
    bp: &[f64],
    dst: *mut f64,
    row_stride: usize,
    alpha: f64,
    store: bool,
) {
    use core::arch::x86_64::*;
    const { assert!(NR == 8, "kernel is written for 8-wide (two ymm) tiles") };
    unsafe {
        let mut c: [[__m256d; 2]; MR] = [[_mm256_setzero_pd(); 2]; MR];
        let kc = bp.len() / NR;
        for p in 0..kc {
            let b0 = _mm256_loadu_pd(bp.as_ptr().add(p * NR));
            let b1 = _mm256_loadu_pd(bp.as_ptr().add(p * NR + 4));
            let a = ap.as_ptr().add(p * MR);
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.add(r));
                cr[0] = _mm256_fmadd_pd(av, b0, cr[0]);
                cr[1] = _mm256_fmadd_pd(av, b1, cr[1]);
            }
        }
        let va = _mm256_set1_pd(alpha);
        for (r, cr) in c.iter().enumerate() {
            let row = dst.add(r * row_stride);
            let lo = _mm256_mul_pd(va, cr[0]);
            let hi = _mm256_mul_pd(va, cr[1]);
            if store {
                _mm256_storeu_pd(row, lo);
                _mm256_storeu_pd(row.add(4), hi);
            } else {
                _mm256_storeu_pd(row, _mm256_add_pd(_mm256_loadu_pd(row), lo));
                _mm256_storeu_pd(row.add(4), _mm256_add_pd(_mm256_loadu_pd(row.add(4)), hi));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn select_micro_kernel() -> MicroKernel {
    use std::sync::OnceLock;
    static SELECTED: OnceLock<MicroKernel> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            MicroKernel::Fma
        } else {
            MicroKernel::Reference
        }
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn select_micro_kernel() -> MicroKernel {
    MicroKernel::Reference
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        Matrix::from_fn(rows, cols, f)
    }

    fn assert_close(c1: &Matrix, c2: &Matrix, tol: f64) {
        assert_eq!((c1.rows(), c1.cols()), (c2.rows(), c2.cols()));
        for (x, y) in c1.as_slice().iter().zip(c2.as_slice()) {
            let scale = 1.0f64.max(y.abs());
            assert!((x - y).abs() <= tol * scale, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_across_panel_boundaries() {
        // m spans two MC panels, k spans two KC panels, edges not multiples
        // of MR/NR — every padding path is exercised.
        let (m, n, k) = (MC + 3, NR * 2 + 5, KC + 7);
        let a = filled(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.37 - 3.0);
        let b = filled(k, n, |i, j| ((i * 13 + j * 29) % 19) as f64 * 0.23 - 1.5);
        let mut ws = GemmWorkspace::new();
        let mut c_blocked = Matrix::default();
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c_blocked,
            &mut ws,
        );
        let mut c_naive = Matrix::default();
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c_naive,
        );
        assert_close(&c_blocked, &c_naive, 1e-12);
    }

    #[test]
    fn all_op_combinations_agree_with_naive() {
        let (m, n, k) = (37, 26, 41); // above the cutoff: 37·26·41 ≈ 39k
        let mut ws = GemmWorkspace::new();
        for op_a in [GemmOp::NoTrans, GemmOp::Trans] {
            for op_b in [GemmOp::NoTrans, GemmOp::Trans] {
                let a = match op_a {
                    GemmOp::NoTrans => filled(m, k, |i, j| (i as f64 - 2.0 * j as f64).sin()),
                    GemmOp::Trans => filled(k, m, |i, j| (i as f64 - 2.0 * j as f64).sin()),
                };
                let b = match op_b {
                    GemmOp::NoTrans => filled(k, n, |i, j| (0.3 * i as f64 + j as f64).cos()),
                    GemmOp::Trans => filled(n, k, |i, j| (0.3 * i as f64 + j as f64).cos()),
                };
                let mut c1 = Matrix::default();
                gemm(op_a, op_b, 1.3, &a, &b, 0.0, &mut c1, &mut ws);
                let mut c2 = Matrix::default();
                gemm_naive(op_a, op_b, 1.3, &a, &b, 0.0, &mut c2);
                assert_close(&c1, &c2, 1e-12);
            }
        }
    }

    #[test]
    fn beta_accumulates_into_existing_output() {
        let (m, n, k) = (20, 24, 32); // 15k > cutoff
        let a = filled(m, k, |i, j| (i + j) as f64 * 0.1);
        let b = filled(k, n, |i, j| (i as f64 - j as f64) * 0.2);
        let c0 = filled(m, n, |i, j| (i * n + j) as f64 * 0.01);
        let mut ws = GemmWorkspace::new();
        let mut c1 = c0.clone();
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            2.0,
            &a,
            &b,
            0.5,
            &mut c1,
            &mut ws,
        );
        let mut c2 = c0.clone();
        gemm_naive(GemmOp::NoTrans, GemmOp::NoTrans, 2.0, &a, &b, 0.5, &mut c2);
        assert_close(&c1, &c2, 1e-12);
    }

    #[test]
    fn matches_matrix_matmul_reference() {
        let a = filled(30, 22, |i, j| ((i * 7 + j) % 13) as f64 - 6.0);
        let b = filled(22, 31, |i, j| ((i + 5 * j) % 11) as f64 - 5.0);
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::default();
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
        );
        assert_close(&c, &a.matmul(&b), 1e-12);
    }

    #[test]
    fn epilogue_sees_every_element_once() {
        struct Count {
            hits: Matrix,
        }
        impl Epilogue for Count {
            fn apply(&mut self, row: usize, col0: usize, seg: &mut [f64]) {
                for (j, _) in seg.iter().enumerate() {
                    self.hits[(row, col0 + j)] += 1.0;
                }
            }
        }
        for (m, n, k) in [(3, 4, 5), (33, 29, 17)] {
            let a = filled(m, k, |i, j| (i + j) as f64);
            let b = filled(k, n, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0));
            let mut ws = GemmWorkspace::new();
            let mut c = Matrix::default();
            let mut epi = Count {
                hits: Matrix::zeros(m, n),
            };
            gemm_with(
                GemmOp::NoTrans,
                GemmOp::NoTrans,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                &mut ws,
                &mut epi,
            );
            assert!(epi.hits.as_slice().iter().all(|&h| h == 1.0));
        }
    }

    #[test]
    fn workspace_reuse_across_shapes_is_sound() {
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::default();
        for (m, n, k) in [(40, 40, 40), (7, 9, 11), (130, 12, 260)] {
            let a = filled(m, k, |i, j| (i as f64 * 0.7 - j as f64 * 0.3).tanh());
            let b = filled(k, n, |i, j| ((i * j) as f64 * 0.05).sin());
            gemm(
                GemmOp::NoTrans,
                GemmOp::NoTrans,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                &mut ws,
            );
            let mut expect = Matrix::default();
            gemm_naive(
                GemmOp::NoTrans,
                GemmOp::NoTrans,
                1.0,
                &a,
                &b,
                0.0,
                &mut expect,
            );
            assert_close(&c, &expect, 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn rejects_mismatched_inner_dims() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2);
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::default();
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ws,
        );
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn rejects_wrong_output_shape_for_nonzero_beta() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 2);
        let mut ws = GemmWorkspace::new();
        let mut c = Matrix::zeros(1, 1);
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            1.0,
            &mut c,
            &mut ws,
        );
    }
}

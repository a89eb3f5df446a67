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
//! The loop nest follows the classic Goto/BLIS decomposition:
//!
//! - the output is processed in `NC`-wide column blocks;
//! - each column block accumulates over `KC`-deep panels of the inner
//!   dimension, and inside a panel over `MC`-tall row blocks;
//! - a register-tiled micro-kernel computes `MR × NR` output tiles, each
//!   from an `MR`-row micro-panel of `op(A)` and an `NR`-column
//!   micro-panel of `op(B)`.
//!
//! A micro-panel is a strided view (pointer, lane stride, depth stride),
//! so one kernel reads operands in place and packed panels alike. Which
//! operands are packed depends on the depth:
//!
//! - **`k ≤ KC` (one panel, every DNN-Opt training product).** `op(A)` is
//!   read in place under both ops: the kernel broadcasts it one element at
//!   a time, so any stride works. A `NoTrans` `op(B)` of at most 64 KiB
//!   is read in place too, since its columns are contiguous for the
//!   kernel's vector loads. Only a transposed `B` (the small `Wᵀ` of a
//!   layer's forward `x·Wᵀ`) or a larger one is packed, into
//!   [`GemmWorkspace::pack_b`], and a partial edge panel of either operand
//!   is packed zero-padded to full `MR`/`NR` width. On these shapes the
//!   Goto packing buys no reuse, only a copy.
//! - **`k > KC`.** Both operands are packed per panel, `op(B)`'s
//!   `KC × NC` slice into `pack_b` and each `MC × KC` block of `op(A)`
//!   into [`GemmWorkspace::pack_a`], which bounds the cache footprint of
//!   each pass.
//!
//! Either way the micro-kernel's inner loop is branch-free and holds no
//! transposition logic.
//!
//! # Micro-kernels
//!
//! The tile shape belongs to the micro-kernel: packing, the macro-kernel
//! and the loop nest are generic over a `TileKernel`'s
//! `MR`/`NR`, and each entry point picks the kernel once at its top. One
//! kernel is selected per process, the fastest the host supports:
//!
//! - **AVX-512F** — an `8 × 16` tile, 8 rows × 2 `zmm` accumulators;
//! - **AVX2+FMA** — a `4 × 8` tile, 4 rows × 2 `ymm` accumulators;
//! - **portable** — a `4 × 8` scalar-tiled tile with separate multiply
//!   and add, for every other host.
//!
//! A wider tile cannot be driven as smaller ones on a narrower ISA without
//! losing the register reuse that makes it fast, hence one shape per ISA.
//! Small products (`m·n·k ≤` [`GEMM_NAIVE_CUTOFF`]) skip the tiling
//! entirely and use the naive reference kernel, which is also exposed as
//! [`gemm_naive`] for differential testing.
//!
//! # Threading
//!
//! Every product runs serially on the calling thread. The workspace has
//! one parallel layer, the evaluation grid in `opt::parallel`, and it
//! already owns every core while candidates simulate. The DNN-Opt
//! training GEMMs between generations are ~128×48×40 products of a few
//! to tens of microseconds, too small to pay for a pool dispatch.
//!
//! # Determinism
//!
//! The blocking is fixed (compile-time `MC`/`KC`/`NC`) and every kernel
//! computes each output element as one chain: it starts from zero, adds
//! the products over `p` in order within each `KC` panel, and is then
//! `α`-scaled and stored or added. Whether an operand is read in place or
//! packed changes where the kernel loads it from, never that chain, so
//! both paths are bit-identical. The two FMA kernels round every step
//! of that chain exactly once, so they are bit-identical to each other
//! whatever their tile shape; only the portable kernel (separate multiply
//! and add) may differ in the final bits. The selection is constant for
//! the lifetime of the process, so repeated calls are bit-identical on a
//! given host.
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
    /// `MC × KC` panel of `op(A)` in `MR`-row micro-panels: the whole
    /// block for `k > KC`, else only a partial edge panel.
    pack_a: Vec<f64>,
    /// `KC × NC` panel of `op(B)` in `NR`-column micro-panels: the whole
    /// block when transposed or `k > KC`, else only a partial edge panel.
    pack_b: Vec<f64>,
}

impl GemmWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Row-panel height: rows of `op(A)` packed per inner block.
const MC: usize = 128;
/// Depth of one packed panel of the inner dimension.
const KC: usize = 256;
/// Column-block width of the outermost loop.
const NC: usize = 4096;

/// Largest `NoTrans` `B` (in elements, 64 KiB) that a single-panel product
/// reads in place. A bigger `B` is packed: its `NR`-column panels, reused
/// by every row tile, would otherwise be strided over many cache lines
/// that can alias in L1 (a 256×256×256 product measured ~7% slower in
/// place). Every DNN-Opt training `B` is at most 128×48.
const B_IN_PLACE_MAX: usize = 8192;

/// `m·n·k` at or below which [`gemm`] runs the naive reference kernel
/// instead of the blocked one (packing overhead dominates tiny products).
pub const GEMM_NAIVE_CUTOFF: usize = 4096;

/// `m·n·k` at or above which a blocked product opens a `gemm` telemetry
/// span, so traced training loops don't drown in micro-product events.
const GEMM_SPAN_MIN_WORK: usize = 65_536;

/// Runs `$body` with `$k` bound to the token of the process's micro-kernel
/// (see [`MicroKernel`]), so the loop nest it calls is monomorphized for
/// that kernel's tile shape and the choice is made once per product.
macro_rules! with_kernel {
    ($k:ident => $body:expr) => {
        match select_micro_kernel() {
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx512($k) => $body,
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx2($k) => $body,
            MicroKernel::Portable($k) => $body,
        }
    };
}

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
        with_kernel!(kernel => blocked_body(
            kernel,
            op_a,
            op_b,
            alpha,
            a,
            b,
            beta,
            c,
            ws,
            epilogue,
            (m, n, k)
        ));
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

/// True when a product of inner dimension `k` runs the packing-free
/// single-panel path: `op(A)` and a small `NoTrans` `op(B)` are read in
/// place and only partial edge tiles and any other `B` are packed. Deeper
/// products (`k > KC`) keep the Goto packing of both operands, whose
/// panels bound the cache footprint of each `KC` pass.
fn reads_in_place(k: usize) -> bool {
    #[cfg(test)]
    if tests::FORCE_PACKED.get() {
        return false;
    }
    k <= KC
}

/// The loop nest: `NC`-column blocks × `KC`-depth panels × `MC`-row
/// blocks, each operand read in place or packed into `ws` in `kernel`'s
/// tile layout (see [`reads_in_place`]) and merged through its
/// micro-kernel, then the fused epilogue once every element is final.
#[allow(clippy::too_many_arguments)]
fn blocked_body<K: TileKernel, E: Epilogue>(
    kernel: K,
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
    let _span = trace_product(m.saturating_mul(n).saturating_mul(k));
    scale_output(beta, c);
    let in_place = reads_in_place(k);
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

            let bop = operand_b::<K>(op_b, b, (jc, nc), (pc, kc), in_place, &mut ws.pack_b);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                let aop = operand_a::<K>(op_a, a, (ic, mc), (pc, kc), in_place, &mut ws.pack_a);
                // SAFETY: `cbase` addresses the whole `m × n` output, and
                // the `mc × nc` block at `(ic, jc)` lies inside it; `aop`
                // and `bop` cover that block's `kc`-deep panels and point
                // into `a`, `b` and the two distinct pack buffers, none of
                // which changes until the call returns.
                unsafe {
                    macro_kernel(
                        kernel,
                        alpha,
                        (mc, nc, kc),
                        aop,
                        bop,
                        cbase,
                        ccols,
                        ic,
                        jc,
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
/// once and reused across many products. The fast path for frozen
/// transposed weights (the forward `Wᵀ` of the DNN-Opt critic inside the
/// actor's training loop), which would otherwise be re-packed on every
/// call; a `NoTrans` single-panel operand is read in place by [`gemm`]
/// anyway.
///
/// The layout depends on the micro-kernel's tile width, so the pack
/// records the `NR` it was made with and [`gemm_prepacked_with`] checks it.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    data: Vec<f64>,
    k: usize,
    n: usize,
    nr: usize,
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
/// layout is identical to the per-call packing of [`gemm`] with the
/// process's micro-kernel, so prepacked products are bit-identical to
/// blocked on-the-fly ones.
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
    out.nr = with_kernel!(kernel => pack_single_panel(kernel, op_b, b, &mut out.data));
    out.k = k;
    out.n = n;
}

/// Packs the whole single-panel `op(B)` in `K`'s layout; returns its `NR`.
fn pack_single_panel<K: TileKernel>(
    _kernel: K,
    op_b: GemmOp,
    b: &Matrix,
    buf: &mut Vec<f64>,
) -> usize {
    let (k, n) = op_b.dims(b);
    operand_b::<K>(op_b, b, (0, n), (0, k), false, buf);
    K::NR
}

/// `C := α·op(A)·B + β·C` with a pre-packed right operand: identical
/// result bits to the blocked [`gemm`] on the same operands, minus the
/// per-call packing of `B`.
///
/// # Panics
///
/// Panics if the inner dimensions disagree, if `beta != 0.0` and `C`
/// has the wrong shape, or if `b` was packed for a different micro-kernel
/// tile width than the one this call runs.
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
    assert_eq!(ka, b.k, "inner dimensions must agree");
    prepare_output(beta, m, b.n, c);
    if m == 0 || b.n == 0 {
        return;
    }
    with_kernel!(kernel => prepacked_body(kernel, op_a, alpha, a, b, beta, c, ws, epilogue));
}

/// The loop nest of [`gemm_prepacked_with`]: the packed operand is a single
/// panel (`k ≤ KC`), so it is just the `MC`-row loop over the shared `B`
/// panel, with `op(A)` read in place as on the single-panel path of
/// [`gemm`].
#[allow(clippy::too_many_arguments)]
fn prepacked_body<K: TileKernel, E: Epilogue>(
    kernel: K,
    op_a: GemmOp,
    alpha: f64,
    a: &Matrix,
    b: &PackedB,
    beta: f64,
    c: &mut Matrix,
    ws: &mut GemmWorkspace,
    epilogue: &mut E,
) {
    assert_eq!(
        b.nr,
        K::NR,
        "PackedB was packed for a different micro-kernel tile width"
    );
    let (m, n, k) = (c.rows(), b.n, b.k);
    let _span = trace_product(m.saturating_mul(n).saturating_mul(k));
    scale_output(beta, c);
    let store = beta == 0.0;
    let in_place = reads_in_place(k);
    let bop = Operand::packed(&b.data);
    let ccols = c.cols();
    let cbase = c.as_mut_slice().as_mut_ptr();
    let mut ic = 0;
    while ic < m {
        let mc = MC.min(m - ic);
        let aop = operand_a::<K>(op_a, a, (ic, mc), (0, k), in_place, &mut ws.pack_a);
        // SAFETY: `cbase` addresses the whole `m × n` output, and the
        // `mc × n` block at row `ic` lies inside it; `aop` and `bop` cover
        // its `k`-deep panels (`b.nr == K::NR` was checked above) and
        // point into `a`, `ws.pack_a` and `b.data`, none of which changes
        // until the call returns.
        unsafe {
            macro_kernel(
                kernel,
                alpha,
                (mc, n, k),
                aop,
                bop,
                cbase,
                ccols,
                ic,
                0,
                store,
            );
        }
        ic += MC;
    }
    for i in 0..m {
        epilogue.apply(i, 0, c.row_mut(i));
    }
}

/// A micro-kernel's strided view of one micro-panel: lane `l` (a row of
/// `op(A)` or a column of `op(B)`) at depth `p` is `ptr[l·lane + p·depth]`.
/// A packed micro-panel is the stride pattern `(1, W)` for its tile width
/// `W`; an operand read in place keeps its own strides. `B` panels always
/// have `lane == 1`, because the kernels load a depth slice as vectors.
#[derive(Debug, Clone, Copy)]
struct Panel {
    ptr: *const f64,
    lane: usize,
    depth: usize,
}

/// Where the macro-kernel reads one operand's micro-panels from: the
/// first `full` `W`-lane tiles in place (tile `t` is `base` moved `t·W`
/// lanes on), every later tile from `packed`, a buffer of zero-padded
/// `kc`-deep `W`-lane panels. A fully packed operand has `full == 0`.
#[derive(Debug, Clone, Copy)]
struct Operand {
    base: Panel,
    full: usize,
    packed: *const f64,
}

impl Operand {
    /// An operand packed whole into `buf`.
    fn packed(buf: &[f64]) -> Self {
        Operand {
            base: Panel {
                ptr: buf.as_ptr(),
                lane: 1,
                depth: 0,
            },
            full: 0,
            packed: buf.as_ptr(),
        }
    }

    /// Micro-panel `t` of `w` lanes, `kc` deep.
    #[inline(always)]
    fn panel(&self, t: usize, w: usize, kc: usize) -> Panel {
        if t < self.full {
            Panel {
                ptr: self.base.ptr.wrapping_add(t * w * self.base.lane),
                ..self.base
            }
        } else {
            Panel {
                ptr: self.packed.wrapping_add((t - self.full) * kc * w),
                lane: 1,
                depth: w,
            }
        }
    }
}

// Packing and the macro-kernel are generic over the tile only; kept out of
// line so each exists once per tile shape rather than once per (tile,
// epilogue) loop nest, which holds code size and peak RSS near a
// single-kernel build at no measured end-to-end cost.

/// Prepares the `mc × kc` block of `op(A)` at `(ic, pc)` as `K::MR`-row
/// micro-panels. With `in_place`, full panels are read from `a` as they
/// are stored (rows of `op(A)` may be strided either way, since the kernel
/// broadcasts `A` one element at a time) and only a partial edge panel is
/// packed into `buf`; otherwise every panel is.
#[inline(never)]
fn operand_a<K: TileKernel>(
    op: GemmOp,
    a: &Matrix,
    rows: (usize, usize),
    depths: (usize, usize),
    in_place: bool,
    buf: &mut Vec<f64>,
) -> Operand {
    // A row of op(A) is a row of `a` unless transposed.
    let lanes_are_rows = op == GemmOp::NoTrans;
    operand(a, lanes_are_rows, K::MR, rows, depths, in_place, buf)
}

/// Prepares the `kc × nc` block of `op(B)` at `(pc, jc)` as `K::NR`-column
/// micro-panels. A `NoTrans` `B` of at most [`B_IN_PLACE_MAX`] elements
/// with `in_place` is read from `b` (its columns are contiguous, as the
/// kernels' vector loads need), and only a partial edge panel is packed;
/// a transposed or larger `B` is packed whole.
#[inline(never)]
fn operand_b<K: TileKernel>(
    op: GemmOp,
    b: &Matrix,
    cols: (usize, usize),
    depths: (usize, usize),
    in_place: bool,
    buf: &mut Vec<f64>,
) -> Operand {
    // A column of op(B) is a row of `b` only when transposed.
    let lanes_are_rows = op == GemmOp::Trans;
    operand(
        b,
        lanes_are_rows,
        K::NR,
        cols,
        depths,
        in_place && !lanes_are_rows && b.rows() * b.cols() <= B_IN_PLACE_MAX,
        buf,
    )
}

/// The operand preparation shared by `A` and `B`: the block of lanes
/// `lane0 .. lane0 + lanes` (rows of `op(A)` or columns of `op(B)`) at
/// depths `p0 .. p0 + kc`, in `w`-lane micro-panels. With `in_place`, the
/// full panels are views into `src` and only the partial edge panel is
/// packed; otherwise every panel is packed. Inlined so `w` is the tile's
/// constant.
#[inline(always)]
fn operand(
    src: &Matrix,
    lanes_are_rows: bool,
    w: usize,
    (lane0, lanes): (usize, usize),
    (p0, kc): (usize, usize),
    in_place: bool,
    buf: &mut Vec<f64>,
) -> Operand {
    let full = if in_place { lanes / w } else { 0 };
    pack_panels(
        src,
        lanes_are_rows,
        w,
        (lane0 + full * w, lanes - full * w),
        (p0, kc),
        buf,
    );
    let cols = src.cols();
    let (lane, depth, start) = if lanes_are_rows {
        (cols, 1, lane0 * cols + p0)
    } else {
        (1, cols, p0 * cols + lane0)
    };
    Operand {
        base: Panel {
            ptr: src.as_slice().as_ptr().wrapping_add(start),
            lane,
            depth,
        },
        full,
        packed: buf.as_ptr(),
    }
}

/// Packs lanes `lane0 .. lane0 + lanes` at depths `p0 .. p0 + kc` into
/// `w`-lane micro-panels, `buf[t·kc·w + p·w + l]` = lane `lane0 + t·w + l`
/// at depth `p0 + p`. A lane is a row of `src` when `lanes_are_rows` (a
/// transposing gather) and a column otherwise (one contiguous copy per
/// depth). Partial edge panels are zero-padded to full `w`. Inlined so
/// `w` is the tile's constant and full-width copies are fixed-size moves.
#[inline(always)]
fn pack_panels(
    src: &Matrix,
    lanes_are_rows: bool,
    w: usize,
    (lane0, lanes): (usize, usize),
    (p0, kc): (usize, usize),
    buf: &mut Vec<f64>,
) {
    let tiles = lanes.div_ceil(w);
    let need = tiles * kc * w;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for t in 0..tiles {
        // The buffer is reused across calls, so every element of the
        // panel, padding lanes included, is written here.
        let panel = &mut buf[t * kc * w..(t + 1) * kc * w];
        let l0 = lane0 + t * w;
        let width = w.min(lanes - t * w);
        if lanes_are_rows {
            if width < w {
                panel.fill(0.0);
            }
            for l in 0..width {
                let row = &src.row(l0 + l)[p0..p0 + kc];
                for (dst, &v) in panel[l..].iter_mut().step_by(w).zip(row) {
                    *dst = v;
                }
            }
        } else {
            for (p, chunk) in panel.chunks_exact_mut(w).enumerate() {
                let row = &src.row(p0 + p)[l0..l0 + width];
                if width == w {
                    chunk.copy_from_slice(row);
                } else {
                    chunk[..width].copy_from_slice(row);
                    chunk[width..].fill(0.0);
                }
            }
        }
    }
}

/// Elements in the largest register tile (`8 × 16`): the size of the
/// stack tile that partial edge tiles are computed into.
const TILE_MAX: usize = 128;

/// Runs `kernel` over every `MR × NR` tile of the `mc × nc` block and
/// merges `α`-scaled results into the output (`store` replaces instead of
/// accumulating — the first-panel fast path). Full tiles go straight from
/// registers into `C`; partial edge tiles (whose operand panels are
/// zero-padded packs) are computed into a stack tile and only their
/// in-bounds part is merged.
///
/// # Safety
///
/// `cbase` must point to the start of a row-major buffer of row length
/// `ccols` covering at least rows `ic..ic + mc` and columns
/// `jc..jc + nc`, with no concurrent access to that block from any other
/// thread. `a` must yield readable `K::MR`-lane panels `kc` deep for every
/// row tile of the block, and `b` readable `K::NR`-lane panels with
/// `lane == 1` for every column tile.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
unsafe fn macro_kernel<K: TileKernel>(
    kernel: K,
    alpha: f64,
    (mc, nc, kc): (usize, usize, usize),
    a: Operand,
    b: Operand,
    cbase: *mut f64,
    ccols: usize,
    ic: usize,
    jc: usize,
    store: bool,
) {
    const { assert!(K::MR * K::NR <= TILE_MAX && MC.is_multiple_of(K::MR) && NC.is_multiple_of(K::NR)) };
    let row_tiles = mc.div_ceil(K::MR);
    let col_tiles = nc.div_ceil(K::NR);
    for u in 0..col_tiles {
        let jr = u * K::NR;
        let nr = K::NR.min(nc - jr);
        let bp = b.panel(u, K::NR, kc);
        for t in 0..row_tiles {
            let ir = t * K::MR;
            let mr = K::MR.min(mc - ir);
            let ap = a.panel(t, K::MR, kc);
            if mr == K::MR && nr == K::NR {
                // SAFETY: rows ic+ir .. ic+ir+MR and columns jc+jr .. +NR
                // are in bounds (full tile) and exclusive to this call; both
                // panels are readable `kc` deep, per the caller.
                unsafe {
                    let dst = cbase.add((ic + ir) * ccols + jc + jr);
                    kernel.tile(ap, bp, kc, dst, ccols, alpha, store);
                }
                continue;
            }
            // Partial tile: α = 1 leaves each accumulated sum exactly as it
            // is (x·1 = x), so the merge below applies the same single
            // α-scale and store/add as the full-tile path.
            let mut acc = [0.0f64; TILE_MAX];
            // SAFETY: `acc` holds MR rows of NR doubles, NR apart, and both
            // panels are readable `kc` deep (the partial one is a padded
            // pack), per the caller.
            unsafe { kernel.tile(ap, bp, kc, acc.as_mut_ptr(), K::NR, 1.0, true) };
            for r in 0..mr {
                // SAFETY: row ic+ir+r, columns jc+jr .. +nr are inside the
                // caller-guaranteed exclusive block.
                let crow = unsafe {
                    std::slice::from_raw_parts_mut(cbase.add((ic + ir + r) * ccols + jc + jr), nr)
                };
                merge_row(crow, &acc[r * K::NR..r * K::NR + nr], alpha, store);
            }
        }
    }
}

/// `crow := α·acc` (`store`) or `crow += α·acc`, element-wise: the single
/// α-scale and merge applied to every finished accumulator.
#[inline]
fn merge_row(crow: &mut [f64], acc: &[f64], alpha: f64, store: bool) {
    if store {
        for (cv, &av) in crow.iter_mut().zip(acc) {
            *cv = alpha * av;
        }
    } else {
        for (cv, &av) in crow.iter_mut().zip(acc) {
            *cv += alpha * av;
        }
    }
}

/// A register-tiled micro-kernel. Its `MR × NR` output tile fixes the
/// packing layout (`MR`-row panels of `op(A)`, `NR`-column panels of
/// `op(B)`), and the loop nest is generic over it. A value of an
/// implementing type is a token that the host can execute the kernel's
/// instructions: tokens are only made by [`MicroKernel::supported`], after
/// runtime feature detection.
trait TileKernel: Copy {
    /// Tile height (rows of `C` per register tile).
    const MR: usize;
    /// Tile width (columns of `C` per register tile).
    const NR: usize;

    /// Computes one full `MR × NR` tile from the `kc`-deep panels `a`
    /// (`MR` lanes, broadcast one element at a time) and `b` (`NR`
    /// contiguous lanes): each element's products are accumulated from
    /// zero in `p` order, and the sum is `α`-scaled and stored (`store`)
    /// or added into `dst[r·row_stride + j]`.
    ///
    /// # Safety
    ///
    /// `a` must be readable at every `(lane < MR, depth < kc)` and `b` at
    /// every `(lane < NR, depth < kc)` with `b.lane == 1`; `dst` must
    /// address `MR` rows of `NR` writable doubles, `row_stride` apart,
    /// that nothing else accesses during the call.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile(
        self,
        a: Panel,
        b: Panel,
        kc: usize,
        dst: *mut f64,
        row_stride: usize,
        alpha: f64,
        store: bool,
    );
}

/// Which micro-kernel the host runs, holding that kernel's token.
/// Selected once per process (the first entry of
/// [`MicroKernel::supported`]), so the arithmetic is fixed for every call.
/// The two FMA kernels are bit-identical to each other whatever their tile
/// shapes, because each output element is the same chain of exactly
/// rounded fused multiply-adds; only the portable kernel may differ from
/// them in the final bits.
#[derive(Debug, Clone, Copy)]
enum MicroKernel {
    /// `8 × 16` tiles of 512-bit fused multiply-adds (AVX-512F).
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512Kernel),
    /// `4 × 8` tiles of 256-bit fused multiply-adds (AVX2+FMA).
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2Kernel),
    /// `4 × 8` scalar-tiled kernel (separate multiply and add).
    Portable(PortableKernel),
}

impl MicroKernel {
    /// Every kernel this host can run, fastest first; the last is always
    /// the portable kernel.
    fn supported() -> Vec<MicroKernel> {
        let mut kernels = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                kernels.push(MicroKernel::Avx512(Avx512Kernel(())));
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                kernels.push(MicroKernel::Avx2(Avx2Kernel(())));
            }
        }
        kernels.push(MicroKernel::Portable(PortableKernel));
        kernels
    }
}

/// The process's micro-kernel: the fastest one the host supports.
fn select_micro_kernel() -> MicroKernel {
    #[cfg(test)]
    if let Some(kernel) = tests::FORCED_KERNEL.get() {
        return kernel;
    }
    static SELECTED: std::sync::OnceLock<MicroKernel> = std::sync::OnceLock::new();
    *SELECTED.get_or_init(|| MicroKernel::supported()[0])
}

/// Token of the portable kernel: `MR × NR` independent accumulator chains,
/// one multiply-add per packed element pair. The `NR`-wide inner loop has
/// no cross-lane dependencies, so it auto-vectorizes on any SIMD width.
#[derive(Debug, Clone, Copy)]
struct PortableKernel;

impl TileKernel for PortableKernel {
    const MR: usize = 4;
    const NR: usize = 8;

    unsafe fn tile(
        self,
        a: Panel,
        b: Panel,
        kc: usize,
        dst: *mut f64,
        row_stride: usize,
        alpha: f64,
        store: bool,
    ) {
        let mut acc = [[0.0f64; Self::NR]; Self::MR];
        for p in 0..kc {
            // SAFETY: the caller guarantees both panels at depth p.
            let bv = unsafe { &*b.ptr.add(p * b.depth).cast::<[f64; Self::NR]>() };
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY: as above, lane r of `a`.
                let av = unsafe { *a.ptr.add(r * a.lane + p * a.depth) };
                for (cv, &bj) in accr.iter_mut().zip(bv) {
                    *cv += av * bj;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            // SAFETY: the caller guarantees row r of the tile at `dst`.
            let crow = unsafe { std::slice::from_raw_parts_mut(dst.add(r * row_stride), Self::NR) };
            merge_row(crow, accr, alpha, store);
        }
    }
}

/// Token of the AVX2+FMA kernel; constructed only after both features were
/// detected at runtime.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct Avx2Kernel(());

#[cfg(target_arch = "x86_64")]
impl TileKernel for Avx2Kernel {
    const MR: usize = 4;
    const NR: usize = 8;

    unsafe fn tile(
        self,
        a: Panel,
        b: Panel,
        kc: usize,
        dst: *mut f64,
        row_stride: usize,
        alpha: f64,
        store: bool,
    ) {
        // SAFETY: the token proves AVX2+FMA; the caller upholds the rest.
        unsafe { avx2_tile(a, b, kc, dst, row_stride, alpha, store) }
    }
}

/// The AVX2+FMA `4 × 8` tile in explicit 256-bit intrinsics: each tile row
/// is two `ymm` accumulators, so every `A` element costs one broadcast and
/// two FMAs. (The autovectorizer leaves the equivalent safe loop as 32
/// scalar FMAs, which measured ~2× slower.)
///
/// # Safety
///
/// Requires AVX2+FMA and the [`TileKernel::tile`] contract for a `4 × 8`
/// tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_tile(
    a: Panel,
    b: Panel,
    kc: usize,
    dst: *mut f64,
    row_stride: usize,
    alpha: f64,
    store: bool,
) {
    use core::arch::x86_64::*;
    const MR: usize = Avx2Kernel::MR;
    // SAFETY: both panels are readable `kc` deep and `dst` holds MR rows
    // of NR = 8 doubles (two ymm each), per the caller.
    unsafe {
        let mut c = [[_mm256_setzero_pd(); 2]; MR];
        let (mut ap, mut bp) = (a.ptr, b.ptr);
        for _ in 0..kc {
            let b0 = _mm256_loadu_pd(bp);
            let b1 = _mm256_loadu_pd(bp.add(4));
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*ap.add(r * a.lane));
                cr[0] = _mm256_fmadd_pd(av, b0, cr[0]);
                cr[1] = _mm256_fmadd_pd(av, b1, cr[1]);
            }
            // Past the last depth these may leave the operand, hence
            // wrapping (they are not read again).
            ap = ap.wrapping_add(a.depth);
            bp = bp.wrapping_add(b.depth);
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

/// Token of the AVX-512F kernel; constructed only after the feature was
/// detected at runtime.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct Avx512Kernel(());

#[cfg(target_arch = "x86_64")]
impl TileKernel for Avx512Kernel {
    const MR: usize = 8;
    const NR: usize = 16;

    unsafe fn tile(
        self,
        a: Panel,
        b: Panel,
        kc: usize,
        dst: *mut f64,
        row_stride: usize,
        alpha: f64,
        store: bool,
    ) {
        // SAFETY: the token proves AVX-512F; the caller upholds the rest.
        unsafe { avx512_tile(a, b, kc, dst, row_stride, alpha, store) }
    }
}

/// The AVX-512F `8 × 16` tile: each tile row is two `zmm` accumulators (16
/// of the 32 registers), so every `A` element costs one broadcast and two
/// 8-wide FMAs, and each loaded `B` row feeds twice the rows of the AVX2
/// tile.
///
/// # Safety
///
/// Requires AVX-512F and the [`TileKernel::tile`] contract for an
/// `8 × 16` tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_tile(
    a: Panel,
    b: Panel,
    kc: usize,
    dst: *mut f64,
    row_stride: usize,
    alpha: f64,
    store: bool,
) {
    use core::arch::x86_64::*;
    const MR: usize = Avx512Kernel::MR;
    // SAFETY: both panels are readable `kc` deep and `dst` holds MR rows
    // of NR = 16 doubles (two zmm each), per the caller.
    unsafe {
        let mut c = [[_mm512_setzero_pd(); 2]; MR];
        let (mut ap, mut bp) = (a.ptr, b.ptr);
        for _ in 0..kc {
            let b0 = _mm512_loadu_pd(bp);
            let b1 = _mm512_loadu_pd(bp.add(8));
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm512_set1_pd(*ap.add(r * a.lane));
                cr[0] = _mm512_fmadd_pd(av, b0, cr[0]);
                cr[1] = _mm512_fmadd_pd(av, b1, cr[1]);
            }
            // Past the last depth these may leave the operand, hence
            // wrapping (they are not read again).
            ap = ap.wrapping_add(a.depth);
            bp = bp.wrapping_add(b.depth);
        }
        let va = _mm512_set1_pd(alpha);
        for (r, cr) in c.iter().enumerate() {
            let row = dst.add(r * row_stride);
            let lo = _mm512_mul_pd(va, cr[0]);
            let hi = _mm512_mul_pd(va, cr[1]);
            if store {
                _mm512_storeu_pd(row, lo);
                _mm512_storeu_pd(row.add(8), hi);
            } else {
                _mm512_storeu_pd(row, _mm512_add_pd(_mm512_loadu_pd(row), lo));
                _mm512_storeu_pd(row.add(8), _mm512_add_pd(_mm512_loadu_pd(row.add(8)), hi));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Per-thread override of [`select_micro_kernel`], so one test can
        /// run every kernel the host supports on the same operands.
        pub(super) static FORCED_KERNEL: Cell<Option<MicroKernel>> = const { Cell::new(None) };
        /// Per-thread override of [`reads_in_place`]: packs every operand
        /// whatever `k`, so a test can compare the packing-free path with
        /// the fully packed one on the same operands.
        pub(super) static FORCE_PACKED: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with every GEMM on this thread using `kernel`.
    fn with_forced_kernel<R>(kernel: MicroKernel, f: impl FnOnce() -> R) -> R {
        FORCED_KERNEL.set(Some(kernel));
        let out = f();
        FORCED_KERNEL.set(None);
        out
    }

    /// `(name, MR, NR, fused multiply-add?)` of a kernel.
    fn describe(kernel: MicroKernel) -> (&'static str, usize, usize, bool) {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx512(_) => ("avx512f", Avx512Kernel::MR, Avx512Kernel::NR, true),
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx2(_) => ("avx2+fma", Avx2Kernel::MR, Avx2Kernel::NR, true),
            MicroKernel::Portable(_) => ("portable", PortableKernel::MR, PortableKernel::NR, false),
        }
    }

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
        // of any tile's MR/NR — every padding path is exercised.
        let (m, n, k) = (MC + 3, 37, KC + 7);
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

    /// Bias-add + tanh, the shape of the MLP forward epilogue.
    struct BiasTanh(Vec<f64>);

    impl Epilogue for BiasTanh {
        fn apply(&mut self, _row: usize, col0: usize, seg: &mut [f64]) {
            for (j, v) in seg.iter_mut().enumerate() {
                *v = (*v + self.0[col0 + j]).tanh();
            }
        }
    }

    /// Every product one kernel computes in [`cross_kernel_bit_identity`],
    /// in a fixed order: plain `gemm` over every op pair and β, then the
    /// fused epilogue, then prepacked `B` where it fits one panel.
    fn cross_kernel_products(
        kernel: MicroKernel,
        shapes: &[(usize, usize, usize)],
    ) -> (Vec<Matrix>, Vec<Matrix>) {
        let ops = [GemmOp::NoTrans, GemmOp::Trans];
        let mut ws = GemmWorkspace::new();
        let (mut got, mut reference) = (Vec::new(), Vec::new());
        for &(m, n, k) in shapes {
            let c0 = filled(m, n, |i, j| ((i * 5 + j * 3) as f64 * 0.11).cos());
            for op_a in ops {
                for op_b in ops {
                    let a = match op_a {
                        GemmOp::NoTrans => {
                            filled(m, k, |i, j| ((i * 7 + j * 13) as f64 * 0.1).sin())
                        }
                        GemmOp::Trans => filled(k, m, |i, j| ((i * 13 + j * 7) as f64 * 0.1).sin()),
                    };
                    let b = match op_b {
                        GemmOp::NoTrans => {
                            filled(k, n, |i, j| (0.3 * i as f64 - 0.7 * j as f64).cos())
                        }
                        GemmOp::Trans => {
                            filled(n, k, |i, j| (0.3 * j as f64 - 0.7 * i as f64).cos())
                        }
                    };
                    for beta in [0.0, 1.0, 0.5] {
                        let mut c = c0.clone();
                        with_forced_kernel(kernel, || {
                            gemm(op_a, op_b, 1.3, &a, &b, beta, &mut c, &mut ws)
                        });
                        let mut expect = c0.clone();
                        gemm_naive(op_a, op_b, 1.3, &a, &b, beta, &mut expect);
                        got.push(c);
                        reference.push(expect);
                    }
                    let bias: Vec<f64> = (0..n).map(|j| 0.01 * j as f64 - 0.2).collect();
                    let mut c = Matrix::default();
                    with_forced_kernel(kernel, || {
                        let mut epi = BiasTanh(bias.clone());
                        gemm_with(op_a, op_b, 0.7, &a, &b, 0.0, &mut c, &mut ws, &mut epi)
                    });
                    let mut expect = Matrix::default();
                    gemm_naive_with(
                        op_a,
                        op_b,
                        0.7,
                        &a,
                        &b,
                        0.0,
                        &mut expect,
                        &mut BiasTanh(bias),
                    );
                    got.push(c);
                    reference.push(expect);
                    if let Some(c) = with_forced_kernel(kernel, || {
                        let packed = PackedB::try_pack(op_b, &b)?;
                        let mut c = c0.clone();
                        gemm_prepacked_with(
                            op_a,
                            0.9,
                            &a,
                            &packed,
                            0.5,
                            &mut c,
                            &mut ws,
                            &mut NoEpilogue,
                        );
                        Some(c)
                    }) {
                        let mut expect = c0.clone();
                        gemm_naive(op_a, op_b, 0.9, &a, &b, 0.5, &mut expect);
                        got.push(c);
                        reference.push(expect);
                    }
                }
            }
        }
        (got, reference)
    }

    #[test]
    fn cross_kernel_bit_identity() {
        let shapes = [
            // The critic's forward, weight-gradient and propagation shapes.
            (128, 48, 40),
            (48, 40, 128),
            (128, 48, 30),
            (128, 13, 48),
            (13, 48, 128),
            (128, 48, 13),
            (48, 48, 128),
            // m and n not multiples of 4, 8 or 16.
            (13, 21, 37),
            (67, 45, 29),
            (130, 37, 19),
            // k > KC: two panels, the second accumulating.
            (37, 29, KC + 44),
            (9, 50, 2 * KC + 1),
        ];
        let kernels = MicroKernel::supported();
        let mut fma_result: Option<(&str, Vec<Matrix>)> = None;
        let mut covered = Vec::new();
        for &kernel in &kernels {
            let (name, mr, nr, fused) = describe(kernel);
            covered.push(format!("{name} {mr}x{nr}"));
            let (got, reference) = cross_kernel_products(kernel, &shapes);
            for (c, expect) in got.iter().zip(&reference) {
                assert_close(c, expect, 1e-12);
            }
            if !fused {
                continue;
            }
            match &fma_result {
                None => fma_result = Some((name, got)),
                Some((first, first_got)) => {
                    for (i, (x, y)) in got.iter().zip(first_got).enumerate() {
                        let (x, y) = (x.as_slice(), y.as_slice());
                        assert!(
                            x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
                            "{name} differs from {first} in product {i}"
                        );
                    }
                }
            }
        }
        println!("cross-kernel GEMM check covered: {}", covered.join(", "));
    }

    /// Operands of an `m × n × k` product, stored the way `op_a` and
    /// `op_b` read them.
    fn operands(op_a: GemmOp, op_b: GemmOp, (m, n, k): (usize, usize, usize)) -> (Matrix, Matrix) {
        let stored = |op, rows, cols| match op {
            GemmOp::NoTrans => (rows, cols),
            GemmOp::Trans => (cols, rows),
        };
        let ((ar, ac), (br, bc)) = (stored(op_a, m, k), stored(op_b, k, n));
        (
            filled(ar, ac, |i, j| ((i * 7 + j * 3) as f64 * 0.13).sin()),
            filled(br, bc, |i, j| (0.21 * i as f64 - 0.4 * j as f64).cos()),
        )
    }

    /// `α·op(A)·op(B) + β·C0` with every operand packed (`packed`) or on
    /// the packing-free single-panel path, through [`gemm`] or, with
    /// `prepacked_b` and an `op(B)` that fits one panel, through
    /// [`gemm_prepacked_with`].
    #[allow(clippy::too_many_arguments)]
    fn product_on_path(
        packed: bool,
        prepacked_b: bool,
        (op_a, op_b): (GemmOp, GemmOp),
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c0: &Matrix,
    ) -> Matrix {
        FORCE_PACKED.set(packed);
        let mut ws = GemmWorkspace::new();
        let mut c = c0.clone();
        match PackedB::try_pack(op_b, b).filter(|_| prepacked_b) {
            Some(pb) => {
                gemm_prepacked_with(op_a, alpha, a, &pb, beta, &mut c, &mut ws, &mut NoEpilogue)
            }
            None => gemm(op_a, op_b, alpha, a, b, beta, &mut c, &mut ws),
        }
        FORCE_PACKED.set(false);
        c
    }

    /// The packing-free single-panel path (operands read in place, only
    /// edge tiles and a transposed `B` packed) against packing every
    /// operand, under each kernel the host supports: every op pair, α, β,
    /// depths on both sides of `KC` and partial row and column tiles give
    /// bit-identical products, through [`gemm`] and the prepacked entry.
    #[test]
    fn direct_path_bit_identity() {
        let ops = [GemmOp::NoTrans, GemmOp::Trans];
        // Partial row and column tiles for every MR/NR, a row count
        // crossing MC, and one shape large enough to leave the naive
        // kernel at k = 1.
        let sizes = [(13, 21), (37, 40), (70, 61), (130, 13)];
        let mut covered = Vec::new();
        for kernel in MicroKernel::supported() {
            let (name, mr, nr, _) = describe(kernel);
            let mut compared = 0;
            for ((m, n), k) in sizes
                .into_iter()
                .flat_map(|s| [1, KC - 1, KC, KC + 1].map(|k| (s, k)))
            {
                for (op_a, op_b) in ops.into_iter().flat_map(|x| ops.map(|y| (x, y))) {
                    let (a, b) = operands(op_a, op_b, (m, n, k));
                    let c0 = filled(m, n, |i, j| ((i * 5 + j) as f64 * 0.17).cos());
                    for alpha in [1.0, -0.5] {
                        for (beta, prepacked_b) in [0.0, 1.0, 0.3]
                            .into_iter()
                            .flat_map(|x| [(x, false), (x, true)])
                        {
                            let [direct, packed] = [false, true].map(|packed| {
                                with_forced_kernel(kernel, || {
                                    product_on_path(
                                        packed,
                                        prepacked_b,
                                        (op_a, op_b),
                                        alpha,
                                        &a,
                                        &b,
                                        beta,
                                        &c0,
                                    )
                                })
                            });
                            assert!(
                                direct.as_slice().iter().zip(packed.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits()),
                                "{name}: direct and packed differ at {m}x{n}x{k} {op_a:?}/{op_b:?} \
                                 alpha={alpha} beta={beta} prepacked={prepacked_b}"
                            );
                            compared += 1;
                        }
                    }
                }
            }
            covered.push(format!(
                "{name} {mr}x{nr} direct≡packed ({compared} products)"
            ));
        }
        println!(
            "direct-vs-packed GEMM check covered: {}",
            covered.join(", ")
        );
    }

    #[test]
    fn prepacked_rejects_a_foreign_tile_width() {
        let kernels = MicroKernel::supported();
        let (first, last) = (kernels[0], kernels[kernels.len() - 1]);
        if describe(first).2 == describe(last).2 {
            println!(
                "skipped: every supported kernel has NR = {}",
                describe(first).2
            );
            return;
        }
        let a = filled(40, 30, |i, j| (i + j) as f64);
        let b = filled(30, 20, |i, j| i as f64 - j as f64);
        let packed = with_forced_kernel(first, || PackedB::try_pack(GemmOp::NoTrans, &b))
            .expect("one panel");
        let result = std::panic::catch_unwind(|| {
            let mut c = Matrix::default();
            with_forced_kernel(last, || {
                gemm_prepacked_with(
                    GemmOp::NoTrans,
                    1.0,
                    &a,
                    &packed,
                    0.0,
                    &mut c,
                    &mut GemmWorkspace::new(),
                    &mut NoEpilogue,
                )
            })
        });
        FORCED_KERNEL.set(None);
        assert!(
            result.is_err(),
            "a PackedB of another tile width must be refused"
        );
    }
}

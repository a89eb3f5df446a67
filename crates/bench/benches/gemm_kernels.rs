//! Criterion micro-benchmarks of the dense GEMM engine: the naive
//! reference triple loop vs the cache-blocked, register-tiled kernel on
//! the exact product shapes of the critic/actor training loop, plus a
//! multi-panel shape that exercises the MC/KC blocking.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use linalg::{gemm, gemm_naive, GemmOp, GemmWorkspace, Matrix};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One `(label, m, n, k, op_a, op_b)` row per benchmarked product shape:
/// the actor's elite-batch products, every product of one critic training
/// step at batch 128 (forward `x·Wᵀ` per layer, weight gradient `δᵀ·x` per
/// layer, delta propagation `δ·W` into each hidden layer), and a
/// panel-spanning square product.
type Shape = (&'static str, usize, usize, usize, GemmOp, GemmOp);

const SHAPES: [Shape; 10] = [
    ("10x48x20_nt", 10, 48, 20, GemmOp::NoTrans, GemmOp::Trans),
    ("48x48x10_tn", 48, 48, 10, GemmOp::Trans, GemmOp::NoTrans),
    ("128x48x40_nt", 128, 48, 40, GemmOp::NoTrans, GemmOp::Trans),
    ("128x13x48_nt", 128, 13, 48, GemmOp::NoTrans, GemmOp::Trans),
    ("13x48x128_tn", 13, 48, 128, GemmOp::Trans, GemmOp::NoTrans),
    ("48x48x128_tn", 48, 48, 128, GemmOp::Trans, GemmOp::NoTrans),
    ("48x40x128_tn", 48, 40, 128, GemmOp::Trans, GemmOp::NoTrans),
    (
        "128x48x13_nn",
        128,
        48,
        13,
        GemmOp::NoTrans,
        GemmOp::NoTrans,
    ),
    (
        "128x48x48_nn",
        128,
        48,
        48,
        GemmOp::NoTrans,
        GemmOp::NoTrans,
    ),
    (
        "160x160x160_nn",
        160,
        160,
        160,
        GemmOp::NoTrans,
        GemmOp::NoTrans,
    ),
];

fn operand(op: GemmOp, rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let (r, c) = match op {
        GemmOp::NoTrans => (rows, cols),
        GemmOp::Trans => (cols, rows),
    };
    Matrix::from_fn(r, c, |_, _| rng.gen::<f64>() - 0.5)
}

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    for (label, m, n, k, op_a, op_b) in SHAPES {
        let a = operand(op_a, m, k, &mut rng);
        let b = operand(op_b, k, n, &mut rng);
        c.bench_function(&format!("gemm_kernel_naive_{label}"), |bench| {
            let mut out = Matrix::default();
            bench.iter(|| {
                gemm_naive(op_a, op_b, 1.0, black_box(&a), black_box(&b), 0.0, &mut out);
                black_box(out.as_slice()[0])
            })
        });
        c.bench_function(&format!("gemm_kernel_blocked_{label}"), |bench| {
            let mut ws = GemmWorkspace::new();
            let mut out = Matrix::default();
            bench.iter(|| {
                gemm(
                    op_a,
                    op_b,
                    1.0,
                    black_box(&a),
                    black_box(&b),
                    0.0,
                    &mut out,
                    &mut ws,
                );
                black_box(out.as_slice()[0])
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm
}
criterion_main!(benches);

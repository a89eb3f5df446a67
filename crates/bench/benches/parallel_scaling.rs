//! Criterion benchmarks of the deterministic evaluation grid: the
//! candidate×corner×analysis population grid at 1/2/4/8 workers.
//!
//! The scheduler is static, so on a host with fewer cores than workers
//! the extra counts time the same arithmetic plus dispatch overhead; on a
//! multi-core host the same rows show the scaling. `repro baseline`
//! records the host's core count next to every row so the two regimes are
//! never confused.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opt::{parallel, Evaluator, Fom, SizingProblem};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The 16-candidate OTA population through the hierarchical
/// candidate×corner×analysis grid at fixed worker counts (same population
/// as the `population_eval_16_ota_*` baseline rows).
fn bench_population_grid(c: &mut Criterion) {
    let ota = circuits::FoldedCascodeOta::new();
    let fom = Fom::uniform(1.0, ota.num_constraints());
    let (lb, ub) = ota.bounds();
    let nominal = ota.nominal();
    let pop: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            let t = (i as f64 / 15.0 - 0.5) * 0.1;
            nominal
                .iter()
                .zip(lb.iter().zip(&ub))
                .map(|(&v, (&l, &u))| (v + t * (u - l)).clamp(l, u))
                .collect()
        })
        .collect();
    for threads in THREAD_COUNTS {
        c.bench_function(&format!("population_eval_16_ota_t{threads}"), |b| {
            parallel::set_max_threads(threads);
            b.iter(|| {
                let mut ev = Evaluator::new(&ota, &fom, pop.len());
                black_box(ev.evaluate_batch(&pop).len())
            });
            parallel::set_max_threads(0);
        });
    }
}

criterion_group!(benches, bench_population_grid);
criterion_main!(benches);

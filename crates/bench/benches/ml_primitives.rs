//! Criterion microbenchmarks: cost of the ML primitives NURD refits at
//! every checkpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nurd_ml::{
    GbtConfig, GradientBoosting, LogisticConfig, LogisticRegression, RegressionTree, SquaredLoss,
    TreeConfig,
};

fn training_set(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                .collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|row| 100.0 + 40.0 * row[0] + 25.0 * row[d / 2] * row[d - 1])
        .collect();
    (x, y)
}

fn bench_tree_fit(c: &mut Criterion) {
    // Single-tree construction cost (histogram growth) across the
    // training-set sizes NURD sees over a job's lifetime. This isolates
    // the split-finding algorithm itself (depth 6 to give the builder
    // real work below the root).
    let mut group = c.benchmark_group("tree_fit");
    for &n in &[100usize, 1000, 3000] {
        let (x, y) = training_set(n, 15);
        let grads: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; n];
        let config = TreeConfig {
            max_depth: 6,
            ..TreeConfig::default()
        };
        group.bench_function(BenchmarkId::new("histogram", n), |b| {
            b.iter(|| RegressionTree::fit(&x, &grads, &hess, &config).unwrap());
        });
    }
    group.finish();
}

fn bench_gbt_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("gbt_fit");
    for &n in &[100usize, 300] {
        let (x, y) = training_set(n, 15);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap());
        });
    }
    group.finish();
}

fn bench_gbt_predict(c: &mut Criterion) {
    let (x, y) = training_set(300, 15);
    let model = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap();
    c.bench_function("gbt_predict_300", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in &x {
                acc += model.predict(row);
            }
            acc
        });
    });
}

fn bench_logistic_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("logistic_fit");
    for &n in &[100usize, 300] {
        let (x, _) = training_set(n, 15);
        let labels: Vec<f64> = (0..n).map(|i| f64::from(u8::from(i % 3 == 0))).collect();
        let config = LogisticConfig {
            balanced: true,
            ..LogisticConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| LogisticRegression::fit(&x, &labels, &config).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tree_fit,
    bench_gbt_fit,
    bench_gbt_predict,
    bench_logistic_fit
);
criterion_main!(benches);

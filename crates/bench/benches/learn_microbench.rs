//! Criterion microbenchmarks of the training substrate: matmul kernels,
//! the Tea core-layer forward/backward, one full bench-1 training step and
//! its SGD update alone, synthetic digit generation, and the erf special
//! function.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tn_data::mnist_synth::{self, MnistSynthConfig};
use tn_learn::layer::LayerGrads;
use tn_learn::prelude::*;
use truenorth::testbench::{RunScale, TestBench};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let a = Init::Uniform { limit: 1.0 }.materialize(32, 256, 1);
    let b = Init::Uniform { limit: 1.0 }.materialize(256, 256, 2);
    group.bench_function("32x256_by_256x256", |bch| bch.iter(|| a.matmul(&b)));
    group.bench_function("transpose_lhs", |bch| {
        let x = Init::Uniform { limit: 1.0 }.materialize(32, 256, 3);
        let d = Init::Uniform { limit: 1.0 }.materialize(32, 256, 4);
        bch.iter(|| x.matmul_transpose_lhs(&d))
    });
    group.finish();
}

fn bench_tn_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("tn_core_layer");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3));
    // The Fig.-3 layer: 4 cores, 256 axons, 256 neurons each.
    let maps: Vec<Vec<usize>> = (0..4).map(|k| (k * 176..k * 176 + 256).collect()).collect();
    let layer = Layer::TnCore(TnCoreLayer::new(784, maps, 256, 7));
    let x = Init::Uniform { limit: 0.5 }
        .materialize(32, 784, 9)
        .map(f32::abs);
    group.bench_function("forward_batch32", |b| b.iter(|| layer.forward(&x)));
    group.bench_function("forward_backward_batch32", |b| {
        b.iter(|| {
            let cache = layer.forward(&x);
            let dz = cache.output.map(|z| z - 0.5);
            let mut grads = LayerGrads::zeros_like(&layer);
            layer.backward(&cache, &dz, &mut grads)
        })
    });
    group.finish();
}

/// One SGD step of bench 1 (4 cores × 256 axons × 256 neurons) at batch
/// 32 on its own synthetic digits: `loss_and_grads` + `Sgd::step`, the
/// unit of work that `learn.train_s` repeats.
fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3));
    let bench = TestBench::new(1, 77);
    let scale = RunScale {
        n_train: 32,
        n_test: 10,
        ..RunScale::tiny()
    };
    let data = bench.load_data(&scale, 77);
    let cfg = bench.train_config(bench.biasing_penalty(), 1, 77);
    let mut net = bench.arch.build().expect("bench 1 builds");
    let mut opt = Sgd::new(cfg.sgd, net.layers());
    let mut grads = net.zero_grads();
    group.bench_function("train_step_bench1", |b| {
        b.iter(|| {
            grads.iter_mut().for_each(LayerGrads::clear);
            let out = net.loss_and_grads(
                &data.train_x,
                &data.train_y,
                &cfg.penalty,
                cfg.score_scale,
                &mut grads,
            );
            opt.step(net.layers_mut(), &grads, 0);
            out.loss
        })
    });
    // The update alone: momentum and the clamped weight step over bench
    // 1's 4 × 65 536 weights, from one batch's gradients.
    grads.iter_mut().for_each(LayerGrads::clear);
    net.loss_and_grads(
        &data.train_x,
        &data.train_y,
        &cfg.penalty,
        cfg.score_scale,
        &mut grads,
    );
    group.bench_function("sgd_step_bench1", |b| {
        b.iter(|| opt.step(net.layers_mut(), &grads, 0))
    });
    group.finish();
}

/// Bench 1's default data set-up, 1200 training plus 300 test digits, as
/// one 1500-digit draw.
fn bench_data(c: &mut Criterion) {
    let mut group = c.benchmark_group("data");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let cfg = MnistSynthConfig::default();
    group.bench_function("mnist_generate_1500", |b| {
        b.iter(|| mnist_synth::generate(1500, 77, &cfg))
    });
    group.finish();
}

fn bench_erf(c: &mut Criterion) {
    let mut group = c.benchmark_group("special_functions");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1));
    group.bench_function("erf_4096", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for i in 0..4096 {
                acc += tn_learn::math::erf(i as f64 * 0.001 - 2.0);
            }
            acc
        })
    });
    group.finish();
}

fn bench_penalty(c: &mut Criterion) {
    let mut group = c.benchmark_group("penalty");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1));
    let w = Init::Uniform { limit: 1.0 }.materialize(256, 256, 5);
    let mut g = Matrix::zeros(256, 256);
    for (name, p) in [
        ("l1", Penalty::l1(1e-4)),
        ("biasing", Penalty::biasing(4e-4)),
    ] {
        group.bench_function(format!("{name}_grad_65536_weights"), |b| {
            b.iter(|| {
                g.clear();
                p.accumulate_gradient(&w, &mut g);
                g.sum()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_tn_layer,
    bench_train_step,
    bench_data,
    bench_erf,
    bench_penalty
);
criterion_main!(benches);

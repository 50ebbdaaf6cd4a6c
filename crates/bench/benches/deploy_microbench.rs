//! Criterion microbenchmarks of the deployment toolchain: connectivity
//! sampling + placement (the NSCS build), serving-set builds and worker
//! checkouts, frame simulation, and deviation extraction, all on the
//! paper's Fig.-3 four-core network.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tn_chip::nscs::{ConnectivityMode, Deployment, FrameInput};
use tn_chip::pack::PackedDeployment;
use tn_chip::prng::splitmix64;
use truenorth::arch::ArchSpec;
use truenorth::deploy::extract_spec;

fn fig3_spec() -> tn_chip::nscs::NetworkDeploySpec {
    let net = ArchSpec::test_bench(1, 42).build().expect("arch");
    extract_spec(&net).expect("spec")
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("deployment_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let spec = fig3_spec();
    for copies in [1usize, 4, 16] {
        group.bench_function(format!("{copies}_copies"), |b| {
            b.iter(|| Deployment::build(&spec, copies, 7).expect("deploy"))
        });
    }
    group.finish();
}

/// Serving-set cost: building the set a `tn-serve` runtime serves from
/// (`PackedDeployment::build`, what start-up and a rescale run)
/// over bench-1-shaped specs at 1 and 2 tenants and r1 / r4, and one
/// worker checkout — a clone of the built set.
fn bench_serving_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_set");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let specs = [fractional_bias_spec(42), fractional_bias_spec(43)];
    for tenants in [1usize, 2] {
        for replicas in [1usize, 4] {
            let build = || {
                PackedDeployment::build(
                    &specs[..tenants],
                    replicas,
                    7,
                    ConnectivityMode::IndependentPerCopy,
                    0,
                )
                .expect("serving set")
            };
            group.bench_function(format!("build_{tenants}t_r{replicas}"), |b| b.iter(build));
            let set = build();
            group.bench_function(format!("checkout_{tenants}t_r{replicas}"), |b| {
                b.iter(|| set.clone())
            });
        }
    }
    group.finish();
}

fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_frame");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let spec = fig3_spec();
    let inputs: Vec<f32> = (0..784).map(|i| ((i * 13) % 90) as f32 / 100.0).collect();
    for (copies, spf) in [(1usize, 1usize), (1, 4), (4, 1), (16, 4)] {
        let mut dep = Deployment::build(&spec, copies, 7).expect("deploy");
        let mut seed = 0u64;
        group.bench_function(format!("{copies}copies_{spf}spf"), |b| {
            b.iter(|| {
                seed = splitmix64(seed);
                dep.run_frame(&inputs, spf, seed)
            })
        });
    }
    group.finish();
}

/// The Fig.-3 spec of architecture seed `seed` with every bias
/// fractional. The untrained spec's biases are all 0, so its neurons never
/// draw; a trained model's neurons each make a fractional-leak draw every
/// tick, as these do.
fn fractional_bias_spec(seed: u64) -> tn_chip::nscs::NetworkDeploySpec {
    let net = ArchSpec::test_bench(1, seed).build().expect("arch");
    let mut spec = extract_spec(&net).expect("spec");
    for core in &mut spec.cores {
        for (n, b) in core.biases.iter_mut().enumerate() {
            *b = -0.9 + 0.4 * ((n * 7) % 10) as f32 / 10.0;
        }
    }
    spec
}

/// Served-model frames: `run_frames` on the fractional-bias spec at the
/// two serving shapes — one frame at r1 spf2 (the solo tick) and eight
/// frames at r4 spf8 (the lane engine) — plus one frame at r4 spf8, the
/// solo cost a lane-8 frame should not exceed. Each cell's time is per
/// call.
fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_frames_fractional_bias");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let spec = fractional_bias_spec(42);
    let inputs: Vec<f32> = (0..784).map(|i| ((i * 13) % 90) as f32 / 100.0).collect();
    for (copies, spf, batch) in [(1usize, 2usize, 1usize), (4, 8, 1), (4, 8, 8)] {
        let mut dep = Deployment::build(&spec, copies, 7).expect("deploy");
        let mut seed = 0u64;
        group.bench_function(format!("r{copies}_spf{spf}_batch{batch}"), |b| {
            b.iter(|| {
                let frames: Vec<FrameInput> = (0..batch)
                    .map(|_| {
                        seed = splitmix64(seed);
                        FrameInput::new(&inputs, spf, seed)
                    })
                    .collect();
                dep.run_frames(&frames)
            })
        });
    }
    group.finish();
}

fn bench_deviation(c: &mut Criterion) {
    let mut group = c.benchmark_group("deviation_map");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let spec = fig3_spec();
    let dep = Deployment::build(&spec, 1, 7).expect("deploy");
    group.bench_function("one_core_65536_synapses", |b| {
        b.iter(|| dep.deviation_map(&spec, 0, 0))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_serving_set,
    bench_frame,
    bench_frames,
    bench_deviation
);
criterion_main!(benches);

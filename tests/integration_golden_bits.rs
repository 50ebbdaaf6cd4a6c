//! Golden-bits gate for the training hot path.
//!
//! Training is a pure function of its seed: the same bench, data and seed
//! must give the same trained weights and biases, bit for bit, on every
//! build of this crate. These tests pin an FNV-1a digest of every trained
//! parameter. The digests were recorded before the `tn-learn` kernels were
//! rewritten for speed; a kernel change that reorders a sum, contracts a
//! multiply-add or otherwise moves one bit fails here.
//!
//! Bench 1 (one TrueNorth layer, biasing penalty in phase 2) covers the
//! forward pass, the weight/bias gradients and Eq. 16's penalty. Bench 5
//! (two layers) additionally covers layer 1's input gradient, which
//! back-propagates into layer 0. `scripts/verify.sh` also runs this suite
//! in release mode, whose codegen differs from the debug test build.
//!
//! A layer's cores train in parallel on `tn-learn`'s thread pool, and a
//! trainer that finds the pool busy runs its cores inline; the concurrent
//! test pins both paths to the same digests.
//!
//! The training data is pinned on its own as well: the synthetic digits
//! are drawn serially and rendered in parallel, and a renderer change that
//! moves a pixel fails the data digests here before it shows up as moved
//! weights. So is deployment sampling, whose per-block Bernoulli draws run
//! in parallel too.

use tn_data::mnist_synth::{self, MnistSynthConfig};
use tn_learn::layer::Layer;
use truenorth::prelude::*;

/// FNV-1a (64-bit) over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the bits of every trained weight, then bias, core by core
/// and layer by layer.
fn digest(net: &Network) -> u64 {
    let mut h = Fnv::new();
    let mut eat = |v: f32| h.eat(&v.to_bits().to_le_bytes());
    for layer in net.layers() {
        match layer {
            Layer::TnCore(t) => {
                for core in &t.cores {
                    core.weights.as_slice().iter().for_each(|&w| eat(w));
                    core.bias.iter().for_each(|&b| eat(b));
                }
            }
            Layer::Dense(d) => {
                d.weights.as_slice().iter().for_each(|&w| eat(w));
                d.bias.iter().for_each(|&b| eat(b));
            }
        }
    }
    h.0
}

fn trained_digest(id: usize, scale: RunScale, penalty: Penalty, seed: u64) -> u64 {
    let bench = TestBench::new(id, seed);
    let data = bench.load_data(&scale, seed);
    let (net, _) = bench
        .train(&data, penalty, scale.epochs, seed)
        .expect("training");
    digest(&net)
}

const BENCH1_DIGEST: u64 = 0x931b_976b_696b_a007;
const BENCH5_DIGEST: u64 = 0xb86d_1e5a_6679_bab1;

fn bench1_digest() -> u64 {
    let scale = RunScale {
        n_train: 300,
        n_test: 10,
        epochs: 3,
        seeds: 1,
        threads: 1,
    };
    let penalty = TestBench::new(1, 77).biasing_penalty();
    trained_digest(1, scale, penalty, 77)
}

fn bench5_digest() -> u64 {
    let scale = RunScale {
        n_train: 200,
        n_test: 10,
        epochs: 2,
        seeds: 1,
        threads: 1,
    };
    trained_digest(5, scale, Penalty::None, 5)
}

const TRAIN_DATA_DIGEST: u64 = 0xe1b3_b8de_b9f1_17ba;
const TEST_DATA_DIGEST: u64 = 0x3bc6_ff1e_47f4_d82f;

/// FNV-1a over every pixel's bits, then every label, of the synthetic
/// digits bench 1 trains on at seed 77.
fn data_digest(n: usize, seed: u64) -> u64 {
    let ds = mnist_synth::generate(n, seed, &MnistSynthConfig::default());
    let mut h = Fnv::new();
    ds.features()
        .iter()
        .for_each(|v| h.eat(&v.to_bits().to_le_bytes()));
    ds.labels()
        .iter()
        .for_each(|&l| h.eat(&(l as u64).to_le_bytes()));
    h.0
}

/// `serve_smoke`'s and perfbench's training split (1200 digits at
/// seed 77) and the test split drawn from its seed (`TestBench::load_data`
/// offsets the seed by `0x7E57`).
#[test]
fn synthetic_digit_bits_are_pinned() {
    let train = data_digest(1200, 77);
    assert_eq!(
        train, TRAIN_DATA_DIGEST,
        "training digits moved: digest {train:#018x}"
    );
    let test = data_digest(300, 77_u64.wrapping_add(0x7E57));
    assert_eq!(
        test, TEST_DATA_DIGEST,
        "test digits moved: digest {test:#018x}"
    );
}

const DEPLOYMENT_SAMPLE_DIGEST: u64 = 0xc0b0_e5f5_5742_e2d9;

/// Deployment sampling draws each (copy, core) block from its own RNG and
/// samples the blocks in parallel: FNV-1a over every synapse's
/// (connected, sign-flipped) pair of a 4-copy deployment of untrained
/// bench 1, whose weights spread over `[−1, 1]`, so nearly every synapse
/// is a live Bernoulli draw.
#[test]
fn deployment_sample_bits_are_pinned() {
    let net = TestBench::new(1, 77).arch.build().expect("bench 1 builds");
    let spec = truenorth::deploy::extract_spec(&net).expect("bench 1 extracts");
    let dep = Deployment::build(&spec, 4, 77).expect("bench 1 deploys");
    let mut h = Fnv::new();
    for handle in 0..dep.core_count() {
        let core = dep.chip().core(handle).expect("placed core");
        for a in 0..256 {
            for n in 0..256 {
                let on = u8::from(core.crossbar().get(a, n));
                h.eat(&[on | u8::from(core.sign_flip(a, n)) << 1]);
            }
        }
    }
    assert_eq!(
        h.0, DEPLOYMENT_SAMPLE_DIGEST,
        "sampled connectivity moved: digest {:#018x}",
        h.0
    );
}

#[test]
fn bench1_biased_training_bits_are_pinned() {
    let got = bench1_digest();
    assert_eq!(
        got, BENCH1_DIGEST,
        "bench 1 trained bits moved: digest {got:#018x}"
    );
}

#[test]
fn bench5_two_layer_training_bits_are_pinned() {
    let got = bench5_digest();
    assert_eq!(
        got, BENCH5_DIGEST,
        "bench 5 trained bits moved: digest {got:#018x}"
    );
}

/// Two trainers at once: whichever holds the pool spreads its cores over
/// the helpers while the other runs inline, regions interleave for the
/// whole run, and both still land on their pinned digests.
#[test]
fn concurrent_trainers_keep_their_pinned_bits() {
    let start = std::sync::Barrier::new(2);
    let (got1, got5) = std::thread::scope(|s| {
        let t1 = s.spawn(|| {
            start.wait();
            bench1_digest()
        });
        let t5 = s.spawn(|| {
            start.wait();
            bench5_digest()
        });
        (
            t1.join().expect("bench 1 trainer"),
            t5.join().expect("bench 5 trainer"),
        )
    });
    assert_eq!(
        got1, BENCH1_DIGEST,
        "bench 1 trained bits moved: digest {got1:#018x}"
    );
    assert_eq!(
        got5, BENCH5_DIGEST,
        "bench 5 trained bits moved: digest {got5:#018x}"
    );
}

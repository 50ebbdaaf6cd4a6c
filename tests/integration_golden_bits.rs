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

use tn_learn::layer::Layer;
use truenorth::prelude::*;

/// FNV-1a (64-bit) over the little-endian bits of every trained weight,
/// then bias, core by core and layer by layer.
fn digest(net: &Network) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f32| {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
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
    h
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

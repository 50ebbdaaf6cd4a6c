//! Extension experiment: end-to-end validation of Eq. (11).
//!
//! The whole Tea-learning premise is that the trained activation
//! `z = Φ((µ+½)/σ)` predicts each deployed neuron's empirical firing rate.
//! This bin deploys the first core of a trained model with *every* neuron
//! tapped, replays frames with independent sampling each frame (runtime
//! stochastic mode), and compares predicted vs observed firing per neuron.

use tn_bench::{banner, compare, save_csv, BASE_SEED};
use tn_chip::nscs::{ConnectivityMode, Deployment, NetworkDeploySpec};
use truenorth::experiment::train_model;
use truenorth::prelude::*;
use truenorth::report::CsvTable;

fn main() {
    let scale = banner(
        "Extension — CLT validation of Eq. (11)",
        "Eq. 10-11: P(y' ≥ 0) ≈ Φ(µ/σ) per neuron",
    );
    let bench = TestBench::new(1, BASE_SEED);
    let data = bench.load_data(&scale, BASE_SEED);
    let model = train_model(&bench, &data, Penalty::None, &scale, BASE_SEED).expect("train");

    // Isolated copy of core 0 with every neuron tapped to its own channel.
    let core0 = model.spec.cores[0].clone();
    let n = core0.n_neurons;
    let probe_spec = NetworkDeploySpec {
        cores: vec![core0],
        n_inputs: model.spec.n_inputs,
        n_classes: n,
        output_taps: (0..n).map(|j| (0, j, j)).collect(),
    };
    probe_spec.validate().expect("probe spec");

    // Predicted firing: float forward of layer 0, columns 0..n.
    let frames = 200.min(data.test_y.len());
    let layer = &model.network.layers()[0];
    let x = {
        let mut m = tn_learn::matrix::Matrix::zeros(frames, data.test_x.cols());
        for i in 0..frames {
            m.row_mut(i).copy_from_slice(data.test_x.row(i));
        }
        m
    };
    let predicted = layer.forward(&x).output; // frames × out_dim

    // Observed firing: runtime stochastic mode redraws synapses per
    // event, so averaging over repeats measures the true P(y' ≥ 0).
    let repeats = 32usize;
    let mut dep =
        Deployment::build_with_mode(&probe_spec, 1, 7, ConnectivityMode::RuntimeStochastic)
            .expect("deploy");
    let mut sum_abs = 0.0f64;
    let mut count = 0usize;
    let mut csv = CsvTable::new(vec!["frame", "neuron", "predicted", "observed"]);
    for i in 0..frames {
        let mut counts = vec![0u64; n];
        for r in 0..repeats {
            let votes = dep.run_frame(x.row(i), 1, (i * repeats + r) as u64);
            for (j, c) in counts.iter_mut().enumerate() {
                *c += votes[0][j];
            }
        }
        for j in 0..n {
            let observed = counts[j] as f64 / repeats as f64;
            let pred = predicted[(i, j)] as f64;
            sum_abs += (observed - pred).abs();
            count += 1;
            if i < 3 && j < 8 {
                csv.push_row(vec![
                    i.to_string(),
                    j.to_string(),
                    format!("{pred:.4}"),
                    format!("{observed:.4}"),
                ]);
            }
        }
    }
    let mae = sum_abs / count as f64;
    compare(
        "mean |predicted − observed| firing",
        "≈0 (CLT holds)",
        &format!("{mae:.4}"),
    );
    compare(
        "neurons × frames validated",
        "-",
        &format!("{n} x {frames}"),
    );
    assert!(
        mae < 0.1,
        "Eq. 11 should predict firing to within 10%: {mae}"
    );
    save_csv(&csv, "ext_clt_validation");
}

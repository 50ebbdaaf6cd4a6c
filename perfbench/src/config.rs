//! The workload table, read from `workloads.json` (compiled in): rates,
//! latency limits, accuracy floors, the predicted dominant layer and the
//! layer → end-to-end mapping of every workload.

use tn_telemetry::json::{self, JsonValue};

const TABLE: &str = include_str!("../workloads.json");

/// One workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub why: String,
    /// Offered rate of the light phase (rung 0 of the knee ladder).
    pub light_rps: f64,
    /// The heavy phase sits `heavy_steps` rungs up the ladder.
    pub heavy_steps: usize,
    /// The ladder stops at the first rung at or above this rate.
    pub ladder_top_rps: f64,
    /// p99 latency limit of the knee search, milliseconds.
    pub latency_limit_ms: f64,
    /// `accuracy` below this fails the correctness check.
    pub accuracy_floor: f64,
    /// The layer predicted to carry the most self time.
    pub dominant_layer: String,
}

/// The shared settings plus every workload.
#[derive(Debug, Clone)]
pub struct Table {
    pub nproc: usize,
    pub n_train: usize,
    pub n_test: usize,
    pub epochs: usize,
    pub train_seed: u64,
    pub serve_seed: u64,
    pub queue_capacity: usize,
    pub batch_max: usize,
    pub kernel_batch: usize,
    pub ladder_step: f64,
    /// Fewest requests in one knee probe (a p99 needs 1000).
    pub probe_requests: usize,
    /// Fewest requests in one light or heavy round.
    pub round_requests: usize,
    pub replay_frames: usize,
    pub workloads: Vec<Workload>,
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("workloads.json: missing number {key:?}"))
}

fn text(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("workloads.json: missing string {key:?}"))
        .to_string()
}

impl Table {
    /// Parse the compiled-in table. Panics on a malformed table: it is
    /// part of the benchmark's source, not user input.
    pub fn load() -> Self {
        let root = json::parse(TABLE).expect("workloads.json is valid JSON");
        let train = root.get("train").expect("workloads.json: train");
        let serve = root.get("serve").expect("workloads.json: serve");
        let workloads = root
            .get("workloads")
            .and_then(JsonValue::as_object)
            .expect("workloads.json: workloads")
            .iter()
            .map(|(name, w)| Workload {
                name: name.clone(),
                why: text(w, "why"),
                light_rps: num(w, "light_rps"),
                heavy_steps: num(w, "heavy_steps") as usize,
                ladder_top_rps: num(w, "ladder_top_rps"),
                latency_limit_ms: num(w, "latency_limit_ms"),
                accuracy_floor: num(w, "accuracy_floor"),
                dominant_layer: text(w, "dominant_layer"),
            })
            .collect();
        Self {
            nproc: num(&root, "nproc") as usize,
            n_train: num(train, "n_train") as usize,
            n_test: num(train, "n_test") as usize,
            epochs: num(train, "epochs") as usize,
            train_seed: num(train, "seed") as u64,
            serve_seed: num(serve, "seed") as u64,
            queue_capacity: num(serve, "queue_capacity") as usize,
            batch_max: num(serve, "batch_max") as usize,
            kernel_batch: num(serve, "kernel_batch") as usize,
            ladder_step: num(&root, "ladder_step"),
            probe_requests: num(&root, "probe_requests") as usize,
            round_requests: num(&root, "round_requests") as usize,
            replay_frames: num(&root, "replay_frames") as usize,
            workloads,
        }
    }

    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

impl Workload {
    pub fn heavy_rps(&self, step: f64) -> f64 {
        self.light_rps * step.powi(self.heavy_steps as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_the_three_workloads_with_sane_rates() {
        let t = Table::load();
        for name in ["wire_fast", "packed_pair", "wire_fleet_tiers"] {
            let w = t.workload(name).expect(name);
            assert!(w.heavy_rps(t.ladder_step) > w.light_rps);
            assert!(w.ladder_top_rps > w.heavy_rps(t.ladder_step));
            assert!(w.accuracy_floor > 0.1 && w.accuracy_floor < 1.0);
            assert!(!w.why.is_empty() && w.why.len() <= 200);
        }
        assert!(
            t.ladder_step > 1.0 && t.ladder_step <= 1.10,
            "steps of at most 10 %"
        );
        assert!(
            t.probe_requests >= 100 * crate::stats::MIN_BEYOND,
            "p99 needs 1000 samples"
        );
        assert!(
            t.round_requests * crate::ROUNDS as usize >= t.probe_requests,
            "a phase's pooled rounds give a p99"
        );
        assert!(
            t.round_requests >= 10 * crate::stats::MIN_BEYOND,
            "each round gives a p90"
        );
    }
}

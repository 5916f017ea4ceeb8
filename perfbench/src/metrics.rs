//! The declared metrics and the result line.
//!
//! `END_TO_END` and `PER_LAYER` must list exactly the metrics that
//! `BENCHMARK.json` declares (a test below holds them together). Every
//! workload reports every metric of the list its mode prints; a per-layer
//! share or count of a layer the workload never runs reads 0.

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_ref", "x"),
    ("op_ref_p50", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("package_kb", "kB"),
    ("wire_kb", "kB"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace_overhead_pct", "%"),
    ("workload.profile_pct", "%"),
    ("core.build_pct", "%"),
    ("core.validate_pct", "%"),
    ("analysis.lint_pct", "%"),
    ("core.publish_pct", "%"),
    ("core.delta_pct", "%"),
    ("core.decode_pct", "%"),
    ("core.boot_pct", "%"),
    ("jit.translate_pct", "%"),
    ("layout.exttsp_pct", "%"),
    ("jit.replay_pct", "%"),
    ("fleet.fanout_pct", "%"),
    ("fleet.deploy_self_pct", "%"),
    ("unattributed_pct", "%"),
    ("fleet.seeding_pct", "%"),
    ("workload.profile_ms", "ms"),
    ("vm.bare_ms", "ms"),
    ("workload.profile_overhead_x", "x"),
    ("fleet.events", "count"),
    ("fleet.events_per_s", "1/s"),
    ("fleet.steps_saved_x", "x"),
    ("sim_capacity_loss_reduction_pct", "%"),
    ("core.compiled_funcs", "count"),
    ("jit.code_kb", "kB"),
    ("core.publish_new_pct", "%"),
    ("core.wire_pct", "%"),
    ("recovered_mass_pct", "%"),
    ("sim_ipc", "ipc"),
    ("uarch.l1i_miss_pct", "%"),
    ("uarch.itlb_miss_pct", "%"),
    ("uarch.branch_miss_pct", "%"),
    ("uarch.llc_miss_pct", "%"),
    ("host.nproc", "count"),
    ("host.parallel_x", "x"),
];

/// Metric values for one mode, in declaration order.
pub struct Metrics {
    slots: Vec<(&'static str, &'static str, Option<f64>)>,
}

impl Metrics {
    /// Starts the end-to-end result: every metric must be measured.
    pub fn end_to_end() -> Metrics {
        Metrics::over(END_TO_END, None)
    }

    /// Starts the per-layer result: metrics start at 0, the reading for
    /// a layer the workload does not run.
    pub fn per_layer() -> Metrics {
        Metrics::over(PER_LAYER, Some(0.0))
    }

    fn over(declared: &[(&'static str, &'static str)], initial: Option<f64>) -> Metrics {
        Metrics {
            slots: declared.iter().map(|&(n, u)| (n, u, initial)).collect(),
        }
    }

    /// Sets a declared metric. Panics on an undeclared name: a typo must
    /// not silently drop a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .slots
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in this mode"));
        slot.2 = Some(value);
    }

    /// Declared metrics never set, plus any set to a non-finite value.
    pub fn unset(&self) -> Vec<&'static str> {
        self.slots
            .iter()
            .filter(|(_, _, v)| !v.is_some_and(f64::is_finite))
            .map(|(n, _, _)| *n)
            .collect()
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    /// Values print with every digit Rust's shortest round-trip form has.
    pub fn result_json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for (name, unit, value) in &self.slots {
            let Some(v) = value.filter(|v| v.is_finite()) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};
    use telemetry::json::{parse, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric array")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn code_and_benchmark_json_declare_the_same_metrics() {
        assert_eq!(ours(END_TO_END), declared("end_to_end"));
        assert_eq!(ours(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn names_and_units_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
            assert!(seen.insert(*n), "{n} declared twice");
        }
    }

    #[test]
    fn every_layer_leaf_is_declared() {
        for (leaf, _) in crate::spans::LAYERS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == leaf), "{leaf}");
        }
        assert!(PER_LAYER
            .iter()
            .any(|(n, _)| *n == crate::spans::UNATTRIBUTED));
    }

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::end_to_end();
        assert_eq!(m.unset().len(), END_TO_END.len());
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            m.set(n, 1.0 / (i + 3) as f64);
        }
        assert!(m.unset().is_empty());
        let line = m.result_json(true, 7, 0);
        let doc = parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(7));
        let metrics = doc.get("metrics").unwrap();
        let wall = metrics.get("wall_ref").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.0 / 3.0));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn per_layer_defaults_to_zero_and_nan_is_unset() {
        let mut m = Metrics::per_layer();
        assert!(m.unset().is_empty());
        m.set("sim_ipc", f64::NAN);
        assert_eq!(m.unset(), vec!["sim_ipc"]);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        Metrics::end_to_end().set("latency_ms", 1.0);
    }
}

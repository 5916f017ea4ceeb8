//! Self-time arithmetic over captured span trees.
//!
//! A span's self time is its duration minus the durations of its direct
//! children, so the self times of every node in a tree sum exactly to the
//! root's duration. The traced run wraps each op in a root `op` span;
//! summing self times by span name and folding the names into layers
//! therefore splits the traced wall into layer shares whose remainder
//! (`op` self time plus any span this file does not map) is reported as
//! `unattributed`.

use std::collections::BTreeMap;

use telemetry::SpanNode;

/// Name of the root span the runner opens around every traced op.
pub const OP_SPAN: &str = "op";

/// Per-layer leaf metrics and the span names whose self time they own.
/// Names starting with a layer prefix and a dot (`core.`, `jit.`, ...)
/// are spans the benchmark opens around public calls; the rest are
/// spans the program already emits.
pub const LAYERS: &[(&str, &[&str])] = &[
    (
        "workload.profile_pct",
        &["workload.profile_run", "c2-seeding"],
    ),
    (
        "core.build_pct",
        &[
            "core.build_package",
            "seeder-build",
            "prop-orders",
            "func-order",
            "preload-order",
        ],
    ),
    (
        "core.validate_pct",
        &[
            "core.validate_package",
            "validate",
            "validate-decode",
            "coverage-check",
            "validation-compile",
            "smoke-trials",
        ],
    ),
    ("analysis.lint_pct", &["static-lint", "lint-repair"]),
    (
        "core.publish_pct",
        &["core.publish_chunked", "package-chunk", "package-serialize"],
    ),
    ("core.delta_pct", &["core.delta_against", "core.reassemble"]),
    ("core.decode_pct", &["decode"]),
    (
        "core.boot_pct",
        &[
            "core.consume_bytes",
            "consumer-boot",
            "consumer-boot-chunked",
            "prop-slots",
            "pipeline",
            "compile",
            "emit",
        ],
    ),
    ("jit.translate_pct", &["translate-optimized"]),
    ("layout.exttsp_pct", &["exttsp-order"]),
    ("jit.replay_pct", &["jit.replay"]),
    ("fleet.fanout_pct", &["c3-fanout", "simulate-warmup"]),
    (
        "fleet.deploy_self_pct",
        &["fleet.run_deployment_with_prior", "deployment"],
    ),
];

/// The remainder leaf: traced wall no mapped span accounts for.
pub const UNATTRIBUTED: &str = "unattributed_pct";

/// Span time accumulated over the traced ops.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Sum of root `op` span durations (the traced wall).
    pub wall_ns: u64,
    /// Self time by span name, over every node of every op tree.
    pub self_ns: BTreeMap<String, u64>,
    /// Whole-subtree time by span name (nested same-name spans counted
    /// once, at the outermost).
    pub total_ns: BTreeMap<String, u64>,
}

impl SpanTotals {
    /// Adds one op's root span.
    pub fn add_op(&mut self, root: &SpanNode) {
        self.wall_ns += root.duration_ns();
        self.add_node(root, &mut Vec::new());
    }

    fn add_node<'a>(&mut self, node: &'a SpanNode, open: &mut Vec<&'a str>) {
        *self.self_ns.entry(node.name.clone()).or_default() += node.self_ns();
        let outermost = !open.contains(&node.name.as_str());
        if outermost {
            *self.total_ns.entry(node.name.clone()).or_default() += node.duration_ns();
        }
        open.push(&node.name);
        for child in &node.children {
            self.add_node(child, open);
        }
        open.pop();
    }

    /// Self time of every span in `names`.
    pub fn self_of(&self, names: &[&str]) -> u64 {
        names.iter().filter_map(|n| self.self_ns.get(*n)).sum()
    }

    /// Whole-subtree time of span `name`.
    pub fn total_of(&self, name: &str) -> u64 {
        self.total_ns.get(name).copied().unwrap_or(0)
    }

    /// The layer split: `(leaf metric, self ns)` for every entry of
    /// [`LAYERS`] plus [`UNATTRIBUTED`]. The values sum to `wall_ns`
    /// exactly.
    pub fn layer_split(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = LAYERS
            .iter()
            .map(|(metric, names)| (*metric, self.self_of(names)))
            .collect();
        let mapped: u64 = out.iter().map(|(_, ns)| ns).sum();
        out.push((UNATTRIBUTED, self.wall_ns - mapped));
        out
    }

    /// Span names with self time that no layer maps (their time lands in
    /// `unattributed`), excluding the `op` root.
    pub fn unmapped(&self) -> Vec<&str> {
        self.self_ns
            .iter()
            .filter(|(name, ns)| {
                **ns > 0
                    && name.as_str() != OP_SPAN
                    && !LAYERS
                        .iter()
                        .any(|(_, names)| names.contains(&name.as_str()))
            })
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, start: u64, end: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
            children,
        }
    }

    /// op [0,100): consume_bytes [10,70) { decode [10,20), consumer-boot
    /// [20,65) { pipeline [25,60) { translate-optimized [30,50) } } },
    /// jit.replay [75,95), a stray span [96,98), an instant at 99.
    fn synthetic_op() -> SpanNode {
        node(
            OP_SPAN,
            0,
            100,
            vec![
                node(
                    "core.consume_bytes",
                    10,
                    70,
                    vec![
                        node("decode", 10, 20, vec![]),
                        node(
                            "consumer-boot",
                            20,
                            65,
                            vec![node(
                                "pipeline",
                                25,
                                60,
                                vec![node("translate-optimized", 30, 50, vec![])],
                            )],
                        ),
                    ],
                ),
                node("jit.replay", 75, 95, vec![]),
                node("mystery", 96, 98, vec![]),
                node("early-serve", 99, 99, vec![]),
            ],
        )
    }

    #[test]
    fn self_times_by_name() {
        let mut t = SpanTotals::default();
        t.add_op(&synthetic_op());
        assert_eq!(t.wall_ns, 100);
        // op: 100 - (60 + 20 + 2 + 0).
        assert_eq!(t.self_ns["op"], 18);
        assert_eq!(t.self_ns["core.consume_bytes"], 60 - 10 - 45);
        assert_eq!(t.self_ns["consumer-boot"], 45 - 35);
        assert_eq!(t.self_ns["pipeline"], 35 - 20);
        assert_eq!(t.self_ns["translate-optimized"], 20);
        assert_eq!(t.self_ns["early-serve"], 0);
        assert_eq!(t.total_of("core.consume_bytes"), 60);
        assert_eq!(t.total_of("absent"), 0);
    }

    #[test]
    fn leaves_sum_to_wall() {
        let mut t = SpanTotals::default();
        t.add_op(&synthetic_op());
        t.add_op(&synthetic_op());
        let split = t.layer_split();
        assert_eq!(split.iter().map(|(_, ns)| ns).sum::<u64>(), t.wall_ns);
        let get = |m: &str| split.iter().find(|(n, _)| *n == m).unwrap().1;
        assert_eq!(get("core.boot_pct"), 2 * (5 + 10 + 15));
        assert_eq!(get("core.decode_pct"), 2 * 10);
        assert_eq!(get("jit.translate_pct"), 2 * 20);
        assert_eq!(get("jit.replay_pct"), 2 * 20);
        // op self time and the unmapped span land in the remainder.
        assert_eq!(get(UNATTRIBUTED), 2 * (18 + 2));
        assert_eq!(t.unmapped(), vec!["mystery"]);
    }

    #[test]
    fn nested_same_name_counts_once_in_totals() {
        let root = node(
            OP_SPAN,
            0,
            50,
            vec![node(
                "validate",
                0,
                40,
                vec![node("validate", 5, 25, vec![])],
            )],
        );
        let mut t = SpanTotals::default();
        t.add_op(&root);
        assert_eq!(t.total_of("validate"), 40);
        assert_eq!(t.self_ns["validate"], 40);
    }

    #[test]
    fn every_span_name_maps_to_one_layer() {
        let mut seen = std::collections::HashSet::new();
        for (_, names) in LAYERS {
            for n in *names {
                assert!(seen.insert(*n), "{n} mapped twice");
                assert_ne!(*n, OP_SPAN);
            }
        }
    }
}

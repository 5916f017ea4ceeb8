//! `fleet-push`: one `fleet::run_deployment_with_prior` per op at the
//! per-cell `jsfleet` paper shape (tiny app, prior + current release at
//! churn 0.1, 3 seeders x 150 requests and 200+20 servers per cell,
//! chunked distribution, early serve at 0.25, slow-host faults) on one
//! shard, over 1x2 cells instead of 2x5. Every cell costs the same, so
//! the op keeps the paper shape's split between C2 seeding, cell build
//! and the fleet event core at a fifth of its wall; short ops let the
//! calibration kernel bracket each one closely. No bench-scale consumer
//! compile.

use std::ops::Range;

use fleet::{
    run_deployment_with_prior, DeployParams, DistributionParams, FaultPlan, FleetShape,
    WarmupParams,
};
use jumpstart::JumpStartOptions;
use workload::{generate_release, App, AppParams, ChurnParams, RequestMix};

use crate::metrics::Metrics;
use crate::{derive, Workload};

/// Release churn between the prior and the pushed release.
const PUSH_CHURN: f64 = 0.1;
/// Seed of the release chain (see [`FleetPush::setup`]).
const RELEASE_SEED: u64 = 0xf1ee7;
/// Capacity-loss window (the paper's first 10 minutes).
const LOSS_WINDOW_MS: u64 = 600_000;

/// The `jsfleet` per-cell paper shape over 1x2 cells on one shard, with
/// a per-op deploy seed.
fn push_shape(seed: u64) -> DeployParams {
    DeployParams::default()
        .with_cells(1, 2)
        .with_seeders(3, 150)
        .with_warmup(WarmupParams::fig4().with_early_serve(0.25))
        .with_distribution(DistributionParams::chunked())
        .with_fleet(
            FleetShape::default()
                .with_servers(200, 20)
                .with_representatives(2)
                .with_shards(1)
                .with_stagger(120_000)
                .with_jitter(150),
        )
        .with_faults(FaultPlan::default().with_slow_consumers(50, 300))
        .with_seed(seed)
        // The tiny app is small; production-scale validation floors
        // would reject every package outright.
        .with_js_opts(JumpStartOptions {
            min_funcs_profiled: 5,
            min_counter_mass: 100,
            min_requests: 10,
            ..Default::default()
        })
}

/// What one push reported.
#[derive(Clone, Debug, Default)]
struct PushRecord {
    deploy_digest: u32,
    warmup_digest: u32,
    published: usize,
    events: u64,
    steps_executed: u64,
    steps_dense: u64,
    loss_reduction_pct: f64,
    fetches: u64,
    bytes_full: u64,
    bytes_on_wire: u64,
    publish_total: u64,
    publish_new: u64,
    /// Output-check violations found in the report.
    violations: Vec<String>,
}

pub struct FleetPush {
    prior: App,
    mix: RequestMix,
    releases: Vec<App>,
    params: Vec<DeployParams>,
    recs: Vec<Option<PushRecord>>,
}

impl Workload for FleetPush {
    const OPS_PER_SECOND: f64 = 4.0;

    fn setup(seed: u64, ops: usize) -> Self {
        let (prior, _) = generate_release(&AppParams::tiny(), &ChurnParams::none());
        // The pushed releases depend on the op index only: each op pushes
        // different code, and every seed pushes the same code, so the
        // seed varies the seeders' traffic and the fleet's plans without
        // also varying how much code changed.
        let releases: Vec<App> = (0..ops)
            .map(|i| {
                let churn = ChurnParams {
                    seed: derive(RELEASE_SEED, 4, i as u64),
                    rate: PUSH_CHURN,
                };
                generate_release(&AppParams::tiny(), &churn).0
            })
            .collect();
        let params = (0..ops)
            .map(|i| push_shape(derive(seed, 5, i as u64)))
            .collect();
        let mix = RequestMix::new(&prior, 0, 0);
        FleetPush {
            prior,
            mix,
            releases,
            params,
            recs: vec![None; ops],
        }
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let report = {
            let _s = telemetry::span("fleet.run_deployment_with_prior");
            run_deployment_with_prior(&self.releases[i], Some(&self.prior), &self.params[i])
        };
        let js: Vec<_> = report.stats.iter().filter(|s| s.jumpstart).collect();
        let mut violations = Vec::new();
        if report.published == 0 {
            violations.push("published no packages".to_string());
        }
        if report.validation_failures > 0 || report.seeder_crashes > 0 {
            violations.push(format!(
                "{} validation failures, {} seeder crashes",
                report.validation_failures, report.seeder_crashes
            ));
        }
        if report.sim.requests <= 0.0 {
            violations.push("served no requests".to_string());
        }
        let unpriced = js
            .iter()
            .filter(|s| s.bytes_on_wire == 0 || s.download_ms == 0)
            .count();
        if js.is_empty() || unpriced > 0 {
            violations.push(format!("{unpriced} of {} js fetches unpriced", js.len()));
        }
        let d = &report.distribution;
        self.recs[i] = Some(PushRecord {
            deploy_digest: report.digest(),
            warmup_digest: report.warmup.digest(),
            published: report.published,
            events: report.sim.events,
            steps_executed: report.sim.steps_executed,
            steps_dense: report.sim.steps_dense,
            loss_reduction_pct: report.capacity_loss_reduction(LOSS_WINDOW_MS),
            fetches: js.len() as u64,
            bytes_full: d.bytes_full,
            bytes_on_wire: d.bytes_on_wire,
            publish_total: d.publish_bytes_total,
            publish_new: d.publish_bytes_new,
            violations,
        });
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let rec = self.recs[i].as_ref().ok_or("op produced no report")?;
        match rec.violations.as_slice() {
            [] => Ok(()),
            v => Err(v.join("; ")),
        }
    }

    fn end_to_end(&self, ops: Range<usize>, m: &mut Metrics) {
        let recs: Vec<&PushRecord> = self.recs[ops].iter().flatten().collect();
        let fetches = recs.iter().map(|r| r.fetches).sum::<u64>().max(1) as f64;
        let full: u64 = recs.iter().map(|r| r.bytes_full).sum();
        let wire: u64 = recs.iter().map(|r| r.bytes_on_wire).sum();
        m.set("package_kb", full as f64 / fetches / 1024.0);
        m.set("wire_kb", wire as f64 / fetches / 1024.0);
    }

    fn per_layer(&self, ops: Range<usize>, m: &mut Metrics) {
        let recs: Vec<&PushRecord> = self.recs[ops].iter().flatten().collect();
        let n = recs.len().max(1) as f64;
        let sum = |f: &dyn Fn(&PushRecord) -> u64| recs.iter().map(|r| f(r)).sum::<u64>();
        m.set("fleet.events", sum(&|r| r.events) as f64 / n);
        m.set(
            "fleet.steps_saved_x",
            sum(&|r| r.steps_dense) as f64 / sum(&|r| r.steps_executed).max(1) as f64,
        );
        m.set(
            "sim_capacity_loss_reduction_pct",
            recs.iter().map(|r| r.loss_reduction_pct).sum::<f64>() / n,
        );
        m.set(
            "core.publish_new_pct",
            sum(&|r| r.publish_new) as f64 * 100.0 / sum(&|r| r.publish_total).max(1) as f64,
        );
        m.set(
            "core.wire_pct",
            sum(&|r| r.bytes_on_wire) as f64 * 100.0 / sum(&|r| r.bytes_full).max(1) as f64,
        );
    }

    fn summary(&self, ops: Range<usize>) -> Vec<String> {
        ops.filter_map(|i| self.recs[i].as_ref().map(|r| (i, r)))
            .map(|(i, r)| {
                format!(
                    "push {i}: deploy digest {:#010x}, warmup digest {:#010x}, {} published, \
                     {} events, capacity-loss reduction {:.2}%",
                    r.deploy_digest, r.warmup_digest, r.published, r.events, r.loss_reduction_pct
                )
            })
            .collect()
    }

    fn probe_app(&self) -> (&App, &RequestMix) {
        (&self.prior, &self.mix)
    }

    fn fleet_events(&self, ops: Range<usize>) -> u64 {
        self.recs[ops].iter().flatten().map(|r| r.events).sum()
    }
}

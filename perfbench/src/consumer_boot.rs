//! `consumer-boot`: fresh, release-matched packages of the bench app,
//! each booted once (`ProfilePackage::deserialize_shared` +
//! `jumpstart::consume`) and then serving a fixed replay through
//! `jit::Executor`. Exercises core decode/pipeline, jit translate, layout
//! and the jit replay over uarch; no seeding, repair or fleet in the ops.

use std::ops::Range;

use bytes::Bytes;
use jumpstart::{chunk_package, delta_against, ChunkPool};
use workload::{generate, profile_run, App, AppParams, ProfileRun, RequestMix};

use crate::metrics::Metrics;
use crate::steps::{self, BootRecord};
use crate::{derive, Workload};

/// Requests of the ground-truth run the replay draws branch outcomes from.
const TRUTH_REQUESTS: usize = 300;

pub struct ConsumerBoot {
    app: App,
    mix: RequestMix,
    truth: ProfileRun,
    /// Sealed package bytes, one distinct seeder per op.
    packages: Vec<Bytes>,
    /// Bytes a consumer holding the previous op's package chunks pulls
    /// for this one (manifest + missing chunks).
    wire: Vec<u64>,
    replay_seeds: Vec<u64>,
    recs: Vec<Option<BootRecord>>,
}

impl Workload for ConsumerBoot {
    const OPS_PER_SECOND: f64 = 4.0;

    fn setup(seed: u64, ops: usize) -> Self {
        let app = generate(&AppParams::bench());
        let mix = RequestMix::new(&app, 0, 0);
        let truth = profile_run(&app, &mix, TRUTH_REQUESTS, derive(seed, 1, 0));
        let mut packages = Vec::with_capacity(ops);
        let mut wire = Vec::with_capacity(ops);
        let mut held = ChunkPool::new();
        for i in 0..ops {
            let pkg = steps::seed_package(&app, &mix, derive(seed, 2, i as u64));
            let cp = chunk_package(&pkg, app.repo.funcs().len());
            wire.push(delta_against(&cp.manifest, &held).wire_bytes());
            held = ChunkPool::new();
            for c in &cp.chunks {
                held.insert(c);
            }
            packages.push(cp.sealed);
        }
        let replay_seeds = (0..ops).map(|i| derive(seed, 3, i as u64)).collect();
        ConsumerBoot {
            app,
            mix,
            truth,
            packages,
            wire,
            replay_seeds,
            recs: vec![None; ops],
        }
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let rec = steps::boot_and_serve(
            &self.app,
            &self.mix,
            &self.packages[i],
            (&self.truth.tier, &self.truth.ctx),
            self.replay_seeds[i],
        )?;
        self.recs[i] = Some(rec);
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let rec = self.recs[i].as_ref().ok_or("op produced no boot")?;
        if rec.stats.compiled_funcs == 0 || rec.miss.instructions == 0 {
            return Err("boot compiled nothing or replay ran nothing".into());
        }
        steps::check_reference_boot(&self.app, &self.packages[i], rec)
    }

    fn end_to_end(&self, ops: Range<usize>, m: &mut Metrics) {
        let n = ops.len().max(1) as f64;
        let pkg: usize = self.packages[ops.clone()].iter().map(Bytes::len).sum();
        let wire: u64 = self.wire[ops].iter().sum();
        m.set("package_kb", pkg as f64 / n / 1024.0);
        m.set("wire_kb", wire as f64 / n / 1024.0);
    }

    fn per_layer(&self, ops: Range<usize>, m: &mut Metrics) {
        steps::boot_metrics(self.recs[ops.clone()].iter().flatten(), m);
        let pkg: usize = self.packages[ops.clone()].iter().map(Bytes::len).sum();
        let wire: u64 = self.wire[ops].iter().sum();
        m.set("core.wire_pct", wire as f64 * 100.0 / pkg.max(1) as f64);
    }

    fn summary(&self, ops: Range<usize>) -> Vec<String> {
        let label = format!("ops {}..{}", ops.start, ops.end - 1);
        steps::boot_summary(&label, self.recs[ops].iter().flatten())
    }

    fn probe_app(&self) -> (&App, &RequestMix) {
        (&self.app, &self.mix)
    }
}

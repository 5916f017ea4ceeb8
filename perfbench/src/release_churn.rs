//! `release-churn`: the bench app advanced through a chain of releases,
//! each churned from the one before (`workload::build_sources` ->
//! `churn_sources` -> `compile_sources`). Three seeders, as in one
//! `jsfleet` cell, profile every release with the same traffic. One op
//! is one release step:
//!
//! 1. the seeders publish the new release: `profile_run` ->
//!    `build_package` -> `Validator::validate_package` ->
//!    `PackageStore::publish_chunked` (store writes);
//! 2. a consumer holding the previous release's chunks prices the fetch
//!    of one new package with `delta_against` and reassembles it from
//!    those chunks plus the shipped ones (reads);
//! 3. a consumer boots the same seeder's previous-release package on the
//!    new repo (lint -> `analysis::stale` repair -> pipeline) and serves
//!    the fixed replay.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use jit::JitOptions;
use jumpstart::{
    crc32, delta_against, reassemble, Chunk, ChunkPool, JumpStartOptions, ManifestEntry,
    PackageStore, ProfilePackage, StoredPackage, Validator,
};
use workload::{
    build_sources, churn_sources, compile_sources, App, AppParams, ChurnParams, RequestMix,
};

use crate::metrics::Metrics;
use crate::steps::{self, BootRecord};
use crate::{derive, Workload};

/// Churn between consecutive releases (about a day of pushes).
const RELEASE_CHURN: f64 = 0.1;
/// Seed of the release chain and the seeders' traffic (see
/// [`ReleaseChurn::setup`]).
const CHAIN_SEED: u64 = 0xc0de;
/// Seeders per release (one `jsfleet` cell).
const SEEDERS: usize = 3;

/// What one release step measured.
#[derive(Clone, Debug)]
struct StepRecord {
    /// Mean profile -> build -> validate -> publish wall per seeder.
    seed_ms: f64,
    /// Mean sealed bytes of the release's packages.
    package_bytes: u64,
    /// Bytes of the priced fetch: manifest plus missing chunks.
    wire_bytes: u64,
    /// Bytes of the fetched package.
    fetched_bytes: u64,
    publish_total: u64,
    publish_new: u64,
    boot: BootRecord,
}

/// What the untimed check of a step needs.
struct Pending {
    package: ProfilePackage,
    reassembled: Bytes,
    stale: Bytes,
}

pub struct ReleaseChurn {
    /// Releases `0..=ops`; op `i` advances release `i` to `i + 1`.
    releases: Vec<App>,
    mixes: Vec<RequestMix>,
    seeder_seeds: [u64; SEEDERS],
    replay_seeds: Vec<u64>,
    store: PackageStore,
    validator: Validator,
    /// The consumer's chunk cache: every chunk of the newest release.
    held: ChunkPool,
    /// The newest release's packages, one per seeder.
    newest: Vec<Arc<StoredPackage>>,
    pending: Option<Pending>,
    recs: Vec<Option<StepRecord>>,
}

/// Copies the chunks `entries` name out of the first pool holding each.
fn collect_chunks(
    entries: &[ManifestEntry],
    from: &[&ChunkPool],
    into: &mut ChunkPool,
) -> Result<(), String> {
    for e in entries {
        let bytes = from
            .iter()
            .find_map(|p| p.get(e.id))
            .ok_or_else(|| format!("chunk {:?} neither held nor in the store", e.id))?;
        into.insert(&Chunk {
            id: e.id,
            bytes: bytes.clone(),
        });
    }
    Ok(())
}

impl ReleaseChurn {
    /// Every seeder profiles, validates and publishes release `r`.
    /// Returns the packages and the receipts' summed (total, new) bytes.
    fn publish(&self, r: usize) -> Result<(Vec<ProfilePackage>, u64, u64), String> {
        let app = &self.releases[r];
        let (mut total, mut new) = (0, 0);
        let mut packages = Vec::with_capacity(SEEDERS);
        for &seed in &self.seeder_seeds {
            let pkg = steps::seed_package(app, &self.mixes[r], seed);
            {
                let _s = telemetry::span("core.validate_package");
                self.validator
                    .validate_package(&app.repo, &pkg, 0)
                    .map_err(|e| format!("validation failed: {e:?}"))?;
            }
            let _s = telemetry::span("core.publish_chunked");
            let (_, receipt) = self.store.publish_chunked(&pkg, app.repo.funcs().len());
            total += receipt.bytes_total;
            new += receipt.bytes_new;
            packages.push(pkg);
        }
        Ok((packages, total, new))
    }

    /// The store's packages of the release published last.
    fn latest(&self) -> Vec<Arc<StoredPackage>> {
        let mut all = self.store.cell_packages(0, 0);
        all.split_off(all.len() - SEEDERS)
    }
}

impl Workload for ReleaseChurn {
    const OPS_PER_SECOND: f64 = 2.4;

    fn setup(seed: u64, ops: usize) -> Self {
        let params = AppParams::bench();
        let mut files = build_sources(&params);
        let mut releases = vec![compile_sources(&params, &files)];
        // Every seed walks the same chain with the same seeder traffic;
        // the seed sets the replays. Both would make a poor seed input:
        // package size follows which functions 150 requests happen to
        // reach (7-9% apart between traffic seeds), and chains from
        // different seeds drift apart step by step (the cost of a
        // 36-step run spread 11% between chain seeds).
        for i in 1..=ops {
            let churn = ChurnParams {
                seed: derive(CHAIN_SEED, 6, i as u64),
                rate: RELEASE_CHURN,
            };
            churn_sources(&mut files, &churn);
            // `churn_sources` names the helpers it inserts `qnew_<k>`
            // with `k` restarting at 0 on every call, so a second churn of
            // the same sources would insert a duplicate. The inserted
            // helpers are never called, so renaming them once they are
            // part of a release moves no profile data.
            for (_, src) in files.iter_mut() {
                if src.contains("qnew_") {
                    *src = src.replace("qnew_", &format!("qr{i}new_"));
                }
            }
            releases.push(compile_sources(&params, &files));
        }
        let mixes = releases.iter().map(|a| RequestMix::new(a, 0, 0)).collect();
        let mut w = ReleaseChurn {
            releases,
            mixes,
            seeder_seeds: std::array::from_fn(|k| derive(CHAIN_SEED, 7, k as u64)),
            replay_seeds: (0..ops).map(|i| derive(seed, 8, i as u64)).collect(),
            store: PackageStore::new(),
            validator: Validator::new(JumpStartOptions::default(), JitOptions::default()),
            held: ChunkPool::new(),
            newest: Vec::new(),
            pending: None,
            recs: vec![None; ops],
        };
        // The release the fleet runs before the first step, published and
        // held by the consumer.
        w.publish(0).expect("base release publishes");
        w.newest = w.latest();
        let store_pool = w.store.cell_pool(0, 0);
        for p in &w.newest {
            let man = p.manifest.as_ref().expect("chunked publish");
            collect_chunks(&man.entries, &[&store_pool], &mut w.held)
                .expect("store holds its chunks");
        }
        w
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let t = Instant::now();
        let (mut packages, publish_total, publish_new) = self.publish(i + 1)?;
        let seed_ms = t.elapsed().as_secs_f64() * 1e3 / SEEDERS as f64;
        let latest = self.latest();

        // One consumer, served by seeder `k` this step, prices the fetch
        // against the previous release's chunks and rebuilds the package
        // from those plus the shipped chunks; then it holds the new
        // release's chunks.
        let k = i % SEEDERS;
        let man = latest[k]
            .manifest
            .as_ref()
            .ok_or("publish kept no manifest")?;
        let delta = {
            let _s = telemetry::span("core.delta_against");
            delta_against(man, &self.held)
        };
        let reassembled = {
            let _s = telemetry::span("core.reassemble");
            let store_pool = self.store.cell_pool(0, 0);
            let mut pool = ChunkPool::new();
            collect_chunks(&man.entries, &[&self.held, &store_pool], &mut pool)?;
            let bytes = reassemble(man, &pool).map_err(|e| format!("reassemble: {e:?}"))?;
            self.held = ChunkPool::new();
            for p in &latest {
                let m = p.manifest.as_ref().ok_or("publish kept no manifest")?;
                collect_chunks(&m.entries, &[&pool, &store_pool], &mut self.held)?;
            }
            bytes
        };

        // Seeder `k`'s previous-release package, booted on the new release
        // and replayed against the new release's fresh profile.
        let stale = std::mem::replace(&mut self.newest, latest)[k].bytes.clone();
        let package = packages.swap_remove(k);
        let boot = steps::boot_and_serve(
            &self.releases[i + 1],
            &self.mixes[i + 1],
            &stale,
            (&package.tier, &package.ctx),
            self.replay_seeds[i],
        )?;
        let sizes: u64 = self.newest.iter().map(|p| p.bytes.len() as u64).sum();
        self.recs[i] = Some(StepRecord {
            seed_ms,
            package_bytes: sizes / SEEDERS as u64,
            wire_bytes: delta.wire_bytes(),
            fetched_bytes: self.newest[k].bytes.len() as u64,
            publish_total,
            publish_new,
            boot,
        });
        self.pending = Some(Pending {
            package,
            reassembled,
            stale,
        });
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let p = self.pending.take().ok_or("op produced nothing to check")?;
        let rec = self.recs[i].as_ref().ok_or("op produced no record")?;
        if crc32(&p.reassembled) != crc32(&p.package.serialize()) {
            return Err("reassembled package differs from serialize()".into());
        }
        if rec.boot.repair_mass.is_none() {
            return Err("stale package booted without repair".into());
        }
        steps::check_reference_boot(&self.releases[i + 1], &p.stale, &rec.boot)
    }

    fn end_to_end(&self, ops: Range<usize>, m: &mut Metrics) {
        let recs: Vec<&StepRecord> = self.recs[ops].iter().flatten().collect();
        let n = recs.len().max(1) as f64;
        let pkg: u64 = recs.iter().map(|r| r.package_bytes).sum();
        let wire: u64 = recs.iter().map(|r| r.wire_bytes).sum();
        m.set("package_kb", pkg as f64 / n / 1024.0);
        m.set("wire_kb", wire as f64 / n / 1024.0);
    }

    fn per_layer(&self, ops: Range<usize>, m: &mut Metrics) {
        let recs: Vec<&StepRecord> = self.recs[ops].iter().flatten().collect();
        steps::boot_metrics(recs.iter().map(|r| &r.boot), m);
        let sum = |f: &dyn Fn(&StepRecord) -> u64| recs.iter().map(|r| f(r)).sum::<u64>();
        m.set(
            "core.publish_new_pct",
            sum(&|r| r.publish_new) as f64 * 100.0 / sum(&|r| r.publish_total).max(1) as f64,
        );
        m.set(
            "core.wire_pct",
            sum(&|r| r.wire_bytes) as f64 * 100.0 / sum(&|r| r.fetched_bytes).max(1) as f64,
        );
    }

    fn summary(&self, ops: Range<usize>) -> Vec<String> {
        let recs: Vec<&StepRecord> = self.recs[ops.clone()].iter().flatten().collect();
        let seed: Vec<f64> = recs.iter().map(|r| r.seed_ms).collect();
        let label = format!("steps {}..{}", ops.start, ops.end - 1);
        let mut lines = vec![format!(
            "{label} seed_ms per seeder (profile -> build -> validate -> publish): p50 {:.2}",
            crate::stats::median(&seed).unwrap_or(0.0)
        )];
        lines.extend(steps::boot_summary(&label, recs.iter().map(|r| &r.boot)));
        lines
    }

    fn probe_app(&self) -> (&App, &RequestMix) {
        (&self.releases[0], &self.mixes[0])
    }
}

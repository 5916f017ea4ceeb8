//! The public calls the workloads are made of, each wrapped in a
//! benchmark-owned span so the traced run can attribute its time.

use std::time::Instant;

use bytes::Bytes;
use jit::{Executor, ExecutorConfig, JitOptions, TierProfile};
use jumpstart::{
    build_package, consume_bytes, BootStats, ConsumerOutcome, JumpStartOptions, ProfilePackage,
    SeederInputs,
};
use telemetry::span;
use uarch::MissReport;
use workload::{App, RequestMix, RequestSampler};

/// Requests one seeder profiles (the `jsfleet` C2 window).
pub const SEEDER_REQUESTS: usize = 150;
/// Replay requests run before the counters are reset.
pub const REPLAY_WARM: usize = 100;
/// Replay requests measured by the core model after the warm part.
pub const REPLAY_REQUESTS: usize = 400;

/// One C2 seeder: profiles `SEEDER_REQUESTS` requests of `mix` and
/// builds a package from them.
pub fn seed_package(app: &App, mix: &RequestMix, seeder_seed: u64) -> ProfilePackage {
    let run = {
        let _s = span("workload.profile_run");
        workload::profile_run(app, mix, SEEDER_REQUESTS, seeder_seed)
    };
    let _s = span("core.build_package");
    build_package(
        SeederInputs {
            repo: &app.repo,
            tier: run.tier,
            ctx: run.ctx,
            unit_order: run.unit_order,
            requests: run.requests,
            region: 0,
            bucket: 0,
            seeder_id: seeder_seed,
            now_ms: 0,
        },
        &JumpStartOptions::default(),
        &JitOptions::default(),
    )
}

/// A consumer boot from package bytes on `threads` translation workers.
pub fn boot<'r>(
    app: &'r App,
    bytes: &Bytes,
    threads: usize,
) -> Result<ConsumerOutcome<'r>, String> {
    let _s = span("core.consume_bytes");
    consume_bytes(
        &app.repo,
        bytes,
        JitOptions::default(),
        &JumpStartOptions::default(),
        threads,
    )
    .map_err(|e| format!("boot failed: {e:?}"))
}

/// What one consumer boot plus its replay measured.
#[derive(Clone, Debug)]
pub struct BootRecord {
    /// Wall of the `consume_bytes` call.
    pub boot_ms: f64,
    /// The boot's own phase timeline.
    pub stats: BootStats,
    /// Code-cache layout digest of the booted engine.
    pub digest: u64,
    /// Counter mass the lint/repair path kept and dropped; `None` when
    /// the package needed no repair.
    pub repair_mass: Option<(u64, u64)>,
    /// Wall of the replay.
    pub replay_ms: f64,
    /// Core-model counters over the measured replay requests.
    pub miss: MissReport,
}

/// Boots `bytes` on one worker and replays `REPLAY_WARM + REPLAY_REQUESTS`
/// requests of `mix` through the emitted code, with `truth` as the
/// branch/call ground truth.
pub fn boot_and_serve(
    app: &App,
    mix: &RequestMix,
    bytes: &Bytes,
    truth: (&TierProfile, &jit::CtxProfile),
    replay_seed: u64,
) -> Result<BootRecord, String> {
    let t = Instant::now();
    let out = boot(app, bytes, 1)?;
    let boot_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let miss = {
        let _s = span("jit.replay");
        let mut ex = Executor::new(
            &app.repo,
            &out.engine.code_cache,
            truth.0,
            truth.1,
            ExecutorConfig {
                seed: replay_seed,
                ..Default::default()
            },
        );
        ex.set_unit_order(&out.unit_order);
        let mut sampler = RequestSampler::new(replay_seed);
        for _ in 0..REPLAY_WARM {
            ex.run_call(sampler.request(app, mix).0);
        }
        ex.reset_stats();
        for _ in 0..REPLAY_REQUESTS {
            ex.run_call(sampler.request(app, mix).0);
        }
        ex.report()
    };
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(BootRecord {
        boot_ms,
        stats: out.boot.clone(),
        digest: out.engine.code_cache.layout_digest(),
        repair_mass: out
            .repair
            .as_ref()
            .map(|r| (r.stats.mass_matched, r.stats.mass_dropped)),
        replay_ms,
        miss,
    })
}

/// Boots `bytes` again on two workers (a different pipeline schedule)
/// and compares the layout digest with the measured boot's.
pub fn check_reference_boot(app: &App, bytes: &Bytes, rec: &BootRecord) -> Result<(), String> {
    let reference = boot(app, bytes, 2)?.engine.code_cache.layout_digest();
    if reference != rec.digest {
        return Err(format!(
            "layout digest {:#x} differs from reference boot {reference:#x}",
            rec.digest
        ));
    }
    Ok(())
}

/// Per-layer boot and replay metrics over `recs`.
pub fn boot_metrics<'a>(
    recs: impl Iterator<Item = &'a BootRecord>,
    m: &mut crate::metrics::Metrics,
) {
    let recs: Vec<&BootRecord> = recs.collect();
    let n = recs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&BootRecord) -> u64| recs.iter().map(|r| f(r)).sum::<u64>();
    let pct = |miss: u64, all: u64| miss as f64 * 100.0 / all.max(1) as f64;
    m.set(
        "core.compiled_funcs",
        sum(&|r| r.stats.compiled_funcs as u64) as f64 / n,
    );
    m.set(
        "jit.code_kb",
        sum(&|r| r.stats.compile_bytes) as f64 / n / 1024.0,
    );
    // Boots that needed no repair kept all their mass.
    let repaired: Vec<(u64, u64)> = recs.iter().filter_map(|r| r.repair_mass).collect();
    let kept: u64 = repaired.iter().map(|(k, _)| k).sum();
    let dropped: u64 = repaired.iter().map(|(_, d)| d).sum();
    m.set(
        "recovered_mass_pct",
        if repaired.is_empty() {
            100.0
        } else {
            pct(kept, kept + dropped)
        },
    );
    m.set(
        "sim_ipc",
        sum(&|r| r.miss.instructions) as f64 / sum(&|r| r.miss.cycles).max(1) as f64,
    );
    m.set(
        "uarch.l1i_miss_pct",
        pct(
            sum(&|r| r.miss.icache.misses),
            sum(&|r| r.miss.icache.accesses),
        ),
    );
    m.set(
        "uarch.itlb_miss_pct",
        pct(sum(&|r| r.miss.itlb.misses), sum(&|r| r.miss.itlb.accesses)),
    );
    m.set(
        "uarch.branch_miss_pct",
        pct(
            sum(&|r| r.miss.branch.misses),
            sum(&|r| r.miss.branch.accesses),
        ),
    );
    m.set(
        "uarch.llc_miss_pct",
        pct(sum(&|r| r.miss.llc.misses), sum(&|r| r.miss.llc.accesses)),
    );
}

/// Summary lines for boots: latency median and tail with its sample
/// count, and the mean boot phase split from `BootStats`.
pub fn boot_summary<'a>(label: &str, recs: impl Iterator<Item = &'a BootRecord>) -> Vec<String> {
    let recs: Vec<&BootRecord> = recs.collect();
    let boot: Vec<f64> = recs.iter().map(|r| r.boot_ms).collect();
    let replay: Vec<f64> = recs.iter().map(|r| r.replay_ms).collect();
    let mean = |f: &dyn Fn(&BootStats) -> u64| {
        recs.iter().map(|r| f(&r.stats)).sum::<u64>() as f64 / recs.len().max(1) as f64 / 1e6
    };
    let tail = crate::stats::tail(&boot).map_or_else(
        || {
            format!(
                "no tail (n={} <= {})",
                boot.len(),
                crate::stats::TAIL_BEYOND
            )
        },
        |t| {
            format!(
                "p{} {:.2} ms (n={}, {} beyond)",
                t.pct, t.value, t.n, t.beyond
            )
        },
    );
    vec![
        format!(
            "{label} boot_ms: p50 {:.2}, {tail}; replay_ms p50 {:.2}",
            crate::stats::median(&boot).unwrap_or(0.0),
            crate::stats::median(&replay).unwrap_or(0.0),
        ),
        format!(
            "{label} boot phases (mean ms): decode {:.2}, lint_repair {:.2}, prop_slots {:.2}, \
             pipeline {:.2}, emit {:.2}, translate_busy {:.2}",
            mean(&|s| s.decode_ns),
            mean(&|s| s.lint_repair_ns),
            mean(&|s| s.prop_slots_ns),
            mean(&|s| s.pipeline_ns),
            mean(&|s| s.emit_ns),
            mean(&|s| s.worker_busy_ns()),
        ),
    ]
}

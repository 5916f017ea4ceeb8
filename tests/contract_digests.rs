//! Golden contract digests: the outputs every simplification must leave
//! bit-identical. Each constant below was computed from a fixed small-lab
//! configuration; a change that moves one of them changed behaviour.
//!
//! * the crc32 of one fixed seeder's serialized package,
//! * the code-cache layout digest of booting that package with 1 and 2
//!   translation workers,
//! * `DeployReport::digest` and the crc32 of the `WarmupReport` JSON for
//!   the small-fleet deployment `jsfleet --check` runs.

use hhvm_jumpstart_repro::{fleet, jit, jumpstart, workload};

use fleet::{run_deployment, DeployParams, FaultPlan, FleetShape, WarmupParams};
use jit::JitOptions;
use jumpstart::{build_package, consume_bytes, crc32, JumpStartOptions, SeederInputs};
use workload::{generate, profile_run, AppParams, RequestMix};

const PACKAGE_CRC32: u32 = 0x2cf7_f3fb;
const LAYOUT_DIGEST: u64 = 0xc6d5_b713_2cc7_4673;
const DEPLOY_DIGEST: u32 = 0x30a1_a28a;
const WARMUP_JSON_CRC32: u32 = 0xcbfc_1fa2;

/// The lenient validation floors `jsfleet` uses for the small synthetic app.
fn lenient_js_opts() -> JumpStartOptions {
    JumpStartOptions {
        min_funcs_profiled: 5,
        min_counter_mass: 100,
        min_requests: 10,
        ..Default::default()
    }
}

/// The `jsfleet --check` small fleet on one shard.
fn small_fleet() -> DeployParams {
    DeployParams::default()
        .with_cells(1, 2)
        .with_seeders(2, 120)
        .with_warmup(WarmupParams {
            duration_ms: 200_000,
            sample_ms: 5_000,
            init_ms_nojs: 20_000,
            init_ms_js: 8_000,
            deserialize_ms: 2_000,
            profile_serve_ms: 60_000,
            relocation_ms: 20_000,
            ..WarmupParams::fig4()
        })
        .with_fleet(
            FleetShape::default()
                .with_servers(6, 2)
                .with_shards(1)
                .with_stagger(30_000)
                .with_jitter(100),
        )
        .with_faults(FaultPlan::default().with_slow_consumers(200, 300))
        .with_seed(0xc11ec)
        .with_js_opts(lenient_js_opts())
}

#[test]
fn package_bytes_and_boot_layout_are_pinned() {
    let app = generate(&AppParams::tiny());
    let mix = RequestMix::new(&app, 0, 0);
    let run = profile_run(&app, &mix, 62, 22);
    let opts = JumpStartOptions::default();
    let pkg = build_package(
        SeederInputs {
            repo: &app.repo,
            tier: run.tier,
            ctx: run.ctx,
            unit_order: run.unit_order,
            requests: run.requests,
            region: 0,
            bucket: 0,
            seeder_id: 1,
            now_ms: 0,
        },
        &opts,
        &JitOptions::default(),
    );
    let bytes = pkg.serialize();
    let layouts: Vec<u64> = [1, 2]
        .iter()
        .map(|&threads| {
            consume_bytes(&app.repo, &bytes, JitOptions::default(), &opts, threads)
                .expect("healthy package boots")
                .engine
                .code_cache
                .layout_digest()
        })
        .collect();
    assert_eq!(
        crc32(&bytes),
        PACKAGE_CRC32,
        "serialized package bytes moved"
    );
    assert_eq!(layouts, [LAYOUT_DIGEST; 2], "boot code layout moved");
}

#[test]
fn deployment_and_warmup_reports_are_pinned() {
    let app = generate(&AppParams::tiny());
    let report = run_deployment(&app, &small_fleet());
    let warmup = crc32(report.warmup.to_json().as_bytes());
    assert_eq!(report.digest(), DEPLOY_DIGEST, "DeployReport digest moved");
    assert_eq!(warmup, WARMUP_JSON_CRC32, "WarmupReport JSON moved");
}

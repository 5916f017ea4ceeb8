//! The consumer workflow (Fig. 3c): deserialize → lint (and repair, if
//! the profile is stale) → preload → compile all optimized code through
//! the streaming work-stealing pipeline → ready to serve.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use analysis::{
    is_own_layer_order, lint_profile_with, repair_profile, LintOptions, ProfileView, RepairReport,
};
use bytecode::{ClassId, FuncId, Repo, StrId, UnitId};
use jit::{CtxProfile, JitEngine, JitOptions, TierProfile, WeightSource};
use vm::ClassTable;

use crate::chunk::{ChunkPool, LazyLoader, Manifest};
use crate::config::{FuncSort, JumpStartOptions, PropReorder};
use crate::package::{Poison, ProfilePackage};
use crate::pipeline::{self, BootStats, EarlyServe, PipelineJob, WorkerStats};
use crate::wire::WireError;

/// Consumer failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsumerError {
    /// The package failed to decode.
    Wire(WireError),
    /// The profile data triggered a (simulated) JIT compiler crash —
    /// §VI-A's widespread-bug scenario.
    JitCrash,
    /// The static linter found structural errors the stale-profile
    /// repairer could not fix — the package cannot describe this repo.
    InvalidProfile {
        /// Error-severity diagnostics remaining after repair.
        errors: usize,
        /// The first diagnostic, rendered.
        first: String,
    },
}

impl std::fmt::Display for ConsumerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsumerError::Wire(e) => write!(f, "package decode failed: {e}"),
            ConsumerError::JitCrash => write!(f, "JIT crashed while compiling profile data"),
            ConsumerError::InvalidProfile { errors, first } => {
                write!(
                    f,
                    "profile failed static lint ({errors} errors, unrepairable): {first}"
                )
            }
        }
    }
}

impl std::error::Error for ConsumerError {}

impl From<WireError> for ConsumerError {
    fn from(e: WireError) -> Self {
        ConsumerError::Wire(e)
    }
}

/// What a successful consumer boot produces: a fully-compiled engine plus
/// the state the executor needs (property slots, unit layout).
#[derive(Debug)]
pub struct ConsumerOutcome<'r> {
    /// The engine holding all optimized translations.
    pub engine: JitEngine<'r>,
    /// Physical slot per (class, property) under the installed layout.
    pub prop_slots: HashMap<(ClassId, StrId), u16>,
    /// Unit preload order applied.
    pub unit_order: Vec<UnitId>,
    /// Functions compiled to optimized code.
    pub compiled_funcs: usize,
    /// Bytes of optimized code emitted.
    pub compile_bytes: u64,
    /// Set when the package failed the structural lint and was repaired
    /// (stale counters remapped, dead entries pruned) before consumption.
    pub repair: Option<RepairReport>,
    /// Boot-phase timeline: decode, lint/repair, prop slots, per-worker
    /// translate busy/steal/stall, emit, bytes (the `jsboot` telemetry).
    /// Rendered from [`ConsumerOutcome::registry`].
    pub boot: BootStats,
    /// The per-boot metrics registry: the `boot.*` gauges behind `boot`,
    /// plus pipeline-time histograms (`pipeline.translate_ns`,
    /// `pipeline.emit_ns`) and the `pipeline.steals` counter. Fleet runs
    /// snapshot this per server and aggregate across the fleet.
    pub registry: telemetry::Registry,
}

/// The profile parts of a package after lint-and-repair, owned because
/// repair mutates them. `None` means the package was consumable as-is.
struct OwnedProfile {
    tier: TierProfile,
    ctx: CtxProfile,
    unit_order: Vec<UnitId>,
    prop_orders: Vec<(ClassId, Vec<StrId>)>,
    func_order: Vec<FuncId>,
}

/// Consumers hold every profile — fresh or repaired — to the Kirchhoff
/// flow-conservation standard: the stale matcher's count inference
/// produces flow-consistent counters by construction, so a violation
/// after repair means the package cannot describe this repo. Type
/// feasibility stays a warning: an impossible observation skews layout
/// but cannot feed garbage into translation.
const CONSUMER_LINT: LintOptions = LintOptions {
    flow_conservation: true,
    type_feasibility: false,
};

fn lint_errors(repo: &Repo, view: &ProfileView<'_>) -> usize {
    lint_profile_with(repo, view, &CONSUMER_LINT).error_count()
}

/// Mirrors a repair report into the boot registry as `repair.*` counters,
/// so fleet aggregation sees per-boot match-ladder quality alongside the
/// `boot.*` timeline.
fn record_repair(registry: &telemetry::Registry, report: &RepairReport) {
    let s = &report.stats;
    for (name, v) in [
        ("repair.funcs_repaired", report.repaired.len() as u64),
        ("repair.funcs_dropped", report.dropped.len() as u64),
        ("repair.counters_pruned", report.pruned as u64),
        ("repair.funcs_fresh", s.funcs_fresh),
        ("repair.funcs_renamed", s.funcs_renamed),
        ("repair.funcs_rebalanced", s.funcs_rebalanced),
        ("repair.blocks_exact", s.blocks_exact),
        ("repair.blocks_opcode", s.blocks_opcode),
        ("repair.blocks_neighbor", s.blocks_neighbor),
        ("repair.blocks_anchor", s.blocks_anchor),
        ("repair.blocks_inferred", s.blocks_inferred),
        ("repair.blocks_dropped", s.blocks_dropped),
        ("repair.mass_matched", s.mass_matched),
        ("repair.mass_dropped", s.mass_dropped),
        ("repair.branches_synthesized", s.branches_synthesized),
    ] {
        registry.counter(name).add(v);
    }
}

/// Repairs a package's profile against the current repo: remaps stale
/// block counters by structural hash, drops unrepairable functions,
/// prunes dangling/phantom entries and sanitizes the order lists.
fn repair_package(repo: &Repo, pkg: &ProfilePackage) -> (OwnedProfile, RepairReport) {
    let mut tier = pkg.tier.clone();
    let mut ctx = pkg.ctx.clone();
    let report = repair_profile(repo, &mut tier, &mut ctx);

    let mut seen_units = HashSet::new();
    let unit_order: Vec<UnitId> = pkg
        .preload
        .unit_order
        .iter()
        .copied()
        .filter(|u| u.index() < repo.units().len() && seen_units.insert(*u))
        .collect();
    let mut seen_funcs = HashSet::new();
    let func_order: Vec<FuncId> = pkg
        .func_order
        .iter()
        .copied()
        .filter(|f| f.index() < repo.funcs().len() && seen_funcs.insert(*f))
        .collect();
    let mut seen_classes = HashSet::new();
    let prop_orders: Vec<(ClassId, Vec<StrId>)> = pkg
        .prop_orders
        .iter()
        .filter(|(c, order)| {
            c.index() < repo.classes().len()
                && is_own_layer_order(repo, *c, order)
                && seen_classes.insert(*c)
        })
        .cloned()
        .collect();

    (
        OwnedProfile {
            tier,
            ctx,
            unit_order,
            prop_orders,
            func_order,
        },
        report,
    )
}

/// Resolves physical property slots for every class, honoring the
/// package's installed orders (or declared order with reordering off).
pub(crate) fn resolve_prop_slots(
    repo: &Repo,
    prop_orders: &[(ClassId, Vec<StrId>)],
    apply: bool,
) -> HashMap<(ClassId, StrId), u16> {
    let mut table = ClassTable::new(repo);
    if apply {
        table.install_prop_orders(prop_orders.iter().cloned());
    }
    let mut slots = HashMap::new();
    for class in repo.classes() {
        let rc = table.resolve(repo, class.id);
        for (&name, &slot) in &rc.layout.slot_by_name {
            slots.insert((class.id, name), slot as u16);
        }
    }
    slots
}

/// Runs the consumer boot sequence over a serialized package, timing the
/// decode into the boot telemetry ([`BootStats::decode_ns`]).
///
/// # Errors
///
/// As [`consume`], plus [`ConsumerError::Wire`] when decoding fails.
pub fn consume_bytes<'r>(
    repo: &'r Repo,
    data: &bytes::Bytes,
    jit_opts: JitOptions,
    opts: &JumpStartOptions,
    threads: usize,
) -> Result<ConsumerOutcome<'r>, ConsumerError> {
    let t0 = Instant::now();
    let decode_span = telemetry::span!("decode", "bytes" => data.len());
    let pkg = ProfilePackage::deserialize_shared(data)?;
    drop(decode_span);
    let decode_ns = t0.elapsed().as_nanos() as u64;
    let mut out = consume(repo, &pkg, jit_opts, opts, threads)?;
    out.boot.decode_ns = decode_ns;
    out.boot.total_ns += decode_ns;
    // Keep the registry view in sync — BootStats is rendered from it.
    out.registry.gauge("boot.decode_ns").set(decode_ns);
    out.registry.gauge("boot.total_ns").set(out.boot.total_ns);
    Ok(out)
}

/// Chunk-level accounting of a lazy consumer boot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkBootStats {
    /// Encoded manifest size (always fetched and decoded up front).
    pub manifest_bytes: u64,
    /// Total package payload bytes across all chunks.
    pub payload_bytes: u64,
    /// Chunk bytes decoded before serve-start: head + tail + the hot
    /// closure.
    pub hot_bytes: u64,
    /// Chunk bytes decoded in the background stage.
    pub cold_bytes: u64,
    /// Chunks decoded before serve-start.
    pub hot_chunks: usize,
    /// Chunks decoded in the background stage.
    pub cold_chunks: usize,
    /// Time spent decoding before serve-start (manifest-driven).
    pub hot_decode_ns: u64,
    /// Time spent decoding the cold tail in the background.
    pub cold_decode_ns: u64,
}

impl ChunkBootStats {
    /// Fraction of package payload bytes decoded before serve-start —
    /// the lazy-decode win (1.0 = the monolithic behavior).
    pub fn before_serve_frac(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 1.0;
        }
        self.hot_bytes as f64 / self.payload_bytes as f64
    }
}

/// Sums two worker-stat vectors elementwise (the two lazy-boot pipeline
/// stages run on the same logical workers).
fn merge_workers(a: Vec<WorkerStats>, b: Vec<WorkerStats>) -> Vec<WorkerStats> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = a;
    for (w, x) in out.iter_mut().zip(b) {
        w.translated += x.translated;
        w.stolen += x.stolen;
        w.busy_ns += x.busy_ns;
        w.steal_ns += x.steal_ns;
        w.stall_ns += x.stall_ns;
    }
    out
}

/// Runs the consumer boot sequence over a chunked package: decode the
/// manifest's hot closure, compile and serve, then decode and compile
/// the cold tail in the background — without ever materializing the
/// monolithic package.
///
/// With `opts.early_serve_frac < 1` only the chunks covering the hottest
/// fraction of heat mass (plus their transitive callees, so inlining
/// always finds callee profiles) are decoded before
/// serve-start; [`ChunkBootStats`] reports exactly how many bytes that
/// touched. The two pipeline stages emit in the same concatenated order
/// a monolithic boot would, so the code-cache layout is byte-identical.
///
/// The lazy path never lints or repairs — it is reserved for packages
/// whose manifest matches the running release (`repo_funcs`, per-record
/// name hashes). Anything stale fails fast with
/// [`ConsumerError::InvalidProfile`] and the boot controller falls back
/// to the monolithic lint-and-repair path.
///
/// # Errors
///
/// [`ConsumerError::Wire`] for missing/corrupt chunks,
/// [`ConsumerError::InvalidProfile`] for release mismatches, and
/// [`ConsumerError::JitCrash`] as in [`consume`].
pub fn consume_chunked<'r>(
    repo: &'r Repo,
    man: &Manifest,
    pool: &ChunkPool,
    jit_opts: JitOptions,
    opts: &JumpStartOptions,
    threads: usize,
) -> Result<(ConsumerOutcome<'r>, ChunkBootStats), ConsumerError> {
    let boot_start = Instant::now();
    let registry = telemetry::Registry::default();
    let _boot_span = telemetry::span!("consumer-boot-chunked", "threads" => threads.max(1));

    // Release guard: the manifest records which repo the profile was
    // collected against. Lazy decode skips lint/repair, so a package
    // from another release must not get this far.
    if man.repo_funcs as usize != repo.funcs().len() {
        return Err(ConsumerError::InvalidProfile {
            errors: 1,
            first: format!(
                "manifest built against a {}-function release, this repo has {}",
                man.repo_funcs,
                repo.funcs().len()
            ),
        });
    }

    let mut chunk_stats = ChunkBootStats {
        manifest_bytes: man.wire_len() as u64,
        payload_bytes: man.payload_len as u64,
        ..Default::default()
    };

    // Hot decode: head (meta, preload), tail (counters, ctx, orders).
    let hot_decode_start = Instant::now();
    let loader = LazyLoader::new(man, pool);
    let (meta, preload) = loader.decode_head()?;
    let mut tier = TierProfile::default();
    let (ctx, prop_orders, func_order) = loader.decode_tail(&mut tier)?;
    chunk_stats.hot_bytes += (man.entries[0].len + man.entries[man.entries.len() - 1].len) as u64;
    chunk_stats.hot_chunks += 2;

    let poison_crash = meta.poison == Poison::CompileCrash;
    if poison_crash && threads <= 1 {
        return Err(ConsumerError::JitCrash);
    }

    // Compile order and early-serve threshold straight off the manifest —
    // no function chunk has been decoded yet. Both computations mirror
    // the monolithic path exactly (`functions_by_heat` ordering,
    // `early_serve_prefix` threshold), so the two-stage emission below
    // concatenates to the same order a monolithic boot emits in.
    let order: Vec<FuncId> = if func_order.is_empty() || opts.func_sort == FuncSort::SourceOrder {
        man.funcs_by_heat()
    } else {
        func_order.clone()
    };
    let work: Vec<FuncId> = order
        .into_iter()
        .filter(|f| loader.entry_of(*f).is_some())
        .collect();
    let heat = man.heat_map();
    let hot_count = pipeline::early_serve_prefix_by_heat(&heat, &work, opts.early_serve_frac);

    // Decode the hot closure: the serve-start prefix plus every function
    // transitively reachable through its recorded call targets.
    let hot_entries = loader.hot_closure(work[..hot_count].iter().copied());
    for &i in &hot_entries {
        let e = &man.entries[i];
        if let crate::chunk::ChunkKind::Func { func, .. } = e.kind {
            if func.index() >= repo.funcs().len() {
                return Err(ConsumerError::InvalidProfile {
                    errors: 1,
                    first: format!("profile for {func:?} beyond this release"),
                });
            }
        }
    }
    chunk_stats.hot_bytes += loader.decode_funcs(&hot_entries, &mut tier)?;
    chunk_stats.hot_chunks += hot_entries.len();
    // Stale-record guard (cheap, in place of the full lint): a record
    // whose name hash disagrees with the current repo is from another
    // release even if the function count matches.
    for (&f, p) in &tier.funcs {
        if p.name_hash != 0 && p.name_hash != bytecode::fnv_str(repo.str(repo.func(f).name)) {
            return Err(ConsumerError::InvalidProfile {
                errors: 1,
                first: format!("profile for {f:?} names a different function"),
            });
        }
    }
    chunk_stats.hot_decode_ns = hot_decode_start.elapsed().as_nanos() as u64;

    // Property layout before any translation resolves slots (§V-C).
    let slots_start = Instant::now();
    let apply_props = opts.prop_reorder != PropReorder::Off;
    let prop_slots = resolve_prop_slots(repo, &prop_orders, apply_props);
    let prop_slots_ns = slots_start.elapsed().as_nanos() as u64;

    let weights = if opts.accurate_bb_weights {
        WeightSource::Accurate
    } else {
        WeightSource::TierOnly
    };
    let jit_opts = JitOptions {
        weights,
        ..jit_opts
    };
    let mut engine = JitEngine::new(repo, jit_opts);
    let resolver = |class: ClassId, name: StrId| prop_slots.get(&(class, name)).copied();

    // Stage 1: compile the serve-start prefix against the partial tier.
    // Each stage runs at frac 1.0 — the early-serve split is the stage
    // boundary itself.
    let r1 = {
        let job = PipelineJob {
            repo,
            tier: &tier,
            ctx: &ctx,
            work: work[..hot_count].to_vec(),
            jit_opts,
            resolver: &resolver,
            early_serve_frac: 1.0,
            poison_crash,
            metrics: registry.clone(),
        };
        pipeline::run(&job, &mut engine, threads).map_err(|()| ConsumerError::JitCrash)?
    };

    // Background: decode the cold tail, then compile it on the same
    // engine. Emission continues exactly where stage 1 stopped.
    let cold_decode_start = Instant::now();
    let all_entries = loader.all_func_entries();
    // `hot_closure` returns sorted indices.
    let cold_entries: Vec<usize> = all_entries
        .iter()
        .copied()
        .filter(|i| hot_entries.binary_search(i).is_err())
        .collect();
    chunk_stats.cold_bytes = loader.decode_funcs(&all_entries, &mut tier)?;
    chunk_stats.cold_chunks = cold_entries.len();
    chunk_stats.cold_decode_ns = cold_decode_start.elapsed().as_nanos() as u64;

    let r2 = {
        let job = PipelineJob {
            repo,
            tier: &tier,
            ctx: &ctx,
            work: work[hot_count..].to_vec(),
            jit_opts,
            resolver: &resolver,
            early_serve_frac: 1.0,
            poison_crash,
            metrics: registry.clone(),
        };
        pipeline::run(&job, &mut engine, threads).map_err(|()| ConsumerError::JitCrash)?
    };

    let compiled_funcs = r1.compiled_funcs + r2.compiled_funcs;
    let compile_bytes = r1.compile_bytes + r2.compile_bytes;
    let early_serve = if opts.early_serve_frac < 1.0 {
        Some(EarlyServe {
            frac: opts.early_serve_frac,
            ready_funcs: r1.compiled_funcs,
            ready_bytes: r1.compile_bytes,
            ready_ns: r1.pipeline_ns,
            background_funcs: r2.compiled_funcs,
            background_bytes: r2.compile_bytes,
        })
    } else {
        // Full-fraction boots report ready at the last unit, mirroring
        // the monolithic EmitTracker.
        r1.early_serve.map(|e| EarlyServe {
            ready_funcs: compiled_funcs,
            ready_bytes: compile_bytes,
            ready_ns: r1.pipeline_ns + r2.pipeline_ns,
            ..e
        })
    };

    let unit_order = if opts.preload_units {
        preload.unit_order
    } else {
        Vec::new()
    };
    let stats = BootStats {
        threads: threads.max(1),
        decode_ns: chunk_stats.hot_decode_ns,
        lint_repair_ns: 0,
        prop_slots_ns,
        pipeline_ns: r1.pipeline_ns + r2.pipeline_ns,
        emit_ns: r1.emit_ns + r2.emit_ns,
        emit_stall_ns: r1.emit_stall_ns + r2.emit_stall_ns,
        total_ns: boot_start.elapsed().as_nanos() as u64,
        compiled_funcs,
        compile_bytes,
        workers: merge_workers(r1.workers, r2.workers),
        early_serve,
    };
    for (name, v) in [
        ("chunk.manifest_bytes", chunk_stats.manifest_bytes),
        ("chunk.payload_bytes", chunk_stats.payload_bytes),
        ("chunk.hot_bytes", chunk_stats.hot_bytes),
        ("chunk.cold_bytes", chunk_stats.cold_bytes),
        ("chunk.hot_chunks", chunk_stats.hot_chunks as u64),
        ("chunk.cold_chunks", chunk_stats.cold_chunks as u64),
        ("chunk.hot_decode_ns", chunk_stats.hot_decode_ns),
        ("chunk.cold_decode_ns", chunk_stats.cold_decode_ns),
    ] {
        registry.counter(name).add(v);
    }
    stats.record(&registry);
    let boot = BootStats::from_registry(&registry);
    debug_assert_eq!(boot, stats);
    Ok((
        ConsumerOutcome {
            engine,
            prop_slots,
            unit_order,
            compiled_funcs,
            compile_bytes,
            repair: None,
            boot,
            registry,
        },
        chunk_stats,
    ))
}

/// Runs the consumer boot sequence over a deserialized package.
///
/// Translation runs on `threads` worker threads (the paper: "JITing
/// happens in parallel using all the cores", §IV-A), streaming completed
/// units through a reorder buffer into the emitter, which places them in
/// the package's function order *while translation continues* — the
/// resulting code-cache layout is byte-identical to a sequential boot.
/// With `opts.early_serve_frac < 1.0` the boot reports ready once the
/// hottest fraction of heat mass is emitted ([`BootStats::early_serve`]).
///
/// # Errors
///
/// Returns [`ConsumerError::JitCrash`] for compile-poisoned packages —
/// including when the (simulated) compiler bug panics a translation
/// worker thread, which is caught rather than aborting the boot.
pub fn consume<'r>(
    repo: &'r Repo,
    pkg: &ProfilePackage,
    jit_opts: JitOptions,
    opts: &JumpStartOptions,
    threads: usize,
) -> Result<ConsumerOutcome<'r>, ConsumerError> {
    let boot_start = Instant::now();
    let registry = telemetry::Registry::default();
    let _boot_span = telemetry::span!("consumer-boot", "threads" => threads.max(1));
    let poison_crash = pkg.meta.poison == Poison::CompileCrash;
    if poison_crash && threads <= 1 {
        // A sequential boot hits the compiler bug on the first unit; no
        // worker thread exists to catch a panic from.
        return Err(ConsumerError::JitCrash);
    }

    // Static lint first: refuse to feed structurally impossible profile
    // data into translation. A dirty package gets one repair attempt
    // (stale-counter remap + pruning) before the consumer gives up and
    // lets the boot controller fall back (§VI-A.3).
    let lint_start = Instant::now();
    let lint_span = telemetry::span!("lint-repair", "enabled" => opts.lint_repair);
    let mut repair = None;
    let owned: Option<OwnedProfile> = if opts.lint_repair
        && lint_errors(
            repo,
            &ProfileView {
                tier: &pkg.tier,
                ctx: &pkg.ctx,
                unit_order: &pkg.preload.unit_order,
                prop_orders: &pkg.prop_orders,
                func_order: &pkg.func_order,
            },
        ) > 0
    {
        let (fixed, report) = repair_package(repo, pkg);
        let relint = lint_profile_with(
            repo,
            &ProfileView {
                tier: &fixed.tier,
                ctx: &fixed.ctx,
                unit_order: &fixed.unit_order,
                prop_orders: &fixed.prop_orders,
                func_order: &fixed.func_order,
            },
            &CONSUMER_LINT,
        );
        if relint.error_count() > 0 {
            return Err(ConsumerError::InvalidProfile {
                errors: relint.error_count(),
                first: relint
                    .errors()
                    .next()
                    .map(ToString::to_string)
                    .unwrap_or_default(),
            });
        }
        record_repair(&registry, &report);
        repair = Some(report);
        Some(fixed)
    } else {
        None
    };
    let (tier, ctx): (&TierProfile, &CtxProfile) = match &owned {
        Some(o) => (&o.tier, &o.ctx),
        None => (&pkg.tier, &pkg.ctx),
    };
    let prop_orders: &[(ClassId, Vec<StrId>)] =
        owned.as_ref().map_or(&pkg.prop_orders, |o| &o.prop_orders);
    let pkg_func_order: &[FuncId] = owned.as_ref().map_or(&pkg.func_order, |o| &o.func_order);
    let pkg_unit_order: &[UnitId] = owned
        .as_ref()
        .map_or(&pkg.preload.unit_order, |o| &o.unit_order);
    let lint_repair_ns = lint_start.elapsed().as_nanos() as u64;
    drop(lint_span);

    // Property layout must be installed before any translation resolves
    // slots (the same ordering constraint HHVM has, §V-C).
    let slots_start = Instant::now();
    let slots_span = telemetry::span!("prop-slots", "orders" => prop_orders.len());
    let apply_props = opts.prop_reorder != PropReorder::Off;
    let prop_slots = resolve_prop_slots(repo, prop_orders, apply_props);
    drop(slots_span);
    let prop_slots_ns = slots_start.elapsed().as_nanos() as u64;

    let weights = if opts.accurate_bb_weights {
        WeightSource::Accurate
    } else {
        WeightSource::TierOnly
    };
    let jit_opts = JitOptions {
        weights,
        ..jit_opts
    };
    let mut engine = JitEngine::new(repo, jit_opts);

    let order: Vec<FuncId> = if pkg_func_order.is_empty() || opts.func_sort == FuncSort::SourceOrder
    {
        tier.functions_by_heat()
    } else {
        pkg_func_order.to_vec()
    };

    // The streaming pipeline: work-stealing translation feeding the
    // reorder-buffer emitter; emission order is exactly `order`.
    let resolver = |class: ClassId, name: StrId| prop_slots.get(&(class, name)).copied();
    let work: Vec<FuncId> = order
        .into_iter()
        .filter(|f| tier.funcs.contains_key(f))
        .collect();
    let job = PipelineJob {
        repo,
        tier,
        ctx,
        work,
        jit_opts,
        resolver: &resolver,
        early_serve_frac: opts.early_serve_frac,
        poison_crash,
        metrics: registry.clone(),
    };
    let result = pipeline::run(&job, &mut engine, threads).map_err(|()| ConsumerError::JitCrash)?;

    let unit_order = if opts.preload_units {
        pkg_unit_order.to_vec()
    } else {
        Vec::new()
    };
    let stats = BootStats {
        threads: threads.max(1),
        decode_ns: 0,
        lint_repair_ns,
        prop_slots_ns,
        pipeline_ns: result.pipeline_ns,
        emit_ns: result.emit_ns,
        emit_stall_ns: result.emit_stall_ns,
        total_ns: boot_start.elapsed().as_nanos() as u64,
        compiled_funcs: result.compiled_funcs,
        compile_bytes: result.compile_bytes,
        workers: result.workers,
        early_serve: result.early_serve,
    };
    // The registry is the source of truth; BootStats is the rendered
    // view. Recording then re-rendering must round-trip exactly.
    stats.record(&registry);
    let boot = BootStats::from_registry(&registry);
    debug_assert_eq!(boot, stats);
    Ok(ConsumerOutcome {
        engine,
        prop_slots,
        unit_order,
        compiled_funcs: result.compiled_funcs,
        compile_bytes: result.compile_bytes,
        repair,
        boot,
        registry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::PackageMeta;
    use crate::seeder::{build_package, SeederInputs};
    use jit::ProfileCollector;
    use vm::{Value, Vm};

    fn make_package() -> (Repo, ProfilePackage) {
        let src = r#"
            class P { public $cold = 0; public $hot = 0; }
            function work($x) {
                $o = new P();
                $o->hot = $x;
                return $o->hot * 2;
            }
            function main($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s += work($i); }
                return $s;
            }
        "#;
        let repo = hackc::compile_unit("c.hl", src).unwrap();
        let f = repo.func_by_name("main").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        for _ in 0..4 {
            vm.call_observed(f, &[Value::Int(30)], &mut col).unwrap();
            col.end_request();
        }
        let order = vm.loader().load_order();
        let (tier, ctx) = (col.tier, col.ctx);
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order: order,
                requests: 4,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        (repo, pkg)
    }

    #[test]
    fn consumer_compiles_everything_before_serving() {
        let (repo, pkg) = make_package();
        let out = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap();
        assert!(out.compiled_funcs >= 2, "main and work should be optimized");
        assert!(out.compile_bytes > 0);
        let main = repo.func_by_name("main").unwrap().id;
        assert!(out.engine.code_cache.translation(main).is_some());
    }

    #[test]
    fn parallel_consume_matches_sequential() {
        let (repo, pkg) = make_package();
        let seq = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap();
        let par = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            4,
        )
        .unwrap();
        assert_eq!(seq.compiled_funcs, par.compiled_funcs);
        assert_eq!(seq.compile_bytes, par.compile_bytes);
        // Byte-identical layout: the reorder buffer must place every
        // block at the same address a sequential boot would.
        assert_eq!(
            seq.engine.code_cache.layout_digest(),
            par.engine.code_cache.layout_digest()
        );
        assert_eq!(par.boot.threads, 4);
        assert_eq!(par.boot.workers.len(), 4);
        assert_eq!(
            par.boot.workers.iter().map(|w| w.translated).sum::<usize>(),
            par.compiled_funcs
        );
    }

    #[test]
    fn previous_wire_version_is_rejected_cleanly() {
        let (repo, pkg) = make_package();
        let mut old = pkg.serialize().to_vec();
        old[8..12].copy_from_slice(&5u32.to_le_bytes());
        let old = bytes::Bytes::from(old);
        let expected = WireError::BadVersion {
            found: 5,
            supported: 6,
        };
        assert_eq!(ProfilePackage::deserialize(&old), Err(expected.clone()));
        assert_eq!(
            ProfilePackage::deserialize_shared(&old),
            Err(expected.clone())
        );
        match consume_bytes(
            &repo,
            &old,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        ) {
            Err(err) => assert_eq!(err, ConsumerError::Wire(expected)),
            Ok(_) => panic!("a v5 envelope booted"),
        }
    }

    #[test]
    fn early_serve_reports_ready_before_full_boot() {
        let (repo, pkg) = make_package();
        let out = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions {
                early_serve_frac: 0.5,
                ..Default::default()
            },
            2,
        )
        .unwrap();
        let early = out.boot.early_serve.expect("threshold crossing recorded");
        assert!(early.ready_funcs >= 1);
        assert!(early.ready_funcs + early.background_funcs == out.compiled_funcs);
        assert!(early.ready_bytes + early.background_bytes == out.compile_bytes);
        assert!(
            early.ready_funcs < out.compiled_funcs,
            "remainder is background"
        );
        assert!(early.ready_ns <= out.boot.pipeline_ns);
        // The full boot still compiled everything (background completes
        // inside consume; the fleet model prices the overlap).
        assert_eq!(
            out.compile_bytes,
            consume(
                &repo,
                &pkg,
                JitOptions::default(),
                &JumpStartOptions::default(),
                1
            )
            .unwrap()
            .compile_bytes
        );
    }

    #[test]
    fn prop_reorder_changes_hot_slot() {
        let (repo, pkg) = make_package();
        let class = repo.class_by_name("P").unwrap().id;
        let hot = repo.str_id("hot").unwrap();
        let with = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap();
        let without = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions {
                prop_reorder: PropReorder::Off,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        assert_eq!(
            with.prop_slots[&(class, hot)],
            0,
            "hot property moves to slot 0"
        );
        assert_eq!(
            without.prop_slots[&(class, hot)],
            1,
            "declared order keeps slot 1"
        );
    }

    #[test]
    fn compile_poison_errors_out() {
        let (repo, mut pkg) = make_package();
        pkg.meta.poison = Poison::CompileCrash;
        let err = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap_err();
        assert_eq!(err, ConsumerError::JitCrash);
        let _ = PackageMeta::default();
    }

    #[test]
    fn compile_poison_panic_in_worker_is_caught() {
        // With threads > 1 the simulated compiler bug panics inside a
        // translation worker; the pipeline must catch it and surface a
        // JitCrash instead of aborting the process or hanging the
        // emitter on a disconnected channel.
        let (repo, mut pkg) = make_package();
        pkg.meta.poison = Poison::CompileCrash;
        for threads in [2, 4] {
            let err = consume(
                &repo,
                &pkg,
                JitOptions::default(),
                &JumpStartOptions::default(),
                threads,
            )
            .unwrap_err();
            assert_eq!(err, ConsumerError::JitCrash);
        }
    }

    fn chunked(pkg: &ProfilePackage, repo: &Repo) -> (crate::chunk::Manifest, ChunkPool) {
        let cp = crate::chunk::chunk_package(pkg, repo.funcs().len());
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        (cp.manifest, pool)
    }

    #[test]
    fn chunked_boot_matches_monolithic_layout() {
        let (repo, pkg) = make_package();
        let (man, pool) = chunked(&pkg, &repo);
        for frac in [1.0, 0.5, 0.25] {
            let opts = JumpStartOptions {
                early_serve_frac: frac,
                ..Default::default()
            };
            let mono = consume(&repo, &pkg, JitOptions::default(), &opts, 1).unwrap();
            for threads in [1, 4] {
                let (lazy, stats) =
                    consume_chunked(&repo, &man, &pool, JitOptions::default(), &opts, threads)
                        .unwrap();
                assert_eq!(
                    lazy.engine.code_cache.layout_digest(),
                    mono.engine.code_cache.layout_digest(),
                    "frac {frac} threads {threads}: two-stage emission must \
                     concatenate to the monolithic order"
                );
                assert_eq!(lazy.compiled_funcs, mono.compiled_funcs);
                assert_eq!(lazy.compile_bytes, mono.compile_bytes);
                assert_eq!(lazy.prop_slots, mono.prop_slots);
                assert_eq!(
                    stats.hot_bytes + stats.cold_bytes,
                    stats.payload_bytes,
                    "every chunk is decoded exactly once"
                );
            }
        }
    }

    /// A package where the hot function's call closure does NOT cover
    /// the cold functions, so lazy decode has a real cold tail.
    fn make_wide_package() -> (Repo, ProfilePackage) {
        let src = r#"
            function hot($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s += $i * 3; }
                return $s;
            }
            function cold_a($x) { return $x + 1; }
            function cold_b($x) { return $x * 2; }
            function cold_c($x) { return $x - 4; }
        "#;
        let repo = hackc::compile_unit("w.hl", src).unwrap();
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        let hot = repo.func_by_name("hot").unwrap().id;
        for _ in 0..6 {
            vm.call_observed(hot, &[Value::Int(50)], &mut col).unwrap();
            col.end_request();
        }
        for name in ["cold_a", "cold_b", "cold_c"] {
            let f = repo.func_by_name(name).unwrap().id;
            vm.call_observed(f, &[Value::Int(1)], &mut col).unwrap();
            col.end_request();
        }
        let order = vm.loader().load_order();
        let (tier, ctx) = (col.tier, col.ctx);
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order: order,
                requests: 9,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        (repo, pkg)
    }

    #[test]
    fn lazy_boot_decodes_only_hot_bytes_before_serve() {
        let (repo, pkg) = make_wide_package();
        let (man, pool) = chunked(&pkg, &repo);
        let opts = JumpStartOptions {
            early_serve_frac: 0.25,
            ..Default::default()
        };
        let (out, stats) =
            consume_chunked(&repo, &man, &pool, JitOptions::default(), &opts, 2).unwrap();
        assert!(
            stats.before_serve_frac() < 1.0,
            "a 0.25-frac boot must not touch the whole payload up front"
        );
        assert!(stats.cold_chunks > 0, "a cold tail exists");
        let early = out.boot.early_serve.expect("crossing recorded");
        assert!(early.ready_funcs < out.compiled_funcs);
        assert_eq!(
            early.ready_funcs + early.background_funcs,
            out.compiled_funcs
        );
        // Chunk counters surface in the boot registry for fleet rollup.
        assert_eq!(out.registry.value_u64("chunk.hot_bytes"), stats.hot_bytes);
        assert_eq!(
            out.registry.value_u64("chunk.cold_chunks"),
            stats.cold_chunks as u64
        );
    }

    #[test]
    fn chunked_boot_rejects_release_mismatch() {
        let (repo, pkg) = make_package();
        let cp = crate::chunk::chunk_package(&pkg, repo.funcs().len() + 1);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        let err = consume_chunked(
            &repo,
            &cp.manifest,
            &pool,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, ConsumerError::InvalidProfile { .. }));
    }

    #[test]
    fn chunked_boot_surfaces_missing_chunks_as_wire_errors() {
        let (repo, pkg) = make_package();
        let cp = crate::chunk::chunk_package(&pkg, repo.funcs().len());
        let mut pool = ChunkPool::new();
        // Drop one function chunk: the boot must fail with a wire error
        // (dangling chunk), which the boot controller treats like any
        // other corrupt download.
        for c in cp.chunks.iter().skip(1) {
            pool.insert(c);
        }
        let err = consume_chunked(
            &repo,
            &cp.manifest,
            &pool,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, ConsumerError::Wire(WireError::Corrupt(_))));
    }

    #[test]
    fn round_tripped_package_consumes_identically() {
        let (repo, pkg) = make_package();
        let bytes = pkg.serialize();
        let back = ProfilePackage::deserialize(&bytes).unwrap();
        let a = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap();
        let b = consume(
            &repo,
            &back,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap();
        assert_eq!(a.compile_bytes, b.compile_bytes);
        assert_eq!(a.prop_slots, b.prop_slots);
    }
}

//! Code-churn model: textual edits over generated application sources
//! that simulate a new release of the same app.
//!
//! The paper (§VII-C) keeps profiles across pushes precisely because most
//! of the code *didn't* change — Jump-Start's profile longevity depends on
//! recovering the unchanged majority. This module produces the "next
//! release" side of that experiment: starting from
//! [`appgen::build_sources`], it renames, deletes, inserts, reorders and
//! edits helper functions at a parameterized rate, then compiles the
//! result. A profile collected on the base release is then *stale*
//! against the churned repo in exactly the ways real pushes make profiles
//! stale: renumbered function ids, renamed functions with identical
//! bodies, inserted/removed blocks, and vanished callees.
//!
//! Invariants the model maintains:
//!
//! * `rate == 0.0` produces **byte-identical** sources (and therefore an
//!   identical repo): the no-churn release is the same release.
//! * Endpoints (`ep_{e}`) are never renamed or deleted — every release
//!   serves the same endpoint set, like a web app whose URLs are stable.
//! * Class units and mode helpers are untouched (layout churn is modeled
//!   elsewhere; this module models *code* churn).
//! * Deleted helpers redirect their call sites to a surviving same-level
//!   sibling, so the call depth contract (levels call downward) holds.
//! * The file set is fixed: files change content, never appear or vanish.

use crate::appgen::{self, App, AppParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Churn parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnParams {
    /// RNG seed; the same seed churns the same way.
    pub seed: u64,
    /// Churn rate in `[0, 1]`: the fraction-scale knob behind every edit
    /// probability. `0.0` is a no-op; `1.0` touches most helpers.
    pub rate: f64,
}

impl ChurnParams {
    /// A release with no code changes.
    pub fn none() -> Self {
        Self { seed: 0, rate: 0.0 }
    }
}

/// What the churn pass did to the sources.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Helper functions renamed (body identical, all call sites updated).
    pub funcs_renamed: usize,
    /// Helper functions deleted (call sites redirected to a sibling).
    pub funcs_deleted: usize,
    /// New, never-called helper functions inserted.
    pub funcs_inserted: usize,
    /// Files whose function order was shuffled (renumbers ids).
    pub files_reordered: usize,
    /// Rare branches inserted before a function's return (splits blocks).
    pub branches_inserted: usize,
    /// Cold error-path lines removed (merges blocks).
    pub cold_paths_removed: usize,
}

impl ChurnReport {
    /// Total function-level edits (the headline churn volume).
    pub fn total_edits(&self) -> usize {
        self.funcs_renamed
            + self.funcs_deleted
            + self.funcs_inserted
            + self.branches_inserted
            + self.cold_paths_removed
    }
}

/// What happens to one helper function.
#[derive(Clone, Copy, PartialEq)]
enum Fate {
    Keep,
    Rename,
    Delete,
}

/// One function's source text plus its parsed identity.
struct Chunk {
    name: String,
    text: String,
}

/// Generates the next release of the app: base sources, churned at
/// `churn.rate`, then compiled. `churn.rate == 0.0` reproduces the base
/// app exactly.
pub fn generate_release(params: &AppParams, churn: &ChurnParams) -> (App, ChurnReport) {
    let mut files = appgen::build_sources(params);
    let report = churn_sources(&mut files, churn);
    (appgen::compile_sources(params, &files), report)
}

/// Applies the churn model to a source file set in place. Deterministic
/// in `churn.seed`; a rate of `0.0` leaves every byte untouched.
pub fn churn_sources(files: &mut [(String, String)], churn: &ChurnParams) -> ChurnReport {
    let mut report = ChurnReport::default();
    if churn.rate <= 0.0 {
        return report;
    }
    let rate = churn.rate.min(1.0);
    let mut rng = SmallRng::seed_from_u64(churn.seed);

    // Split every churnable file (helpers + endpoints; classes and mode
    // helpers stay untouched) into per-function chunks.
    let churnable: Vec<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, (name, _))| is_helper_unit(name) || name.starts_with("ep_"))
        .map(|(i, _)| i)
        .collect();
    let mut chunks: Vec<Vec<Chunk>> = churnable
        .iter()
        .map(|&fi| split_funcs(&files[fi].1))
        .collect();

    // Pass 1: pick a fate for every *helper* function (endpoints always
    // keep). A helper is only deletable when its file keeps at least one
    // other function and its level keeps at least two siblings.
    let mut fates: Vec<Vec<Fate>> = Vec::with_capacity(chunks.len());
    for file in &chunks {
        let mut ff = Vec::with_capacity(file.len());
        for c in file {
            let fate = if helper_level(&c.name).is_none() {
                Fate::Keep
            } else {
                let r: f64 = rng.gen();
                if r < rate * 0.15 {
                    Fate::Delete
                } else if r < rate * 0.40 {
                    Fate::Rename
                } else {
                    Fate::Keep
                }
            };
            ff.push(fate);
        }
        fates.push(ff);
    }
    // Enforce the survivor guarantees: ≥2 keepers per level, ≥1 surviving
    // function per file.
    let mut keepers_per_level: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    for (file, ff) in chunks.iter().zip(&fates) {
        for (c, &fate) in file.iter().zip(ff) {
            if let Some(l) = helper_level(&c.name) {
                if fate != Fate::Delete {
                    *keepers_per_level.entry(l).or_insert(0) += 1;
                }
            }
        }
    }
    for (file, ff) in chunks.iter().zip(fates.iter_mut()) {
        let mut surviving = file
            .iter()
            .zip(ff.iter())
            .filter(|(_, &f)| f != Fate::Delete)
            .count();
        for (c, fate) in file.iter().zip(ff.iter_mut()) {
            if *fate != Fate::Delete {
                continue;
            }
            let l = helper_level(&c.name).expect("only helpers are deletable");
            let level_ok = keepers_per_level.get(&l).copied().unwrap_or(0) >= 2;
            if !level_ok || surviving == 0 {
                *fate = Fate::Keep;
                *keepers_per_level.entry(l).or_insert(0) += 1;
                surviving += 1;
            }
        }
    }

    // Survivor lists per level (for delete redirection) — keepers only,
    // so redirected names are never themselves rewritten again.
    let mut level_keepers: std::collections::HashMap<usize, Vec<String>> =
        std::collections::HashMap::new();
    for (file, ff) in chunks.iter().zip(&fates) {
        for (c, &fate) in file.iter().zip(ff) {
            if let Some(l) = helper_level(&c.name) {
                if fate == Fate::Keep {
                    level_keepers.entry(l).or_default().push(c.name.clone());
                }
            }
        }
    }

    // Build the global call-site rewrite map.
    let mut rewrites: Vec<(String, String)> = Vec::new();
    let mut rename_counter = 0usize;
    for (file, ff) in chunks.iter().zip(&fates) {
        for (c, &fate) in file.iter().zip(ff) {
            match fate {
                Fate::Keep => {}
                Fate::Rename => {
                    // `h…x…` never collides with the `f{l}_{i}` or
                    // `ep_{e}` namespaces.
                    let new = format!("h{}x{rename_counter}", &c.name[1..]);
                    rename_counter += 1;
                    rewrites.push((c.name.clone(), new));
                    report.funcs_renamed += 1;
                }
                Fate::Delete => {
                    let l = helper_level(&c.name).unwrap();
                    let keepers = &level_keepers[&l];
                    let survivor = keepers[rng.gen_range(0..keepers.len())].clone();
                    rewrites.push((c.name.clone(), survivor));
                    report.funcs_deleted += 1;
                }
            }
        }
    }

    // Pass 2: body edits on surviving chunks, drop deleted ones, shuffle
    // and insert per file. Inserted helpers are numbered past every
    // `qnew_<k>` an earlier churn of these sources added, so chained
    // churns never insert a duplicate name.
    let mut insert_counter = files
        .iter()
        .flat_map(|(_, src)| src.lines())
        .filter_map(|l| {
            l.strip_prefix("function qnew_")?
                .split('(')
                .next()?
                .parse()
                .ok()
        })
        .map(|k: usize| k + 1)
        .max()
        .unwrap_or(0);
    for ((file, ff), &fi) in chunks.iter_mut().zip(&fates).zip(&churnable) {
        let mut kept: Vec<Chunk> = Vec::with_capacity(file.len());
        for (mut c, &fate) in file.drain(..).zip(ff) {
            if fate == Fate::Delete {
                continue;
            }
            // Insert a never-taken branch before the return: the return
            // block splits and a new cold block appears.
            if rng.gen::<f64>() < rate * 0.5 {
                let guarded = "  if ($x % 1000003 == 999999) { $s = $s - 1; }\n  return $s;\n";
                if let Some(at) = c.text.find("  return $s;\n") {
                    c.text
                        .replace_range(at..at + "  return $s;\n".len(), guarded);
                    report.branches_inserted += 1;
                }
            }
            // Remove the rare slow-path line: its block merges away.
            if rng.gen::<f64>() < rate * 0.3 {
                if let Some(at) = c.text.find("  if ($x > 99") {
                    let end = c.text[at..].find('\n').map(|e| at + e + 1).unwrap_or(at);
                    c.text.replace_range(at..end, "");
                    report.cold_paths_removed += 1;
                }
            }
            kept.push(c);
        }
        // Shuffle the declaration order (renumbers every id that follows).
        if kept.len() >= 2 && rng.gen::<f64>() < rate {
            for i in (1..kept.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                kept.swap(i, j);
            }
            report.files_reordered += 1;
        }
        // Append a brand-new, never-called helper (only to helper files:
        // endpoints fan out, they don't grow leaves).
        if is_helper_unit(&files[fi].0) && rng.gen::<f64>() < rate * 0.4 {
            let n = insert_counter;
            insert_counter += 1;
            kept.push(Chunk {
                name: format!("qnew_{n}"),
                text: format!(
                    "function qnew_{n}($x) {{\n  $s = $x * 3 + {n};\n  if ($x % 5 == 0) {{ $s = $s + 7; }}\n  return $s;\n}}\n"
                ),
            });
            report.funcs_inserted += 1;
        }
        files[fi].1 = kept.iter().map(|c| c.text.as_str()).collect();
    }

    // Pass 3: apply the rewrite map everywhere (definitions were either
    // removed or are renamed right here along with their call sites —
    // `name(` matches both `function name(` and every call).
    if !rewrites.is_empty() {
        for &fi in &churnable {
            let mut src = std::mem::take(&mut files[fi].1);
            for (old, new) in &rewrites {
                let pat = format!("{old}(");
                if src.contains(&pat) {
                    src = src.replace(&pat, &format!("{new}("));
                }
            }
            files[fi].1 = src;
        }
    }

    report
}

/// Splits a generated unit into per-function chunks. Generated sources
/// put `function name(` at column 0 and the closing `}` on its own line.
fn split_funcs(src: &str) -> Vec<Chunk> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut name = String::new();
    for line in src.lines() {
        if let Some(rest) = line.strip_prefix("function ") {
            name = rest.split('(').next().unwrap_or("").to_string();
        }
        cur.push_str(line);
        cur.push('\n');
        if line == "}" {
            out.push(Chunk {
                name: std::mem::take(&mut name),
                text: std::mem::take(&mut cur),
            });
        }
    }
    debug_assert!(cur.is_empty(), "trailing non-function text in unit");
    out
}

/// `mod{level}_{n}.hl` units hold helpers; `modes.hl` (the mode helpers)
/// must not match.
fn is_helper_unit(name: &str) -> bool {
    name.strip_prefix("mod")
        .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
}

/// Parses `f{level}_{i}` → `level`; `None` for endpoints and inserts.
fn helper_level(name: &str) -> Option<usize> {
    let rest = name.strip_prefix('f')?;
    let (level, idx) = rest.split_once('_')?;
    idx.parse::<usize>().ok()?;
    level.parse::<usize>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{Value, Vm};

    #[test]
    fn zero_rate_is_byte_identical() {
        let params = AppParams::tiny();
        let base = appgen::build_sources(&params);
        let mut churned = appgen::build_sources(&params);
        let report = churn_sources(&mut churned, &ChurnParams { seed: 9, rate: 0.0 });
        assert_eq!(report, ChurnReport::default());
        assert_eq!(base, churned);
    }

    #[test]
    fn churn_is_deterministic() {
        let params = AppParams::tiny();
        let c = ChurnParams { seed: 3, rate: 0.3 };
        let mut a = appgen::build_sources(&params);
        let mut b = appgen::build_sources(&params);
        assert_eq!(churn_sources(&mut a, &c), churn_sources(&mut b, &c));
        assert_eq!(a, b);
    }

    #[test]
    fn churned_release_compiles_and_serves_every_endpoint() {
        let params = AppParams::tiny();
        let (app, report) = generate_release(&params, &ChurnParams { seed: 5, rate: 0.5 });
        assert!(report.total_edits() > 0, "rate 0.5 must churn something");
        bytecode::verify_repo(&app.repo).expect("churned bytecode verifies");
        assert_eq!(app.endpoints.len(), params.endpoints);
        let mut vm = Vm::new(&app.repo);
        for ep in &app.endpoints {
            for arg in [0i64, 3, 500, 999] {
                vm.call(ep.func, &[Value::Int(arg)])
                    .unwrap_or_else(|e| panic!("ep {:?} arg {arg}: {e}", ep.func));
            }
        }
    }

    #[test]
    fn chained_churns_never_repeat_a_function_name() {
        let params = AppParams::tiny();
        let mut files = appgen::build_sources(&params);
        let mut inserted = 0;
        for seed in [3, 4] {
            inserted += churn_sources(&mut files, &ChurnParams { seed, rate: 1.0 }).funcs_inserted;
        }
        assert!(inserted >= 2, "both churns must insert helpers");
        let app = appgen::compile_sources(&params, &files);
        let mut names: Vec<&str> = app
            .repo
            .funcs()
            .iter()
            .map(|f| app.repo.str(f.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a function name repeats");
    }

    #[test]
    fn churn_touches_every_axis_at_high_rate() {
        let params = AppParams::tiny();
        let mut files = appgen::build_sources(&params);
        let report = churn_sources(
            &mut files,
            &ChurnParams {
                seed: 11,
                rate: 1.0,
            },
        );
        assert!(report.funcs_renamed > 0, "{report:?}");
        assert!(report.funcs_deleted > 0, "{report:?}");
        assert!(report.funcs_inserted > 0, "{report:?}");
        assert!(report.files_reordered > 0, "{report:?}");
        assert!(report.branches_inserted > 0, "{report:?}");
        assert!(report.cold_paths_removed > 0, "{report:?}");
    }

    #[test]
    fn class_and_mode_units_are_never_touched() {
        let params = AppParams::tiny();
        let base = appgen::build_sources(&params);
        let mut churned = appgen::build_sources(&params);
        churn_sources(&mut churned, &ChurnParams { seed: 2, rate: 1.0 });
        for ((bn, bs), (cn, cs)) in base.iter().zip(&churned) {
            assert_eq!(bn, cn, "file set is fixed");
            if bn.starts_with("classes_") || bn == "modes.hl" {
                assert_eq!(bs, cs, "{bn} must be untouched");
            }
        }
    }

    #[test]
    fn file_set_is_fixed_and_no_file_is_emptied() {
        let params = AppParams::tiny();
        let base = appgen::build_sources(&params);
        let mut churned = appgen::build_sources(&params);
        churn_sources(&mut churned, &ChurnParams { seed: 7, rate: 1.0 });
        assert_eq!(base.len(), churned.len());
        for (name, src) in &churned {
            assert!(
                !src.trim().is_empty(),
                "{name} emptied by churn — ids past it would shift unrealistically"
            );
        }
    }
}

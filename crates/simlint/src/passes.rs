//! The four flow-aware workspace passes, built on [`crate::symbols`].
//!
//! Unlike the token lints in [`crate::lints`], these passes see the whole
//! workspace at once: struct field tables, the per-crate digest call
//! graph, and cross-crate call reachability.
//!
//! * **`digest-complete`** — every field of a digest-bearing struct (one
//!   with a `digest`/`state_digest`/`digest_into`/`epoch_digest` method)
//!   in a digest-audited crate must be mentioned somewhere in that
//!   struct's digest path: the digest methods themselves plus every
//!   same-crate function they transitively call. A field that never
//!   appears cannot be mixed into the epoch digest, which is exactly the
//!   silent-nondeterminism hole `run_with_restore` and digest-keyed
//!   results cannot tolerate. Derived/cache-only state is waived inline at
//!   the field declaration.
//! * **`rng-stream-discipline`** — every `SimRng::new(expr)` stream in
//!   sim code must be salted (`seed ^ SUBSYSTEM_SALT`) so no two
//!   subsystems share a stream; literal-only seeds must be unique across
//!   the workspace; and no public function outside `sim-core` may pass a
//!   raw `SimRng` across its boundary.
//! * **`counter-saturation`** — `u64` counter fields of `RunMetrics` and
//!   `*Stats` structs must be bumped with `saturating_add`, never raw
//!   `+`/`+=`: release builds do not overflow-check, and a silently
//!   wrapped counter poisons published results and digests.
//! * **`panic-reach`** — call-graph reachability from the protected mgpu
//!   hot paths: a `.unwrap()`/`.expect()` in *any* function a hot path can
//!   transitively reach (one crate over included) is a finding, closing
//!   the gap the purely syntactic `panic-freedom` lint leaves open.

use std::collections::{BTreeMap, BTreeSet};

use crate::symbols::{CallGraph, FnNode, Workspace};
use crate::lexer::TokKind;
use crate::{Config, Lint, Violation};

/// Runs every workspace pass over `ws`.
pub fn run(ws: &Workspace, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    digest_complete(ws, cfg, &mut out);
    rng_stream(ws, cfg, &mut out);
    counter_saturation(ws, cfg, &mut out);
    panic_reach(ws, cfg, &mut out);
    out
}

/// `digest-complete`: see module docs. One violation per undigested field,
/// reported at the field's declaration so the waiver lives next to it.
fn digest_complete(ws: &Workspace, cfg: &Config, out: &mut Vec<Violation>) {
    for crate_dir in &cfg.digest_crates {
        let unit_ids = ws.units_in(std::slice::from_ref(crate_dir));
        if unit_ids.is_empty() {
            continue;
        }
        let graph = CallGraph::build(ws, &unit_ids);
        // Digest roots per self type: fns named like a digest entry point.
        let mut roots_by_ty: BTreeMap<&str, Vec<FnNode>> = BTreeMap::new();
        for &ui in &unit_ids {
            for (fi, f) in ws.units[ui].hir.fns.iter().enumerate() {
                if f.in_test || !cfg.digest_fn_names.contains(&f.name) {
                    continue;
                }
                if let Some(ty) = f.self_ty.as_deref() {
                    roots_by_ty.entry(ty).or_default().push((ui, fi));
                }
            }
        }
        for &ui in &unit_ids {
            let unit = &ws.units[ui];
            for s in &unit.hir.structs {
                if s.in_test {
                    continue;
                }
                let Some(roots) = roots_by_ty.get(s.name.as_str()) else {
                    continue; // not digest-bearing: out of the lint's scope
                };
                let reach = graph.reachable(roots, false);
                let mut mentions: BTreeSet<&str> = BTreeSet::new();
                for &node in &reach {
                    let f = ws.fn_def(node);
                    mentions.extend(f.sig_idents.iter().map(String::as_str));
                    mentions.extend(f.body_idents.iter().map(|(id, _)| id.as_str()));
                }
                for field in &s.fields {
                    if !mentions.contains(field.name.as_str()) {
                        out.push(Violation {
                            lint: Lint::DigestComplete,
                            file: unit.ctx.rel_path.clone(),
                            line: field.line,
                            key: format!("undigested({}.{})", s.name, field.name),
                            message: format!(
                                "`{}.{}` never flows into `{}`'s digest path; mix it \
                                 (or waive it as derived/cache-only state) — an \
                                 undigested field is silent nondeterminism under \
                                 checkpoint/restore",
                                s.name, field.name, s.name
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// `rng-stream-discipline`: see module docs.
fn rng_stream(ws: &Workspace, cfg: &Config, out: &mut Vec<Violation>) {
    // Literal seed → every (unit, line) using it, for uniqueness checking.
    let mut literal_seeds: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    for (ui, unit) in ws.units.iter().enumerate() {
        if !cfg.rng_crates.contains(&unit.ctx.crate_dir)
            || unit.ctx.is_test_file
            || !unit.ctx.rel_path.contains("/src/")
            || unit.ctx.rel_path == cfg.rng_home
        {
            continue;
        }
        let toks = &unit.lexed.tokens;
        for i in 0..toks.len() {
            let is_ctor = toks[i].is_ident("SimRng")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('('));
            if !is_ctor || crate::lexer::in_regions(&unit.regions, toks[i].line) {
                continue;
            }
            // The constructor's argument tokens, to the matching `)`.
            let mut depth = 0i32;
            let mut j = i + 4;
            let mut has_ident = false;
            let mut has_xor = false;
            let mut lone_literal: Option<String> = None;
            let mut arg_toks = 0usize;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Punct('^') => has_xor = true,
                    TokKind::Ident(_) => {
                        has_ident = true;
                        arg_toks += 1;
                    }
                    TokKind::Num(n) => {
                        lone_literal = Some(n.replace('_', "").to_ascii_lowercase());
                        arg_toks += 1;
                    }
                    TokKind::Punct(_) => {}
                }
                j += 1;
            }
            let line = toks[i].line;
            if has_ident && !has_xor {
                out.push(Violation {
                    lint: Lint::RngStream,
                    file: unit.ctx.rel_path.clone(),
                    line,
                    key: "unsalted-stream".to_string(),
                    message: "`SimRng::new` over a shared seed without a subsystem \
                              salt (`seed ^ SUBSYSTEM_SALT`): two subsystems drawing \
                              from one stream entangle their replay"
                        .to_string(),
                });
            } else if !has_ident && arg_toks == 1 {
                if let Some(lit) = lone_literal {
                    literal_seeds.entry(lit).or_default().push((ui, line));
                }
            }
        }
        // Boundary check: a pub fn outside sim-core with `SimRng` in its
        // signature hands a raw stream across a module boundary.
        if unit.ctx.crate_dir != "crates/sim-core" {
            for f in &unit.hir.fns {
                if f.in_test || !f.is_pub {
                    continue;
                }
                if f.sig_idents.iter().any(|id| id == "SimRng") {
                    out.push(Violation {
                        lint: Lint::RngStream,
                        file: unit.ctx.rel_path.clone(),
                        line: f.line,
                        key: "rng-across-boundary".to_string(),
                        message: format!(
                            "`{}` passes a raw `SimRng` across a public boundary; \
                             fork a salted stream (`SimRng::new(seed ^ SALT)`) or \
                             take a seed instead",
                            f.name
                        ),
                    });
                }
            }
        }
    }
    for (lit, sites) in &literal_seeds {
        if sites.len() > 1 {
            for &(ui, line) in sites {
                out.push(Violation {
                    lint: Lint::RngStream,
                    file: ws.units[ui].ctx.rel_path.clone(),
                    line,
                    key: "shared-stream-seed".to_string(),
                    message: format!(
                        "literal seed `{lit}` constructs more than one `SimRng` \
                         stream; identical streams make independent subsystems \
                         draw correlated randomness"
                    ),
                });
            }
        }
    }
}

/// `counter-saturation`: see module docs.
fn counter_saturation(ws: &Workspace, cfg: &Config, out: &mut Vec<Violation>) {
    // The counter-field name set: u64 fields of RunMetrics / *Stats
    // structs anywhere in the sim-state crates.
    let mut counters: BTreeSet<&str> = BTreeSet::new();
    for unit in &ws.units {
        if !cfg.sim_state_crates.contains(&unit.ctx.crate_dir) {
            continue;
        }
        for s in &unit.hir.structs {
            if s.in_test || !(s.name == "RunMetrics" || s.name.ends_with("Stats")) {
                continue;
            }
            for f in &s.fields {
                if f.ty.iter().any(|t| t == "u64") {
                    counters.insert(f.name.as_str());
                }
            }
        }
    }
    if counters.is_empty() {
        return;
    }
    for unit in &ws.units {
        if !cfg.sim_state_crates.contains(&unit.ctx.crate_dir) || unit.ctx.is_test_file {
            continue;
        }
        let toks = &unit.lexed.tokens;
        for i in 1..toks.len() {
            let TokKind::Ident(name) = &toks[i].kind else { continue };
            let is_counter_add = toks[i - 1].is_punct('.')
                && counters.contains(name.as_str())
                && toks.get(i + 1).is_some_and(|t| t.is_punct('+'))
                && !crate::lexer::in_regions(&unit.regions, toks[i].line);
            if is_counter_add {
                out.push(Violation {
                    lint: Lint::CounterSaturation,
                    file: unit.ctx.rel_path.clone(),
                    line: toks[i].line,
                    key: format!("raw-add({name})"),
                    message: format!(
                        "raw `+` on counter field `{name}`; release builds do not \
                         overflow-check — use `saturating_add` so a hot counter \
                         can never wrap into a wrong published result"
                    ),
                });
            }
        }
    }
}

/// `panic-reach`: see module docs.
fn panic_reach(ws: &Workspace, cfg: &Config, out: &mut Vec<Violation>) {
    let unit_ids = ws.units_in(&cfg.reach_crates);
    if unit_ids.is_empty() {
        return;
    }
    let graph = CallGraph::build(ws, &unit_ids);
    let mut roots: Vec<FnNode> = Vec::new();
    for &ui in &unit_ids {
        let unit = &ws.units[ui];
        if !cfg.hot_path_files.contains(&unit.ctx.rel_path) {
            continue;
        }
        for (fi, f) in unit.hir.fns.iter().enumerate() {
            if !f.in_test {
                roots.push((ui, fi));
            }
        }
    }
    if roots.is_empty() {
        return;
    }
    for node in graph.reachable(&roots, true) {
        let unit = &ws.units[node.0];
        // The hot-path files themselves are the syntactic panic-freedom
        // lint's territory; this pass covers everything they can reach.
        if cfg.hot_path_files.contains(&unit.ctx.rel_path) {
            continue;
        }
        let f = ws.fn_def(node);
        for (kind, line) in &f.panics {
            out.push(Violation {
                lint: Lint::PanicReach,
                file: unit.ctx.rel_path.clone(),
                line: *line,
                key: format!("reach({}.{kind})", f.name),
                message: format!(
                    "`.{kind}()` in `{}` is reachable from the protected mgpu \
                     event loop via the call graph; a panic here tears down the \
                     run mid-event — degrade through `Result`/`Option` instead",
                    f.name
                ),
            });
        }
    }
}

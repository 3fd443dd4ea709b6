//! Model ↔ implementation conformance checking.
//!
//! The mc crate exports the CONTROL-line transition table
//! ([`lauberhorn_mc::transition_table`]): for every model action, the
//! protocol locations it reads and writes. This pass statically
//! extracts the same information from the implementation — the NIC
//! (`nic.rs`), the endpoint state machine (`endpoint.rs`), the
//! scheduler mirror, and the kernel-side shadow registry
//! (`os/health.rs`) — and cross-checks the two:
//!
//! * **modeled-but-unimplemented** — an `Impl`-kind model action whose
//!   bound functions (plus everything they transitively call) never
//!   touch a location the model says the action touches. This is how
//!   drift like a gutted `on_timeout` is caught: the model still says
//!   `timeout/tryagain` writes Park/Ctrl, the code no longer does.
//! * **implemented-but-unmodeled** — a non-test function that writes
//!   protocol state yet is neither bound to an action, reachable from
//!   a bound function, a shadow-registry maintainer, nor allowlisted.
//!   New protocol-mutating surface must come with a model action.
//!
//! Extraction is deliberately structural (field maps per `impl` type,
//! call-closure propagation, signature heuristics) — no annotations in
//! the checked sources. Environment-side accesses the implementation
//! cannot witness (the client keeping `Lost`, the recovery driver
//! answering in-flight fills) are declared per binding as `env_reads`
//! / `env_writes` with the justification inline below.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use lauberhorn_mc::races::Loc;
use lauberhorn_mc::table::{loc_name, transition_table, TransitionKind};

use crate::dataflow::{called_names, field_uses};
use crate::parse::{parse_functions, Function};
use crate::rules::{Rule, Violation};
use crate::scan::{scan, Token};

/// Which implementation file a source plays the part of. The roles
/// let tests substitute a mutant (e.g. `endpoint.rs` with
/// `on_timeout` gutted) for one file while keeping the rest of the
/// real tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `crates/nic-lauberhorn/src/nic.rs`
    Nic,
    /// `crates/nic-lauberhorn/src/endpoint.rs`
    Endpoint,
    /// `crates/nic-lauberhorn/src/sched_mirror.rs`
    Mirror,
    /// `crates/os/src/health.rs`
    Health,
}

/// One source file under conformance checking.
pub struct SourceFile {
    pub role: Role,
    /// Workspace-relative path (used in diagnostics).
    pub path: String,
    pub source: String,
}

/// Loads the real tree's four conformance sources from `root`.
pub fn real_tree_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    const FILES: &[(Role, &str)] = &[
        (Role::Nic, "crates/nic-lauberhorn/src/nic.rs"),
        (Role::Endpoint, "crates/nic-lauberhorn/src/endpoint.rs"),
        (Role::Mirror, "crates/nic-lauberhorn/src/sched_mirror.rs"),
        (Role::Health, "crates/os/src/health.rs"),
    ];
    FILES
        .iter()
        .map(|&(role, rel)| {
            Ok(SourceFile {
                role,
                path: rel.to_string(),
                source: std::fs::read_to_string(root.join(rel))?,
            })
        })
        .collect()
}

/// Protocol location a `self.<field>` maps to, per `impl` type. The
/// maps mirror the model's `Loc` space (see `mc::races`).
fn loc_of(impl_type: &str, field: &str) -> Option<Loc> {
    match (impl_type, field) {
        ("Endpoint", "expect") => Some(Loc::Ctrl),
        ("Endpoint", "parked") | ("Endpoint", "generation") => Some(Loc::Park),
        ("Endpoint", "queue") => Some(Loc::Queue),
        ("Endpoint", "outstanding") => Some(Loc::Outstanding),
        ("Endpoint", "retire_pending") => Some(Loc::Retire),
        ("ShadowRegistry", "services") | ("ShadowRegistry", "endpoints") => Some(Loc::Shadow),
        _ => None,
    }
}

/// Identifiers whose presence in a body marks a CONTROL-line hint
/// access (the load hint piggybacks on try-again / retire responses).
const HINT_MARKERS: &[&str] = &[
    "hint",
    "load_hint",
    "try_again_with_hint",
    "retire_with_hint",
];

/// `ShadowRegistry` mutators: collectively they *maintain* the shadow
/// copy of NIC-held OS state as the kernel creates and destroys
/// services/endpoints. The model treats this maintenance as part of
/// the enclosing kernel actions, so these functions are exempt from
/// implemented-but-unmodeled — but their existence (and that they
/// write Shadow) is asserted, mirroring what
/// `inject_skip_shadow_sync_bug` breaks dynamically.
const SHADOW_MAINTAINERS: &[&str] = &[
    "ShadowRegistry::record_service",
    "ShadowRegistry::record_method",
    "ShadowRegistry::record_endpoint",
    "ShadowRegistry::bind_endpoint",
    "ShadowRegistry::unbind_endpoint",
    "ShadowRegistry::forget_endpoint",
    "ShadowRegistry::forget_service",
];

/// Protocol-writing functions that are deliberately outside the model:
/// each entry carries its justification.
const UNMODELED_ALLOWLIST: &[(&str, &str)] = &[
    (
        "LauberhornNic::redeliver_to_kernel",
        "crash-salvage requeue; modeled in aggregate by nic/restore's collection model",
    ),
    (
        "LauberhornNic::drain_endpoint_queue",
        "teardown path; the model retires endpoints atomically",
    ),
    (
        "LauberhornNic::repair_stuck_endpoint",
        "fault-injection repair driver; only reachable from the test harness",
    ),
    (
        "LauberhornNic::pump_tenancy",
        "staged tenant-pipeline admission: all protocol writes happen via \
         handle_request (the bound inject/* realization); the pipeline itself \
         is arbitration delay, verified separately by mc::tenant's I10 model",
    ),
];

/// Binding of one `Impl`-kind model action to the functions that
/// realize it, with environment-side exemptions.
struct Binding {
    action: &'static str,
    /// Qualified function names; coverage is the union over all of
    /// them plus their call closures.
    fns: &'static [&'static str],
    /// Locations the model reads on this action but the checked
    /// sources cannot witness (client/driver side).
    env_reads: &'static [Loc],
    /// Same, for writes.
    env_writes: &'static [Loc],
}

const BINDINGS: &[Binding] = &[
    Binding {
        action: "inject/deliver",
        fns: &[
            "Endpoint::on_request",
            "LauberhornNic::on_request_frame",
            "LauberhornNic::handle_request",
        ],
        env_reads: &[],
        env_writes: &[],
    },
    Binding {
        action: "inject/queue",
        fns: &[
            "Endpoint::on_request",
            "LauberhornNic::on_request_frame",
            "LauberhornNic::handle_request",
        ],
        env_reads: &[],
        env_writes: &[],
    },
    Binding {
        action: "inject/shed",
        fns: &[
            "LauberhornNic::on_request_frame",
            "LauberhornNic::handle_request",
        ],
        env_reads: &[],
        env_writes: &[],
    },
    Binding {
        action: "timeout/tryagain",
        fns: &["Endpoint::on_timeout", "LauberhornNic::on_timeout"],
        env_reads: &[],
        env_writes: &[],
    },
    Binding {
        action: "retire/request",
        fns: &["Endpoint::retire", "LauberhornNic::retire_endpoint"],
        env_reads: &[],
        env_writes: &[],
    },
    Binding {
        action: "retire/deliver",
        fns: &[
            "Endpoint::retire",
            "Endpoint::on_load",
            "LauberhornNic::retire_endpoint",
        ],
        env_reads: &[],
        env_writes: &[],
    },
    Binding {
        action: "nic/reset",
        fns: &["LauberhornNic::reset"],
        env_reads: &[],
        // The RETIRE answer to an in-flight fill during a reset is
        // issued by the recovery driver, not by `Nic::reset` itself.
        env_writes: &[Loc::Ctrl],
    },
    Binding {
        action: "nic/restore",
        fns: &[
            "LauberhornNic::restore_protocol_state",
            "LauberhornNic::restore_endpoint",
        ],
        env_reads: &[],
        // Salvaged queue entries are requeued by the kernel-side
        // driver (`redeliver_to_kernel`), outside the restore fns.
        env_writes: &[Loc::Queue],
    },
    Binding {
        action: "core/load-other+deliver",
        fns: &["Endpoint::on_load", "LauberhornNic::on_core_load"],
        env_reads: &[],
        env_writes: &[],
    },
    Binding {
        action: "core/load-other+park",
        fns: &["Endpoint::on_load", "LauberhornNic::on_core_load"],
        env_reads: &[],
        env_writes: &[],
    },
    Binding {
        action: "core/reload+deliver",
        // The retransmit-side hint is read by the client library when
        // it picks the reload core, not inside the NIC.
        fns: &["Endpoint::on_load", "LauberhornNic::on_core_load"],
        env_reads: &[Loc::Hint],
        env_writes: &[],
    },
    Binding {
        action: "core/reload+park",
        fns: &["Endpoint::on_load", "LauberhornNic::on_core_load"],
        env_reads: &[Loc::Hint],
        env_writes: &[],
    },
];

/// Per-function extracted protocol accesses.
#[derive(Debug, Clone, Default)]
struct FnAccess {
    /// Locations used for binding coverage (field map + markers +
    /// signature heuristics), closed over callees.
    cover_reads: BTreeSet<Loc>,
    cover_writes: BTreeSet<Loc>,
    /// Locations used for unmodeled detection (field map + signature
    /// heuristics only — markers are too coarse to accuse with).
    strict_writes: BTreeSet<Loc>,
    /// Anchor for diagnostics.
    file: String,
    line: usize,
    in_test: bool,
    callees: Vec<String>,
}

fn sig_text<'a>(tokens: &'a [Token], f: &Function) -> Vec<&'a str> {
    tokens[f.sig.0..f.sig.1.min(tokens.len())]
        .iter()
        .map(|t| t.text.as_str())
        .collect()
}

/// Extracts direct accesses for every non-test function in `files`.
fn extract(files: &[(String, Vec<Token>, Vec<Function>)]) -> BTreeMap<String, FnAccess> {
    let mut out: BTreeMap<String, FnAccess> = BTreeMap::new();
    for (path, tokens, functions) in files {
        for f in functions {
            let qual = f.qualname();
            let ty = f.impl_type.as_deref().unwrap_or("");
            let mut acc = FnAccess {
                file: path.clone(),
                line: f.line,
                in_test: f.in_test,
                ..FnAccess::default()
            };
            for u in field_uses(tokens, f.body_inner()) {
                if let Some(loc) = loc_of(ty, &u.field) {
                    if u.write {
                        acc.cover_writes.insert(loc);
                        acc.strict_writes.insert(loc);
                    }
                    if !u.write || u.also_reads {
                        acc.cover_reads.insert(loc);
                    }
                }
            }
            // Marker heuristics (coverage tier only).
            let (bs, be) = f.body_inner();
            for t in &tokens[bs..be.min(tokens.len())] {
                let x = t.text.as_str();
                if x == "Respond" {
                    acc.cover_writes.insert(Loc::Ctrl);
                }
                if HINT_MARKERS.contains(&x) {
                    acc.cover_writes.insert(Loc::Hint);
                    acc.cover_reads.insert(Loc::Hint);
                }
            }
            // Signature heuristics: handing out `NicSalvage` publishes
            // NIC-held state to the kernel's shadow; consuming
            // `SalvagedEndpointState`/`NicSalvage` reads it back.
            let sig = sig_text(tokens, f);
            if let Some(arrow) = sig.windows(2).position(|w| w == ["-", ">"]) {
                if sig[arrow..].contains(&"NicSalvage") {
                    acc.cover_writes.insert(Loc::Shadow);
                    acc.strict_writes.insert(Loc::Shadow);
                }
                if sig[..arrow]
                    .iter()
                    .any(|&t| t == "SalvagedEndpointState" || t == "NicSalvage")
                {
                    acc.cover_reads.insert(Loc::Shadow);
                }
            } else if sig
                .iter()
                .any(|&t| t == "SalvagedEndpointState" || t == "NicSalvage")
            {
                acc.cover_reads.insert(Loc::Shadow);
            }
            acc.callees = called_names(tokens, f.body_inner())
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            out.insert(qual, acc);
        }
    }
    out
}

/// Closes cover/strict access sets over the call graph (bare-name
/// callee resolution) to a fixpoint.
fn close_over_calls(accs: &mut BTreeMap<String, FnAccess>) {
    let mut by_bare: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for q in accs.keys() {
        let bare = q.rsplit("::").next().unwrap_or(q).to_string();
        by_bare.entry(bare).or_default().push(q.clone());
    }
    let mut changed = true;
    while changed {
        changed = false;
        let keys: Vec<String> = accs.keys().cloned().collect();
        for key in keys {
            let callees = accs[&key].callees.clone();
            let mut cr = BTreeSet::new();
            let mut cw = BTreeSet::new();
            let mut sw = BTreeSet::new();
            for c in &callees {
                if let Some(qs) = by_bare.get(c) {
                    for q in qs {
                        if q == &key {
                            continue;
                        }
                        let a = &accs[q];
                        cr.extend(a.cover_reads.iter().copied());
                        cw.extend(a.cover_writes.iter().copied());
                        sw.extend(a.strict_writes.iter().copied());
                    }
                }
            }
            let a = accs.get_mut(&key).expect("present");
            let before = (
                a.cover_reads.len(),
                a.cover_writes.len(),
                a.strict_writes.len(),
            );
            a.cover_reads.extend(cr);
            a.cover_writes.extend(cw);
            a.strict_writes.extend(sw);
            if (
                a.cover_reads.len(),
                a.cover_writes.len(),
                a.strict_writes.len(),
            ) != before
            {
                changed = true;
            }
        }
    }
}

/// Function names reachable (by bare-name call edges) from the bound
/// set — these inherit the binding's model coverage.
fn reachable_from_bound(accs: &BTreeMap<String, FnAccess>) -> BTreeSet<String> {
    let mut by_bare: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for q in accs.keys() {
        let bare = q.rsplit("::").next().unwrap_or(q).to_string();
        by_bare.entry(bare).or_default().push(q.clone());
    }
    let mut seen: BTreeSet<String> = BTreeSet::new();
    // Roots: bound functions, plus the allowlisted drivers and shadow
    // maintainers — their helpers inherit the exemption.
    let mut work: Vec<String> = BINDINGS
        .iter()
        .flat_map(|b| b.fns.iter().map(|s| s.to_string()))
        .chain(UNMODELED_ALLOWLIST.iter().map(|(n, _)| n.to_string()))
        .chain(SHADOW_MAINTAINERS.iter().map(|s| s.to_string()))
        .collect();
    while let Some(q) = work.pop() {
        if !seen.insert(q.clone()) {
            continue;
        }
        if let Some(a) = accs.get(&q) {
            for c in &a.callees {
                if let Some(qs) = by_bare.get(c) {
                    for cq in qs {
                        if !seen.contains(cq) {
                            work.push(cq.clone());
                        }
                    }
                }
            }
        }
    }
    seen
}

fn locs(set: &BTreeSet<Loc>) -> String {
    set.iter()
        .map(|&l| loc_name(l))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Runs the conformance check over `files`. Returns violations with
/// `Rule::Conformance`, anchored in the checked sources.
pub fn check_conformance(files: &[SourceFile]) -> Vec<Violation> {
    let parsed: Vec<(String, Vec<Token>, Vec<Function>)> = files
        .iter()
        .map(|f| {
            let s = scan(&f.source);
            let fns = parse_functions(&s.tokens);
            (f.path.clone(), s.tokens, fns)
        })
        .collect();
    let mut accs = extract(&parsed);
    close_over_calls(&mut accs);

    let mut out = Vec::new();
    let fallback_file = files
        .iter()
        .find(|f| f.role == Role::Nic)
        .map(|f| f.path.clone())
        .unwrap_or_else(|| "crates/nic-lauberhorn/src/nic.rs".into());

    // ---- modeled-but-unimplemented -------------------------------
    let table = transition_table();
    for t in &table {
        if t.kind != TransitionKind::Impl {
            continue;
        }
        let Some(binding) = BINDINGS.iter().find(|b| b.action == t.action) else {
            out.push(Violation {
                file: fallback_file.clone(),
                line: 1,
                rule: Rule::Conformance,
                msg: format!(
                    "model action `{}` has no implementation binding; \
                     bind it in crates/lint/src/conformance.rs",
                    t.action
                ),
            });
            continue;
        };
        let mut cover_r: BTreeSet<Loc> = BTreeSet::new();
        let mut cover_w: BTreeSet<Loc> = BTreeSet::new();
        let mut anchor: Option<(String, usize)> = None;
        let mut missing_fns: Vec<&str> = Vec::new();
        for &fname in binding.fns {
            match accs.get(fname) {
                Some(a) => {
                    if anchor.is_none() {
                        anchor = Some((a.file.clone(), a.line));
                    }
                    cover_r.extend(a.cover_reads.iter().copied());
                    cover_w.extend(a.cover_writes.iter().copied());
                }
                None => missing_fns.push(fname),
            }
        }
        let (afile, aline) = anchor.unwrap_or((fallback_file.clone(), 1));
        if !missing_fns.is_empty() {
            out.push(Violation {
                file: afile.clone(),
                line: aline,
                rule: Rule::Conformance,
                msg: format!(
                    "model action `{}` binds to missing function(s) {}",
                    t.action,
                    missing_fns.join(", ")
                ),
            });
            continue;
        }
        // Lost is the client's request-in-flight — never NIC-visible.
        let env = |exempt: &[Loc], l: &Loc| *l == Loc::Lost || exempt.contains(l);
        let miss_w: BTreeSet<Loc> = t
            .writes
            .iter()
            .filter(|l| !env(binding.env_writes, l) && !cover_w.contains(l))
            .copied()
            .collect();
        let miss_r: BTreeSet<Loc> = t
            .reads
            .iter()
            .filter(|l| !env(binding.env_reads, l) && !cover_r.contains(l))
            .copied()
            .collect();
        if !miss_w.is_empty() {
            out.push(Violation {
                file: afile.clone(),
                line: aline,
                rule: Rule::Conformance,
                msg: format!(
                    "modeled-but-unimplemented: action `{}` writes [{}] in the model, \
                     but {} never write it",
                    t.action,
                    locs(&miss_w),
                    binding.fns.join(" / "),
                ),
            });
        }
        if !miss_r.is_empty() {
            out.push(Violation {
                file: afile,
                line: aline,
                rule: Rule::Conformance,
                msg: format!(
                    "modeled-but-unimplemented: action `{}` reads [{}] in the model, \
                     but {} never read it",
                    t.action,
                    locs(&miss_r),
                    binding.fns.join(" / "),
                ),
            });
        }
    }

    // ---- shadow maintenance --------------------------------------
    let shadow_writers = SHADOW_MAINTAINERS
        .iter()
        .filter(|m| {
            accs.get(**m)
                .is_some_and(|a| a.strict_writes.contains(&Loc::Shadow))
        })
        .count();
    if shadow_writers == 0 {
        let health = files
            .iter()
            .find(|f| f.role == Role::Health)
            .map(|f| f.path.clone())
            .unwrap_or_else(|| "crates/os/src/health.rs".into());
        out.push(Violation {
            file: health,
            line: 1,
            rule: Rule::Conformance,
            msg: "no ShadowRegistry maintainer writes the shadow copy; \
                  NIC-held OS state would be unrecoverable after a reset"
                .into(),
        });
    }

    // ---- implemented-but-unmodeled -------------------------------
    let reachable = reachable_from_bound(&accs);
    let bound: BTreeSet<&str> = BINDINGS
        .iter()
        .flat_map(|b| b.fns.iter().copied())
        .collect();
    for (qual, a) in &accs {
        if a.in_test || a.strict_writes.is_empty() {
            continue;
        }
        if bound.contains(qual.as_str()) || reachable.contains(qual) {
            continue;
        }
        if SHADOW_MAINTAINERS.contains(&qual.as_str()) {
            continue;
        }
        if UNMODELED_ALLOWLIST.iter().any(|(n, _)| n == qual) {
            continue;
        }
        out.push(Violation {
            file: a.file.clone(),
            line: a.line,
            rule: Rule::Conformance,
            msg: format!(
                "implemented-but-unmodeled: `{}` writes protocol state [{}] but is not \
                 bound to any model action (bind it, or allowlist with a justification)",
                qual,
                locs(&a.strict_writes),
            ),
        });
    }

    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

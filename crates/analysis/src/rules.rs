//! The four rule families plus the allow-directive grammar.
//!
//! Every rule works on the token stream of [`crate::model::FileModel`]; none
//! of them need type information. They are deliberately conservative
//! heuristics: over-approximate, then document the deliberate exceptions with
//! `// analysis:allow(<rule>, reason = "…")`.

use crate::lexer::{Comment, Tok, TokKind};
use crate::model::{FileModel, FnDef};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Stable rule identifiers, grouped by family.
pub mod rule_ids {
    /// Wall-clock reads (`Instant::now`, `SystemTime`, `sleep(`).
    pub const WALL_CLOCK: &str = "determinism::wall-clock";
    /// Ambient randomness (`thread_rng`, `from_entropy`, `OsRng`, `getrandom`).
    pub const AMBIENT_RAND: &str = "determinism::ambient-rand";
    /// Iteration-order-sensitive collections (`HashMap`, `HashSet`).
    pub const HASH_COLLECTIONS: &str = "determinism::hash-collections";
    /// `.unwrap()` on a message-handling path.
    pub const UNWRAP: &str = "panic-safety::unwrap";
    /// `.expect(…)` on a message-handling path.
    pub const EXPECT: &str = "panic-safety::expect";
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` on such a path.
    pub const PANIC: &str = "panic-safety::panic";
    /// Slice/array indexing (`x[i]`) on such a path.
    pub const INDEX: &str = "panic-safety::index";
    /// Taking a second lock while a guard is live (or in one statement).
    pub const NESTED_LOCK: &str = "lock-discipline::nested-lock";
    /// A blocking channel send while a lock guard is live.
    pub const SEND_UNDER_LOCK: &str = "lock-discipline::send-under-lock";
    /// A blocking thread join while a lock guard is live.
    pub const JOIN_UNDER_LOCK: &str = "lock-discipline::join-under-lock";
    /// A `*Msg` variant never matched by name in a same-file `on_message`.
    pub const UNHANDLED_VARIANT: &str = "wire-hygiene::unhandled-variant";
    /// An `analysis:allow` directive that does not parse or lacks a reason.
    pub const MALFORMED_ALLOW: &str = "meta::malformed-allow";
    /// An `analysis:allow` directive that matched no finding.
    pub const UNUSED_ALLOW: &str = "meta::unused-allow";
}

/// Which rule families to run over a crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// Forbid wall clock, ambient randomness and hash-order collections.
    pub determinism: bool,
    /// Forbid panicking constructs on message-handling paths.
    pub panic_safety: bool,
    /// Flag nested locks, channel sends and thread joins under a live guard.
    pub lock_discipline: bool,
    /// Require `*Msg` variants to be handled by name.
    pub wire_hygiene: bool,
}

impl RuleSet {
    /// All four families enabled.
    pub fn all() -> RuleSet {
        RuleSet {
            determinism: true,
            panic_safety: true,
            lock_discipline: true,
            wire_hygiene: true,
        }
    }

    /// No families enabled (the crate is exempt).
    pub fn none() -> RuleSet {
        RuleSet::default()
    }

    /// Returns `true` if no family is enabled.
    pub fn is_empty(&self) -> bool {
        !(self.determinism || self.panic_safety || self.lock_discipline || self.wire_hygiene)
    }
}

/// One source file of the crate under analysis.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes), used in findings.
    pub path: String,
    /// The structural model of the file.
    pub model: FileModel,
}

/// Runs every enabled rule family over the files of one crate and returns the
/// raw findings (allow-directives not yet applied).
pub fn run(files: &[SourceFile], rules: &RuleSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    if rules.determinism {
        for f in files {
            determinism(f, &mut findings);
        }
    }
    if rules.panic_safety {
        panic_safety(files, &mut findings);
    }
    if rules.lock_discipline {
        for f in files {
            lock_discipline(f, &mut findings);
        }
    }
    if rules.wire_hygiene {
        for f in files {
            wire_hygiene(f, &mut findings);
        }
    }
    findings
}

fn finding(rule: &str, file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: file.path.clone(),
        line,
        message,
        allowed: None,
    }
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

/// Scans every non-test token for wall-clock, ambient-randomness and
/// hash-collection uses.
fn determinism(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.model.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.model.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |c: char| toks.get(i + 1).is_some_and(|t| t.is_punct(c));
        match t.text.as_str() {
            "SystemTime" => out.push(finding(
                rule_ids::WALL_CLOCK,
                file,
                t.line,
                "uses SystemTime; deterministic code must take time from the simulated clock"
                    .to_string(),
            )),
            "Instant"
                if next_is(':')
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("now")) =>
            {
                out.push(finding(
                    rule_ids::WALL_CLOCK,
                    file,
                    t.line,
                    "calls Instant::now(); deterministic code must take time from the simulated clock"
                        .to_string(),
                ));
            }
            "sleep" if next_is('(') => out.push(finding(
                rule_ids::WALL_CLOCK,
                file,
                t.line,
                "calls sleep(); deterministic code must not block on the wall clock".to_string(),
            )),
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => out.push(finding(
                rule_ids::AMBIENT_RAND,
                file,
                t.line,
                format!(
                    "uses ambient randomness (`{}`); seed an explicit StdRng instead",
                    t.text
                ),
            )),
            "HashMap" | "HashSet" | "RandomState" => out.push(finding(
                rule_ids::HASH_COLLECTIONS,
                file,
                t.line,
                format!(
                    "uses `{}`, whose iteration order is seed-dependent; use BTreeMap/BTreeSet",
                    t.text
                ),
            )),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// panic-safety
// ---------------------------------------------------------------------------

/// Returns `true` if a function by this name is a panic-safety seed: it
/// consumes peer input directly (`on_message`, the real-time node's
/// `node_loop`, a socket reader's `serve_connection`) or sits on a
/// decode/digest path.
fn is_seed_name(name: &str) -> bool {
    matches!(name, "on_message" | "node_loop" | "serve_connection")
        || name.contains("decode")
        || name.contains("digest")
}

/// Flags panicking constructs in every function reachable (by name, within
/// the crate) from a seed function. The call graph is name-based and
/// over-approximate: any `ident(`/`​.ident(` whose name matches a crate-local
/// function counts as a call edge.
fn panic_safety(files: &[SourceFile], out: &mut Vec<Finding>) {
    // name -> definitions across the crate
    let mut defs: BTreeMap<&str, Vec<(usize, &FnDef)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for d in &f.model.functions {
            defs.entry(d.name.as_str()).or_default().push((fi, d));
        }
    }

    let mut reachable: BTreeSet<&str> = BTreeSet::new();
    let mut worklist: Vec<&str> = defs.keys().copied().filter(|n| is_seed_name(n)).collect();
    while let Some(name) = worklist.pop() {
        if !reachable.insert(name) {
            continue;
        }
        for &(fi, d) in defs.get(name).into_iter().flatten() {
            let toks = &files[fi].model.tokens;
            for k in d.body.0..d.body.1 {
                if toks[k].kind == TokKind::Ident
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                {
                    let callee = toks[k].text.as_str();
                    if defs.contains_key(callee) && !reachable.contains(callee) {
                        worklist.push(callee);
                    }
                }
            }
        }
    }

    for name in &reachable {
        for &(fi, d) in defs.get(name).into_iter().flatten() {
            scan_fn_for_panics(&files[fi], d, out);
        }
    }
}

/// Flags `.unwrap()`, `.expect(`, panicking macros and slice indexing inside
/// one function body.
fn scan_fn_for_panics(file: &SourceFile, def: &FnDef, out: &mut Vec<Finding>) {
    let toks = &file.model.tokens;
    let reach = format!("`{}` is reachable from a message-handling path", def.name);
    for k in def.body.0..def.body.1 {
        let t = &toks[k];
        let next_is = |c: char| toks.get(k + 1).is_some_and(|t| t.is_punct(c));
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        match t.kind {
            TokKind::Ident if prev.is_some_and(|p| p.is_punct('.')) && next_is('(') => {
                match t.text.as_str() {
                    "unwrap" => out.push(finding(
                        rule_ids::UNWRAP,
                        file,
                        t.line,
                        format!("calls .unwrap(); {reach} and must return a typed error"),
                    )),
                    "expect" => out.push(finding(
                        rule_ids::EXPECT,
                        file,
                        t.line,
                        format!("calls .expect(); {reach} and must return a typed error"),
                    )),
                    _ => {}
                }
            }
            TokKind::Ident
                if next_is('!')
                    && matches!(
                        t.text.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) =>
            {
                out.push(finding(
                    rule_ids::PANIC,
                    file,
                    t.line,
                    format!(
                        "invokes {}!; {reach} and must not abort the replica",
                        t.text
                    ),
                ));
            }
            TokKind::Punct('[')
                if prev.is_some_and(|p| {
                    p.kind == TokKind::Ident || p.is_punct(')') || p.is_punct(']')
                }) =>
            {
                out.push(finding(
                    rule_ids::INDEX,
                    file,
                    t.line,
                    format!(
                        "indexes a slice/map; {reach} and must use .get() on peer-derived indices"
                    ),
                ));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

/// Flags, per function, a second `.lock()` taken while a guard is live (or in
/// the same statement), plus a `.send(` or a `.join(` under the same
/// conditions. Joins matter for the thread-spawning engines: blocking on a thread
/// handle while holding a shared-state guard deadlocks as soon as the joined
/// thread needs that same lock to make progress.
///
/// Guard tracking is statement-shaped: `let g = …​.lock();` creates a guard
/// that lives until its enclosing block closes or a bare `drop(g);` runs.
/// Statements reset at `;` and at match-arm commas; braces do *not* reset the
/// in-statement lock count, so temporaries in `if let`/`while let`/`match`
/// scrutinees (which outlive the body in Rust 2021) are still seen.
fn lock_discipline(file: &SourceFile, out: &mut Vec<Finding>) {
    for def in &file.model.functions {
        lock_discipline_fn(file, def, out);
    }
}

fn lock_discipline_fn(file: &SourceFile, def: &FnDef, out: &mut Vec<Finding>) {
    let toks = &file.model.tokens;
    let mut guards: Vec<usize> = Vec::new(); // brace depth at creation
    let mut match_bodies: Vec<usize> = Vec::new(); // brace depths of match bodies
    let mut pending_match = false;
    let mut depth = 0usize;
    let mut pdepth = 0usize;
    let mut stmt_locks = 0usize;
    let mut stmt_is_let = false;
    let mut stmt_start = def.body.0;

    let mut k = def.body.0;
    while k < def.body.1 {
        let t = &toks[k];
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => pdepth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => pdepth = pdepth.saturating_sub(1),
            TokKind::Punct('{') => {
                depth += 1;
                if pending_match && pdepth == 0 {
                    match_bodies.push(depth);
                    pending_match = false;
                }
            }
            TokKind::Punct('}') => {
                if match_bodies.last() == Some(&depth) {
                    match_bodies.pop();
                }
                guards.retain(|&d| d != depth);
                depth = depth.saturating_sub(1);
            }
            TokKind::Punct(';') if pdepth == 0 => {
                if stmt_is_let && ends_with_lock_call(toks, stmt_start, k) {
                    guards.push(depth);
                }
                if is_drop_stmt(toks, stmt_start, k) {
                    guards.pop();
                }
                stmt_locks = 0;
                stmt_is_let = false;
                stmt_start = k + 1;
            }
            TokKind::Punct(',') if pdepth == 0 && match_bodies.last() == Some(&depth) => {
                stmt_locks = 0;
                stmt_is_let = false;
                stmt_start = k + 1;
            }
            TokKind::Ident => match t.text.as_str() {
                "let" => stmt_is_let = true,
                "match" => pending_match = true,
                "lock"
                    if k > def.body.0
                        && toks[k - 1].is_punct('.')
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('(')) =>
                {
                    if !guards.is_empty() || stmt_locks > 0 {
                        out.push(finding(
                                rule_ids::NESTED_LOCK,
                                file,
                                t.line,
                                format!(
                                    "`{}` takes a lock while another guard is live; split the critical sections",
                                    def.name
                                ),
                            ));
                    }
                    stmt_locks += 1;
                }
                "send"
                    if k > def.body.0
                        && toks[k - 1].is_punct('.')
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                        && (!guards.is_empty() || stmt_locks > 0) =>
                {
                    out.push(finding(
                        rule_ids::SEND_UNDER_LOCK,
                        file,
                        t.line,
                        format!(
                            "`{}` performs a blocking channel send while a lock guard is live",
                            def.name
                        ),
                    ));
                }
                "join"
                    if k > def.body.0
                        && toks[k - 1].is_punct('.')
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                        && (!guards.is_empty() || stmt_locks > 0) =>
                {
                    out.push(finding(
                        rule_ids::JOIN_UNDER_LOCK,
                        file,
                        t.line,
                        format!(
                            "`{}` blocks on a thread join while a lock guard is live; \
                             the joined thread deadlocks if it needs that lock",
                            def.name
                        ),
                    ));
                }
                _ => {}
            },
            _ => {}
        }
        k += 1;
    }
}

/// Returns `true` if the statement `toks[start..semi]` ends with `.lock()` —
/// i.e. the bound value *is* the guard.
fn ends_with_lock_call(toks: &[Tok], start: usize, semi: usize) -> bool {
    semi >= start + 4
        && toks[semi - 1].is_punct(')')
        && toks[semi - 2].is_punct('(')
        && toks[semi - 3].is_ident("lock")
        && toks[semi - 4].is_punct('.')
}

/// Returns `true` if the statement is exactly `drop(<ident>)`.
fn is_drop_stmt(toks: &[Tok], start: usize, semi: usize) -> bool {
    semi == start + 4
        && toks[start].is_ident("drop")
        && toks[start + 1].is_punct('(')
        && toks[start + 2].kind == TokKind::Ident
        && toks[start + 3].is_punct(')')
}

// ---------------------------------------------------------------------------
// wire-hygiene
// ---------------------------------------------------------------------------

/// For every `*Msg` enum declared in the file: each variant must appear as
/// `Enum::Variant` inside a same-file `on_message` body.
fn wire_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    for e in &file.model.enums {
        for (variant, vline) in &e.variants {
            let handled = file
                .model
                .fns_named("on_message")
                .any(|f| has_path_seq(&file.model.tokens, f.body, &e.name, variant));
            if !handled {
                out.push(finding(
                    rule_ids::UNHANDLED_VARIANT,
                    file,
                    *vline,
                    format!(
                        "variant `{}::{}` is never matched by name in a same-file on_message",
                        e.name, variant
                    ),
                ));
            }
        }
    }
}

/// Returns `true` if the token sequence `first :: second` occurs inside the
/// body range.
fn has_path_seq(toks: &[Tok], body: (usize, usize), first: &str, second: &str) -> bool {
    (body.0..body.1.saturating_sub(3)).any(|k| {
        toks[k].is_ident(first)
            && toks[k + 1].is_punct(':')
            && toks[k + 2].is_punct(':')
            && toks[k + 3].is_ident(second)
    })
}

// ---------------------------------------------------------------------------
// allow-directives
// ---------------------------------------------------------------------------

/// A parsed `// analysis:allow(<rule>, reason = "…")` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The rule id or family name being allowed.
    pub rule: String,
    /// The mandatory human-readable justification.
    pub reason: String,
    /// 1-based line the directive's comment starts on.
    pub line: u32,
    /// `true` if the comment trails code (targets its own line rather than
    /// the next).
    pub trailing: bool,
    /// `true` if the directive did not parse or the reason was missing/empty.
    pub malformed: bool,
}

/// Extracts every allow-directive from a file's comments.
pub fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let Some(idx) = c.text.find("analysis:allow") else {
            continue;
        };
        let rest = c.text[idx + "analysis:allow".len()..].trim_start();
        out.push(parse_allow_body(rest, c.line, c.trailing));
    }
    out
}

/// Parses the `(<rule>, reason = "…")` tail of a directive.
fn parse_allow_body(rest: &str, line: u32, trailing: bool) -> Allow {
    let malformed = Allow {
        rule: String::new(),
        reason: String::new(),
        line,
        trailing,
        malformed: true,
    };
    let Some(rest) = rest.strip_prefix('(') else {
        return malformed;
    };
    let Some(close) = rest.rfind(')') else {
        return malformed;
    };
    let inner = &rest[..close];
    let Some((rule, reason_part)) = inner.split_once(',') else {
        return malformed;
    };
    let rule = rule.trim();
    let reason_part = reason_part.trim();
    let Some(eq) = reason_part.strip_prefix("reason") else {
        return malformed;
    };
    let Some(quoted) = eq.trim_start().strip_prefix('=') else {
        return malformed;
    };
    let quoted = quoted.trim();
    let Some(body) = quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"')) else {
        return malformed;
    };
    if rule.is_empty() || body.trim().is_empty() {
        return malformed;
    }
    Allow {
        rule: rule.to_string(),
        reason: body.to_string(),
        line,
        trailing,
        malformed: false,
    }
}

/// Returns `true` if the allow's rule string covers the finding's rule id —
/// either an exact match or the whole family.
fn allow_covers(allow_rule: &str, finding_rule: &str) -> bool {
    allow_rule == finding_rule || finding_rule.split("::").next() == Some(allow_rule)
}

/// Applies a file's allow-directives to its findings in place, marking
/// matched findings as allowed. Returns the meta findings: malformed
/// directives and directives that matched nothing.
pub fn apply_allows(findings: &mut [Finding], allows: &[Allow], path: &str) -> Vec<Finding> {
    let mut meta = Vec::new();
    for a in allows {
        if a.malformed {
            meta.push(Finding {
                rule: rule_ids::MALFORMED_ALLOW.to_string(),
                file: path.to_string(),
                line: a.line,
                message: "analysis:allow directive must be `analysis:allow(<rule>, reason = \"…\")` with a non-empty reason".to_string(),
                allowed: None,
            });
            continue;
        }
        let target = if a.trailing { a.line } else { a.line + 1 };
        let mut used = false;
        for f in findings.iter_mut() {
            if f.file == path
                && f.line == target
                && f.allowed.is_none()
                && allow_covers(&a.rule, &f.rule)
            {
                f.allowed = Some(a.reason.clone());
                used = true;
            }
        }
        if !used {
            meta.push(Finding {
                rule: rule_ids::UNUSED_ALLOW.to_string(),
                file: path.to_string(),
                line: a.line,
                message: format!(
                    "analysis:allow({}) matched no finding on line {target}; remove it",
                    a.rule
                ),
                allowed: None,
            });
        }
    }
    meta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            path: "test.rs".to_string(),
            model: FileModel::build(src),
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn determinism_flags_clock_rand_and_hash() {
        let f = file(
            "fn a() { let t = Instant::now(); }\n\
             fn b() { let mut m: HashMap<u32, u32> = HashMap::new(); m.len(); }\n\
             fn c() { let r = thread_rng(); }\n",
        );
        let found = run(
            std::slice::from_ref(&f),
            &RuleSet {
                determinism: true,
                ..RuleSet::none()
            },
        );
        assert_eq!(
            rules_of(&found),
            vec![
                rule_ids::WALL_CLOCK,
                rule_ids::HASH_COLLECTIONS,
                rule_ids::HASH_COLLECTIONS,
                rule_ids::AMBIENT_RAND,
            ]
        );
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn panic_safety_follows_the_call_graph() {
        let f = file(
            "fn on_message(x: &[u8]) { helper(x); }\n\
             fn helper(x: &[u8]) { let _ = x[0]; }\n\
             fn unrelated(x: &[u8]) { x.first().unwrap(); }\n",
        );
        let found = run(
            std::slice::from_ref(&f),
            &RuleSet {
                panic_safety: true,
                ..RuleSet::none()
            },
        );
        // helper is reachable from on_message; unrelated is not
        assert_eq!(rules_of(&found), vec![rule_ids::INDEX]);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn lock_discipline_sees_guards_and_same_statement_locks() {
        let f = file(
            "fn two_guards(&self) {\n\
                 let a = self.x.lock();\n\
                 let b = self.y.lock();\n\
             }\n\
             fn scoped(&self) {\n\
                 { let a = self.x.lock(); }\n\
                 { let b = self.y.lock(); }\n\
             }\n\
             fn one_stmt(&self) {\n\
                 let n = self.x.lock().len() + self.y.lock().len();\n\
             }\n\
             fn send_under(&self) {\n\
                 let g = self.x.lock();\n\
                 self.tx.send(1);\n\
             }\n\
             fn dropped(&self) {\n\
                 let g = self.x.lock();\n\
                 drop(g);\n\
                 self.tx.send(1);\n\
             }\n",
        );
        let found = run(
            std::slice::from_ref(&f),
            &RuleSet {
                lock_discipline: true,
                ..RuleSet::none()
            },
        );
        assert_eq!(
            rules_of(&found),
            vec![
                rule_ids::NESTED_LOCK,     // two_guards
                rule_ids::NESTED_LOCK,     // one_stmt
                rule_ids::SEND_UNDER_LOCK, // send_under
            ]
        );
        assert_eq!(found[0].line, 3);
        assert_eq!(found[1].line, 10);
        assert_eq!(found[2].line, 14);
    }

    #[test]
    fn lock_discipline_sees_joins_under_guards() {
        let f = file(
            "fn join_under(&self) {\n\
                 let g = self.state.lock();\n\
                 self.handle.join();\n\
             }\n\
             fn join_same_stmt(&self) {\n\
                 let n = self.state.lock().len() + self.handle.join().unwrap();\n\
             }\n\
             fn join_after_drop(&self) {\n\
                 let g = self.state.lock();\n\
                 drop(g);\n\
                 self.handle.join();\n\
             }\n\
             fn join_lock_free(&self) {\n\
                 self.handle.join();\n\
             }\n",
        );
        let found = run(
            std::slice::from_ref(&f),
            &RuleSet {
                lock_discipline: true,
                ..RuleSet::none()
            },
        );
        assert_eq!(
            rules_of(&found),
            vec![
                rule_ids::JOIN_UNDER_LOCK, // join_under
                rule_ids::JOIN_UNDER_LOCK, // join_same_stmt
            ]
        );
        assert_eq!(found[0].line, 3);
        assert_eq!(found[1].line, 6);
    }

    #[test]
    fn match_arm_commas_reset_the_statement() {
        let f = file(
            "fn arms(&self) {\n\
                 match self.which {\n\
                     0 => self.x.lock().clear(),\n\
                     _ => self.y.lock().clear(),\n\
                 }\n\
             }\n",
        );
        let found = run(
            std::slice::from_ref(&f),
            &RuleSet {
                lock_discipline: true,
                ..RuleSet::none()
            },
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn wire_hygiene_requires_a_handler() {
        let f = file(
            "pub enum FooMsg { Ping, Data(u8) }\n\
             fn on_message(m: FooMsg) { match m { FooMsg::Ping => {} FooMsg::Data(_) => {} } }\n\
             pub enum BareMsg { Lost }\n",
        );
        let found = run(
            std::slice::from_ref(&f),
            &RuleSet {
                wire_hygiene: true,
                ..RuleSet::none()
            },
        );
        // FooMsg is fully clean; BareMsg::Lost appears in no handler.
        assert_eq!(rules_of(&found), vec![rule_ids::UNHANDLED_VARIANT]);
    }

    #[test]
    fn allows_parse_match_and_report_meta() {
        let src = "fn on_message(x: &[u8]) {\n\
                   // analysis:allow(panic-safety::index, reason = \"bounds checked above\")\n\
                   let _ = x[0];\n\
                   let _ = x.len(); // analysis:allow(panic-safety, reason = \"no finding here\")\n\
                   // analysis:allow(panic-safety::index)\n\
                   }\n";
        let f = file(src);
        let mut found = run(
            std::slice::from_ref(&f),
            &RuleSet {
                panic_safety: true,
                ..RuleSet::none()
            },
        );
        let allows = parse_allows(&f.model.comments);
        assert_eq!(allows.len(), 3);
        let meta = apply_allows(&mut found, &allows, "test.rs");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].allowed.as_deref(), Some("bounds checked above"));
        assert_eq!(
            rules_of(&meta),
            vec![rule_ids::UNUSED_ALLOW, rule_ids::MALFORMED_ALLOW]
        );
    }
}

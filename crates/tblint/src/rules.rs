//! The TB rule catalogue, evaluated over the lexer's token stream.
//!
//! | Code  | Invariant |
//! |-------|-----------|
//! | TB000 | waiver hygiene: waivers parse, carry reasons, and are used |
//! | TB001 | no wall-clock reads outside the bench harness / obs clock |
//! | TB002 | no closed-interval comparisons on period endpoints |
//! | TB003 | no hash-ordered iteration feeding report/archive/trace output |
//! | TB004 | no `unwrap`/`expect`/slice-indexing in engine scan hot paths |
//! | TB005 | *retired*: engine parity is the compiler's job since the four engines are one `Engine<T: TableLayout>` |
//! | TB006 | WAL construction sites must declare an explicit durability mode |
//! | TB007 | no direct engine DML outside the sanctioned write paths |
//! | TB008 | no blocking operation (fsync, sleep, group-commit wait, file open) while a lock guard is live, directly or one call deep |
//! | TB009 | the workspace lock-order graph must be acyclic |
//! | TB010 | lock results use the sanctioned poison policy, never bare `.unwrap()` |
//! | TB011 | no `.len()` narrowed by an `as` cast in a stored format's encoder |
//!
//! TB001–TB007, TB010 and TB011 are token-window rules; TB008 and TB009
//! run on the flow-aware guard-region model ([`crate::model`]) across the
//! whole workspace. Every rule is waivable with
//! `// tblint: allow(TBnnn) <reason>` (see [`crate::waiver`]); the tree is
//! kept at **zero unwaived findings**.

use crate::lexer::{Tok, TokKind};
use crate::model;

/// Waiver-hygiene pseudo-rule (malformed or unused waivers).
pub const TB000: &str = "TB000";
/// Determinism: no `SystemTime::now` / `Instant::now` outside the bench
/// crate and the obs trace clock.
pub const TB001: &str = "TB001";
/// Half-open intervals: no `<=` / `>=` comparisons against `*_end`
/// period-endpoint columns outside `core::time` / `core::schema`.
pub const TB002: &str = "TB002";
/// Deterministic output: no `HashMap` / `HashSet` in files that feed
/// report, archive or trace output.
pub const TB003: &str = "TB003";
/// Panic-free hot paths: no `unwrap` / `expect` / slice-indexing in the
/// engine scan files.
pub const TB004: &str = "TB004";
/// Explicit durability: every `TxnWal::create` / `TxnWal::open` call must
/// pass a visible `DurabilityMode` — a mode-typed expression or a binding
/// named `mode` / `durability` — and never `DurabilityMode::default()`.
/// Whether a commit survives a crash must be a reviewed decision at the
/// append site, not an inherited default.
pub const TB006: &str = "TB006";
/// Sanctioned write paths: outside the history loader, WAL recovery, the
/// MVCC serving layer, the engines themselves and the test trees, no code
/// may call engine DML (`insert` / `update` / `delete` /
/// `overwrite_app_period` / `bulk_load`) directly on an engine value.
/// Interactive writes go through `bitempo_txn::Transaction`, which
/// snapshot-validates and WAL-logs them; a raw engine call bypasses
/// first-committer-wins *and* durability, silently.
pub const TB007: &str = "TB007";
/// No blocking while holding a lock: an fsync-class sync, sleep, park,
/// channel receive, group-commit wait or file open must not run — directly
/// or through one level of intra-workspace calls — while a `Mutex`/`RwLock`
/// guard is live. A guard region pins every other user of that lock to the
/// blocked operation's latency: the p99 cliff the serving-layer experiment
/// measures. `Condvar::wait` on the guard it releases is sanctioned.
pub const TB008: &str = "TB008";
/// The lock-order graph must be acyclic: if one code path acquires `b`
/// while holding `a` and another acquires `a` while holding `b`, the two
/// can deadlock under load. Findings report every edge of the cycle with a
/// witness chain (function, hold site, acquisition site).
pub const TB009: &str = "TB009";
/// Lock results follow the sanctioned poison policy: either
/// `.expect("<lock name> poisoned")` — a deliberate, named fail-stop — or
/// explicit poison recovery (`.unwrap_or_else(|p| p.into_inner())`). A
/// bare `.unwrap()` on a lock result is an unreviewed crash site.
pub const TB010: &str = "TB010";
/// Checked lengths: no `.len() as u8` / `as u16` / `as u32` in the files
/// that encode a stored format. A length past the field's width wraps to
/// a wrong count under a valid checksum; `core::codec::put_len` refuses
/// it instead.
pub const TB011: &str = "TB011";

/// One rule finding, before waiver resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Stable rule code.
    pub code: &'static str,
    /// What is wrong.
    pub message: String,
}

/// Files allowed to read the wall clock (TB001): the bench harness
/// measures with it, and the obs recorder's trace clock *is* the
/// sanctioned wrapper everything else must go through.
fn tb001_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/") || path == "crates/core/src/obs.rs"
}

/// Files that own period-endpoint comparison logic (TB002): the half-open
/// constructors and matchers live here; everyone else must call them.
fn tb002_exempt(path: &str) -> bool {
    path == "crates/core/src/time.rs" || path == "crates/core/src/schema.rs"
}

/// Files whose output must be deterministic (TB003): benchmark reports,
/// the history archive codec, generator statistics, and the trace
/// recorder. Hash-ordered iteration anywhere here is an ordering bug
/// waiting to happen, so the rule bans the types outright.
fn tb003_scope(path: &str) -> bool {
    path.starts_with("crates/bench/src/")
        || path == "crates/core/src/obs.rs"
        || path == "crates/histgen/src/archive.rs"
        || path == "crates/histgen/src/stats.rs"
}

/// Engine scan hot-path files (TB004).
fn tb004_scope(path: &str) -> bool {
    match path.strip_prefix("crates/engine/src/") {
        Some(rest) => {
            (rest.starts_with("system_") && rest.ends_with(".rs"))
                || rest == "shell.rs"
                || rest == "rowscan.rs"
                || rest == "morsel.rs"
        }
        None => false,
    }
}

/// Files allowed to drive engine DML directly (TB007): the archive
/// replayer and loader, WAL recovery (which replays through the loader's
/// codec), the MVCC layer (the commit path *is* the sanction), the engine
/// crate itself, and the integration-test tree. Everyone else writes
/// through `bitempo_txn` or waives with a reason.
fn tb007_exempt(path: &str) -> bool {
    path.starts_with("crates/histgen/")
        || path.starts_with("crates/wal/")
        || path.starts_with("crates/txn/")
        || path.starts_with("crates/engine/")
        || path.starts_with("tests/")
}

/// The shard crate's stricter TB007 scope: inside `crates/shard/`, only
/// `cluster.rs`, which hands each per-shard `TxnManager` to the cluster's
/// coordinator as a `Participant`, may open transactions on a manager or
/// drive `Transaction` DML. Anywhere else in the crate a direct shard
/// write bypasses the router (key → owning shard), the coordinator's
/// first-committer-wins log and the commit-timestamp oracle — the write
/// lands but no cross-shard snapshot is safe again.
fn tb007_shard_scope(path: &str) -> bool {
    path.starts_with("crates/shard/") && path != "crates/shard/src/cluster.rs"
}

/// Production lock sites live in `crates/` (TB010); the integration-test
/// and example trees may use `.unwrap()` on locks freely.
fn tb010_scope(path: &str) -> bool {
    path.starts_with("crates/")
}

/// Files that encode a stored format (TB011): the shared codec and frame,
/// the WAL's records and checkpoints, and the history archive.
fn tb011_scope(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/codec.rs"
            | "crates/core/src/frame.rs"
            | "crates/wal/src/record.rs"
            | "crates/wal/src/checkpoint.rs"
            | "crates/histgen/src/archive.rs"
    )
}

/// Runs the single-file rules (TB001–TB004, TB006, TB007, TB010, TB011)
/// over one token stream.
pub fn check_file(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let stripped = strip_test_modules(toks);
    if !tb001_exempt(path) {
        tb001(toks, &mut findings);
    }
    if !tb002_exempt(path) {
        tb002(toks, &mut findings);
    }
    if tb003_scope(path) {
        tb003(toks, &mut findings);
    }
    if tb004_scope(path) {
        tb004(&stripped, &mut findings);
    }
    tb006(toks, &mut findings);
    if !tb007_exempt(path) {
        tb007(&stripped, &mut findings);
    }
    if tb007_shard_scope(path) {
        tb007_shard(&stripped, &mut findings);
    }
    if tb010_scope(path) {
        tb010(&stripped, &mut findings);
    }
    if tb011_scope(path) {
        tb011(&stripped, &mut findings);
    }
    findings
}

/// TB001: `SystemTime :: now` or `Instant :: now` token sequences.
fn tb001(toks: &[Tok], out: &mut Vec<Finding>) {
    for w in toks.windows(3) {
        let clock =
            w[0].kind == TokKind::Ident && (w[0].text == "SystemTime" || w[0].text == "Instant");
        if clock && w[1].text == "::" && w[2].kind == TokKind::Ident && w[2].text == "now" {
            out.push(Finding {
                line: w[0].line,
                code: TB001,
                message: format!(
                    "`{}::now` outside the bench harness breaks determinism — \
                     use the logical clock (core::time) or obs::trace_clock",
                    w[0].text
                ),
            });
        }
    }
}

/// TB002: `*_end` identifiers adjacent to `<=` / `>=`. Half-open periods
/// compare endpoints with strict `<` / `>`; a closed comparison on an
/// `_end` column is the classic off-by-one the paper's §4 schema exists
/// to prevent.
fn tb002(toks: &[Tok], out: &mut Vec<Finding>) {
    let is_endpoint =
        |t: &Tok| t.kind == TokKind::Ident && t.text.ends_with("_end") && t.text.len() > 4;
    let is_closed_cmp = |t: &Tok| t.kind == TokKind::Punct && (t.text == "<=" || t.text == ">=");
    for w in toks.windows(2) {
        let (endpoint, cmp) = if is_endpoint(&w[0]) && is_closed_cmp(&w[1]) {
            (&w[0], &w[1])
        } else if is_closed_cmp(&w[0]) && is_endpoint(&w[1]) {
            (&w[1], &w[0])
        } else {
            continue;
        };
        out.push(Finding {
            line: cmp.line.min(endpoint.line),
            code: TB002,
            message: format!(
                "closed-interval comparison `{}` against period endpoint `{}` — \
                 half-open [start, end) endpoints compare with strict </>, or go \
                 through the core::time constructors",
                cmp.text, endpoint.text
            ),
        });
    }
}

/// TB003: any `HashMap` / `HashSet` mention in an output-path file.
fn tb003(toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(Finding {
                line: t.line,
                code: TB003,
                message: format!(
                    "`{}` in an output path — iteration order is nondeterministic; \
                     use BTreeMap/BTreeSet or sort before emitting",
                    t.text
                ),
            });
        }
    }
}

/// TB004: `.unwrap(` / `.expect(` calls and slice-indexing expressions in
/// the scan hot paths (test modules excluded).
fn tb004(toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        // `.unwrap(` / `.expect(` — method calls only, so `unwrap_or` and
        // friends (which are total) stay legal.
        if t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect") {
            let after_dot = i > 0 && toks[i - 1].text == ".";
            let called = toks.get(i + 1).is_some_and(|n| n.text == "(");
            if after_dot && called {
                out.push(Finding {
                    line: t.line,
                    code: TB004,
                    message: format!(
                        "`.{}()` in an engine scan hot path — return a proper \
                         Error or waive with a justification",
                        t.text
                    ),
                });
            }
        }
        // Indexing: `[` whose previous significant token ends an
        // expression (identifier, literal number, `)` or `]`). Attribute
        // (`#[`), macro (`vec![`), type (`: [u8; 4]`) and array-literal
        // brackets all follow non-expression tokens and do not fire.
        if t.kind == TokKind::Punct && t.text == "[" && i > 0 {
            let prev = &toks[i - 1];
            let expr_end = matches!(prev.kind, TokKind::Ident | TokKind::Number)
                || prev.text == ")"
                || prev.text == "]";
            // Keywords that *end* in an expression position but cannot be
            // indexed (`return [..]`, `in [..]`, `if x == y [..]` etc.), and
            // `let`, whose `[` opens a slice pattern (`let [lo, hi] = ..`).
            let keyword = prev.kind == TokKind::Ident
                && matches!(
                    prev.text.as_str(),
                    "return" | "in" | "break" | "else" | "match" | "mut" | "ref" | "as" | "let"
                );
            if expr_end && !keyword {
                out.push(Finding {
                    line: t.line,
                    code: TB004,
                    message: "slice-indexing in an engine scan hot path — use `.get()` \
                              or waive with a justification"
                        .to_string(),
                });
            }
        }
    }
}

/// TB006: `TxnWal :: create|open ( … )` whose argument tokens carry no
/// durability declaration. A declaration is either a `DurabilityMode`
/// path expression (not `DurabilityMode::default`) or an identifier named
/// `mode` / `durability` — the conventional names for a mode threaded in
/// from configuration.
fn tb006(toks: &[Tok], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i + 3 < toks.len() {
        let call = toks[i].kind == TokKind::Ident
            && toks[i].text == "TxnWal"
            && toks[i + 1].text == "::"
            && toks[i + 2].kind == TokKind::Ident
            && (toks[i + 2].text == "create" || toks[i + 2].text == "open")
            && toks[i + 3].text == "(";
        if !call {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        // Argument span: from after the opening paren to its match.
        let open = i + 3;
        let mut depth = 0usize;
        let mut j = open;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let args = &toks[open + 1..j.min(toks.len())];
        let defaulted = args
            .windows(3)
            .any(|w| w[0].text == "DurabilityMode" && w[1].text == "::" && w[2].text == "default");
        let declared = args.iter().any(|t| {
            t.kind == TokKind::Ident
                && (t.text == "DurabilityMode" || t.text == "mode" || t.text == "durability")
        });
        if defaulted {
            out.push(Finding {
                line,
                code: TB006,
                message: "`DurabilityMode::default()` at a WAL construction site — \
                          crash-survival semantics must be an explicit, reviewed choice; \
                          name the mode (Strict / Batched(ms) / Async)"
                    .to_string(),
            });
        } else if !declared {
            out.push(Finding {
                line,
                code: TB006,
                message: "WAL construction site does not declare its durability mode — \
                          pass a `DurabilityMode` expression or a binding named `mode` / \
                          `durability` so the commit contract is visible at the append site"
                    .to_string(),
            });
        }
        i = j + 1;
    }
}

/// TB007: `<engine receiver> . <dml method> (` token sequences in
/// production code (test modules excluded). The receiver heuristic is the
/// workspace's naming convention for engine values — `engine`, `eng`, or
/// any `*_engine` binding; DML on anything else (a map's `insert`, a
/// transaction's `update`) does not fire.
fn tb007(toks: &[Tok], out: &mut Vec<Finding>) {
    const DML: [&str; 5] = [
        "insert",
        "update",
        "delete",
        "overwrite_app_period",
        "bulk_load",
    ];
    for w in toks.windows(4) {
        let recv = &w[0];
        let engine_recv = recv.kind == TokKind::Ident
            && (recv.text == "engine" || recv.text == "eng" || recv.text.ends_with("_engine"));
        if engine_recv
            && w[1].text == "."
            && w[2].kind == TokKind::Ident
            && DML.contains(&w[2].text.as_str())
            && w[3].text == "("
        {
            out.push(Finding {
                line: w[2].line,
                code: TB007,
                message: format!(
                    "direct `{}.{}` outside the sanctioned write paths — interactive \
                     writes go through `bitempo_txn::Transaction` (snapshot-validated, \
                     WAL-logged); loaders use histgen's replay. Waive only for \
                     pre-serving setup with a reason",
                    recv.text, w[2].text
                ),
            });
        }
    }
}

/// TB007 (shard scope): `<manager receiver> . begin (` and
/// `<transaction receiver> . <dml method> (` token sequences inside
/// `crates/shard/` outside the coordinator. The receiver heuristics are
/// the workspace's naming conventions — `mgr` / `manager` / `*_mgr` /
/// `*_manager` for serving-layer managers, `txn` / `*_txn` for their
/// transactions.
fn tb007_shard(toks: &[Tok], out: &mut Vec<Finding>) {
    const DML: [&str; 4] = ["insert", "update", "delete", "overwrite_app_period"];
    for w in toks.windows(4) {
        let recv = &w[0];
        if recv.kind != TokKind::Ident || w[1].text != "." || w[3].text != "(" {
            continue;
        }
        let method = &w[2];
        if method.kind != TokKind::Ident {
            continue;
        }
        let mgr_recv = recv.text == "mgr"
            || recv.text == "manager"
            || recv.text.ends_with("_mgr")
            || recv.text.ends_with("_manager");
        let txn_recv = recv.text == "txn" || recv.text.ends_with("_txn");
        let fires = (mgr_recv && method.text == "begin")
            || (txn_recv && DML.contains(&method.text.as_str()));
        if fires {
            out.push(Finding {
                line: method.line,
                code: TB007,
                message: format!(
                    "direct `{}.{}` on a per-shard serving layer from cluster code — \
                     shard writes go through the cluster's one coordinator \
                     (`Cluster::begin`), which owns the key→shard map, the \
                     first-committer-wins log and the commit-timestamp oracle; a \
                     shard is a `Participant` with none of them. Waive only for \
                     shard-local setup with a reason",
                    recv.text, method.text
                ),
            });
        }
    }
}

/// TB010: `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()` —
/// a bare unwrap on a lock result, instead of the sanctioned poison policy
/// (a named `.expect("… poisoned")` or explicit recovery via
/// `.unwrap_or_else(|p| p.into_inner())`).
fn tb010(toks: &[Tok], out: &mut Vec<Finding>) {
    for w in toks.windows(7) {
        let acquire = w[0].text == "."
            && w[1].kind == TokKind::Ident
            && matches!(w[1].text.as_str(), "lock" | "read" | "write")
            && w[2].text == "("
            && w[3].text == ")";
        if acquire
            && w[4].text == "."
            && w[5].kind == TokKind::Ident
            && w[5].text == "unwrap"
            && w[6].text == "("
        {
            out.push(Finding {
                line: w[5].line,
                code: TB010,
                message: format!(
                    "bare `.unwrap()` on a `.{}()` lock result — name the fail-stop with \
                     `.expect(\"<lock name> poisoned\")` or recover the poison explicitly \
                     with `.unwrap_or_else(|p| p.into_inner())`",
                    w[1].text
                ),
            });
        }
    }
}

/// TB011: `. len ( ) as u8|u16|u32` token sequences in production code
/// (test modules excluded, which build malformed inputs on purpose).
fn tb011(toks: &[Tok], out: &mut Vec<Finding>) {
    for w in toks.windows(6) {
        let len = w[0].text == "." && w[1].text == "len" && w[2].text == "(" && w[3].text == ")";
        let narrow = w[4].text == "as" && matches!(w[5].text.as_str(), "u8" | "u16" | "u32");
        if len && narrow {
            out.push(Finding {
                line: w[4].line,
                code: TB011,
                message: format!(
                    "`.len() as {}` in a stored format's encoder — a length past the \
                     field's width wraps to a wrong count under a valid checksum; write \
                     it with `core::codec::put_len`, which refuses it",
                    w[5].text
                ),
            });
        }
    }
}

/// Runs the flow-aware concurrency rules (TB008, TB009) across the
/// workspace files. Test modules are stripped first — tests may hold
/// guards across asserts freely. Returns `(file index, finding)` pairs.
pub fn check_concurrency(files: &[(String, Vec<Tok>)]) -> Vec<(usize, Finding)> {
    let models: Vec<model::FileModel> = files
        .iter()
        .map(|(path, toks)| model::build(path, &strip_test_modules(toks)))
        .collect();
    let sums = model::summaries(&models);
    let mut out = Vec::new();

    // TB008: blocking while a guard is live, directly or one call deep.
    for (fi, fm) in models.iter().enumerate() {
        for f in &fm.fns {
            for ev in &f.events {
                match ev {
                    model::Event::Blocking { what, line, held } => {
                        out.push((
                            fi,
                            Finding {
                                line: *line,
                                code: TB008,
                                message: format!(
                                    "blocking `{what}` in `{}` while holding {} — every \
                                     other user of the lock waits out this latency; move \
                                     the blocking work outside the guard region",
                                    f.name,
                                    held_list(held)
                                ),
                            },
                        ));
                    }
                    model::Event::Call { callee, line, held } => {
                        let Some(s) = sums.get(callee) else { continue };
                        let Some((what, cfile, cline)) = s.blocking.first() else {
                            continue;
                        };
                        let more = if s.blocking.len() > 1 {
                            format!(" (+{} more)", s.blocking.len() - 1)
                        } else {
                            String::new()
                        };
                        out.push((
                            fi,
                            Finding {
                                line: *line,
                                code: TB008,
                                message: format!(
                                    "`{}` calls `{callee}`, which blocks on `{what}` \
                                     ({cfile}:{cline}){more}, while holding {} — move the \
                                     call outside the guard region or split the callee",
                                    f.name,
                                    held_list(held)
                                ),
                            },
                        ));
                    }
                    model::Event::Acquire { .. } => {}
                }
            }
        }
    }

    // TB009: lock-order cycles, each reported once with every witness.
    let edges = model::lock_edges(&models, &sums);
    for cycle in model::find_cycles(&edges) {
        let ring: Vec<String> = cycle
            .nodes
            .iter()
            .map(|(file, key)| format!("{file}::{key}"))
            .collect();
        let witnesses: Vec<&str> = cycle.witnesses.iter().map(|w| w.desc.as_str()).collect();
        let Some(anchor) = cycle.witnesses.first() else {
            continue;
        };
        out.push((
            anchor.file_idx,
            Finding {
                line: anchor.line,
                code: TB009,
                message: format!(
                    "lock-order cycle {} -> {} — two paths acquire these locks in opposite \
                     orders and can deadlock under load; witnesses: {}",
                    ring.join(" -> "),
                    ring[0],
                    witnesses.join("; ")
                ),
            },
        ));
    }
    out
}

/// Formats a held-guard set for a finding message.
fn held_list(held: &[model::Held]) -> String {
    held.iter()
        .map(|h| format!("`{}` (held since line {})", h.key, h.line))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Removes `#[cfg(test)] mod … { … }` blocks from a token stream, so TB004
/// does not fire on test assertions.
pub fn strip_test_modules(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_at(toks, i) {
            // Skip the attribute itself (7 tokens: # [ cfg ( test ) ]),
            // any further attributes, the `mod name {`, and the block.
            i += 7;
            while toks.get(i).is_some_and(|t| t.text == "#") {
                i = skip_attribute(toks, i);
            }
            if toks.get(i).is_some_and(|t| t.text == "mod") {
                // mod <name> {
                i += 2;
                if toks.get(i).is_some_and(|t| t.text == "{") {
                    i = skip_braced_block(toks, i);
                    continue;
                }
            }
            // Not a `mod` (e.g. a cfg(test) fn) — fall through and skip
            // just the following item conservatively by continuing the
            // normal copy; stripping only applies to test modules.
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// True if tokens at `i` spell `# [ cfg ( test ) ]`.
fn is_cfg_test_at(toks: &[Tok], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    toks.len() >= i + texts.len()
        && texts
            .iter()
            .enumerate()
            .all(|(k, t)| toks[i + k].text == *t)
}

/// Skips an attribute `#[ ... ]` starting at `i` (the `#`), returning the
/// index just past its closing `]`.
fn skip_attribute(toks: &[Tok], i: usize) -> usize {
    let mut j = i + 1; // at `[`
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skips a `{ ... }` block starting at `i` (the `{`), returning the index
/// just past its matching `}`.
fn skip_braced_block(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn codes(path: &str, src: &str) -> Vec<&'static str> {
        check_file(path, &lex(src).toks)
            .into_iter()
            .map(|f| f.code)
            .collect()
    }

    #[test]
    fn tb001_fires_outside_bench() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(codes("crates/engine/src/lib.rs", src), vec![TB001]);
        assert!(codes("crates/bench/src/runner.rs", src).is_empty());
        assert!(codes("crates/core/src/obs.rs", src).is_empty());
    }

    #[test]
    fn tb002_catches_closed_endpoint_comparisons() {
        assert_eq!(
            codes("crates/query/src/x.rs", "if x <= app_end { }"),
            vec![TB002]
        );
        assert_eq!(
            codes("crates/query/src/x.rs", "if sys_end >= t { }"),
            vec![TB002]
        );
        // Strict comparisons and non-endpoint identifiers are fine.
        assert!(codes("crates/query/src/x.rs", "if x < app_end { }").is_empty());
        assert!(codes("crates/query/src/x.rs", "if end <= start { }").is_empty());
        // The core time module owns these comparisons.
        assert!(codes("crates/core/src/time.rs", "if x <= app_end { }").is_empty());
    }

    #[test]
    fn tb003_bans_hash_collections_in_output_paths() {
        let src = "use std::collections::HashMap; fn f() { let m: HashMap<u8, u8>; }";
        let found = codes("crates/bench/src/report.rs", src);
        assert!(found.iter().all(|c| *c == TB003) && found.len() == 2);
        assert!(codes("crates/engine/src/catalog.rs", src).is_empty());
    }

    #[test]
    fn tb004_catches_panicking_patterns() {
        let path = "crates/engine/src/rowscan.rs";
        assert_eq!(codes(path, "let x = opt.unwrap();"), vec![TB004]);
        assert_eq!(codes(path, "let x = opt.expect(\"msg\");"), vec![TB004]);
        assert_eq!(codes(path, "let x = slots[i];"), vec![TB004]);
        assert_eq!(codes(path, "let x = self.0[i];"), vec![TB004]);
        // Total alternatives and non-indexing brackets are fine.
        assert!(codes(path, "let x = opt.unwrap_or(0);").is_empty());
        assert!(codes(path, "let v = vec![1, 2];").is_empty());
        assert!(codes(path, "#[derive(Debug)] struct S;").is_empty());
        assert!(codes(path, "let a: [u8; 4] = [0; 4];").is_empty());
        assert!(codes(path, "let [lo, hi] = pair;").is_empty());
        // Out-of-scope files are not hot paths.
        assert!(codes("crates/engine/src/catalog.rs", "x.unwrap();").is_empty());
    }

    #[test]
    fn tb004_ignores_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(codes("crates/engine/src/morsel.rs", src).is_empty());
    }

    #[test]
    fn tb006_requires_an_explicit_durability_mode() {
        let path = "crates/wal/src/anywhere.rs";
        // No mode-shaped argument at all.
        assert_eq!(
            codes(path, "let log = TxnWal::create(Box::new(sink))?;"),
            vec![TB006]
        );
        // Defaulting the mode is as bad as omitting it.
        assert_eq!(
            codes(
                path,
                "let log = TxnWal::create(Box::new(sink), DurabilityMode::default())?;"
            ),
            vec![TB006]
        );
        // A named mode expression, a `mode` binding, or a config field
        // named `durability` all declare the choice.
        assert!(codes(
            path,
            "let log = TxnWal::create(Box::new(sink), DurabilityMode::Strict)?;"
        )
        .is_empty());
        assert!(codes(
            path,
            "let log = TxnWal::create(Box::new(sink), opts.mode)?;"
        )
        .is_empty());
        assert!(codes(
            path,
            "let log = TxnWal::create(Box::new(sink), cfg.durability)?;"
        )
        .is_empty());
        // Nested parentheses inside the arguments stay inside the span.
        assert!(codes(
            path,
            "let log = TxnWal::create(Box::new(FaultyWriter::new(buf, plan)), mode)?;"
        )
        .is_empty());
    }

    #[test]
    fn tb007_catches_direct_engine_dml_outside_sanctioned_paths() {
        let path = "crates/bench/src/experiments.rs";
        assert_eq!(codes(path, "engine.insert(id, row, None)?;"), vec![TB007]);
        assert_eq!(
            codes(path, "base_engine.delete(id, &k, None)?;"),
            vec![TB007]
        );
        assert_eq!(
            codes(path, "eng.overwrite_app_period(id, &k, row, p)?;"),
            vec![TB007]
        );
        // Non-engine receivers, reads, and commits are all fine.
        assert!(codes(path, "map.insert(k, v);").is_empty());
        assert!(codes(path, "txn.update(id, &k, &sets, None)?;").is_empty());
        assert!(codes(path, "engine.scan(id, &sys, &app, &[])?;").is_empty());
        assert!(codes(path, "engine.commit();").is_empty());
        // The sanctioned write paths are exempt wholesale.
        for exempt in [
            "crates/histgen/src/loader.rs",
            "crates/wal/src/recover.rs",
            "crates/txn/src/lib.rs",
            "crates/engine/src/testutil.rs",
            "tests/tests/mvcc_isolation.rs",
        ] {
            assert!(codes(exempt, "engine.insert(id, row, None)?;").is_empty());
        }
        // Test modules inside in-scope files are stripped first.
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n fn t() { engine.insert(a, b, None); }\n}\n";
        assert!(codes(path, src).is_empty());
    }
}

//! # tblint
//!
//! Workspace-wide temporal-invariant static analysis for the TPC-BiH
//! benchmark repo: a dependency-free lexer + token-stream rule engine
//! enforcing the invariants the paper's findings hinge on (half-open
//! periods, deterministic history, panic-free scan hot paths). See
//! [`rules`] for the catalogue and DESIGN.md §"Static analysis" for the
//! waiver policy.
//!
//! Run it as `cargo run -p tblint --release`; it exits non-zero on any
//! unwaived finding, which is how CI gates on it.

pub mod lexer;
pub mod model;
pub mod rules;
pub mod waiver;

use rules::Finding;
use std::path::{Path, PathBuf};

/// A fully resolved diagnostic: finding + location + waiver status.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule code (`TB001` …).
    pub code: &'static str,
    /// What is wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// `Some(reason)` if a waiver suppressed this finding.
    pub waived: Option<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = match &self.waived {
            Some(reason) => format!(" [waived: {reason}]"),
            None => String::new(),
        };
        write!(
            f,
            "{}:{}: {} {}{}\n    | {}",
            self.file, self.line, self.code, self.message, status, self.snippet
        )
    }
}

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Every diagnostic, waived or not, sorted by (file, line, code).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files analysed.
    pub files: usize,
}

impl Report {
    /// Diagnostics not suppressed by a waiver — the CI-failing set.
    pub fn unwaived(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.waived.is_none())
    }

    /// Number of waived findings.
    pub fn waived_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.waived.is_some())
            .count()
    }
}

/// Lints a single source text under its workspace-relative `path` label.
/// The label decides rule scoping (TB001's bench exemption, TB004's
/// hot-path list, …), so fixture tests can exercise any scope.
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let (mut waivers, malformed) = waiver::parse(&lexed.comments);
    let mut findings = rules::check_file(path, &lexed.toks);
    for m in malformed {
        findings.push(Finding {
            line: m.line,
            code: rules::TB000,
            message: m.problem,
        });
    }
    let mut diags = resolve(path, src, findings, &mut waivers);
    for w in waivers.iter().filter(|w| !w.used) {
        diags.push(Diagnostic {
            file: path.to_string(),
            line: w.line,
            code: rules::TB000,
            message: format!("unused waiver for {} — remove it", w.code),
            snippet: snippet_at(src, w.line),
            waived: None,
        });
    }
    diags.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    diags
}

/// Applies waivers to findings and attaches snippets.
fn resolve(
    path: &str,
    src: &str,
    findings: Vec<Finding>,
    waivers: &mut [waiver::Waiver],
) -> Vec<Diagnostic> {
    findings
        .into_iter()
        .map(|f| {
            let waived = if f.code == rules::TB000 {
                None // waiver hygiene problems cannot be waived away
            } else {
                waiver::claim(waivers, f.code, f.line)
            };
            Diagnostic {
                file: path.to_string(),
                line: f.line,
                code: f.code,
                message: f.message,
                snippet: snippet_at(src, f.line),
                waived,
            }
        })
        .collect()
}

/// The trimmed source line at 1-based `line`, capped for display.
fn snippet_at(src: &str, line: u32) -> String {
    let text = src
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim();
    if text.len() > 120 {
        format!("{}…", &text[..119])
    } else {
        text.to_string()
    }
}

/// Runs the flow-aware concurrency rules (TB008, TB009) over a set of
/// labelled sources *as one workspace*, resolving waivers per file. This
/// is the fixture-test entry point for the cross-file rules, the same way
/// [`check_source`] is for the per-file ones. Unused waivers are not
/// reported here (the sources may carry waivers for per-file rules this
/// pass does not run); [`run_workspace`] does the full lifecycle.
pub fn check_concurrency_sources(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let lexed: Vec<lexer::LexOut> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let inputs: Vec<(String, Vec<lexer::Tok>)> = files
        .iter()
        .zip(&lexed)
        .map(|((path, _), l)| (path.to_string(), l.toks.clone()))
        .collect();
    let mut waivers: Vec<Vec<waiver::Waiver>> =
        lexed.iter().map(|l| waiver::parse(&l.comments).0).collect();
    let mut diags = Vec::new();
    for (idx, finding) in rules::check_concurrency(&inputs) {
        let (path, src) = files[idx];
        let waived = waiver::claim(&mut waivers[idx], finding.code, finding.line);
        diags.push(Diagnostic {
            file: path.to_string(),
            line: finding.line,
            code: finding.code,
            message: finding.message,
            snippet: snippet_at(src, finding.line),
            waived,
        });
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    diags
}

/// Per-file analysis state for [`run_workspace`]: one waiver set per file
/// is threaded through *every* pass (per-file rules, the concurrency
/// pass) so a waiver for a workspace-level finding is claimed by it and
/// only genuinely unclaimed waivers are reported unused.
struct FileCtx {
    rel: String,
    src: String,
    toks: Vec<lexer::Tok>,
    waivers: Vec<waiver::Waiver>,
}

/// Lints the whole workspace rooted at `root`: every `.rs` file under
/// `crates/`, `tests/` and `examples/`, except fixture directories and
/// build output. Runs the per-file rules and the flow-aware concurrency
/// pass (TB008, TB009) over all `crates/` files, then reports unused
/// waivers.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        collect_rs_files(&root.join(top), &mut files)?;
    }
    files.sort();

    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    let mut ctxs: Vec<FileCtx> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = relative_label(root, path);
        let src = std::fs::read_to_string(path)?;
        let lexed = lexer::lex(&src);
        let (waivers, malformed) = waiver::parse(&lexed.comments);
        let ctx = FileCtx {
            rel,
            src,
            toks: lexed.toks,
            waivers,
        };
        for m in malformed {
            report.diagnostics.push(Diagnostic {
                file: ctx.rel.clone(),
                line: m.line,
                code: rules::TB000,
                message: m.problem,
                snippet: snippet_at(&ctx.src, m.line),
                waived: None,
            });
        }
        ctxs.push(ctx);
    }

    // Pass 1: per-file rules.
    let mut findings: Vec<(usize, rules::Finding)> = Vec::new();
    for (i, ctx) in ctxs.iter().enumerate() {
        for f in rules::check_file(&ctx.rel, &ctx.toks) {
            findings.push((i, f));
        }
    }

    // Pass 2: the flow-aware concurrency rules over all crate sources.
    let conc_idx: Vec<usize> = (0..ctxs.len())
        .filter(|&i| ctxs[i].rel.starts_with("crates/"))
        .collect();
    let conc: Vec<(String, Vec<lexer::Tok>)> = conc_idx
        .iter()
        .map(|&i| (ctxs[i].rel.clone(), ctxs[i].toks.clone()))
        .collect();
    for (ci, f) in rules::check_concurrency(&conc) {
        findings.push((conc_idx[ci], f));
    }

    // Waiver resolution across everything the passes produced, then the
    // unused-waiver sweep.
    for (i, f) in findings {
        let ctx = &mut ctxs[i];
        let waived = if f.code == rules::TB000 {
            None // waiver hygiene problems cannot be waived away
        } else {
            waiver::claim(&mut ctx.waivers, f.code, f.line)
        };
        report.diagnostics.push(Diagnostic {
            file: ctx.rel.clone(),
            line: f.line,
            code: f.code,
            message: f.message,
            snippet: snippet_at(&ctx.src, f.line),
            waived,
        });
    }
    for ctx in &ctxs {
        for w in ctx.waivers.iter().filter(|w| !w.used) {
            report.diagnostics.push(Diagnostic {
                file: ctx.rel.clone(),
                line: w.line,
                code: rules::TB000,
                message: format!("unused waiver for {} — remove it", w.code),
                snippet: snippet_at(&ctx.src, w.line),
                waived: None,
            });
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    Ok(report)
}

/// Recursively collects `.rs` files, skipping fixture sets, build output
/// and hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "fixtures" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with forward slashes (rule scoping is defined on
/// these labels).
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waived_finding_is_suppressed_and_waiver_consumed() {
        let src = "fn f() { let t = Instant::now(); } // tblint: allow(TB001) test clock\n";
        let diags = check_source("crates/engine/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].waived.is_some());
    }

    #[test]
    fn unused_waiver_is_reported() {
        let src = "// tblint: allow(TB001) nothing here needs this\nfn ok() {}\n";
        let diags = check_source("crates/engine/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, rules::TB000);
        assert!(diags[0].message.contains("unused"));
    }

    #[test]
    fn malformed_waiver_is_reported_and_does_not_suppress() {
        let src = "let t = Instant::now(); // tblint: allow(TB001)\n";
        let diags = check_source("crates/engine/src/lib.rs", src);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&rules::TB000));
        assert!(codes.contains(&rules::TB001));
        assert!(diags.iter().all(|d| d.waived.is_none()));
    }

    #[test]
    fn snippet_and_display_carry_location() {
        let src = "fn f() {\n    let t = Instant::now();\n}\n";
        let diags = check_source("crates/engine/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].snippet, "let t = Instant::now();");
        let shown = diags[0].to_string();
        assert!(shown.contains("crates/engine/src/lib.rs:2: TB001"));
    }
}

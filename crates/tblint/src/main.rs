//! The `tblint` CLI: lints the workspace and exits non-zero on any
//! unwaived finding. Usage: `cargo run -p tblint --release [--json] [root]`.
//!
//! Exit codes are stable so CI and tooling can dispatch on them:
//!
//! * `0` — clean (no unwaived findings);
//! * `2` — the workspace could not be walked at all;
//! * `10 + n` — unwaived findings, where `n` is the lowest-numbered firing
//!   rule (`TB000` → 10, `TB001` → 11, …, `TB011` → 21).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            root = Some(PathBuf::from(arg));
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);
    let report = match tblint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tblint: cannot walk workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let unwaived = report.unwaived().count();
    // Write errors (e.g. a closed pipe from `tblint | head`) are ignored:
    // the exit code below is the contract, and a SIGPIPE'd consumer has
    // already read everything it wanted.
    let mut out = std::io::stdout().lock();
    if json {
        let _ = writeln!(out, "{}", render_json(&report, unwaived));
    } else {
        for d in &report.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "tblint: {} files, {} finding(s): {} unwaived, {} waived",
            report.files,
            report.diagnostics.len(),
            unwaived,
            report.waived_count()
        );
        let _ = if unwaived > 0 {
            writeln!(
                out,
                "tblint: FAIL — fix the findings above or waive them with a justification"
            )
        } else {
            writeln!(out, "tblint: OK")
        };
    }
    match lowest_unwaived_rule(&report) {
        Some(n) => ExitCode::from(10 + n),
        None => ExitCode::SUCCESS,
    }
}

/// The lowest rule number among unwaived findings, if any.
fn lowest_unwaived_rule(report: &tblint::Report) -> Option<u8> {
    report
        .unwaived()
        .filter_map(|d| d.code.get(2..)?.parse::<u8>().ok())
        .min()
}

/// Renders the report as a single JSON object (hand-rolled: the workspace
/// deliberately has no serde dependency).
fn render_json(report: &tblint::Report, unwaived: usize) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"files\":{},", report.files));
    out.push_str("\"findings\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"code\":{},\"message\":{},\"snippet\":{},\"waived\":{}}}",
            json_str(&d.file),
            d.line,
            json_str(d.code),
            json_str(&d.message),
            json_str(&d.snippet),
            match &d.waived {
                Some(reason) => json_str(reason),
                None => "null".to_string(),
            }
        ));
    }
    out.push_str("],");
    out.push_str(&format!(
        "\"unwaived\":{unwaived},\"waived\":{}}}",
        report.waived_count()
    ));
    out
}

/// JSON string escaping for the small character set that needs it.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Walks upward from the current directory to the workspace root (the
/// directory containing `crates/`), so the tool runs correctly from any
/// crate directory.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

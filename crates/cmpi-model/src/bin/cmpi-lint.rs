//! Workspace lint + analyzer driver: walks every crate's `src/` tree
//! plus the root `src/`, applies the line-based rules in
//! `cmpi_model::lint` and (with `--analyze`) the whole-program passes
//! in `cmpi_model::analyze`, and exits non-zero on any violation. Run
//! from the workspace root (scripts/check.sh does).
//!
//! Flags:
//!
//! * `--analyze` — run the call-graph passes (fiber-blocking taint,
//!   lock-order cycles, atomic pairing) instead of the line-based lint.
//!
//! The exit code is the gate; findings are printed one per line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cmpi_model::analyze;
use cmpi_model::lint::{self, Violation};

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn run_lint(root: &Path) -> Result<(usize, Vec<Violation>), String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("cannot read crates/: {e}"))?;
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files).map_err(|e| format!("walking {}: {e}", src.display()))?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)
            .map_err(|e| format!("walking {}: {e}", root_src.display()))?;
    }
    files.sort();

    let mut violations = Vec::new();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        violations.extend(lint::lint_file(&rel, &src));
        sources.push((rel, src));
    }
    violations.extend(lint::lint_unsafe_scope(&sources));
    let source = |file: &str| {
        sources
            .iter()
            .find(|(rel, _)| rel.ends_with(file))
            .map(|(_, src)| src.as_str())
    };
    let collectives_src = source("crates/cmpi-core/src/collectives.rs");
    let packet_src = source("crates/cmpi-core/src/packet.rs");
    let error_src = source("crates/cmpi-core/src/error.rs");
    let metrics_src = source("crates/cmpi-telemetry/src/metrics.rs");

    match (collectives_src, packet_src) {
        (Some(coll), Some(pkt)) => violations.extend(lint::lint_tag_widths(coll, pkt)),
        _ => return Err("collectives.rs / packet.rs not found for the tag-width rule".into()),
    }
    match error_src {
        Some(err) => violations.extend(lint::lint_error_display(err)),
        None => return Err("error.rs not found for the error-display rule".into()),
    }
    let design_md = std::fs::read_to_string(root.join("DESIGN.md"))
        .map_err(|e| format!("reading DESIGN.md: {e}"))?;
    match metrics_src {
        Some(met) => violations.extend(lint::lint_metric_ids(met, &design_md)),
        None => return Err("metrics.rs not found for the metric-ids rule".into()),
    }
    violations.extend(lint::lint_rule_inventory(&design_md));
    Ok((files.len(), violations))
}

fn run_analyze(root: &Path) -> Result<(usize, Vec<Violation>), String> {
    let ws = analyze::Workspace::load_root(root)
        .map_err(|e| format!("loading workspace sources: {e}"))?;
    let findings = ws.analyze(&analyze::default_seeds());
    Ok((ws.files.len(), findings))
}

fn main() -> ExitCode {
    let mut do_analyze = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--analyze" => do_analyze = true,
            other => {
                eprintln!("cmpi-lint: unknown flag `{other}` (expected --analyze)");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = std::env::current_dir().expect("cwd");
    if !root.join("crates").is_dir() {
        eprintln!("cmpi-lint: run from the workspace root (no crates/ here)");
        return ExitCode::FAILURE;
    }

    let mode = if do_analyze { "analyze" } else { "lint" };
    let result = if do_analyze {
        run_analyze(&root)
    } else {
        run_lint(&root)
    };
    let (files, violations) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmpi-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if violations.is_empty() {
        println!("cmpi-{mode}: {files} files clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!("cmpi-{mode}: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

//! `cmpi-analyze`: whole-program, syntax-aware passes over the
//! workspace.
//!
//! Built on the shared lexer in [`crate::strip`], this module extracts
//! every function in the non-`cmpi-model` workspace crates together
//! with the calls it makes, the OS-blocking primitives it touches, the
//! locks it acquires, and the atomic operations it performs
//! ([`extract`]), then runs three passes no line-based lint can express
//! ([`passes`]):
//!
//! 1. **`fiber-blocking`** — taint from the fiber entry points (the
//!    execution engine runs every `impl Mpi` method plus
//!    `cmpi_core_fiber_boot` on a fiber); any reachable OS-blocking
//!    primitive (condvar wait, `thread::sleep`/`park`, channel recv,
//!    thread join, or a lock held across one of those) strands a worker
//!    and can deadlock the pool. Deliberate sites carry a
//!    `// fiber-ok: <why>` annotation.
//! 2. **`lock-order`** — nested lock acquisitions (directly or through
//!    calls) form edges in a global lock graph; any cycle is a deadlock
//!    candidate and fails the pass. Deliberate orderings carry
//!    `// lock-order: <why>`.
//! 3. **`atomic-pairing`** — every named atomic with Release-class
//!    stores must have an Acquire-class load somewhere in the
//!    workspace, and vice versa; one-sided orderings publish nothing.
//!    Deliberate one-sided uses carry `// pairing-ok: <why>`.
//!
//! The pass results reuse [`crate::lint::Violation`] so the `cmpi-lint`
//! binary renders and serializes both rule families uniformly. The
//! `cmpi-model` crate itself is excluded from analysis for the same
//! reason it sits on the relaxed whitelist: it *implements* the memory
//! model and the shim scheduler, so its blocking and ordering choices
//! are the baseline the rules are defined against.

pub mod extract;
pub mod passes;

use std::fs;
use std::io;
use std::path::Path;

use crate::lint::Violation;

pub use extract::{Decls, FnInfo, SourceFile};

/// Analyzer rule names. `lint_rule_inventory` requires each of these to
/// appear in the DESIGN.md §17 rule inventory, mirroring how §14's
/// error-display and §11's metric-id obligations are pinned.
pub const RULES: &[&str] = &["fiber-blocking", "lock-order", "atomic-pairing"];

/// How many raw source lines above a site are searched for a
/// justification annotation (`fiber-ok:` / `lock-order:` /
/// `pairing-ok:`), matching the `relaxed-ok:` window discipline.
pub const ANNOTATION_WINDOW: usize = 6;

/// Fiber entry points: taint seeds for the `fiber-blocking` pass.
#[derive(Clone, Debug, Default)]
pub struct SeedSpec {
    /// Every method of these impl types runs on a fiber.
    pub impl_types: Vec<String>,
    /// These free functions run on a fiber.
    pub fns: Vec<String>,
}

/// The real workspace's seeds: the tasks engine executes the rank main
/// through `cmpi_core_fiber_boot`, and the rank main's surface area is
/// the `Mpi` handle — every `impl Mpi` method may run on a fiber.
pub fn default_seeds() -> SeedSpec {
    SeedSpec {
        impl_types: vec!["Mpi".to_string()],
        fns: vec!["cmpi_core_fiber_boot".to_string()],
    }
}

/// A fully extracted workspace, ready for the passes.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// Raw (unstripped) lines per file, for annotation-window scans.
    raw_lines: Vec<Vec<String>>,
    pub fns: Vec<FnInfo>,
    pub decls: Decls,
}

impl Workspace {
    /// Build a workspace from in-memory sources (used by fixtures).
    pub fn from_sources(files: Vec<SourceFile>) -> Self {
        let mut decls = Decls::default();
        let lexed: Vec<extract::LexedFile<'_>> = files
            .iter()
            .map(|f| extract::LexedFile::new(&f.text))
            .collect();
        for (idx, lf) in lexed.iter().enumerate() {
            extract::collect_decls(idx, lf, &mut decls);
        }
        // Alias fixpoint: `let a = &x.y.z;` chains can span files and
        // appear in any order, so iterate until nothing new is learned.
        for _ in 0..4 {
            let mut changed = false;
            for lf in &lexed {
                changed |= extract::collect_aliases(lf, &mut decls);
            }
            if !changed {
                break;
            }
        }
        let mut fns = Vec::new();
        for (idx, lf) in lexed.iter().enumerate() {
            fns.extend(extract::extract_fns(idx, lf, &decls));
        }
        let raw_lines = files
            .iter()
            .map(|f| f.text.lines().map(str::to_string).collect())
            .collect();
        Workspace {
            files,
            raw_lines,
            fns,
            decls,
        }
    }

    /// Load every `.rs` file under `crates/*/src` (excluding
    /// `cmpi-model` itself) plus the root `src/`, rooted at `root`.
    pub fn load_root(root: &Path) -> io::Result<Self> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for dir in crate_dirs {
                if dir.file_name().is_some_and(|n| n == "cmpi-model") {
                    continue;
                }
                collect_rs(&dir.join("src"), root, &mut files)?;
            }
        }
        collect_rs(&root.join("src"), root, &mut files)?;
        Ok(Self::from_sources(files))
    }

    /// Run all three passes and return findings sorted by
    /// (file, line, rule).
    pub fn analyze(&self, seeds: &SeedSpec) -> Vec<Violation> {
        let mut out = Vec::new();
        out.extend(passes::fiber_blocking(self, seeds));
        out.extend(passes::lock_order(self).0);
        out.extend(passes::atomic_pairing(self));
        out.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
        out
    }

    /// Is `marker` present within [`ANNOTATION_WINDOW`] raw lines at or
    /// above 1-based `line` in file `file_idx`?
    pub fn annotated(&self, file_idx: usize, line: usize, marker: &str) -> bool {
        let lines = &self.raw_lines[file_idx];
        let hi = line.min(lines.len());
        let lo = hi.saturating_sub(ANNOTATION_WINDOW + 1);
        lines[lo..hi].iter().any(|l| l.contains(marker))
    }

    pub fn path(&self, file_idx: usize) -> &str {
        &self.files[file_idx].path
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                path: rel,
                text: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

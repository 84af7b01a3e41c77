//! Source rules no compiler lint states, checked by plain substring
//! search over every library file (`crates/*/src` and `src/`), comment
//! lines and `#[cfg(test)]` module tails left out:
//!
//! * every `Ordering::Relaxed` outside `cmpi-model` (which implements
//!   the memory model) has a `relaxed-ok:` reason on its line or in the
//!   four lines above;
//! * in the files of the per-message path (the mailbox, the execution
//!   engine, the runtime, point-to-point and the fabric endpoint), every
//!   read-modify-write — a `swap(`, `fetch_` or `compare_exchange` — and
//!   every `SeqCst` store has an `rmw:` reason naming the race it closes,
//!   on its line or in the comment block right above it: the message
//!   path's RMW budget (DESIGN §16) is spent only where a reason says so;
//! * outside `channel.rs` and `locality.rs` no code reads
//!   `considered_local`, `.vis.shm` or `.vis.cma`: a second reader is a
//!   second channel decision that can drift from `ChannelSelector::route`;
//! * `allow(unsafe_code)` appears once, on the Graph 500 generator's
//!   `edges_into` (the one call into its AVX-512 arm).

use std::fs;
use std::path::Path;

/// (path from the workspace root, source) of every library file.
fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(krate.expect("directory entry").path().join("src"));
    }
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let rel = rel.to_string_lossy().replace('\\', "/");
                out.push((rel, fs::read_to_string(&path).expect("readable source")));
            }
        }
    }
    out.sort();
    out
}

/// `(line number, line)` of the code before the file's `#[cfg(test)]`
/// module tail, comment lines left out.
fn code_lines(src: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = src.lines().collect();
    let tail = (0..lines.len()).find(|&i| {
        let attr = lines[i].trim();
        let next = lines.get(i + 1).map_or("", |l| l.trim_start());
        attr.starts_with("#[cfg(")
            && attr.contains("test")
            && (next.starts_with("mod ") || next.starts_with("pub mod "))
    });
    let code = lines[..tail.unwrap_or(lines.len())].iter().enumerate();
    code.filter(|(_, l)| !l.trim_start().starts_with("//"))
        .map(|(i, l)| (i + 1, *l))
        .collect()
}

#[test]
fn every_relaxed_ordering_is_justified() {
    let mut bare = Vec::new();
    for (rel, src) in sources() {
        let lines: Vec<&str> = src.lines().collect();
        for (n, line) in code_lines(&src) {
            let window = &lines[n.saturating_sub(5)..n];
            if line.contains("Ordering::Relaxed")
                && !rel.starts_with("crates/cmpi-model/")
                && !window.iter().any(|l| l.contains("relaxed-ok:"))
            {
                bare.push(format!("{rel}:{n}"));
            }
        }
    }
    assert!(bare.is_empty(), "Relaxed without `relaxed-ok:`: {bare:?}");
}

#[test]
fn every_message_path_rmw_is_justified() {
    let path = [
        "crates/cmpi-core/src/mailbox.rs",
        "crates/cmpi-core/src/exec.rs",
        "crates/cmpi-core/src/runtime.rs",
        "crates/cmpi-core/src/pt2pt.rs",
        "crates/cmpi-fabric/src/endpoint.rs",
    ];
    let mut bare = Vec::new();
    let mut seen = 0;
    for (rel, src) in sources() {
        if !path.contains(&rel.as_str()) {
            continue;
        }
        seen += 1;
        let lines: Vec<&str> = src.lines().collect();
        for (n, line) in code_lines(&src) {
            let rmw = ["swap(", "fetch_", "compare_exchange"]
                .iter()
                .any(|op| line.contains(op))
                || (line.contains("SeqCst") && line.contains("store("));
            // The line itself, then the comment block right above it.
            let above = lines[..n - 1]
                .iter()
                .rev()
                .take_while(|l| l.trim_start().starts_with("//"));
            let reason = std::iter::once(&line)
                .chain(above)
                .any(|l| l.contains("rmw:"));
            if rmw && !reason {
                bare.push(format!("{rel}:{n}"));
            }
        }
    }
    assert_eq!(seen, path.len(), "a message-path file moved");
    assert!(bare.is_empty(), "RMW without `rmw:`: {bare:?}");
}

#[test]
fn only_the_selector_reads_the_channel_decision_inputs() {
    let homes = [
        "crates/cmpi-core/src/channel.rs",
        "crates/cmpi-core/src/locality.rs",
    ];
    let inputs = ["considered_local", ".vis.shm", ".vis.cma"];
    let mut readers = Vec::new();
    for (rel, src) in sources() {
        for (n, line) in code_lines(&src) {
            if !homes.contains(&rel.as_str()) && inputs.iter().any(|s| line.contains(s)) {
                readers.push(format!("{rel}:{n}"));
            }
        }
    }
    assert!(
        readers.is_empty(),
        "route through `ChannelSelector::route`: {readers:?}"
    );
}

#[test]
fn unsafe_code_is_allowed_in_one_place() {
    let mut sites = Vec::new();
    for (rel, src) in sources() {
        for (n, line) in src.lines().enumerate() {
            if line.contains("allow(unsafe_code)") && !line.trim_start().starts_with("//") {
                sites.push(format!("{rel}:{}", n + 1));
            }
        }
    }
    assert_eq!(sites.len(), 1, "allow(unsafe_code) sites: {sites:?}");
    assert!(sites[0].starts_with("crates/cmpi-apps/src/graph500/generator.rs:"));
}

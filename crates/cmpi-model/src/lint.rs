//! Mechanical repo lint for the lock-free hot path (the `cmpi-lint`
//! binary drives this from `scripts/check.sh`).
//!
//! Rules:
//!
//! 1. **safety** — every `unsafe` token in code must be preceded (within
//!    [`SAFETY_WINDOW`] lines, or on the same line) by a `// SAFETY:`
//!    comment stating the invariant that makes it sound.
//! 2. **relaxed** — every `Ordering::Relaxed` outside the whitelist
//!    ([`RELAXED_WHITELIST`]) must carry a `// relaxed-ok:` justification
//!    within [`RELAXED_WINDOW`] lines. Relaxed is correct only for
//!    monotonic counters feeding reports, never for control flow.
//! 3. **hot-unwrap** — modules on the hot path ([`HOT_PATH_MODULES`])
//!    may not call `.unwrap()` / `.expect(` outside their test modules:
//!    a poisoned packet must surface as an `MpiError`, not a panic in
//!    the progress engine.
//! 4. **tag-width** — the collective tag packing in `collectives.rs`
//!    must keep every op id of its one `mod op` table distinct, below
//!    the table's `END` and inside the high bits left over above
//!    `TAG_ROUND_BITS`, and `packet.rs` wire discriminants must stay
//!    distinct, non-zero byte-sized values. `TAG_ROUND_BITS` may be
//!    defined in exactly one file (single width authority).
//! 5. **error-display** — every `MpiError` variant must appear in
//!    `error.rs`'s exhaustive `display_covers_every_variant` test, so a
//!    new error class cannot ship without a rendering check. (The test's
//!    own match is wildcard-free and catches this at compile time; the
//!    lint additionally catches a variant missing from the *value list*
//!    the test iterates, which the compiler cannot see.)
//!
//! 6–7. **metric-ids**, **rule-inventory** — whole-file documentation
//!    loops ([`lint_metric_ids`], [`lint_rule_inventory`]).
//! 8. **one-route** — outside `channel.rs` (the selector) and
//!    `locality.rs` (which resolves the facts it reads), no code may read
//!    `considered_local` or `.vis.shm` / `.vis.cma`: a second reader is a
//!    second channel decision that can drift from `ChannelSelector::route`.
//!
//! 9. **unsafe-scope** — `allow(unsafe_code)` appears only on the one
//!    function [`UNSAFE_EXCEPTION`] names, and no file of a crate whose
//!    root still carries `forbid(unsafe_code)` says `unsafe`
//!    ([`lint_unsafe_scope`]).
//!
//! Test modules (`#[cfg(test)] mod …` tails) are exempt from rules 2–3
//! and 8; rules 1 and 9 apply everywhere.
//!
//! Comment/literal discrimination is delegated to the shared lexer in
//! [`crate::strip`] (also the front end of [`crate::analyze`]), so
//! nested block comments and raw strings spanning macro invocations are
//! handled exactly rather than line-locally.

use crate::strip;

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit.
pub const SAFETY_WINDOW: usize = 10;

/// How many lines above an `Ordering::Relaxed` a `// relaxed-ok:`
/// justification may sit.
pub const RELAXED_WINDOW: usize = 4;

/// Modules where `Ordering::Relaxed` needs no justification: the model
/// checker's own plumbing (it *implements* the memory model rather than
/// relying on it).
pub const RELAXED_WHITELIST: &[&str] = &["crates/cmpi-model/src/"];

/// Hot-path modules where `unwrap()/expect()` is banned outside tests.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/cmpi-core/src/mailbox.rs",
    "crates/cmpi-core/src/matching.rs",
    "crates/cmpi-core/src/obs.rs",
    "crates/cmpi-core/src/packet.rs",
    "crates/cmpi-core/src/pt2pt.rs",
    "crates/cmpi-core/src/requests.rs",
    "crates/cmpi-core/src/channel.rs",
    "crates/cmpi-core/src/datatype.rs",
    "crates/cmpi-shmem/src/queue.rs",
    "crates/cmpi-shmem/src/segment.rs",
    "crates/cmpi-fabric/src/endpoint.rs",
    "crates/cmpi-fabric/src/schedule.rs",
    "crates/cmpi-fabric/src/slots.rs",
];

/// The files that may read the channel decision's inputs (rule 8).
pub const ONE_ROUTE_HOMES: &[&str] = &[
    "crates/cmpi-core/src/channel.rs",
    "crates/cmpi-core/src/locality.rs",
];

/// The one function that may carry `#[allow(unsafe_code)]` (rule 9),
/// as (file, fn header prefix): the Graph 500 generator's dispatch to
/// its AVX-512 arm, in a crate that otherwise denies unsafe code.
pub const UNSAFE_EXCEPTION: (&str, &str) = (
    "crates/cmpi-apps/src/graph500/generator.rs",
    "fn edges_into(",
);

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Does `code` contain `needle` as a standalone word?
fn has_word(code: &str, needle: &str) -> bool {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let after = at + needle.len();
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

/// Index of the first line of the `#[cfg(test)] mod …` tail, if any;
/// lines at or after it are exempt from the hot-path and relaxed rules.
fn test_tail_start(lines: &[&str]) -> usize {
    for (i, l) in lines.iter().enumerate() {
        if l.trim() == "#[cfg(test)]" {
            // Look ahead (past attributes) for a `mod` item.
            for l2 in lines.iter().skip(i + 1).take(3) {
                let t = l2.trim_start();
                if t.starts_with("mod ") || t.starts_with("pub mod ") {
                    return i;
                }
                if !t.starts_with("#[") {
                    break;
                }
            }
        }
    }
    lines.len()
}

/// Does any of `lines[lo..=hi]` carry the marker comment?
fn window_has(lines: &[&str], hi: usize, window: usize, marker: &str) -> bool {
    let lo = hi.saturating_sub(window);
    lines[lo..=hi].iter().any(|l| l.contains(marker))
}

/// Run the per-file rules (safety, relaxed, hot-unwrap, duplicate tag
/// authority) over one source file. `relpath` uses forward slashes
/// relative to the workspace root.
pub fn lint_file(relpath: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = src.lines().collect();
    let codes = strip::code_lines(src);
    let tail = test_tail_start(&lines);
    let hot = HOT_PATH_MODULES.iter().any(|m| relpath.ends_with(m));
    let route_home = ONE_ROUTE_HOMES.iter().any(|m| relpath.ends_with(m));
    let whitelisted = RELAXED_WHITELIST.iter().any(|w| relpath.contains(w));

    for (i, code) in codes.iter().enumerate() {
        if code.trim().is_empty() {
            continue;
        }
        let code = code.as_str();
        // Rule 1: SAFETY comments. Lint attributes mentioning unsafe
        // (forbid/deny) are configuration, not unsafe code.
        if has_word(code, "unsafe")
            && !code.contains("forbid")
            && !code.contains("deny")
            && !window_has(&lines, i, SAFETY_WINDOW, "SAFETY:")
        {
            out.push(Violation {
                file: relpath.to_string(),
                line: i + 1,
                rule: "safety",
                msg: "unsafe without a `// SAFETY:` comment in the preceding lines".into(),
            });
        }
        if i >= tail {
            continue;
        }
        // Rule 2: justified Relaxed orderings.
        if code.contains("Ordering::Relaxed")
            && !whitelisted
            && !window_has(&lines, i, RELAXED_WINDOW, "relaxed-ok:")
        {
            out.push(Violation {
                file: relpath.to_string(),
                line: i + 1,
                rule: "relaxed",
                msg: "Ordering::Relaxed without a `// relaxed-ok:` justification".into(),
            });
        }
        // Rule 3: no unwrap/expect on the hot path.
        if hot && (code.contains(".unwrap()") || code.contains(".expect(")) {
            out.push(Violation {
                file: relpath.to_string(),
                line: i + 1,
                rule: "hot-unwrap",
                msg: "unwrap()/expect() in a hot-path module (return an error instead)".into(),
            });
        }
        // Rule 4 (part): single tag-width authority.
        if code.contains("TAG_ROUND_BITS:") && !relpath.ends_with("collectives.rs") {
            out.push(Violation {
                file: relpath.to_string(),
                line: i + 1,
                rule: "tag-width",
                msg: "TAG_ROUND_BITS may only be defined in collectives.rs".into(),
            });
        }
        // Rule 8: one channel decision.
        if !route_home
            && (has_word(code, "considered_local")
                || code.contains(".vis.shm")
                || code.contains(".vis.cma"))
        {
            out.push(Violation {
                file: relpath.to_string(),
                line: i + 1,
                rule: "one-route",
                msg: "reads a channel-decision input outside the selector \
                      (route through `ChannelSelector::route`)"
                    .into(),
            });
        }
    }
    out
}

/// Rule 9 over the whole workspace, `files` as (relpath, source): an
/// `allow(unsafe_code)` is flagged unless it is [`UNSAFE_EXCEPTION`]'s
/// (the next fn header after it is the named one, in the named file),
/// and any `unsafe` is flagged in a crate whose `src/lib.rs` forbids
/// unsafe code, tests included (the compiler would refuse it anyway
/// where it is compiled; the lint also covers cfg-gated code).
pub fn lint_unsafe_scope(files: &[(String, String)]) -> Vec<Violation> {
    let forbidding: Vec<&str> = files
        .iter()
        .filter(|(rel, src)| {
            rel.ends_with("src/lib.rs")
                && strip::code_lines(src)
                    .iter()
                    .any(|c| c.contains("forbid(unsafe_code)"))
        })
        .map(|(rel, _)| rel.trim_end_matches("lib.rs"))
        .collect();
    let mut out = Vec::new();
    for (rel, src) in files {
        let codes = strip::code_lines(src);
        let forbidden = forbidding.iter().any(|root| rel.starts_with(root));
        for (i, code) in codes.iter().enumerate() {
            let msg = if code.contains("allow(unsafe_code)") {
                let next_fn = codes[i + 1..].iter().find(|c| has_word(c, "fn"));
                let excepted = rel.ends_with(UNSAFE_EXCEPTION.0)
                    && next_fn.is_some_and(|c| c.trim_start().starts_with(UNSAFE_EXCEPTION.1));
                if excepted {
                    continue;
                }
                "allow(unsafe_code) outside the one excepted function"
            } else if forbidden && has_word(code, "unsafe") {
                "unsafe in a crate that forbids unsafe code"
            } else {
                continue;
            };
            out.push(Violation {
                file: rel.clone(),
                line: i + 1,
                rule: "unsafe-scope",
                msg: msg.into(),
            });
        }
    }
    out
}

/// Parse `[pub] const NAME: u32 = N;` from an already comment-stripped
/// code line.
fn parse_const_u32(code: &str, name_prefix: &str) -> Option<(String, u32)> {
    let t = code.trim_start();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let t = t.strip_prefix("const ")?;
    let (name, rest) = t.split_once(':')?;
    let name = name.trim();
    if !name.starts_with(name_prefix) {
        return None;
    }
    let (_, val) = rest.split_once('=')?;
    let val = val.trim().trim_end_matches(';').trim();
    val.parse().ok().map(|v| (name.to_string(), v))
}

/// Rule 4: verify the collective tag field widths and packet wire
/// discriminants against their debug-asserted bounds.
pub fn lint_tag_widths(collectives_src: &str, packet_src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let coll_file = "crates/cmpi-core/src/collectives.rs";
    let pkt_file = "crates/cmpi-core/src/packet.rs";

    let coll_lines = strip::code_lines(collectives_src);
    let pkt_lines = strip::code_lines(packet_src);

    let mut round_bits: Option<(usize, u32)> = None;
    for (i, l) in coll_lines.iter().enumerate() {
        if let Some((name, v)) = parse_const_u32(l, "TAG_ROUND_BITS") {
            if name == "TAG_ROUND_BITS" {
                round_bits = Some((i + 1, v));
            }
        }
    }
    let Some((bits_line, bits)) = round_bits else {
        out.push(Violation {
            file: coll_file.to_string(),
            line: 1,
            rule: "tag-width",
            msg: "TAG_ROUND_BITS definition not found".into(),
        });
        return out;
    };
    if bits == 0 || bits >= 32 {
        out.push(Violation {
            file: coll_file.to_string(),
            line: bits_line,
            rule: "tag-width",
            msg: format!("TAG_ROUND_BITS = {bits} leaves no room for the op id field"),
        });
        return out;
    }
    let op_limit: u64 = 1 << (32 - bits);

    // Walk the `mod op { … }` block.
    let mut in_op = false;
    let mut seen: Vec<(String, u32, usize)> = Vec::new();
    for (i, code) in coll_lines.iter().enumerate() {
        let item = code.trim_start();
        let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
        if item.starts_with("mod op") {
            in_op = true;
            continue;
        }
        if in_op {
            if code.trim() == "}" {
                break;
            }
            if let Some((name, v)) = parse_const_u32(code, "") {
                if v == 0 {
                    out.push(Violation {
                        file: coll_file.to_string(),
                        line: i + 1,
                        rule: "tag-width",
                        msg: format!("op id {name} = 0 collides with the reserved zero tag"),
                    });
                }
                if u64::from(v) >= op_limit {
                    out.push(Violation {
                        file: coll_file.to_string(),
                        line: i + 1,
                        rule: "tag-width",
                        msg: format!(
                            "op id {name} = {v} does not fit the {} high bits above \
                             TAG_ROUND_BITS = {bits}",
                            32 - bits
                        ),
                    });
                }
                if let Some((other, _, _)) = seen.iter().find(|(_, ov, _)| *ov == v) {
                    out.push(Violation {
                        file: coll_file.to_string(),
                        line: i + 1,
                        rule: "tag-width",
                        msg: format!("op id {name} = {v} duplicates {other}"),
                    });
                }
                seen.push((name, v, i + 1));
            }
        }
    }
    if seen.is_empty() {
        out.push(Violation {
            file: coll_file.to_string(),
            line: 1,
            rule: "tag-width",
            msg: "no op ids found in `mod op`".into(),
        });
    }
    // `END` is what id spaces outside the table start from, so the table
    // has to stay below it.
    if let Some(&(_, end, _)) = seen.iter().find(|(name, _, _)| name == "END") {
        for (name, v, line) in seen.iter().filter(|(_, v, _)| *v > end) {
            out.push(Violation {
                file: coll_file.to_string(),
                line: *line,
                rule: "tag-width",
                msg: format!("op id {name} = {v} lies above the table's END = {end}"),
            });
        }
    }

    // Packet wire discriminants: distinct, non-zero, byte-sized.
    let mut kinds: Vec<(String, u32, usize)> = Vec::new();
    for (i, l) in pkt_lines.iter().enumerate() {
        if let Some((name, v)) = parse_const_u32(l, "K_") {
            if v == 0 {
                out.push(Violation {
                    file: pkt_file.to_string(),
                    line: i + 1,
                    rule: "tag-width",
                    msg: format!("wire discriminant {name} = 0 is reserved (absent imm)"),
                });
            }
            if v > u32::from(u8::MAX) {
                out.push(Violation {
                    file: pkt_file.to_string(),
                    line: i + 1,
                    rule: "tag-width",
                    msg: format!("wire discriminant {name} = {v} exceeds one byte"),
                });
            }
            if let Some((other, _, _)) = kinds.iter().find(|(_, ov, _)| *ov == v) {
                out.push(Violation {
                    file: pkt_file.to_string(),
                    line: i + 1,
                    rule: "tag-width",
                    msg: format!("wire discriminant {name} = {v} duplicates {other}"),
                });
            }
            kinds.push((name, v, i + 1));
        }
    }
    if kinds.is_empty() {
        out.push(Violation {
            file: pkt_file.to_string(),
            line: 1,
            rule: "tag-width",
            msg: "no K_* wire discriminants found".into(),
        });
    }
    out
}

/// Variant names of `pub enum MpiError`, with the 1-based line each is
/// declared on. Struct-variant fields (lowercase) and nested lines are
/// skipped by tracking brace depth inside the enum body.
fn mpi_error_variants(error_src: &str) -> Vec<(String, usize)> {
    enum_variants(error_src, "enum MpiError")
}

/// Variant names of the first enum whose header contains `needle`, with
/// the 1-based line each is declared on (shared parser for the
/// error-display and metric-ids rules).
fn enum_variants(src: &str, needle: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut depth: i32 = -1; // -1: outside the enum
    for (i, code) in strip::code_lines(src).iter().enumerate() {
        if depth < 0 {
            if code.contains(needle) && code.contains('{') {
                depth = 1;
            }
            continue;
        }
        if depth == 1 {
            let t = code.trim_start();
            let name: String = t
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                out.push((name, i + 1));
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if depth <= 0 {
            break;
        }
    }
    out
}

/// Rule 5: every `MpiError` variant appears in the exhaustive
/// `display_covers_every_variant` test in `error.rs`.
pub fn lint_error_display(error_src: &str) -> Vec<Violation> {
    let err_file = "crates/cmpi-core/src/error.rs";
    let mut out = Vec::new();

    let variants = mpi_error_variants(error_src);
    if variants.is_empty() {
        out.push(Violation {
            file: err_file.to_string(),
            line: 1,
            rule: "error-display",
            msg: "`pub enum MpiError` not found (or has no variants)".into(),
        });
        return out;
    }

    let Some(body) = fn_body(error_src, "fn display_covers_every_variant") else {
        out.push(Violation {
            file: err_file.to_string(),
            line: 1,
            rule: "error-display",
            msg: "exhaustive Display test `display_covers_every_variant` not found".into(),
        });
        return out;
    };

    for (name, line) in &variants {
        if !has_word(&body, name) {
            out.push(Violation {
                file: err_file.to_string(),
                line: *line,
                rule: "error-display",
                msg: format!(
                    "MpiError::{name} is missing from the `display_covers_every_variant` test"
                ),
            });
        }
    }
    out
}

/// The comment-stripped body of the first fn whose header contains
/// `marker`, from the header line to its matching closing brace.
fn fn_body(src: &str, marker: &str) -> Option<String> {
    let codes = strip::code_lines(src);
    let at = codes.iter().position(|l| l.contains(marker))?;
    let mut body = String::new();
    let mut depth = 0i32;
    let mut opened = false;
    for code in codes.iter().skip(at) {
        body.push_str(code);
        body.push('\n');
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    Some(body)
}

/// Rule 6: every `MetricId` variant appears both in the DESIGN.md
/// metric inventory table (§11) and in the exhaustive
/// `exposition_covers_every_metric` test in cmpi-telemetry's
/// `metrics.rs` — the same closed loop the error-display rule keeps for
/// `MpiError`, so a metric cannot be added without being documented and
/// exposed — and every row of that table names a variant, so a deleted
/// metric cannot leave its row behind.
pub fn lint_metric_ids(metrics_src: &str, design_md: &str) -> Vec<Violation> {
    let met_file = "crates/cmpi-telemetry/src/metrics.rs";
    let mut out = Vec::new();

    let variants = enum_variants(metrics_src, "enum MetricId");
    if variants.is_empty() {
        out.push(Violation {
            file: met_file.to_string(),
            line: 1,
            rule: "metric-ids",
            msg: "`pub enum MetricId` not found (or has no variants)".into(),
        });
        return out;
    }

    let Some(body) = fn_body(metrics_src, "fn exposition_covers_every_metric") else {
        out.push(Violation {
            file: met_file.to_string(),
            line: 1,
            rule: "metric-ids",
            msg: "exhaustive exposition test `exposition_covers_every_metric` not found".into(),
        });
        return out;
    };

    for (name, line) in &variants {
        if !has_word(&body, name) {
            out.push(Violation {
                file: met_file.to_string(),
                line: *line,
                rule: "metric-ids",
                msg: format!(
                    "MetricId::{name} is missing from the `exposition_covers_every_metric` test"
                ),
            });
        }
        if !has_word(design_md, name) {
            out.push(Violation {
                file: met_file.to_string(),
                line: *line,
                rule: "metric-ids",
                msg: format!("MetricId::{name} is missing from the DESIGN.md metric table"),
            });
        }
    }
    let Some(rows) = inventory_rows(design_md) else {
        out.push(Violation {
            file: "DESIGN.md".to_string(),
            line: 1,
            rule: "metric-ids",
            msg: "the `Metric inventory` table not found".into(),
        });
        return out;
    };
    for (name, line) in rows {
        if !variants.iter().any(|(v, _)| *v == name) {
            out.push(Violation {
                file: "DESIGN.md".to_string(),
                line,
                rule: "metric-ids",
                msg: format!("`{name}` in the DESIGN.md metric table is not a MetricId variant"),
            });
        }
    }
    out
}

/// The backticked first-column names of the DESIGN.md table under the
/// heading that mentions "Metric inventory", with the 1-based line of
/// each row (the header row skipped); `None` without such a heading.
fn inventory_rows(design_md: &str) -> Option<Vec<(String, usize)>> {
    let mut lines = design_md.lines().enumerate();
    lines.find(|(_, l)| l.starts_with('#') && l.contains("Metric inventory"))?;
    let rows = lines
        .take_while(|(_, l)| !l.starts_with('#'))
        .filter_map(|(i, l)| Some((i, l.trim().strip_prefix('|')?)))
        .skip(1)
        .filter_map(|(i, cells)| {
            let first = cells.split('|').next()?.trim();
            let name = first.strip_prefix('`')?.strip_suffix('`')?;
            Some((name.to_string(), i + 1))
        });
    Some(rows.collect())
}

/// Rule 7: every analyzer rule name ([`crate::analyze::RULES`]) appears
/// in the DESIGN.md §17 rule inventory — the same closed documentation
/// loop the error-display (§14) and metric-ids (§11) rules keep, so an
/// analyzer pass cannot be added without its obligations and annotation
/// grammar being written down.
pub fn lint_rule_inventory(design_md: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in crate::analyze::RULES {
        if !design_md.contains(&format!("`{rule}`")) {
            out.push(Violation {
                file: "DESIGN.md".to_string(),
                line: 1,
                rule: "rule-inventory",
                msg: format!(
                    "analyzer rule `{rule}` is missing from the DESIGN.md §17 rule inventory"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn safety_rule_flags_bare_unsafe_and_accepts_annotated() {
        let bad = "fn f(p: *mut u8) {\n    unsafe { *p = 1 };\n}\n";
        let v = lint_file("crates/x/src/a.rs", bad);
        assert_eq!(rules_of(&v), vec!["safety"]);
        assert_eq!(v[0].line, 2);

        let good = "fn f(p: *mut u8) {\n    // SAFETY: p is valid for writes by contract.\n    unsafe { *p = 1 };\n}\n";
        assert!(lint_file("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn safety_rule_ignores_comments_strings_and_lint_attrs() {
        let src = concat!(
            "//! talks about unsafe code in prose\n",
            "#![deny(unsafe_op_in_unsafe_fn)]\n",
            "#![forbid(unsafe_code)]\n",
            "fn f() { let _ = \"unsafe\"; } // unsafe in a string + comment\n",
        );
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn relaxed_rule_needs_justification_outside_whitelist() {
        let bad = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let v = lint_file("crates/cmpi-core/src/stats.rs", bad);
        assert_eq!(rules_of(&v), vec!["relaxed"]);

        let good = "fn f(c: &AtomicU64) {\n    // relaxed-ok: monotonic counter, report-only.\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_file("crates/cmpi-core/src/stats.rs", good).is_empty());

        // The model crate implements the memory model; whitelisted.
        assert!(lint_file("crates/cmpi-model/src/engine.rs", bad).is_empty());
    }

    #[test]
    fn hot_unwrap_rule_only_hits_hot_modules_outside_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            rules_of(&lint_file("crates/cmpi-core/src/matching.rs", src)),
            vec!["hot-unwrap"]
        );
        // Same code in a cold module passes.
        assert!(lint_file("crates/cmpi-core/src/figures.rs", src).is_empty());
        // And in the test tail of a hot module.
        let tested = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(lint_file("crates/cmpi-core/src/matching.rs", tested).is_empty());
    }

    #[test]
    fn tag_width_rule_accepts_current_shape_and_flags_overflow() {
        let coll_ok = "mod op {\n    pub const BARRIER: u32 = 1;\n    pub const BCAST: u32 = 2;\n}\nconst TAG_ROUND_BITS: u32 = 20;\n";
        let pkt_ok = "const K_EAGER: u32 = 1;\nconst K_RTS: u32 = 2;\n";
        assert!(lint_tag_widths(coll_ok, pkt_ok).is_empty());

        let coll_bad =
            "mod op {\n    pub const HUGE: u32 = 5000;\n}\nconst TAG_ROUND_BITS: u32 = 20;\n";
        let v = lint_tag_widths(coll_bad, pkt_ok);
        assert_eq!(rules_of(&v), vec!["tag-width"]);

        let pkt_dup = "const K_EAGER: u32 = 1;\nconst K_RTS: u32 = 1;\n";
        let v = lint_tag_widths(coll_ok, pkt_dup);
        assert_eq!(rules_of(&v), vec!["tag-width"]);

        // The table is found behind a visibility prefix, and holds its
        // ids below its own END.
        let coll_dup = "pub(crate) mod op {\n    pub const A: u32 = 7;\n    pub const B: u32 = 7;\n    pub const END: u32 = 8;\n}\nconst TAG_ROUND_BITS: u32 = 20;\n";
        let v = lint_tag_widths(coll_dup, pkt_ok);
        assert_eq!(rules_of(&v), vec!["tag-width"]);
        assert!(v[0].msg.contains("duplicates"), "{}", v[0].msg);
        let v = lint_tag_widths(&coll_dup.replace("B: u32 = 7", "B: u32 = 9"), pkt_ok);
        assert_eq!(rules_of(&v), vec!["tag-width"]);
        assert!(v[0].msg.contains("above the table's END"), "{}", v[0].msg);
    }

    #[test]
    fn tag_width_authority_is_collectives_only() {
        let src = "const TAG_ROUND_BITS: u32 = 12;\n";
        let v = lint_file("crates/cmpi-core/src/coll_select.rs", src);
        assert_eq!(rules_of(&v), vec!["tag-width"]);
        assert!(lint_file("crates/cmpi-core/src/collectives.rs", src).is_empty());
    }

    #[test]
    fn one_route_rule_flags_decision_inputs_outside_the_selector() {
        let src = concat!(
            "fn pick(p: &PeerInfo) -> bool {\n",
            "    p.considered_local && p.vis.shm\n",
            "}\n",
            "fn cma(p: &PeerInfo) -> bool { p.vis.cma }\n",
        );
        let v = lint_file("crates/cmpi-core/src/pt2pt.rs", src);
        assert_eq!(rules_of(&v), vec!["one-route", "one-route"]);
        assert_eq!((v[0].line, v[1].line), (2, 4));
        // The selector and the locality resolver own the inputs.
        for home in ONE_ROUTE_HOMES {
            assert!(lint_file(home, src).is_empty(), "{home}");
        }
        // Tests may build and inspect peers freely; a longer identifier
        // or a comment is not a read.
        let tested = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_file("crates/cmpi-core/src/pt2pt.rs", &tested).is_empty());
        let near = "fn f(x: &X) -> bool { x.considered_locally } // p.vis.shm\n";
        assert!(lint_file("crates/cmpi-core/src/pt2pt.rs", near).is_empty());
    }

    #[test]
    fn unsafe_scope_rule_confines_the_exception() {
        let files = |root: &str, body: &str| {
            vec![
                ("crates/x/src/lib.rs".to_string(), root.to_string()),
                (UNSAFE_EXCEPTION.0.to_string(), body.to_string()),
            ]
        };
        let dispatch = format!(
            "#[allow(unsafe_code)]\n{}) {{\n    // SAFETY: detected.\n    unsafe {{ g() }}\n}}\n",
            UNSAFE_EXCEPTION.1
        );
        assert!(lint_unsafe_scope(&files("#![deny(unsafe_code)]\n", &dispatch)).is_empty());
        // The same allow on another function, or in another file.
        let elsewhere = dispatch.replace(UNSAFE_EXCEPTION.1, "fn other(");
        let v = lint_unsafe_scope(&files("", &elsewhere));
        assert_eq!((rules_of(&v), v[0].line), (vec!["unsafe-scope"], 1));
        let moved = vec![("crates/x/src/a.rs".to_string(), dispatch.clone())];
        assert_eq!(lint_unsafe_scope(&moved).len(), 1);
        // A crate that forbids unsafe code may not say it at all: here
        // the file sits outside the forbidding crate, so only a file
        // under `crates/x/src/` is flagged.
        let mut forbid = files("#![forbid(unsafe_code)]\n", &dispatch);
        assert!(lint_unsafe_scope(&forbid).is_empty());
        forbid.push((
            "crates/x/src/a.rs".into(),
            "fn f() { unsafe { g() } }\n".into(),
        ));
        let v = lint_unsafe_scope(&forbid);
        assert_eq!(
            (rules_of(&v), v[0].file.as_str()),
            (vec!["unsafe-scope"], "crates/x/src/a.rs")
        );
        // Comments and strings are not code.
        forbid[2].1 = "// unsafe\nfn f() { let _ = \"allow(unsafe_code)\"; }\n".into();
        assert!(lint_unsafe_scope(&forbid).is_empty());
    }

    #[test]
    fn error_display_rule_flags_untested_variants() {
        let covered = concat!(
            "pub enum MpiError {\n",
            "    Truncated { msg_len: usize, buf_len: usize },\n",
            "    Revoked,\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn display_covers_every_variant() {\n",
            "        let _ = MpiError::Truncated { msg_len: 1, buf_len: 2 };\n",
            "        let _ = MpiError::Revoked;\n",
            "    }\n",
            "}\n",
        );
        assert!(lint_error_display(covered).is_empty());

        // Drop `Revoked` from the test body: the rule pins the variant's
        // declaration line.
        let missing = covered.replace("let _ = MpiError::Revoked;\n", "");
        let v = lint_error_display(&missing);
        assert_eq!(rules_of(&v), vec!["error-display"]);
        assert_eq!(v[0].line, 3);
        assert!(v[0].msg.contains("Revoked"));

        // No enum / no test at all are violations, not silent passes.
        assert_eq!(
            rules_of(&lint_error_display("fn f() {}\n")),
            vec!["error-display"]
        );
        let no_test = "pub enum MpiError { Revoked }\n";
        let v = lint_error_display(no_test);
        assert_eq!(rules_of(&v), vec!["error-display"]);
        assert!(v[0].msg.contains("not found"));
    }

    #[test]
    fn error_display_variant_parser_skips_fields_and_nested_lines() {
        let src = concat!(
            "pub enum MpiError {\n",
            "    /// doc\n",
            "    Fabric(FabricError),\n",
            "    StaleSegment {\n",
            "        host: u32,\n",
            "        generation: u64,\n",
            "    },\n",
            "    Revoked,\n",
            "}\n",
        );
        let names: Vec<String> = mpi_error_variants(src)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["Fabric", "StaleSegment", "Revoked"]);
    }

    #[test]
    fn metric_ids_rule_requires_test_and_design_coverage() {
        let covered_src = concat!(
            "pub enum MetricId {\n",
            "    ShmOps = 0,\n",
            "    LateSenderNs = 1,\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn exposition_covers_every_metric() {\n",
            "        let _ = [MetricId::ShmOps, MetricId::LateSenderNs];\n",
            "    }\n",
            "}\n",
        );
        let design = concat!(
            "### Metric inventory\n",
            "| `MetricId` | kind |\n",
            "|---|---|\n",
            "| `ShmOps` | counter |\n",
            "| `LateSenderNs` | counter |\n",
        );
        assert!(lint_metric_ids(covered_src, design).is_empty());

        // A variant absent from the test body pins its declaration line.
        let untested = covered_src.replace("MetricId::LateSenderNs]", "]");
        let v = lint_metric_ids(&untested, design);
        assert_eq!(rules_of(&v), vec!["metric-ids"]);
        assert_eq!(v[0].line, 3);
        assert!(v[0].msg.contains("LateSenderNs"));
        assert!(v[0].msg.contains("exposition_covers_every_metric"));

        // A variant absent from DESIGN.md is a separate violation.
        let v = lint_metric_ids(
            covered_src,
            &design.replace("| `LateSenderNs` | counter |\n", ""),
        );
        assert_eq!(rules_of(&v), vec!["metric-ids"]);
        assert!(v[0].msg.contains("DESIGN.md"));

        // So is a DESIGN.md without the table.
        let v = lint_metric_ids(covered_src, "`ShmOps` `LateSenderNs`\n");
        assert_eq!(rules_of(&v), vec!["metric-ids"]);
        assert!(v[0].msg.contains("not found"));

        // No enum / no test are violations, not silent passes.
        assert_eq!(
            rules_of(&lint_metric_ids("fn f() {}\n", design)),
            vec!["metric-ids"]
        );
        let no_test = "pub enum MetricId { ShmOps = 0 }\n";
        let v = lint_metric_ids(no_test, design);
        assert_eq!(rules_of(&v), vec!["metric-ids"]);
        assert!(v[0].msg.contains("not found"));
    }

    #[test]
    fn metric_ids_rule_flags_a_stale_design_row() {
        let src = concat!(
            "pub enum MetricId {\n",
            "    ShmOps = 0,\n",
            "}\n",
            "fn exposition_covers_every_metric() {\n",
            "    let _ = [MetricId::ShmOps];\n",
            "}\n",
        );
        // A deleted metric's row lingers below the live one; a backticked
        // name in a later column or under another heading is not a row.
        let design = concat!(
            "### Metric inventory\n",
            "| `MetricId` | source |\n",
            "|---|---|\n",
            "| `ShmOps` | `CommStats` |\n",
            "| `RetiredMetric` | substrate |\n",
            "\n",
            "### Next\n",
            "| `Elsewhere` | x |\n",
        );
        let v = lint_metric_ids(src, design);
        assert_eq!(rules_of(&v), vec!["metric-ids"]);
        assert_eq!((v[0].file.as_str(), v[0].line), ("DESIGN.md", 5));
        assert!(v[0].msg.contains("RetiredMetric"));
    }

    #[test]
    fn rule_inventory_requires_every_analyzer_rule_in_design() {
        let full = "§17 … `fiber-blocking` … `lock-order` … `atomic-pairing` …";
        assert!(lint_rule_inventory(full).is_empty());
        let partial = "§17 … `fiber-blocking` only";
        let v = lint_rule_inventory(partial);
        assert_eq!(rules_of(&v), vec!["rule-inventory", "rule-inventory"]);
        assert!(v[0].msg.contains("lock-order"));
        assert!(v[1].msg.contains("atomic-pairing"));
    }

    #[test]
    fn literal_stripping_handles_quotes_chars_and_raw_strings() {
        for src in [
            "fn f() { let s = \"unsafe {\"; }\n",
            "fn f() { let c = '\"'; let s = \"unsafe\"; }\n",
            "fn f() { panic!(\"unsafe\") }\n",
            "fn f() { let s = r\"unsafe {\"; }\n",
            "fn f() { let s = r#\"a \"quoted\" unsafe b\"#; }\n",
        ] {
            assert!(lint_file("crates/x/src/a.rs", src).is_empty(), "{src}");
        }
        assert!(has_word("unsafe impl Send for X {}", "unsafe"));
        assert!(!has_word("deny(unsafe_code)", "unsafe"));
    }

    // Regression: the seed lint's line-local stripper had two blind
    // spots — nested block comments and raw strings spanning macro
    // lines. Both now route through the shared lexer in `strip`.
    #[test]
    fn nested_block_comments_do_not_leak_tokens_into_rules() {
        let src = concat!(
            "/* outer /* inner */\n",
            "   unsafe { Ordering::Relaxed } still comment */\n",
            "fn f() {}\n",
        );
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn raw_string_inside_macro_does_not_leak_tokens_into_rules() {
        let src = concat!(
            "fn f() {\n",
            "    emit!(r#\"unsafe { .unwrap() }\n",
            "        Ordering::Relaxed across lines\"#);\n",
            "}\n",
        );
        assert!(lint_file("crates/cmpi-core/src/matching.rs", src).is_empty());
    }
}

//! Pins two line-lint rules against fixtures.
//!
//! * `one-route`: the one-sided channel choice `onesided.rs` once made
//!   beside the selector is flagged at every read of a decision input,
//!   and the file as it stands now — routing through
//!   `ChannelSelector::route` — is clean.
//! * `unsafe-scope`: the generator's unsafe exception moved off its
//!   dispatch function is flagged, and the `cmpi-apps` tree as it stands
//!   now — one allowed function, one `unsafe` call — is clean.

use cmpi_model::lint::{lint_file, lint_unsafe_scope, Violation, UNSAFE_EXCEPTION};
use cmpi_model::strip;

const ONESIDED_PATH: &str = "crates/cmpi-core/src/onesided.rs";
const COPIED_DECISION: &str = include_str!("fixtures/violating/one_route.rs");
const ONESIDED_NOW: &str = include_str!("../../cmpi-core/src/onesided.rs");

const APPS_ROOT: &str = "crates/cmpi-apps/src/lib.rs";
const APPS_ROOT_NOW: &str = include_str!("../../cmpi-apps/src/lib.rs");
const GENERATOR_NOW: &str = include_str!("../../cmpi-apps/src/graph500/generator.rs");
const MISPLACED_EXCEPTION: &str = include_str!("fixtures/violating/unsafe_scope.rs");

#[test]
fn a_copied_channel_decision_is_flagged_at_every_input_read() {
    let v = lint_file(ONESIDED_PATH, COPIED_DECISION);
    assert!(v.iter().all(|x| x.rule == "one-route"), "{v:?}");
    let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
    let expected: Vec<usize> = COPIED_DECISION
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("if peer."))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(expected.len(), 4, "fixture reads four inputs");
    assert_eq!(lines, expected);
}

#[test]
fn one_sided_routing_through_the_selector_is_clean() {
    let v = lint_file(ONESIDED_PATH, ONESIDED_NOW);
    assert!(v.is_empty(), "{v:?}");
    assert!(ONESIDED_NOW.contains("self.selector.route("));
}

/// `unsafe-scope` over the crate root and the generator as given.
fn unsafe_scope(root: &str, generator: &str) -> Vec<Violation> {
    lint_unsafe_scope(&[
        (APPS_ROOT.to_string(), root.to_string()),
        (UNSAFE_EXCEPTION.0.to_string(), generator.to_string()),
    ])
}

/// 1-based lines of `src` whose text contains `needle`.
fn lines_with(src: &str, needle: &str) -> Vec<usize> {
    (src.lines().enumerate())
        .filter(|(_, l)| l.contains(needle) && !l.trim_start().starts_with("//"))
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn a_misplaced_unsafe_exception_is_flagged() {
    let v = unsafe_scope(APPS_ROOT_NOW, MISPLACED_EXCEPTION);
    assert!(v.iter().all(|x| x.rule == "unsafe-scope"), "{v:?}");
    let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
    assert_eq!(lines, lines_with(MISPLACED_EXCEPTION, "allow(unsafe_code)"));
    // Under the crate root as it was, the block is flagged as well.
    let v = unsafe_scope("#![forbid(unsafe_code)]\n", MISPLACED_EXCEPTION);
    let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
    let mut expected = lines_with(MISPLACED_EXCEPTION, "allow(unsafe_code)");
    expected.extend(lines_with(MISPLACED_EXCEPTION, "unsafe {"));
    assert_eq!(lines, expected);
}

#[test]
fn the_generator_dispatch_is_the_one_unsafe_site() {
    let v = unsafe_scope(APPS_ROOT_NOW, GENERATOR_NOW);
    assert!(v.is_empty(), "{v:?}");
    assert!(APPS_ROOT_NOW.contains("#![deny(unsafe_code)]"));
    let code = strip::code_lines(GENERATOR_NOW);
    let unsafe_lines: Vec<&String> = code.iter().filter(|c| c.contains("unsafe {")).collect();
    assert_eq!(unsafe_lines.len(), 1, "{unsafe_lines:?}");
}

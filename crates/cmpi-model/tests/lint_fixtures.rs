//! Pins the `one-route` lint rule against a fixture: the one-sided
//! channel choice `onesided.rs` once made beside the selector is
//! flagged at every read of a decision input, and the file as it stands
//! now — routing through `ChannelSelector::route` — is clean.

use cmpi_model::lint::lint_file;

const ONESIDED_PATH: &str = "crates/cmpi-core/src/onesided.rs";
const COPIED_DECISION: &str = include_str!("fixtures/violating/one_route.rs");
const ONESIDED_NOW: &str = include_str!("../../cmpi-core/src/onesided.rs");

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

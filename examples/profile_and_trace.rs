//! Profiling and tracing: run a small Graph 500 search with the causal
//! profiler and the tracer on, print the per-peer channel matrix and the
//! wait-state decomposition, and export a Chrome/Perfetto timeline of
//! the virtual schedule (with flow arrows linking matched sends to their
//! receives).
//!
//! ```text
//! cargo run --release --example profile_and_trace
//! # then open the bfs_trace.json it names (in the system temp
//! # directory) in https://ui.perfetto.dev
//! ```

use container_mpi::apps::graph500::{bfs, Graph500Config};
use container_mpi::prelude::*;
use container_mpi::prof::Json;

fn main() {
    let cfg = Graph500Config {
        scale: 10,
        edgefactor: 8,
        num_roots: 1,
        validate: false,
        ..Default::default()
    };
    let spec = JobSpec::new(DeploymentScenario::fig1(2))
        .with_policy(LocalityPolicy::Hostname)
        .with_tracing()
        .with_profiling();
    let r = spec.run(|mpi| bfs::run_rank(mpi, &cfg));

    // The paper's Section III instrumentation, as a report.
    println!("{}", r.stats.report());

    // The causal profile: per-peer channel matrix + wait states. The
    // smoke checks here are the CI profile-smoke stage: the ledgers must
    // balance and the JSON export must round-trip through the parser.
    let profile = r.profile.expect("profiling was enabled");
    println!("{}", profile.report());
    assert_eq!(
        profile.conservation_error(),
        0,
        "matrix byte-conservation violated"
    );
    let doc = profile.to_json().to_string();
    Json::parse(&doc).expect("profile JSON must parse");
    // The temp directory exists wherever the example runs from, which a
    // relative `target/` does not when CARGO_TARGET_DIR points elsewhere.
    let dir = std::env::temp_dir();
    let ppath = dir.join("bfs_profile.json");
    std::fs::write(&ppath, &doc).expect("write profile");
    println!("wrote {}", ppath.display());

    let trace = r.trace.expect("tracing was enabled");
    println!(
        "recorded {} trace events across {} ranks",
        trace.len(),
        trace.ranks.len()
    );
    let chrome = trace.to_chrome_json();
    Json::parse(&chrome).expect("Chrome trace JSON must parse");
    let path = dir.join("bfs_trace.json");
    std::fs::write(&path, chrome).expect("write trace");
    println!(
        "wrote {} — open it in chrome://tracing or https://ui.perfetto.dev",
        path.display()
    );

    // A taste of the timeline: rank 0's class totals.
    println!("\nrank 0 virtual-time breakdown:");
    for (class, t) in trace.class_totals(0) {
        println!("  {:<12} {}", class.name(), t);
    }
}

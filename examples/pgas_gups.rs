//! The paper's future work, realized: a PGAS global-array random-access
//! kernel (GUPS) on co-resident containers, with and without the
//! Container Locality Detector.
//!
//! ```text
//! cargo run --release --example pgas_gups
//! ```

use cmpi_apps::pgas;
use container_mpi::prelude::*;

fn run(policy: LocalityPolicy) -> (f64, u64, SimTime) {
    let scenario = DeploymentScenario::containers(1, 4, 2, NamespaceSharing::default());
    let r = JobSpec::new(scenario)
        .with_policy(policy)
        .run(|mpi| pgas::gups(mpi, 1 << 12, 400, 7));
    let (rate, sum) = r.results[0];
    (rate, sum, r.elapsed)
}

fn main() {
    println!("PGAS GUPS: 8 ranks in 4 containers, 4096-entry global table,");
    println!("400 remote read-modify-write updates per rank\n");
    println!(
        "{:<28} {:>16} {:>14}",
        "configuration", "updates/s", "elapsed"
    );
    let mut sums = Vec::new();
    for (name, policy) in [
        ("Default (hostname-based)", LocalityPolicy::Hostname),
        (
            "Proposed (locality-aware)",
            LocalityPolicy::ContainerDetector,
        ),
    ] {
        let (rate, sum, elapsed) = run(policy);
        println!("{name:<28} {rate:>16.0} {:>14}", format!("{elapsed}"));
        sums.push(sum);
    }
    assert_eq!(sums[0], sums[1], "checksums must agree across policies");
    println!("\ntable checksum (policy-invariant): {:#x}", sums[0]);
    println!();
    println!("Every GUPS update is a tiny one-sided read+write to a random");
    println!("block owner. Under the hostname policy each one crosses the");
    println!("HCA loopback twice; the detector turns them into shared-memory");
    println!("accesses — the same effect the paper measures for MPI, carried");
    println!("to a PGAS programming model (the paper's Section VII plan).");
}

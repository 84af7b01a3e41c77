//! The paper's core effect, in one screen: the same two co-resident
//! containers, measured with the default (hostname-based) library and
//! with the Container Locality Detector.
//!
//! ```text
//! cargo run --release --example locality_detection
//! ```

use bytes::Bytes;
use container_mpi::prelude::*;

fn pingpong(policy: LocalityPolicy, size: usize) -> (SimTime, u64, u64, u64) {
    let scenario = DeploymentScenario::pt2pt_pair(true, true, NamespaceSharing::default());
    let spec = JobSpec::new(scenario).with_policy(policy);
    let iters = 50u64;
    let r = spec.run(move |mpi| {
        let payload = Bytes::from(vec![0u8; size]);
        if mpi.rank() == 0 {
            let t0 = mpi.now();
            for _ in 0..iters {
                mpi.send_bytes(payload.clone(), 1, 1);
                mpi.recv_bytes(1, 1);
            }
            (mpi.now() - t0) / (2 * iters)
        } else {
            for _ in 0..iters {
                let (m, _) = mpi.recv_bytes(0, 1);
                mpi.send_bytes(m, 0, 1);
            }
            SimTime::ZERO
        }
    });
    (
        r.results[0],
        r.stats.channel_ops(Channel::Shm),
        r.stats.channel_ops(Channel::Cma),
        r.stats.channel_ops(Channel::Hca),
    )
}

fn main() {
    println!("two containers, same host, same socket — 1 KiB ping-pong\n");
    println!(
        "{:<28} {:>12} {:>8} {:>8} {:>8}",
        "configuration", "latency", "SHM ops", "CMA ops", "HCA ops"
    );
    for (name, policy) in [
        ("Default (hostname-based)", LocalityPolicy::Hostname),
        (
            "Proposed (locality-aware)",
            LocalityPolicy::ContainerDetector,
        ),
    ] {
        let (lat, shm, cma, hca) = pingpong(policy, 1024);
        println!(
            "{name:<28} {:>12} {shm:>8} {cma:>8} {hca:>8}",
            format!("{lat}")
        );
    }
    println!();
    println!("The default library cannot tell the containers are co-resident");
    println!("(each has a unique hostname), so every byte crosses the HCA");
    println!("loopback. The detector publishes one byte per rank in a shared");
    println!("container list at init, discovers the co-residence, and routes");
    println!("through shared memory instead — the paper's up-to-9x win.");

    // What rank 0's locality view holds under each policy.
    println!();
    for policy in [LocalityPolicy::Hostname, LocalityPolicy::ContainerDetector] {
        let scenario = DeploymentScenario::pt2pt_pair(true, true, NamespaceSharing::default());
        let spec = JobSpec::new(scenario).with_policy(policy);
        let r = spec.run(|mpi| mpi.locality().local_ranks().to_vec());
        println!(
            "{policy:?}: rank 0 treats ranks {:?} as local",
            r.results[0]
        );
    }

    // Large messages: the CMA path.
    let (lat_def, ..) = pingpong(LocalityPolicy::Hostname, 256 * 1024);
    let (lat_opt, _, cma, _) = pingpong(LocalityPolicy::ContainerDetector, 256 * 1024);
    println!();
    println!("256 KiB: default {lat_def} vs proposed {lat_opt} ({cma} CMA single-copy transfers)");
}

//! Two-sided point-to-point benchmarks (`osu_latency`, `osu_bw`,
//! `osu_bibw`).

use bytes::Bytes;
use cmpi_cluster::SimTime;
use cmpi_core::JobSpec;

use crate::common::{mb_per_s, us_per_op, SizePoint};

/// `osu_latency`: ping-pong between ranks 0 and 1; one-way latency in µs
/// per message size.
pub fn latency(spec: &JobSpec, sizes: &[usize], iters: usize) -> Vec<SizePoint> {
    sizes
        .iter()
        .map(|&size| {
            let r = spec.run(move |mpi| {
                let payload = Bytes::from(vec![0u8; size]);
                if mpi.rank() == 0 {
                    // Warm-up exchange so queues exist.
                    mpi.send_bytes(payload.clone(), 1, 0);
                    mpi.recv_bytes(1, 0);
                    let t0 = mpi.now();
                    for _ in 0..iters {
                        mpi.send_bytes(payload.clone(), 1, 1);
                        mpi.recv_bytes(1, 1);
                    }
                    mpi.now() - t0
                } else {
                    let (m, _) = mpi.recv_bytes(0, 0);
                    mpi.send_bytes(m, 0, 0);
                    for _ in 0..iters {
                        let (m, _) = mpi.recv_bytes(0, 1);
                        mpi.send_bytes(m, 0, 1);
                    }
                    SimTime::ZERO
                }
            });
            SizePoint::new(size, us_per_op(r.results[0], 2 * iters as u64))
        })
        .collect()
}

/// `osu_bw`: rank 0 streams windows of messages, rank 1 acks each window;
/// MB/s per message size.
pub fn bandwidth(spec: &JobSpec, sizes: &[usize], window: usize, iters: usize) -> Vec<SizePoint> {
    sizes
        .iter()
        .map(|&size| {
            let r = spec.run(move |mpi| {
                let payload = Bytes::from(vec![0u8; size]);
                if mpi.rank() == 0 {
                    let t0 = mpi.now();
                    for _ in 0..iters {
                        let reqs: Vec<_> = (0..window)
                            .map(|_| mpi.isend_bytes(payload.clone(), 1, 1))
                            .collect();
                        mpi.waitall(reqs);
                        mpi.recv_bytes(1, 2); // window ack
                    }
                    mpi.now() - t0
                } else {
                    for _ in 0..iters {
                        let reqs: Vec<_> = (0..window).map(|_| mpi.irecv_bytes(0, 1)).collect();
                        mpi.waitall(reqs);
                        mpi.send_bytes(Bytes::from_static(&[0u8; 4]), 0, 2);
                    }
                    SimTime::ZERO
                }
            });
            let bytes = (size * window * iters) as u64;
            SizePoint::new(size, mb_per_s(bytes, r.results[0]))
        })
        .collect()
}

/// `osu_bibw`: both ranks stream windows simultaneously; aggregate MB/s.
pub fn bibandwidth(spec: &JobSpec, sizes: &[usize], window: usize, iters: usize) -> Vec<SizePoint> {
    sizes
        .iter()
        .map(|&size| {
            let r = spec.run(move |mpi| {
                let payload = Bytes::from(vec![0u8; size]);
                let peer = 1 - mpi.rank();
                let t0 = mpi.now();
                for _ in 0..iters {
                    let recvs: Vec<_> = (0..window).map(|_| mpi.irecv_bytes(peer, 1)).collect();
                    let sends: Vec<_> = (0..window)
                        .map(|_| mpi.isend_bytes(payload.clone(), peer, 1))
                        .collect();
                    mpi.waitall(recvs);
                    mpi.waitall(sends);
                }
                mpi.now() - t0
            });
            let span = r.results[0].max(r.results[1]);
            let bytes = (2 * size * window * iters) as u64;
            SizePoint::new(size, mb_per_s(bytes, span))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
    use cmpi_core::LocalityPolicy;

    fn opt_pair() -> JobSpec {
        JobSpec::new(DeploymentScenario::pt2pt_pair(
            true,
            true,
            NamespaceSharing::default(),
        ))
    }

    fn def_pair() -> JobSpec {
        opt_pair().with_policy(LocalityPolicy::Hostname)
    }

    #[test]
    fn latency_grows_with_size() {
        let pts = latency(&opt_pair(), &[64, 4096, 65536], 10);
        assert!(pts[0].value < pts[1].value);
        assert!(pts[1].value < pts[2].value);
    }

    #[test]
    fn opt_latency_beats_default() {
        let o = latency(&opt_pair(), &[1024], 10)[0].value;
        let d = latency(&def_pair(), &[1024], 10)[0].value;
        assert!(d > 2.0 * o, "def {d} opt {o}");
    }

    #[test]
    fn bandwidth_saturates_higher_for_opt() {
        let o = bandwidth(&opt_pair(), &[262_144], 16, 2)[0].value;
        let d = bandwidth(&def_pair(), &[262_144], 16, 2)[0].value;
        assert!(o > d, "opt {o} MB/s vs def {d} MB/s");
        // Opt large-message bandwidth should be in single-copy territory
        // (thousands of MB/s), default capped by the loopback (~3 GB/s).
        assert!(o > 4000.0, "opt bw {o}");
        assert!(d < 3500.0, "def bw {d}");
    }

    #[test]
    fn bibw_exceeds_unidirectional() {
        let uni = bandwidth(&opt_pair(), &[65536], 16, 2)[0].value;
        let bi = bibandwidth(&opt_pair(), &[65536], 16, 2)[0].value;
        assert!(bi > uni, "bi {bi} uni {uni}");
    }
}

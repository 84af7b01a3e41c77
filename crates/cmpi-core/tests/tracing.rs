//! Tracing and one-sided read-modify-write integration tests.

use cmpi_cluster::{DeploymentScenario, NamespaceSharing, SimTime};
use cmpi_core::{CallClass, JobSpec, ReduceOp};

fn pair() -> JobSpec {
    JobSpec::new(DeploymentScenario::pt2pt_pair(
        true,
        true,
        NamespaceSharing::default(),
    ))
}

#[test]
fn tracing_records_the_timeline() {
    let r = pair().with_tracing().run(|mpi| {
        if mpi.rank() == 0 {
            mpi.send(&[1u64; 64], 1, 0);
            mpi.compute(SimTime::from_us(10));
            mpi.allreduce(&[1u64], ReduceOp::Sum);
        } else {
            let mut b = [0u64; 64];
            mpi.recv(&mut b, 0, 0);
            mpi.allreduce(&[1u64], ReduceOp::Sum);
        }
    });
    let trace = r.trace.expect("tracing enabled");
    assert_eq!(trace.ranks.len(), 2);
    assert!(!trace.is_empty());
    // Rank 0 recorded pt2pt, compute and collective intervals.
    let totals = trace.class_totals(0);
    let get = |c: CallClass| totals.iter().find(|(x, _)| *x == c).unwrap().1;
    assert!(get(CallClass::Pt2pt) > SimTime::ZERO);
    assert_eq!(get(CallClass::Compute), SimTime::from_us(10));
    assert!(get(CallClass::Collective) > SimTime::ZERO);
    // Events are monotone per rank.
    for rt in &trace.ranks {
        let ev = rt.events();
        assert!(ev.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(ev.iter().all(|e| e.end > e.start));
    }
    // Chrome export round-trips the event count.
    let json = trace.to_chrome_json();
    assert_eq!(json.matches("\"ph\":\"X\"").count(), trace.len());
    // Trace intervals must reconcile with the stats accounting.
    assert_eq!(
        get(CallClass::Compute),
        r.stats.per_rank[0].time(CallClass::Compute)
    );
}

#[test]
fn tracing_off_by_default() {
    let r = pair().run(|mpi| mpi.rank());
    assert!(r.trace.is_none());
}

/// A read-modify-write of a peer's window from the origin: get, combine
/// locally, put back, then fence so the target sees the result.
#[test]
fn get_then_put_combines_elementwise() {
    let r = pair().run(|mpi| {
        let mut win = mpi.win_allocate(64);
        if mpi.rank() == 1 {
            mpi.win_write_local(&win, 0, &[10u64, 20, 30]);
        }
        mpi.fence(&mut win);
        if mpi.rank() == 0 {
            let mut resident = [0u64; 3];
            mpi.get(&mut win, 1, 0, &mut resident);
            let after: Vec<u64> = resident.iter().zip([1, 2, 3]).map(|(a, b)| a + b).collect();
            assert_eq!(after, vec![11, 22, 33]);
            mpi.put(&mut win, 1, 0, &after);
            mpi.flush(&mut win, 1);
        }
        mpi.fence(&mut win);
        let mut out = [0u64; 3];
        if mpi.rank() == 1 {
            mpi.win_read_local(&win, 0, &mut out);
        }
        out
    });
    assert_eq!(r.results[1], [11, 22, 33]);
}

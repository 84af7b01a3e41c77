//! Where a collective-heavy job spends its host time, phase by phase.
//!
//! Runs the body of the benchmark's `coll64` workload — 64 ranks, every
//! `CollectiveSelector` branch — as fibers on one worker, with a barrier
//! on each side of every (collective, size) phase, and prints rank 0's
//! best-of-N host milliseconds per phase. With one worker the interval
//! between the two barriers holds every rank's work on the phase, so the
//! rows add up to the job: the table says which collective a data-path
//! change moved, which the benchmark's single `wall_s` cannot.
//!
//! An optional second argument runs only the phases whose name contains
//! it (barriers still fence them), so one collective can be timed, or
//! sampled with `scripts/prof/sigprof.so`, on its own.
//!
//! ```text
//! cargo run --release --example coll_phases        # N = 1, a smoke run
//! cargo run --release --example coll_phases -- 15  # best of 15
//! cargo run --release --example coll_phases -- 9 "allreduce 128 KiB"
//! ```

use std::time::Instant;

use container_mpi::prelude::*;

const KIB: usize = 1024 / 8; // u64 elements

/// (label, calls per phase, elements) for the vector collectives.
const SIZED: [(&str, u32, usize); 4] = [
    ("8 B two-level", 20, 1),
    ("4 KiB two-level", 20, 4 * KIB),
    ("128 KiB flat", 4, 128 * KIB),
    ("256 KiB large", 4, 256 * KIB),
];

fn main() {
    const USAGE: &str = "usage: coll_phases [N [PHASE]]";
    let mut args = std::env::args().skip(1);
    let best_of: u32 = args.next().map_or(1, |a| a.parse().expect(USAGE));
    let only = args.next().unwrap_or_default();
    assert!(args.next().is_none(), "{USAGE}");
    let spec = JobSpec::new(DeploymentScenario::collective_256(4))
        .with_exec(ExecMode::Tasks)
        .with_workers(1);
    let filter = only.clone();
    let result = spec.run(move |mpi| {
        let (n, r) = (mpi.size(), mpi.rank());
        let mut rows: Vec<(String, f64, Option<u64>)> = Vec::new();
        let mut ok = true;
        for rep in 0..best_of {
            let mut row = 0;
            // One barrier-fenced phase; keeps the best time seen per row.
            let mut phase = |mpi: &mut Mpi, name: String, body: &mut dyn FnMut(&mut Mpi)| {
                if !name.contains(filter.as_str()) {
                    return;
                }
                mpi.barrier();
                let f0 = if r == 0 { minor_faults() } else { None };
                let t0 = Instant::now();
                body(mpi);
                mpi.barrier();
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let faults = f0.and_then(|f0| Some(minor_faults()? - f0));
                if rep == 0 {
                    rows.push((name, ms, faults));
                } else {
                    rows[row].1 = rows[row].1.min(ms);
                    rows[row].2 = faults;
                }
                row += 1;
            };
            phase(mpi, "barrier x50".into(), &mut |mpi| {
                (0..50).for_each(|_| mpi.barrier())
            });
            for (label, calls, len) in SIZED {
                phase(mpi, format!("bcast {label} x{calls}"), &mut |mpi| {
                    for it in 0..calls as usize {
                        let root = it % n;
                        let mut buf: Vec<u64> = (0..len).map(|i| (root + i) as u64).collect();
                        if r != root {
                            buf.fill(0);
                        }
                        mpi.bcast(&mut buf, root);
                        ok &= buf[len - 1] == (root + len - 1) as u64;
                    }
                });
                phase(mpi, format!("allreduce {label} x{calls}"), &mut |mpi| {
                    let mine: Vec<u64> = (0..len).map(|i| (r + i) as u64).collect();
                    for _ in 0..calls {
                        let sum = mpi.allreduce(&mine, ReduceOp::Sum);
                        ok &= sum[len - 1] == (n * (n - 1) / 2 + n * (len - 1)) as u64;
                    }
                });
                if len <= 4 * KIB {
                    phase(mpi, format!("allgather {label} x{calls}"), &mut |mpi| {
                        let mine = vec![r as u64; len];
                        for _ in 0..calls {
                            let all = mpi.allgather(&mine);
                            ok &= all.len() == n * len && all[(n - 1) * len] == (n - 1) as u64;
                        }
                    });
                }
            }
            for (label, blk) in [("8 B", 1), ("1 KiB", KIB)] {
                phase(mpi, format!("alltoall {label} two-level x10"), &mut |mpi| {
                    let mine: Vec<u64> = (0..n * blk).map(|j| (r * n + j / blk) as u64).collect();
                    for _ in 0..10 {
                        let got = mpi.alltoall(&mine, blk);
                        ok &= (0..n).all(|s| got[s * blk] == (s * n + r) as u64);
                    }
                });
            }
        }
        (rows, ok)
    });
    assert!(
        result.results.iter().all(|(_, ok)| *ok),
        "a collective returned a wrong value"
    );
    let rows = &result.results[0].0;
    assert!(!rows.is_empty(), "no phase name contains {only:?}");
    println!(
        "coll64 body, 64 ranks on one worker, best of {best_of} (host ms, rank 0; minor faults, last pass):"
    );
    let show = |f: Option<u64>| f.map_or("-".to_string(), |f| f.to_string());
    for (name, ms, faults) in rows {
        println!("  {name:<34} {ms:>8.2} {:>8}", show(*faults));
    }
    let total: f64 = rows.iter().map(|(_, ms, _)| ms).sum();
    let faults = rows.iter().map(|(_, _, f)| *f).sum::<Option<u64>>();
    println!("  {:<34} {total:>8.2} {:>8}", "sum of phases", show(faults));
    println!("virtual makespan: {}", result.elapsed);
}

/// The process's minor page faults so far: field 10 of
/// `/proc/self/stat`, the eighth after the parenthesised command name.
/// `None` where there is no such file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (_, fields) = stat.rsplit_once(") ")?;
    fields.split(' ').nth(7)?.parse().ok()
}

//! One fresh child process: set a workload up, run its repetitions,
//! report as one JSON line. A fresh process per sample keeps allocator
//! state from carrying over between workloads (the same 2-host
//! ping-pong read 190 ms after a clean start and 270 ms after a
//! 1024-rank job in one process).

use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

use cmpi_core::Json;

use crate::alloc::{self, AllocStats};
use crate::report::obj;
use crate::trace::{self, NameStats};
use crate::workloads::{msgs, prepare, run_rep, Counts, Workload, COUNTS};
use crate::yardstick;

/// What the parent asks of a child.
#[derive(Clone, Debug)]
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Size divisor (10 under `--quick`).
    pub div: u32,
    /// Record spans, write them to this file at exit, and run one
    /// more, untimed repetition under the counting allocator.
    pub trace_out: Option<PathBuf>,
    /// `SystemTime` at which the parent spawned the child, unix ns.
    pub spawned_unix_ns: u128,
}

pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock is past 1970")
        .as_nanos()
}

/// What a child measured.
#[derive(Clone, Debug, Default)]
pub struct ChildResult {
    /// Child-process start to the first timed repetition: scenario and
    /// job-spec construction, payloads and the cold warm-up repetition.
    pub setup_s: f64,
    /// `VmHWM` after the timed repetitions, MiB.
    pub peak_rss_mb: f64,
    pub virt_ns: u64,
    pub attempted: u32,
    pub failures: Vec<String>,
    /// Host ns of the timed repetition, and its init, body and finalize
    /// phases, which add up to it exactly.
    pub wall_ns: u64,
    pub phases: [u64; 3],
    /// Mean host ns of the yardstick bursts around the timed repetition.
    pub yard_ns: u64,
    pub counts: Counts,
    /// Per job of the workload: name and host ns per message.
    pub legs: Vec<(String, f64)>,
    pub results: Vec<(String, f64)>,
    pub spans: Vec<(String, NameStats)>,
    /// Allocation counts of one repetition and its message count.
    pub alloc: Option<(AllocStats, u64)>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the child's work: one cold warm-up repetition, then one timed one
/// with yardstick bursts on either side.
pub fn run(args: &ChildArgs) -> ChildResult {
    let w = args.workload;
    let p = prepare(w, args.seed, args.div);
    let warm_up = w.warm_up().then(|| run_rep(&p, 0, false));
    let setup_s = unix_ns().saturating_sub(args.spawned_unix_ns) as f64 / 1e9;
    let bursts = u64::from(w.yard_bursts());
    let yard = |n: u64| (0..n).map(|_| yardstick::burst()).sum::<u64>();
    let yard_before = yard(bursts);
    let rep = run_rep(&p, 1, args.trace_out.is_some());
    let yard_ns = (yard_before + yard(bursts)) / (2 * bursts);
    let peak_rss_mb = peak_rss_mb();

    let mut out = ChildResult {
        setup_s,
        peak_rss_mb,
        virt_ns: rep.virt_ns,
        attempted: rep.attempted,
        failures: rep.failures,
        wall_ns: rep.wall_ns,
        phases: rep.phases,
        yard_ns,
        counts: rep.counts,
        legs: (rep.legs.iter())
            .map(|l| (l.name.to_string(), l.wall_ns as f64 / l.msgs.max(1) as f64))
            .collect(),
        results: (rep.results.iter())
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        ..ChildResult::default()
    };
    // The reproduced result and every count repeat exactly.
    if let Some(warm) = warm_up {
        out.attempted += 1;
        if (warm.virt_ns, warm.counts) != (out.virt_ns, out.counts) {
            out.failures.push(format!(
                "{}: virtual time or counts differ between repetitions ({} vs {} ns)",
                w.name(),
                warm.virt_ns,
                out.virt_ns
            ));
        }
    }
    if let Some(path) = &args.trace_out {
        let (extra, stats) = alloc::measure(|| run_rep(&p, 2, false));
        out.alloc = Some((stats, msgs(&extra.counts)));
        out.spans = (trace::by_name(&rep.spans).into_iter())
            .map(|(n, s)| (n.as_str().to_string(), s))
            .collect();
        let write = (path.parent())
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, trace::to_json(w.name(), args.seed, &rep.spans)));
        if let Err(e) = write {
            out.failures
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    out
}

impl ChildResult {
    /// The one line a child prints.
    pub fn to_json(&self) -> Json {
        let pairs = |v: &[(String, f64)]| obj(v.iter().map(|(k, x)| (k.as_str(), Json::Num(*x))));
        obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("virt_ns", Json::num(self.virt_ns)),
            ("attempted", Json::num(u64::from(self.attempted))),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("wall_ns", Json::num(self.wall_ns)),
            ("phases", Json::Arr(self.phases.map(Json::num).to_vec())),
            ("yard_ns", Json::num(self.yard_ns)),
            ("counts", Json::Arr(self.counts.map(Json::num).to_vec())),
            ("legs", pairs(&self.legs)),
            ("results", pairs(&self.results)),
            (
                "spans",
                obj(self.spans.iter().map(|(k, s)| {
                    let row = [
                        s.count as f64,
                        s.total_ns as f64,
                        s.self_ns as f64,
                        s.median_ns,
                    ];
                    (k.as_str(), Json::Arr(row.map(Json::Num).to_vec()))
                })),
            ),
            (
                "alloc",
                self.alloc.map_or(Json::Null, |(a, msgs)| {
                    let row = [
                        a.allocs as i64,
                        a.frees as i64,
                        a.bytes as i64,
                        a.live_at_end,
                        a.peak_live,
                        msgs as i64,
                    ];
                    Json::Arr(row.map(|v| Json::Num(v as f64)).to_vec())
                }),
            ),
        ])
    }

    /// Parse what [`ChildResult::to_json`] wrote.
    pub fn from_json(j: &Json) -> Option<ChildResult> {
        let f = |k: &str| j.get(k)?.as_f64();
        let row = |v: &Json| -> Option<Vec<f64>> { v.as_arr()?.iter().map(Json::as_f64).collect() };
        let pairs = |k: &str| -> Option<Vec<(String, f64)>> {
            (j.get(k)?.as_obj()?.iter())
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        let counts = row(j.get("counts")?)?;
        if counts.len() != COUNTS.len() {
            return None;
        }
        Some(ChildResult {
            setup_s: f("setup_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            virt_ns: f("virt_ns")? as u64,
            attempted: f("attempted")? as u32,
            failures: (j.get("failures")?.as_arr()?.iter())
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            wall_ns: f("wall_ns")? as u64,
            phases: match row(j.get("phases")?)?[..] {
                [i, b, f] => [i as u64, b as u64, f as u64],
                _ => return None,
            },
            yard_ns: f("yard_ns")? as u64,
            counts: std::array::from_fn(|i| counts[i] as u64),
            legs: pairs("legs")?,
            results: pairs("results")?,
            spans: (j.get("spans")?.as_obj()?.iter())
                .map(|(k, v)| match row(v)?[..] {
                    [count, total, selft, median_ns] => Some((
                        k.clone(),
                        NameStats {
                            count: count as u64,
                            total_ns: total as u64,
                            self_ns: selft as u64,
                            median_ns,
                        },
                    )),
                    _ => None,
                })
                .collect::<Option<_>>()?,
            alloc: match j.get("alloc")? {
                Json::Null => None,
                v => match row(v)?[..] {
                    [allocs, frees, bytes, live, peak, msgs] => Some((
                        AllocStats {
                            allocs: allocs as u64,
                            frees: frees as u64,
                            bytes: bytes as u64,
                            live_at_end: live as i64,
                            peak_live: peak as i64,
                        },
                        msgs as u64,
                    )),
                    _ => return None,
                },
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quick_traced_child_round_trips_and_its_trace_file_parses() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/selftest-{}", std::process::id()));
        let path = dir.join("trace_pt2pt_eager.json");
        let res = run(&ChildArgs {
            workload: Workload::PtEager,
            seed: 3,
            div: 100,
            trace_out: Some(path.clone()),
            spawned_unix_ns: unix_ns(),
        });
        assert!(res.failures.is_empty(), "{:?}", res.failures);
        assert_eq!(res.phases.iter().sum::<u64>(), res.wall_ns);
        assert!(res.setup_s > 0.0 && res.peak_rss_mb > 0.0 && res.virt_ns > 0);
        assert!(res.yard_ns > 0);
        let sends = &res.spans.iter().find(|(k, _)| k == "pt2pt.send").unwrap().1;
        // Three legs of 500 round trips, two sends each.
        assert_eq!(sends.count, 2 * 3 * 500);

        let line = res.to_json().to_string();
        let back = ChildResult::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), line);
        assert_eq!((back.wall_ns, back.counts), (res.wall_ns, res.counts));

        let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = trace.get("spans").and_then(|s| s.as_arr()).unwrap();
        let total: u64 = res.spans.iter().map(|(_, s)| s.count).sum();
        assert_eq!(spans.len() as u64, total);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Metric registry, pooling of child results, output and `--compare`.
//!
//! The registry here is the single list of metric names and units;
//! `BENCHMARK.json` at the repository root must list exactly the same
//! (a self-test compares them).

use cmpi_core::Json;

use crate::child::ChildResult;
use crate::stats::{median, summarize, Summary};
use crate::workloads::{msgs, Workload, COUNTS};
use crate::yardstick;

/// A name the benchmark contract accepts: starts with a letter or
/// digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
pub fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// An end-to-end metric: unit, and the share of the reference median by
/// which it may get worse before a change counts as a regression.
/// Lower is better for all four.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    // Median host seconds of one timed repetition (whole jobs), at the
    // yardstick's reference speed (see `Pool::walls`).
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    // Median host seconds from child start to the first timed
    // repetition, at the reference speed likewise.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    // Virtual-clock milliseconds of one repetition: the reproduced
    // result. Exact for a given seed, and `--compare` holds it to that;
    // the bound is for a comparison across seeds, whose start skews
    // differ by up to 15 ns per job.
    EndToEnd {
        name: "virt_ms",
        unit: "ms",
        bound: 0.02,
    },
    // Child VmHWM, median over the children.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.05,
    },
];

/// Per-layer metrics in output order: `(name, unit, better)`. `_ns`,
/// `_us`, `_ms` are host time per call; `count` metrics are per
/// repetition of the workload being reported and repeat exactly.
pub const PER_LAYER: [(&str, &str, &str); 79] = [
    ("cluster.cost_eval_ns", "ns", "lower"),
    ("cluster.scenario_build_1024_us", "us", "lower"),
    ("channel.route_ns", "ns", "lower"),
    ("channel.shm_ops", "count", "lower"),
    ("channel.cma_ops", "count", "lower"),
    ("channel.hca_ops", "count", "lower"),
    ("channel.shm_bytes", "count", "lower"),
    ("channel.cma_bytes", "count", "lower"),
    ("channel.hca_bytes", "count", "lower"),
    ("channel.eager_msgs", "count", "lower"),
    ("channel.rndv_msgs", "count", "lower"),
    ("shmem.pairq_acquire_release_ns", "ns", "lower"),
    ("shmem.pairq_backpressured_window_us", "us", "lower"),
    ("shmem.clist_publish_ns", "ns", "lower"),
    ("shmem.clist_scan_1024_us", "us", "lower"),
    ("shmem.segment_rw_64k_ns", "ns", "lower"),
    ("shmem.queue_acquires", "count", "lower"),
    ("shmem.queue_stalls", "count", "lower"),
    ("shmem.max_in_flight", "count", "lower"),
    ("fabric.attach_us", "us", "lower"),
    ("fabric.post_poll_1k_ns", "ns", "lower"),
    ("fabric.rdma_write_64k_ns", "ns", "lower"),
    ("fabric.rdma_read_64k_ns", "ns", "lower"),
    ("fabric.sends", "count", "lower"),
    ("fabric.recvs", "count", "lower"),
    ("fabric.rdma", "count", "lower"),
    ("matching.post_match_d64_ns", "ns", "lower"),
    ("matching.unexpected_push_pop_ns", "ns", "lower"),
    ("matching.wildcard_match_ns", "ns", "lower"),
    ("matching.probe_miss_ns", "ns", "lower"),
    ("matching.posted_peak", "count", "lower"),
    ("matching.unexpected_peak", "count", "lower"),
    ("locality.map_build_1024_us", "us", "lower"),
    ("locality.view_publish_build_16_us", "us", "lower"),
    ("runtime.init_ms", "ms", "lower"),
    ("runtime.body_ms", "ms", "lower"),
    ("runtime.finalize_ms", "ms", "lower"),
    ("runtime.noop_job_2_us", "us", "lower"),
    ("runtime.noop_job_32_us", "us", "lower"),
    ("runtime.noop_job_1024_ms", "ms", "lower"),
    ("runtime.msgs", "count", "lower"),
    ("pt2pt.send_call_ns", "ns", "lower"),
    ("pt2pt.recv_call_ns", "ns", "lower"),
    ("pt2pt.isend_call_ns", "ns", "lower"),
    ("pt2pt.irecv_call_ns", "ns", "lower"),
    ("pt2pt.wait_ns", "ns", "lower"),
    ("pt2pt.shm_1k_ns_per_msg", "ns", "lower"),
    ("pt2pt.unattributed_share", "ratio", "lower"),
    ("coll.barrier_call_ns", "ns", "lower"),
    ("coll.bcast_call_ns", "ns", "lower"),
    ("coll.allreduce_call_ns", "ns", "lower"),
    ("coll.allgather_call_ns", "ns", "lower"),
    ("coll.alltoall_call_ns", "ns", "lower"),
    ("coll.large_call_us", "us", "lower"),
    ("coll.selected_flat", "count", "lower"),
    ("coll.selected_two_level", "count", "lower"),
    ("coll.selected_large", "count", "lower"),
    ("exec.w2_over_w1_wall", "ratio", "lower"),
    ("exec.threads_over_tasks_wall", "ratio", "lower"),
    ("exec.barrier32_ns", "ns", "lower"),
    ("mailbox.pushes", "count", "lower"),
    ("mailbox.parks", "count", "lower"),
    ("mailbox.wakes", "count", "lower"),
    ("telemetry.on_over_off_wall", "ratio", "lower"),
    ("prof.on_over_off_wall", "ratio", "lower"),
    ("telemetry.flight_events", "count", "lower"),
    ("telemetry.flight_dropped", "count", "lower"),
    ("alloc.count_per_msg", "1/msg", "lower"),
    ("alloc.bytes_per_msg", "B/msg", "lower"),
    ("alloc.retained_bytes_per_msg", "B/msg", "lower"),
    ("apps.g500_bfs_virt_ms_opt", "ms", "lower"),
    ("apps.g500_bfs_virt_ms_def", "ms", "lower"),
    ("apps.g500_teps_opt", "1/s", "higher"),
    ("paper.g500_opt_over_def", "ratio", "lower"),
    ("paper.lat_1k_opt_over_def", "ratio", "lower"),
    ("paper.bw_64k_opt_over_def", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("host.drift", "ratio", "lower"),
    ("host.wall_raw_s", "s", "lower"),
];

/// Layers one SHM-eager message crosses that a micro-kernel reaches;
/// what they leave of a message's host time is the mailbox, fiber
/// switch, request table and instrumentation, reachable only from
/// inside the program.
const CROSSED: [&str; 4] = [
    "channel.route_ns",
    "cluster.cost_eval_ns",
    "shmem.pairq_acquire_release_ns",
    "matching.post_match_d64_ns",
];

/// Yardstick time around a child's timed repetition over its reference.
pub fn drift(c: &ChildResult) -> f64 {
    c.yard_ns as f64 / yardstick::REF_NS
}

/// The children of one workload, pooled.
#[derive(Clone, Debug)]
pub struct Pool {
    pub workload: Workload,
    pub children: Vec<ChildResult>,
    /// Children that timed out, crashed or printed nothing usable.
    pub lost: Vec<String>,
}

impl Pool {
    pub fn new(workload: Workload) -> Pool {
        Pool {
            workload,
            children: Vec::new(),
            lost: Vec::new(),
        }
    }

    /// Host seconds of each child's timed repetition, as measured.
    pub fn raw_walls(&self) -> Vec<f64> {
        (self.children.iter())
            .map(|c| c.wall_ns as f64 / 1e9)
            .collect()
    }

    /// How many times slower than the reference speed the host ran the
    /// yardstick around each child's timed repetition.
    pub fn drifts(&self) -> Vec<f64> {
        self.children.iter().map(drift).collect()
    }

    /// Host seconds of each child's timed repetition at the reference
    /// speed: the measured time over the child's own drift. The host's
    /// speed wanders by a quarter to a half over minutes, longer than a
    /// run, so no statistic over a run's raw times is steady.
    pub fn walls(&self) -> Vec<f64> {
        (self.children.iter())
            .map(|c| c.wall_ns as f64 / 1e9 / drift(c))
            .collect()
    }

    /// Samples of the four end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> [Vec<f64>; 4] {
        let per_child = |f: fn(&ChildResult) -> f64| self.children.iter().map(f).collect();
        [
            self.walls(),
            per_child(|c| c.setup_s / drift(c)),
            per_child(|c| c.virt_ns as f64 / 1e6),
            per_child(|c| c.peak_rss_mb),
        ]
    }

    /// Operations attempted and failed. A lost child fails as many
    /// operations as a completed sibling attempted (at least one). The
    /// pool adds one operation of its own: virtual time and counts are
    /// the same in every child.
    pub fn ops(&self) -> (u64, Vec<String>) {
        let per_child = self.children.first().map_or(1, |c| u64::from(c.attempted));
        let mut attempted = per_child * self.lost.len() as u64 + 1;
        let mut failures: Vec<String> = Vec::new();
        for l in &self.lost {
            failures.extend(std::iter::repeat_n(l.clone(), per_child as usize));
        }
        for c in &self.children {
            attempted += u64::from(c.attempted);
            failures.extend(c.failures.iter().cloned());
        }
        if let Some(first) = self.children.first() {
            let key = (first.virt_ns, first.counts);
            if self.children.iter().any(|c| (c.virt_ns, c.counts) != key) {
                failures.push(format!(
                    "{}: virtual time or counts differ between child processes",
                    self.workload.name()
                ));
            }
        } else {
            failures.push(format!("{}: no child completed", self.workload.name()));
        }
        (attempted, failures)
    }
}

/// Span-derived metrics: the median duration of a span name in the
/// trace of the workload whose work it is, divided by `per`.
const FROM_SPANS: [(&str, Workload, &str, f64); 11] = [
    ("pt2pt.send_call_ns", Workload::PtEager, "pt2pt.send", 1.0),
    ("pt2pt.recv_call_ns", Workload::PtEager, "pt2pt.recv", 1.0),
    ("pt2pt.isend_call_ns", Workload::Mixed32, "pt2pt.isend", 1.0),
    ("pt2pt.irecv_call_ns", Workload::Mixed32, "pt2pt.irecv", 1.0),
    ("pt2pt.wait_ns", Workload::Mixed32, "pt2pt.wait", 1.0),
    (
        "coll.barrier_call_ns",
        Workload::Coll64,
        "coll.barrier",
        1.0,
    ),
    ("coll.bcast_call_ns", Workload::Coll64, "coll.bcast", 1.0),
    (
        "coll.allreduce_call_ns",
        Workload::Coll64,
        "coll.allreduce",
        1.0,
    ),
    (
        "coll.allgather_call_ns",
        Workload::Coll64,
        "coll.allgather",
        1.0,
    ),
    (
        "coll.alltoall_call_ns",
        Workload::Coll64,
        "coll.alltoall",
        1.0,
    ),
    ("coll.large_call_us", Workload::Coll64, "coll.large", 1e3),
];

/// Per-layer metrics that belong to the workload being reported, beside
/// the counts; every other one reads the same whichever workload is named.
const OWN: [&str; 10] = [
    "runtime.init_ms",
    "runtime.body_ms",
    "runtime.finalize_ms",
    "runtime.msgs",
    "alloc.count_per_msg",
    "alloc.bytes_per_msg",
    "alloc.retained_bytes_per_msg",
    "trace.overhead",
    "host.drift",
    "host.wall_raw_s",
];

/// The part of a traced run that does not depend on which workload is
/// reported: the micro-kernel values and one traced child per workload.
pub struct Fixed {
    pub kernels: Vec<(&'static str, f64)>,
    pub traced: Vec<(Workload, ChildResult)>,
}

/// Everything a traced run knows about the workload of `pool`, whose
/// children ran untraced, as the registry's metrics.
pub fn per_layer(pool: &Pool, fixed: &Fixed) -> Result<Vec<(&'static str, f64)>, String> {
    let w = pool.workload;
    let of = |w: Workload| {
        (fixed.traced.iter().find(|(t, _)| *t == w).map(|(_, c)| c))
            .ok_or_else(|| format!("no traced run of {}", w.name()))
    };
    let kernel = |name: &str| {
        (fixed.kernels.iter().find(|(k, _)| *k == name))
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("no kernel {name}"))
    };
    let me = of(w)?;
    let (alloc, alloc_msgs) = me.alloc.ok_or("traced run without allocation counts")?;
    let per_msg = |v: f64| v / alloc_msgs.max(1) as f64;
    let g500 = of(Workload::Graph500)?;
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, _, _) in PER_LAYER {
        let v = if let Some(i) = COUNTS.iter().position(|(c, _)| *c == name) {
            me.counts[i] as f64
        } else if let Some((_, v)) = g500.results.iter().find(|(k, _)| k == name) {
            *v
        } else if let Some((_, w, span, per)) = FROM_SPANS.iter().find(|(m, ..)| *m == name) {
            let stats = (of(*w)?.spans.iter().find(|(k, _)| k == span))
                .ok_or_else(|| format!("no {span} span in the trace of {}", w.name()))?;
            stats.1.median_ns / per
        } else {
            match name {
                "runtime.init_ms" => me.phases[0] as f64 / 1e6,
                "runtime.body_ms" => me.phases[1] as f64 / 1e6,
                "runtime.finalize_ms" => me.phases[2] as f64 / 1e6,
                "runtime.msgs" => msgs(&me.counts) as f64,
                "pt2pt.unattributed_share" => {
                    let crossed: Result<Vec<f64>, String> =
                        CROSSED.iter().map(|k| kernel(k)).collect();
                    1.0 - crossed?.iter().sum::<f64>() / kernel("pt2pt.shm_1k_ns_per_msg")?
                }
                "alloc.count_per_msg" => per_msg(alloc.allocs as f64),
                "alloc.bytes_per_msg" => per_msg(alloc.bytes as f64),
                "alloc.retained_bytes_per_msg" => per_msg(alloc.peak_live as f64),
                "trace.overhead" => me.wall_ns as f64 / 1e9 / drift(me) / median(&pool.walls()),
                "host.drift" => median(&pool.drifts()),
                "host.wall_raw_s" => median(&pool.raw_walls()),
                _ => kernel(name)?,
            }
        };
        out.push((name, v));
    }
    Ok(out)
}

// ------------------------------------------------------------- output

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The result line of one driver run: `correct`, `attempted`, `failed`
/// and `metrics`, each metric as measured with its unit.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            obj(metrics.iter().map(|&(k, v, unit)| (k, metric(v, unit)))),
        ),
    ])
    .to_string()
}

/// One workload of a full run.
pub struct Section {
    pub pool: Pool,
    pub per_layer: Vec<(&'static str, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    (PER_LAYER.iter().find(|(n, _, _)| *n == name)).map_or("", |(_, u, _)| u)
}

/// Whether a per-layer metric is the same for every workload (a
/// micro-kernel or a fixed probe) rather than a property of one.
fn is_global(name: &str) -> bool {
    !OWN.contains(&name) && !COUNTS.iter().any(|(c, _)| *c == name)
}

/// The result file of a full run (`benchmark/out/result.json`), which
/// `--compare` reads.
pub fn full_json(seed: u64, quick: bool, sections: &[Section]) -> Json {
    let summary = |s: Summary, unit: &str| {
        obj([
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("n", Json::Num(s.n as f64)),
            ("unit", Json::str(unit)),
        ])
    };
    let values = |sec: &Section, global: bool| {
        obj((sec.per_layer.iter())
            .filter(|(k, _)| is_global(k) == global)
            .map(|&(k, v)| (k, metric(v, unit_of(k)))))
    };
    obj([
        ("schema", Json::str("cmpi-benchmark.v1")),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        (
            "workloads",
            obj(sections.iter().map(|sec| {
                let (attempted, failures) = sec.pool.ops();
                let e2e = sec.pool.end_to_end();
                (
                    sec.pool.workload.name(),
                    obj([
                        ("attempted", Json::Num(attempted as f64)),
                        ("failed", Json::Num(failures.len() as f64)),
                        (
                            "end_to_end",
                            obj(END_TO_END.iter().zip(&e2e).filter_map(|(m, v)| {
                                Some((m.name, summary(summarize(v)?, m.unit)))
                            })),
                        ),
                        ("per_layer", values(sec, false)),
                    ]),
                )
            })),
        ),
        (
            "per_layer_global",
            sections.first().map_or(Json::Null, |s| values(s, true)),
        ),
    ])
}

/// Print a full run for people: every metric by name with its unit.
pub fn print_full(sections: &[Section]) {
    for sec in sections {
        let w = sec.pool.workload;
        let (attempted, failures) = sec.pool.ops();
        let walls = sec.pool.raw_walls();
        println!(
            "\n== {}: {} operations attempted, {} failed; repetition expected {:.2} s, observed {:.3} s",
            w.name(),
            attempted,
            failures.len(),
            w.expected_rep_s(),
            median(&walls),
        );
        for f in failures.iter().take(8) {
            println!("   FAILED {f}");
        }
        for (m, v) in END_TO_END.iter().zip(sec.pool.end_to_end()) {
            if let Some(s) = summarize(&v) {
                println!(
                    "   {:<14} {:>14.6} {:<4} [q1 {:.6}, q3 {:.6}, n {}, spread {:.1}%, bound {:.0}%]",
                    m.name,
                    s.median,
                    m.unit,
                    s.q1,
                    s.q3,
                    s.n,
                    100.0 * s.spread(),
                    100.0 * m.bound
                );
            }
        }
        if let Some(c) = sec.pool.children.first() {
            for (leg, ns) in &c.legs {
                println!("   leg {leg:<10} {ns:>14.1} ns/msg (host, whole job)");
            }
        }
        for (k, v) in sec.per_layer.iter().filter(|(k, _)| !is_global(k)) {
            println!("   {k:<36} {v:>16.4} {}", unit_of(k));
        }
    }
    if let Some(sec) = sections.first().filter(|s| !s.per_layer.is_empty()) {
        println!("\n== per-layer, same for every workload");
        for (k, v) in sec.per_layer.iter().filter(|(k, _)| is_global(k)) {
            println!("   {k:<36} {v:>16.4} {}", unit_of(k));
        }
    }
}

/// `--compare A B`: per (metric, workload) both medians, the relative
/// difference and the bound. Returns the lines and whether every pair is
/// within its bound and every count identical. `virt_ms` is exact for a
/// seed: when A and B ran with the same seed it must be identical too,
/// and its bound is for a comparison across seeds only.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let workloads = |j: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        match j.get("schema").and_then(Json::as_str) {
            Some("cmpi-benchmark.v1") => {}
            other => {
                return Err(format!(
                    "not a cmpi-benchmark.v1 result file (schema {other:?})"
                ))
            }
        }
        Ok(j.get("workloads")
            .and_then(Json::as_obj)
            .ok_or("no \"workloads\" object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let seed = |j: &Json| j.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    if a.get("quick") != b.get("quick") {
        return Err("one file is from a --quick run, the other is not".to_string());
    }
    let mut lines = vec![format!(
        "{:<14} {:<28} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B vs A", "bound"
    )];
    let mut ok = true;
    for (w, ja) in &wa {
        let jb = (wb.iter().find(|(k, _)| k == w).map(|(_, v)| v))
            .ok_or_else(|| format!("workload {w} is missing from B"))?;
        for m in &END_TO_END {
            let med = |j: &Json| {
                (j.get("end_to_end")?.get(m.name)?.get("median")?.as_f64()).filter(|v| *v > 0.0)
            };
            let (x, y) = (med(ja), med(jb));
            let (Some(x), Some(y)) = (x, y) else {
                return Err(format!("{w}: {} is missing or zero", m.name));
            };
            let rel = y / x - 1.0;
            let exact = same_seed && m.name == "virt_ms";
            let bound = if exact { 0.0 } else { m.bound };
            let verdict = if exact && x != y {
                "  DIFFERS"
            } else if rel > bound {
                "  OUTSIDE"
            } else {
                ""
            };
            ok &= verdict.is_empty();
            lines.push(format!(
                "{w:<14} {:<28} {x:>16.6} {y:>16.6} {:>+8.2}% {:>6.0}%{verdict}",
                m.name,
                100.0 * rel,
                100.0 * bound,
            ));
        }
        let layer = |j: &Json, k: &str| j.get("per_layer")?.get(k)?.get("value")?.as_f64();
        for (k, unit, _) in PER_LAYER.iter().filter(|(_, unit, _)| *unit == "count") {
            if let (Some(x), Some(y)) = (layer(ja, k), layer(jb, k)) {
                if x != y {
                    ok = false;
                    lines.push(format!("{w:<14} {k:<28} {x:>16} {y:>16}  {unit} DIFFERS"));
                }
            }
        }
    }
    Ok((lines, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_follow_the_contract_and_are_used_once() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name()));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(!name_ok("-x") && !name_ok("a b") && !name_ok("") && !name_ok(&"a".repeat(65)));
        for (c, _) in COUNTS {
            assert_eq!(unit_of(c), "count", "{c}");
        }
    }

    /// `BENCHMARK.json` lists the workloads, the end-to-end metrics with
    /// these bounds, and the per-layer registry, in order.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |k: &str| j.get(k).and_then(Json::as_arr).unwrap().to_vec();
        let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let names: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name()));
        let e2e: Vec<_> = (list("end_to_end").iter())
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = (END_TO_END.iter())
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    "lower".to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<_> = (list("per_layer").iter())
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let want: Vec<_> = (PER_LAYER.iter())
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, want);
    }

    fn child(wall_ns: u64, virt_ns: u64) -> ChildResult {
        ChildResult {
            setup_s: 0.5,
            peak_rss_mb: 10.0,
            virt_ns,
            attempted: 4,
            wall_ns,
            phases: [1, wall_ns - 2, 1],
            yard_ns: yardstick::REF_NS as u64,
            ..ChildResult::default()
        }
    }

    #[test]
    fn a_lost_child_fails_a_childs_worth_of_operations() {
        let mut pool = Pool::new(Workload::Mixed32);
        pool.children = vec![child(100, 7), child(120, 7)];
        assert_eq!(pool.ops(), (9, vec![]));
        pool.lost.push("timed out".into());
        let (attempted, failures) = pool.ops();
        assert_eq!((attempted, failures.len()), (13, 4));
        pool.children[1].virt_ns = 8;
        assert_eq!(pool.ops().1.len(), 5);
        assert_eq!(Pool::new(Workload::Mixed32).ops().1.len(), 1);
    }

    #[test]
    fn result_files_parse_and_compare_flags_what_is_outside_its_bound() {
        let section = |wall_ns| {
            let mut pool = Pool::new(Workload::Mixed32);
            pool.children = vec![child(wall_ns, 7_000_000)];
            Section {
                pool,
                per_layer: vec![("channel.shm_ops", 5.0), ("channel.route_ns", 2.5)],
            }
        };
        let file =
            |wall_ns| Json::parse(&full_json(1, true, &[section(wall_ns)]).to_string()).unwrap();
        let (a, slower, much_slower) = (file(1000), file(1050), file(1400));
        let (lines, ok) = compare(&a, &slower).unwrap();
        assert!(ok, "{lines:?}");
        assert_eq!(lines.len(), 5);
        let (lines, ok) = compare(&a, &much_slower).unwrap();
        assert!(
            !ok && lines
                .iter()
                .any(|l| l.contains("wall_s") && l.contains("OUTSIDE"))
        );
        // Faster is never a regression.
        assert!(compare(&much_slower, &a).unwrap().1);
        // Virtual time is exact for a seed; across seeds it has a bound.
        let virt = |seed, virt_ns| {
            let mut pool = Pool::new(Workload::Mixed32);
            pool.children = vec![child(1000, virt_ns)];
            let per_layer = Vec::new();
            Json::parse(&full_json(seed, true, &[Section { pool, per_layer }]).to_string()).unwrap()
        };
        let (lines, ok) = compare(&virt(1, 7_000_000), &virt(1, 6_999_999)).unwrap();
        assert!(
            !ok && lines
                .iter()
                .any(|l| l.contains("virt_ms") && l.contains("DIFFERS"))
        );
        assert!(compare(&virt(1, 7_000_000), &virt(2, 7_000_009)).unwrap().1);
        assert!(!compare(&virt(1, 7_000_000), &virt(2, 7_200_000)).unwrap().1);
        assert!(compare(&a, &Json::Null).is_err());
        let full = Json::parse(&full_json(1, false, &[section(1000)]).to_string()).unwrap();
        assert!(compare(&a, &full).is_err());
        let line = Json::parse(&result_line(3, 1, &[("wall_s", 0.25, "s")])).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.25));
    }
}

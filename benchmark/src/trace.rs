//! Harness-side spans: the benchmark times the system from outside, so
//! a span is recorded around each call the harness makes into a layer.
//! Spans stay in memory until the child process ends and are then
//! written to `benchmark/out/trace_<workload>.json`.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process. All spans of one
/// process share this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span covers; the name carries its layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    Job,
    Init,
    Body,
    Finalize,
    Rank,
    Send,
    Recv,
    Isend,
    Irecv,
    Wait,
    Barrier,
    Bcast,
    Allreduce,
    Allgather,
    Alltoall,
    Large,
    Graph500,
}

impl Name {
    pub const ALL: [Name; 17] = [
        Name::Job,
        Name::Init,
        Name::Body,
        Name::Finalize,
        Name::Rank,
        Name::Send,
        Name::Recv,
        Name::Isend,
        Name::Irecv,
        Name::Wait,
        Name::Barrier,
        Name::Bcast,
        Name::Allreduce,
        Name::Allgather,
        Name::Alltoall,
        Name::Large,
        Name::Graph500,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Job => "runtime.job",
            Name::Init => "runtime.init",
            Name::Body => "runtime.body",
            Name::Finalize => "runtime.finalize",
            Name::Rank => "runtime.rank_closure",
            Name::Send => "pt2pt.send",
            Name::Recv => "pt2pt.recv",
            Name::Isend => "pt2pt.isend",
            Name::Irecv => "pt2pt.irecv",
            Name::Wait => "pt2pt.wait",
            Name::Barrier => "coll.barrier",
            Name::Bcast => "coll.bcast",
            Name::Allreduce => "coll.allreduce",
            Name::Allgather => "coll.allgather",
            Name::Alltoall => "coll.alltoall",
            Name::Large => "coll.large",
            Name::Graph500 => "apps.graph500_rank",
        }
    }
}

/// Parent index of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;
/// Rank of a span that belongs to the whole job.
pub const NO_RANK: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    pub rank: u32,
    /// Repetition the span belongs to (the identifier its spans share).
    pub rep: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One rank's recorder. Index 0 is the rank's closure span; every call
/// span is its child. With `on == false` (`--trace 0`) a call costs one
/// predictable branch, so timed and traced runs share the workload code.
pub struct RankTracer {
    on: bool,
    rank: u32,
    rep: u32,
    spans: Vec<Span>,
}

impl RankTracer {
    pub fn new(on: bool, rank: usize, rep: u32, start_ns: u64) -> RankTracer {
        let mut tr = RankTracer {
            on,
            rank: rank as u32,
            rep,
            spans: Vec::new(),
        };
        if on {
            tr.push(Name::Rank, start_ns, start_ns, NO_PARENT);
        }
        tr
    }

    fn push(&mut self, name: Name, start_ns: u64, end_ns: u64, parent: u32) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rank: self.rank,
            rep: self.rep,
        });
    }

    /// Run `f`, the harness's call into a layer, under a span.
    #[inline]
    pub fn call<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = now_ns();
        let out = f();
        self.push(name, start_ns, now_ns(), 0);
        out
    }

    /// Close the rank's closure span and hand the spans over.
    pub fn finish(mut self, end_ns: u64) -> Vec<Span> {
        if let Some(root) = self.spans.first_mut() {
            root.end_ns = end_ns;
        }
        self.spans
    }
}

/// Assemble one job's span tree: the job, its three phases (contiguous,
/// so they sum to the job exactly) and every rank's closure with the
/// calls under it. Rank-local parent indices are rebased onto `out`.
pub fn push_job(
    out: &mut Vec<Span>,
    rep: u32,
    [t0, entered, left, t1]: [u64; 4],
    ranks: Vec<Vec<Span>>,
) {
    let job = out.len() as u32;
    let whole = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        rank: NO_RANK,
        rep,
    };
    out.push(whole(Name::Job, t0, t1, NO_PARENT));
    out.push(whole(Name::Init, t0, entered, job));
    out.push(whole(Name::Body, entered, left, job));
    out.push(whole(Name::Finalize, left, t1, job));
    for spans in ranks {
        let base = out.len() as u32;
        out.extend(spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                job
            } else {
                base + s.parent
            };
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap one another (rank
/// closures interleave on one worker), so the covered part is the
/// measure of the union of the child intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            kids[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0;
            let mut upto = s.start_ns;
            for &(a, b) in k.iter() {
                let a = a.max(upto);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub median_ns: f64,
}

/// Count, total, self time and median duration of each span name, in
/// [`Name::ALL`] order (names without spans are left out).
pub fn by_name(spans: &[Span]) -> Vec<(Name, NameStats)> {
    let selfs = self_times(spans);
    let mut durs: Vec<Vec<f64>> = vec![Vec::new(); Name::ALL.len()];
    let mut stats = vec![NameStats::default(); Name::ALL.len()];
    for (s, self_ns) in spans.iter().zip(selfs) {
        let st = &mut stats[s.name as usize];
        st.count += 1;
        st.total_ns += s.dur();
        st.self_ns += self_ns;
        durs[s.name as usize].push(s.dur() as f64);
    }
    Name::ALL
        .iter()
        .filter(|n| stats[**n as usize].count > 0)
        .map(|&n| {
            let mut st = stats[n as usize];
            st.median_ns = crate::stats::median(&durs[n as usize]);
            (n, st)
        })
        .collect()
}

/// The trace file: a name table, one row per span and the per-name
/// summary. Rows are `[name, start_ns, end_ns, parent, rank, rep]` with
/// `name` an index into `names`, `parent` a row index, and -1 for "none".
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let opt = |v: u32| if v == u32::MAX { -1 } else { i64::from(v) };
    let mut s = String::with_capacity(64 + spans.len() * 40);
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host ns since child start\",\
         \"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"rank\",\"rep\"],\"names\":["
    );
    for (i, n) in Name::ALL.iter().enumerate() {
        let _ = write!(s, "{}\"{}\"", if i > 0 { "," } else { "" }, n.as_str());
    }
    s.push_str("],\"summary\":{");
    for (i, (n, st)) in by_name(spans).iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"median_ns\":{}}}",
            if i > 0 { "," } else { "" },
            n.as_str(),
            st.count,
            st.total_ns,
            st.self_ns,
            st.median_ns
        );
    }
    s.push_str("},\"spans\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let _ = writeln!(
            s,
            "[{},{},{},{},{},{}]{}",
            sp.name as u8,
            sp.start_ns,
            sp.end_ns,
            opt(sp.parent),
            opt(sp.rank),
            sp.rep,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rank: 0,
            rep: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = [
            span(Name::Job, 0, 100, NO_PARENT),
            // Two children overlapping on 30..40: union covers 10..60.
            span(Name::Rank, 10, 40, 0),
            span(Name::Rank, 30, 60, 0),
            // A grandchild, and a child that sticks out past its parent.
            span(Name::Send, 12, 20, 1),
            span(Name::Recv, 55, 70, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 25, 8, 15]);
    }

    #[test]
    fn job_tree_phases_sum_to_the_job_and_parents_are_rebased() {
        let mut out = vec![span(Name::Job, 0, 1, NO_PARENT)];
        let mut tr = RankTracer::new(true, 3, 7, 110);
        tr.call(Name::Send, || ());
        let rank = tr.finish(190);
        push_job(&mut out, 7, [100, 120, 180, 200], vec![rank]);
        let job = &out[1];
        assert_eq!((job.name, job.dur()), (Name::Job, 100));
        let phases: u64 = out[2..5].iter().map(Span::dur).sum();
        assert_eq!(phases, job.dur());
        assert_eq!(
            (out[5].name, out[5].parent, out[5].rank),
            (Name::Rank, 1, 3)
        );
        assert_eq!((out[6].name, out[6].parent, out[6].rep), (Name::Send, 5, 7));
        // Phases cover the job: it has no self time.
        assert_eq!(self_times(&out)[1], 0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = RankTracer::new(false, 0, 0, 0);
        assert_eq!(tr.call(Name::Send, || 5), 5);
        assert!(tr.finish(9).is_empty());
    }

    #[test]
    fn span_names_are_metric_safe_and_the_file_parses() {
        for n in Name::ALL {
            assert!(crate::report::name_ok(n.as_str()), "{}", n.as_str());
            assert_eq!(Name::ALL[n as usize], n);
        }
        let spans = [
            span(Name::Job, 0, 100, NO_PARENT),
            span(Name::Send, 10, 40, 0),
        ];
        let json = cmpi_core::Json::parse(&to_json("w", 1, &spans)).expect("trace parses");
        assert_eq!(json.get("spans").and_then(|s| s.as_arr()).unwrap().len(), 2);
        let send = json
            .get("summary")
            .and_then(|s| s.get("pt2pt.send"))
            .unwrap();
        assert_eq!(send.get("self_ns").and_then(|v| v.as_f64()), Some(30.0));
    }
}

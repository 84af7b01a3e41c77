//! Communication statistics — the library's built-in mpiP substitute.
//!
//! The paper's bottleneck analysis (Section III) relies on two
//! instruments: a per-channel count of message-transfer operations
//! (Table I) and a communication/computation time breakdown (Fig. 3(a)).
//! Every rank maintains a [`CommStats`]; [`JobStats`] aggregates them at
//! finalize.

use cmpi_cluster::{Channel, SimTime};
use cmpi_prof::{chan_index, NUM_CHANNELS};

use crate::coll_select::{CollAlgo, CollKind};

/// Per-channel operation and byte counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelCounter {
    /// Data-bearing transfer operations (eager chunks, CMA copies, HCA
    /// sends — control packets are not transfers).
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

/// Where virtual time was spent, mirroring the mpiP call classes the
/// paper profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallClass {
    /// Two-sided point-to-point calls (send/recv/isend/irecv/wait).
    Pt2pt,
    /// Non-blocking completion polling (`MPI_Test`).
    Poll,
    /// Collective operations.
    Collective,
    /// One-sided operations (put/get/flush/fence).
    OneSided,
    /// Time outside MPI (charged via `Mpi::compute`).
    Compute,
}

impl CallClass {
    /// All classes in display order.
    pub const ALL: [CallClass; 5] = [
        CallClass::Pt2pt,
        CallClass::Poll,
        CallClass::Collective,
        CallClass::OneSided,
        CallClass::Compute,
    ];

    fn index(self) -> usize {
        match self {
            CallClass::Pt2pt => 0,
            CallClass::Poll => 1,
            CallClass::Collective => 2,
            CallClass::OneSided => 3,
            CallClass::Compute => 4,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            CallClass::Pt2pt => "pt2pt",
            CallClass::Poll => "poll",
            CallClass::Collective => "collective",
            CallClass::OneSided => "one-sided",
            CallClass::Compute => "compute",
        }
    }
}

/// Degraded-mode recovery counters: how often the library had to repair
/// or route around an injected (or real) partial failure. All zero on a
/// healthy run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Stale or corrupt container-list segments re-initialized at attach.
    pub list_recoveries: u64,
    /// Conflicting claims on this rank's membership slot that the rank
    /// repaired by re-asserting its byte.
    pub publish_conflicts: u64,
    /// Post-barrier container-list rescans waiting for silent peers.
    pub init_retries: u64,
    /// Transient QP-creation failures absorbed by the attach retry loop.
    pub attach_retries: u64,
    /// Transient send-completion errors absorbed by reposting.
    pub send_retries: u64,
    /// Peers downgraded from intra-host channels (SHM/CMA) to the HCA.
    pub hca_downgrades: u64,
    /// Peers this rank convicted dead (lease expiry confirmed by the
    /// job-wide down table).
    pub convictions: u64,
    /// Communicator revocations this rank initiated or propagated.
    pub revokes: u64,
    /// Survivor communicators this rank adopted via `shrink`.
    pub shrinks: u64,
    /// Worst observed detection latency in virtual nanoseconds: the span
    /// from a peer's death to this rank convicting it. Max-merged, so the
    /// job-wide value is the slowest detection anywhere.
    pub detect_ns: u64,
}

impl RecoveryStats {
    /// Fieldwise sum (detection latency is max-merged: the aggregate
    /// reports the worst detection anywhere in the job, not a meaningless
    /// sum of latencies).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.list_recoveries += other.list_recoveries;
        self.publish_conflicts += other.publish_conflicts;
        self.init_retries += other.init_retries;
        self.attach_retries += other.attach_retries;
        self.send_retries += other.send_retries;
        self.hca_downgrades += other.hca_downgrades;
        self.convictions += other.convictions;
        self.revokes += other.revokes;
        self.shrinks += other.shrinks;
        self.detect_ns = self.detect_ns.max(other.detect_ns);
    }

    /// `true` when any recovery action was taken.
    pub fn any(&self) -> bool {
        *self != RecoveryStats::default()
    }
}

/// One rank's statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    channels: [ChannelCounter; NUM_CHANNELS],
    times: [SimTime; 5],
    /// Calls per (collective kind, selected algorithm) — the selector's
    /// audit trail, indexed `[CollKind::index()][CollAlgo::index()]`.
    coll: [[u64; 3]; 7],
    /// Degraded-mode recovery counters.
    pub recovery: RecoveryStats,
}

impl CommStats {
    /// Record one data-bearing transfer.
    pub fn record_op(&mut self, channel: Channel, bytes: usize) {
        let c = &mut self.channels[chan_index(channel)];
        c.ops += 1;
        c.bytes += bytes as u64;
    }

    /// Attribute `dt` of virtual time to `class`.
    pub fn add_time(&mut self, class: CallClass, dt: SimTime) {
        self.times[class.index()] += dt;
    }

    /// Record which algorithm the collective selector picked for one call.
    pub fn record_coll(&mut self, kind: CollKind, algo: CollAlgo) {
        self.coll[kind.index()][algo.index()] += 1;
    }

    /// Number of `kind` calls that ran under `algo`.
    pub fn coll_count(&self, kind: CollKind, algo: CollAlgo) -> u64 {
        self.coll[kind.index()][algo.index()]
    }

    /// Counter for one channel.
    pub fn channel(&self, c: Channel) -> ChannelCounter {
        self.channels[chan_index(c)]
    }

    /// Time attributed to one class.
    pub fn time(&self, class: CallClass) -> SimTime {
        self.times[class.index()]
    }

    /// Total communication time (everything except compute).
    pub fn comm_time(&self) -> SimTime {
        CallClass::ALL
            .iter()
            .filter(|c| !matches!(c, CallClass::Compute))
            .map(|&c| self.time(c))
            .sum()
    }

    /// Merge another rank's statistics into this one.
    pub fn merge(&mut self, other: &CommStats) {
        for i in 0..NUM_CHANNELS {
            self.channels[i].ops += other.channels[i].ops;
            self.channels[i].bytes += other.channels[i].bytes;
        }
        for i in 0..5 {
            self.times[i] += other.times[i];
        }
        for (mine, theirs) in self.coll.iter_mut().zip(other.coll.iter()) {
            for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                *m += t;
            }
        }
        self.recovery.merge(&other.recovery);
    }
}

/// Job-wide aggregated statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Per-rank statistics, rank-ordered.
    pub per_rank: Vec<CommStats>,
    /// Sum over all ranks.
    pub total: CommStats,
}

impl JobStats {
    /// Aggregate per-rank stats.
    pub fn new(per_rank: Vec<CommStats>) -> Self {
        let mut total = CommStats::default();
        for s in &per_rank {
            total.merge(s);
        }
        JobStats { per_rank, total }
    }

    /// Job-wide transfer-operation count on a channel (a Table I cell).
    pub fn channel_ops(&self, c: Channel) -> u64 {
        self.total.channel(c).ops
    }

    /// Job-wide bytes moved on a channel.
    pub fn channel_bytes(&self, c: Channel) -> u64 {
        self.total.channel(c).bytes
    }

    /// Job-wide recovery counters (sum over ranks).
    pub fn recovery(&self) -> RecoveryStats {
        self.total.recovery
    }

    /// Job-wide count of `kind` calls the selector routed to `algo`.
    pub fn coll_selections(&self, kind: CollKind, algo: CollAlgo) -> u64 {
        self.total.coll_count(kind, algo)
    }

    /// Fraction of total time spent communicating, averaged over ranks
    /// (the Fig. 3(a) proportion).
    pub fn comm_fraction(&self) -> f64 {
        let comm = self.total.comm_time().as_ns() as f64;
        let compute = self.total.time(CallClass::Compute).as_ns() as f64;
        if comm + compute == 0.0 {
            0.0
        } else {
            comm / (comm + compute)
        }
    }
}

impl JobStats {
    /// Render an mpiP-style plain-text profile: per-class time totals,
    /// per-channel transfer counts, and the top-N ranks by communication
    /// time. This is the report the paper's Section III analysis is built
    /// from.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "--- communication profile ({} ranks) ---",
            self.per_rank.len()
        );
        let comm = self.total.comm_time();
        let compute = self.total.time(CallClass::Compute);
        let _ = writeln!(
            out,
            "aggregate: comm {} ({:.1}%), compute {}",
            comm,
            self.comm_fraction() * 100.0,
            compute
        );
        let _ = writeln!(out, "{:<12} {:>14}", "class", "time");
        for c in CallClass::ALL {
            let _ = writeln!(
                out,
                "{:<12} {:>14}",
                c.name(),
                format!("{}", self.total.time(c))
            );
        }
        let _ = writeln!(out, "{:<8} {:>12} {:>16}", "channel", "transfers", "bytes");
        for ch in Channel::ALL {
            let _ = writeln!(
                out,
                "{:<8} {:>12} {:>16}",
                ch.name(),
                self.channel_ops(ch),
                self.channel_bytes(ch)
            );
        }
        let any_coll = CollKind::ALL.iter().any(|&k| {
            CollAlgo::ALL
                .iter()
                .any(|&a| self.total.coll_count(k, a) > 0)
        });
        if any_coll {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>10} {:>8}",
                "collective", "flat", "two-level", "large"
            );
            for k in CollKind::ALL {
                if CollAlgo::ALL
                    .iter()
                    .all(|&a| self.total.coll_count(k, a) == 0)
                {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:<12} {:>8} {:>10} {:>8}",
                    k.name(),
                    self.total.coll_count(k, CollAlgo::Flat),
                    self.total.coll_count(k, CollAlgo::TwoLevel),
                    self.total.coll_count(k, CollAlgo::Large)
                );
            }
        }
        let rec = self.recovery();
        if rec.any() {
            let _ = writeln!(
                out,
                "recovery: {} list re-inits, {} publish conflicts, {} init retries, \
                 {} attach retries, {} send retries, {} HCA downgrades",
                rec.list_recoveries,
                rec.publish_conflicts,
                rec.init_retries,
                rec.attach_retries,
                rec.send_retries,
                rec.hca_downgrades
            );
        }
        if rec.convictions > 0 {
            let _ = writeln!(
                out,
                "faults: {} convictions, {} revokes, {} shrinks, worst detection {}",
                rec.convictions,
                rec.revokes,
                rec.shrinks,
                SimTime(rec.detect_ns)
            );
        }
        // Top ranks by communication time.
        let mut by_comm: Vec<(usize, SimTime)> = self
            .per_rank
            .iter()
            .enumerate()
            .map(|(r, s)| (r, s.comm_time()))
            .collect();
        by_comm.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
        let _ = writeln!(out, "top ranks by comm time:");
        for (r, t) in by_comm.iter().take(5) {
            let _ = writeln!(out, "  rank {r:<5} {t}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_the_profile() {
        let mut a = CommStats::default();
        a.add_time(CallClass::Pt2pt, SimTime::from_us(30));
        a.add_time(CallClass::Compute, SimTime::from_us(10));
        a.record_op(Channel::Shm, 4096);
        let js = JobStats::new(vec![a, CommStats::default()]);
        let rep = js.report();
        assert!(rep.contains("2 ranks"));
        assert!(rep.contains("75.0%"));
        assert!(rep.contains("SHM"));
        assert!(rep.contains("4096"));
        assert!(rep.contains("rank 0"));
    }

    #[test]
    fn counters_accumulate_per_channel() {
        let mut s = CommStats::default();
        s.record_op(Channel::Shm, 100);
        s.record_op(Channel::Shm, 50);
        s.record_op(Channel::Hca, 10);
        assert_eq!(
            s.channel(Channel::Shm),
            ChannelCounter { ops: 2, bytes: 150 }
        );
        assert_eq!(s.channel(Channel::Cma), ChannelCounter::default());
        assert_eq!(
            s.channel(Channel::Hca),
            ChannelCounter { ops: 1, bytes: 10 }
        );
    }

    #[test]
    fn times_accumulate_per_class() {
        let mut s = CommStats::default();
        s.add_time(CallClass::Pt2pt, SimTime::from_us(5));
        s.add_time(CallClass::Pt2pt, SimTime::from_us(3));
        s.add_time(CallClass::Compute, SimTime::from_us(10));
        assert_eq!(s.time(CallClass::Pt2pt), SimTime::from_us(8));
        assert_eq!(s.comm_time(), SimTime::from_us(8));
    }

    #[test]
    fn merge_is_fieldwise_sum() {
        let mut a = CommStats::default();
        a.record_op(Channel::Cma, 7);
        a.add_time(CallClass::Collective, SimTime::from_us(1));
        let mut b = CommStats::default();
        b.record_op(Channel::Cma, 3);
        b.add_time(CallClass::Collective, SimTime::from_us(2));
        a.merge(&b);
        assert_eq!(
            a.channel(Channel::Cma),
            ChannelCounter { ops: 2, bytes: 10 }
        );
        assert_eq!(a.time(CallClass::Collective), SimTime::from_us(3));
    }

    #[test]
    fn job_stats_aggregate_and_fraction() {
        let mut r0 = CommStats::default();
        r0.add_time(CallClass::Pt2pt, SimTime::from_us(30));
        r0.add_time(CallClass::Compute, SimTime::from_us(10));
        let mut r1 = CommStats::default();
        r1.add_time(CallClass::Collective, SimTime::from_us(47));
        r1.add_time(CallClass::Compute, SimTime::from_us(13));
        r0.record_op(Channel::Hca, 5);
        let js = JobStats::new(vec![r0, r1]);
        assert_eq!(js.channel_ops(Channel::Hca), 1);
        assert_eq!(js.channel_bytes(Channel::Hca), 5);
        // comm = 77us, compute = 23us -> 77%: the paper's "BFS is
        // communication-bound" shape.
        assert!(
            (js.comm_fraction() - 0.77).abs() < 1e-6,
            "{}",
            js.comm_fraction()
        );
    }

    #[test]
    fn empty_job_has_zero_fraction() {
        assert_eq!(JobStats::new(vec![]).comm_fraction(), 0.0);
    }

    #[test]
    fn coll_selections_merge_and_surface_in_report() {
        let mut a = CommStats::default();
        a.record_coll(CollKind::Bcast, CollAlgo::TwoLevel);
        a.record_coll(CollKind::Bcast, CollAlgo::TwoLevel);
        a.record_coll(CollKind::Allreduce, CollAlgo::Large);
        let mut b = CommStats::default();
        b.record_coll(CollKind::Bcast, CollAlgo::Flat);
        let js = JobStats::new(vec![a, b]);
        assert_eq!(js.coll_selections(CollKind::Bcast, CollAlgo::TwoLevel), 2);
        assert_eq!(js.coll_selections(CollKind::Bcast, CollAlgo::Flat), 1);
        assert_eq!(js.coll_selections(CollKind::Allreduce, CollAlgo::Large), 1);
        assert_eq!(js.coll_selections(CollKind::Barrier, CollAlgo::Flat), 0);
        let rep = js.report();
        assert!(rep.contains("two-level"));
        assert!(rep.contains("bcast"));
        // Kinds never called are not listed.
        assert!(!rep.contains("alltoall"));
        // A job without collectives omits the section entirely.
        assert!(!JobStats::new(vec![CommStats::default()])
            .report()
            .contains("two-level"));
    }

    #[test]
    fn recovery_counters_merge_and_surface_in_report() {
        let mut a = CommStats::default();
        a.recovery.hca_downgrades = 2;
        a.recovery.send_retries = 1;
        let mut b = CommStats::default();
        b.recovery.hca_downgrades = 3;
        b.recovery.list_recoveries = 1;
        let js = JobStats::new(vec![a, b]);
        let rec = js.recovery();
        assert_eq!(rec.hca_downgrades, 5);
        assert_eq!(rec.send_retries, 1);
        assert_eq!(rec.list_recoveries, 1);
        assert!(rec.any());
        assert!(js.report().contains("5 HCA downgrades"));
        // A healthy job reports no recovery line at all.
        assert!(!JobStats::new(vec![CommStats::default()])
            .report()
            .contains("recovery:"));
    }

    #[test]
    fn fault_counters_sum_except_detection_latency_which_maxes() {
        let mut a = CommStats::default();
        a.recovery.convictions = 1;
        a.recovery.detect_ns = 400_000;
        let mut b = CommStats::default();
        b.recovery.convictions = 1;
        b.recovery.revokes = 1;
        b.recovery.shrinks = 1;
        b.recovery.detect_ns = 250_000;
        let js = JobStats::new(vec![a, b]);
        let rec = js.recovery();
        assert_eq!(rec.convictions, 2);
        assert_eq!(rec.revokes, 1);
        assert_eq!(rec.shrinks, 1);
        // Max-merge: the job-wide latency is the worst rank's, not a sum.
        assert_eq!(rec.detect_ns, 400_000);
        let rep = js.report();
        assert!(rep.contains("2 convictions"));
        assert!(rep.contains("worst detection"));
        // A healthy job reports no fault line at all.
        assert!(!JobStats::new(vec![CommStats::default()])
            .report()
            .contains("faults:"));
    }
}

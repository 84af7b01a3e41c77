//! The per-rank collector and the job-wide profile report.
//!
//! Each rank carries a [`ProfCollector`] while profiling is on; at
//! finalize the runtime assembles the collectors — plus substrate
//! counters from the SHM queues and the fabric endpoints — into a
//! [`JobProfile`], the artifact behind `figures --fig profile` and the
//! integration tests.

use cmpi_cluster::Channel;

use crate::json::Json;
use crate::matrix::{chan_index, RankMatrix};
use crate::wait::{WaitClass, WaitStats};

/// One rank's in-flight profiling state.
#[derive(Clone, Debug)]
pub struct ProfCollector {
    /// Traffic this rank initiated, by destination (row sums equal the
    /// rank's `CommStats` channel counters).
    pub tx: RankMatrix,
    /// Traffic delivered to this rank, by source.
    pub rx: RankMatrix,
    /// One-sided traffic this rank placed *into* a target's window, by
    /// target. The target executes no code for a put, so the origin
    /// records the delivery on its behalf; assembly folds these into the
    /// target's rx row.
    pub rx_remote: RankMatrix,
    /// Wait-state decomposition per call class.
    pub waits: WaitStats,
}

impl ProfCollector {
    /// An empty collector for a job of `n` ranks.
    pub fn new(n: usize) -> Self {
        ProfCollector {
            tx: RankMatrix::new(n),
            rx: RankMatrix::new(n),
            rx_remote: RankMatrix::new(n),
            waits: WaitStats::default(),
        }
    }
}

/// Job-wide SHM eager-queue pressure counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueuePressure {
    /// Pair queues instantiated.
    pub queues: u64,
    /// Successful space claims across all queues (the stall-ratio
    /// denominator the health evaluator consumes).
    pub acquires: u64,
    /// Acquires that found the queue full and had to wait for a
    /// receiver-side drain (each one is backpressure the Fig. 7(b)
    /// sweep measures).
    pub stalled_acquires: u64,
    /// Highest bytes-in-flight observed on any one queue.
    pub max_in_flight: u64,
    /// Packets pushed into rank mailboxes (lock-free MPSC path).
    pub mailbox_pushes: u64,
    /// Times a rank's task descheduled on its empty mailbox.
    pub mailbox_parks: u64,
    /// Cross-thread wakeups delivered to parked ranks.
    pub mailbox_wakes: u64,
}

/// Per-rank fabric endpoint counters (posted vs. delivered).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Two-sided messages posted.
    pub sends: u64,
    /// Two-sided bytes posted.
    pub send_bytes: u64,
    /// Messages drained by the receiver's progress engine.
    pub recvs: u64,
    /// Bytes drained.
    pub recv_bytes: u64,
    /// RDMA operations initiated.
    pub rdma_ops: u64,
    /// RDMA bytes moved.
    pub rdma_bytes: u64,
}

/// The assembled job profile.
#[derive(Clone, Debug)]
pub struct JobProfile {
    /// Per-rank transmitted-traffic rows.
    pub tx: Vec<RankMatrix>,
    /// Per-rank received-traffic rows (one-sided on-behalf records
    /// already folded in).
    pub rx: Vec<RankMatrix>,
    /// Per-rank wait-state tables.
    pub waits: Vec<WaitStats>,
    /// SHM eager-queue pressure.
    pub queue: QueuePressure,
    /// Per-rank fabric endpoint counters.
    pub fabric: Vec<FabricCounters>,
}

impl JobProfile {
    /// Fold per-rank collectors and substrate counters into a profile.
    pub fn assemble(
        collectors: Vec<ProfCollector>,
        queue: QueuePressure,
        fabric: Vec<FabricCounters>,
    ) -> JobProfile {
        let n = collectors.len();
        let mut tx = Vec::with_capacity(n);
        let mut rx = Vec::with_capacity(n);
        let mut waits = Vec::with_capacity(n);
        let mut remote = Vec::with_capacity(n);
        for c in collectors {
            tx.push(c.tx);
            rx.push(c.rx);
            waits.push(c.waits);
            remote.push(c.rx_remote);
        }
        // Fold origin-recorded one-sided deliveries into the target rows:
        // rx[target][origin] += remote[origin][target].
        for (origin, row_remote) in remote.iter().enumerate() {
            for (target, row) in rx.iter_mut().enumerate() {
                let cell = row_remote.cell(target);
                if cell.ops() > 0 {
                    row.absorb_cell(origin, cell);
                }
            }
        }
        JobProfile {
            tx,
            rx,
            waits,
            queue,
            fabric,
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.tx.len()
    }

    /// Bytes rank `from` initiated towards `to` on one channel.
    pub fn pair_channel_bytes(&self, from: usize, to: usize, ch: Channel) -> u64 {
        self.tx[from].cell(to).chan[chan_index(ch)].bytes
    }

    /// Largest conservation violation over unordered pairs:
    /// `|tx(i,j)+tx(j,i) − rx(i,j)−rx(j,i)|` in bytes. Zero means every
    /// byte any rank initiated was delivered exactly once — the
    /// "matrix symmetric in bytes" check the CI smoke stage runs.
    pub fn conservation_error(&self) -> u64 {
        let n = self.num_ranks();
        let mut worst = 0u64;
        for i in 0..n {
            for j in i..n {
                let sent = self.tx[i].cell(j).bytes() + self.tx[j].cell(i).bytes();
                let recvd = self.rx[i].cell(j).bytes() + self.rx[j].cell(i).bytes();
                worst = worst.max(sent.abs_diff(recvd));
            }
        }
        worst
    }

    /// Job-wide wait breakdown for one class (summed over ranks).
    pub fn wait_total(&self, class: WaitClass) -> crate::wait::WaitBreakdown {
        let mut out = crate::wait::WaitBreakdown::default();
        for w in &self.waits {
            out.merge(w.class(class));
        }
        out
    }

    /// Human-readable report: the per-peer channel matrix (peers with
    /// traffic only), the wait-state table, and substrate pressure.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let n = self.num_ranks();
        let mut out = String::new();
        let _ = writeln!(out, "--- job profile ({n} ranks) ---");
        let _ = writeln!(
            out,
            "{:>5} {:>5}  {:>12} {:>14}  {:>12} {:>14}  {:>12} {:>14}",
            "src", "dst", "SHM ops", "SHM bytes", "CMA ops", "CMA bytes", "HCA ops", "HCA bytes"
        );
        for i in 0..n {
            for j in 0..n {
                let c = self.tx[i].cell(j);
                if c.ops() == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:>5} {:>5}  {:>12} {:>14}  {:>12} {:>14}  {:>12} {:>14}",
                    i,
                    j,
                    c.chan[0].ops,
                    c.chan[0].bytes,
                    c.chan[1].ops,
                    c.chan[1].bytes,
                    c.chan[2].ops,
                    c.chan[2].bytes
                );
            }
        }
        let _ = writeln!(out, "wait states (job-wide):");
        let _ = writeln!(
            out,
            "{:<12} {:>14} {:>14} {:>14} {:>14} {:>14}",
            "class", "late-sender", "late-recv", "arrival-skew", "transfer", "blocked"
        );
        for class in WaitClass::ALL {
            let w = self.wait_total(class);
            if w.samples == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<12} {:>14} {:>14} {:>14} {:>14} {:>14}",
                class.name(),
                format!("{}", w.late_sender),
                format!("{}", w.late_receiver),
                format!("{}", w.arrival_skew),
                format!("{}", w.transfer),
                format!("{}", w.blocked)
            );
        }
        let _ = writeln!(
            out,
            "shm queues: {} created, {} stalled acquires, {} B max in flight",
            self.queue.queues, self.queue.stalled_acquires, self.queue.max_in_flight
        );
        let _ = writeln!(
            out,
            "mailboxes: {} pushes, {} parks, {} wakes",
            self.queue.mailbox_pushes, self.queue.mailbox_parks, self.queue.mailbox_wakes
        );
        let posted: u64 = self.fabric.iter().map(|f| f.sends).sum();
        let drained: u64 = self.fabric.iter().map(|f| f.recvs).sum();
        let rdma: u64 = self.fabric.iter().map(|f| f.rdma_ops).sum();
        let _ = writeln!(
            out,
            "fabric: {posted} msgs posted, {drained} drained, {rdma} RDMA ops"
        );
        out
    }

    /// Machine-readable profile (round-trips through [`Json::parse`]).
    pub fn to_json(&self) -> Json {
        let n = self.num_ranks();
        let ranks = (0..n)
            .map(|r| {
                Json::Obj(vec![
                    ("rank".into(), Json::num(r as u64)),
                    ("tx".into(), self.tx[r].to_json()),
                    ("rx".into(), self.rx[r].to_json()),
                    ("waits".into(), self.waits[r].to_json()),
                    (
                        "fabric".into(),
                        Json::Obj(vec![
                            ("sends".into(), Json::num(self.fabric[r].sends)),
                            ("send_bytes".into(), Json::num(self.fabric[r].send_bytes)),
                            ("recvs".into(), Json::num(self.fabric[r].recvs)),
                            ("recv_bytes".into(), Json::num(self.fabric[r].recv_bytes)),
                            ("rdma_ops".into(), Json::num(self.fabric[r].rdma_ops)),
                            ("rdma_bytes".into(), Json::num(self.fabric[r].rdma_bytes)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("num_ranks".into(), Json::num(n as u64)),
            (
                "queue".into(),
                Json::Obj(vec![
                    ("queues".into(), Json::num(self.queue.queues)),
                    (
                        "stalled_acquires".into(),
                        Json::num(self.queue.stalled_acquires),
                    ),
                    ("max_in_flight".into(), Json::num(self.queue.max_in_flight)),
                    (
                        "mailbox_pushes".into(),
                        Json::num(self.queue.mailbox_pushes),
                    ),
                    ("mailbox_parks".into(), Json::num(self.queue.mailbox_parks)),
                    ("mailbox_wakes".into(), Json::num(self.queue.mailbox_wakes)),
                ]),
            ),
            ("ranks".into(), Json::Arr(ranks)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use cmpi_cluster::SimTime;

    use super::*;

    /// Strict directional conservation: `tx[i][j] == rx[j][i]` in bytes
    /// for every ordered pair.
    fn directionally_conserved(p: &JobProfile) -> bool {
        let n = p.num_ranks();
        (0..n).all(|i| (0..n).all(|j| p.tx[i].cell(j).bytes() == p.rx[j].cell(i).bytes()))
    }

    fn two_rank_profile() -> JobProfile {
        let mut c0 = ProfCollector::new(2);
        let mut c1 = ProfCollector::new(2);
        c0.tx.record(1, Channel::Shm, 100);
        c1.rx.record(0, Channel::Shm, 100);
        c1.tx.record(0, Channel::Hca, 40);
        c0.rx.record(1, Channel::Hca, 40);
        c0.waits.class_mut(WaitClass::Pt2pt).record(
            SimTime::from_us(5),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_us(1),
        );
        JobProfile::assemble(
            vec![c0, c1],
            QueuePressure {
                queues: 2,
                stalled_acquires: 1,
                max_in_flight: 8192,
                ..QueuePressure::default()
            },
            vec![FabricCounters::default(); 2],
        )
    }

    #[test]
    fn conservation_holds_for_balanced_ledgers() {
        let p = two_rank_profile();
        assert_eq!(p.conservation_error(), 0);
        assert!(directionally_conserved(&p));
        assert_eq!(p.tx[0].cell(1).bytes(), 100);
        assert_eq!(p.pair_channel_bytes(1, 0, Channel::Hca), 40);
    }

    #[test]
    fn conservation_detects_a_lost_byte() {
        let mut c0 = ProfCollector::new(2);
        c0.tx.record(1, Channel::Shm, 100);
        // Receiver never recorded it.
        let p = JobProfile::assemble(
            vec![c0, ProfCollector::new(2)],
            QueuePressure::default(),
            vec![FabricCounters::default(); 2],
        );
        assert_eq!(p.conservation_error(), 100);
        assert!(!directionally_conserved(&p));
    }

    #[test]
    fn onesided_put_is_folded_into_target_rx() {
        let mut c0 = ProfCollector::new(2);
        c0.tx.record(1, Channel::Cma, 64);
        c0.rx_remote.record(1, Channel::Cma, 64);
        let p = JobProfile::assemble(
            vec![c0, ProfCollector::new(2)],
            QueuePressure::default(),
            vec![FabricCounters::default(); 2],
        );
        assert_eq!(p.rx[1].cell(0).bytes(), 64);
        assert_eq!(p.conservation_error(), 0);
        assert!(directionally_conserved(&p));
    }

    #[test]
    fn report_and_json_round_trip() {
        let p = two_rank_profile();
        let text = p.report();
        assert!(text.contains("2 ranks"));
        assert!(text.contains("late-sender"));
        let parsed = Json::parse(&p.to_json().to_string()).expect("profile JSON must parse");
        assert_eq!(parsed.get("num_ranks").unwrap().as_f64(), Some(2.0));
        assert_eq!(parsed.get("ranks").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn wait_totals_sum_over_ranks() {
        let p = two_rank_profile();
        let w = p.wait_total(WaitClass::Pt2pt);
        assert_eq!(w.blocked, SimTime::from_us(6));
        assert_eq!(
            w.late_sender + w.late_receiver + w.arrival_skew + w.transfer,
            w.blocked
        );
        assert_eq!(w.transfer, SimTime::from_us(1));
    }
}

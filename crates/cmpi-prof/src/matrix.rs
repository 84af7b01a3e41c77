//! Per-peer channel matrices: Table I at rank-pair granularity, and the
//! one log2 histogram and the one `{ops, bytes}` counter of the
//! workspace.
//!
//! A [`RankMatrix`] is one rank's row of the job-wide N×N traffic matrix:
//! for every peer, per-channel {ops, bytes} plus a log2 message-size
//! histogram. A row stores only the peers the rank exchanged traffic
//! with; every other cell reads as empty. The runtime keeps two ledgers per rank — transmitted
//! (initiator-side, summing exactly to the rank's `CommStats` channel
//! counters) and received (delivery-side) — so byte conservation across
//! the job is checkable, not assumed.

use cmpi_cluster::Channel;

use crate::json::Json;

/// Number of channels (indexed by [`chan_index`]).
pub const NUM_CHANNELS: usize = 3;

/// Dense channel index in [`Channel::ALL`] order: the one Shm/Cma/Hca →
/// 0/1/2 map, shared by the profile matrices and `CommStats`.
pub fn chan_index(c: Channel) -> usize {
    match c {
        Channel::Shm => 0,
        Channel::Cma => 1,
        Channel::Hca => 2,
    }
}

/// Per-channel operation and byte counters: one (peer, channel) cell of
/// a [`RankMatrix`], and one channel of a rank's `CommStats` (Table I).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelCounter {
    /// Data-bearing transfer operations (eager chunks, CMA copies, HCA
    /// sends — control packets are not transfers).
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

impl ChannelCounter {
    /// Count one transfer of `bytes`.
    #[inline]
    pub fn add(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    /// Fieldwise sum.
    pub fn merge(&mut self, other: &ChannelCounter) {
        self.ops += other.ops;
        self.bytes += other.bytes;
    }
}

/// Number of log2 size buckets (covers every `usize` value).
pub const SIZE_BUCKETS: usize = 65;

/// The bucket a value lands in: bucket `k` counts values whose
/// `next_power_of_two` is `2^k` (bucket 0 holds 0 and 1).
pub fn size_bucket(size: usize) -> usize {
    if size <= 1 {
        0
    } else {
        (usize::BITS - (size - 1).leading_zeros()) as usize
    }
}

/// A log2 histogram's contents: `buckets` sum equals `count`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, `SIZE_BUCKETS` entries (see [`size_bucket`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// No observations, every bucket present.
impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; SIZE_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// The write side of a log2 histogram, owned by the one rank that
/// records into it: a telemetry metric, or the message sizes of one
/// profile peer cell.
///
/// Consecutive observations that land in one log2 bucket — the common
/// case: virtual-time latencies repeat, a ping-pong stream sends one
/// size forever — cost three plain adds on the accumulator's own line;
/// the bucket array is only touched when the bucket changes. Zeros are
/// counted apart from the run: a windowed workload settles most
/// requests with no blocking at all, and the zeros would otherwise
/// alternate with the occasional real wait and end the run every time.
///
/// The bucket array grows to the highest bucket a run has closed in, not
/// to all `SIZE_BUCKETS`: an untouched histogram holds no heap, a rank
/// that sends one size or waits on one scale of latency holds a few
/// words, and [`Self::finish`] pads the snapshot so that every view
/// still sees every bucket.
#[derive(Clone, Debug, Default)]
pub struct HistogramAccumulator {
    zeros: u64,
    run_sum: u64,
    run_count: u64,
    run_bucket: u32,
    /// Closed runs' counts, by bucket, up to the highest one touched.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl HistogramAccumulator {
    /// Count one observation of `v`.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if v == 0 {
            self.zeros += 1;
            return;
        }
        let b = size_bucket(v as usize) as u32;
        if b != self.run_bucket && self.run_count > 0 {
            self.end_run();
        }
        self.run_bucket = b;
        self.run_count += 1;
        self.run_sum += v;
    }

    fn end_run(&mut self) {
        let b = self.run_bucket as usize;
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += self.run_count;
        self.count += self.run_count;
        self.sum += self.run_sum;
        self.run_count = 0;
        self.run_sum = 0;
    }

    /// Fold `other`'s observations into this histogram: this run is
    /// closed, and `other`'s open run becomes this one's.
    pub fn merge(&mut self, other: &HistogramAccumulator) {
        if self.run_count > 0 {
            self.end_run();
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (m, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *m += o;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.run_bucket = other.run_bucket;
        self.run_count = other.run_count;
        self.run_sum = other.run_sum;
    }

    /// Non-empty buckets as `(k, count)` pairs, in bucket order, the open
    /// run and the zeros included.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let top = self.buckets.len().max(self.run_bucket as usize + 1);
        (0..top)
            .map(|k| {
                let mut c = self.buckets.get(k).copied().unwrap_or(0);
                if k == 0 {
                    c += self.zeros;
                }
                if k == self.run_bucket as usize {
                    c += self.run_count;
                }
                (k, c)
            })
            .filter(|&(_, c)| c > 0)
    }

    /// Everything observed so far, every bucket present.
    pub fn finish(mut self) -> HistogramSnapshot {
        if self.run_count > 0 {
            self.end_run();
        }
        let mut buckets = self.buckets;
        buckets.resize(SIZE_BUCKETS, 0);
        buckets[0] += self.zeros;
        HistogramSnapshot {
            buckets,
            count: self.count + self.zeros,
            sum: self.sum,
        }
    }
}

/// One (rank, peer) cell: traffic per channel plus the size histogram.
#[derive(Clone, Debug, Default)]
pub struct PeerCell {
    /// Per-channel counters, indexed by [`chan_index`].
    pub chan: [ChannelCounter; NUM_CHANNELS],
    /// Message sizes, log2-bucketed.
    pub hist: HistogramAccumulator,
}

impl PeerCell {
    /// Sum of bytes over all channels.
    pub fn bytes(&self) -> u64 {
        self.chan.iter().map(|c| c.bytes).sum()
    }

    /// Sum of ops over all channels.
    pub fn ops(&self) -> u64 {
        self.chan.iter().map(|c| c.ops).sum()
    }
}

/// The cell of every peer a row holds no traffic for.
static EMPTY_CELL: PeerCell = PeerCell {
    chan: [ChannelCounter { ops: 0, bytes: 0 }; NUM_CHANNELS],
    hist: HistogramAccumulator {
        zeros: 0,
        run_sum: 0,
        run_count: 0,
        run_bucket: 0,
        buckets: Vec::new(),
        count: 0,
        sum: 0,
    },
};

/// One rank's row of the job traffic matrix. Only touched peers have a
/// cell, kept in peer order: a rank talks to a few peers whatever the
/// job size, and a dense row made the profile 3 n² cells per job (360 MiB
/// at 1024 ranks).
#[derive(Clone, Debug)]
pub struct RankMatrix {
    n: usize,
    /// `(peer, cell)` of every peer with traffic, ascending by peer.
    cells: Vec<(usize, PeerCell)>,
}

impl RankMatrix {
    /// An all-zero row for a job of `n` ranks. Holds no heap.
    pub fn new(n: usize) -> Self {
        RankMatrix {
            n,
            cells: Vec::new(),
        }
    }

    /// Number of peers (== number of ranks).
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for a zero-rank job.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Where `peer`'s cell is (`Ok`) or would go (`Err`).
    ///
    /// # Panics
    /// Panics if `peer` is not a rank of the job.
    fn find(&self, peer: usize) -> Result<usize, usize> {
        assert!(peer < self.n, "peer {peer} out of range 0..{}", self.n);
        self.cells.binary_search_by_key(&peer, |&(p, _)| p)
    }

    /// The cell of `peer`, created empty on first use.
    fn cell_mut(&mut self, peer: usize) -> &mut PeerCell {
        let at = self.find(peer).unwrap_or_else(|at| {
            self.cells.insert(at, (peer, PeerCell::default()));
            at
        });
        &mut self.cells[at].1
    }

    /// Count one transfer of `bytes` to/from `peer` on `channel`.
    pub fn record(&mut self, peer: usize, channel: Channel, bytes: usize) {
        let cell = self.cell_mut(peer);
        cell.chan[chan_index(channel)].add(bytes as u64);
        cell.hist.observe(bytes as u64);
    }

    /// The cell for `peer` (all zero for a peer without traffic).
    pub fn cell(&self, peer: usize) -> &PeerCell {
        match self.find(peer) {
            Ok(at) => &self.cells[at].1,
            Err(_) => &EMPTY_CELL,
        }
    }

    /// Fold one cell's counters into this row's `peer` slot (used when a
    /// one-sided origin recorded traffic on the target's behalf). An
    /// empty cell changes nothing and adds none.
    pub fn absorb_cell(&mut self, peer: usize, cell: &PeerCell) {
        if cell.ops() == 0 {
            return;
        }
        let mine = self.cell_mut(peer);
        for (m, o) in mine.chan.iter_mut().zip(cell.chan.iter()) {
            m.merge(o);
        }
        mine.hist.merge(&cell.hist);
    }

    /// JSON row: one object per peer with traffic, omitting empty cells.
    pub fn to_json(&self) -> Json {
        let peers = self
            .cells
            .iter()
            .filter(|(_, c)| c.ops() > 0)
            .map(|&(peer, ref c)| {
                let mut fields = vec![("peer".to_string(), Json::num(peer as u64))];
                for ch in Channel::ALL {
                    let cc = c.chan[chan_index(ch)];
                    if cc.ops > 0 {
                        fields.push((
                            ch.name().to_lowercase(),
                            Json::Obj(vec![
                                ("ops".to_string(), Json::num(cc.ops)),
                                ("bytes".to_string(), Json::num(cc.bytes)),
                            ]),
                        ));
                    }
                }
                let hist = c
                    .hist
                    .nonzero()
                    .map(|(k, n)| Json::Arr(vec![Json::num(k as u64), Json::num(n)]))
                    .collect();
                fields.push(("size_log2".to_string(), Json::Arr(hist)));
                Json::Obj(fields)
            })
            .collect();
        Json::Arr(peers)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn size_buckets_are_log2() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 0);
        assert_eq!(size_bucket(2), 1);
        assert_eq!(size_bucket(3), 2);
        assert_eq!(size_bucket(4), 2);
        assert_eq!(size_bucket(5), 3);
        assert_eq!(size_bucket(1024), 10);
        assert_eq!(size_bucket(1025), 11);
        assert_eq!(size_bucket(usize::MAX), SIZE_BUCKETS - 1);
    }

    #[test]
    fn accumulator_holds_the_histogram_invariant() {
        let mut acc = HistogramAccumulator::default();
        for v in [0u64, 1, 2, 3, 100, 5_000, 1 << 20] {
            acc.observe(v);
        }
        let h = acc.finish();
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 5_106 + (1 << 20));
        assert_eq!(h.buckets.len(), SIZE_BUCKETS);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        assert_eq!(h.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[20], 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any value stream leaves the accumulator holding what counting
        /// each value on its own would: `sum(buckets) == count`, the exact
        /// sum, every value in the bucket `size_bucket` names — however
        /// the same-bucket runs and the zeros fall. `nonzero` lists those
        /// buckets before `finish`, and two halves merged hold the whole.
        #[test]
        fn accumulator_matches_one_by_one_counting(
            values in proptest::collection::vec(any::<u64>(), 0..512),
            shift in 12u32..64,
            split in 0usize..512,
        ) {
            // Shifted down so runs, bucket changes and zeros all occur
            // (and 512 values cannot overflow the sum).
            let values: Vec<u64> = values.iter().map(|v| v >> shift).collect();
            let observe = |vs: &[u64]| {
                let mut acc = HistogramAccumulator::default();
                vs.iter().for_each(|&v| acc.observe(v));
                acc
            };
            let mut buckets = vec![0u64; SIZE_BUCKETS];
            for &v in &values {
                buckets[size_bucket(v as usize)] += 1;
            }
            let acc = observe(&values);
            let listed: Vec<(usize, u64)> = acc.nonzero().collect();
            let expected: Vec<(usize, u64)> =
                buckets.iter().copied().enumerate().filter(|&(_, c)| c > 0).collect();
            prop_assert_eq!(listed, expected);
            let (head, tail) = values.split_at(split.min(values.len()));
            let mut merged = observe(head);
            merged.merge(&observe(tail));
            let h = acc.finish();
            prop_assert_eq!(h.count, values.len() as u64);
            prop_assert_eq!(h.sum, values.iter().sum::<u64>());
            prop_assert_eq!(&h.buckets, &buckets);
            prop_assert_eq!(merged.finish(), h);
        }
    }

    #[test]
    fn row_sums_match_per_peer_records() {
        let mut m = RankMatrix::new(4);
        m.record(1, Channel::Shm, 100);
        m.record(1, Channel::Shm, 50);
        m.record(2, Channel::Hca, 7);
        m.record(3, Channel::Cma, 4096);
        let total = |ch: Channel| {
            let mut t = ChannelCounter::default();
            (0..m.len()).for_each(|p| t.merge(&m.cell(p).chan[chan_index(ch)]));
            t
        };
        assert_eq!(total(Channel::Shm), ChannelCounter { ops: 2, bytes: 150 });
        assert_eq!(
            total(Channel::Cma),
            ChannelCounter {
                ops: 1,
                bytes: 4096
            }
        );
        assert_eq!(total(Channel::Hca), ChannelCounter { ops: 1, bytes: 7 });
        assert_eq!(
            m.cell(1).hist.nonzero().collect::<Vec<_>>(),
            [(6, 1), (7, 1)]
        );
        assert_eq!(m.cell(0).ops(), 0);
    }

    #[test]
    fn absorb_is_fieldwise() {
        let mut a = RankMatrix::new(2);
        a.record(1, Channel::Shm, 10);
        let mut b = RankMatrix::new(2);
        b.record(1, Channel::Shm, 30);
        b.record(0, Channel::Hca, 5);
        (0..2).for_each(|p| a.absorb_cell(p, b.cell(p)));
        assert_eq!(a.cell(1).chan[0], ChannelCounter { ops: 2, bytes: 40 });
        assert_eq!(a.cell(0).chan[2], ChannelCounter { ops: 1, bytes: 5 });
        assert_eq!(
            a.cell(1).hist.nonzero().collect::<Vec<_>>(),
            [(4, 1), (5, 1)]
        );
    }

    #[test]
    fn an_untouched_row_holds_no_heap() {
        let mut m = RankMatrix::new(1 << 20);
        assert_eq!(m.cells.capacity(), 0);
        assert_eq!(m.cell(12_345).ops(), 0);
        m.absorb_cell(7, &PeerCell::default());
        assert_eq!(
            m.cells.capacity(),
            0,
            "an empty cell was absorbed into a new one"
        );
        m.record(99, Channel::Shm, 8);
        m.record(3, Channel::Hca, 8);
        m.record(99, Channel::Shm, 8);
        let peers: Vec<usize> = m.cells.iter().map(|&(p, _)| p).collect();
        assert_eq!(peers, [3, 99], "one cell per touched peer, in peer order");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any sequence of records and absorbs leaves every cell of the
        /// sparse row equal to the same cell of a dense one.
        #[test]
        fn sparse_row_matches_a_dense_row(
            ops in proptest::collection::vec((0usize..40, 0usize..3, 0usize..5000, any::<bool>()), 0..200),
        ) {
            const N: usize = 40;
            let mut row = RankMatrix::new(N);
            let mut dense = vec![PeerCell::default(); N];
            for (peer, ch, bytes, absorb) in ops {
                let ch = Channel::ALL[ch];
                if absorb {
                    let mut other = PeerCell::default();
                    other.chan[chan_index(ch)].add(bytes as u64);
                    other.hist.observe(bytes as u64);
                    row.absorb_cell(peer, &other);
                    for (m, o) in dense[peer].chan.iter_mut().zip(other.chan.iter()) {
                        m.merge(o);
                    }
                    dense[peer].hist.merge(&other.hist);
                } else {
                    row.record(peer, ch, bytes);
                    dense[peer].chan[chan_index(ch)].add(bytes as u64);
                    dense[peer].hist.observe(bytes as u64);
                }
            }
            for (peer, want) in dense.into_iter().enumerate() {
                let got = row.cell(peer);
                prop_assert_eq!(got.chan, want.chan);
                prop_assert_eq!(got.hist.clone().finish(), want.hist.finish());
            }
        }
    }

    #[test]
    fn json_row_lists_only_active_peers() {
        let mut m = RankMatrix::new(3);
        m.record(2, Channel::Cma, 64 * 1024);
        let j = m.to_json();
        let rows = j.as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("peer").unwrap().as_f64(), Some(2.0));
        assert!(rows[0].get("cma").is_some());
        assert!(rows[0].get("shm").is_none());
    }
}

//! Per-peer channel matrices: Table I at rank-pair granularity.
//!
//! A [`RankMatrix`] is one rank's row of the job-wide N×N traffic matrix:
//! for every peer, per-channel {ops, bytes} plus a log2 message-size
//! histogram. The runtime keeps two ledgers per rank — transmitted
//! (initiator-side, summing exactly to the rank's `cmpi_core::ChannelCounter`
//! aggregates) and received (delivery-side) — so byte conservation across
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

/// {ops, bytes} for one (peer, channel) cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChanCell {
    /// Data-bearing transfer operations.
    pub ops: u64,
    /// Payload bytes.
    pub bytes: u64,
}

impl ChanCell {
    fn add(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    fn merge(&mut self, other: &ChanCell) {
        self.ops += other.ops;
        self.bytes += other.bytes;
    }
}

/// Number of log2 size buckets (covers every `usize` message length).
pub const SIZE_BUCKETS: usize = 65;

/// A log2 message-size histogram: bucket `k` counts messages with
/// `size.next_power_of_two() == 2^k` (bucket 0 holds empty and 1-byte
/// messages).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeHistogram {
    buckets: Box<[u64; SIZE_BUCKETS]>,
}

impl Default for SizeHistogram {
    fn default() -> Self {
        SizeHistogram {
            buckets: Box::new([0; SIZE_BUCKETS]),
        }
    }
}

/// The bucket a message of `size` bytes lands in.
pub fn size_bucket(size: usize) -> usize {
    if size <= 1 {
        0
    } else {
        (usize::BITS - (size - 1).leading_zeros()) as usize
    }
}

impl SizeHistogram {
    /// Count one message of `size` bytes.
    pub fn record(&mut self, size: usize) {
        self.buckets[size_bucket(size)] += 1;
    }

    /// Count in bucket `k`.
    pub fn bucket(&self, k: usize) -> u64 {
        self.buckets[k]
    }

    /// Total messages counted.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fieldwise sum.
    pub fn merge(&mut self, other: &SizeHistogram) {
        for (m, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *m += o;
        }
    }

    /// Non-empty buckets as `(k, count)` pairs.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (k, c))
    }
}

/// One (rank, peer) cell: traffic per channel plus the size histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerCell {
    /// Per-channel counters, indexed by [`chan_index`].
    pub chan: [ChanCell; NUM_CHANNELS],
    /// Message sizes, log2-bucketed.
    pub hist: SizeHistogram,
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

/// One rank's row of the job traffic matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankMatrix {
    cells: Vec<PeerCell>,
}

impl RankMatrix {
    /// An all-zero row for a job of `n` ranks.
    pub fn new(n: usize) -> Self {
        RankMatrix {
            cells: (0..n).map(|_| PeerCell::default()).collect(),
        }
    }

    /// Number of peers (== number of ranks).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` for a zero-rank job.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Count one transfer of `bytes` to/from `peer` on `channel`.
    pub fn record(&mut self, peer: usize, channel: Channel, bytes: usize) {
        let cell = &mut self.cells[peer];
        cell.chan[chan_index(channel)].add(bytes as u64);
        cell.hist.record(bytes);
    }

    /// The cell for `peer`.
    pub fn cell(&self, peer: usize) -> &PeerCell {
        &self.cells[peer]
    }

    /// Row sums per channel — must equal the rank's `ChannelCounter`
    /// aggregates for the transmitted ledger (the proptest invariant).
    pub fn channel_totals(&self) -> [ChanCell; NUM_CHANNELS] {
        let mut out = [ChanCell::default(); NUM_CHANNELS];
        for cell in &self.cells {
            for (t, c) in out.iter_mut().zip(cell.chan.iter()) {
                t.merge(c);
            }
        }
        out
    }

    /// Fold one cell's counters into this row's `peer` slot (used when a
    /// one-sided origin recorded traffic on the target's behalf).
    pub fn absorb_cell(&mut self, peer: usize, cell: &PeerCell) {
        let mine = &mut self.cells[peer];
        for (m, o) in mine.chan.iter_mut().zip(cell.chan.iter()) {
            m.merge(o);
        }
        mine.hist.merge(&cell.hist);
    }

    /// Fieldwise sum of another row into this one.
    pub fn merge(&mut self, other: &RankMatrix) {
        assert_eq!(self.len(), other.len(), "matrix dimension mismatch");
        for (mine, theirs) in self.cells.iter_mut().zip(other.cells.iter()) {
            for (m, o) in mine.chan.iter_mut().zip(theirs.chan.iter()) {
                m.merge(o);
            }
            mine.hist.merge(&theirs.hist);
        }
    }

    /// JSON row: one object per peer with traffic, omitting empty cells.
    pub fn to_json(&self) -> Json {
        let peers = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ops() > 0)
            .map(|(peer, c)| {
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
    fn row_sums_match_per_peer_records() {
        let mut m = RankMatrix::new(4);
        m.record(1, Channel::Shm, 100);
        m.record(1, Channel::Shm, 50);
        m.record(2, Channel::Hca, 7);
        m.record(3, Channel::Cma, 4096);
        let totals = m.channel_totals();
        assert_eq!(
            totals[chan_index(Channel::Shm)],
            ChanCell { ops: 2, bytes: 150 }
        );
        assert_eq!(
            totals[chan_index(Channel::Cma)],
            ChanCell {
                ops: 1,
                bytes: 4096
            }
        );
        assert_eq!(
            totals[chan_index(Channel::Hca)],
            ChanCell { ops: 1, bytes: 7 }
        );
        assert_eq!(m.cell(1).hist.total(), 2);
        assert_eq!(m.cell(0).ops(), 0);
    }

    #[test]
    fn merge_is_fieldwise() {
        let mut a = RankMatrix::new(2);
        a.record(1, Channel::Shm, 10);
        let mut b = RankMatrix::new(2);
        b.record(1, Channel::Shm, 30);
        b.record(0, Channel::Hca, 5);
        a.merge(&b);
        assert_eq!(a.cell(1).chan[0], ChanCell { ops: 2, bytes: 40 });
        assert_eq!(a.cell(0).chan[2], ChanCell { ops: 1, bytes: 5 });
        assert_eq!(a.cell(1).hist.total(), 2);
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

//! Runtime tunables — the MVAPICH2 environment variables the paper sweeps
//! in Section IV-C/D (Fig. 7).

/// Protocol switch points and buffer sizes, named after the MVAPICH2
/// environment variables they model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Tunables {
    /// `SMP_EAGER_SIZE`: messages up to this size between co-resident ranks
    /// use the SHM eager protocol; larger ones use CMA rendezvous.
    /// Paper-tuned optimum for containers: 8 KiB (Fig. 7(a)).
    pub smp_eager_size: usize,
    /// `SMPI_LENGTH_QUEUE`: capacity in bytes of the shared eager queue
    /// between each pair of co-resident ranks. Paper-tuned optimum:
    /// 128 KiB (Fig. 7(b)).
    pub smpi_length_queue: usize,
    /// `MV2_IBA_EAGER_THRESHOLD`: messages up to this size on the HCA
    /// channel use the eager protocol (copy through pre-registered
    /// buffers); larger ones use RTS/CTS rendezvous with zero-copy RDMA.
    /// Paper-tuned optimum for containers: 17 KiB (Fig. 7(c)).
    pub mv2_iba_eager_threshold: usize,
    /// `MV2_USE_SMP_COLL`: allow the collective selector to pick the
    /// two-level (leader-staged) algorithms when the locality policy
    /// exposes a multi-group topology. Disabling forces the flat
    /// algorithms everywhere (the ablation baseline).
    pub smp_coll_enable: bool,
    /// `MV2_SMP_BCAST_THRESHOLD`: broadcasts up to this size (bytes) are
    /// eligible for the two-level algorithm; larger ones stay flat until
    /// the large-message switchover takes them.
    pub smp_bcast_threshold: usize,
    /// `MV2_SMP_ALLREDUCE_THRESHOLD`: allreduces up to this size (bytes)
    /// are eligible for the two-level algorithm.
    pub smp_allreduce_threshold: usize,
    /// `MV2_COLL_LARGE_MSG`: at and above this size (bytes) the
    /// bandwidth-optimal algorithms take over (scatter–allgather
    /// broadcast; Rabenseifner allreduce on power-of-two groups).
    pub coll_large_msg: usize,
}

impl Default for Tunables {
    /// The *container-tuned* settings from Section IV (the "Opt"
    /// configuration).
    fn default() -> Self {
        Tunables {
            smp_eager_size: 8 * 1024,
            smpi_length_queue: 128 * 1024,
            mv2_iba_eager_threshold: 17 * 1024,
            smp_coll_enable: true,
            smp_bcast_threshold: 64 * 1024,
            smp_allreduce_threshold: 64 * 1024,
            coll_large_msg: 256 * 1024,
        }
    }
}

impl Tunables {
    /// Builder-style override of `SMP_EAGER_SIZE`.
    pub fn with_smp_eager_size(mut self, v: usize) -> Self {
        self.smp_eager_size = v;
        self
    }

    /// Builder-style override of `SMPI_LENGTH_QUEUE`.
    pub fn with_smpi_length_queue(mut self, v: usize) -> Self {
        self.smpi_length_queue = v;
        self
    }

    /// Builder-style override of `MV2_IBA_EAGER_THRESHOLD`.
    pub fn with_iba_eager_threshold(mut self, v: usize) -> Self {
        self.mv2_iba_eager_threshold = v;
        self
    }

    /// Builder-style override of `MV2_USE_SMP_COLL`.
    pub fn with_smp_coll_enable(mut self, v: bool) -> Self {
        self.smp_coll_enable = v;
        self
    }

    /// Builder-style override of `MV2_SMP_BCAST_THRESHOLD`.
    pub fn with_smp_bcast_threshold(mut self, v: usize) -> Self {
        self.smp_bcast_threshold = v;
        self
    }

    /// Builder-style override of `MV2_SMP_ALLREDUCE_THRESHOLD`.
    pub fn with_smp_allreduce_threshold(mut self, v: usize) -> Self {
        self.smp_allreduce_threshold = v;
        self
    }

    /// Builder-style override of `MV2_COLL_LARGE_MSG`.
    pub fn with_coll_large_msg(mut self, v: usize) -> Self {
        self.coll_large_msg = v;
        self
    }

    /// Sanity-check invariants assumed by the channel implementations.
    ///
    /// The eager queue must be able to hold at least one maximal eager
    /// message, otherwise the SHM channel could deadlock.
    pub fn validate(&self) -> Result<(), String> {
        if self.smp_eager_size == 0 {
            return Err("SMP_EAGER_SIZE must be positive".into());
        }
        if self.smpi_length_queue < self.smp_eager_size {
            return Err(format!(
                "SMPI_LENGTH_QUEUE ({}) must be >= SMP_EAGER_SIZE ({})",
                self.smpi_length_queue, self.smp_eager_size
            ));
        }
        if self.mv2_iba_eager_threshold == 0 {
            return Err("MV2_IBA_EAGER_THRESHOLD must be positive".into());
        }
        if self.coll_large_msg == 0 {
            return Err("MV2_COLL_LARGE_MSG must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_optima() {
        let t = Tunables::default();
        assert_eq!(t.smp_eager_size, 8 * 1024);
        assert_eq!(t.smpi_length_queue, 128 * 1024);
        assert_eq!(t.mv2_iba_eager_threshold, 17 * 1024);
        assert!(t.smp_coll_enable);
        assert_eq!(t.smp_bcast_threshold, 64 * 1024);
        assert_eq!(t.smp_allreduce_threshold, 64 * 1024);
        assert_eq!(t.coll_large_msg, 256 * 1024);
        assert!(t.validate().is_ok());
    }

    /// The stock MVAPICH2 native-environment defaults the paper starts
    /// from before tuning (eager switch 16 KiB on SHM, 64 KiB queue,
    /// 12 KiB IB eager threshold).
    fn stock() -> Tunables {
        Tunables::default()
            .with_smp_eager_size(16 * 1024)
            .with_smpi_length_queue(64 * 1024)
            .with_iba_eager_threshold(12 * 1024)
    }

    #[test]
    fn stock_differs_from_tuned() {
        assert_ne!(stock(), Tunables::default());
        assert!(stock().validate().is_ok());
    }

    #[test]
    fn builders_override() {
        let t = Tunables::default()
            .with_smp_eager_size(4096)
            .with_smpi_length_queue(32 * 1024)
            .with_iba_eager_threshold(13 * 1024);
        assert_eq!(t.smp_eager_size, 4096);
        assert_eq!(t.smpi_length_queue, 32 * 1024);
        assert_eq!(t.mv2_iba_eager_threshold, 13 * 1024);
    }

    #[test]
    fn validation_rejects_undersized_queue() {
        let t = Tunables::default().with_smpi_length_queue(1024);
        assert!(t.validate().is_err());
        let t = Tunables::default().with_smp_eager_size(0);
        assert!(t.validate().is_err());
    }

    #[test]
    fn collective_builders_override() {
        let t = Tunables::default()
            .with_smp_coll_enable(false)
            .with_smp_bcast_threshold(4096)
            .with_smp_allreduce_threshold(2048)
            .with_coll_large_msg(1 << 20);
        assert!(!t.smp_coll_enable);
        assert_eq!(t.smp_bcast_threshold, 4096);
        assert_eq!(t.smp_allreduce_threshold, 2048);
        assert_eq!(t.coll_large_msg, 1 << 20);
        assert!(t.validate().is_ok());
        // Zero thresholds merely disable the two-level paths; a zero
        // large-message switchover is a configuration error.
        assert!(Tunables::default()
            .with_smp_bcast_threshold(0)
            .validate()
            .is_ok());
        assert!(Tunables::default()
            .with_coll_large_msg(0)
            .validate()
            .is_err());
    }
}

//! Error type for recoverable MPI failures.
//!
//! Programming errors (type-size mismatches, invalid ranks) panic, as they
//! would abort in a real MPI implementation; environmental failures that a
//! caller can meaningfully react to are reported as [`MpiError`].

use cmpi_fabric::FabricError;

/// Recoverable failures surfaced by the library.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpiError {
    /// The HCA channel was required (remote peer, or SHM/CMA impossible)
    /// but the rank's container cannot access the device.
    Fabric(FabricError),
    /// A receive buffer was smaller than the matched message.
    Truncated {
        /// Matched message length in bytes.
        msg_len: usize,
        /// Provided buffer length in bytes.
        buf_len: usize,
    },
    /// Tunable validation failed at job start.
    BadTunables(String),
    /// Placement validation failed at job start.
    BadPlacement(String),
    /// A structurally valid container-list segment from a *different* job
    /// generation was found at init and re-initialized.
    StaleSegment {
        /// Host whose `/dev/shm/locality` carried the leftover.
        host: u32,
        /// The stale generation stamp found in the header.
        generation: u64,
    },
    /// A container-list segment failed header validation (bad magic or
    /// checksum) and was re-initialized.
    CorruptList {
        /// Host whose `/dev/shm/locality` was corrupt.
        host: u32,
    },
    /// A peer expected to be co-resident never published its membership
    /// byte before the bounded init retries ran out.
    PeerUnpublished {
        /// The silent peer's global rank.
        peer: usize,
    },
    /// A peer was downgraded from intra-host channels (SHM/CMA) to the
    /// HCA after the locality cross-check rejected it.
    ChannelDowngraded {
        /// The downgraded peer's global rank.
        peer: usize,
    },
    /// A tree-collective bundle failed structural validation: a frame
    /// header or payload overran the buffer (truncated or odd-length
    /// bundle).
    CorruptBundle {
        /// Byte offset at which decoding failed.
        offset: usize,
        /// Total bundle length in bytes.
        len: usize,
    },
    /// A bounded retry loop exhausted its attempts without recovering.
    RetriesExhausted {
        /// What was being retried (e.g. `"HCA send"`).
        what: &'static str,
        /// How many attempts were made.
        attempts: u32,
    },
    /// A peer involved in the operation was convicted dead by the failure
    /// detector (ULFM `MPI_ERR_PROC_FAILED`). Pending operations that can
    /// no longer complete — including a doomed rank's own calls — finish
    /// with this error instead of blocking forever.
    ProcessFailed {
        /// The dead peer's global rank.
        peer: usize,
    },
    /// The communicator the operation ran on was revoked (ULFM
    /// `MPI_ERR_REVOKED`): a member observed a failure and called
    /// [`revoke`](crate::Mpi::revoke), so every member fails fast instead
    /// of deadlocking on a partially-dead collective.
    Revoked,
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::Fabric(e) => write!(f, "fabric error: {e}"),
            MpiError::Truncated { msg_len, buf_len } => {
                write!(
                    f,
                    "message truncated: {msg_len} bytes into {buf_len}-byte buffer"
                )
            }
            MpiError::BadTunables(s) => write!(f, "invalid tunables: {s}"),
            MpiError::BadPlacement(s) => write!(f, "invalid placement: {s}"),
            MpiError::StaleSegment { host, generation } => write!(
                f,
                "stale container list on host {host}: generation {generation:#x} \
                 from a previous job, segment re-initialized"
            ),
            MpiError::CorruptList { host } => {
                write!(
                    f,
                    "corrupt container list on host {host}: segment re-initialized"
                )
            }
            MpiError::PeerUnpublished { peer } => {
                write!(
                    f,
                    "co-resident peer {peer} never published its membership byte"
                )
            }
            MpiError::ChannelDowngraded { peer } => {
                write!(
                    f,
                    "peer {peer} downgraded from intra-host channels to the HCA"
                )
            }
            MpiError::CorruptBundle { offset, len } => {
                write!(
                    f,
                    "corrupt collective bundle: frame at byte {offset} overruns \
                     the {len}-byte payload"
                )
            }
            MpiError::RetriesExhausted { what, attempts } => {
                write!(f, "{what}: retries exhausted after {attempts} attempts")
            }
            MpiError::ProcessFailed { peer } => {
                write!(f, "process failed: rank {peer} was convicted dead")
            }
            MpiError::Revoked => {
                write!(f, "communicator revoked after a process failure")
            }
        }
    }
}

impl std::error::Error for MpiError {}

impl From<FabricError> for MpiError {
    fn from(e: FabricError) -> Self {
        MpiError::Fabric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MpiError::Truncated {
            msg_len: 100,
            buf_len: 10,
        };
        assert!(e.to_string().contains("100"));
        let e = MpiError::Fabric(FabricError::NotPrivileged);
        assert!(e.to_string().contains("privileged"));
    }

    /// `(arm, arms)`: the position of the first of the arms `$e`
    /// matches, and how many arms there are. The same arms also form one
    /// `match` with no wildcard, which runs the matching arm's check.
    macro_rules! arm_of {
        ($e:expr, $($pat:pat => $check:expr,)+) => {{
            let e = $e;
            match e {
                $($pat => $check,)+
            }
            let (mut arm, mut arms) = (None, 0);
            $(
                if arm.is_none() && matches!(e, $pat) {
                    arm = Some(arms);
                }
                arms += 1;
            )+
            (arm, arms)
        }};
    }

    /// Every variant renders a non-empty, variant-identifying message.
    /// The match is deliberately exhaustive (no wildcard arm): adding a
    /// variant without an arm fails to compile, and an arm no value of
    /// the list reaches fails the test.
    #[test]
    fn display_covers_every_variant() {
        let all: &[MpiError] = &[
            MpiError::Fabric(FabricError::NotPrivileged),
            MpiError::Truncated {
                msg_len: 9,
                buf_len: 4,
            },
            MpiError::BadTunables("queue too small".into()),
            MpiError::BadPlacement("rank off host".into()),
            MpiError::StaleSegment {
                host: 3,
                generation: 0xdead,
            },
            MpiError::CorruptList { host: 7 },
            MpiError::PeerUnpublished { peer: 11 },
            MpiError::ChannelDowngraded { peer: 5 },
            MpiError::CorruptBundle {
                offset: 12,
                len: 15,
            },
            MpiError::RetriesExhausted {
                what: "HCA send",
                attempts: 8,
            },
            MpiError::ProcessFailed { peer: 13 },
            MpiError::Revoked,
        ];
        let (mut reached, mut arms) = (Vec::new(), 0);
        for e in all {
            let s = e.to_string();
            assert!(!s.is_empty());
            let (arm, n) = arm_of!(e,
                MpiError::Fabric(_) => assert!(s.contains("fabric")),
                MpiError::Truncated { .. } => assert!(s.contains("truncated")),
                MpiError::BadTunables(_) => assert!(s.contains("tunables")),
                MpiError::BadPlacement(_) => assert!(s.contains("placement")),
                MpiError::StaleSegment { .. } => {
                    assert!(s.contains("stale") && s.contains("0xdead"))
                },
                MpiError::CorruptList { .. } => assert!(s.contains("corrupt")),
                MpiError::PeerUnpublished { .. } => assert!(s.contains("never published")),
                MpiError::ChannelDowngraded { .. } => assert!(s.contains("downgraded")),
                MpiError::CorruptBundle { .. } => {
                    assert!(s.contains("bundle") && s.contains("overruns"))
                },
                MpiError::RetriesExhausted { .. } => assert!(s.contains("exhausted")),
                MpiError::ProcessFailed { .. } => {
                    assert!(s.contains("failed") && s.contains("13"))
                },
                MpiError::Revoked => assert!(s.contains("revoked")),
            );
            reached.extend(arm);
            arms = n;
        }
        reached.sort_unstable();
        reached.dedup();
        assert_eq!(
            reached,
            (0..arms).collect::<Vec<_>>(),
            "every arm needs a value in `all`"
        );
    }
}

//! The job runtime: ranks, mailboxes, the progress engine, and virtual
//! clocks.
//!
//! Every MPI rank is a task of the execution engine ([`crate::exec`])
//! with a private logical clock
//! ([`Mpi::now`]). Packets carry availability timestamps; a receive
//! completes at `max(receiver clock, availability) + receive costs`, so
//! causality propagates between ranks exactly as wall-clock time would —
//! but deterministically.
//!
//! ### Control packets and detached timelines
//!
//! RTS/CTS/FIN handshakes are processed whenever the owning rank runs its
//! progress engine. Their forwarding timestamps are computed on a
//! *detached timeline* (`max(clock, availability) + overhead`) without
//! advancing the rank's own clock: a rendezvous in flight behaves like the
//! hardware-offloaded transfer it models and does not slow down unrelated
//! operations the rank is executing meanwhile.

use std::alloc::Layout;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use cmpi_cluster::faults::STALE_GENERATION;
use cmpi_cluster::{
    Channel, Cluster, CostModel, DeploymentScenario, FaultPlan, MidRunFault, MidRunTrigger,
    Placement, SimTime, Tunables,
};
use cmpi_fabric::{Fabric, FabricError, SendInfo};
use cmpi_model::sync::Mutex;
use cmpi_shmem::{AttachOutcome, ContainerList, EagerQueue, ShmRegistry};

use crate::channel::ChannelSelector;
use crate::collectives::{Scope, SmpTopo};
use crate::comm::CommEntry;
use crate::error::MpiError;
use crate::exec::{ExecMode, ExecSpec};
use crate::failure::{Death, DecisionLog, FailureDetector};
use crate::fasthash::{FastMap, FastSet};
use crate::locality::{LocalityMap, LocalityPolicy, LocalityView};
use crate::mailbox::RankCell;
use crate::matching::{ArrivedBody, ArrivedMsg, MatchingEngine};
use crate::obs::{Detail, Incident, JobObs, Obs};
use crate::packet::{Packet, PacketKind, ReqId, WireHeader};
use crate::peer_table::PeerTable;
use crate::pt2pt::{CTX_COLL, CTX_WORLD};
use crate::requests::{RecvState, RequestTable, SendState, Slot};
use crate::stats::{CallClass, CommStats, JobStats};
use crate::trace::{flow_id, JobTrace};
use cmpi_prof::{JobProfile, QueuePressure};
use cmpi_telemetry::TelemetrySnapshot;

/// Bound on fabric attach (QP creation) attempts per rank.
const MAX_ATTACH_ATTEMPTS: u32 = 5;

/// What one finished rank leaves behind for the job to collect. The
/// store is boxed as the rank finishes ([`Mpi::finalize`]), so the slots,
/// which exist from launch, stay a few words each.
type RankSlot<R> = Option<(R, SimTime, Box<Obs>)>;

/// Bound on reposts of a send whose completion erred transiently.
const MAX_SEND_ATTEMPTS: u32 = 8;

/// Bound on post-barrier container-list rescans for silent peers.
const MAX_INIT_RETRIES: u32 = 3;

/// Base of the context-id space [`JobState::ft_ctx`] allocates for
/// shrink-produced survivor communicators, far above the fixed contexts
/// of the world, the collectives and the agreement protocol.
const FT_CTX_BASE: u32 = 0x8000_0000;

/// A complete job description: where ranks run and how the library is
/// configured.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Cluster + placement.
    pub scenario: DeploymentScenario,
    /// Locality policy (the paper's Default vs Proposed switch).
    pub policy: LocalityPolicy,
    /// Protocol tunables.
    pub tunables: Tunables,
    /// Record per-rank virtual timelines (see [`crate::trace`]).
    pub tracing: bool,
    /// Collect the causal profile (per-peer channel matrix + wait-state
    /// decomposition), surfaced as [`JobResult::profile`].
    pub profiling: bool,
    /// Always-on telemetry (flight recorder + metrics),
    /// surfaced as [`JobResult::telemetry`]. On by default — the bench
    /// suite gates its hot-path cost at 2 % — and droppable with
    /// [`JobSpec::without_telemetry`] for overhead A/B runs.
    pub telemetry: bool,
    /// Fault-injection plan (empty by default). See
    /// [`cmpi_cluster::FaultPlan`].
    pub faults: FaultPlan,
    /// Execution-engine knobs; unset sizes defer to
    /// `CMPI_WORKERS`/`CMPI_STACK_KIB`. See [`crate::exec`].
    pub exec: ExecSpec,
}

impl JobSpec {
    /// A job with the paper's "Proposed" defaults (container detector,
    /// container-tuned tunables). Every job runs on the calibrated
    /// [`CostModel::default`].
    pub fn new(scenario: DeploymentScenario) -> Self {
        JobSpec {
            scenario,
            policy: LocalityPolicy::ContainerDetector,
            tunables: Tunables::default(),
            tracing: false,
            profiling: false,
            telemetry: true,
            faults: FaultPlan::none(),
            exec: ExecSpec::default(),
        }
    }

    /// Pin the execution engine's backend (see [`ExecMode`]). Results
    /// do not depend on it.
    pub fn with_exec(mut self, mode: ExecMode) -> Self {
        self.exec.mode = Some(mode);
        self
    }

    /// Pin the worker count of the fiber pool (overrides `CMPI_WORKERS`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.exec.workers = Some(workers.max(1));
        self
    }

    /// Pin the fiber stack size in KiB (overrides `CMPI_STACK_KIB`;
    /// clamped to the 64 KiB minimum). All stacks of a job are carved
    /// from one reservation of `ranks × size` and only touched pages
    /// commit, so the size bounds address space, not memory.
    pub fn with_stack_kib(mut self, kib: usize) -> Self {
        self.exec.stack_kib = Some(kib);
        self
    }

    /// Inject the faults described by `plan` into this job's shared
    /// memory, locality detection and fabric layers.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Override the locality policy.
    pub fn with_policy(mut self, policy: LocalityPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Override the tunables.
    pub fn with_tunables(mut self, tunables: Tunables) -> Self {
        self.tunables = tunables;
        self
    }

    /// Record per-rank virtual timelines, exportable as Chrome trace JSON
    /// from [`JobResult::trace`].
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Collect the causal profile: per-peer channel matrices, message-size
    /// histograms and wait-state decomposition, assembled into
    /// [`JobResult::profile`] at finalize.
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// Drop the always-on telemetry layer (flight recorder + metrics).
    /// Exists for the overhead A/B bench gate and for callers that want
    /// the absolute minimum per-op cost; everything else should leave it
    /// on.
    pub fn without_telemetry(mut self) -> Self {
        self.telemetry = false;
        self
    }

    /// Check the spec for consistency without running it.
    pub fn validate(&self) -> Result<(), MpiError> {
        self.tunables.validate().map_err(MpiError::BadTunables)?;
        self.scenario.validate().map_err(MpiError::BadPlacement)?;
        Ok(())
    }

    /// Launch the job: one task per rank, each executing `f`, and
    /// collect results, virtual times and statistics.
    ///
    /// # Panics
    /// Panics if the spec fails [`JobSpec::validate`], or if any rank
    /// panics (e.g. an MPI usage error).
    pub fn run<R, F>(&self, f: F) -> JobResult<R>
    where
        R: Send,
        F: Fn(&mut Mpi) -> R + Send + Sync,
    {
        self.validate().expect("invalid job spec");
        let n = self.scenario.num_ranks();
        let state = Arc::new(JobState::new(self));
        // Plant leftover container-list segments (fault injection) before
        // any rank attaches: the litter a previous job left in /dev/shm.
        if !state.faults.is_empty() {
            let mut seeded = std::collections::BTreeSet::new();
            for r in 0..n {
                let loc = state.placement.loc(r);
                let cont = state.cluster.container(loc.container);
                let ns = state.faults.effective_ipc_ns(cont);
                if !seeded.insert((loc.host, ns)) {
                    continue;
                }
                if state.faults.list_is_stale(loc.host) {
                    ContainerList::seed_stale(&state.registry, loc.host, ns, n, STALE_GENERATION);
                } else if state.faults.list_is_corrupt(loc.host) {
                    ContainerList::seed_corrupt(&state.registry, loc.host, ns, n);
                }
            }
        }
        // Attach HCA endpoints up front (privilege permitting), absorbing
        // transient QP-creation failures with a bounded retry.
        for r in 0..n {
            let loc = state.placement.loc(r);
            let cont = state.cluster.container(loc.container);
            let mut ok = false;
            for _ in 0..MAX_ATTACH_ATTEMPTS {
                match state.fabric.attach(r, loc.host, cont.privileged) {
                    Ok(()) => {
                        ok = true;
                        break;
                    }
                    Err(FabricError::QpCreationFailed(_)) => {
                        // relaxed-ok: monotonic retry counter, read only by
                        // the recovery report; never gates control flow.
                        state.attach_retries[r].fetch_add(1, Ordering::Relaxed);
                    }
                    // Permanent (unprivileged container): no endpoint.
                    Err(_) => break,
                }
            }
            state.attached[r].store(ok, Ordering::Release);
        }
        // The fiber's first frame: it holds the handle's address and
        // the body's result, nothing larger (DESIGN §16).
        let run_rank = |r: usize, state: Arc<JobState>| {
            let mut mpi = Mpi::init(r, state);
            let out = f(&mut mpi);
            let (now, obs) = mpi.finalize();
            (out, now, obs)
        };
        // Every rank is a task of the execution engine (see
        // `crate::exec`): its mailbox cell is bound to its task so pokes
        // reschedule it, and bodies write results through per-rank
        // erased slots.
        let mut slots: Vec<RankSlot<R>> = (0..n).map(|_| None).collect();
        struct SlotPtr<R>(*mut RankSlot<R>);
        // SAFETY: every task writes a distinct slot, and the engine
        // finishes every task before `slots` is read again.
        unsafe impl<R> Send for SlotPtr<R> {}
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(r, slot)| {
                let state = Arc::clone(&state);
                let run_rank = &run_rank;
                let slot = SlotPtr(slot as *mut RankSlot<R>);
                Box::new(move || {
                    let slot = slot;
                    let out = run_rank(r, state);
                    // SAFETY: distinct slot per rank; the engine
                    // finishes every task before the collection loop
                    // reads.
                    unsafe { *slot.0 = Some(out) };
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        crate::exec::run_task_pool(bodies, &self.exec.resolve(), |r, hook| {
            state.cells[r].bind_task(hook)
        });
        let clocks = slots.iter().flatten().map(|s| s.1);
        let elapsed = clocks.fold(SimTime::ZERO, SimTime::max);
        let finished = slots
            .into_iter()
            .map(|s| s.expect("rank produced no result"));
        crate::obs::job_result(finished, &state, elapsed)
    }
}

/// Trace/report label and flight-event `detail` code of a mid-run fault
/// class.
fn midrun_fault_detail(fault: MidRunFault) -> (&'static str, u8) {
    match fault {
        MidRunFault::Crash => ("crash", 1),
        MidRunFault::ContainerKill => ("container-kill", 2),
        MidRunFault::Hang => ("hang", 3),
    }
}

/// The panic of a fabric post that failed for good: `error` is the
/// permanent fabric error, `None` an exhausted retry budget. Cold and out
/// of line, so its formatting is not in the frame of every HCA send.
#[cold]
#[inline(never)]
fn hca_post_failed(what: &'static str, error: Option<FabricError>) -> ! {
    match error {
        Some(e) => panic!("{what} failed: {e} (is the container privileged?)"),
        None => panic!(
            "{}",
            MpiError::RetriesExhausted {
                what,
                attempts: MAX_SEND_ATTEMPTS
            }
        ),
    }
}

/// What a finished job returns.
#[derive(Debug)]
pub struct JobResult<R> {
    /// Per-rank return values of the job closure, rank-ordered.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks.
    pub times: Vec<SimTime>,
    /// Aggregated communication statistics.
    pub stats: JobStats,
    /// Job makespan: the latest rank clock.
    pub elapsed: SimTime,
    /// Recorded timelines when the spec enabled tracing.
    pub trace: Option<JobTrace>,
    /// Assembled causal profile when the spec enabled profiling.
    pub profile: Option<JobProfile>,
    /// Always-on telemetry snapshot (metrics + flight rings), absent
    /// only under [`JobSpec::without_telemetry`].
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Windows per lazily-allocated chunk of the [`WindowTable`].
const WIN_CHUNK: usize = 64;
/// Chunk slots preallocated per job (bounds window ids at 64 × 1024).
const WIN_CHUNKS: usize = 1024;

/// One window chunk: `WIN_CHUNK` windows × `n` per-rank region slots.
type WindowChunk = Vec<Vec<OnceLock<Arc<cmpi_fabric::MemoryRegion>>>>;

/// Rank-indexed window registry. The seed kept a job-wide
/// `Mutex<HashMap>` here; window ids are small dense counters (identical
/// on every rank — allocation is collective), so a chunked `OnceLock`
/// table gives lock-free steady-state access: publishing a region is one
/// `OnceLock::set`, reading a peer's region after the collective barrier
/// is a plain load.
pub(crate) struct WindowTable {
    n: usize,
    chunks: Vec<OnceLock<WindowChunk>>,
}

impl WindowTable {
    fn new(n: usize) -> Self {
        WindowTable {
            n,
            chunks: (0..WIN_CHUNKS).map(|_| OnceLock::new()).collect(),
        }
    }

    fn chunk(&self, win: u32) -> &WindowChunk {
        let idx = win as usize / WIN_CHUNK;
        assert!(
            idx < WIN_CHUNKS,
            "window id {win} exceeds the {}-window table",
            WIN_CHUNK * WIN_CHUNKS
        );
        self.chunks[idx].get_or_init(|| {
            (0..WIN_CHUNK)
                .map(|_| (0..self.n).map(|_| OnceLock::new()).collect())
                .collect()
        })
    }

    /// Publish this rank's region of window `win` (once per window).
    pub(crate) fn publish(&self, win: u32, rank: usize, mr: Arc<cmpi_fabric::MemoryRegion>) {
        let ok = self.chunk(win)[win as usize % WIN_CHUNK][rank]
            .set(mr)
            .is_ok();
        assert!(ok, "window {win} region published twice by rank {rank}");
    }

    /// A peer's region of window `win`. The collective barrier in
    /// `win_allocate` provides the happens-before edge for the slot.
    pub(crate) fn region(&self, win: u32, rank: usize) -> Arc<cmpi_fabric::MemoryRegion> {
        Arc::clone(
            self.chunk(win)[win as usize % WIN_CHUNK][rank]
                .get()
                .expect("peer window region missing after barrier"),
        )
    }
}

/// A job-wide rank barrier built on the mailbox poke protocol instead
/// of `std::sync::Barrier`: a waiter deschedules through the execution
/// engine like any other blocked rank, whereas a futex barrier would
/// wedge a whole pool worker per waiter and deadlock the job at any
/// worker count below the rank count.
///
/// Sense-reversing: waiters spin on the generation word through
/// `sleep_if_idle`, the last arriver resets the count, bumps the
/// generation and pokes every cell. The release-ordered generation bump
/// paired with the acquire loads (and the release sequence through the
/// `arrived` RMWs) publishes every pre-barrier write to every leaver,
/// matching the `std::sync::Barrier` guarantee the init path relied on.
pub(crate) struct PokeBarrier {
    arrived: AtomicUsize,
    gen: AtomicUsize,
    n: usize,
}

impl PokeBarrier {
    fn new(n: usize) -> Self {
        PokeBarrier {
            arrived: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            n,
        }
    }

    /// Block rank `rank` until all `n` ranks have arrived.
    pub(crate) fn wait(&self, state: &JobState, rank: usize) {
        let gen0 = self.gen.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // relaxed-ok: the reset is ordered before the releasing
            // `gen` bump below, and no rank can re-arrive at this
            // barrier until it observes that bump.
            self.arrived.store(0, Ordering::Relaxed);
            self.gen.fetch_add(1, Ordering::Release);
            state.poke_all();
        } else {
            while self.gen.load(Ordering::Acquire) == gen0 {
                // Not `sleep_if_idle`: its has-pending-packets fast path
                // keeps a barrier waiter runnable, but a rank parked here
                // drains nothing until released — that spin would hold
                // its worker away from the very ranks whose arrival
                // bumps `gen` (livelock on a small pool).
                state.cells[rank].sleep_at_barrier();
            }
        }
    }
}

/// One sender's SHM eager queues, keyed by receiver (see the `queues`
/// field below).
type SenderQueues = Mutex<PeerTable<Option<Box<EagerQueue>>>>;

/// Shared, immutable-after-init job state.
pub(crate) struct JobState {
    pub(crate) cluster: Cluster,
    pub(crate) placement: Placement,
    pub(crate) policy: LocalityPolicy,
    pub(crate) tunables: Tunables,
    pub(crate) cost: CostModel,
    pub(crate) registry: ShmRegistry,
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) faults: FaultPlan,
    pub(crate) attached: Vec<AtomicBool>,
    /// The job-wide failure detector: the down table that decides who is
    /// dead, and its epoch.
    pub(crate) detector: FailureDetector,
    /// Write-once log of shrink decisions (see [`DecisionLog`]): what
    /// makes the agreement protocol tolerate a root dying mid-decision.
    pub(crate) decisions: DecisionLog,
    /// Allocator for shrink-produced communicator context ids.
    pub(crate) ft_ctx: AtomicU32,
    /// Per-rank "the fabric may hold messages for you" flag, raised by the
    /// endpoint notifier on every delivery and cleared by the drain. The
    /// progress engine runs once per spin of every wait loop; gating the
    /// fabric poll on this flag turns the empty pass — by far the common
    /// case — into one relaxed load instead of a registry lookup and a
    /// queue lock. Initialized `true` so the first pass always drains.
    /// Shared with the fabric notifiers, like `cells`.
    fabric_ready: Arc<[AtomicBool]>,
    /// The observability levels this job runs and its flight rings.
    pub(crate) obs: JobObs,
    /// Transient QP-creation failures absorbed per rank during attach.
    attach_retries: Vec<std::sync::atomic::AtomicU32>,
    /// Per-rank mailboxes. Behind an `Arc` of their own so a fabric
    /// notifier can poke one without owning the job state.
    pub(crate) cells: Arc<[RankCell]>,
    /// The `src → dst` SHM eager queues: one table per sender, holding
    /// only the receivers it has sent to, so a job holds one queue per
    /// ordered pair that talks over SHM and nothing sized by the job or
    /// the host. The sender's lock covers its acquires and its
    /// receivers' releases: chunks of different senders never share a
    /// lock, and an acquire or a release takes one.
    queues: Box<[SenderQueues]>,
    /// Job-shared locality tables.
    pub(crate) loc_map: Arc<LocalityMap>,
    pub(crate) windows: WindowTable,
    init_barrier: PokeBarrier,
    /// Separates the post-init repair pass (conflicting-claim
    /// re-assertion) from the locality scan, so every rank scans a
    /// settled list.
    repair_barrier: PokeBarrier,
    finalize_barrier: PokeBarrier,
    /// The world's communicator entry, built once per job and shared by
    /// every rank's communicator table: the membership `[0, 1, .., n-1]`
    /// (at 4096 ranks, per-rank copies of this list alone cost ~134 MB
    /// and an O(n²) init) and the policy locality groups with their
    /// leaders, rank→group index and collective selector (O(n log n)
    /// string-keyed work and O(n) tables, which per-rank copies made
    /// O(n² log n) time and O(n²) memory). Built on the launching thread,
    /// so no rank's fiber stack carries the grouping's frames.
    pub(crate) world: CommEntry,
}

impl JobState {
    fn new(spec: &JobSpec) -> Self {
        let n = spec.scenario.num_ranks();
        JobState {
            cluster: spec.scenario.cluster.clone(),
            placement: spec.scenario.placement.clone(),
            policy: spec.policy,
            tunables: spec.tunables,
            cost: CostModel::default(),
            registry: ShmRegistry::new(),
            fabric: Fabric::with_faults(CostModel::default(), spec.faults.clone()),
            faults: spec.faults.clone(),
            attached: (0..n).map(|_| AtomicBool::new(false)).collect(),
            detector: FailureDetector::new(),
            decisions: DecisionLog::default(),
            ft_ctx: AtomicU32::new(FT_CTX_BASE),
            fabric_ready: (0..n).map(|_| AtomicBool::new(true)).collect(),
            obs: JobObs::new(spec),
            attach_retries: (0..n)
                .map(|_| std::sync::atomic::AtomicU32::new(0))
                .collect(),
            cells: (0..n).map(|_| RankCell::new()).collect(),
            queues: (0..n).map(|_| Mutex::new(PeerTable::new(n))).collect(),
            loc_map: Arc::new(LocalityMap::with_faults(
                &spec.scenario.cluster,
                &spec.scenario.placement,
                &spec.faults,
            )),
            windows: WindowTable::new(n),
            init_barrier: PokeBarrier::new(n),
            repair_barrier: PokeBarrier::new(n),
            finalize_barrier: PokeBarrier::new(n),
            world: CommEntry {
                members: Arc::new((0..n).collect()),
                topo: Arc::new(SmpTopo::new(
                    crate::collectives::policy_groups_of(
                        &spec.scenario.cluster,
                        &spec.scenario.placement,
                        spec.policy,
                    ),
                    n,
                    spec.policy,
                    spec.tunables,
                )),
            },
        }
    }

    /// Run `f` on the SHM eager queue of the ordered pair `src → dst`
    /// under the sender's lock, creating the queue on the pair's first
    /// use.
    #[inline]
    fn with_queue<T>(&self, src: usize, dst: usize, f: impl FnOnce(&mut EagerQueue) -> T) -> T {
        let mut queues = self.queues[src].lock();
        f(queues.get_mut(dst).get_or_insert_with(Box::default))
    }

    /// Sender side: claim `bytes` of the `src → dst` queue (see
    /// [`EagerQueue::try_acquire`]; the capacity is `SMPI_LENGTH_QUEUE`).
    pub(crate) fn try_acquire(&self, src: usize, dst: usize, bytes: usize) -> Option<SimTime> {
        let capacity = self.tunables.smpi_length_queue;
        self.with_queue(src, dst, |q| q.try_acquire(capacity, bytes))
    }

    /// Receiver-side queue drain: frees space and pokes the sender (which
    /// may be blocked waiting for it).
    pub(crate) fn release_queue(&self, src: usize, dst: usize, bytes: usize, t: SimTime) {
        let capacity = self.tunables.smpi_length_queue;
        self.with_queue(src, dst, |q| q.release(capacity, bytes, t));
        self.cells[src].poke();
    }

    /// Wake every rank's mailbox. Death and shrink-decision events call
    /// this because `sleep_if_idle` has no timeout — a waiter blocked on
    /// a rank that just died re-checks the failure state only when poked.
    pub(crate) fn poke_all(&self) {
        for cell in self.cells.iter() {
            cell.poke();
        }
    }

    /// Aggregate backpressure counters over every instantiated pair queue
    /// and every rank mailbox (sampled once, when the job's views are
    /// built).
    pub(crate) fn queue_pressure(&self) -> QueuePressure {
        let mut out = QueuePressure::default();
        for sender in self.queues.iter() {
            let sender = sender.lock();
            for s in sender
                .iter()
                .filter_map(|(_, q)| q.as_ref().map(|q| q.stats()))
            {
                out.queues += 1;
                out.acquires += s.acquires;
                out.stalled_acquires += s.stalled_acquires;
                out.max_in_flight = out.max_in_flight.max(s.max_in_flight);
            }
        }
        for cell in self.cells.iter() {
            let s = cell.stats();
            out.mailbox_pushes += s.pushes;
            out.mailbox_parks += s.parks;
            out.mailbox_wakes += s.wakes;
        }
        out
    }
}

/// What a rank remembers about one peer (see [`Mpi::peers`]).
#[derive(Clone, Copy, Default)]
pub(crate) struct PeerState {
    /// Sequence number of the next message this rank sends to the peer.
    pub(crate) send_seq: u64,
    /// Virtual time until which this rank's receive-side copy engine is
    /// busy with the peer's packets. Back-to-back transfers from one
    /// sender (a bandwidth stream) serialize — the receiver cannot copy
    /// two of its packets at once. The horizon is per sender rather than
    /// global because packets from different senders can be *processed*
    /// in an order that inverts their virtual timestamps (a
    /// future-stamped packet drained early must not delay an
    /// earlier-stamped one from someone else).
    pub(crate) copy_busy: SimTime,
}

/// The per-rank MPI handle — the library's ADI3 surface.
pub struct Mpi {
    pub(crate) rank: usize,
    pub(crate) n: usize,
    pub(crate) now: SimTime,
    pub(crate) state: Arc<JobState>,
    pub(crate) selector: ChannelSelector,
    pub(crate) view: LocalityView,
    pub(crate) engine: MatchingEngine,
    /// This rank's observability store: every counter, event and timing
    /// it reports goes through one of its record calls.
    pub(crate) obs: Obs,
    /// Every request this rank has in flight (see [`crate::requests`]).
    pub(crate) reqs: RequestTable,
    /// Per-peer protocol state (send sequence numbers, copy-engine
    /// horizons), held only for the peers written.
    pub(crate) peers: PeerTable<PeerState>,
    pub(crate) win_counter: u32,
    /// This rank's scripted mid-run fate, resolved from the fault plan at
    /// init. Deaths are always *self-inflicted* at the rank's own call
    /// boundaries, so they land at the same program point in every run.
    fate: Option<(MidRunFault, MidRunTrigger)>,
    /// MPI calls entered through the fault-tolerant API so far (drives
    /// [`MidRunTrigger::AfterOps`]). Failed polls never count, for the
    /// same determinism reason they never charge virtual time.
    ops: u64,
    /// Set once this rank executed its scripted death.
    dead: bool,
    /// Communicator contexts revoked at this rank.
    pub(crate) revoked: FastSet<u32>,
    /// The communicator table: members, locality groups and collective
    /// selector of every registered context, the world (under `CTX_WORLD`
    /// and `CTX_COLL`) included. Its entry shares the job-wide member
    /// list and topology (see [`JobState::world`]), so every rank
    /// decides identically; a collective call borrows from it by
    /// refcount bump. Unregistered contexts are
    /// treated as spanning all ranks.
    pub(crate) comms: FastMap<u32, CommEntry>,
    /// Dead peers whose conviction this rank has already ledgered (the
    /// conviction's stat and events fire once per peer).
    convicted_seen: FastSet<usize>,
    /// Shrink generation per parent context (how many shrinks of that
    /// communicator this rank has adopted).
    pub(crate) shrink_gen: FastMap<u32, u64>,
}

/// What joining the job leaves for a rank's handle: the resolved view,
/// the clock after init's modelled retries, and how often init had to
/// repair or route around something, per incident.
struct Joined {
    view: LocalityView,
    now: SimTime,
    repairs: [(Incident, u64); 4],
}

impl Mpi {
    /// Join the job, then build this rank's handle where it lives: on the
    /// heap. The two steps are separate frames so that a fiber's deepest
    /// init path fits in the top page of its stack (DESIGN §16):
    /// [`Mpi::join`] makes the deep calls (the container-list attach, the
    /// launch barrier's yield, the scan) from a small frame, and
    /// [`Mpi::assemble`], which holds the handle, makes only shallow
    /// ones.
    fn init(rank: usize, state: Arc<JobState>) -> Box<Mpi> {
        let joined = Mpi::join(rank, &state);
        Mpi::assemble(rank, state, joined)
    }

    /// The collective half of init: publish into the host's container
    /// list, wait for every rank, and resolve the peers from the list.
    #[inline(never)]
    fn join(rank: usize, state: &JobState) -> Joined {
        let plan = &state.faults;
        // Phase 1: publish membership into the host's container list,
        // validating (and if needed recovering) the segment header.
        let (list, report) = LocalityView::publish_with(
            &state.registry,
            &state.cluster,
            &state.placement,
            rank,
            plan,
        );
        let list_recoveries = matches!(
            report.outcome,
            AttachOutcome::RecoveredStale | AttachOutcome::RecoveredCorrupt
        ) as u64;
        // relaxed-ok: report-only read of a monotonic counter; the launch
        // thread finished all attaches before the rank threads spawned.
        let attach_retries = state.attach_retries[rank].load(Ordering::Relaxed) as u64;
        // Wake-ups for fabric arrivals.
        if state.attached[rank].load(Ordering::Acquire) {
            // The callback lives as long as the fabric, which the job
            // state owns: it shares the two tables it touches instead of
            // the state, or the three would keep each other alive.
            let fabric_ready = Arc::clone(&state.fabric_ready);
            let cells = Arc::clone(&state.cells);
            state.fabric.set_notifier(
                rank,
                Box::new(move || {
                    // Raise the drain hint *before* the poke: the woken
                    // rank's next progress pass must see it.
                    fabric_ready[rank].store(true, Ordering::Release);
                    cells[rank].poke();
                }),
            );
        }
        // Paper: "once the membership update of all processes completes,
        // the real communication can take place" — the job launch barrier.
        state.init_barrier.wait(state, rank);
        // Repair pass (fault runs only, so the healthy init path keeps
        // its exact barrier structure): re-assert this rank's byte if a
        // conflicting claim overwrote it; a second barrier keeps scans
        // off the unsettled list. The plan is job-wide, so every rank
        // takes the same branch and the barrier count matches.
        let mut publish_conflicts = 0;
        if !plan.is_empty() {
            publish_conflicts =
                LocalityView::repair_own_slot(&list, &state.cluster, &state.placement, rank, plan);
            state.repair_barrier.wait(state, rank);
        }
        // Each absorbed attach failure cost one backed-off QP-creation
        // round trip of virtual time.
        let mut now = SimTime::ZERO;
        for k in 0..attach_retries {
            now += SimTime::from_ns(state.cost.hca_post_ns << k.min(8));
        }
        // Bounded rescan for expected-but-silent co-resident publishers:
        // a wedged peer gets a grace period before being written off.
        // Silent bytes never appear after the barrier in this model, so
        // one look decides whether every retry runs, and the count is a
        // pure function of the plan.
        let map = &state.loc_map;
        let silent = !matches!(state.policy, LocalityPolicy::Hostname)
            && map.host_ranks(rank).iter().any(|&p| {
                let p = p as usize;
                p != rank && map.placed_shm(rank, p) && list.membership_of(p) == 0
            });
        let init_retries = if silent { MAX_INIT_RETRIES as u64 } else { 0 };
        for k in 0..init_retries {
            now += SimTime::from_us(50 << k);
        }
        // Phase 2: scan the list and resolve peers, cross-checking each
        // one and downgrading instead of aborting.
        Joined {
            view: LocalityView::scan(state.policy, map, rank, &list),
            now,
            repairs: [
                (Incident::LIST_RECOVERY, list_recoveries),
                (Incident::PUBLISH_CONFLICT, publish_conflicts),
                (Incident::INIT_RETRY, init_retries),
                (Incident::ATTACH_RETRY, attach_retries),
            ],
        }
    }

    /// Build the handle in its heap allocation, field by field, then
    /// ledger what init had to repair or route around. In place because
    /// `Box::new(Mpi { .. })` builds the 1.2 KB value in this frame first
    /// and copies it over: a frame of 2.5 KB.
    #[inline(never)]
    fn assemble(rank: usize, state: Arc<JobState>, joined: Joined) -> Box<Mpi> {
        let n = state.placement.num_ranks();
        let fate = state
            .faults
            .midrun_fate_of(rank, state.placement.loc(rank).container);
        let Joined { view, now, repairs } = joined;
        let mut slot = Box::<Mpi>::new_uninit();
        let p = slot.as_mut_ptr();
        // Every field by name, with no `..`: a field added to `Mpi` breaks
        // this pattern until it is listed here, and with it the reminder
        // to write it below.
        const _: fn(Mpi) = |Mpi {
                                rank: _,
                                n: _,
                                now: _,
                                state: _,
                                selector: _,
                                view: _,
                                engine: _,
                                obs: _,
                                reqs: _,
                                peers: _,
                                win_counter: _,
                                fate: _,
                                ops: _,
                                dead: _,
                                revoked: _,
                                comms: _,
                                convicted_seen: _,
                                shrink_gen: _,
                            }| {};
        // SAFETY: `p` is the fresh allocation, valid for writes of an
        // `Mpi`. Each line initializes one field in place, and the lines
        // cover the fields the pattern above lists, which are all of
        // them, so the value is whole at `assume_init`.
        let mut mpi = unsafe {
            (&raw mut (*p).rank).write(rank);
            (&raw mut (*p).n).write(n);
            (&raw mut (*p).now).write(now);
            (&raw mut (*p).selector).write(ChannelSelector::new(state.policy, state.tunables));
            (&raw mut (*p).view).write(view);
            (&raw mut (*p).engine).write(MatchingEngine::new());
            Obs::init(
                &mut *(&raw mut (*p).obs).cast::<MaybeUninit<Obs>>(),
                rank,
                n,
                &state.obs,
            );
            (&raw mut (*p).reqs).write(RequestTable::default());
            (&raw mut (*p).peers).write(PeerTable::new(n));
            (&raw mut (*p).win_counter).write(0);
            (&raw mut (*p).fate).write(fate);
            (&raw mut (*p).ops).write(0);
            (&raw mut (*p).dead).write(false);
            (&raw mut (*p).revoked).write(FastSet::default());
            (&raw mut (*p).comms).write(FastMap::default());
            (&raw mut (*p).convicted_seen).write(FastSet::default());
            (&raw mut (*p).shrink_gen).write(FastMap::default());
            (&raw mut (*p).state).write(state);
            slot.assume_init()
        };
        let world = &mpi.state.world;
        let (world, coll) = (world.clone(), world.clone());
        mpi.comms.insert(CTX_WORLD, world);
        mpi.comms.insert(CTX_COLL, coll);
        // Stamped at the end of init: downgrades show up in the health
        // surface even when nobody asked for a trace, and a Perfetto view
        // shows *why* a pair ended up on the HCA before the first message
        // flows.
        let Mpi { view, obs, .. } = &mut *mpi;
        for (peer, reason) in view.downgraded_peers() {
            let detail = Detail {
                reason: Some(reason.name()),
                ..Detail::default()
            };
            obs.incident(Incident::HCA_DOWNGRADE, now, Some(peer), detail, 1);
        }
        for (kind, count) in repairs {
            if count > 0 {
                obs.incident(kind, now, None, Detail::default(), count);
            }
        }
        mpi
    }

    /// Leave the job: wait until every rank is done, draining any
    /// protocol work peers still need from this one, then hand back the
    /// final clock and the store. Out of line, so nothing of the handle
    /// is a temporary of the fiber's first frame.
    #[inline(never)]
    fn finalize(self: Box<Mpi>) -> (SimTime, Box<Obs>) {
        self.state.finalize_barrier.wait(&self.state, self.rank);
        let now = self.now;
        (now, self.into_obs())
    }

    /// The store, in the handle's own allocation: every other field is
    /// dropped in place, the store moves to the front of the block
    /// heap-to-heap, and the block shrinks to the store's size (in
    /// place, with glibc). Moving the store out instead would pass its
    /// 584 B through this frame and allocate a box for it, per rank.
    fn into_obs(self: Box<Mpi>) -> Box<Obs> {
        // The shrunk block keeps the handle's alignment, which must be
        // the store's for `Box<Obs>` to free it.
        const _: () = assert!(align_of::<Obs>() == align_of::<Mpi>());
        let p = Box::into_raw(self);
        // Every field but `obs`, named once: the pattern below checks the
        // list against the struct and the drops below walk it, so a field
        // added to `Mpi` breaks the build until it is listed, and once
        // listed it is dropped. The pattern moves `obs` out, which also
        // stops the build if `Mpi` ever implements `Drop`, whose body this
        // teardown would skip.
        macro_rules! drop_all_but_obs {
            ($($field:ident),*) => {
                const _: fn(Mpi) = |Mpi { obs: _obs, $($field: _),* }| {};
                $(std::ptr::drop_in_place(&raw mut (*p).$field);)*
            };
        }
        // SAFETY: `p` owns a whole `Mpi` allocated with `Mpi`'s layout,
        // and `Mpi` has no `Drop` of its own (the pattern above). The
        // macro drops each field but `obs` once; `obs` is then moved, not
        // copied, to offset 0 (`copy` allows the overlap), and nothing
        // reads the old `Mpi` again. The shrink is given the layout the
        // block was allocated with, and its result, when not null, holds
        // the moved store in a block of `Obs`'s size and alignment, which
        // is what `Box<Obs>` frees.
        unsafe {
            drop_all_but_obs!(
                rank,
                n,
                now,
                state,
                selector,
                view,
                engine,
                reqs,
                peers,
                win_counter,
                fate,
                ops,
                dead,
                revoked,
                comms,
                convicted_seen,
                shrink_gen
            );
            let obs = p.cast::<Obs>();
            std::ptr::copy(&raw const (*p).obs, obs, 1);
            let block = std::alloc::realloc(p.cast(), Layout::new::<Mpi>(), size_of::<Obs>());
            if block.is_null() {
                std::alloc::handle_alloc_error(Layout::new::<Obs>());
            }
            Box::from_raw(block.cast::<Obs>())
        }
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The rank's current virtual clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The rank's resolved locality view (read-only).
    pub fn locality(&self) -> &LocalityView {
        &self.view
    }

    /// The active channel selector (policy + tunables).
    pub fn selector(&self) -> &ChannelSelector {
        &self.selector
    }

    /// A snapshot of this rank's statistics so far.
    pub fn stats(&self) -> &CommStats {
        self.obs.stats()
    }

    /// Charge `t` of computation (time spent outside MPI).
    pub fn compute(&mut self, t: SimTime) {
        let t0 = self.now;
        self.now += t;
        self.obs.call(CallClass::Compute, "compute", t0, self.now);
    }

    /// Model computation proportional to `work_items` at `ns_per_item`.
    pub fn compute_items(&mut self, work_items: u64, ns_per_item: u64) {
        self.compute(SimTime::from_ns(work_items * ns_per_item));
    }

    // ---- internal plumbing --------------------------------------------------

    /// Per-call entry: charge the container tax, remember the start time.
    pub(crate) fn enter(&mut self) -> SimTime {
        let t0 = self.now;
        self.now += self.state.cost.container_tax(self.view.in_container());
        t0
    }

    /// Per-call exit: attribute elapsed virtual time to `class`.
    pub(crate) fn exit(&mut self, class: CallClass, t0: SimTime) {
        self.exit_named(class, t0, class.name())
    }

    /// [`Mpi::exit`] with an explicit trace label (collectives record the
    /// selected algorithm, e.g. `"bcast-smp"`, instead of the class name).
    pub(crate) fn exit_named(&mut self, class: CallClass, t0: SimTime, name: &'static str) {
        self.obs.call(class, name, t0, self.now);
    }

    pub(crate) fn cross_socket(&self, peer: usize) -> bool {
        peer != self.rank && !self.view.same_socket(peer)
    }

    // ---- mid-run fault tolerance --------------------------------------------

    /// Entry bookkeeping for fault-tolerant calls: bump the deterministic
    /// op counter, execute this rank's scripted fate if its trigger
    /// fired, then charge the usual call-entry tax. `Err` means the
    /// caller itself is dead.
    pub(crate) fn ft_enter(&mut self) -> Result<SimTime, MpiError> {
        self.ops += 1;
        self.check_fate()?;
        Ok(self.enter())
    }

    /// Execute this rank's scripted mid-run fate if its trigger has
    /// fired. Triggers are pure functions of the rank's own virtual
    /// clock and op count, so the death lands at the same point of the
    /// same call sequence in every run — including every rank of a
    /// killed container, which all carry the container's trigger.
    fn check_fate(&mut self) -> Result<(), MpiError> {
        if self.dead {
            return Err(MpiError::ProcessFailed { peer: self.rank });
        }
        let Some((fault, trigger)) = self.fate else {
            return Ok(());
        };
        if trigger.fires(self.now.as_ns(), self.ops) {
            return Err(self.execute_death(fault));
        }
        Ok(())
    }

    /// The death itself: record it in the down table (ground truth),
    /// tear down what the fault class tears down, and wake every peer so
    /// blocked waiters re-check the failure state. Returns the error the
    /// dying rank's own call completes with.
    fn execute_death(&mut self, fault: MidRunFault) -> MpiError {
        self.dead = true;
        // Mark down FIRST: everything this rank sent precedes the mark in
        // its program order, so a peer that observes the death and then
        // drains its mailbox sees every pre-death packet.
        self.state.detector.mark_down(self.rank, self.now, fault);
        let (name, code) = midrun_fault_detail(fault);
        let detail = Detail {
            reason: Some(name),
            code,
            ..Detail::default()
        };
        self.obs
            .incident(Incident::DEATH, self.now, None, detail, 1);
        match fault {
            // A hung rank keeps its endpoint: only lease expiry — never a
            // transport error — reveals it.
            MidRunFault::Hang => {}
            MidRunFault::Crash | MidRunFault::ContainerKill => {
                if self.state.attached[self.rank].load(Ordering::Acquire) {
                    self.state.fabric.detach(self.rank);
                }
            }
        }
        self.state.poke_all();
        MpiError::ProcessFailed { peer: self.rank }
    }

    /// Check a pending operation against the failure state: `Err` if its
    /// context was revoked or a rank it depends on is convicted dead.
    /// `peer == None` is a wildcard receive, failed by *any* dead member
    /// of the context. Cheap on healthy runs: one relaxed epoch load.
    pub(crate) fn check_op_failure(
        &mut self,
        ctx: u32,
        peer: Option<usize>,
    ) -> Result<(), MpiError> {
        if !self.revoked.is_empty() && self.revoked.contains(&ctx) {
            return Err(MpiError::Revoked);
        }
        if self.state.detector.epoch() == 0 {
            return Ok(());
        }
        let death = match peer {
            Some(p) if p != self.rank => self.state.detector.is_down(p),
            Some(_) => None,
            None => {
                let members = match self.comms.get(&ctx) {
                    Some(entry) => &entry.members,
                    None => &self.state.world.members,
                };
                let others = members.iter().copied().filter(|&r| r != self.rank);
                self.state.detector.first_down(others)
            }
        };
        if let Some(d) = death {
            self.convict(d);
            return Err(MpiError::ProcessFailed { peer: d.rank });
        }
        Ok(())
    }

    /// Ledger a conviction: advance the clock to the deterministic
    /// conviction time (death + lease) and, on first observation of this
    /// peer's death, record the conviction.
    pub(crate) fn convict(&mut self, d: Death) {
        self.now = self.now.max(d.convict_time());
        if self.convicted_seen.insert(d.rank) {
            let detail = Detail {
                reason: Some(midrun_fault_detail(d.kind).0),
                a: self.now.as_ns() - d.at.as_ns(),
                ..Detail::default()
            };
            self.obs
                .incident(Incident::CONVICT, self.now, Some(d.rank), detail, 1);
        }
    }

    /// Mark `ctx` revoked at this rank, with its pair (the user world
    /// context and the collective-internal context are one communicator),
    /// and ledger the revocation. `false` when it already was: a repeat
    /// changes nothing.
    #[inline(never)]
    fn mark_revoked(&mut self, ctx: u32) -> bool {
        if !self.revoked.insert(ctx) {
            return false;
        }
        if ctx == CTX_COLL {
            self.revoked.insert(CTX_WORLD);
        } else if ctx == CTX_WORLD {
            self.revoked.insert(CTX_COLL);
        }
        let detail = Detail {
            a: ctx as u64,
            ..Detail::default()
        };
        self.obs
            .incident(Incident::REVOKE, self.now, None, detail, 1);
        true
    }

    /// This rank's own revocation of `ctx`: mark it and push one notice
    /// straight into every other member's mailbox (out-of-band control
    /// traffic; it never crosses the HCA). A rank that has already seen
    /// a notice for `ctx` pushes nothing. A receiver only marks (see
    /// `handle_packet`): the originator cannot die part-way through the
    /// loop below — a rank dies only at its own call boundaries
    /// (`ft_enter`, the fate check of a poll), and the loop crosses none —
    /// so every live member gets the notice from it, and dead members'
    /// mailboxes absorb theirs harmlessly.
    pub(crate) fn revoke_ctx(&mut self, ctx: u32) {
        if !self.mark_revoked(ctx) {
            return;
        }
        let members: Arc<Vec<usize>> = match self.comms.get(&ctx) {
            Some(entry) => Arc::clone(&entry.members),
            None => Arc::clone(&self.state.world.members),
        };
        let t = self.now + SimTime::from_ns(self.state.cost.shm_post_ns);
        for &dst in members.iter() {
            if dst == self.rank {
                continue;
            }
            self.state.cells[dst].push(Packet {
                src: self.rank,
                channel: Channel::Shm,
                available_at: t,
                kind: PacketKind::Revoke { ctx },
                data: Bytes::new(),
            });
        }
    }

    /// Drain the fabric endpoint and the mailbox, handling every packet.
    pub(crate) fn progress(&mut self) {
        // Poll the fabric only when its notifier has signalled a delivery
        // since the last drain. A delivery between the swap and the poll
        // is not lost: the notifier re-raises the flag and pokes the
        // mailbox, so the wait loop comes back around. The no-lost-signal
        // property is model-checked, against the real endpoint, by
        // `mailbox::model_tests::model_fabric_ready_gating_never_drops_a_delivery`.
        //
        // relaxed-ok: cheap peek only; the authoritative claim is the
        // Acquire swap on the next line, and a stale `false` here is
        // repaired by the notifier's subsequent poke re-running this path.
        let mut fabric = self.state.attached[self.rank].load(Ordering::Acquire)
            && self.state.fabric_ready[self.rank].load(Ordering::Relaxed)
            && self.state.fabric_ready[self.rank].swap(false, Ordering::Acquire);
        // The mailbox check inline: most calls come from a wait loop
        // with nothing to drain, and they make no call.
        while fabric || self.state.cells[self.rank].has_ready() {
            let Some(pkt) = self.next_packet(&mut fabric) else {
                return;
            };
            self.handle_packet(pkt);
        }
    }

    /// The next packet [`Mpi::progress`] handles: the fabric's, in
    /// arrival order, while `fabric` is set (it is cleared when the
    /// endpoint's queue runs dry), then the mailbox's, in queue order,
    /// until it is empty — handlers can push to our own cell (intra-host
    /// loopback control), and those packets run here too. Out of line,
    /// so that the fabric message it decodes and the pop's own state are
    /// not in the frame every handler runs under (DESIGN §16).
    #[inline(never)]
    fn next_packet(&self, fabric: &mut bool) -> Option<Packet> {
        if *fabric {
            // One message at a time, straight from the endpoint's queue:
            // a rank keeps no drain buffer of its own. A detached
            // endpoint (this rank died) drains nothing.
            if let Ok(Some((m, behind))) = self.state.fabric.poll_recv_one(self.rank) {
                *fabric = behind > 0;
                // Split framing: the header parses off the inline
                // segment and the payload `Bytes` is adopted whole, so a
                // rendezvous payload lands in the user's completion
                // untouched (and the spare list can reclaim its
                // allocation — a sliced frame could never be reclaimed,
                // it shares the header's allocation).
                return Some(Packet::decode_parts(
                    m.src,
                    m.imm,
                    m.hdr.as_slice(),
                    m.data,
                    m.available_at,
                ));
            }
            *fabric = false;
        }
        // A per-rank batch buffer would hold up to a batch of packets per
        // rank for the whole job.
        self.state.cells[self.rank].pop()
    }

    /// The world's topology (and with it the job's collective selector),
    /// from its communicator-table entry.
    pub(crate) fn world_topo(&self) -> &Arc<SmpTopo> {
        let world = self.comms.get(&CTX_COLL).map(|e| &e.topo);
        world.expect("the world entry is registered at init and never removed")
    }

    /// The world as a collective scope: every rank in rank order, on the
    /// collective context, with the job's topology — refcount bumps of the
    /// world entry's `Arc`s, no allocation.
    pub(crate) fn world_scope(&self) -> Scope {
        Scope {
            ranks: Arc::clone(&self.state.world.members),
            me: self.rank,
            ctx: CTX_COLL,
            topo: Some(Arc::clone(self.world_topo())),
        }
    }

    /// Park until new packets or pokes arrive.
    pub(crate) fn sleep_if_idle(&self) {
        self.state.cells[self.rank].sleep_if_idle();
    }

    fn handle_packet(&mut self, pkt: Packet) {
        match pkt.kind {
            PacketKind::Eager {
                ctx,
                tag,
                seq,
                total,
                offset,
            } => {
                let cost = &self.state.cost;
                let len = pkt.data.len();
                // Drain-copy floor: availability and the per-sender copy
                // chain only. The receiver's own clock is deliberately NOT
                // a floor here — *when* the progress engine really drained
                // the packet is thread-scheduling, and recv completions
                // are floored at the receiver's clock in wait anyway.
                let start = pkt.available_at.max(self.peers.get(pkt.src).copy_busy);
                let chunk_ready = match pkt.channel {
                    Channel::Shm => {
                        let t = start
                            + SimTime::from_ns(cost.shm_match_ns)
                            + cost.shm_copy_time(
                                len as u64,
                                self.state.tunables.smpi_length_queue as u64,
                                self.cross_socket(pkt.src),
                            );
                        if pkt.src != self.rank {
                            self.state.release_queue(pkt.src, self.rank, len, t);
                        }
                        t
                    }
                    Channel::Hca => {
                        start
                            + cost.copy_time(len as u64, false)
                            + SimTime::from_ns(cost.hca_completion_ns)
                    }
                    Channel::Cma => unreachable!("eager data never travels on CMA"),
                };
                self.peers.get_mut(pkt.src).copy_busy = chunk_ready;
                self.obs.rx(pkt.src, pkt.channel, len);
                if let Some(msg) = self.engine.eager_chunk(
                    pkt.src,
                    ctx,
                    tag,
                    seq,
                    total,
                    offset,
                    pkt.data,
                    chunk_ready,
                    pkt.available_at,
                    pkt.channel,
                ) {
                    self.dispatch(msg);
                }
            }
            PacketKind::Rts {
                ctx,
                tag,
                seq,
                size,
                sreq,
            } => {
                let msg = self.engine.rts(
                    pkt.src,
                    ctx,
                    tag,
                    seq,
                    size,
                    sreq,
                    pkt.available_at,
                    pkt.channel,
                );
                self.dispatch(msg);
            }
            PacketKind::Cts { sreq, rreq } => self.handle_cts(&pkt, sreq, rreq),
            PacketKind::RndvData { rreq } => self.handle_rndv_data(pkt, rreq),
            PacketKind::Fin { sreq } => self.handle_fin(pkt.available_at, sreq),
            PacketKind::Revoke { ctx } => {
                self.mark_revoked(ctx);
            }
        }
    }

    /// The sender's FIN handler: the rendezvous send is done.
    #[inline(never)]
    fn handle_fin(&mut self, t: SimTime, sreq: ReqId) {
        // A late FIN (the send already completed in error: peer
        // convicted dead / context revoked) has nothing to finish.
        let Some(slot) = self
            .reqs
            .named_by_packet(sreq, "FIN for unknown send request")
        else {
            return;
        };
        let &mut Slot::Send(SendState::AwaitFin { ctx, cts_at, .. }) = slot else {
            panic!("FIN for a send not awaiting one: {slot:?}");
        };
        *slot = Slot::Send(SendState::Done { t, ctx, cts_at });
    }

    /// Route an assembled message: fulfil a posted receive or queue it.
    pub(crate) fn dispatch(&mut self, msg: ArrivedMsg) {
        match self.engine.take_matching_posted(&msg) {
            Some(p) => self.fulfill(p.rreq, msg, p.posted_at),
            None => {
                self.engine.push_unexpected(msg);
                self.obs
                    .depth(self.engine.posted_len(), self.engine.unexpected_len());
            }
        }
    }

    /// Complete a posted receive with an arrived message.
    ///
    /// `posted_at` is the virtual time the receive was posted: a message
    /// that was already drained (`ready_at <= posted_at`) counts as
    /// *unexpected* and pays one extra copy out of the temporary buffer.
    /// The decision is purely virtual, so the real order in which the
    /// progress engine happened to process packets cannot change costs.
    pub(crate) fn fulfill(&mut self, rreq: ReqId, msg: ArrivedMsg, posted_at: SimTime) {
        let cost = &self.state.cost;
        let flow = flow_id(msg.src, self.rank, msg.seq);
        let next = match msg.body {
            ArrivedBody::Eager {
                data,
                ready_at,
                arrived_at,
            } => {
                let mut t = if ready_at <= posted_at {
                    posted_at.max(ready_at) + cost.copy_time(data.len() as u64, false)
                } else {
                    ready_at
                };
                t += SimTime::from_ns(cost.request_ns);
                RecvState::Done {
                    data,
                    src: msg.src as u32,
                    tag: msg.tag,
                    t,
                    arrived: arrived_at,
                    ctx: msg.ctx,
                    flow,
                }
            }
            ArrivedBody::Rts {
                size,
                sreq,
                available_at,
            } => {
                // Send the clear-to-send on the announcing channel. The
                // CTS is stamped from the later of "receive posted" and
                // "RTS available" — both virtual-causal times — and NOT
                // from this rank's clock at the real moment the RTS got
                // drained: which call's progress tick processed it is
                // thread scheduling (same rule as the eager drain-copy
                // floor above), and recv completion is floored at the
                // receiver's clock in wait anyway.
                let t = posted_at.max(available_at) + SimTime::from_ns(cost.request_ns);
                let cts = PacketKind::Cts { sreq, rreq };
                self.send_control(msg.src, cts, Bytes::new(), msg.channel, t);
                RecvState::AwaitData {
                    src: msg.src,
                    tag: msg.tag,
                    sreq,
                    channel: msg.channel,
                    size: size as usize,
                    ctx: msg.ctx,
                    flow,
                    rts_at: available_at,
                }
            }
        };
        *self.reqs.get_mut(rreq) = Slot::Recv(next);
    }

    /// The sender's CTS handler: dispatch the parked payload.
    #[inline(never)]
    fn handle_cts(&mut self, pkt: &Packet, sreq: ReqId, rreq: ReqId) {
        // A late CTS (the send already completed in error): the parked
        // payload is gone and the receiver (dead or revoked with us) gets
        // nothing.
        let Some(slot) = self
            .reqs
            .named_by_packet(sreq, "CTS for unknown send request")
        else {
            return;
        };
        let &mut Slot::Send(SendState::AwaitCts {
            ref mut data,
            dst,
            channel,
            ctx,
        }) = slot
        else {
            panic!("CTS for a send not awaiting one: {slot:?}");
        };
        let data = std::mem::take(data);
        let cts_at = pkt.available_at;
        *slot = Slot::Send(SendState::AwaitFin { dst, ctx, cts_at });
        // Inject the payload when the CTS becomes available, not at this
        // rank's clock when it really drained the packet — the parked
        // payload has been ready since the RTS (causally before any CTS),
        // and the drain moment is thread scheduling. The sender's wait
        // floors its own completion at its clock via `settle_send`.
        let len = data.len();
        self.send_control(dst, PacketKind::RndvData { rreq }, data, channel, cts_at);
        self.obs.tx(dst, channel, len);
    }

    /// The receiver's payload handler: charge the transfer, complete the
    /// receive, notify the sender.
    #[inline(never)]
    fn handle_rndv_data(&mut self, pkt: Packet, rreq: ReqId) {
        // A late payload (the receive already completed in error): its
        // sender either died (no FIN owed) or will fail out of its own wait
        // via the revoked-context check, so dropping it cannot hang anyone.
        let Some(slot) = self
            .reqs
            .named_by_packet(rreq, "rendezvous data for unknown recv")
        else {
            return;
        };
        let &mut Slot::Recv(RecvState::AwaitData {
            src,
            tag,
            sreq,
            channel,
            size,
            ctx,
            flow,
            rts_at,
        }) = slot
        else {
            panic!("rendezvous data for a recv not awaiting it: {slot:?}");
        };
        debug_assert_eq!(size, pkt.data.len(), "rendezvous size mismatch");
        let cost = &self.state.cost;
        let t = match channel {
            // CMA: the receiver performs the single-copy read, serialized
            // on its copy engine.
            Channel::Cma => {
                let copy = cost.cma_time(size as u64, self.cross_socket(src));
                let busy = &mut self.peers.get_mut(src).copy_busy;
                *busy = pkt.available_at.max(*busy) + copy;
                *busy
            }
            // RDMA: zero copy, just completion handling. Floored at the
            // payload's availability only — the receiver's clock floors
            // the completion in wait (`settle_recv`), and the real drain
            // moment must not leak into virtual time.
            Channel::Hca => pkt.available_at + SimTime::from_ns(cost.hca_completion_ns),
            Channel::Shm => unreachable!("rendezvous payload never travels on SHM"),
        };
        self.send_control(src, PacketKind::Fin { sreq }, Bytes::new(), channel, t);
        self.obs.rx(src, channel, size);
        *self.reqs.get_mut(rreq) = Slot::Recv(RecvState::Done {
            data: pkt.data,
            src: src as u32,
            tag,
            t,
            arrived: rts_at,
            ctx,
            flow,
        });
    }

    /// Emit a protocol packet on `channel` at detached-timeline time `t`:
    /// the only function that frames one for the HCA. Returns the fabric's
    /// completion info of an HCA post — `None` on the intra-host channels,
    /// and for a destination that died mid-run, which swallows the packet:
    /// nothing the dead rank will ever do depends on it.
    pub(crate) fn send_control(
        &mut self,
        dst: usize,
        kind: PacketKind,
        data: Bytes,
        channel: Channel,
        t: SimTime,
    ) -> Option<SendInfo> {
        let cost = &self.state.cost;
        let mut pkt = Packet {
            src: self.rank,
            channel,
            available_at: t,
            kind,
            data,
        };
        match channel {
            Channel::Shm | Channel::Cma => {
                pkt.available_at +=
                    SimTime::from_ns(cost.shm_post_ns) + SimTime::from_ns(cost.shm_wakeup_ns);
                self.state.cells[dst].push(pkt);
                None
            }
            Channel::Hca => {
                let what = match pkt.kind {
                    PacketKind::Eager { .. } => "HCA eager send",
                    PacketKind::Rts { .. } => "HCA rendezvous RTS",
                    _ => "HCA control send",
                };
                let (imm, hdr, payload) = pkt.encode_parts();
                self.try_hca_post(dst, imm, hdr, payload, t, what)
            }
        }
    }

    /// Post a fabric send, absorbing transient completion errors with a
    /// bounded, exponentially backed-off repost. Each failed attempt
    /// pushes the (virtual) post time out by one more doorbell interval.
    /// A post to a peer that crashed mid-run returns `None` — MPI send
    /// completion is *local*, so a message dropped on the floor because
    /// its receiver is gone still completed successfully at the sender.
    ///
    /// # Panics
    /// Panics on permanent fabric errors (unattached endpoint — the
    /// container was not privileged) and when the retry budget runs out.
    fn try_hca_post(
        &mut self,
        dst: usize,
        imm: u32,
        hdr: WireHeader,
        payload: Bytes,
        mut t: SimTime,
        what: &'static str,
    ) -> Option<SendInfo> {
        for attempt in 0..MAX_SEND_ATTEMPTS {
            // Repost cost: the header lives on the stack and the payload
            // clone is a refcount bump — no per-attempt heap traffic.
            match self.state.fabric.post_send_parts(
                self.rank,
                dst,
                imm,
                hdr.as_slice(),
                payload.clone(),
                t,
            ) {
                Ok(info) => return Some(info),
                Err(FabricError::TransientCompletion { .. }) => {
                    self.obs
                        .incident(Incident::SEND_RETRY, t, Some(dst), Detail::default(), 1);
                    t += SimTime::from_ns(self.state.cost.hca_post_ns << attempt.min(8));
                }
                Err(FabricError::NotAttached(r))
                    if r == dst && self.state.detector.is_down(dst).is_some() =>
                {
                    return None;
                }
                Err(e) => hca_post_failed(what, Some(e)),
            }
        }
        hca_post_failed(what, None)
    }
}

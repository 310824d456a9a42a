//! The receiving side: immediate processing, reordering, or physical
//! reassembly (§3.3), over one shared verification engine.
//!
//! The receiver identifies the TPDU a chunk belongs to by its *position in
//! connection space*: `C.SN − T.SN` names the TPDU's first element, and is
//! invariant under fragmentation (it is exactly the implicit `T.ID` of
//! Appendix A). The explicit `T.ID` is therefore pure protected data — its
//! corruption surfaces as an error-detection-code mismatch, matching
//! Table 1. `C.SN` corruption moves a chunk into the *wrong* TPDU group,
//! where it collides with data owned by another group — the cross-group
//! consistency check. `T.SN` corruption breaks virtual reassembly.
//!
//! Every arriving byte is counted as a *data touch* when it is written
//! anywhere (application space or a staging buffer), so the three delivery
//! modes make the paper's §3.3 claim quantitative: immediate processing
//! touches each byte once; physical reassembly touches it twice; reordering
//! falls in between, depending on how much disorder the network produced.
//!
//! Per-group error detection runs through the streaming verification path:
//! each group's [`TpduInvariant`] absorbs chunk payloads via
//! `chunks_wsc::Wsc2Stream`, whose cached cursor weight makes contiguous
//! element runs — the common case even under heavy fragmentation — cost one
//! table multiply per run instead of an `alpha^position` exponentiation per
//! element (see docs/ARCHITECTURE.md, "The hot path").

use std::collections::HashMap;
use std::sync::Arc;

use chunks_core::chunk::Chunk;
use chunks_core::label::ChunkType;
use chunks_core::packet::{spans, unpack, unpack_observed, validate, Packet};
use chunks_core::wire::decode_chunk_at;
use chunks_obs::{Event, HotCounter, Labels, ObsSink, SpanId, Stage};
use chunks_vreasm::{OverlapPolicy, PduTracker, Reassembly, Resolution, TrackEvent};
use chunks_wsc::{InvariantLayout, TpduInvariant};

use crate::ack::AckInfo;
use crate::budget::ResourceBudget;
use crate::conn::{ConnectionParams, Signal};
use crate::rto::TransportError;

/// The three receiver strategies of §3.3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryMode {
    /// Process chunks as they arrive: place data straight into the
    /// application address space ("reassembly in place"). One touch per
    /// byte; no reassembly buffer at all.
    Immediate,
    /// Deliver data to the application strictly in connection-sequence
    /// order, buffering out-of-order chunks until the gap fills.
    Reorder,
    /// Physically reassemble each TPDU and verify it before any byte
    /// reaches the application. Two touches per byte, always.
    Reassemble,
}

/// Why a TPDU was rejected — the detection channels of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureReason {
    /// The recomputed WSC-2 invariant did not match the received ED chunk.
    EdMismatch,
    /// A cross-field consistency check failed (`C.SN − T.SN` collision
    /// across groups, or `C.SN − X.SN` not constant within an external
    /// PDU).
    Consistency,
    /// Virtual reassembly failed: overlap, data past the stop bit,
    /// conflicting stop positions, or the TPDU never completed.
    ReassemblyError,
    /// The chunk itself was malformed (wire decode failed, wrong element
    /// size for the connection).
    BadChunk,
    /// A fragment overlapped already-held positions with *differing* bytes
    /// and [`OverlapPolicy::Reject`] condemned the group rather than pick
    /// a winner.
    OverlapConflict,
}

impl FailureReason {
    /// A short stable kebab-case tag, used as the `reason` of a
    /// [`Event::ChunkRejected`] trace event.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureReason::EdMismatch => "ed-mismatch",
            FailureReason::Consistency => "consistency",
            FailureReason::ReassemblyError => "reassembly-error",
            FailureReason::BadChunk => "bad-chunk",
            FailureReason::OverlapConflict => "overlap-conflict",
        }
    }
}

/// Events surfaced to the caller.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RxEvent {
    /// A TPDU passed verification; its data is (or already was, in
    /// immediate mode) in the application space.
    TpduDelivered {
        /// Connection-space index of the TPDU's first element.
        start: u64,
        /// Elements delivered.
        elements: u64,
    },
    /// A TPDU was rejected.
    TpduFailed {
        /// Connection-space index of the TPDU's first element.
        start: u64,
        /// The detection channel that caught it.
        reason: FailureReason,
    },
    /// A connection signal arrived.
    Signalled(Signal),
    /// An acknowledgment arrived (for the data we sent the other way).
    Acked(AckInfo),
    /// The connection was closed by the `C.ST` bit.
    ConnectionClosed,
    /// The resource budget was exhausted and the chunk was dropped before
    /// it touched any verification state — the typed shed of graceful
    /// degradation. The retransmission path will offer the data again.
    ChunkShed {
        /// Connection-space index of the TPDU the chunk belonged to.
        start: u64,
        /// Payload bytes shed.
        bytes: u64,
    },
}

/// Receiver statistics — the quantities the paper's performance argument
/// turns on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RxStats {
    /// Bytes written anywhere (application space or staging buffers).
    pub data_touches: u64,
    /// Bytes currently staged in reorder/reassembly buffers.
    pub buffered_bytes: u64,
    /// High-water mark of staged bytes.
    pub peak_buffered_bytes: u64,
    /// Duplicate chunks rejected before processing.
    pub duplicate_chunks: u64,
    /// Chunks accepted.
    pub chunks_accepted: u64,
    /// TPDUs delivered.
    pub tpdus_delivered: u64,
    /// TPDUs rejected.
    pub tpdus_failed: u64,
    /// Malformed packets dropped.
    pub bad_packets: u64,
    /// Sum over delivered elements of (delivery time − arrival time), in
    /// the caller's time unit: the buffering latency immediate mode avoids.
    pub holding_delay: u64,
    /// Overlaps whose bytes actually differed from what was already held
    /// (benign retransmission cuts carry identical bytes and do not count).
    pub overlap_conflicts: u64,
    /// Idle incomplete groups evicted under budget pressure.
    pub evictions: u64,
    /// Payload bytes shed because the resource budget was exhausted.
    pub shed_bytes: u64,
}

/// Per-TPDU verification state.
#[derive(Debug)]
struct Group {
    tracker: PduTracker,
    inv: TpduInvariant,
    /// `C.SN − X.SN` per external PDU id (Table 1 consistency check).
    x_deltas: HashMap<u32, u32>,
    ed: Option<[u8; 8]>,
    /// Chunks staged until verification (Reassemble mode only).
    held: Vec<(Chunk, u64)>,
    /// Verification already failed (sticky, reported once).
    failed: Option<FailureReason>,
    reported: bool,
    elements: u64,
    /// Virtual-clock time of the group's most recent arrival — the LRU key
    /// budget eviction orders idle groups by.
    last_touch: u64,
}

/// Compact record of a delivered TPDU. On delivery the heavyweight [`Group`]
/// (interval slab, X-delta table, staging `Vec`) moves to the receiver's
/// pool for reuse by the next TPDU; everything later queries need — the
/// verified code, the digest, the element count, and the known end for
/// duplicate classification — survives here, heap-free.
#[derive(Clone, Debug)]
struct Done {
    elements: u64,
    /// One past the last `T.SN`-space element (the tracker's known end),
    /// used to classify late retransmissions exactly as the full tracker
    /// would have.
    end: u64,
    code: chunks_wsc::Wsc2,
    digest: [u8; 8],
}

/// The chunk receiver for one connection.
#[derive(Debug)]
pub struct Receiver {
    mode: DeliveryMode,
    params: ConnectionParams,
    layout: InvariantLayout,
    /// Application address space; element `i` (connection-space) lives at
    /// bytes `[i*size, (i+1)*size)`.
    app: Vec<u8>,
    /// Which connection-space elements have been claimed, tagged by the
    /// owning group's start — so a cross-group collision can name the
    /// owner and the exact contested byte range in its diagnostic.
    claimed: Reassembly,
    /// How differing-byte overlaps within a group are resolved.
    policy: OverlapPolicy,
    /// Caps on held bytes, open groups and tracked fragments (unlimited by
    /// default).
    budget: ResourceBudget,
    /// Delivery cursor for Reorder mode (elements below are with the app).
    in_order: u64,
    /// Out-of-order staging for Reorder mode: element index → (chunk, when).
    reorder_q: HashMap<u64, (Chunk, u64)>,
    /// Open and failed groups only; delivered groups collapse into `done`.
    groups: HashMap<u64, Group>,
    /// Delivered TPDUs, keyed by start: the compact remainder of a group
    /// after its heavy state returned to `pool`.
    done: HashMap<u64, Done>,
    /// Recycled group shells (cleared trackers with warm interval slabs,
    /// cleared X-delta tables, empty staging `Vec`s with their capacity).
    /// Fed by delivery, eviction, and group reset; drained by
    /// [`Self::group_entry`] — in steady state a new TPDU opens without
    /// touching the allocator.
    pool: Vec<Group>,
    /// Verified-and-delivered TPDU starts, in delivery order.
    delivered: Vec<u64>,
    /// Contiguously verified prefix, in elements: the ack's cumulative
    /// point, advanced as TPDUs deliver.
    prefix: u64,
    /// Delivered TPDUs at or beyond `prefix` as `(start, elements)`, sorted
    /// by start, one entry per start: the next ack's SACK list. A start
    /// whose group was reset after delivery stays listed with 0 elements,
    /// as it stays in `delivered`.
    ahead: Vec<(u64, u64)>,
    closed: bool,
    /// Differential-test oracle: when set, `handle_packet` decodes through
    /// the pre-refactor owned path (`unpack`, one payload copy per chunk)
    /// instead of the zero-copy span walk. Behaviour must be identical —
    /// `tests/parallel_differential.rs` replays every scenario both ways.
    legacy_owned: bool,
    /// Accumulated statistics.
    pub stats: RxStats,
    /// Observability sink; [`chunks_obs::NullSink`] unless
    /// [`with_obs`](Self::with_obs) installed a recording one.
    obs: Arc<dyn ObsSink>,
    /// Cached `obs.enabled()`: the disabled hot path is this one branch.
    obs_on: bool,
    /// Cached `obs.enabled() && obs.verbose()`: gates the *expensive*
    /// instrumentation (observed decode with its payload copies, per-chunk
    /// events) that the always-on production sink refuses so the obs-on hot
    /// path stays allocation-free.
    obs_verbose: bool,
    /// Last virtual-clock time seen by `handle_chunk`/`handle_packet`;
    /// stamps trace events emitted from call paths without a `now`.
    last_now: u64,
    /// Pre-resolved handles for the per-chunk/per-TPDU counters, bound to
    /// the sink's shard block at [`set_obs`](Self::set_obs) so the hot path
    /// never repeats the label→cell lookup.
    hot: HotRxCounters,
}

/// The receive path's pre-resolved counter handles (see
/// [`chunks_obs::HotCounter`]): one label→cell resolution at `set_obs`,
/// plain owner-writes stores per update.
#[derive(Debug, Clone)]
struct HotRxCounters {
    chunks_accepted: HotCounter,
    tracker_accepts: HotCounter,
    data_touches: HotCounter,
    tpdus_delivered: HotCounter,
    verify_pass: HotCounter,
}

impl HotRxCounters {
    fn unresolved() -> Self {
        HotRxCounters {
            chunks_accepted: HotCounter::unresolved("transport.rx.chunks_accepted"),
            tracker_accepts: HotCounter::unresolved("vreasm.tracker.accepts"),
            data_touches: HotCounter::unresolved("transport.rx.data_touches"),
            tpdus_delivered: HotCounter::unresolved("transport.rx.tpdus_delivered"),
            verify_pass: HotCounter::unresolved("wsc.verify_pass"),
        }
    }

    fn resolve(sink: &dyn ObsSink) -> Self {
        HotRxCounters {
            chunks_accepted: sink.hot_counter("transport.rx.chunks_accepted"),
            tracker_accepts: sink.hot_counter("vreasm.tracker.accepts"),
            data_touches: sink.hot_counter("transport.rx.data_touches"),
            tpdus_delivered: sink.hot_counter("transport.rx.tpdus_delivered"),
            verify_pass: sink.hot_counter("wsc.verify_pass"),
        }
    }
}

impl Receiver {
    /// Creates a receiver for a connection, able to hold `capacity_elements`
    /// of application data.
    pub fn new(
        mode: DeliveryMode,
        params: ConnectionParams,
        layout: InvariantLayout,
        capacity_elements: u64,
    ) -> Self {
        Receiver {
            mode,
            params,
            layout,
            app: vec![0; capacity_elements as usize * params.elem_size as usize],
            claimed: Reassembly::new(OverlapPolicy::default()),
            policy: OverlapPolicy::default(),
            budget: ResourceBudget::default(),
            in_order: 0,
            reorder_q: HashMap::new(),
            groups: HashMap::new(),
            done: HashMap::new(),
            pool: Vec::new(),
            delivered: Vec::new(),
            prefix: 0,
            ahead: Vec::new(),
            closed: false,
            legacy_owned: false,
            stats: RxStats::default(),
            obs: chunks_obs::null(),
            obs_on: false,
            obs_verbose: false,
            last_now: 0,
            hot: HotRxCounters::unresolved(),
        }
    }

    /// Installs an observability sink (builder form). With the default
    /// [`chunks_obs::NullSink`] every instrumentation site reduces to one
    /// branch on a cached bool.
    pub fn with_obs(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.set_obs(sink);
        self
    }

    /// Installs an observability sink in place.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        self.obs_on = sink.enabled();
        self.obs_verbose = self.obs_on && sink.verbose();
        self.hot = HotRxCounters::resolve(&*sink);
        self.obs = sink;
    }

    /// Sets the overlap policy (builder form).
    pub fn with_policy(mut self, policy: OverlapPolicy) -> Self {
        self.set_policy(policy);
        self
    }

    /// Sets the overlap policy in place.
    pub fn set_policy(&mut self, policy: OverlapPolicy) {
        self.policy = policy;
    }

    /// The configured overlap policy.
    pub fn policy(&self) -> OverlapPolicy {
        self.policy
    }

    /// Installs a resource budget (builder form).
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.set_budget(budget);
        self
    }

    /// Installs a resource budget in place.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    /// The configured resource budget.
    pub fn budget(&self) -> &ResourceBudget {
        &self.budget
    }

    /// The delivery mode.
    pub fn mode(&self) -> DeliveryMode {
        self.mode
    }

    /// Routes `handle_packet` through the pre-refactor owned decode path
    /// (builder form). This is the differential-test oracle: identical
    /// events, stats, and delivered bytes are required of both paths.
    pub fn with_legacy_owned(mut self, on: bool) -> Self {
        self.set_legacy_owned(on);
        self
    }

    /// See [`Self::with_legacy_owned`].
    pub fn set_legacy_owned(&mut self, on: bool) {
        self.legacy_owned = on;
    }

    /// Pre-sizes every growth point on the receive path for `tpdus` more
    /// TPDUs fragmenting into at most `fragments` disjoint runs, so a
    /// steady-state window stays allocation-free (amortised `Vec`/map
    /// doubling alone cannot promise a zero-allocation *window* — an
    /// explicit reserve can). `tests/hotpath_allocs.rs` pins this.
    pub fn reserve(&mut self, tpdus: usize, fragments: usize) {
        self.groups.reserve(tpdus);
        self.done.reserve(tpdus);
        self.delivered.reserve(tpdus);
        self.ahead.reserve(tpdus);
        self.claimed.reserve(fragments);
        self.reorder_q.reserve(fragments);
        self.pool.reserve(tpdus);
    }

    /// The application address space (element `i` at `i * elem_size`).
    pub fn app_data(&self) -> &[u8] {
        &self.app
    }

    /// Contiguously verified prefix, in elements.
    pub fn verified_prefix(&self) -> u64 {
        self.prefix
    }

    /// Advances the ack state for a TPDU delivered at `start`. In order
    /// (the common case) it bumps the prefix, which then swallows any run
    /// of `ahead` it reaches; out of order it joins the sorted `ahead` run,
    /// which [`Self::reserve`] pre-sizes.
    fn note_delivered(&mut self, start: u64, elements: u64) {
        let end = start + elements;
        if start <= self.prefix && end > self.prefix {
            self.prefix = end;
            self.absorb();
        } else if start >= self.prefix {
            match self.ahead.binary_search_by_key(&start, |&(s, _)| s) {
                Ok(i) => self.ahead[i].1 = elements,
                Err(i) => self.ahead.insert(i, (start, elements)),
            }
        }
    }

    /// Moves every `ahead` entry the prefix reaches into it. Entries exactly
    /// at the final prefix (empty ones) stay: they are still SACKed.
    fn absorb(&mut self) {
        let mut reached = 0;
        for &(start, elements) in &self.ahead {
            if start > self.prefix {
                break;
            }
            self.prefix = self.prefix.max(start + elements);
            reached += 1;
        }
        let passed = self.ahead[..reached].partition_point(|&(s, _)| s < self.prefix);
        self.ahead.drain(..passed);
    }

    /// Recomputes the ack state from `delivered`: the slow path for the one
    /// change that can shrink it, resetting a delivered group.
    fn rebuild_prefix(&mut self) {
        self.prefix = 0;
        self.ahead.clear();
        for &start in &self.delivered {
            let elements = self.done.get(&start).map_or(0, |d| d.elements);
            self.ahead.push((start, elements));
        }
        self.ahead.sort_unstable();
        self.ahead.dedup_by_key(|&mut (s, _)| s);
        self.absorb();
    }

    /// True once the `C.ST` bit has been seen on verified data.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Unwraps a `C.SN` to a connection-space element index.
    fn unwrap_csn(&self, c_sn: u32) -> u64 {
        c_sn.wrapping_sub(self.params.initial_csn) as u64
    }

    /// Group-level span labels: the TPDU is identified by its start, so the
    /// `verify` and `deliver` spans key on `(C.ID, start, 0)`.
    fn group_labels(&self, start: u64) -> Labels {
        Labels::new(self.params.conn_id, start as u32, 0)
    }

    /// Chunk-level span labels, straight off the header.
    fn chunk_labels(chunk: &Chunk) -> Labels {
        Labels::new(
            chunk.header.conn.id,
            chunk.header.tpdu.sn,
            chunk.header.ext.sn,
        )
    }

    /// Fetches or creates the group at `start`. A group's first arrival —
    /// data, ED, or the failure that condemns it — opens its `verify` span;
    /// the span closes at the WSC-2 verdict (delivery or failure).
    fn group_entry(&mut self, start: u64, now: u64) -> &mut Group {
        if !self.groups.contains_key(&start) {
            if self.obs_on {
                self.obs
                    .span_open(now, SpanId::new(self.group_labels(start), Stage::Verify));
            }
            let group = match self.pool.pop() {
                Some(g) => g,
                None => Group {
                    tracker: PduTracker::new(),
                    inv: TpduInvariant::new(self.layout).expect("layout validated at framer"),
                    x_deltas: HashMap::new(),
                    ed: None,
                    held: Vec::new(),
                    failed: None,
                    reported: false,
                    elements: 0,
                    last_touch: now,
                },
            };
            self.groups.insert(start, group);
        }
        let group = self.groups.get_mut(&start).expect("just ensured");
        group.last_touch = now;
        group
    }

    /// Returns a retired group's shell to the pool: every container is
    /// cleared but keeps its capacity (the tracker's interval slab recycles
    /// its nodes), so [`Self::group_entry`] can re-arm it for the next TPDU
    /// without allocating.
    fn recycle_group(&mut self, mut g: Group) {
        g.tracker.clear();
        g.inv.reset();
        g.x_deltas.clear();
        g.held.clear();
        g.ed = None;
        g.failed = None;
        g.reported = false;
        g.elements = 0;
        self.pool.push(g);
    }

    /// Handles one arriving packet at time `now`.
    pub fn handle_packet(&mut self, packet: &Packet, now: u64) -> Vec<RxEvent> {
        let mut events = Vec::new();
        self.handle_packet_into(packet, now, &mut events);
        events
    }

    /// [`Self::handle_packet`], appending events into a caller-owned buffer
    /// — the allocation-free form the hot path uses.
    pub fn handle_packet_into(&mut self, packet: &Packet, now: u64, out: &mut Vec<RxEvent>) {
        self.last_now = now;
        self.packet_inner(packet, now, out);
    }

    /// Handles a batch of packets arriving at the same virtual time. The
    /// per-call bookkeeping — the `now` stamp, the decode-path selection,
    /// the caller's event buffer — is paid once per batch instead of once
    /// per packet, and the deferred WSC folds inside each group's
    /// `Wsc2Stream` amortise across the whole batch of absorbed chunks.
    pub fn ingest_batch(&mut self, packets: &[Packet], now: u64, out: &mut Vec<RxEvent>) {
        self.last_now = now;
        for packet in packets {
            self.packet_inner(packet, now, out);
        }
    }

    fn packet_inner(&mut self, packet: &Packet, now: u64, out: &mut Vec<RxEvent>) {
        if self.obs_verbose || self.legacy_owned {
            // Observed decode keeps per-chunk trace events in wire order
            // (verbose sinks only — it copies each payload); the
            // legacy-owned oracle keeps the pre-refactor copying decode.
            let parsed = if self.obs_verbose {
                unpack_observed(packet, now, &*self.obs)
            } else {
                unpack(packet)
            };
            match parsed {
                Ok(chunks) => {
                    for chunk in chunks {
                        self.chunk_inner(chunk, now, out);
                    }
                }
                Err(_) => {
                    self.stats.bad_packets += 1;
                    if self.obs_on {
                        self.obs.counter("transport.rx.bad_packets", 1);
                    }
                }
            }
            return;
        }
        // Zero-copy hot path: one allocation-free validation scan preserves
        // `unpack`'s whole-packet reject semantics, then each chunk decodes
        // in place with its payload borrowing the packet's `Bytes`.
        if validate(packet).is_err() {
            self.stats.bad_packets += 1;
            if self.obs_on {
                self.obs.counter("transport.rx.bad_packets", 1);
            }
            return;
        }
        for (at, _) in spans(packet) {
            let Ok((chunk, _)) = decode_chunk_at(&packet.bytes, at) else {
                debug_assert!(false, "validated packet must decode");
                continue;
            };
            self.chunk_inner(chunk, now, out);
        }
    }

    /// Handles one chunk at time `now`.
    pub fn handle_chunk(&mut self, chunk: Chunk, now: u64) -> Vec<RxEvent> {
        let mut events = Vec::new();
        self.handle_chunk_into(chunk, now, &mut events);
        events
    }

    /// [`Self::handle_chunk`], appending events into a caller-owned buffer.
    pub fn handle_chunk_into(&mut self, chunk: Chunk, now: u64, out: &mut Vec<RxEvent>) {
        self.last_now = now;
        self.chunk_inner(chunk, now, out);
    }

    fn chunk_inner(&mut self, chunk: Chunk, now: u64, out: &mut Vec<RxEvent>) {
        match chunk.header.ty {
            ChunkType::Data => self.handle_data(chunk, now, out),
            ChunkType::ErrorDetection => self.handle_ed(chunk, now, out),
            ChunkType::Signal => match Signal::from_chunk(&chunk) {
                Ok(s) => out.push(RxEvent::Signalled(s)),
                Err(_) => {
                    self.stats.bad_packets += 1;
                    if self.obs_on {
                        self.obs.counter("transport.rx.bad_packets", 1);
                    }
                }
            },
            ChunkType::Ack => match AckInfo::from_chunk(&chunk) {
                Ok(a) => out.push(RxEvent::Acked(a)),
                Err(_) => {
                    self.stats.bad_packets += 1;
                    if self.obs_on {
                        self.obs.counter("transport.rx.bad_packets", 1);
                    }
                }
            },
            ChunkType::Padding => {}
        }
    }

    fn handle_data(&mut self, chunk: Chunk, now: u64, out: &mut Vec<RxEvent>) {
        let h = chunk.header;
        // SIZE is signalled per connection; a mismatch is a corrupted SIZE
        // field (Table 1: reassembly error).
        if h.size != self.params.elem_size {
            return self.group_failure_into(
                self.unwrap_csn(h.conn.sn.wrapping_sub(h.tpdu.sn)),
                FailureReason::BadChunk,
                out,
            );
        }
        let start = self.unwrap_csn(h.conn.sn.wrapping_sub(h.tpdu.sn));
        let first = self.unwrap_csn(h.conn.sn);
        let len = h.len as u64;
        let esize = self.params.elem_size as usize;
        if (first + len) as usize * esize > self.app.len() {
            return self.group_failure_into(start, FailureReason::BadChunk, out);
        }

        // Budget admission runs before any group or invariant state mutates,
        // so a shed chunk leaves no trace in the verification state and a
        // clean retransmission can land later.
        if self.budget.is_limited() && self.admit_into(start, first, len, now, out) {
            return;
        }

        // Delivered groups have collapsed into the `done` tier; their heavy
        // state is recycled. Late copies aimed at a delivered TPDU replay the
        // legacy semantics exactly, derived from what the retired group would
        // have answered through its (fully contiguous) tracker.
        let sn = h.tpdu.sn as u64;
        if let Some(done) = self.done.get(&start) {
            let end = done.end;
            if sn >= end {
                // Data entirely past the verified stop: the legacy path went
                // offer → Inconsistent → group_failure, and the reported
                // group swallowed the verdict. Silent, no stats.
                return;
            }
            self.stats.duplicate_chunks += 1;
            if self.obs_on {
                self.obs.counter("transport.rx.duplicate_chunks", 1);
            }
            if sn + len > end && self.budget.is_limited() {
                // A tail past the verified end: the legacy recursion put the
                // extracted sub-chunk back through budget admission before
                // discovering the inconsistency, so shedding behaviour (and
                // its events) must be reproduced here.
                self.admit_into(start, first + (end - sn), len - (end - sn), now, out);
            }
            return;
        }

        let group = self.group_entry(start, now);
        let reported = group.reported;

        // Virtual reassembly within the TPDU. Already-covered positions are
        // resolved *before* the invariant absorbs anything (§3.3). A
        // retransmission cut at different points duplicates received data
        // with *identical* bytes — the benign case of Appendix C, silently
        // trimmed. Overlapping positions whose bytes *differ* are a genuine
        // conflict the overlap policy must resolve; whatever it picks, the
        // WSC-2 invariant (not the policy) remains the integrity authority
        // at delivery time. Fresh sub-spans are extracted and processed,
        // because chunks stay chunks under splitting.
        //
        // The gate is the allocation-free `overlap`; the `uncovered` Vec is
        // built only on this (cold) duplicate path. `len == 0` keeps the
        // legacy outcome for degenerate empty chunks, whose uncovered set
        // `[]` never equalled the full span.
        if len == 0 || group.tracker.overlap(sn, len) > 0 {
            let uncovered = group.tracker.uncovered(sn, len);
            self.stats.duplicate_chunks += 1;
            if self.obs_on {
                self.obs.counter("transport.rx.duplicate_chunks", 1);
            }
            // Complement of the uncovered runs: the overlapped positions.
            let mut overlaps: Vec<(u64, u64)> = Vec::new();
            let mut cursor = sn;
            for &(lo, hi) in &uncovered {
                if lo > cursor {
                    overlaps.push((cursor, lo));
                }
                cursor = hi;
            }
            if cursor < sn + len {
                overlaps.push((cursor, sn + len));
            }
            // A delivered (or condemned) group keeps its bytes no matter
            // the policy: its verdict is already out.
            if !reported && self.resolve_overlaps_into(&chunk, start, &overlaps, now, out) {
                return;
            }
            for (lo, hi) in uncovered {
                let offset = (lo - sn) as u32;
                let sublen = (hi - lo) as u32;
                match chunks_core::frag::extract(&chunk, offset, sublen) {
                    Ok(piece) => self.handle_data(piece, now, out),
                    Err(_) => self.group_failure_into(start, FailureReason::BadChunk, out),
                }
            }
            return;
        }
        let group = self.groups.get_mut(&start).expect("present");
        match group.tracker.offer(sn, len, h.tpdu.st) {
            TrackEvent::Duplicate => {
                self.stats.duplicate_chunks += 1;
                if self.obs_on {
                    self.obs.counter("transport.rx.duplicate_chunks", 1);
                }
                return;
            }
            TrackEvent::Inconsistent => {
                return self.group_failure_into(start, FailureReason::ReassemblyError, out);
            }
            TrackEvent::Accepted => {}
        }

        // Cross-group collision: these elements already belong to another
        // TPDU's data — a corrupted C.SN moved this chunk (Table 1:
        // consistency check). The overlap policy does not soften this
        // channel: the colliding *identity* is itself the corruption, so
        // every policy condemns; the diagnostic names the owning group and
        // the exact contested byte range instead of discarding silently.
        // The clean (overwhelmingly common) case is decided by the
        // allocation-free `overlap` probe; only a contested span pays for
        // the conflict-describing `Claim`.
        if self.claimed.overlap(first, first + len) > 0 {
            let probe = self.claimed.probe(first, first + len);
            if !probe.is_clean() {
                self.stats.overlap_conflicts += probe.conflicts.len() as u64;
                if self.obs_on {
                    self.obs.counter(
                        "transport.rx.overlap_conflicts",
                        probe.conflicts.len() as u64,
                    );
                    for c in &probe.conflicts {
                        self.obs.event(
                            now,
                            Event::OverlapConflict {
                                labels: Self::chunk_labels(&chunk),
                                policy: self.policy.as_str(),
                                start: (c.start * esize as u64) as u32,
                                bytes: (c.len() * esize as u64) as u32,
                                owner: c.tag as u32,
                            },
                        );
                    }
                }
                return self.group_failure_into(start, FailureReason::Consistency, out);
            }
            self.claimed.claim(first, first + len, start);
        } else {
            self.claimed.claim_uncontested(first, first + len, start);
        }

        let group = self.groups.get_mut(&start).expect("just inserted");
        // X-level consistency: C.SN − X.SN constant per external PDU.
        let x_delta = h.conn.sn.wrapping_sub(h.ext.sn);
        match group.x_deltas.get(&h.ext.id) {
            Some(&d) if d != x_delta => {
                return self.group_failure_into(start, FailureReason::Consistency, out);
            }
            Some(_) => {}
            None => {
                group.x_deltas.insert(h.ext.id, x_delta);
            }
        }

        // Incremental end-to-end error detection.
        if let Err(e) = group.inv.absorb_chunk(&h, &chunk.payload) {
            let reason = match e {
                chunks_wsc::InvariantError::IdMismatch => FailureReason::EdMismatch,
                _ => FailureReason::BadChunk,
            };
            return self.group_failure_into(start, reason, out);
        }
        group.elements += len;
        self.stats.chunks_accepted += 1;
        if self.obs_on {
            self.hot.chunks_accepted.add(&*self.obs, 1);
            self.hot.tracker_accepts.add(&*self.obs, 1);
            // Tracker occupancy is a per-chunk histogram — diagnostics
            // detail, not a health signal, so it rides the verbose tier
            // (the always-on surface reads fragment state at barriers).
            if self.obs_verbose {
                self.obs
                    .observe("vreasm.tracker.fragments", group.tracker.fragments() as u64);
            }
        }
        if h.conn.st {
            self.closed = true;
        }

        // Mode-specific data movement.
        match self.mode {
            DeliveryMode::Immediate => {
                self.place(first, &chunk.payload);
            }
            DeliveryMode::Reorder => {
                if first == self.in_order {
                    self.place(first, &chunk.payload);
                    self.in_order = first + len;
                    self.drain_reorder_queue(now);
                } else {
                    self.stage(chunk.payload.len() as u64);
                    self.stats.data_touches += chunk.payload.len() as u64;
                    if self.obs_on {
                        self.obs
                            .span_open(now, SpanId::new(Self::chunk_labels(&chunk), Stage::Hold));
                    }
                    self.reorder_q.insert(first, (chunk.clone(), now));
                }
            }
            DeliveryMode::Reassemble => {
                self.stage(chunk.payload.len() as u64);
                self.stats.data_touches += chunk.payload.len() as u64;
                if self.obs_on {
                    self.obs
                        .span_open(now, SpanId::new(Self::chunk_labels(&chunk), Stage::Hold));
                }
                let group = self.groups.get_mut(&start).expect("present");
                group.held.push((chunk.clone(), now));
            }
        }
        if self.obs_on && self.budget.is_limited() {
            self.obs
                .observe("transport.budget.held_bytes", self.stats.buffered_bytes);
        }

        self.try_complete_into(start, now, out)
    }

    /// Budget admission for an arriving data chunk: evict idle groups to
    /// make room, and shed the chunk (typed, counted, traced) when nothing
    /// is evictable. Returns `true` when the chunk was shed (the shed event
    /// has been appended to `out`).
    fn admit_into(
        &mut self,
        start: u64,
        first: u64,
        len: u64,
        now: u64,
        out: &mut Vec<RxEvent>,
    ) -> bool {
        let bytes = len * self.params.elem_size as u64;
        if !self.groups.contains_key(&start) && !self.done.contains_key(&start) {
            while self.open_groups() >= self.budget.max_open_groups {
                if !self.evict_idle(start, "groups", now) {
                    self.shed_into(start, bytes, out);
                    return true;
                }
            }
        }
        // Interval-table occupancy: the hardware analogue caps tracked runs.
        while self.claimed.fragments() >= self.budget.max_fragments {
            if !self.evict_idle(start, "fragments", now) {
                self.shed_into(start, bytes, out);
                return true;
            }
        }
        // Byte caps bind only when this arrival would actually stage.
        let will_stage = match self.mode {
            DeliveryMode::Immediate => false,
            DeliveryMode::Reorder => first != self.in_order,
            DeliveryMode::Reassemble => true,
        };
        if will_stage {
            while self.budget.bytes_exceeded(self.stats.buffered_bytes, bytes) {
                if !self.evict_idle(start, "bytes", now) {
                    self.shed_into(start, bytes, out);
                    return true;
                }
            }
        }
        false
    }

    /// Groups that have arrived but reached no verdict yet.
    fn open_groups(&self) -> usize {
        self.groups.values().filter(|g| !g.reported).count()
    }

    /// Evicts the least-recently-touched idle group — unreported,
    /// incomplete, and not the group the arriving chunk needs (`keep`).
    /// LRU by virtual clock, start as the deterministic tie-break. Its
    /// `verify` span stays open: an eviction is a verdictless drop, and the
    /// trace shows it as one. Returns false when nothing is evictable.
    fn evict_idle(&mut self, keep: u64, cause: &'static str, now: u64) -> bool {
        let victim = self
            .groups
            .iter()
            .filter(|(&s, g)| {
                s != keep && !g.reported && !(g.tracker.is_complete() && g.ed.is_some())
            })
            .min_by_key(|(&s, g)| (g.last_touch, s))
            .map(|(&s, _)| s);
        let Some(s) = victim else {
            return false;
        };
        let g = self.groups.remove(&s).expect("chosen from the map");
        let span = g.elements.max(g.tracker.covered());
        self.claimed.release(s);
        let mut freed: u64 = g.held.iter().map(|(c, _)| c.payload.len() as u64).sum();
        // Reorder-mode staging is keyed by element, not by group; free any
        // staged chunks inside the evicted span too.
        let keys: Vec<u64> = self
            .reorder_q
            .keys()
            .copied()
            .filter(|&f| f >= s && f < s + span)
            .collect();
        for k in keys {
            if let Some((chunk, _)) = self.reorder_q.remove(&k) {
                freed += chunk.payload.len() as u64;
            }
        }
        self.unstage(freed);
        self.stats.evictions += 1;
        if self.obs_on {
            self.obs.counter("transport.budget.evictions", 1);
            self.obs.event(
                now,
                Event::GroupEvicted {
                    conn_id: self.params.conn_id,
                    start: s as u32,
                    bytes: freed as u32,
                    cause,
                },
            );
        }
        self.recycle_group(g);
        true
    }

    /// Drops an arriving chunk under exhausted budget.
    fn shed_into(&mut self, start: u64, bytes: u64, out: &mut Vec<RxEvent>) {
        self.stats.shed_bytes += bytes;
        if self.obs_on {
            self.obs.counter("transport.budget.shed_bytes", bytes);
            self.obs
                .degraded(self.last_now, "budget-exhausted", self.params.conn_id);
        }
        out.push(RxEvent::ChunkShed { start, bytes });
    }

    /// Resolves differing-byte overlaps between an arriving chunk and data
    /// the group already holds, per the configured policy. `overlaps` is in
    /// `T.SN` space. Returns `true` when the policy condemns the group
    /// ([`OverlapPolicy::Reject`]); the failure events are appended to
    /// `out`.
    fn resolve_overlaps_into(
        &mut self,
        chunk: &Chunk,
        start: u64,
        overlaps: &[(u64, u64)],
        now: u64,
        out: &mut Vec<RxEvent>,
    ) -> bool {
        let esize = self.params.elem_size as usize;
        let sn = chunk.header.tpdu.sn as u64;
        let mut condemn = false;
        for &(lo, hi) in overlaps {
            let new = &chunk.payload[(lo - sn) as usize * esize..(hi - sn) as usize * esize];
            let old = self.held_bytes(start, start + lo, start + hi);
            let differs = match &old {
                Some(o) => o.as_slice() != new,
                None => true,
            };
            if !differs {
                continue; // benign retransmission cut (Appendix C)
            }
            self.stats.overlap_conflicts += 1;
            if self.obs_on {
                self.obs.counter("transport.rx.overlap_conflicts", 1);
                self.obs.event(
                    now,
                    Event::OverlapConflict {
                        labels: Self::chunk_labels(chunk),
                        policy: self.policy.as_str(),
                        start: ((start + lo) * esize as u64) as u32,
                        bytes: ((hi - lo) * esize as u64) as u32,
                        owner: start as u32,
                    },
                );
            }
            match self.policy.resolve(true) {
                Resolution::Fail => condemn = true,
                Resolution::Duplicate | Resolution::KeepHeld => {}
                Resolution::Overwrite => match old {
                    Some(o) => self.overwrite_held(start, start + lo, start + hi, &o, new),
                    // Bytes we cannot read back we cannot patch out of the
                    // invariant either — condemn rather than corrupt it.
                    None => condemn = true,
                },
            }
        }
        if condemn {
            self.group_failure_into(start, FailureReason::OverlapConflict, out);
        }
        condemn
    }

    /// Best-effort read-back of the bytes currently held for elements
    /// `[lo, hi)` (connection space) of the group at `start`. Returns
    /// `None` when any element cannot be located — the caller treats that
    /// as a conflict.
    fn held_bytes(&self, start: u64, lo: u64, hi: u64) -> Option<Vec<u8>> {
        let esize = self.params.elem_size as usize;
        let mut out = vec![0u8; (hi - lo) as usize * esize];
        let mut have = chunks_vreasm::IntervalSet::new();
        let overlay =
            |out: &mut Vec<u8>, have: &mut chunks_vreasm::IntervalSet, f: u64, payload: &[u8]| {
                let clen = payload.len() as u64 / esize as u64;
                let (s, e) = (f.max(lo), (f + clen).min(hi));
                if s < e {
                    out[(s - lo) as usize * esize..(e - lo) as usize * esize].copy_from_slice(
                        &payload[(s - f) as usize * esize..(e - f) as usize * esize],
                    );
                    have.insert(s, e);
                }
            };
        match self.mode {
            DeliveryMode::Immediate => {
                out.copy_from_slice(&self.app[lo as usize * esize..hi as usize * esize]);
                have.insert(lo, hi);
            }
            DeliveryMode::Reorder => {
                if lo < self.in_order {
                    let e = hi.min(self.in_order);
                    out[..(e - lo) as usize * esize]
                        .copy_from_slice(&self.app[lo as usize * esize..e as usize * esize]);
                    have.insert(lo, e);
                }
                for (&f, (c, _)) in &self.reorder_q {
                    overlay(&mut out, &mut have, f, &c.payload);
                }
            }
            DeliveryMode::Reassemble => {
                let g = self.groups.get(&start)?;
                for (c, _) in &g.held {
                    let f = self.unwrap_csn(c.header.conn.sn);
                    overlay(&mut out, &mut have, f, &c.payload);
                }
            }
        }
        (have.covered() == hi - lo).then_some(out)
    }

    /// [`OverlapPolicy::LastWins`]: substitutes `new` for the held bytes at
    /// elements `[lo, hi)` (connection space) and patches the group
    /// invariant in place — WSC-2 is linear over GF(2), so absorbing the
    /// XOR delta at the same positions swaps the data without recomputing
    /// anything. The code keeps describing exactly the bytes held, and the
    /// ED comparison at completion stays the integrity authority.
    fn overwrite_held(&mut self, start: u64, lo: u64, hi: u64, old: &[u8], new: &[u8]) {
        let esize = self.params.elem_size as usize;
        if let Some(g) = self.groups.get_mut(&start) {
            g.inv
                .patch_elements(self.params.elem_size, lo - start, old, new);
        }
        match self.mode {
            DeliveryMode::Immediate => self.place(lo, new),
            DeliveryMode::Reorder => {
                let e = hi.min(self.in_order.max(lo));
                if lo < e {
                    self.place(lo, &new[..(e - lo) as usize * esize]);
                }
                let mut touched = 0;
                for (&f, (c, _)) in self.reorder_q.iter_mut() {
                    touched += overlay_into_chunk(c, f, lo, hi, new, esize);
                }
                self.count_rewrite(touched);
            }
            DeliveryMode::Reassemble => {
                let initial = self.params.initial_csn;
                let mut touched = 0;
                if let Some(g) = self.groups.get_mut(&start) {
                    for (c, _) in g.held.iter_mut() {
                        let f = c.header.conn.sn.wrapping_sub(initial) as u64;
                        touched += overlay_into_chunk(c, f, lo, hi, new, esize);
                    }
                }
                self.count_rewrite(touched);
            }
        }
    }

    /// Counts an in-place rewrite of staged bytes as data touches.
    fn count_rewrite(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.stats.data_touches += bytes;
        if self.obs_on {
            self.obs.counter("transport.rx.data_touches", bytes);
        }
    }

    fn handle_ed(&mut self, chunk: Chunk, now: u64, out: &mut Vec<RxEvent>) {
        if chunk.payload.len() != 8 {
            self.stats.bad_packets += 1;
            if self.obs_on {
                self.obs.counter("transport.rx.bad_packets", 1);
            }
            return;
        }
        let start = self.unwrap_csn(chunk.header.conn.sn);
        // A delivered group's verdict is out: the legacy path overwrote the
        // dead `ed` field and `try_complete` returned nothing. Silent.
        if self.done.contains_key(&start) {
            return;
        }
        // An ED chunk opens a group too; a flood of them is budgeted the
        // same way a data flood is.
        if self.budget.is_limited() && !self.groups.contains_key(&start) {
            while self.open_groups() >= self.budget.max_open_groups {
                if !self.evict_idle(start, "groups", now) {
                    return self.shed_into(start, chunk.payload.len() as u64, out);
                }
            }
        }
        let mut digest = [0u8; 8];
        digest.copy_from_slice(&chunk.payload);
        let group = self.group_entry(start, now);
        group.ed = Some(digest);
        self.try_complete_into(start, now, out)
    }

    /// Writes payload bytes into the application space (one data touch per
    /// byte).
    fn place(&mut self, first_element: u64, payload: &[u8]) {
        let esize = self.params.elem_size as usize;
        let at = first_element as usize * esize;
        self.app[at..at + payload.len()].copy_from_slice(payload);
        self.stats.data_touches += payload.len() as u64;
        if self.obs_on {
            self.hot.data_touches.add(&*self.obs, payload.len() as u64);
        }
    }

    fn stage(&mut self, bytes: u64) {
        self.stats.buffered_bytes += bytes;
        self.stats.peak_buffered_bytes = self
            .stats
            .peak_buffered_bytes
            .max(self.stats.buffered_bytes);
        if let Some(g) = &self.budget.global {
            g.add(bytes);
        }
        if self.obs_on {
            self.obs
                .observe("transport.rx.buffered_bytes", self.stats.buffered_bytes);
            // Staged bytes are a touch too (they reach a buffer before the
            // application); mirror the stat the callers accumulate.
            self.hot.data_touches.add(&*self.obs, bytes);
        }
    }

    fn unstage(&mut self, bytes: u64) {
        self.stats.buffered_bytes = self.stats.buffered_bytes.saturating_sub(bytes);
        if let Some(g) = &self.budget.global {
            g.sub(bytes);
        }
    }

    fn drain_reorder_queue(&mut self, now: u64) {
        while let Some((chunk, arrived)) = self.reorder_q.remove(&self.in_order) {
            let len = chunk.header.len as u64;
            self.unstage(chunk.payload.len() as u64);
            let waited = now.saturating_sub(arrived);
            self.stats.holding_delay += waited;
            if self.obs_on {
                self.obs.counter("transport.rx.holding_delay_ns", waited);
                self.obs
                    .span_close(now, SpanId::new(Self::chunk_labels(&chunk), Stage::Hold));
            }
            self.place(self.in_order, &chunk.payload);
            self.in_order += len;
        }
    }

    /// Marks a group failed and reports it (once).
    fn group_failure_into(&mut self, start: u64, reason: FailureReason, out: &mut Vec<RxEvent>) {
        // A delivered group's verdict is final: the legacy path found the
        // still-present group with `reported` set and returned silently.
        // Without this guard a fresh group would be conjured and a spurious
        // failure reported for an already-verified TPDU.
        if self.done.contains_key(&start) {
            return;
        }
        let now = self.last_now;
        let group = self.group_entry(start, now);
        if group.reported {
            return;
        }
        group.failed = Some(reason);
        group.reported = true;
        self.stats.tpdus_failed += 1;
        if self.obs_on {
            self.obs.counter("transport.rx.tpdus_failed", 1);
            self.obs.event(
                now,
                Event::ChunkRejected {
                    labels: Labels::new(self.params.conn_id, start as u32, 0),
                    reason: reason.as_str(),
                },
            );
            // The verdict — even a condemning one — ends the verify span.
            self.obs
                .span_close(now, SpanId::new(self.group_labels(start), Stage::Verify));
        }
        out.push(RxEvent::TpduFailed { start, reason });
    }

    /// Checks whether the group at `start` is complete and verifiable.
    /// On delivery the group's heavy state is recycled into the pool and a
    /// compact [`Done`] record takes its place.
    fn try_complete_into(&mut self, start: u64, now: u64, out: &mut Vec<RxEvent>) {
        let Some(group) = self.groups.get_mut(&start) else {
            return;
        };
        if group.reported || group.failed.is_some() {
            return;
        }
        let (Some(digest), true) = (group.ed, group.tracker.is_complete()) else {
            return;
        };
        if !group.inv.matches(digest) {
            // Discard staged data; the retransmission will replace it.
            // Summing first and clearing in place keeps the held Vec's
            // capacity for the retransmission (the arithmetic is identical
            // to per-chunk unstaging: unstage is a plain subtraction).
            let freed: u64 = group.held.iter().map(|(c, _)| c.payload.len() as u64).sum();
            group.held.clear();
            self.unstage(freed);
            if self.obs_on {
                self.obs.counter("wsc.verify_fail", 1);
                self.obs
                    .degraded(now, "verify-failure", self.params.conn_id);
            }
            return self.group_failure_into(start, FailureReason::EdMismatch, out);
        }
        let mut group = self.groups.remove(&start).expect("present");
        let elements = group.elements;
        if self.obs_on {
            self.hot.verify_pass.add(&*self.obs, 1);
            self.obs
                .observe("wsc.runs_per_tpdu", group.inv.absorbed_runs());
        }
        // Reassemble mode releases the staged chunks to the app now.
        // `drain` preserves arrival order (the obs span-close order the
        // lineage trace pins) and keeps the Vec's capacity for the pool.
        for (chunk, arrived) in group.held.drain(..) {
            let first = self.unwrap_csn(chunk.header.conn.sn);
            self.unstage(chunk.payload.len() as u64);
            let waited = now.saturating_sub(arrived);
            self.stats.holding_delay += waited;
            if self.obs_on {
                self.obs.counter("transport.rx.holding_delay_ns", waited);
                self.obs
                    .span_close(now, SpanId::new(Self::chunk_labels(&chunk), Stage::Hold));
            }
            self.place(first, &chunk.payload);
        }
        self.delivered.push(start);
        self.stats.tpdus_delivered += 1;
        if self.obs_on {
            self.hot.tpdus_delivered.add(&*self.obs, 1);
            // A delivery is the routine case — one per TPDU at line rate.
            // The verbose trace wants each one; the always-on flight ring
            // records anomalies, and flooding it with deliveries would both
            // evict the history a postmortem needs and put a mutex on the
            // per-TPDU path.
            if self.obs_verbose {
                self.obs.event(
                    now,
                    Event::GroupDelivered {
                        conn_id: self.params.conn_id,
                        start: start as u32,
                        bytes: (elements * self.params.elem_size as u64) as u32,
                    },
                );
            }
            // Verdict reached: the verify span closes, and delivery is
            // marked with a zero-duration `deliver` span.
            let labels = self.group_labels(start);
            self.obs.span_close(now, SpanId::new(labels, Stage::Verify));
            let deliver = SpanId::new(labels, Stage::Deliver);
            self.obs.span_open(now, deliver);
            self.obs.span_close(now, deliver);
        }
        let end = group
            .tracker
            .known_end()
            .expect("complete group knows its end");
        let earlier = self.done.insert(
            start,
            Done {
                elements,
                end,
                code: group.inv.code(),
                digest: group.inv.digest(),
            },
        );
        debug_assert!(earlier.is_none(), "a delivered group never reopens");
        self.note_delivered(start, elements);
        self.recycle_group(group);
        out.push(RxEvent::TpduDelivered { start, elements });
        if self.closed {
            out.push(RxEvent::ConnectionClosed);
        }
    }

    /// Expires every incomplete group (fragment timeout at end of run),
    /// reporting each as a reassembly error.
    pub fn expire_incomplete(&mut self) -> Vec<RxEvent> {
        let starts: Vec<u64> = self
            .groups
            .iter()
            .filter(|(_, g)| !g.reported)
            .map(|(&s, _)| s)
            .collect();
        let mut events = Vec::new();
        for s in starts {
            self.group_failure_into(s, FailureReason::ReassemblyError, &mut events);
        }
        events
    }

    /// Builds the current acknowledgment, including the precise missing
    /// element ranges so the sender can retransmit sub-chunks only.
    ///
    /// Costs O(TPDUs delivered out of order + open groups), however long
    /// the stream: the cumulative point and the SACK list are kept as
    /// TPDUs deliver.
    pub fn make_ack(&self) -> AckInfo {
        let sacks: Vec<u64> = self.ahead.iter().map(|&(s, _)| s).collect();
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        let mut need_ed: Vec<u64> = Vec::new();
        for (&start, g) in &self.groups {
            if g.reported && g.failed.is_none() {
                continue; // delivered
            }
            if g.failed.is_some() {
                // Verification failed: the whole TPDU must come again.
                let span = g.elements.max(g.tracker.covered());
                gaps.push((start, start + span.max(1)));
            } else {
                for (lo, hi) in g.tracker.missing() {
                    gaps.push((start + lo, start + hi));
                }
                if g.tracker.is_complete() && g.ed.is_none() {
                    need_ed.push(start);
                }
            }
        }
        gaps.sort_unstable();
        need_ed.sort_unstable();
        AckInfo {
            cumulative: self.prefix,
            sacks,
            gaps,
            need_ed,
            pressure: self.under_pressure(),
        }
    }

    /// True when occupancy stands at or above 3/4 of any configured cap —
    /// the back-pressure signal [`make_ack`](Self::make_ack) forwards so
    /// the sender defers repairs instead of livelocking retransmissions
    /// into a buffer that will shed them.
    pub fn under_pressure(&self) -> bool {
        if !self.budget.is_limited() {
            return false;
        }
        let hot = |held: u64, cap: u64| cap != u64::MAX && held >= cap - cap / 4;
        let b = &self.budget;
        hot(self.stats.buffered_bytes, b.max_held_bytes)
            || (b.max_open_groups != usize::MAX
                && self.open_groups() >= b.max_open_groups - b.max_open_groups / 4)
            || (b.max_fragments != usize::MAX
                && self.claimed.fragments() >= b.max_fragments - b.max_fragments / 4)
            || b.global
                .as_ref()
                .is_some_and(|g| hot(g.held_bytes(), g.cap_bytes()))
    }

    /// The typed budget-exhaustion error, once any bytes have been shed.
    pub fn budget_error(&self) -> Option<TransportError> {
        (self.stats.shed_bytes > 0).then_some(TransportError::BudgetExhausted {
            conn_id: self.params.conn_id,
            shed_bytes: self.stats.shed_bytes,
            evictions: self.stats.evictions,
            held_bytes: self.stats.buffered_bytes,
        })
    }

    /// Starts of groups that failed verification and need retransmission.
    pub fn failed_starts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .groups
            .iter()
            .filter(|(_, g)| g.failed.is_some())
            .map(|(&s, _)| s)
            .collect();
        v.sort_unstable();
        v
    }

    /// Clears the state of a failed or incomplete group so a retransmission
    /// (with identical identifiers, §3.3) can be verified afresh.
    pub fn reset_group(&mut self, start: u64) {
        if let Some(g) = self.groups.remove(&start) {
            // Release exactly this group's claims so retransmitted data may
            // land (tagged claims free without arithmetic on the span).
            self.claimed.release(start);
            let freed: u64 = g.held.iter().map(|(c, _)| c.payload.len() as u64).sum();
            self.unstage(freed);
            self.recycle_group(g);
        } else if self.done.remove(&start).is_some() {
            // A delivered group: its heavy state is long recycled; drop the
            // verdict record and free the claims, as the legacy removal did.
            self.claimed.release(start);
            self.rebuild_prefix();
        }
    }

    /// Quiesces the receiver into a reusable shell: every staged byte is
    /// released (per-connection and global budget), every open group is
    /// recycled into the pool, and all per-connection progress (claims,
    /// delivery records, statistics, close bit) is cleared — while every
    /// container keeps its capacity. A quiesced shell re-arms for a new
    /// connection via [`Self::rearm`] without touching the allocator; the
    /// connection table's admission pool is built on exactly this.
    pub fn quiesce(&mut self) {
        // One arithmetic release covers everything staged — reorder-queue
        // chunks and held group chunks both flowed through `stage`.
        let staged = self.stats.buffered_bytes;
        self.unstage(staged);
        while let Some(&start) = self.groups.keys().next() {
            let g = self.groups.remove(&start).expect("key just observed");
            self.recycle_group(g);
        }
        self.reorder_q.clear();
        self.done.clear();
        self.delivered.clear();
        self.prefix = 0;
        self.ahead.clear();
        self.claimed.clear();
        self.in_order = 0;
        self.closed = false;
        self.stats = RxStats::default();
        self.last_now = 0;
        self.app.fill(0);
    }

    /// Re-arms a quiesced shell for a new connection: [`Self::quiesce`]
    /// then swap in the new parameters. The shell keeps its delivery mode,
    /// invariant layout, application-space capacity, overlap policy, budget
    /// and observability sink — re-arming is for homogeneous workloads
    /// (same element size); callers with per-connection policy or budget
    /// apply them after re-arm (`set_policy` / `set_budget`, neither
    /// allocates).
    pub fn rearm(&mut self, params: ConnectionParams) {
        debug_assert_eq!(
            params.elem_size, self.params.elem_size,
            "re-arm keeps the application space; the element size must match"
        );
        self.quiesce();
        self.params = params;
    }

    /// The connection parameters.
    pub fn params(&self) -> &ConnectionParams {
        &self.params
    }

    /// The verified WSC-2 code of a delivered TPDU, or `None` if the group
    /// at `start` was never delivered (missing, failed, or still pending).
    ///
    /// Delivered groups keep their verified code in the `done` tier, so the
    /// code a parallel worker folds into its delivery transcript is exactly
    /// the one the ED comparison accepted.
    pub fn delivered_code(&self, start: u64) -> Option<chunks_wsc::Wsc2> {
        self.done.get(&start).map(|d| d.code)
    }

    /// `(start, digest)` for every delivered TPDU, sorted by start — the
    /// per-connection verification transcript the differential harness
    /// compares across pipelines.
    pub fn delivered_digests(&self) -> Vec<(u64, [u8; 8])> {
        let mut v: Vec<(u64, [u8; 8])> = self.done.iter().map(|(&s, d)| (s, d.digest)).collect();
        v.sort_unstable();
        v
    }

    /// Starts of delivered TPDUs, in delivery order.
    pub fn delivered_starts(&self) -> &[u64] {
        &self.delivered
    }
}

/// Copies the intersection of `[lo, hi)` (connection-space elements) with
/// a staged chunk's span out of `new` into the chunk's payload; returns the
/// bytes rewritten. `first` is the chunk's first connection-space element.
fn overlay_into_chunk(
    c: &mut Chunk,
    first: u64,
    lo: u64,
    hi: u64,
    new: &[u8],
    esize: usize,
) -> u64 {
    let clen = c.header.len as u64;
    let (s, e) = (first.max(lo), (first + clen).min(hi));
    if s >= e {
        return 0;
    }
    // Must own: the staged payload is (in the zero-copy path) a slice of a
    // shared packet buffer; rewriting bytes in place would corrupt every
    // other view of that buffer. Overlap overwrite is the one receive-side
    // operation that mutates payload bytes, so it pays for a private copy —
    // and only on the chunks it actually rewrites.
    let mut raw = c.payload.to_vec();
    raw[(s - first) as usize * esize..(e - first) as usize * esize]
        .copy_from_slice(&new[(s - lo) as usize * esize..(e - lo) as usize * esize]);
    c.payload = raw.into();
    (e - s) * esize as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Framer;
    use chunks_core::frag::split;
    use chunks_core::packet::pack;

    fn params() -> ConnectionParams {
        ConnectionParams {
            conn_id: 0xA,
            elem_size: 1,
            initial_csn: 100,
            tpdu_elements: 8,
        }
    }

    fn layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(4096)
    }

    fn rx(mode: DeliveryMode) -> Receiver {
        Receiver::new(mode, params(), layout(), 1 << 16)
    }

    fn framed(data: &[u8]) -> Vec<crate::frame::Tpdu> {
        Framer::new(params(), layout()).frame_simple(data, 0xF, false)
    }

    #[test]
    fn in_order_delivery_immediate() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh12345678");
        let mut delivered = 0;
        for t in &tpdus {
            for c in t.all_chunks() {
                for e in r.handle_chunk(c, 0) {
                    if matches!(e, RxEvent::TpduDelivered { .. }) {
                        delivered += 1;
                    }
                }
            }
        }
        assert_eq!(delivered, 2);
        assert_eq!(&r.app_data()[..16], b"abcdefgh12345678");
        // Immediate mode: exactly one touch per payload byte.
        assert_eq!(r.stats.data_touches, 16);
        assert_eq!(r.stats.peak_buffered_bytes, 0);
        assert_eq!(r.verified_prefix(), 16);
    }

    #[test]
    fn disordered_fragmented_delivery_immediate() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        // Fragment the single data chunk and deliver the pieces backwards,
        // ED chunk first.
        let t = &tpdus[0];
        let (a, rest) = split(&t.chunks[0], 3).unwrap();
        let (b, c) = split(&rest, 2).unwrap();
        let mut events = Vec::new();
        for chunk in [t.ed.clone(), c, b, a] {
            events.extend(r.handle_chunk(chunk, 0));
        }
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduDelivered {
                start: 0,
                elements: 8
            }
        )));
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
        assert_eq!(r.stats.data_touches, 8, "still one touch per byte");
    }

    #[test]
    fn reassemble_mode_touches_twice() {
        let mut r = rx(DeliveryMode::Reassemble);
        let tpdus = framed(b"abcdefgh");
        for c in tpdus[0].all_chunks() {
            r.handle_chunk(c, 0);
        }
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
        assert_eq!(r.stats.data_touches, 16, "buffer write + final copy");
        assert_eq!(r.stats.peak_buffered_bytes, 8);
        assert_eq!(r.stats.buffered_bytes, 0, "released on verification");
    }

    #[test]
    fn reorder_mode_in_order_is_single_touch() {
        let mut r = rx(DeliveryMode::Reorder);
        let tpdus = framed(b"abcdefgh");
        for c in tpdus[0].all_chunks() {
            r.handle_chunk(c, 0);
        }
        assert_eq!(r.stats.data_touches, 8);
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
    }

    #[test]
    fn reorder_mode_buffers_out_of_order() {
        let mut r = rx(DeliveryMode::Reorder);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let (a, b) = split(&t.chunks[0], 4).unwrap();
        r.handle_chunk(b, 10); // out of order: staged
        assert_eq!(r.stats.buffered_bytes, 4);
        r.handle_chunk(a, 20); // fills the gap, drains the queue
        r.handle_chunk(t.ed.clone(), 30);
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
        assert_eq!(r.stats.buffered_bytes, 0);
        assert_eq!(r.stats.data_touches, 8 + 4, "staged bytes touched twice");
        assert_eq!(r.stats.holding_delay, 10, "tail waited 20 - 10");
    }

    #[test]
    fn payload_corruption_rejected_by_ed() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let mut bad = t.chunks[0].clone();
        let mut raw = bad.payload.to_vec();
        raw[2] ^= 0x10;
        bad.payload = raw.into();
        let mut events = r.handle_chunk(bad, 0);
        events.extend(r.handle_chunk(t.ed.clone(), 0));
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::EdMismatch,
                ..
            }
        )));
    }

    #[test]
    fn duplicate_chunks_rejected_before_checksum() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let mut events = r.handle_chunk(t.chunks[0].clone(), 0);
        events.extend(r.handle_chunk(t.chunks[0].clone(), 0));
        events.extend(r.handle_chunk(t.ed.clone(), 0));
        assert_eq!(r.stats.duplicate_chunks, 1);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RxEvent::TpduDelivered { .. })),
            "duplicate must not corrupt the incremental checksum"
        );
    }

    #[test]
    fn retransmission_after_failure_succeeds() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let mut bad = t.chunks[0].clone();
        let mut raw = bad.payload.to_vec();
        raw[0] ^= 1;
        bad.payload = raw.into();
        r.handle_chunk(bad, 0);
        r.handle_chunk(t.ed.clone(), 0);
        assert_eq!(r.failed_starts(), vec![0]);
        // Retransmit with identical identifiers after resetting the group.
        r.reset_group(0);
        let mut events = Vec::new();
        for c in t.all_chunks() {
            events.extend(r.handle_chunk(c, 1));
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::TpduDelivered { .. })));
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
    }

    #[test]
    fn packets_roundtrip_through_receiver() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh12345678");
        let chunks: Vec<Chunk> = tpdus.iter().flat_map(|t| t.all_chunks()).collect();
        let packets = pack(chunks, 64).unwrap();
        let mut delivered = 0;
        for p in &packets {
            for e in r.handle_packet(p, 0) {
                if matches!(e, RxEvent::TpduDelivered { .. }) {
                    delivered += 1;
                }
            }
        }
        assert_eq!(delivered, 2);
        assert_eq!(&r.app_data()[..16], b"abcdefgh12345678");
    }

    #[test]
    fn ack_reflects_verified_prefix_and_sacks() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(&[7u8; 24]); // three TPDUs of 8
                                        // Deliver TPDU 0 and TPDU 2, skip TPDU 1.
        for t in [&tpdus[0], &tpdus[2]] {
            for c in t.all_chunks() {
                r.handle_chunk(c, 0);
            }
        }
        let ack = r.make_ack();
        assert_eq!(ack.cumulative, 8);
        assert_eq!(ack.sacks, vec![16]);
    }

    #[test]
    fn csn_corruption_is_cross_group_consistency_failure() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(&[7u8; 16]); // two TPDUs of 8
                                        // Deliver TPDU 0 intact.
        for c in tpdus[0].all_chunks() {
            r.handle_chunk(c, 0);
        }
        // TPDU 1's chunk with corrupted C.SN pointing into TPDU 0's range
        // (misaligned, so it is not mistaken for a benign duplicate).
        let mut bad = tpdus[1].chunks[0].clone();
        bad.header.conn.sn = bad.header.conn.sn.wrapping_sub(3);
        let events = r.handle_chunk(bad, 0);
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::Consistency,
                ..
            }
        )));
    }

    #[test]
    fn xsn_corruption_is_consistency_failure() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let (a, mut b) = split(&t.chunks[0], 4).unwrap();
        b.header.ext.sn = b.header.ext.sn.wrapping_add(3);
        let mut events = r.handle_chunk(a, 0);
        events.extend(r.handle_chunk(b, 0));
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::Consistency,
                ..
            }
        )));
    }

    #[test]
    fn tsn_corruption_is_reassembly_error() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let (a, mut b) = split(&t.chunks[0], 4).unwrap();
        // Corrupt T.SN: the chunk claims a different in-TPDU position, so
        // it lands in a ghost group that never completes.
        b.header.tpdu.sn = b.header.tpdu.sn.wrapping_add(2);
        r.handle_chunk(a, 0);
        r.handle_chunk(b, 0);
        r.handle_chunk(t.ed.clone(), 0);
        let events = r.expire_incomplete();
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::ReassemblyError,
                ..
            }
        )));
    }

    #[test]
    fn tid_corruption_is_ed_mismatch() {
        // The explicit T.ID is protected by the invariant; grouping does not
        // use it, so the TPDU completes and verification catches it.
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let mut bad = t.chunks[0].clone();
        bad.header.tpdu.id ^= 0x55;
        let mut events = r.handle_chunk(bad, 0);
        events.extend(r.handle_chunk(t.ed.clone(), 0));
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::EdMismatch,
                ..
            }
        )));
    }

    #[test]
    fn connection_close_event() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = Framer::new(params(), layout()).frame_simple(b"abcdefgh", 0xF, true);
        let mut events = Vec::new();
        for c in tpdus[0].all_chunks() {
            events.extend(r.handle_chunk(c, 0));
        }
        assert!(events.contains(&RxEvent::ConnectionClosed));
        assert!(r.is_closed());
    }

    #[test]
    fn wrong_elem_size_rejected() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let mut bad = tpdus[0].chunks[0].clone();
        bad.header.size = 2;
        bad.header.len = 4;
        let events = r.handle_chunk(bad, 0);
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::BadChunk,
                ..
            }
        )));
    }

    /// The ack state as the sort-and-sweep over every delivery record that
    /// `verified_prefix`/`make_ack` once recomputed on each call: the
    /// oracle for the incremental `prefix`/`ahead` pair.
    fn swept_ack_state(r: &Receiver) -> (u64, Vec<u64>) {
        let mut starts: Vec<(u64, u64)> = r
            .delivered
            .iter()
            .map(|&s| (s, r.done.get(&s).map_or(0, |d| d.elements)))
            .collect();
        starts.sort_unstable();
        let mut cursor = 0;
        for (s, n) in starts {
            if s > cursor {
                break;
            }
            cursor = cursor.max(s + n);
        }
        let mut sacks: Vec<u64> = r
            .delivered
            .iter()
            .copied()
            .filter(|&s| s >= cursor)
            .collect();
        sacks.sort_unstable();
        sacks.dedup();
        (cursor, sacks)
    }

    #[test]
    fn incremental_ack_state_matches_the_sweep() {
        // Seeded random conversations: TPDUs arrive whole or in part, in any
        // order, duplicated, corrupted; failed and delivered groups are
        // reset and sent again; the receiver is quiesced and re-armed. After
        // every step the kept cursor must equal the full recomputation.
        let mut state = 0x5EED_u64;
        let mut next = move |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let data: Vec<u8> = (0..96u32).map(|i| (i * 7) as u8).collect();
        let tpdus = framed(&data); // twelve TPDUs of 8
        let modes = [
            DeliveryMode::Immediate,
            DeliveryMode::Reorder,
            DeliveryMode::Reassemble,
        ];
        let mut checked = 0;
        for scenario in 0..150 {
            let mut r = rx(modes[scenario % modes.len()]);
            r.reserve(tpdus.len(), 64);
            for _ in 0..60 {
                let t = &tpdus[next(tpdus.len())];
                match next(10) {
                    // Whole TPDU, chunks in random order.
                    0..=3 => {
                        let mut chunks: Vec<Chunk> = t.all_chunks().collect();
                        let k = next(chunks.len());
                        chunks.rotate_left(k);
                        for c in chunks {
                            r.handle_chunk(c, 0);
                        }
                    }
                    // One chunk only: leaves a group open (or duplicates).
                    4 | 5 => {
                        let chunks: Vec<Chunk> = t.all_chunks().collect();
                        r.handle_chunk(chunks[next(chunks.len())].clone(), 0);
                    }
                    // A corrupted copy: the group fails verification.
                    6 => {
                        let mut bad = t.chunks[0].clone();
                        let mut bytes = bad.payload.to_vec();
                        bytes[0] ^= 0x40;
                        bad.payload = bytes.into();
                        r.handle_chunk(bad, 0);
                        r.handle_chunk(t.ed.clone(), 0);
                    }
                    // Reset whatever is at this start: failed, open,
                    // delivered, or nothing.
                    7 | 8 => r.reset_group(t.start),
                    // Rare: quiesce, or re-arm for the same connection.
                    _ => {
                        if next(4) == 0 {
                            r.quiesce();
                        } else if next(4) == 0 {
                            r.rearm(params());
                        }
                    }
                }
                for s in r.failed_starts() {
                    if next(2) == 0 {
                        r.reset_group(s);
                    }
                }
                let (prefix, sacks) = swept_ack_state(&r);
                let ack = r.make_ack();
                assert_eq!(r.verified_prefix(), prefix, "scenario {scenario}");
                assert_eq!(ack.cumulative, prefix, "scenario {scenario}");
                assert_eq!(ack.sacks, sacks, "scenario {scenario}");
                checked += usize::from(!sacks.is_empty());
            }
        }
        assert!(checked > 1000, "the walk must reach out-of-order states");
    }

    #[test]
    fn resetting_a_delivered_group_rewinds_the_prefix() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(&[3u8; 24]);
        for t in &tpdus {
            for c in t.all_chunks() {
                r.handle_chunk(c, 0);
            }
        }
        assert_eq!(r.verified_prefix(), 24);
        r.reset_group(8);
        // The reset TPDU stays SACKed with no elements, as the sweep over
        // `delivered` always reported it; the prefix stops in front of it.
        assert_eq!(r.verified_prefix(), 8);
        assert_eq!(r.make_ack().sacks, vec![8, 16]);
        for c in tpdus[1].all_chunks() {
            r.handle_chunk(c, 0);
        }
        assert_eq!(r.verified_prefix(), 24);
        assert!(r.make_ack().sacks.is_empty());
        assert_eq!(swept_ack_state(&r), (24, vec![]));
    }
}

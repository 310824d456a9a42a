//! Receive hot-path sweep: chunks/s, bytes/s and allocations-per-chunk for
//! the zero-copy receive path, the owned reference decode, and the
//! parallel dispatcher — the numbers behind `BENCH_hotpath.json`.
//!
//! Three legs over the same clean packet stream:
//!
//! * **zero-copy** — the receive path: one `validate` scan, then a walk
//!   over the packet's chunks with payloads sliced (not copied) from the
//!   packet buffer, pooled group state, batched ingest. The ≥ 96 MiB/s
//!   acceptance bar reads this leg.
//! * **legacy-owned** — the owned reference decode driven by hand: `unpack`
//!   copies each packet's chunks out, and the same receiver takes them
//!   through `handle_chunk_into`. Its delivered digests must equal the
//!   zero-copy leg's; its per-chunk copies and allocations are reported for
//!   contrast, as the cost the zero-copy walk avoids.
//! * **parallel** — the virtual-engine dispatcher at 4 workers, batched
//!   ingest + drain (single-threaded execution, so the wall time is the
//!   total work, not a host-core measurement).
//!
//! Allocations are counted by the `experiments` binary's counting global
//! allocator (`CountingAlloc`); each leg warms up on a quarter of the
//! stream, then counts heap allocations over the steady-state remainder.
//! When the counting allocator is not installed (e.g. library tests) the
//! alloc columns report -1 and the alloc gate is skipped.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use chunks_core::packet::{spans, unpack, Packet};
use chunks_obs::{ObsSink, ShardSink};
use chunks_transport::{
    ConnSpec, ConnectionParams, DeliveryMode, Engine, ParallelReceiver, Receiver, Schedule, Sender,
    SenderConfig,
};
use chunks_wsc::InvariantLayout;

/// Elements (= bytes) per TPDU.
pub const TPDU_ELEMENTS: u32 = 8192;
/// Application bytes per connection.
pub const MESSAGE_BYTES: usize = 4 * 1024 * 1024;
/// Path MTU (jumbo: one TPDU chunk per packet).
pub const MTU: usize = 9000;
/// Packets per `ingest_batch` call.
pub const BATCH: usize = 32;
/// Connections on the parallel leg.
pub const PAR_CONNS: u32 = 8;
/// Workers on the parallel leg.
pub const PAR_WORKERS: usize = 4;
/// Timing repetitions (medians are reported).
const REPEATS: usize = 3;

/// Heap-allocation counting hooks. The `experiments` binary installs
/// [`CountingAlloc`](alloc_count::CountingAlloc) as its
/// `#[global_allocator]`; the sweep then reads the
/// counter around the steady-state window of each leg.
pub mod alloc_count {
    // The workspace denies `unsafe_code`; a `GlobalAlloc` impl is the one
    // construct an allocation meter cannot avoid. It only forwards to
    // `System` and bumps an atomic.
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Heap allocations since process start (alloc + alloc_zeroed + realloc).
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    /// Bytes currently live on the heap (allocated minus deallocated).
    pub static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

    /// `System`, with every allocation counted.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            System.dealloc(ptr, layout)
        }
    }

    /// Current allocation count.
    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Bytes currently live on the heap; only meaningful while the counting
    /// allocator is installed (otherwise stays 0).
    pub fn live_bytes() -> u64 {
        LIVE_BYTES.load(Ordering::Relaxed)
    }

    /// True when the counting allocator is actually installed as the global
    /// allocator (a probe allocation moves the counter).
    pub fn active() -> bool {
        let before = allocs();
        std::hint::black_box(Box::new(0u64));
        allocs() != before
    }
}

pub(crate) fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: TPDU_ELEMENTS,
    }
}

pub(crate) fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(1 << 15)
}

pub(crate) fn capacity_elements() -> u64 {
    MESSAGE_BYTES as u64 + 4 * TPDU_ELEMENTS as u64
}

fn message(conn_id: u32, seed: u64) -> Vec<u8> {
    let mut state = seed ^ ((conn_id as u64) << 17);
    (0..MESSAGE_BYTES)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

pub(crate) fn stream(conn_id: u32, seed: u64) -> Vec<Packet> {
    let mut tx = Sender::new(SenderConfig {
        params: params(conn_id),
        layout: layout(),
        mtu: MTU,
        min_tpdu_elements: 64,
        max_tpdu_elements: TPDU_ELEMENTS,
    });
    tx.submit_simple(&message(conn_id, seed), 0x10 + conn_id, false);
    tx.packets_for_pending().expect("clean stream packs")
}

pub(crate) fn chunk_count(packets: &[Packet]) -> u64 {
    packets.iter().map(|p| spans(p).count() as u64).sum()
}

/// One leg's measurements.
#[derive(Clone, PartialEq, Debug)]
pub struct Leg {
    /// Leg name.
    pub leg: &'static str,
    /// Packets replayed.
    pub packets: usize,
    /// Data + ED chunks replayed.
    pub chunks: u64,
    /// Wire bytes replayed.
    pub wire_bytes: u64,
    /// Median wall time over the whole replay, ns.
    pub wall_ns: u64,
    /// Chunks per second over the median wall time.
    pub chunks_per_s: f64,
    /// Wire MiB per second over the median wall time.
    pub mib_s: f64,
    /// Heap allocations inside the steady-state window (worst repetition);
    /// -1 when the counting allocator is not installed.
    pub steady_allocs: i64,
    /// Chunks inside the steady-state window.
    pub steady_chunks: u64,
    /// `steady_allocs / steady_chunks`; -1 when not measured.
    pub allocs_per_chunk: f64,
    /// Verified application bytes after the replay.
    pub delivered_bytes: u64,
}

/// The whole sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct HotpathResult {
    /// Seed the streams were drawn from.
    pub seed: u64,
    /// Whether allocation counting was active.
    pub alloc_counting: bool,
    /// zero-copy / legacy-owned / parallel legs.
    pub legs: Vec<Leg>,
    /// Delivered-digest mismatches between the zero-copy and legacy legs.
    pub divergences: u32,
}

pub(crate) struct RunOutcome {
    pub(crate) wall_ns: u64,
    pub(crate) steady_allocs: u64,
    pub(crate) delivered_bytes: u64,
    pub(crate) digests: Vec<(u64, [u8; 8])>,
}

fn run_serial(packets: &[Packet], warm_batches: usize, legacy: bool) -> RunOutcome {
    run_serial_with(packets, warm_batches, legacy, None)
}

/// Serial replay with an optional observability sink installed on the
/// receiver (wrapped in a [`ShardSink`] facade when the sink shards) — the
/// `obs-overhead` bench's instrument.
pub(crate) fn run_serial_with(
    packets: &[Packet],
    warm_batches: usize,
    legacy: bool,
    sink: Option<Arc<dyn ObsSink>>,
) -> RunOutcome {
    let tpdus = MESSAGE_BYTES / TPDU_ELEMENTS as usize + 2;
    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    if let Some(sink) = sink {
        rx.set_obs(ShardSink::wrap(sink));
    }
    rx.reserve(tpdus + 8, tpdus * 4 + 64);
    let mut out = Vec::with_capacity(tpdus * 4 + 64);
    let mut steady_from = 0u64;
    let begin = Instant::now();
    for (i, batch) in packets.chunks(BATCH).enumerate() {
        if i == warm_batches {
            steady_from = alloc_count::allocs();
        }
        if legacy {
            // The owned reference decode: `unpack` copies every payload out
            // of its packet, and the receiver takes the owned chunks.
            for chunk in batch.iter().flat_map(|p| unpack(p).unwrap_or_default()) {
                rx.handle_chunk_into(chunk, i as u64, &mut out);
            }
        } else {
            rx.ingest_batch(batch, i as u64, &mut out);
        }
    }
    let steady_allocs = alloc_count::allocs() - steady_from;
    let wall_ns = begin.elapsed().as_nanos() as u64;
    RunOutcome {
        wall_ns,
        steady_allocs,
        delivered_bytes: rx.verified_prefix(),
        digests: rx.delivered_digests(),
    }
}

fn run_parallel(streams: &[Vec<Packet>], warm_batches: usize) -> RunOutcome {
    run_parallel_with(streams, warm_batches, None)
}

/// Parallel replay with an optional observability sink shared by the
/// dispatcher and every worker — the `obs-overhead` bench's instrument.
pub(crate) fn run_parallel_with(
    streams: &[Vec<Packet>],
    warm_batches: usize,
    sink: Option<Arc<dyn ObsSink>>,
) -> RunOutcome {
    // Interleave the connections round-robin, as a shared link would.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut packets: Vec<Packet> = Vec::new();
    for i in 0..longest {
        for s in streams {
            if let Some(p) = s.get(i) {
                packets.push(p.clone());
            }
        }
    }
    let specs: Vec<ConnSpec> = (1..=PAR_CONNS)
        .map(|id| {
            ConnSpec::new(
                params(id),
                layout(),
                DeliveryMode::Immediate,
                capacity_elements(),
            )
        })
        .collect();
    let mut pr = match sink {
        Some(sink) => ParallelReceiver::new_with_obs(
            PAR_WORKERS,
            Engine::Virtual(Schedule::Fair),
            specs,
            sink,
        ),
        None => ParallelReceiver::new(PAR_WORKERS, Engine::Virtual(Schedule::Fair), specs),
    };
    let tpdus = (MESSAGE_BYTES / TPDU_ELEMENTS as usize + 2) * PAR_CONNS as usize;
    pr.reserve(tpdus + 8, tpdus * 4 + 64);
    let mut steady_from = 0u64;
    let begin = Instant::now();
    for (i, batch) in packets.chunks(BATCH).enumerate() {
        if i == warm_batches {
            steady_from = alloc_count::allocs();
        }
        pr.ingest_batch(batch, i as u64);
        pr.drain();
    }
    let steady_allocs = alloc_count::allocs() - steady_from;
    let wall_ns = begin.elapsed().as_nanos() as u64;
    let outcome = pr.finish();
    let delivered_bytes = outcome
        .conns
        .values()
        .map(|r| r.receiver.verified_prefix())
        .sum();
    RunOutcome {
        wall_ns,
        steady_allocs,
        delivered_bytes,
        digests: Vec::new(),
    }
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn leg_of(
    leg: &'static str,
    packets: usize,
    chunks: u64,
    wire_bytes: u64,
    steady_chunks: u64,
    counting: bool,
    runs: &[RunOutcome],
) -> Leg {
    let wall_ns = median(runs.iter().map(|r| r.wall_ns).collect());
    // Allocation counts should be identical across repetitions; report the
    // worst so a flaky leg cannot hide behind the median.
    let steady = runs.iter().map(|r| r.steady_allocs).max().unwrap_or(0);
    let secs = wall_ns.max(1) as f64 / 1e9;
    Leg {
        leg,
        packets,
        chunks,
        wire_bytes,
        wall_ns,
        chunks_per_s: chunks as f64 / secs,
        mib_s: wire_bytes as f64 / (1024.0 * 1024.0) / secs,
        steady_allocs: if counting { steady as i64 } else { -1 },
        steady_chunks,
        allocs_per_chunk: if counting {
            steady as f64 / steady_chunks.max(1) as f64
        } else {
            -1.0
        },
        delivered_bytes: runs.last().map(|r| r.delivered_bytes).unwrap_or(0),
    }
}

impl HotpathResult {
    /// The zero-copy leg (the one the acceptance bar reads).
    pub fn zero_copy(&self) -> Option<&Leg> {
        self.legs.iter().find(|l| l.leg == "zero-copy")
    }

    /// Acceptance: full delivery on every leg, zero divergence between the
    /// zero-copy and legacy decoders, ≥ 96 MiB/s on the zero-copy leg, and —
    /// when the counting allocator is installed — zero steady-state
    /// allocations on the zero-copy and parallel legs.
    pub fn passes(&self) -> bool {
        let full = self.legs.iter().all(|l| {
            let want = if l.leg == "parallel" {
                MESSAGE_BYTES as u64 * PAR_CONNS as u64
            } else {
                MESSAGE_BYTES as u64
            };
            l.delivered_bytes == want
        });
        let fast = self.zero_copy().map(|l| l.mib_s >= 96.0).unwrap_or(false);
        let lean = !self.alloc_counting
            || self
                .legs
                .iter()
                .filter(|l| l.leg != "legacy-owned")
                .all(|l| l.steady_allocs == 0);
        full && fast && lean && self.divergences == 0
    }
}

impl fmt::Display for HotpathResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== hotpath — zero-copy receive path throughput and allocations (seed {:#x}) ===",
            self.seed
        )?;
        writeln!(
            f,
            "  {} KiB message, {} KiB TPDUs, mtu {}, batches of {}; alloc counting {}",
            MESSAGE_BYTES / 1024,
            TPDU_ELEMENTS / 1024,
            MTU,
            BATCH,
            if self.alloc_counting { "on" } else { "off" },
        )?;
        writeln!(
            f,
            "  {:<14} {:>8} {:>9} {:>10} {:>12} {:>9} {:>12} {:>12}",
            "leg", "packets", "chunks", "wall", "chunks/s", "MiB/s", "steady-alloc", "allocs/chunk"
        )?;
        for l in &self.legs {
            writeln!(
                f,
                "  {:<14} {:>8} {:>9} {:>8.2}ms {:>12.0} {:>9.1} {:>12} {:>12}",
                l.leg,
                l.packets,
                l.chunks,
                l.wall_ns as f64 / 1e6,
                l.chunks_per_s,
                l.mib_s,
                l.steady_allocs,
                if l.allocs_per_chunk < 0.0 {
                    "n/a".to_owned()
                } else {
                    format!("{:.4}", l.allocs_per_chunk)
                },
            )?;
        }
        writeln!(f, "  zero-copy vs legacy divergences: {}", self.divergences)?;
        Ok(())
    }
}

/// Runs the sweep under one seed.
pub fn run(seed: u64) -> HotpathResult {
    let counting = alloc_count::active();
    let serial_stream = stream(1, seed);
    let serial_chunks = chunk_count(&serial_stream);
    let wire: u64 = serial_stream.iter().map(|p| p.bytes.len() as u64).sum();
    let batches = serial_stream.len().div_ceil(BATCH);
    let warm = (batches / 4).max(1);
    let steady_chunks = chunk_count(&serial_stream[(warm * BATCH).min(serial_stream.len())..]);

    let mut legs = Vec::new();
    let mut divergences = 0u32;

    let zc: Vec<RunOutcome> = (0..REPEATS)
        .map(|_| run_serial(&serial_stream, warm, false))
        .collect();
    let legacy: Vec<RunOutcome> = (0..REPEATS)
        .map(|_| run_serial(&serial_stream, warm, true))
        .collect();
    for (a, b) in zc.iter().zip(legacy.iter()) {
        if a.digests != b.digests || a.delivered_bytes != b.delivered_bytes {
            divergences += 1;
        }
    }
    legs.push(leg_of(
        "zero-copy",
        serial_stream.len(),
        serial_chunks,
        wire,
        steady_chunks,
        counting,
        &zc,
    ));
    legs.push(leg_of(
        "legacy-owned",
        serial_stream.len(),
        serial_chunks,
        wire,
        steady_chunks,
        counting,
        &legacy,
    ));

    let streams: Vec<Vec<Packet>> = (1..=PAR_CONNS).map(|id| stream(id, seed)).collect();
    let par_packets: usize = streams.iter().map(Vec::len).sum();
    let par_chunks: u64 = streams.iter().map(|s| chunk_count(s)).sum();
    let par_wire: u64 = streams
        .iter()
        .flat_map(|s| s.iter())
        .map(|p| p.bytes.len() as u64)
        .sum();
    let par_batches = par_packets.div_ceil(BATCH);
    let par_warm = (par_batches / 4).max(1);
    // Steady chunks on the parallel leg: everything after the warm-up cut.
    let par_steady = par_chunks - par_chunks * par_warm as u64 / par_batches.max(1) as u64;
    let par: Vec<RunOutcome> = (0..REPEATS)
        .map(|_| run_parallel(&streams, par_warm))
        .collect();
    legs.push(leg_of(
        "parallel",
        par_packets,
        par_chunks,
        par_wire,
        par_steady,
        counting,
        &par,
    ));

    HotpathResult {
        seed,
        alloc_counting: counting,
        legs,
        divergences,
    }
}

/// Renders the sweep as the `BENCH_hotpath.json` record. Wall-clock numbers
/// are host-dependent, so `bench-check` validates this file structurally.
pub fn bench_json(r: &HotpathResult, describe: &str) -> String {
    use super::benchjson::meta_json;
    let mut out = String::from("{\n");
    out.push_str(&meta_json(
        "receive-hotpath-throughput-and-allocations",
        "cargo run --release --bin experiments hotpath (or: just bench-hotpath)",
        describe,
    ));
    out.push_str(&format!(
        "  \"workload\": \"{} KiB message, {} KiB TPDUs, mtu {}, ingest batches of {}; parallel leg {} conns x {} workers (virtual engine)\",\n",
        MESSAGE_BYTES / 1024,
        TPDU_ELEMENTS / 1024,
        MTU,
        BATCH,
        PAR_CONNS,
        PAR_WORKERS,
    ));
    out.push_str(
        "  \"method\": \"medians of 3 timed replays per leg; steady-state allocations counted by the binary's counting global allocator after a quarter-stream warm-up (worst repetition; -1 = counting not installed); zero-copy and legacy legs are digest-compared\",\n",
    );
    out.push_str(&format!("  \"alloc_counting\": {},\n", r.alloc_counting));
    out.push_str(&format!("  \"divergences\": {},\n", r.divergences));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = r
        .legs
        .iter()
        .map(|l| {
            format!(
                "    {{\"leg\": \"{}\", \"packets\": {}, \"chunks\": {}, \"wire_bytes\": {}, \"wall_ms\": {:.3}, \"chunks_per_s\": {:.0}, \"mib_s\": {:.1}, \"steady_allocs\": {}, \"steady_chunks\": {}, \"allocs_per_chunk\": {:.4}, \"delivered_bytes\": {}}}",
                l.leg,
                l.packets,
                l.chunks,
                l.wire_bytes,
                l.wall_ns as f64 / 1e6,
                l.chunks_per_s,
                l.mib_s,
                l.steady_allocs,
                l.steady_chunks,
                l.allocs_per_chunk,
                l.delivered_bytes,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_delivers_and_agrees_without_the_counting_allocator() {
        // Library tests run without the counting global allocator: the
        // alloc columns must report -1 and the gate must not read them.
        let r = run(0x407);
        assert!(!r.alloc_counting || r.legs.iter().all(|l| l.steady_allocs >= 0));
        assert_eq!(r.divergences, 0);
        for l in &r.legs {
            let want = if l.leg == "parallel" {
                MESSAGE_BYTES as u64 * PAR_CONNS as u64
            } else {
                MESSAGE_BYTES as u64
            };
            assert_eq!(l.delivered_bytes, want, "{} leg", l.leg);
        }
    }
}

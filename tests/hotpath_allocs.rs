//! The tentpole's proof obligation: the receive hot path performs **zero**
//! heap allocations per chunk in steady state — serial and parallel.
//!
//! Methodology: a warm-up phase feeds a prefix of the packet stream so every
//! pool, slab, map and buffer reaches working size (plus an explicit
//! `reserve` for the load that follows), then the measured phase replays the
//! rest of the stream under [`assert_no_alloc!`]. The counting allocator
//! wraps `System` and counts per thread, only inside armed windows, so the
//! tests may run concurrently; the parallel leg runs the *virtual* engine
//! so exactly one thread executes inside the measured window.

mod common;

use chunks::transport::{
    ConnSpec, ConnectionParams, DeliveryMode, Engine, Framer, ParallelReceiver, Receiver, Schedule,
    Sender, SenderConfig,
};
use chunks::wsc::InvariantLayout;
use chunks_core::packet::Packet;
use chunks_obs::{AlwaysOnSink, ShardSink};
use common::alloc_counter::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ELEM_SIZE: u16 = 1;
const TPDU_ELEMENTS: u32 = 64;
const MTU: usize = 600;
const MESSAGE_LEN: usize = 32 * 1024;

fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: ELEM_SIZE,
        initial_csn: 0,
        tpdu_elements: TPDU_ELEMENTS,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(1 << 15)
}

fn capacity_elements() -> u64 {
    MESSAGE_LEN as u64 + TPDU_ELEMENTS as u64 + 64
}

/// The full packet stream of one connection's message.
fn stream(conn_id: u32) -> Vec<Packet> {
    let mut tx = Sender::new(SenderConfig {
        params: params(conn_id),
        layout: layout(),
        mtu: MTU,
        min_tpdu_elements: 2,
        max_tpdu_elements: TPDU_ELEMENTS,
    });
    let message: Vec<u8> = (0..MESSAGE_LEN)
        .map(|i| (i as u64).wrapping_mul(conn_id as u64 + 7) as u8)
        .collect();
    tx.submit_simple(&message, conn_id, false);
    tx.packets_for_pending().expect("clean stream packs")
}

/// Counts Data + ED chunks across a packet slice (the denominator of
/// allocs-per-chunk).
fn chunk_count(packets: &[Packet]) -> u64 {
    packets
        .iter()
        .map(|p| chunks_core::packet::spans(p).count() as u64)
        .sum()
}

#[test]
fn serial_receive_steady_state_is_allocation_free() {
    let packets = stream(1);
    let total_tpdus = MESSAGE_LEN / TPDU_ELEMENTS as usize + 2;
    let warmup = packets.len() / 4;
    assert!(warmup >= 4, "stream long enough to warm up");

    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    // Working size for everything the stream will need, ahead of time.
    rx.reserve(total_tpdus + 8, total_tpdus * 4 + 64);
    let mut out = Vec::with_capacity(total_tpdus * 4 + 64);

    const BATCH: usize = 16;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        rx.ingest_batch(batch, i as u64, &mut out);
    }

    // Steady state: every remaining batch must touch the heap zero times.
    let measured = &packets[warmup..];
    let measured_chunks = chunk_count(measured);
    let armed = alloc_counter::arm();
    let before = alloc_counter::snapshot();
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            rx.ingest_batch(batch, (warmup + i) as u64, &mut out),
            "serial batch {i}"
        );
    }
    let after = alloc_counter::snapshot();
    drop(armed);
    let (allocs, _) = alloc_counter::delta(before, after);
    assert_eq!(allocs, 0, "allocs/chunk must be 0/{measured_chunks}");
    assert!(measured_chunks > 100, "measured window too small to matter");

    // The silent path still did the work.
    assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64);
    assert_eq!(rx.stats.bad_packets, 0);
    assert!(out
        .iter()
        .any(|e| matches!(e, chunks::transport::RxEvent::TpduDelivered { .. })));
}

#[test]
fn serial_receive_with_always_on_obs_is_allocation_free() {
    // The tentpole bar: arming production telemetry — sharded counters,
    // flight recorder, non-verbose events — must not reintroduce a single
    // steady-state allocation on the serial receive path.
    let packets = stream(1);
    let total_tpdus = MESSAGE_LEN / TPDU_ELEMENTS as usize + 2;
    let warmup = packets.len() / 4;

    let sink = AlwaysOnSink::shared();
    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    rx.set_obs(ShardSink::wrap(sink.clone()));
    rx.reserve(total_tpdus + 8, total_tpdus * 4 + 64);
    let mut out = Vec::with_capacity(total_tpdus * 4 + 64);

    const BATCH: usize = 16;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        rx.ingest_batch(batch, i as u64, &mut out);
    }

    let measured = &packets[warmup..];
    let measured_chunks = chunk_count(measured);
    let armed = alloc_counter::arm();
    let before = alloc_counter::snapshot();
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            rx.ingest_batch(batch, (warmup + i) as u64, &mut out),
            "serial obs-on batch {i}"
        );
    }
    let after = alloc_counter::snapshot();
    drop(armed);
    let (allocs, _) = alloc_counter::delta(before, after);
    assert_eq!(allocs, 0, "obs-on allocs/chunk must be 0/{measured_chunks}");

    // The telemetry was really on: the shard block saw the hot path.
    assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64);
    let snap = sink.snapshot();
    assert!(snap.counter("transport.rx.chunks_accepted") > 0);
    assert!(snap.counter("transport.rx.tpdus_delivered") > 0);
}

#[test]
fn ack_cost_stays_flat_as_an_in_order_stream_grows() {
    // The ack's cumulative point and SACK list are kept as TPDUs deliver,
    // so building an ack costs the same at the 16th TPDU as at the 512th.
    let message: Vec<u8> = (0..MESSAGE_LEN).map(|i| i as u8).collect();
    let tpdus = Framer::new(params(1), layout()).frame_simple(&message, 1, false);
    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    // One entry per delivered TPDU: (cumulative point, bytes allocated).
    let mut acks: Vec<(u64, u64)> = Vec::new();
    for t in &tpdus {
        for chunk in t.all_chunks() {
            rx.handle_chunk(chunk, 0);
        }
        // The TPDU just verified: no group is open, nothing is missing.
        let armed = alloc_counter::arm();
        let before = alloc_counter::snapshot();
        let ack = rx.make_ack();
        let after = alloc_counter::snapshot();
        drop(armed);
        acks.push((ack.cumulative, alloc_counter::delta(before, after).1));
    }
    assert_eq!(acks.len(), MESSAGE_LEN / TPDU_ELEMENTS as usize);
    assert_eq!(acks.last().unwrap().0, MESSAGE_LEN as u64);
    let first = acks[15].1;
    for (i, &(cumulative, bytes)) in acks.iter().enumerate().skip(16) {
        assert_eq!(
            bytes, first,
            "ack after TPDU {i} (cumulative {cumulative}) allocated {bytes} B, \
             after TPDU 15 {first} B"
        );
    }
}

/// Round-robin interleave of the three connections' streams, as a shared
/// link would deliver them.
fn interleaved(conns: u32) -> Vec<Packet> {
    let streams: Vec<Vec<Packet>> = (1..=conns).map(stream).collect();
    let longest = streams.iter().map(Vec::len).max().unwrap();
    let mut packets: Vec<Packet> = Vec::new();
    for i in 0..longest {
        for s in &streams {
            if let Some(p) = s.get(i) {
                packets.push(p.clone());
            }
        }
    }
    packets
}

#[test]
fn parallel_receive_steady_state_is_allocation_free() {
    const CONNS: u32 = 3;
    const WORKERS: usize = 4;

    let packets = interleaved(CONNS);
    let specs: Vec<ConnSpec> = (1..=CONNS)
        .map(|id| {
            ConnSpec::new(
                params(id),
                layout(),
                DeliveryMode::Immediate,
                capacity_elements(),
            )
        })
        .collect();
    let mut pr = ParallelReceiver::new(WORKERS, Engine::Virtual(Schedule::Fair), specs);

    let total_tpdus = (MESSAGE_LEN / TPDU_ELEMENTS as usize + 2) * CONNS as usize;
    pr.reserve(total_tpdus + 8, total_tpdus * 4 + 64);

    const BATCH: usize = 16;
    let warmup = packets.len() / 4;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        pr.ingest_batch(batch, i as u64);
        pr.drain();
    }

    let measured = &packets[warmup..];
    let measured_chunks = chunk_count(measured);
    let armed = alloc_counter::arm();
    let before = alloc_counter::snapshot();
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            {
                pr.ingest_batch(batch, (warmup + i) as u64);
                pr.drain();
            },
            "parallel batch {i}"
        );
    }
    let after = alloc_counter::snapshot();
    drop(armed);
    let (allocs, _) = alloc_counter::delta(before, after);
    assert_eq!(allocs, 0, "allocs/chunk must be 0/{measured_chunks}");
    assert!(measured_chunks > 100, "measured window too small to matter");

    let out = pr.finish();
    assert_eq!(out.dispatch.decode_errors, 0);
    assert_eq!(out.dispatch.bad_packets, 0);
    for id in 1..=CONNS {
        assert_eq!(
            out.conns[&id].receiver.verified_prefix(),
            MESSAGE_LEN as u64,
            "conn {id} must fully verify"
        );
    }
}

#[test]
fn parallel_receive_with_always_on_obs_is_allocation_free() {
    const CONNS: u32 = 3;
    const WORKERS: usize = 4;

    let packets = interleaved(CONNS);
    let specs: Vec<ConnSpec> = (1..=CONNS)
        .map(|id| {
            ConnSpec::new(
                params(id),
                layout(),
                DeliveryMode::Immediate,
                capacity_elements(),
            )
        })
        .collect();
    let sink = AlwaysOnSink::shared();
    let mut pr = ParallelReceiver::new_with_obs(
        WORKERS,
        Engine::Virtual(Schedule::Fair),
        specs,
        sink.clone(),
    );

    let total_tpdus = (MESSAGE_LEN / TPDU_ELEMENTS as usize + 2) * CONNS as usize;
    pr.reserve(total_tpdus + 8, total_tpdus * 4 + 64);

    const BATCH: usize = 16;
    let warmup = packets.len() / 4;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        pr.ingest_batch(batch, i as u64);
        pr.drain();
    }

    let measured = &packets[warmup..];
    let measured_chunks = chunk_count(measured);
    let armed = alloc_counter::arm();
    let before = alloc_counter::snapshot();
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            {
                pr.ingest_batch(batch, (warmup + i) as u64);
                pr.drain();
            },
            "parallel obs-on batch {i}"
        );
    }
    let after = alloc_counter::snapshot();
    drop(armed);
    let (allocs, _) = alloc_counter::delta(before, after);
    assert_eq!(allocs, 0, "obs-on allocs/chunk must be 0/{measured_chunks}");

    let out = pr.finish();
    for id in 1..=CONNS {
        assert_eq!(
            out.conns[&id].receiver.verified_prefix(),
            MESSAGE_LEN as u64,
            "conn {id} must fully verify"
        );
    }
    // The telemetry was really on, sharded per worker plus the dispatcher.
    assert!(sink.shard_count() >= WORKERS);
    let snap = sink.snapshot();
    assert!(snap.counter("transport.parallel.packets") > 0);
    assert!(snap.counter("transport.rx.chunks_accepted") > 0);
}

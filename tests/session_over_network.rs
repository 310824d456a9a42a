//! Full-duplex sessions across the simulated network, including a mid-run
//! route change — all three §1 disordering sources against the complete
//! protocol stack — plus the transmit path's wire contract: one pack per
//! chunk puts the same bytes on the wire as packing each segment, unpacking
//! it and repacking the lot, and acks always fit the MTU.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use chunks::core::label::ChunkType;
use chunks::core::packet::{pack, unpack, Packet};
use chunks::netsim::{LinkConfig, Path, PathBuilder, Profile};
use chunks::transport::{
    AckGate, AckInfo, ConnectionParams, DegradePolicy, DeliveryMode, PacketMux, Receiver,
    RepairPacer, RetransmitTimer, RtoConfig, RxEvent, Sender, SenderConfig, Served, Session,
    TimerVerdict,
};
use chunks::wsc::InvariantLayout;

fn params(conn_id: u32, tpdu_elements: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements,
    }
}

fn sender_config(conn_id: u32, tpdu_elements: u32, mtu: usize) -> SenderConfig {
    SenderConfig {
        params: params(conn_id, tpdu_elements),
        layout: InvariantLayout::default(),
        mtu,
        min_tpdu_elements: 32,
        max_tpdu_elements: 2048,
    }
}

fn endpoint_with(
    local: u32,
    remote: u32,
    tpdu_elements: u32,
    mtu: usize,
    capacity: u64,
) -> Session {
    Session::new(
        sender_config(local, tpdu_elements, mtu),
        params(remote, tpdu_elements),
        InvariantLayout::default(),
        DeliveryMode::Immediate,
        capacity,
    )
}

fn endpoint(local: u32, remote: u32, mtu: usize) -> Session {
    endpoint_with(local, remote, 256, mtu, 1 << 16)
}

/// Ships one batch of packets through a fresh path and feeds the peer.
fn ship(path: &mut Path, batch: Vec<Packet>, peer: &mut Session, t0: u64) {
    let inputs = batch
        .into_iter()
        .enumerate()
        .map(|(i, p)| (t0 + i as u64 * 600, p.bytes.to_vec()))
        .collect();
    for d in path.run(inputs) {
        peer.handle_packet(
            &Packet {
                bytes: d.frame.into(),
            },
            d.time,
        );
    }
}

#[test]
fn duplex_over_lossy_multipath() {
    let mtu = 1500;
    let mut a = endpoint(1, 2, mtu);
    let mut b = endpoint(2, 1, mtu);
    let msg_a: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
    let msg_b: Vec<u8> = (0..25_000).map(|i| (i % 239) as u8).collect();
    a.send(&msg_a, 0xA, false);
    b.send(&msg_b, 0xB, false);

    let cfg = LinkConfig::clean(mtu, 80_000, 622_000_000)
        .with_loss(0.03)
        .with_jitter(100_000);
    let mut rounds = 0;
    while !(a.outbound_done() && b.outbound_done()) {
        rounds += 1;
        assert!(rounds < 30, "did not converge");
        let mut ab = PathBuilder::new(100 + rounds)
            .multipath(4, cfg, 50_000)
            .build();
        ship(&mut ab, a.poll_transmit().unwrap(), &mut b, 0);
        let mut ba = PathBuilder::new(200 + rounds)
            .multipath(4, cfg, 50_000)
            .build();
        ship(&mut ba, b.poll_transmit().unwrap(), &mut a, 0);
    }
    assert_eq!(&b.received()[..msg_a.len()], &msg_a[..]);
    assert_eq!(&a.received()[..msg_b.len()], &msg_b[..]);
    // Immediate mode on both sides: one touch per delivered payload byte.
    assert_eq!(b.rx_stats().data_touches, msg_a.len() as u64);
}

#[test]
fn transfer_survives_route_change() {
    // A route change mid-transfer: the new route is 10x faster, so packets
    // sent after the switch overtake those still in flight on the old one.
    let mtu = 1500;
    let mut a = endpoint(3, 4, mtu);
    let mut b = endpoint(4, 3, mtu);
    let msg: Vec<u8> = (0..30_000).map(|i| (i % 233) as u8).collect();
    a.send(&msg, 0xC, false);

    let old = LinkConfig::clean(mtu, 2_000_000, 0); // 2 ms
    let new = LinkConfig::clean(mtu, 200_000, 0); // 0.2 ms
    let mut rounds = 0;
    while !a.outbound_done() {
        rounds += 1;
        assert!(rounds < 10, "did not converge");
        // The switch happens while the batch is still being injected.
        let mut ab = PathBuilder::new(rounds)
            .route_change(old, new, 4_000)
            .build();
        ship(&mut ab, a.poll_transmit().unwrap(), &mut b, 0);
        let mut ba = PathBuilder::new(50 + rounds)
            .link(LinkConfig::clean(mtu, 100_000, 0))
            .build();
        ship(&mut ba, b.poll_transmit().unwrap(), &mut a, 0);
    }
    assert_eq!(&b.received()[..msg.len()], &msg[..]);
    assert_eq!(rounds, 1, "pure reordering needs no retransmission at all");
    assert_eq!(b.rx_stats().tpdus_failed, 0);
}

/// One endpoint's transmit path rebuilt the way it worked before each chunk
/// was packed once: every segment of a batch — the ack-driven repair, the
/// first transmission of new data, then each timer retransmission — is
/// packed on its own by the packet-returning `Sender` methods (or `pack`
/// over the new TPDUs' chunks), unpacked again, and repacked with the ack
/// in a fresh `PacketMux`. The reliability logic mirrors `Session` for
/// what the conversation below exercises (no budget, so no back-pressure;
/// shedding on an empty retry budget) and runs the same public repair
/// pacing and ack policy (`RepairPacer`, `AckGate`).
struct RepackingEndpoint {
    tx: Sender,
    rx: Receiver,
    rto: RetransmitTimer,
    mtu: usize,
    conn: u32,
    unsent: Option<u64>,
    repair: RepairPacer,
    ack_gate: AckGate,
    backlog: VecDeque<Packet>,
    clock: u64,
    /// Most segments repacked into one batch.
    max_segments: usize,
}

impl RepackingEndpoint {
    fn new(local: u32, remote: u32, tpdu_elements: u32, mtu: usize, rto: RtoConfig) -> Self {
        RepackingEndpoint {
            tx: Sender::new(sender_config(local, tpdu_elements, mtu)),
            rx: Receiver::new(
                DeliveryMode::Immediate,
                params(remote, tpdu_elements),
                InvariantLayout::default(),
                1 << 16,
            ),
            rto: RetransmitTimer::new(rto),
            mtu,
            conn: local,
            unsent: None,
            repair: RepairPacer::default(),
            ack_gate: AckGate::default(),
            backlog: VecDeque::new(),
            clock: 0,
            max_segments: 0,
        }
    }

    fn send(&mut self, data: &[u8], x_id: u32) {
        if let Some(&first) = self.tx.submit_simple(data, x_id, false).first() {
            self.unsent.get_or_insert(first);
        }
    }

    fn handle_packet(&mut self, packet: &Packet, now: u64) {
        self.clock = self.clock.max(now);
        for event in self.rx.handle_packet(packet, now) {
            if let RxEvent::Acked(ack) = event {
                for start in self.tx.handle_ack(&ack) {
                    self.rto.on_ack(start, self.clock);
                }
                self.repair.hold(ack, &self.rto);
            }
        }
    }

    /// `Session::pump(now)` for `Some(now)`, `Session::poll_transmit()`
    /// (no timers) for `None`.
    fn emit(&mut self, pump_at: Option<u64>) -> Vec<Packet> {
        let timers = pump_at.is_some();
        self.clock = self.clock.max(pump_at.unwrap_or(0));
        let now = self.clock;
        let mut mux = PacketMux::new(self.mtu);
        let mut segments = 0;
        let mut repack = |mux: &mut PacketMux, packets: Vec<Packet>| {
            segments += 1;
            for p in packets {
                mux.enqueue_chunks(unpack(&p).unwrap());
            }
        };
        let mut sent: Vec<(u64, bool)> = Vec::new();
        let tx = &mut self.tx;
        let paced = pump_at.map(|_| now);
        let served = self
            .repair
            .serve(&self.rto, paced, 64, |ack, ready| {
                tx.retransmit_for_ack_parts(ack, 64, ready)
            })
            .unwrap();
        match served {
            Served::Idle => {}
            Served::Pressured => panic!("no budget, no back-pressure"),
            Served::Repaired(packets, repaired) => {
                repack(&mut mux, packets);
                sent.extend(repaired.into_iter().map(|s| (s, true)));
            }
        }
        if let Some(from) = self.unsent.take() {
            repack(
                &mut mux,
                pack(self.tx.pending_chunks_from(from), self.mtu).unwrap(),
            );
            sent.extend(self.tx.pending_starts_from(from).map(|s| (s, false)));
        }
        let verdicts = if timers {
            self.rto.poll(now)
        } else {
            Vec::new()
        };
        for verdict in verdicts {
            match verdict {
                TimerVerdict::Retransmit(start) => {
                    if !self.tx.is_pending(start) {
                        self.rto.forget(start);
                        continue;
                    }
                    repack(&mut mux, self.tx.retransmit(&[start]).unwrap());
                }
                TimerVerdict::Exhausted { start, .. } => {
                    self.tx.abandon(start);
                }
            }
        }
        for (s, again) in sent {
            self.rto.on_send(s, now, again);
        }
        for s in self.rx.failed_starts() {
            self.rx.reset_group(s);
        }
        let ack = self.rx.make_ack();
        let ack_news = self.ack_gate.has_news(&self.rx, &ack);
        if ack_news {
            mux.enqueue_ack(self.conn, &ack);
        }
        self.backlog.extend(mux.flush().unwrap());
        if ack_news {
            self.ack_gate.sent(&self.rx, &ack);
        }
        self.max_segments = self.max_segments.max(segments);
        let take = self.backlog.len().min(256);
        self.backlog.drain(..take).collect()
    }
}

/// Hands each packet of `batch` that survives `lose` to the peer one tick
/// later, in order.
fn deliver(batch: &[Packet], lose: &mut impl FnMut() -> bool) -> Vec<Packet> {
    batch.iter().filter(|_| !lose()).cloned().collect()
}

#[test]
fn one_pack_per_chunk_puts_the_repacked_bytes_on_the_wire() {
    // Two conversations in lock step over the same lossy channel: real
    // sessions, and the repacking oracle. Every batch either side emits —
    // first transmissions, ack-driven repairs, timer retransmissions,
    // acks — must be byte-identical.
    let rto = RtoConfig {
        policy: DegradePolicy::Shed,
        ..RtoConfig::default()
    };
    let (tpdu, mtu) = (32, 256);
    let mut a = endpoint_with(1, 2, tpdu, mtu, 1 << 16).with_rto(rto);
    let mut b = endpoint_with(2, 1, tpdu, mtu, 1 << 16).with_rto(rto);
    let mut oa = RepackingEndpoint::new(1, 2, tpdu, mtu, rto);
    let mut ob = RepackingEndpoint::new(2, 1, tpdu, mtu, rto);
    let msg_a: Vec<u8> = (0..3000).map(|i| (i * 7 % 251) as u8).collect();
    let msg_b: Vec<u8> = (0..1500).map(|i| (i * 3 % 241) as u8).collect();
    a.send(&msg_a, 0xA, false);
    oa.send(&msg_a, 0xA);
    b.send(&msg_b, 0xB, false);
    ob.send(&msg_b, 0xB);

    // Deterministic ~25% loss.
    let mut state = 0x1234_5678u64;
    let mut lose = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33).is_multiple_of(4)
    };
    let (mut to_a, mut to_b): (Vec<Packet>, Vec<Packet>) = (Vec::new(), Vec::new());
    let mut packets = 0;
    for round in 0..400u64 {
        let now = round * 500_000;
        for p in &to_b {
            b.handle_packet(p, now);
            ob.handle_packet(p, now);
        }
        for p in &to_a {
            a.handle_packet(p, now);
            oa.handle_packet(p, now);
        }
        // Mostly timer-driven pumps, with reactive polls mixed in.
        let pump_at = (round % 3 != 0).then_some(now);
        let out_a = match pump_at {
            Some(now) => a.pump(now).unwrap(),
            None => a.poll_transmit().unwrap(),
        };
        assert_eq!(out_a, oa.emit(pump_at), "A's batch in round {round}");
        let out_b = match pump_at {
            Some(now) => b.pump(now).unwrap(),
            None => b.poll_transmit().unwrap(),
        };
        assert_eq!(out_b, ob.emit(pump_at), "B's batch in round {round}");
        packets += out_a.len() + out_b.len();
        // A 4 ms outage both ways early on: with no feedback, only the
        // timers recover, so batches they shape are compared too.
        if (4..12).contains(&round) {
            (to_b, to_a) = (Vec::new(), Vec::new());
            continue;
        }
        to_b = deliver(&out_a, &mut lose);
        to_a = deliver(&out_b, &mut lose);
        if a.outbound_done() && b.outbound_done() && round > 40 {
            break;
        }
    }
    assert!(a.outbound_done() && b.outbound_done(), "did not converge");
    assert_eq!(&b.received()[..msg_a.len()], &msg_a[..]);
    assert_eq!(&a.received()[..msg_b.len()], &msg_b[..]);
    // The contract was tested where it matters: retransmissions by timer
    // went out in batches that also carried other segments.
    assert!(a.reliability().timer_retransmits + b.reliability().timer_retransmits > 0);
    assert!(oa.max_segments.max(ob.max_segments) >= 2);
    assert!(packets > 100);
}

/// A frame on its way: (arrival, send sequence, towards b, bytes).
type InFlight = (u64, u64, bool, Vec<u8>);

/// Open-loop 64 KiB messages from `a` to `b` over `Profile::MultipathLossy`
/// (one message due every 10 ms, both endpoints pumped every 20 µs, frames
/// delivered at their simulated arrival times) until `a` has everything
/// acknowledged. `reply` sees each packet `b` emits. Returns the endpoints,
/// the message bytes, and the frame bytes both sides put on the wire.
fn open_loop(
    seed: u64,
    tpdu_elements: u32,
    messages: usize,
    mut reply_seen: impl FnMut(&Packet),
) -> (Session, Session, Vec<u8>, u64) {
    const MTU: usize = 1500;
    const MESSAGE: usize = 64 * 1024;
    const PERIOD_NS: u64 = 10_000_000;
    const TICK_NS: u64 = 20_000;
    let total = messages * MESSAGE;
    let msg: Vec<u8> = (0..total)
        .map(|i| (i as u64).wrapping_mul(seed * 2 + 1) as u8)
        .collect();
    let mut a = endpoint_with(1, 2, tpdu_elements, MTU, 0);
    let mut b = endpoint_with(2, 1, tpdu_elements, MTU, total as u64);
    let mut ab = Profile::MultipathLossy.build(MTU, seed);
    let mut ba = Profile::MultipathLossy.build(MTU, seed ^ 0xBA);
    let mut heap: BinaryHeap<Reverse<InFlight>> = BinaryHeap::new();
    let mut seq = 0;
    let mut sent = 0;
    let mut wire_bytes = 0;
    let horizon = (messages as u64 - 1) * PERIOD_NS + 400_000_000;
    let mut t = 0;
    while !(sent == messages && a.outbound_done()) {
        assert!(t <= horizon, "seed {seed}: not done by {horizon} ns");
        while heap.peek().is_some_and(|Reverse(x)| x.0 <= t) {
            let Reverse((at, _, to_b, frame)) = heap.pop().unwrap();
            let packet = Packet {
                bytes: frame.into(),
            };
            if to_b {
                b.handle_packet(&packet, at);
            } else {
                a.handle_packet(&packet, at);
            }
        }
        if sent < messages && sent as u64 * PERIOD_NS <= t {
            a.send(
                &msg[sent * MESSAGE..(sent + 1) * MESSAGE],
                sent as u32 + 1,
                false,
            );
            sent += 1;
        }
        let out = a.pump(t).unwrap();
        let reply = b
            .pump(t)
            .unwrap_or_else(|e| panic!("seed {seed}: receiving pump at {t} ns: {e}"));
        reply.iter().for_each(&mut reply_seen);
        for (to_b, path, batch) in [(true, &mut ab, out), (false, &mut ba, reply)] {
            for p in batch {
                wire_bytes += p.len() as u64;
                for d in path.transmit(t, p.bytes.to_vec()) {
                    seq += 1;
                    heap.push(Reverse((d.time, seq, to_b, d.frame)));
                }
            }
        }
        t += TICK_NS;
    }
    (a, b, msg, wire_bytes)
}

#[test]
fn acks_fit_the_mtu_however_far_the_sacks_run_ahead() {
    // 256-element TPDUs over a lossy multipath, open loop: one lost packet
    // early in a 64 KiB message leaves up to 256 verified TPDUs behind the
    // hole, and every one of them is a SACK entry. Untrimmed, that ack
    // outgrows the packet and the receiving side's pump fails with
    // `ElementExceedsMtu` from then on. Trimmed, the conversation finishes.
    const MTU: usize = 1500;
    let mut longest_sacks = 0;
    for seed in 1..=3u64 {
        let (_, b, msg, _) = open_loop(seed, 256, 4, |p| {
            assert!(p.len() <= MTU);
            for c in unpack(p).unwrap() {
                if c.header.ty == ChunkType::Ack {
                    let ack = AckInfo::from_chunk(&c).unwrap();
                    longest_sacks = longest_sacks.max(ack.sacks.len());
                }
            }
        });
        assert_eq!(&b.received()[..msg.len()], &msg[..], "seed {seed}");
    }
    // Some ack really ran into the cap: the SACK list alone filled most of
    // a packet.
    assert!(
        longest_sacks * 8 > MTU - 200,
        "longest SACK list {longest_sacks} never neared the MTU"
    );
}

#[test]
fn repair_on_a_skewed_multipath_costs_a_few_copies_not_dozens() {
    // The stream shape the repair storm showed on: acks return while data
    // is still in flight on paths whose delays differ by 600 µs. Repair
    // paced by the minimum RTT and acks sent only on news keep the wire
    // bytes within a small multiple of the message bytes (answering every
    // ack by resending every unacknowledged TPDU cost about 33×), and the
    // RTT estimator gets clean samples.
    for seed in 1..=2u64 {
        let (a, b, msg, wire_bytes) = open_loop(seed, 1024, 3, |_| {});
        assert_eq!(b.received_elements(), msg.len() as u64, "seed {seed}");
        assert_eq!(&b.received()[..msg.len()], &msg[..], "seed {seed}");
        assert!(
            wire_bytes <= 8 * msg.len() as u64,
            "seed {seed}: {wire_bytes} wire bytes for {} message bytes",
            msg.len()
        );
        assert!(a.reliability().rtt_samples > 0, "seed {seed}");
    }
}

//! Pieces the three workloads share: seeded inputs, the message book that
//! turns delivery events into per-message latencies and digest checks, the
//! wire tally, the shadow timings, and the deterministic outcome of a run.

use std::hint::black_box;
use std::time::Instant;

use chunks_core::label::ChunkType;
use chunks_core::packet::{spans, validate, Packet};
use chunks_core::wire::{decode_chunk_at, decode_chunk_ref, ChunkRef};
use chunks_transport::{ConnectionParams, DeliveryMode, SenderConfig, Session};
use chunks_wsc::{InvariantLayout, Wsc2};

use crate::probe::{Layer, Probe, Tally, LAYERS};

/// Path MTU of every workload.
pub const MTU: usize = 1500;
/// TPDU size in elements (one-byte elements). Fixed: the sessions never
/// run the loss adapter. At 256 elements `stream` stalls on most seeds
/// (`README.md`, "Findings", item 2).
pub const TPDU_ELEMENTS: u32 = 1024;

/// Connection parameters with one-byte elements.
pub fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: TPDU_ELEMENTS,
    }
}

/// Sender configuration for `conn_id`.
pub fn sender_config(conn_id: u32) -> SenderConfig {
    SenderConfig {
        params: params(conn_id),
        layout: InvariantLayout::default(),
        mtu: MTU,
        min_tpdu_elements: 32,
        max_tpdu_elements: 2048,
    }
}

/// One endpoint of a session pair, receiving up to `inbound_capacity`
/// bytes in place.
pub fn session(local: u32, remote: u32, inbound_capacity: u64) -> Session {
    Session::new(
        sender_config(local),
        params(remote),
        InvariantLayout::default(),
        DeliveryMode::Immediate,
        inbound_capacity,
    )
}

/// SplitMix64: the benchmark's only source of input randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// Cuts `data` into consecutive messages of the given lengths.
pub fn split<'a>(data: &'a [u8], lens: &[usize]) -> Vec<&'a [u8]> {
    let mut rest = data;
    lens.iter()
        .map(|&n| {
            let (m, r) = rest.split_at(n);
            rest = r;
            m
        })
        .collect()
}

/// A 64-bit content digest (word-wise multiply-rotate), used to compare
/// delivered bytes with sent bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in words.by_ref() {
        let w = u64::from_le_bytes(w.try_into().expect("exact chunk"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    h
}

/// One connection's messages: where each sits in connection space, its
/// digest, when it was due and when its last TPDU verified.
#[derive(Clone, Debug)]
pub struct Book {
    starts: Vec<u64>,
    lens: Vec<u64>,
    digests: Vec<u64>,
    due: Vec<u64>,
    done: Vec<Option<u64>>,
    remaining: Vec<u64>,
    slot_base: Vec<usize>,
    seen: Vec<bool>,
    /// Delivery events that named no TPDU of a booked message.
    pub misaligned: u64,
}

impl Book {
    /// Books messages laid end to end from connection-space element 0.
    pub fn new(messages: &[&[u8]]) -> Self {
        let mut book = Book {
            starts: Vec::with_capacity(messages.len()),
            lens: Vec::with_capacity(messages.len()),
            digests: Vec::with_capacity(messages.len()),
            due: vec![0; messages.len()],
            done: vec![None; messages.len()],
            remaining: Vec::with_capacity(messages.len()),
            slot_base: Vec::with_capacity(messages.len()),
            seen: Vec::new(),
            misaligned: 0,
        };
        let mut at = 0u64;
        let mut slots = 0usize;
        for m in messages {
            book.starts.push(at);
            book.lens.push(m.len() as u64);
            book.remaining.push(m.len() as u64);
            book.digests.push(digest(m));
            book.slot_base.push(slots);
            at += m.len() as u64;
            slots += m.len().div_ceil(TPDU_ELEMENTS as usize);
        }
        book.seen = vec![false; slots];
        book
    }

    /// Total booked bytes (the receiver's app-space capacity).
    pub fn total_len(&self) -> u64 {
        self.starts
            .last()
            .map_or(0, |s| s + self.lens.last().unwrap_or(&0))
    }

    /// Records when message `m` was due.
    pub fn set_due(&mut self, m: usize, at: u64) {
        self.due[m] = at;
    }

    /// Applies a `TpduDelivered { start, elements }` event seen at `now`.
    pub fn on_delivered(&mut self, start: u64, elements: u64, now: u64) {
        let m = self.starts.partition_point(|&s| s <= start);
        let Some(m) = m.checked_sub(1) else {
            self.misaligned += 1;
            return;
        };
        let off = start - self.starts[m];
        if !off.is_multiple_of(TPDU_ELEMENTS as u64) || off + elements > self.lens[m] {
            self.misaligned += 1;
            return;
        }
        let slot = self.slot_base[m] + (off / TPDU_ELEMENTS as u64) as usize;
        if std::mem::replace(&mut self.seen[slot], true) {
            return;
        }
        self.remaining[m] -= elements;
        if self.remaining[m] == 0 {
            self.done[m] = Some(now);
        }
    }

    /// True when every message verified.
    pub fn all_done(&self) -> bool {
        self.done.iter().all(Option::is_some)
    }

    /// Latest verification time.
    pub fn last_done(&self) -> u64 {
        self.done.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Folds this book into a run outcome, comparing each verified
    /// message's delivered bytes (from `app`) with the sent digest. An
    /// unverified message counts as failed, with the latency it had
    /// accrued by `horizon`.
    pub fn settle(&self, app: &[u8], horizon: u64, out: &mut Outcome) {
        for m in 0..self.starts.len() {
            out.messages += 1;
            let (lo, hi) = (
                self.starts[m] as usize,
                (self.starts[m] + self.lens[m]) as usize,
            );
            match self.done[m] {
                Some(at) => {
                    let ok = app
                        .get(lo..hi)
                        .is_some_and(|b| digest(b) == self.digests[m]);
                    if ok {
                        out.verified += 1;
                        out.verified_bytes += self.lens[m];
                    } else {
                        out.corrupted += 1;
                    }
                    out.latencies_ns.push(at - self.due[m]);
                }
                None => out.latencies_ns.push(horizon.saturating_sub(self.due[m])),
            }
        }
        out.misaligned += self.misaligned;
    }
}

/// Per-connection set of element positions already put on the wire, to
/// measure how much of the data sent was a repeat.
#[derive(Clone, Debug, Default)]
pub struct Coverage {
    bits: Vec<u64>,
}

impl Coverage {
    /// Marks `[lo, hi)` as sent; returns how many were sent before.
    pub fn mark(&mut self, lo: u64, hi: u64) -> u64 {
        let mut repeats = 0;
        let mut i = lo;
        while i < hi {
            let w = (i / 64) as usize;
            let b = i % 64;
            let n = (64 - b).min(hi - i);
            let mask = if n == 64 {
                u64::MAX
            } else {
                ((1u64 << n) - 1) << b
            };
            if w >= self.bits.len() {
                self.bits.resize(w + 1, 0);
            }
            repeats += (self.bits[w] & mask).count_ones() as u64;
            self.bits[w] |= mask;
            i += n;
        }
        repeats
    }
}

/// Frames a path's hops lost.
pub fn frames_lost(path: &chunks_netsim::Path) -> u64 {
    path.hops().iter().map(|h| h.link.stats().lost).sum()
}

/// Calls `f` on every chunk of a packet, without copying payloads.
pub fn for_each_chunk<'p>(packet: &'p Packet, mut f: impl FnMut(ChunkRef<'p>)) {
    if validate(packet).is_err() {
        return;
    }
    for (at, end) in spans(packet) {
        if let Ok((chunk, _)) = decode_chunk_ref(&packet.bytes[at..end]) {
            f(chunk);
        }
    }
}

/// Bytes put on the simulated wire, and how much of the data sent was a
/// repeat of a range already sent.
#[derive(Debug, Default)]
pub struct Wire {
    /// Frame bytes offered to the network, both directions.
    pub bytes: u64,
    /// Data-chunk payload bytes sent.
    pub data_bytes: u64,
    /// Of those, bytes whose range was already sent.
    pub retx_bytes: u64,
    coverage: Vec<Coverage>,
}

impl Wire {
    /// A tally for connections `1..=conns`.
    pub fn new(conns: usize) -> Self {
        Wire {
            coverage: vec![Coverage::default(); conns],
            ..Wire::default()
        }
    }

    /// Later packets belong to new connections reusing the same `C.ID`s.
    pub fn next_connection(&mut self) {
        for c in &mut self.coverage {
            *c = Coverage::default();
        }
    }

    /// Decodes packets the data side emitted and marks their data ranges.
    pub fn note_data(&mut self, packets: &[Packet]) {
        for p in packets {
            for_each_chunk(p, |c| {
                if c.header.ty != ChunkType::Data {
                    return;
                }
                let Some(cov) = (c.header.conn.id as usize)
                    .checked_sub(1)
                    .and_then(|i| self.coverage.get_mut(i))
                else {
                    return;
                };
                let lo = c.header.conn.sn as u64;
                let len = c.payload.len() as u64;
                self.data_bytes += len;
                self.retx_bytes += cov.mark(lo, lo + len);
            });
        }
    }
}

/// Shadow timings of the receive path's two kernels over one packet:
/// `validate` + `spans` + `decode_chunk_at`, then a `Wsc2` fold over the
/// data payloads. Returns `(decode_ns, wsc_ns)`.
pub fn shadow(packet: &Packet) -> (u64, u64) {
    let t0 = Instant::now();
    let mut chunks = 0usize;
    if validate(packet).is_ok() {
        for (at, _) in spans(packet) {
            if let Ok((chunk, _)) = decode_chunk_at(&packet.bytes, at) {
                chunks += black_box(chunk).payload.len();
            }
        }
    }
    black_box(chunks);
    let decode_ns = t0.elapsed().as_nanos() as u64;

    let mut payloads: Vec<(u64, &[u8])> = Vec::new();
    for_each_chunk(packet, |c| {
        if c.header.ty == ChunkType::Data {
            payloads.push((c.header.tpdu.sn as u64 / 4, c.payload));
        }
    });
    let t1 = Instant::now();
    let mut code = Wsc2::new();
    for (at, bytes) in payloads {
        code.add_bytes(at, bytes);
    }
    black_box(code.digest());
    (decode_ns, t1.elapsed().as_nanos() as u64)
}

/// Ack-layer allocation bytes, logged per batch of acks, by connection.
#[derive(Debug, Default)]
pub struct AckLog {
    entries: Vec<(u64, u64)>,
    /// Index of each connection's first entry, after the first connection.
    splits: Vec<usize>,
}

impl AckLog {
    /// Records `bytes` allocated while making `acks` acknowledgments.
    pub fn push(&mut self, acks: u64, bytes: u64) {
        self.entries.push((acks, bytes));
    }

    /// Later entries belong to a new connection, whose acks start afresh.
    pub fn next_connection(&mut self) {
        self.splits.push(self.entries.len());
    }

    /// Summarises the log; quarters are taken within each connection's
    /// acks and summed.
    pub fn stats(&self) -> AckStats {
        let mut s = AckStats::default();
        let mut bounds = vec![0];
        bounds.extend(&self.splits);
        bounds.push(self.entries.len());
        for w in bounds.windows(2) {
            let conn = &self.entries[w[0]..w[1]];
            let acks: u64 = conn.iter().map(|e| e.0).sum();
            s.acks += acks;
            let mut seen = 0u64;
            for &(n, b) in conn {
                s.bytes += b;
                if seen * 4 < acks {
                    s.first_q_acks += n;
                    s.first_q_bytes += b;
                }
                if seen * 4 >= acks * 3 {
                    s.last_q_acks += n;
                    s.last_q_bytes += b;
                }
                seen += n;
            }
        }
        s
    }
}

/// Ack-layer allocation summary.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct AckStats {
    /// Acknowledgments made.
    pub acks: u64,
    /// Bytes allocated making them.
    pub bytes: u64,
    /// Acks in the run's first quarter.
    pub first_q_acks: u64,
    /// Bytes allocated for them.
    pub first_q_bytes: u64,
    /// Acks in the run's last quarter.
    pub last_q_acks: u64,
    /// Bytes allocated for them.
    pub last_q_bytes: u64,
}

impl AckStats {
    /// Bytes per ack in the last quarter ÷ the first quarter.
    pub fn growth(&self) -> f64 {
        let per = |b: u64, n: u64| b as f64 / n.max(1) as f64;
        let first = per(self.first_q_bytes, self.first_q_acks);
        if first == 0.0 {
            return 0.0;
        }
        per(self.last_q_bytes, self.last_q_acks) / first
    }
}

/// Everything a run produces that must repeat exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Messages due.
    pub messages: u64,
    /// Messages verified with the bytes that were sent.
    pub verified: u64,
    /// Messages verified with different bytes (fails the run).
    pub corrupted: u64,
    /// App bytes of the verified messages.
    pub verified_bytes: u64,
    /// Per-message latency from due time to verification (simulated ns),
    /// sorted; an unverified message contributes its age at the horizon.
    pub latencies_ns: Vec<u64>,
    /// Simulated time from the first due time to the last verification.
    pub sim_ns: u64,
    /// Frame bytes offered to the simulated wire, both directions.
    pub wire_bytes: u64,
    /// Per-layer counted work.
    pub tally: [Tally; 6],
    /// Ack-layer allocation summary.
    pub acks: AckStats,
    /// Data payload bytes the sending side emitted.
    pub data_bytes_sent: u64,
    /// Of those, bytes whose range had already been sent.
    pub retx_bytes: u64,
    /// Receiver duplicate chunks (rejected before processing).
    pub dup_chunks: u64,
    /// Receiver chunks accepted.
    pub chunks_accepted: u64,
    /// Receiver bytes written.
    pub data_touches: u64,
    /// RTT samples the sender's estimator absorbed.
    pub rtt_samples: u64,
    /// Frames the network lost, both directions.
    pub frames_lost: u64,
    /// Peak live connections in the connection table (0: no table).
    pub table_peak_live: u64,
    /// Longest probe sequence in the connection table (0: no table).
    pub table_max_probe: u64,
    /// Delivery events that matched no booked TPDU (must be 0).
    pub misaligned: u64,
}

impl Outcome {
    /// Copies the probe's counted work and the wire tally in.
    pub fn absorb(&mut self, probe: &Probe, wire: &Wire, acks: &AckLog) {
        for l in LAYERS {
            self.tally[l as usize] = probe.layer(l);
        }
        self.wire_bytes = wire.bytes;
        self.data_bytes_sent = wire.data_bytes;
        self.retx_bytes = wire.retx_bytes;
        self.acks = acks.stats();
        self.latencies_ns.sort_unstable();
    }

    /// Counted work of one layer.
    pub fn layer(&self, layer: Layer) -> Tally {
        self.tally[layer as usize]
    }

    /// Allocations counted in every layer.
    pub fn total_alloc(&self) -> (u64, u64) {
        self.tally
            .iter()
            .fold((0, 0), |(n, b), t| (n + t.alloc.allocs, b + t.alloc.bytes))
    }

    /// The outcome with the allocation counts cleared: what the simulated
    /// clock and the network decided. The transport's `HashMap`s use the
    /// standard library's randomly keyed hasher, and whether a table grows
    /// by reallocating or by rehashing in place depends on where earlier
    /// removals left tombstones, so allocation counts can differ by one
    /// growth between runs of the same seed; everything else may not.
    pub fn simulated(&self) -> Outcome {
        let mut o = self.clone();
        for t in &mut o.tally {
            t.alloc = Default::default();
        }
        o.acks = AckStats {
            acks: o.acks.acks,
            first_q_acks: o.acks.first_q_acks,
            last_q_acks: o.acks.last_q_acks,
            ..AckStats::default()
        };
        o
    }

    /// Nearest-rank percentile of the message latencies, in ns.
    pub fn latency_ns(&self, p: f64) -> u64 {
        let n = self.latencies_ns.len();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.latencies_ns[rank - 1]
    }
}

//! Property tests of the chunk closure and verification-fold algebra the
//! parallel pipeline rests on:
//!
//! * split-then-merge is the identity (Appendix C ∘ Appendix D = id);
//! * the WSC-2 TPDU invariant is unchanged by arbitrary split points and
//!   arbitrary fragment arrival order (§4, Figures 5/6);
//! * [`Wsc2Stream::fold`] of any permutation of disjoint partials equals the
//!   one-shot digest — the merge stage's algebraic foundation;
//! * [`TpduInvariant::fold`] over any partition of a TPDU's fragments among
//!   workers, folded in any order, equals the serial accumulator;
//! * packing is streaming: repacking the chunks of `pack(a)` ahead of more
//!   chunks gives exactly the packets of packing everything once — the
//!   reason a sender may pack each chunk exactly once.

use chunks::core::chunk::{byte_chunk, Chunk, ChunkHeader};
use chunks::core::frag::{merge, split};
use chunks::core::label::{ChunkType, FramingTuple};
use chunks::core::packet::{pack, unpack};
use chunks::wsc::{InvariantLayout, TpduInvariant, Wsc2, Wsc2Stream};
use proptest::prelude::*;

/// Deterministic LCG over a seed — used for shuffles and partitions so a
/// failing case reproduces from its proptest-reported inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn data_chunk(payload: &[u8], t_st: bool, x_st: bool) -> Chunk {
    byte_chunk(
        FramingTuple::new(0x0C0A, 700, false),
        FramingTuple::new(0x51, 0, t_st),
        FramingTuple::new(0xE0, 44, x_st),
        payload,
    )
}

/// Splits `chunk` into fragments at pseudo-random points until no fragment
/// exceeds `max_len` elements.
fn frag_randomly(chunk: Chunk, max_len: u32, lcg: &mut Lcg) -> Vec<Chunk> {
    let mut out = Vec::new();
    let mut work = vec![chunk];
    while let Some(c) = work.pop() {
        if c.header.len <= max_len {
            out.push(c);
            continue;
        }
        let at = 1 + lcg.below(c.header.len as usize - 1) as u32;
        let (a, b) = split(&c, at).expect("in-range split");
        work.push(b);
        work.push(a);
    }
    // `pop` order already yields front-to-back; keep that as arrival order
    // until the caller shuffles.
    out
}

/// A seeded chunk of one of the kinds a transmit batch carries: `0` an ED
/// chunk, `1` an ack (8–55 bytes), anything else a data chunk of 1 to
/// `max_len` elements of 1, 2 or 4 bytes.
fn seeded_chunk(lcg: &mut Lcg, kind: usize, max_len: usize) -> Chunk {
    let conn = FramingTuple::new(3, lcg.next() as u32, false);
    let tpdu = FramingTuple::new(0x51, 0, lcg.below(2) == 0);
    let ext = FramingTuple::new(0xE0, 0, false);
    let header = match kind {
        0 => ChunkHeader::control(ChunkType::ErrorDetection, 8, conn, tpdu, ext),
        1 => ChunkHeader::control(ChunkType::Ack, 8 + lcg.below(48) as u16, conn, tpdu, ext),
        _ => {
            let size = [1u16, 2, 4][lcg.below(3)];
            let len = 1 + lcg.below(max_len) as u32;
            ChunkHeader::data(size, len, conn, tpdu, ext)
        }
    };
    let payload: Vec<u8> = (0..header.payload_len())
        .map(|_| lcg.next() as u8)
        .collect();
    Chunk::new(header, payload.into()).expect("consistent chunk")
}

/// A seeded run of `n` chunks, mostly data, some ED and ack chunks.
fn chunk_run(lcg: &mut Lcg, n: usize, max_len: usize) -> Vec<Chunk> {
    (0..n)
        .map(|_| {
            let kind = lcg.below(6);
            seeded_chunk(lcg, kind, max_len)
        })
        .collect()
}

/// The chunks of `pack(chunks)`, as unpacking its packets yields them.
fn repacked(chunks: &[Chunk], mtu: usize) -> Vec<Chunk> {
    pack(chunks.to_vec(), mtu)
        .unwrap()
        .iter()
        .flat_map(|p| unpack(p).unwrap())
        .collect()
}

fn digest_of(chunks: &[Chunk]) -> [u8; 8] {
    let mut inv = TpduInvariant::with_default_layout();
    for c in chunks {
        inv.absorb_chunk(&c.header, &c.payload).unwrap();
    }
    inv.digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_then_merge_is_identity(
        payload in proptest::collection::vec(any::<u8>(), 2..200),
        cut_seed in any::<u64>(),
    ) {
        let whole = data_chunk(&payload, true, false);
        let len = whole.header.len;
        let at = 1 + (cut_seed % (len as u64 - 1)) as u32;
        let (head, tail) = split(&whole, at).unwrap();
        prop_assert_eq!(head.header.len + tail.header.len, len);
        prop_assert_eq!(merge(&head, &tail).unwrap(), whole);
    }

    #[test]
    fn recursive_fragments_merge_back_to_the_original(
        payload in proptest::collection::vec(any::<u8>(), 2..200),
        seed in any::<u64>(),
        max_len in 1u32..8,
    ) {
        // Any number of in-network refragmentation steps still ends in
        // single-step reassembly: fold-merge the fragments front to back.
        let whole = data_chunk(&payload, true, true);
        let mut lcg = Lcg(seed);
        let frags = frag_randomly(whole.clone(), max_len, &mut lcg);
        let mut acc = frags[0].clone();
        for f in &frags[1..] {
            acc = merge(&acc, f).unwrap();
        }
        prop_assert_eq!(acc, whole);
    }

    #[test]
    fn wsc2_invariant_survives_any_fragmentation_and_order(
        payload in proptest::collection::vec(any::<u8>(), 2..200),
        seed in any::<u64>(),
        max_len in 1u32..6,
    ) {
        let whole = data_chunk(&payload, true, false);
        let base = digest_of(std::slice::from_ref(&whole));
        let mut lcg = Lcg(seed);
        let mut frags = frag_randomly(whole, max_len, &mut lcg);
        lcg.shuffle(&mut frags);
        prop_assert_eq!(digest_of(&frags), base);
    }

    #[test]
    fn stream_fold_of_any_permutation_matches_one_shot(
        bytes in proptest::collection::vec(any::<u8>(), 4..256),
        seed in any::<u64>(),
        pieces in 2usize..9,
    ) {
        // One-shot reference over the whole byte string.
        let mut whole = Wsc2::new();
        whole.add_bytes(0, &bytes);

        // Cut at symbol (4-byte) boundaries so partials cover disjoint
        // positions, one stream per piece.
        let symbols = bytes.len().div_ceil(4);
        let mut lcg = Lcg(seed);
        let mut cuts: Vec<usize> = (0..pieces - 1)
            .map(|_| (1 + lcg.below(symbols.max(2) - 1)) * 4)
            .collect();
        cuts.push(0);
        cuts.push(bytes.len().next_multiple_of(4));
        cuts.sort_unstable();
        cuts.dedup();

        let mut partials: Vec<Wsc2Stream> = cuts
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1].min(bytes.len()));
                let mut s = Wsc2Stream::new();
                if lo < bytes.len() {
                    s.add_bytes(lo as u64 / 4, &bytes[lo..hi]);
                }
                s
            })
            .collect();
        lcg.shuffle(&mut partials);

        let mut acc = Wsc2Stream::new();
        for p in &partials {
            acc.fold(p);
        }
        prop_assert_eq!(acc.digest(), whole.digest());

        // fold_code over the raw code values is the same sum.
        let mut via_codes = Wsc2Stream::new();
        for p in &partials {
            via_codes.fold_code(&p.code());
        }
        prop_assert_eq!(via_codes.digest(), whole.digest());
    }

    #[test]
    fn invariant_fold_over_any_worker_partition_matches_serial(
        payload in proptest::collection::vec(any::<u8>(), 2..160),
        seed in any::<u64>(),
        workers in 1usize..6,
        max_len in 1u32..5,
    ) {
        let whole = data_chunk(&payload, true, true);
        let base = digest_of(std::slice::from_ref(&whole));

        // Fragment, then deal the fragments to `workers` independent
        // partial accumulators — an arbitrary assignment, like a pipeline
        // sharding chunks rather than connections would produce.
        let mut lcg = Lcg(seed);
        let mut frags = frag_randomly(whole, max_len, &mut lcg);
        lcg.shuffle(&mut frags);
        let mut partials: Vec<TpduInvariant> = (0..workers)
            .map(|_| TpduInvariant::with_default_layout())
            .collect();
        for f in &frags {
            let w = lcg.below(workers);
            partials[w].absorb_chunk(&f.header, &f.payload).unwrap();
        }

        // Fold the partials in a shuffled order.
        let mut order: Vec<usize> = (0..workers).collect();
        lcg.shuffle(&mut order);
        let mut acc = TpduInvariant::with_default_layout();
        for &w in &order {
            acc.fold(&partials[w]).unwrap();
        }
        prop_assert_eq!(acc.digest(), base);
        prop_assert!(acc.matches(base));
    }

    #[test]
    fn borrowed_spans_decode_bitwise_equal_to_owned(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..120), 1..8),
        mtu in 256usize..1500,
    ) {
        // The zero-copy walk the receive stacks take (validate →
        // chunks_in), its span form (spans → decode_chunk_at) and the
        // borrowed view (decode_chunk_ref) must reproduce the owned decode
        // (unpack) bit for bit, for arbitrary packed chunk sequences — and
        // the borrowed payloads must point *into* the packet buffer.
        use chunks::core::packet::{chunks_in, pack, spans, unpack, validate};
        use chunks::core::wire::{decode_chunk_at, decode_chunk_ref};

        let chunks: Vec<Chunk> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                byte_chunk(
                    FramingTuple::new(7, (i * 256) as u32, false),
                    FramingTuple::new(0x51, (i * 256) as u32, i + 1 == payloads.len()),
                    FramingTuple::new(0xE0, 0, false),
                    p,
                )
            })
            .collect();
        for packet in pack(chunks, mtu).unwrap() {
            let owned = unpack(&packet).unwrap();
            prop_assert!(validate(&packet).is_ok());
            let range = packet.bytes.as_ptr_range();
            let mut walked = Vec::new();
            for (at, end) in spans(&packet) {
                let (chunk, used) = decode_chunk_at(&packet.bytes, at).unwrap();
                prop_assert_eq!(at + used, end);
                let (cref, used_ref) = decode_chunk_ref(&packet.bytes[at..]).unwrap();
                prop_assert_eq!(used_ref, used);
                prop_assert_eq!(&cref.to_chunk(), &chunk);
                prop_assert_eq!(&chunk.payload[..], cref.payload);
                if !chunk.payload.is_empty() {
                    let p = chunk.payload.as_ptr_range();
                    prop_assert!(p.start >= range.start && p.end <= range.end,
                        "decode_chunk_at copied the payload");
                }
                walked.push(chunk);
            }
            prop_assert_eq!(&walked, &owned);
            prop_assert_eq!(chunks_in(&packet).collect::<Vec<_>>(), owned);
        }
    }

    #[test]
    fn arena_interval_set_matches_vec_oracle(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u64..512, 1u64..96), 1..200),
        probes in proptest::collection::vec((0u64..640, 1u64..64), 8),
    ) {
        // The slab-backed set the hot path uses, against the Vec-backed
        // oracle, under random insert/subtract — every observable compared
        // after every op.
        use chunks::vreasm::{ArenaIntervalSet, IntervalSet};

        let mut arena = ArenaIntervalSet::new();
        let mut oracle = IntervalSet::new();
        for &(is_insert, start, len) in &ops {
            let end = start + len;
            if is_insert {
                prop_assert_eq!(arena.insert(start, end), oracle.insert(start, end));
            } else {
                prop_assert_eq!(arena.subtract(start, end), oracle.subtract(start, end));
            }
            let ranges: Vec<(u64, u64)> = arena.iter().collect();
            prop_assert_eq!(&ranges[..], oracle.ranges());
            prop_assert_eq!(arena.covered(), oracle.covered());
            prop_assert_eq!(arena.fragments(), oracle.fragments());
            for &(s, l) in &probes {
                prop_assert_eq!(arena.overlap(s, s + l), oracle.overlap(s, s + l));
                prop_assert_eq!(arena.contains(s, s + l), oracle.contains(s, s + l));
                prop_assert_eq!(arena.uncovered(s, s + l), oracle.uncovered(s, s + l));
                prop_assert_eq!(arena.gaps(s + l), oracle.gaps(s + l));
                prop_assert_eq!(arena.is_contiguous_to(s), oracle.is_contiguous_to(s));
            }
        }
        // `clear` recycles every node; the set behaves as new.
        arena.clear();
        prop_assert_eq!(arena.covered(), 0);
        prop_assert_eq!(arena.insert(3, 9), 0, "clean insert overlaps nothing");
        prop_assert_eq!(arena.covered(), 6);
    }

    #[test]
    fn packing_a_repacked_prefix_equals_packing_once(
        seed in any::<u64>(),
        mtu in 96usize..1500,
        head in 1usize..24,
        tail in 0usize..24,
    ) {
        // Greedy first-fit with one open packet is streaming: the pieces of
        // `pack(a)` rebuild its packets and leave the same packet open, so
        // whatever follows lands exactly where it would have.
        let mut lcg = Lcg(seed);
        let a = chunk_run(&mut lcg, head, 700);
        let c = chunk_run(&mut lcg, tail, 700);
        let once = pack(a.iter().chain(&c).cloned(), mtu).unwrap();
        let old = pack(repacked(&a, mtu).into_iter().chain(c), mtu).unwrap();
        prop_assert_eq!(once, old);
    }

    #[test]
    fn packing_once_equals_pack_unpack_repack_of_each_segment(
        seed in any::<u64>(),
        mtu in 96usize..1500,
        head in 1usize..24,
        segments in 0usize..6,
    ) {
        // A transmit batch as the session builds it: a first segment (the
        // pending window or an ack-driven repair, any size), then timer
        // retransmissions of one TPDU each, then the ack. Packing each
        // segment, unpacking it and repacking the lot gives the packets of
        // packing everything once — provided every later segment fits one
        // packet, as a TPDU no larger than the MTU does. (A later segment
        // that `pack` must split can be cut differently once it starts in a
        // partly filled packet; packing once never adds those cuts.)
        let mut lcg = Lcg(seed);
        let first = chunk_run(&mut lcg, head, 700);
        // Data of at most `room` 4-byte elements plus its ED chunk fit one
        // packet.
        let room = (mtu - 2 * 32 - 8) / 4;
        let later: Vec<Vec<Chunk>> = (0..segments)
            .map(|_| vec![seeded_chunk(&mut lcg, 2, room), seeded_chunk(&mut lcg, 0, 0)])
            .collect();
        for segment in &later {
            prop_assert_eq!(pack(segment.clone(), mtu).unwrap().len(), 1);
        }
        let ack = seeded_chunk(&mut lcg, 1, 0);

        let once = pack(
            first.iter().chain(later.iter().flatten()).chain([&ack]).cloned(),
            mtu,
        )
        .unwrap();
        let mut old_queue = repacked(&first, mtu);
        for segment in &later {
            old_queue.extend(repacked(segment, mtu));
        }
        old_queue.push(ack);
        prop_assert_eq!(once, pack(old_queue, mtu).unwrap());
    }

    #[test]
    fn invariant_fold_rejects_disagreeing_partials(
        payload in proptest::collection::vec(any::<u8>(), 4..64),
        flip in 1u32..u32::MAX,
    ) {
        let whole = data_chunk(&payload, true, false);
        let (a, mut b) = split(&whole, whole.header.len / 2).unwrap();
        b.header.tpdu.id ^= flip;
        let mut pa = TpduInvariant::with_default_layout();
        pa.absorb_chunk(&a.header, &a.payload).unwrap();
        let mut pb = TpduInvariant::with_default_layout();
        pb.absorb_chunk(&b.header, &b.payload).unwrap();
        prop_assert!(pa.fold(&pb).is_err());
    }
}

#[test]
fn layout_positions_are_disjoint() {
    // The invariant's special positions never collide with data symbols —
    // the property the whole Figure 5/6 layout depends on.
    let layout = InvariantLayout::with_data_symbols(1024);
    assert!(layout.tid_pos() >= 1024);
    assert!(layout.cid_pos() > layout.tid_pos());
    assert!(layout.cst_pos() > layout.cid_pos());
    assert!(layout.x_pair_pos(0) > layout.cst_pos());
}

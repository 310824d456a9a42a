//! Packets as envelopes for chunks (§2, Figure 3).
//!
//! "Packets can be considered envelopes that carry integral numbers of
//! chunks." When a chunk is longer than a packet it is split into chunks
//! that fit; when chunks are smaller than a packet, as many as fit are
//! placed in one packet. A chunk with `LEN = 0` marks the end of the valid
//! chunks when a packet is not completely filled. Because chunks allow
//! disordering, *how* chunks are placed in packets is irrelevant.

use bytes::Bytes;
use chunks_obs::ObsSink;

use crate::chunk::Chunk;
use crate::error::CoreError;
use crate::frag::split;
use crate::wire::{
    decode_chunk, decode_chunk_observed, encode_chunk, MAX_DECODE_PAYLOAD, WIRE_HEADER_LEN,
};

/// A packet: the atomic physical unit exchanged between protocol processors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// The on-the-wire bytes: a sequence of encoded chunks, optionally
    /// terminated by an end marker and zero padding.
    pub bytes: Bytes,
}

impl Packet {
    /// The packet length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the packet carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Incrementally fills a packet with chunks up to an MTU.
#[derive(Debug)]
pub struct PacketBuilder {
    mtu: usize,
    buf: Vec<u8>,
}

impl PacketBuilder {
    /// Creates a builder for packets of at most `mtu` bytes.
    pub fn new(mtu: usize) -> Self {
        PacketBuilder {
            mtu,
            buf: Vec::with_capacity(mtu.min(9216)),
        }
    }

    /// Bytes still available in the packet under construction.
    pub fn remaining(&self) -> usize {
        self.mtu - self.buf.len()
    }

    /// True if no chunk has been added yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many data elements of a chunk with element size `size` would
    /// still fit (including the chunk's header).
    pub fn fit_elements(&self, size: u16) -> u32 {
        let rem = self.remaining();
        if rem <= WIRE_HEADER_LEN {
            return 0;
        }
        ((rem - WIRE_HEADER_LEN) / size as usize) as u32
    }

    /// Adds a whole chunk. Returns the chunk back when it does not fit.
    pub fn push(&mut self, chunk: Chunk) -> Result<(), Chunk> {
        if chunk.wire_len() > self.remaining() {
            return Err(chunk);
        }
        encode_chunk(&chunk, &mut self.buf);
        Ok(())
    }

    /// Packs `chunks` as [`pack`] does, appending the packets to `out`. The
    /// builder's buffer is the scratch space every packet is filled in, and
    /// each packet is cut from it with one exact-size copy, so a builder
    /// kept across calls packs without a per-packet MTU-sized allocation.
    /// Whatever the builder held before is discarded.
    pub fn pack_into(
        &mut self,
        chunks: impl IntoIterator<Item = Chunk>,
        out: &mut impl Extend<Packet>,
    ) -> Result<(), CoreError> {
        self.buf.clear();
        for mut chunk in chunks {
            loop {
                // Fast path: the whole chunk fits.
                match self.push(chunk) {
                    Ok(()) => break,
                    Err(back) => chunk = back,
                }
                // Split off as many elements as fit in the current packet.
                let fit = self.fit_elements(chunk.header.size);
                if fit == 0 || chunk.header.ty.is_control() {
                    // No room (or control is indivisible): start a new packet.
                    if self.is_empty() {
                        // Even an empty packet cannot take one element.
                        return Err(CoreError::ElementExceedsMtu {
                            size: chunk.header.size,
                            mtu: self.mtu,
                        });
                    }
                    out.extend([self.cut()]);
                    continue;
                }
                debug_assert!(fit < chunk.header.len);
                let (head, tail) = split(&chunk, fit)?;
                self.push(head)
                    .map_err(|_| CoreError::Truncated)
                    .expect("head sized to fit");
                out.extend([self.cut()]);
                chunk = tail;
            }
        }
        if !self.is_empty() {
            out.extend([self.cut()]);
        }
        Ok(())
    }

    /// Copies the packet filled so far out of the scratch buffer and empties
    /// the buffer for the next one.
    fn cut(&mut self) -> Packet {
        let packet = Packet {
            bytes: Bytes::copy_from_slice(&self.buf),
        };
        self.buf.clear();
        packet
    }

    /// Finishes the packet exactly as filled (no padding). The parser stops
    /// at end-of-bytes.
    pub fn finish(self) -> Packet {
        Packet {
            bytes: self.buf.into(),
        }
    }

    /// Finishes the packet padded with zeros to the full MTU — the fixed
    /// cell case (e.g. ATM). A zero header is the `LEN = 0` end marker, so
    /// the padding doubles as the terminator when at least a header's worth
    /// of space remains.
    pub fn finish_padded(mut self) -> Packet {
        self.buf.resize(self.mtu, 0);
        Packet {
            bytes: self.buf.into(),
        }
    }
}

/// Packs a sequence of chunks into packets of at most `mtu` bytes, splitting
/// chunks that do not fit (Appendix C via [`split`]). Greedy first-fit in
/// the order given; the receiver does not care about placement.
///
/// Greedy first-fit with a single open packet is a streaming algorithm:
/// repacking the chunks of `pack(a)` followed by `c` yields exactly
/// `pack(a ++ c)`, because the pieces of `pack(a)` recreate its packets and
/// leave the same packet open for `c`.
pub fn pack(chunks: impl IntoIterator<Item = Chunk>, mtu: usize) -> Result<Vec<Packet>, CoreError> {
    let mut packets = Vec::new();
    PacketBuilder::new(mtu).pack_into(chunks, &mut packets)?;
    Ok(packets)
}

/// Extracts the chunks from a packet.
///
/// Parsing stops at a `LEN = 0` end marker or at end-of-bytes; remaining
/// bytes after a marker must be zero padding. Trailing space smaller than a
/// header is accepted only when all zero.
pub fn unpack(packet: &Packet) -> Result<Vec<Chunk>, CoreError> {
    let mut chunks = Vec::new();
    let mut rest: &[u8] = &packet.bytes;
    while !rest.is_empty() {
        if rest.len() < WIRE_HEADER_LEN {
            if rest.iter().all(|&b| b == 0) {
                break;
            }
            return Err(CoreError::Truncated);
        }
        let header = crate::wire::decode_header(rest)?;
        if header.len == 0 {
            // End marker: everything after it must be padding.
            if rest[WIRE_HEADER_LEN..].iter().any(|&b| b != 0) {
                return Err(CoreError::TrailingGarbage);
            }
            break;
        }
        let (chunk, used) = decode_chunk(rest)?;
        chunks.push(chunk);
        rest = &rest[used..];
    }
    Ok(chunks)
}

/// [`unpack`] with per-chunk decode instrumentation (see
/// [`decode_chunk_observed`]): identical accept/reject behaviour, plus one
/// `ChunkDecoded`/`ChunkRejected` event and wire counter per chunk.
pub fn unpack_observed(
    packet: &Packet,
    now: u64,
    sink: &dyn ObsSink,
) -> Result<Vec<Chunk>, CoreError> {
    let mut chunks = Vec::new();
    let mut rest: &[u8] = &packet.bytes;
    while !rest.is_empty() {
        if rest.len() < WIRE_HEADER_LEN {
            if rest.iter().all(|&b| b == 0) {
                break;
            }
            return Err(CoreError::Truncated);
        }
        let header = crate::wire::decode_header(rest)?;
        if header.len == 0 {
            if rest[WIRE_HEADER_LEN..].iter().any(|&b| b != 0) {
                return Err(CoreError::TrailingGarbage);
            }
            break;
        }
        let (chunk, used) = decode_chunk_observed(rest, now, sink)?;
        chunks.push(chunk);
        rest = &rest[used..];
    }
    Ok(chunks)
}

/// Scans a packet's encoded chunks without materialising payloads, returning
/// the byte span `[start, end)` of each chunk in placement order.
///
/// Validation is identical to [`unpack`]: the same end-marker, padding,
/// truncation, oversize and header rules apply, so a packet is either
/// accepted by both functions with the same chunk boundaries or rejected by
/// both. A sharded dispatcher uses this to route cheap [`bytes::Bytes`]
/// sub-slices of the packet to workers without touching a single payload
/// byte on the dispatch stage.
pub fn chunk_spans(packet: &Packet) -> Result<Vec<(usize, usize)>, CoreError> {
    let bytes: &[u8] = &packet.bytes;
    let mut spans = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < WIRE_HEADER_LEN {
            if rest.iter().all(|&b| b == 0) {
                break;
            }
            return Err(CoreError::Truncated);
        }
        let header = crate::wire::decode_header(rest)?;
        if header.len == 0 {
            if rest[WIRE_HEADER_LEN..].iter().any(|&b| b != 0) {
                return Err(CoreError::TrailingGarbage);
            }
            break;
        }
        header.validate()?;
        // Same widened bound check as `decode_chunk` (the claim approaches
        // 2^48 and must not touch usize arithmetic first).
        let claimed = header.size as u64 * header.len as u64;
        if claimed > MAX_DECODE_PAYLOAD as u64 {
            return Err(CoreError::OversizedLen {
                claimed,
                max: MAX_DECODE_PAYLOAD as u64,
            });
        }
        let total = WIRE_HEADER_LEN + claimed as usize;
        if rest.len() < total {
            return Err(CoreError::Truncated);
        }
        spans.push((at, at + total));
        at += total;
    }
    Ok(spans)
}

/// Validates a packet's framing without allocating, returning the number of
/// chunks it carries.
///
/// This is the allocation-free twin of [`chunk_spans`]: the same end-marker,
/// padding, truncation, oversize and header rules apply, so a packet is
/// accepted by `validate` exactly when `chunk_spans`/[`unpack`] accept it,
/// with the same error otherwise. The zero-copy receive path runs this scan
/// first — preserving `unpack`'s whole-packet reject semantics — and then
/// walks the (now known-good) spans with [`spans`], decoding each chunk in
/// place without a `Vec` of spans or a `Vec` of chunks.
pub fn validate(packet: &Packet) -> Result<usize, CoreError> {
    let bytes: &[u8] = &packet.bytes;
    let mut count = 0usize;
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < WIRE_HEADER_LEN {
            if rest.iter().all(|&b| b == 0) {
                break;
            }
            return Err(CoreError::Truncated);
        }
        let header = crate::wire::decode_header(rest)?;
        if header.len == 0 {
            if rest[WIRE_HEADER_LEN..].iter().any(|&b| b != 0) {
                return Err(CoreError::TrailingGarbage);
            }
            break;
        }
        header.validate()?;
        let claimed = header.size as u64 * header.len as u64;
        if claimed > MAX_DECODE_PAYLOAD as u64 {
            return Err(CoreError::OversizedLen {
                claimed,
                max: MAX_DECODE_PAYLOAD as u64,
            });
        }
        let total = WIRE_HEADER_LEN + claimed as usize;
        if rest.len() < total {
            return Err(CoreError::Truncated);
        }
        count += 1;
        at += total;
    }
    Ok(count)
}

/// Iterates the chunk byte spans of an **already-validated** packet without
/// allocating. On a packet [`validate`] accepted, this yields exactly the
/// spans [`chunk_spans`] would collect; on anything else it simply stops at
/// the first inconsistency (it cannot report errors — run [`validate`]
/// first).
pub fn spans(packet: &Packet) -> Spans<'_> {
    Spans {
        bytes: &packet.bytes,
        at: 0,
    }
}

/// Iterator over chunk spans of a validated packet. See [`spans`].
#[derive(Debug)]
pub struct Spans<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Iterator for Spans<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.at >= self.bytes.len() {
            return None;
        }
        let rest = &self.bytes[self.at..];
        if rest.len() < WIRE_HEADER_LEN {
            return None;
        }
        let header = crate::wire::decode_header(rest).ok()?;
        if header.len == 0 {
            return None;
        }
        let claimed = header.size as u64 * header.len as u64;
        if claimed > MAX_DECODE_PAYLOAD as u64 {
            return None;
        }
        let total = WIRE_HEADER_LEN + claimed as usize;
        if rest.len() < total {
            return None;
        }
        let span = (self.at, self.at + total);
        self.at += total;
        Some(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{byte_chunk, Chunk, ChunkHeader};
    use crate::frag::ReassemblyPool;
    use crate::label::{ChunkType, FramingTuple};

    fn data_chunk(len: u32) -> Chunk {
        let payload: Vec<u8> = (0..len as u8).collect();
        byte_chunk(
            FramingTuple::new(1, 0, false),
            FramingTuple::new(2, 0, true),
            FramingTuple::new(3, 0, false),
            &payload,
        )
    }

    fn ed_chunk() -> Chunk {
        Chunk::new(
            ChunkHeader::control(
                ChunkType::ErrorDetection,
                8,
                FramingTuple::new(1, 0, false),
                FramingTuple::new(2, 0, false),
                FramingTuple::new(3, 0, false),
            ),
            Bytes::from_static(&[0xEE; 8]),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_single_packet() {
        let chunks = vec![data_chunk(7), ed_chunk()];
        let packets = pack(chunks.clone(), 1500).unwrap();
        assert_eq!(packets.len(), 1, "both chunks share one envelope (Fig. 3)");
        assert_eq!(unpack(&packets[0]).unwrap(), chunks);
    }

    #[test]
    fn oversized_chunk_is_split_across_packets() {
        let c = data_chunk(100);
        let mtu = WIRE_HEADER_LEN + 40;
        let packets = pack(vec![c.clone()], mtu).unwrap();
        assert_eq!(packets.len(), 3); // 40 + 40 + 20 elements
        let mut pool = ReassemblyPool::new();
        for p in &packets {
            assert!(p.len() <= mtu);
            for chunk in unpack(p).unwrap() {
                pool.insert(chunk);
            }
        }
        assert_eq!(pool.take_complete().unwrap(), c);
    }

    #[test]
    fn control_chunk_never_split() {
        // ED payload (8B) + header does not fit after the data chunk; it
        // must move whole to the next packet.
        let mtu = WIRE_HEADER_LEN + 10;
        let packets = pack(vec![data_chunk(10), ed_chunk()], mtu).unwrap();
        assert_eq!(packets.len(), 2);
        let second = unpack(&packets[1]).unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].header.ty, ChunkType::ErrorDetection);
    }

    #[test]
    fn element_too_large_for_any_packet() {
        let err = pack(vec![ed_chunk()], WIRE_HEADER_LEN + 4).unwrap_err();
        assert!(matches!(err, CoreError::ElementExceedsMtu { size: 8, .. }));
    }

    #[test]
    fn padded_packet_parses_with_end_marker() {
        let mut b = PacketBuilder::new(200);
        b.push(data_chunk(5)).unwrap();
        let p = b.finish_padded();
        assert_eq!(p.len(), 200);
        let chunks = unpack(&p).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].header.len, 5);
    }

    #[test]
    fn padding_smaller_than_header_accepted() {
        let mtu = WIRE_HEADER_LEN + 5 + 10; // 10 bytes of sub-header padding
        let mut b = PacketBuilder::new(mtu);
        b.push(data_chunk(5)).unwrap();
        let p = b.finish_padded();
        assert_eq!(unpack(&p).unwrap().len(), 1);
    }

    #[test]
    fn garbage_after_end_marker_rejected() {
        let mut b = PacketBuilder::new(200);
        b.push(data_chunk(5)).unwrap();
        let p = b.finish_padded();
        let mut raw = p.bytes.to_vec();
        *raw.last_mut().unwrap() = 0xFF;
        let bad = Packet { bytes: raw.into() };
        assert_eq!(unpack(&bad).unwrap_err(), CoreError::TrailingGarbage);
    }

    #[test]
    fn multiple_small_chunks_share_packet() {
        let mut chunks = Vec::new();
        for i in 0..5u32 {
            chunks.push(byte_chunk(
                FramingTuple::new(1, i * 4, false),
                FramingTuple::new(2, i * 4, false),
                FramingTuple::new(3, i * 4, false),
                &[i as u8; 4],
            ));
        }
        let packets = pack(chunks.clone(), 1500).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(unpack(&packets[0]).unwrap(), chunks);
    }

    #[test]
    fn builder_fit_elements_accounts_for_header() {
        let b = PacketBuilder::new(WIRE_HEADER_LEN + 10);
        assert_eq!(b.fit_elements(1), 10);
        assert_eq!(b.fit_elements(4), 2);
        assert_eq!(b.fit_elements(11), 0);
        let tiny = PacketBuilder::new(WIRE_HEADER_LEN);
        assert_eq!(tiny.fit_elements(1), 0);
    }

    #[test]
    fn empty_chunk_list_produces_no_packets() {
        assert!(pack(vec![], 1500).unwrap().is_empty());
    }

    /// `chunk_spans` and `unpack` must agree chunk-for-chunk on accepted
    /// packets and error-for-error on rejected ones — the property a
    /// zero-copy dispatch stage depends on.
    fn assert_spans_agree(p: &Packet) {
        match (chunk_spans(p), unpack(p)) {
            (Ok(spans), Ok(chunks)) => {
                assert_eq!(spans.len(), chunks.len());
                for ((lo, hi), chunk) in spans.iter().zip(&chunks) {
                    let (decoded, used) = decode_chunk(&p.bytes[*lo..*hi]).unwrap();
                    assert_eq!(used, hi - lo);
                    assert_eq!(&decoded, chunk);
                }
                // The allocation-free scan agrees too, span for span.
                assert_eq!(validate(p).unwrap(), spans.len());
                let streamed: Vec<(usize, usize)> = super::spans(p).collect();
                assert_eq!(streamed, spans);
                // And the zero-copy decode sees the same chunks, sharing the
                // packet's buffer instead of copying out of it.
                for ((lo, hi), chunk) in spans.iter().zip(&chunks) {
                    let (zc, used) = crate::wire::decode_chunk_at(&p.bytes, *lo).unwrap();
                    assert_eq!(used, hi - lo);
                    assert_eq!(&zc, chunk);
                    let range = p.bytes.as_ptr_range();
                    if !zc.payload.is_empty() {
                        let pp = zc.payload.as_ptr();
                        assert!(
                            range.contains(&pp),
                            "zero-copy payload must borrow the packet buffer"
                        );
                    }
                }
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b);
                assert_eq!(validate(p).unwrap_err(), a);
            }
            (a, b) => panic!("span scan {a:?} disagrees with unpack {b:?}"),
        }
    }

    #[test]
    fn spans_agree_with_unpack_on_wellformed_packets() {
        let chunks = vec![data_chunk(7), ed_chunk(), data_chunk(30)];
        for p in pack(chunks, 120).unwrap() {
            assert_spans_agree(&p);
        }
        let mut b = PacketBuilder::new(200);
        b.push(data_chunk(5)).unwrap();
        assert_spans_agree(&b.finish_padded());
        assert_spans_agree(&Packet {
            bytes: Bytes::new(),
        });
    }

    #[test]
    fn spans_agree_with_unpack_on_malformed_packets() {
        // Truncated mid-payload.
        let mut raw = Vec::new();
        encode_chunk(&data_chunk(9), &mut raw);
        raw.truncate(raw.len() - 3);
        assert_spans_agree(&Packet { bytes: raw.into() });
        // Garbage after the end marker.
        let mut b = PacketBuilder::new(120);
        b.push(data_chunk(5)).unwrap();
        let mut raw = b.finish_padded().bytes.to_vec();
        *raw.last_mut().unwrap() = 0x42;
        assert_spans_agree(&Packet { bytes: raw.into() });
        // Unknown TYPE byte.
        let mut raw = Vec::new();
        encode_chunk(&data_chunk(4), &mut raw);
        raw[0] = 0x7F;
        assert_spans_agree(&Packet { bytes: raw.into() });
        // Oversized claim.
        let mut raw = Vec::new();
        encode_chunk(&data_chunk(4), &mut raw);
        raw[2] = 0xFF;
        raw[3] = 0xFF;
        raw[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_spans_agree(&Packet { bytes: raw.into() });
        // Sub-header trailing garbage.
        let mut raw = Vec::new();
        encode_chunk(&data_chunk(4), &mut raw);
        raw.extend_from_slice(&[0, 0, 0x99]);
        assert_spans_agree(&Packet { bytes: raw.into() });
    }
}

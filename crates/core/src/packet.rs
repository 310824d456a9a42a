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

use crate::chunk::{Chunk, ChunkHeader};
use crate::error::CoreError;
use crate::frag::split;
use crate::wire::{chunk_extent, decode_header, encode_chunk, observe_decode, WIRE_HEADER_LEN};

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

/// Why the framing walk refused a packet.
#[derive(Debug)]
struct Refusal {
    error: CoreError,
    /// Start of the chunk that failed its own checks (see
    /// [`crate::wire::chunk_extent`]); `None` for a framing failure outside
    /// any chunk: a sub-header tail that is not zero padding, a header that
    /// does not decode, or nonzero bytes after the end marker.
    chunk: Option<usize>,
}

/// The framing walk over a packet's bytes: yields each chunk as
/// `(start, header, wire length)` in placement order, and ends at the end
/// of the chunk sequence or right after the first [`Refusal`].
///
/// The chunk sequence ends at end-of-bytes or at a `LEN = 0` end marker;
/// everything after a marker must be zero padding, and a tail shorter than
/// a header is accepted only when all zero. Every packet reader in this
/// module is this walk.
#[derive(Debug)]
struct Frames<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Iterator for Frames<'_> {
    type Item = Result<(usize, ChunkHeader, usize), Refusal>;

    fn next(&mut self) -> Option<Self::Item> {
        let at = self.at;
        let rest = self.bytes.get(at..).filter(|rest| !rest.is_empty())?;
        // Every outcome but a well-formed chunk ends the walk.
        self.at = self.bytes.len();
        let framing = |error| Err(Refusal { error, chunk: None });
        let zeros = |tail: &[u8]| tail.iter().all(|&b| b == 0);
        if rest.len() < WIRE_HEADER_LEN {
            return (!zeros(rest)).then(|| framing(CoreError::Truncated));
        }
        let header = match decode_header(rest) {
            Ok(header) => header,
            Err(error) => return Some(framing(error)),
        };
        if header.len == 0 {
            // An end marker: only zero padding may follow it.
            let tail = &rest[WIRE_HEADER_LEN..];
            return (!zeros(tail)).then(|| framing(CoreError::TrailingGarbage));
        }
        match chunk_extent(&header, rest) {
            Ok(total) => {
                self.at = at + total;
                Some(Ok((at, header, total)))
            }
            Err(error) => {
                let chunk = Some(at);
                Some(Err(Refusal { error, chunk }))
            }
        }
    }
}

fn frames(packet: &Packet) -> Frames<'_> {
    Frames {
        bytes: &packet.bytes,
        at: 0,
    }
}

/// Extracts the chunks from a packet, **copying** each payload out of it.
///
/// This is the owned reference decode the zero-copy walk ([`validate`] then
/// [`chunks_in`]) is tested against: both accept exactly the same packets,
/// refuse the rest with the same error, and yield bitwise-equal chunks.
pub fn unpack(packet: &Packet) -> Result<Vec<Chunk>, CoreError> {
    frames(packet)
        .map(|frame| {
            let (at, header, total) = frame.map_err(|r| r.error)?;
            let payload = Bytes::copy_from_slice(&packet.bytes[at + WIRE_HEADER_LEN..at + total]);
            Ok(Chunk { header, payload })
        })
        .collect()
}

/// Validates a packet's framing without allocating, returning the number of
/// chunks it carries.
///
/// A packet is accepted exactly when [`unpack`] accepts it, with the same
/// error otherwise. The zero-copy receive path runs this scan first —
/// keeping the whole-packet reject semantics — and then walks the (now
/// known-good) chunks with [`chunks_in`], without a `Vec` of spans or of
/// chunks.
pub fn validate(packet: &Packet) -> Result<usize, CoreError> {
    frames(packet).try_fold(0, |count, frame| {
        frame.map(|_| count + 1).map_err(|r| r.error)
    })
}

/// [`validate`] with verbose decode instrumentation: the same walk, plus
/// [`observe_decode`] for every chunk it reaches, so a packet's
/// `ChunkDecoded` events precede anything its chunks cause downstream. On a
/// refused packet the chunks before the bad one are reported as decoded, and
/// the bad one as rejected when it failed its own checks; a framing failure
/// outside any chunk raises no event.
pub fn validate_observed(
    packet: &Packet,
    now: u64,
    sink: &dyn ObsSink,
) -> Result<usize, CoreError> {
    frames(packet).try_fold(0, |count, frame| match frame {
        Ok((at, header, _)) => {
            observe_decode(&packet.bytes[at..], Ok(&header), now, sink);
            Ok(count + 1)
        }
        Err(Refusal { error, chunk }) => {
            if let Some(at) = chunk {
                observe_decode(&packet.bytes[at..], Err(&error), now, sink);
            }
            Err(error)
        }
    })
}

/// Iterates the chunk byte spans `[start, end)` of an **already-validated**
/// packet without allocating. On anything else it stops at the first
/// inconsistency (it cannot report errors — run [`validate`] first).
pub fn spans(packet: &Packet) -> Spans<'_> {
    Spans {
        frames: frames(packet),
    }
}

/// Iterator over chunk spans of a validated packet. See [`spans`].
#[derive(Debug)]
pub struct Spans<'a> {
    frames: Frames<'a>,
}

impl Iterator for Spans<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let (at, _, total) = self.frames.next()?.ok()?;
        Some((at, at + total))
    }
}

/// Iterates the chunks of an **already-validated** packet, each payload a
/// zero-copy slice sharing the packet's buffer: no payload byte is copied
/// and nothing is allocated. This is how a packet enters every receive
/// stack. Like [`spans`], it stops at the first inconsistency of a packet
/// [`validate`] would refuse.
pub fn chunks_in(packet: &Packet) -> impl Iterator<Item = Chunk> + '_ {
    frames(packet).map_while(|frame| {
        let (at, header, total) = frame.ok()?;
        let payload = packet.bytes.slice(at + WIRE_HEADER_LEN..at + total);
        Some(Chunk { header, payload })
    })
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

    /// The zero-copy walk and `unpack` must agree chunk-for-chunk on
    /// accepted packets and error-for-error on rejected ones — the property
    /// every receive stack depends on.
    fn assert_spans_agree(p: &Packet) {
        let observed = validate_observed(p, 0, &*chunks_obs::null());
        assert_eq!(observed, validate(p), "observing the walk changed it");
        let walked = validate(p).map(|count| {
            let zero_copy: Vec<Chunk> = chunks_in(p).collect();
            assert_eq!(zero_copy.len(), count);
            zero_copy
        });
        assert_eq!(walked, unpack(p));
        // On an accepted packet the spans frame the same chunks, and the
        // zero-copy payloads share the packet's buffer instead of copying
        // out of it.
        let Ok(chunks) = walked else { return };
        assert_eq!(super::spans(p).count(), chunks.len());
        let range = p.bytes.as_ptr_range();
        for ((lo, hi), chunk) in super::spans(p).zip(chunks) {
            let (decoded, used) = crate::wire::decode_chunk(&p.bytes[lo..]).unwrap();
            assert_eq!((decoded, used), (chunk.clone(), hi - lo));
            if !chunk.payload.is_empty() {
                assert!(range.contains(&chunk.payload.as_ptr()), "payload copied");
            }
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
        let wire = |len: u32| {
            let mut raw = Vec::new();
            encode_chunk(&data_chunk(len), &mut raw);
            raw
        };
        let mut truncated = wire(9);
        truncated.truncate(truncated.len() - 3);
        let mut b = PacketBuilder::new(120);
        b.push(data_chunk(5)).unwrap();
        let mut after_marker = b.finish_padded().bytes.to_vec();
        *after_marker.last_mut().unwrap() = 0x42;
        let mut bad_type = wire(4);
        bad_type[0] = 0x7F;
        let mut oversized = wire(4);
        oversized[2..8].copy_from_slice(&[0xFF; 6]);
        let mut short_tail = wire(4);
        short_tail.extend_from_slice(&[0, 0, 0x99]);
        let claimed = 0xFFFF * u32::MAX as u64;
        let max = crate::wire::MAX_DECODE_PAYLOAD as u64;
        let cases = [
            (truncated, CoreError::Truncated),
            (after_marker, CoreError::TrailingGarbage),
            (bad_type, CoreError::BadType(0x7F)),
            (oversized, CoreError::OversizedLen { claimed, max }),
            (short_tail, CoreError::Truncated),
        ];
        for (raw, error) in cases {
            let p = Packet { bytes: raw.into() };
            assert_spans_agree(&p);
            assert_eq!(validate(&p), Err(error));
        }
    }
}

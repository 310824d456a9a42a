//! Acknowledgment encoding for the error-control loop.
//!
//! Acks are ordinary control chunks, so they share packets with data
//! travelling the other way — chunks give piggybacking "without requiring
//! the explicit design of piggybacking into the error control protocol"
//! (Appendix A).

use bytes::Bytes;
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::error::CoreError;
use chunks_core::label::{ChunkType, FramingTuple};

/// Receiver feedback: a cumulative point, selectively-acknowledged TPDU
/// starts beyond it, and the precise element ranges still missing (so the
/// sender can retransmit *fragments*, not whole TPDUs — chunks make
/// sub-PDU retransmission natural because extracted sub-chunks are just
/// chunks, Appendix C).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AckInfo {
    /// All elements below this connection-space index have been verified
    /// and delivered.
    pub cumulative: u64,
    /// Starts of TPDUs verified beyond the cumulative point (selective
    /// acknowledgment).
    pub sacks: Vec<u64>,
    /// Connection-space element ranges known to be missing (negative
    /// acknowledgment list for selective retransmission).
    pub gaps: Vec<(u64, u64)>,
    /// Starts of TPDUs whose data is complete but whose ED control chunk
    /// never arrived — the sender need only re-send the 8-byte digest.
    pub need_ed: Vec<u64>,
    /// Back-pressure: the receiver's resource budget is near exhaustion and
    /// repairs should be deferred, not hammered — retransmitting into a
    /// buffer that will shed the bytes is pure livelock.
    pub pressure: bool,
}

impl AckInfo {
    /// True when the TPDU spanning `[start, end)` is fully acknowledged by
    /// this ack — below the cumulative point or selectively acknowledged.
    pub fn acknowledges(&self, start: u64, end: u64) -> bool {
        end <= self.cumulative || self.sacks.contains(&start)
    }

    /// True when the ack reports anything beyond its cumulative point and
    /// pressure flag: SACKs, gaps or missing EDs.
    pub fn has_open_items(&self) -> bool {
        !(self.sacks.is_empty() && self.gaps.is_empty() && self.need_ed.is_empty())
    }

    /// Bytes [`Self::encode`] produces: the fixed fields (cumulative point,
    /// three list counts, pressure flag) plus 8 bytes per SACK or need-ED
    /// start and 16 per gap.
    pub fn encoded_len(&self) -> usize {
        Self::FIXED_LEN + 8 * (self.sacks.len() + self.need_ed.len()) + 16 * self.gaps.len()
    }

    /// Encoded size of an ack with empty lists.
    const FIXED_LEN: usize = 8 + 2 + 2 + 2 + 1;

    /// A copy of this ack that encodes in at most `max_bytes`. The
    /// cumulative point and the pressure flag stay exact; list entries —
    /// SACK starts, gaps by their low end, need-ED starts — go from the
    /// highest connection-space position down until the rest fits (all of
    /// them when even the fixed fields do not fit). Trimming only withholds
    /// news: a TPDU the sender no longer sees acknowledged or reported is
    /// retransmitted in full, and a gap left out is reported again by a
    /// later ack once the lower entries are repaired.
    pub fn trimmed_to(&self, max_bytes: usize) -> AckInfo {
        let mut ack = self.clone();
        ack.sacks.sort_unstable();
        ack.gaps.sort_unstable();
        ack.need_ed.sort_unstable();
        while ack.encoded_len() > max_bytes {
            let sack = ack.sacks.last().copied();
            let gap = ack.gaps.last().map(|&(lo, _)| lo);
            let ed = ack.need_ed.last().copied();
            match [sack, gap, ed].into_iter().flatten().max() {
                None => break,
                Some(top) if sack == Some(top) => drop(ack.sacks.pop()),
                Some(top) if gap == Some(top) => drop(ack.gaps.pop()),
                Some(_) => drop(ack.need_ed.pop()),
            }
        }
        ack
    }

    /// Encodes the ack payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.cumulative.to_be_bytes());
        out.extend_from_slice(&(self.sacks.len() as u16).to_be_bytes());
        for s in &self.sacks {
            out.extend_from_slice(&s.to_be_bytes());
        }
        out.extend_from_slice(&(self.gaps.len() as u16).to_be_bytes());
        for (lo, hi) in &self.gaps {
            out.extend_from_slice(&lo.to_be_bytes());
            out.extend_from_slice(&hi.to_be_bytes());
        }
        out.extend_from_slice(&(self.need_ed.len() as u16).to_be_bytes());
        for s in &self.need_ed {
            out.extend_from_slice(&s.to_be_bytes());
        }
        out.push(self.pressure as u8);
        out
    }

    /// Decodes an ack payload.
    pub fn decode(buf: &[u8]) -> Option<AckInfo> {
        if buf.len() < 12 {
            return None;
        }
        let cumulative = u64::from_be_bytes(buf[..8].try_into().ok()?);
        let n = u16::from_be_bytes(buf[8..10].try_into().ok()?) as usize;
        let gaps_at = 10 + n * 8;
        if buf.len() < gaps_at + 2 {
            return None;
        }
        let sacks = (0..n)
            .map(|i| u64::from_be_bytes(buf[10 + i * 8..18 + i * 8].try_into().unwrap()))
            .collect();
        let g = u16::from_be_bytes(buf[gaps_at..gaps_at + 2].try_into().ok()?) as usize;
        let ed_at = gaps_at + 2 + g * 16;
        if buf.len() < ed_at + 2 {
            return None;
        }
        let gaps = (0..g)
            .map(|i| {
                let at = gaps_at + 2 + i * 16;
                (
                    u64::from_be_bytes(buf[at..at + 8].try_into().unwrap()),
                    u64::from_be_bytes(buf[at + 8..at + 16].try_into().unwrap()),
                )
            })
            .collect();
        let e = u16::from_be_bytes(buf[ed_at..ed_at + 2].try_into().ok()?) as usize;
        if buf.len() != ed_at + 2 + e * 8 + 1 {
            return None;
        }
        let need_ed = (0..e)
            .map(|i| {
                let at = ed_at + 2 + i * 8;
                u64::from_be_bytes(buf[at..at + 8].try_into().unwrap())
            })
            .collect();
        let pressure = match buf[ed_at + 2 + e * 8] {
            0 => false,
            1 => true,
            _ => return None,
        };
        Some(AckInfo {
            cumulative,
            sacks,
            gaps,
            need_ed,
            pressure,
        })
    }

    /// Wraps the ack in a control chunk for `conn_id`.
    pub fn to_chunk(&self, conn_id: u32) -> Chunk {
        let payload = self.encode();
        Chunk::new(
            ChunkHeader::control(
                ChunkType::Ack,
                payload.len() as u16,
                FramingTuple::new(conn_id, 0, false),
                FramingTuple::new(0, 0, false),
                FramingTuple::new(0, 0, false),
            ),
            Bytes::from(payload),
        )
        .expect("ack chunk is consistent")
    }

    /// Extracts an ack from a control chunk.
    pub fn from_chunk(chunk: &Chunk) -> Result<AckInfo, CoreError> {
        if chunk.header.ty != ChunkType::Ack {
            return Err(CoreError::BadType(chunk.header.ty.to_u8()));
        }
        AckInfo::decode(&chunk.payload).ok_or(CoreError::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty_and_full() {
        for ack in [
            AckInfo::default(),
            AckInfo {
                cumulative: 1024,
                sacks: vec![2048, 4096, 1 << 40],
                gaps: vec![(1500, 1600), (3000, 3001)],
                need_ed: vec![4096],
                pressure: true,
            },
        ] {
            assert_eq!(AckInfo::decode(&ack.encode()), Some(ack.clone()));
            let c = ack.to_chunk(7);
            assert_eq!(AckInfo::from_chunk(&c).unwrap(), ack);
        }
    }

    #[test]
    fn truncation_rejected() {
        let ack = AckInfo {
            cumulative: 5,
            sacks: vec![10],
            gaps: vec![(20, 30)],
            need_ed: vec![40],
            pressure: false,
        };
        let buf = ack.encode();
        assert_eq!(AckInfo::decode(&buf[..buf.len() - 1]), None);
        assert_eq!(AckInfo::decode(&buf[..4]), None);
        // The pressure byte is strictly 0 or 1.
        let mut junk = buf.clone();
        *junk.last_mut().unwrap() = 7;
        assert_eq!(AckInfo::decode(&junk), None);
    }

    #[test]
    fn encoded_len_is_exact() {
        let ack = AckInfo {
            cumulative: 1,
            sacks: vec![2, 3],
            gaps: vec![(4, 5)],
            need_ed: vec![6],
            pressure: false,
        };
        assert_eq!(ack.encoded_len(), ack.encode().len());
        assert_eq!(AckInfo::default().encoded_len(), AckInfo::FIXED_LEN);
    }

    #[test]
    fn trimming_drops_the_highest_entries_first() {
        let ack = AckInfo {
            cumulative: 100,
            sacks: vec![400, 200, 700],
            gaps: vec![(150, 160), (500, 520)],
            need_ed: vec![600],
            pressure: true,
        };
        assert_eq!(
            ack.trimmed_to(ack.encoded_len()).encoded_len(),
            ack.encoded_len()
        );
        // Room for everything but 8 bytes: the top entry (SACK 700) goes.
        let t = ack.trimmed_to(ack.encoded_len() - 1);
        assert_eq!(t.sacks, vec![200, 400]);
        assert_eq!(t.need_ed, vec![600]);
        // Three more drops: need-ED 600, gap 500, SACK 400.
        let t = ack.trimmed_to(AckInfo::FIXED_LEN + 8 + 16);
        assert_eq!((t.cumulative, t.pressure), (100, true));
        assert_eq!(t.sacks, vec![200]);
        assert_eq!(t.gaps, vec![(150, 160)]);
        assert!(t.need_ed.is_empty());
        // Nothing fits but the fixed fields.
        let t = ack.trimmed_to(0);
        assert_eq!(t.encoded_len(), AckInfo::FIXED_LEN);
        assert_eq!(t.cumulative, 100);
    }

    #[test]
    fn wrong_type_rejected() {
        let ack = AckInfo::default().to_chunk(1);
        let mut wrong = ack.clone();
        wrong.header.ty = ChunkType::Signal;
        assert!(AckInfo::from_chunk(&wrong).is_err());
    }
}

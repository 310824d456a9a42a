//! Packet multiplexing and TYPE-field demultiplexing (Appendix A).
//!
//! "Packets are utilized more efficiently if multiple chunks can be carried
//! in a packet … this idea can be extended to packets that carry chunks
//! from multiple connections. Data, signaling information, and
//! acknowledgments can be combined in any combination" — which gives an
//! error-control protocol the efficiency of piggybacked acknowledgments
//! *without designing piggybacking into the protocol*.
//!
//! On the receive side, "chunks … can be demultiplexed via the TYPE field
//! and routed to the appropriate processing units"; [`ConnectionDemux`]
//! routes data and ED chunks to per-connection receivers, and acks and
//! signals to their handlers, in one pass.

use std::sync::Arc;

use chunks_core::chunk::Chunk;
use chunks_core::error::CoreError;
use chunks_core::label::ChunkType;
use chunks_core::packet::{spans, unpack, validate, Packet, PacketBuilder};
use chunks_core::wire::{decode_chunk_at, WIRE_HEADER_LEN};
use chunks_obs::{ObsSink, ShardSink};

use crate::ack::AckInfo;
use crate::conn::Signal;
use crate::receiver::{Receiver, RxEvent};
use crate::table::{ConnTable, TableConfig};

/// Collects chunks from any number of sources — data from several
/// connections, acks travelling the reverse direction, signalling — and
/// packs them into shared packets.
#[derive(Debug)]
pub struct PacketMux {
    mtu: usize,
    queue: Vec<Chunk>,
    /// The scratch packet every flush fills, kept with the queue's capacity
    /// so a long-lived mux packs without per-packet buffers.
    builder: PacketBuilder,
}

impl PacketMux {
    /// Creates a multiplexer for packets of at most `mtu` bytes.
    pub fn new(mtu: usize) -> Self {
        PacketMux {
            mtu,
            queue: Vec::new(),
            builder: PacketBuilder::new(mtu),
        }
    }

    /// Number of chunks waiting.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Queues data (or any pre-built) chunks.
    pub fn enqueue_chunks(&mut self, chunks: impl IntoIterator<Item = Chunk>) {
        self.queue.extend(chunks);
    }

    /// Queues an acknowledgment for `conn_id` — it will ride whatever
    /// packet has room (piggybacking for free). An ack whose encoding would
    /// not fit one packet is trimmed to fit ([`AckInfo::trimmed_to`]): its
    /// cumulative point stays exact and only the highest entries go, which
    /// the sender answers with full retransmissions.
    pub fn enqueue_ack(&mut self, conn_id: u32, ack: &AckInfo) {
        let room = self.mtu.saturating_sub(WIRE_HEADER_LEN);
        if ack.encoded_len() <= room {
            self.queue.push(ack.to_chunk(conn_id));
        } else {
            self.queue.push(ack.trimmed_to(room).to_chunk(conn_id));
        }
    }

    /// Queues a connection signal.
    pub fn enqueue_signal(&mut self, signal: &Signal) {
        self.queue.push(signal.to_chunk());
    }

    /// Drops everything queued.
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Packs everything queued into packets and clears the queue.
    pub fn flush(&mut self) -> Result<Vec<Packet>, CoreError> {
        let mut packets = Vec::new();
        self.flush_into(&mut packets)?;
        Ok(packets)
    }

    /// [`Self::flush`], appending the packets to `out`. The queue is
    /// cleared also on error.
    pub fn flush_into(&mut self, out: &mut impl Extend<Packet>) -> Result<(), CoreError> {
        self.builder.pack_into(self.queue.drain(..), out)
    }
}

/// Events a demultiplexer surfaces beyond per-connection receiver events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DemuxEvent {
    /// A receiver event for a registered connection.
    Connection {
        /// The connection the event belongs to.
        conn_id: u32,
        /// The receiver event.
        event: RxEvent,
    },
    /// An acknowledgment arrived for a connection we send on.
    Ack {
        /// The acknowledged connection.
        conn_id: u32,
        /// The acknowledgment.
        ack: AckInfo,
    },
    /// A connection signal arrived.
    Signal(Signal),
    /// A chunk referenced a connection no receiver is registered for.
    UnknownConnection {
        /// The unknown `C.ID`.
        conn_id: u32,
    },
}

/// Routes the chunks of incoming packets by `TYPE` and `C.ID` in a single
/// pass: data/ED to the matching [`Receiver`], acks and signals out as
/// events.
///
/// Receivers live in a [`ConnTable`] — the open-addressed, lifecycle-managed
/// connection table — so the serial demux scales to millions of live
/// connections with pooled admission, LRU eviction, and capacity
/// back-pressure. The classic `register`/`receiver`/`handle_packet` surface
/// is unchanged; [`Self::table`]/[`Self::table_mut`] expose the lifecycle
/// operations (admit, retire, idle sweep, stats).
#[derive(Debug, Default)]
pub struct ConnectionDemux {
    receivers: ConnTable,
    /// Chunks routed, by wire type byte (index = `ChunkType::to_u8`).
    pub routed: [u64; 5],
    /// Reused per-chunk event staging — keeps the steady state of
    /// [`Self::handle_packet_into`] allocation-free.
    scratch: Vec<RxEvent>,
}

impl ConnectionDemux {
    /// Creates an empty demultiplexer with an unbounded table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a demultiplexer over a table with the given sizing and
    /// eviction policy.
    pub fn with_table(cfg: TableConfig) -> Self {
        ConnectionDemux {
            receivers: ConnTable::new(cfg),
            routed: [0; 5],
            scratch: Vec::new(),
        }
    }

    /// Registers the receiver for a connection.
    pub fn register(&mut self, conn_id: u32, receiver: Receiver) {
        self.receivers.insert(conn_id, receiver, 0);
    }

    /// Access to a registered receiver.
    pub fn receiver(&self, conn_id: u32) -> Option<&Receiver> {
        self.receivers.get(conn_id)
    }

    /// Mutable access to a registered receiver.
    pub fn receiver_mut(&mut self, conn_id: u32) -> Option<&mut Receiver> {
        self.receivers.get_mut(conn_id)
    }

    /// Installs an observability sink on the connection table and on every
    /// currently registered receiver. When the sink exposes per-worker
    /// shard blocks ([`ObsSink::worker_shard`]), the demux records through
    /// its own shard — plain owner-writes on the hot path, folded into the
    /// root registry at the sink's flush barriers and on snapshot.
    /// Receivers admitted later inherit the sink through the caller's
    /// `reconfigure` closure, exactly as budgets and policies do.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        let sink = ShardSink::wrap(sink);
        self.receivers.set_obs(Arc::clone(&sink));
        for (_, rx) in self.receivers.iter_mut() {
            rx.set_obs(Arc::clone(&sink));
        }
    }

    /// The connection table: occupancy, stats, pressure.
    pub fn table(&self) -> &ConnTable {
        &self.receivers
    }

    /// Mutable table access for lifecycle operations: admission with pooled
    /// shells, explicit retirement, idle eviction sweeps.
    pub fn table_mut(&mut self) -> &mut ConnTable {
        &mut self.receivers
    }

    /// Handles one packet, routing every chunk it carries. Each data/ED
    /// chunk routed to a live receiver bumps that connection's LRU touch.
    pub fn handle_packet(&mut self, packet: &Packet, now: u64) -> Vec<DemuxEvent> {
        let mut events = Vec::new();
        self.handle_packet_into(packet, now, &mut events);
        events
    }

    /// Like [`Self::handle_packet`], appending into a caller-owned buffer.
    pub fn handle_packet_into(&mut self, packet: &Packet, now: u64, events: &mut Vec<DemuxEvent>) {
        let chunks = match unpack(packet) {
            Ok(c) => c,
            Err(_) => return,
        };
        for chunk in chunks {
            self.route_chunk(chunk, now, events);
        }
    }

    /// Zero-copy packet ingest: one validation scan, then a streaming span
    /// walk whose decoded payloads borrow the packet's `Bytes` — the serial
    /// twin of [`ParallelReceiver::ingest`](crate::parallel::ParallelReceiver::ingest)
    /// and the entry the million-connection scale harness drives. Identical
    /// routing to [`Self::handle_packet`]; a malformed chunk rejects the
    /// whole packet, exactly like `unpack`.
    pub fn ingest(&mut self, packet: &Packet, now: u64, events: &mut Vec<DemuxEvent>) {
        if validate(packet).is_err() {
            return;
        }
        for (at, _end) in spans(packet) {
            // The validation scan already vetted this span.
            let Ok((chunk, _)) = decode_chunk_at(&packet.bytes, at) else {
                continue;
            };
            self.route_chunk(chunk, now, events);
        }
    }

    /// Routes one decoded chunk — shared tail of both decode paths.
    fn route_chunk(&mut self, chunk: Chunk, now: u64, events: &mut Vec<DemuxEvent>) {
        self.routed[chunk.header.ty.to_u8() as usize] += 1;
        match chunk.header.ty {
            ChunkType::Ack => {
                if let Ok(ack) = AckInfo::from_chunk(&chunk) {
                    events.push(DemuxEvent::Ack {
                        conn_id: chunk.header.conn.id,
                        ack,
                    });
                }
            }
            ChunkType::Signal => {
                if let Ok(s) = Signal::from_chunk(&chunk) {
                    events.push(DemuxEvent::Signal(s));
                }
            }
            ChunkType::Data | ChunkType::ErrorDetection => {
                let conn_id = chunk.header.conn.id;
                let scratch = &mut self.scratch;
                match self.receivers.lookup(conn_id, now) {
                    Some(rx) => {
                        scratch.clear();
                        rx.handle_chunk_into(chunk, now, scratch);
                        for event in scratch.drain(..) {
                            events.push(DemuxEvent::Connection { conn_id, event });
                        }
                    }
                    None => events.push(DemuxEvent::UnknownConnection { conn_id }),
                }
            }
            ChunkType::Padding => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ConnectionParams;
    use crate::receiver::DeliveryMode;
    use crate::sender::{Sender, SenderConfig};
    use chunks_wsc::InvariantLayout;

    fn params(conn_id: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id,
            elem_size: 1,
            initial_csn: 0,
            tpdu_elements: 8,
        }
    }

    fn layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(1024)
    }

    fn sender(conn_id: u32) -> Sender {
        Sender::new(SenderConfig {
            params: params(conn_id),
            layout: layout(),
            mtu: 1500,
            min_tpdu_elements: 2,
            max_tpdu_elements: 64,
        })
    }

    #[test]
    fn two_connections_share_packets() {
        let mut tx1 = sender(1);
        let mut tx2 = sender(2);
        tx1.submit_simple(b"alpha___", 0xA, false);
        tx2.submit_simple(b"beta____", 0xB, false);

        let mut mux = PacketMux::new(1500);
        for tx in [&tx1, &tx2] {
            for p in tx.packets_for_pending().unwrap() {
                mux.enqueue_chunks(unpack(&p).unwrap());
            }
        }
        let packets = mux.flush().unwrap();
        assert_eq!(packets.len(), 1, "both connections share one envelope");

        let mut demux = ConnectionDemux::new();
        demux.register(
            1,
            Receiver::new(DeliveryMode::Immediate, params(1), layout(), 256),
        );
        demux.register(
            2,
            Receiver::new(DeliveryMode::Immediate, params(2), layout(), 256),
        );
        let events = demux.handle_packet(&packets[0], 0);
        let delivered: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                DemuxEvent::Connection {
                    conn_id,
                    event: RxEvent::TpduDelivered { .. },
                } => Some(*conn_id),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1, 2]);
        assert_eq!(&demux.receiver(1).unwrap().app_data()[..8], b"alpha___");
        assert_eq!(&demux.receiver(2).unwrap().app_data()[..8], b"beta____");
    }

    #[test]
    fn acks_piggyback_on_data_packets() {
        // The reverse-direction node has data of its own to send plus an
        // ack for what it received: both ride one packet.
        let mut tx = sender(3);
        tx.submit_simple(b"reverse!", 0xC, false);
        let ack = AckInfo {
            cumulative: 512,
            sacks: vec![1024],
            gaps: vec![],
            need_ed: vec![],
            pressure: false,
        };
        let mut mux = PacketMux::new(1500);
        for p in tx.packets_for_pending().unwrap() {
            mux.enqueue_chunks(unpack(&p).unwrap());
        }
        mux.enqueue_ack(9, &ack);
        let packets = mux.flush().unwrap();
        assert_eq!(packets.len(), 1, "ack costs no extra packet");

        let mut demux = ConnectionDemux::new();
        demux.register(
            3,
            Receiver::new(DeliveryMode::Immediate, params(3), layout(), 256),
        );
        let events = demux.handle_packet(&packets[0], 0);
        assert!(events.iter().any(|e| matches!(
            e,
            DemuxEvent::Ack { conn_id: 9, ack: a } if a.cumulative == 512
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            DemuxEvent::Connection {
                conn_id: 3,
                event: RxEvent::TpduDelivered { .. }
            }
        )));
    }

    #[test]
    fn signals_routed_and_counted() {
        let sig = Signal::Establish(crate::conn::ConnectionParams {
            conn_id: 7,
            elem_size: 4,
            initial_csn: 0,
            tpdu_elements: 128,
        });
        let mut mux = PacketMux::new(1500);
        mux.enqueue_signal(&sig);
        let packets = mux.flush().unwrap();
        let mut demux = ConnectionDemux::new();
        let events = demux.handle_packet(&packets[0], 0);
        assert_eq!(events, vec![DemuxEvent::Signal(sig)]);
        assert_eq!(demux.routed[ChunkType::Signal.to_u8() as usize], 1);
    }

    #[test]
    fn unknown_connection_reported() {
        let mut tx = sender(42);
        tx.submit_simple(b"lost____", 0xD, false);
        let packets = tx.packets_for_pending().unwrap();
        let mut demux = ConnectionDemux::new();
        let events = demux.handle_packet(&packets[0], 0);
        assert!(events
            .iter()
            .any(|e| matches!(e, DemuxEvent::UnknownConnection { conn_id: 42 })));
    }

    #[test]
    fn empty_mux_flushes_nothing() {
        let mut mux = PacketMux::new(1500);
        assert!(mux.flush().unwrap().is_empty());
        assert_eq!(mux.pending(), 0);
    }
}

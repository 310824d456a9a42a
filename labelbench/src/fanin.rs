//! `fanin`: many `Sender`s send ~256 B messages, multiplexed by one
//! `PacketMux` into shared packets over `Profile::Clean`, to one
//! `ConnectionDemux` that tells the connections apart by their `C.ID`
//! labels. Acks return multiplexed the same way. Round-based: every
//! connection's message of a round crosses, then the acks cross back, then
//! the next round is due. The smallest messages, so per-chunk, per-TPDU and
//! per-connection costs dominate; `Session` is bypassed.

use chunks_core::packet::{unpack, Packet};
use chunks_netsim::Profile;
use chunks_transport::{
    ConnectionDemux, DeliveryMode, DemuxEvent, PacketMux, Receiver, RxEvent, Sender, TableConfig,
};
use chunks_wsc::InvariantLayout;

use crate::common::{self, split, AckLog, Book, Outcome, Rng, Wire, MTU};
use crate::probe::{Layer, Probe};
use crate::{Rep, Scale};

/// Nominal message size: one TPDU.
pub const MESSAGE: usize = 256;
/// Message sizes are `MESSAGE - U[0, LEN_JITTER)`, drawn from the seed, so
/// every message stays one TPDU.
pub const LEN_JITTER: u64 = 16;

/// Runs one repetition.
pub fn run(seed: u64, scale: &Scale, timed: bool) -> Rep {
    let conns = scale.fanin_conns;
    let rounds = scale.fanin_rounds;
    let mut rng = Rng::new(seed, 2);
    // Connection `c` (1-based) sends message `r` in round `r`.
    let lens: Vec<Vec<usize>> = (0..conns)
        .map(|_| {
            (0..rounds)
                .map(|_| MESSAGE - rng.below(LEN_JITTER) as usize)
                .collect()
        })
        .collect();
    let mut data: Vec<Vec<u8>> = lens
        .iter()
        .map(|l| vec![0u8; l.iter().sum::<usize>()])
        .collect();
    for d in &mut data {
        rng.fill(d);
    }
    let messages: Vec<Vec<&[u8]>> = data.iter().zip(&lens).map(|(d, l)| split(d, l)).collect();
    let mut books: Vec<Book> = messages.iter().map(|m| Book::new(m)).collect();
    // Each round the connections enter the mux in a fresh seeded order.
    let orders: Vec<Vec<usize>> = (0..rounds)
        .map(|_| {
            let mut order: Vec<usize> = (0..conns).collect();
            for i in (1..conns).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            order
        })
        .collect();
    let mut wire = Wire::new(conns);
    let mut acks = AckLog::default();
    let mut events: Vec<DemuxEvent> = Vec::with_capacity(4 * conns);

    let (setup_ns, built) = crate::setup(|| {
        let senders: Vec<Sender> = (1..=conns as u32)
            .map(|c| Sender::new(common::sender_config(c)))
            .collect();
        let mut demux = ConnectionDemux::with_table(TableConfig::for_capacity(conns));
        for (i, book) in books.iter().enumerate() {
            let c = i as u32 + 1;
            let rx = Receiver::new(
                DeliveryMode::Immediate,
                common::params(c),
                InvariantLayout::default(),
                book.total_len(),
            );
            demux.register(c, rx);
        }
        (
            senders,
            demux,
            ConnectionDemux::new(),
            PacketMux::new(MTU),
            PacketMux::new(MTU),
            Profile::Clean.build(MTU, seed),
            Profile::Clean.build(MTU, seed ^ 0xBA),
        )
    });
    let (mut senders, mut demux, mut ack_demux, mut mux, mut ack_mux, mut ab, mut ba) = built;

    let mut probe = Probe::new(timed);
    let mut t = 0u64;
    let mut broken = false;
    for (r, order) in orders.iter().enumerate() {
        for &i in order {
            books[i].set_due(r, t);
            let msg = messages[i][r];
            probe.stack(Layer::Sender, || {
                senders[i].submit_simple(msg, r as u32 + 1, false)
            });
        }
        for &i in order {
            let tx = &senders[i];
            let mux = &mut mux;
            let queued = probe.stack(
                Layer::SessionTx,
                || -> Result<(), chunks_core::error::CoreError> {
                    for p in tx.packets_for_pending()? {
                        mux.enqueue_chunks(unpack(&p)?);
                    }
                    Ok(())
                },
            );
            broken |= queued.is_err();
        }
        let Ok(out) = probe.stack(Layer::SessionTx, || mux.flush()) else {
            break;
        };
        probe.bookkeeping(|| wire.note_data(&out));
        let mut arrivals = Vec::new();
        for p in out {
            let frame = p.bytes.to_vec();
            wire.bytes += frame.len() as u64;
            arrivals.extend(probe.netsim(|| ab.transmit(t, frame)));
        }
        arrivals.sort_by_key(|d| d.time);
        let mut t_rx = t;
        for d in arrivals {
            t_rx = d.time;
            let packet = Packet {
                bytes: d.frame.into(),
            };
            probe.shadow(|| common::shadow(&packet));
            events.clear();
            probe.stack(Layer::Receiver, || {
                demux.ingest(&packet, d.time, &mut events)
            });
            probe.bookkeeping(|| {
                for e in &events {
                    if let DemuxEvent::Connection {
                        conn_id,
                        event: RxEvent::TpduDelivered { start, elements },
                    } = *e
                    {
                        books[conn_id as usize - 1].on_delivered(start, elements, d.time);
                    }
                }
            });
        }

        let ack_bytes_before = probe.layer(Layer::Ack).alloc.bytes;
        for c in 1..=conns as u32 {
            let demux = &demux;
            let ack_mux = &mut ack_mux;
            probe.stack(Layer::Ack, || {
                if let Some(rx) = demux.receiver(c) {
                    ack_mux.enqueue_ack(c, &rx.make_ack());
                }
            });
        }
        let Ok(reply) = probe.stack(Layer::Ack, || ack_mux.flush()) else {
            break;
        };
        acks.push(
            conns as u64,
            probe.layer(Layer::Ack).alloc.bytes - ack_bytes_before,
        );
        let mut returns = Vec::new();
        for p in reply {
            let frame = p.bytes.to_vec();
            wire.bytes += frame.len() as u64;
            returns.extend(probe.netsim(|| ba.transmit(t_rx, frame)));
        }
        returns.sort_by_key(|d| d.time);
        t = t_rx;
        for d in returns {
            t = d.time;
            let packet = Packet {
                bytes: d.frame.into(),
            };
            events.clear();
            probe.stack(Layer::AckRx, || {
                ack_demux.ingest(&packet, d.time, &mut events)
            });
            for e in &events {
                if let DemuxEvent::Ack { conn_id, ack } = e {
                    let sender = (*conn_id as usize).checked_sub(1);
                    if let Some(tx) = sender.and_then(|i| senders.get_mut(i)) {
                        probe.stack(Layer::AckRx, || tx.handle_ack(ack));
                    }
                }
            }
        }
        broken |= senders.iter().any(|s| s.pending_tpdus() != 0);
        if broken {
            break;
        }
    }
    probe.finish();

    let mut outcome = Outcome::default();
    let mut last_done = 0;
    for (i, book) in books.iter().enumerate() {
        let rx = demux.receiver(i as u32 + 1).expect("registered");
        book.settle(rx.app_data(), t, &mut outcome);
        last_done = last_done.max(book.last_done());
        outcome.dup_chunks += rx.stats.duplicate_chunks;
        outcome.chunks_accepted += rx.stats.chunks_accepted;
        outcome.data_touches += rx.stats.data_touches;
    }
    outcome.absorb(&probe, &wire, &acks);
    outcome.sim_ns = last_done;
    outcome.frames_lost = common::frames_lost(&ab) + common::frames_lost(&ba);
    let table = demux.table().stats;
    outcome.table_peak_live = table.peak_live as u64;
    outcome.table_max_probe = table.max_probe;
    Rep {
        outcome,
        setup_ns,
        ledger: probe.ledger,
        leaked: probe.leaked,
    }
}

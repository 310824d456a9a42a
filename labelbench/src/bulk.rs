//! `bulk`: one connection sends 56–64 KiB messages in a closed loop over
//! `Profile::Clean`. Each round, the message's packets fully cross before
//! the peer answers with its ack; the next message is due when the ack
//! lands. Per-byte work dominates: framing and ED computation,
//! packetisation, placement and verification — no demux, no repair.

use chunks_core::packet::Packet;
use chunks_netsim::Profile;
use chunks_transport::RxEvent;

use crate::common::{self, split, AckLog, Book, Outcome, Rng, Wire, MTU};
use crate::probe::{Layer, Probe};
use crate::{Rep, Scale};

/// Nominal message size.
pub const MESSAGE: usize = 64 * 1024;
/// Message sizes are `MESSAGE - U[0, LEN_JITTER)`, drawn from the seed.
pub const LEN_JITTER: u64 = 8 * 1024;
/// Repair rounds allowed per message before the run gives up on it.
const MAX_ROUNDS: usize = 32;

/// Runs one repetition.
pub fn run(seed: u64, scale: &Scale, timed: bool) -> Rep {
    let mut rng = Rng::new(seed, 1);
    let lens: Vec<usize> = (0..scale.bulk_messages)
        .map(|_| MESSAGE - rng.below(LEN_JITTER) as usize)
        .collect();
    let mut data = vec![0u8; lens.iter().sum()];
    rng.fill(&mut data);
    let messages = split(&data, &lens);
    let mut book = Book::new(&messages);
    let mut wire = Wire::new(1);
    let mut acks = AckLog::default();

    let (setup_ns, (mut a, mut b, mut ab, mut ba)) = crate::setup(|| {
        (
            common::session(1, 2, 0),
            common::session(2, 1, book.total_len()),
            Profile::Clean.build(MTU, seed),
            Profile::Clean.build(MTU, seed ^ 0xBA),
        )
    });

    let mut probe = Probe::new(timed);
    let mut t = 0u64;
    let mut gave_up = false;
    for (m, msg) in messages.iter().enumerate() {
        book.set_due(m, t);
        probe.stack(Layer::Sender, || a.send(msg, m as u32 + 1, false));
        let mut rounds = 0;
        while !a.outbound_done() {
            rounds += 1;
            if rounds > MAX_ROUNDS {
                gave_up = true;
                break;
            }
            let Ok(out) = probe.stack(Layer::SessionTx, || a.pump(t)) else {
                gave_up = true;
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
                let events = probe.stack(Layer::Receiver, || b.handle_packet(&packet, d.time));
                probe.bookkeeping(|| {
                    for e in events {
                        if let RxEvent::TpduDelivered { start, elements } = e {
                            book.on_delivered(start, elements, d.time);
                        }
                    }
                });
            }
            let Ok(reply) = probe.stack(Layer::Ack, || b.pump(t_rx)) else {
                gave_up = true;
                break;
            };
            acks.push(1, probe.last.bytes);
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
                probe.stack(Layer::AckRx, || a.handle_packet(&packet, d.time));
            }
        }
        if gave_up {
            break;
        }
    }
    probe.finish();

    let mut outcome = Outcome::default();
    book.settle(b.received(), t, &mut outcome);
    outcome.absorb(&probe, &wire, &acks);
    outcome.sim_ns = book.last_done();
    let rx = b.rx_stats();
    outcome.dup_chunks = rx.duplicate_chunks;
    outcome.chunks_accepted = rx.chunks_accepted;
    outcome.data_touches = rx.data_touches;
    outcome.rtt_samples = a.reliability().rtt_samples;
    outcome.frames_lost = common::frames_lost(&ab) + common::frames_lost(&ba);
    Rep {
        outcome,
        setup_ns,
        ledger: probe.ledger,
        leaked: probe.leaked,
    }
}

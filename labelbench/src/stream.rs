//! `stream`: open loops over `Profile::MultipathLossy`. Each connection has
//! a 56–64 KiB message due every [`PERIOD_NS`] (~52 Mbit/s offered, well
//! below the path's capacity); the connections run one after another, each
//! over its own seeded path. Both endpoints are pumped every [`TICK_NS`] of
//! simulated time and packets reach their peer at their simulated arrival
//! times, so acks return while data is still in flight: the only workload
//! that exercises the retransmission timer, ack-driven repair and
//! duplicate trimming. A message's latency runs from its due time; a
//! message not verified by the horizon counts as failed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// Interval between due times: 64 KiB per 10 ms is ~52 Mbit/s.
pub const PERIOD_NS: u64 = 10_000_000;
/// Pump interval of both endpoints.
pub const TICK_NS: u64 = 20_000;
/// How long after the last due time the run keeps going.
pub const DRAIN_NS: u64 = 200_000_000;

/// A frame in flight, ordered by arrival time, then by send order.
struct Arrival {
    at: u64,
    seq: u64,
    to_receiver: bool,
    frame: Vec<u8>,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Runs one repetition: [`Scale::stream_episodes`] connections in turn,
/// each an open loop of [`Scale::stream_messages`] messages over its own
/// seeded path.
pub fn run(seed: u64, scale: &Scale, timed: bool) -> Rep {
    let mut rng = Rng::new(seed, 3);
    let mut probe = Probe::new(timed);
    let mut wire = Wire::new(1);
    let mut acks = AckLog::default();
    let mut outcome = Outcome::default();
    let mut setup_times = Vec::with_capacity(scale.stream_episodes);
    for episode in 0..scale.stream_episodes {
        if episode > 0 {
            wire.next_connection();
            acks.next_connection();
        }
        let lens: Vec<usize> = (0..scale.stream_messages)
            .map(|_| MESSAGE - rng.below(LEN_JITTER) as usize)
            .collect();
        let mut data = vec![0u8; lens.iter().sum()];
        rng.fill(&mut data);
        let path_seed = rng.next_u64();
        let phase = rng.below(TICK_NS);
        let messages = split(&data, &lens);
        let (setup_ns, sim_ns) = episode_run(
            &messages,
            path_seed,
            phase,
            &mut probe,
            &mut wire,
            &mut acks,
            &mut outcome,
        );
        setup_times.push(setup_ns);
        outcome.sim_ns += sim_ns;
    }
    probe.finish();
    outcome.absorb(&probe, &wire, &acks);
    setup_times.sort_unstable();
    Rep {
        outcome,
        setup_ns: setup_times[setup_times.len() / 2],
        ledger: probe.ledger,
        leaked: probe.leaked,
    }
}

/// One connection's open loop, message `m` due at `phase + m * PERIOD_NS`
/// (the application's clock is not aligned with the pump ticks). Adds its messages and receiver counters to
/// `outcome`; returns the median set-up time and the simulated time from
/// the first due time to the last verification.
fn episode_run(
    messages: &[&[u8]],
    path_seed: u64,
    phase: u64,
    probe: &mut Probe,
    wire: &mut Wire,
    acks: &mut AckLog,
    outcome: &mut Outcome,
) -> (u64, u64) {
    let mut book = Book::new(messages);
    let due = |m: usize| phase + m as u64 * PERIOD_NS;
    let horizon = due(messages.len().saturating_sub(1)) + DRAIN_NS;

    // Set-up is timed on its own, outside the run's ledger.
    let (setup_ns, (mut a, mut b, mut ab, mut ba)) = probe.bookkeeping(|| {
        crate::setup(|| {
            (
                common::session(1, 2, 0),
                common::session(2, 1, book.total_len()),
                Profile::MultipathLossy.build(MTU, path_seed),
                Profile::MultipathLossy.build(MTU, path_seed ^ 0xBA),
            )
        })
    });

    let mut heap: BinaryHeap<Reverse<Arrival>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut next = 0usize;
    let mut t = 0u64;
    loop {
        while heap.peek().is_some_and(|Reverse(x)| x.at <= t) {
            let Reverse(x) = heap.pop().expect("peeked");
            let packet = Packet {
                bytes: x.frame.into(),
            };
            if x.to_receiver {
                probe.shadow(|| common::shadow(&packet));
                let events = probe.stack(Layer::Receiver, || b.handle_packet(&packet, x.at));
                probe.bookkeeping(|| {
                    for e in events {
                        if let RxEvent::TpduDelivered { start, elements } = e {
                            book.on_delivered(start, elements, x.at);
                        }
                    }
                });
            } else {
                probe.stack(Layer::AckRx, || a.handle_packet(&packet, x.at));
            }
        }
        let finished = next == messages.len() && book.all_done() && a.outbound_done();
        if finished || t > horizon {
            break;
        }
        if next < messages.len() && due(next) <= t {
            book.set_due(next, due(next));
            let msg = messages[next];
            probe.stack(Layer::Sender, || a.send(msg, next as u32 + 1, false));
            next += 1;
        }
        let Ok(out) = probe.stack(Layer::SessionTx, || a.pump(t)) else {
            break;
        };
        probe.bookkeeping(|| wire.note_data(&out));
        for p in out {
            let frame = p.bytes.to_vec();
            wire.bytes += frame.len() as u64;
            for d in probe.netsim(|| ab.transmit(t, frame)) {
                seq += 1;
                heap.push(Reverse(Arrival {
                    at: d.time,
                    seq,
                    to_receiver: true,
                    frame: d.frame,
                }));
            }
        }
        let Ok(reply) = probe.stack(Layer::Ack, || b.pump(t)) else {
            break;
        };
        acks.push(1, probe.last.bytes);
        for p in reply {
            let frame = p.bytes.to_vec();
            wire.bytes += frame.len() as u64;
            for d in probe.netsim(|| ba.transmit(t, frame)) {
                seq += 1;
                heap.push(Reverse(Arrival {
                    at: d.time,
                    seq,
                    to_receiver: false,
                    frame: d.frame,
                }));
            }
        }
        t += TICK_NS;
    }
    outcome.dup_chunks += b.rx_stats().duplicate_chunks;
    outcome.chunks_accepted += b.rx_stats().chunks_accepted;
    outcome.data_touches += b.rx_stats().data_touches;
    outcome.rtt_samples += a.reliability().rtt_samples;
    outcome.frames_lost += common::frames_lost(&ab) + common::frames_lost(&ba);
    book.settle(b.received(), horizon, outcome);
    (setup_ns, book.last_done())
}

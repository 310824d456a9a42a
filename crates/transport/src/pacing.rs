//! Repair pacing and the ack policy: the two rules that keep a
//! [`Session`](crate::Session) from answering the clock instead of the
//! data.
//!
//! The paper retransmits with identical labels (§3.3), so a duplicate is
//! harmless to correctness — but every duplicate still costs wire bytes
//! and receiver work. Two rules keep them rare:
//!
//! * **Repair only what an ack could have seen** ([`RepairPacer`]). The
//!   newest ack is held until it has been served. It repairs a TPDU only
//!   if the TPDU's last transmission went out before the ack arrived, and
//!   then at most once; on a clocked pass, also only once that transmission
//!   is at least the minimum RTT old ([`RetransmitTimer::old_enough`]). A
//!   request that is too early is deferred to a later pass, not dropped,
//!   unless a newer ack supersedes it. This is SCTP's once-per-loss-
//!   indication fast retransmit; the retransmission timer covers the rest.
//! * **Ack only on news** ([`AckGate`]). An ack goes out when the receiver
//!   took a data or ED chunk since the last ack, when it still reports open
//!   items (SACKs, gaps, missing EDs), or when its back-pressure flag
//!   changed. A lost ack is recovered by the sender's timer: the duplicate
//!   it provokes is news. The one exception is the ack that clears
//!   back-pressure: while pressured the sender defers its timers, so if
//!   that ack is lost nothing would provoke another. It is therefore
//!   repeated on every batch until a data or ED chunk arrives after it.

use chunks_core::error::CoreError;

use crate::ack::AckInfo;
use crate::receiver::Receiver;
use crate::rto::RetransmitTimer;

/// What one [`RepairPacer::serve`] call did.
#[derive(Clone, Debug, PartialEq)]
pub enum Served<R> {
    /// No ack was held.
    Idle,
    /// The held ack carried back-pressure: the peer's budget is near
    /// exhaustion and a repair pass would only feed bytes to its shedder.
    /// The ack was released unserved; the next unpressured one re-triggers
    /// selective repair.
    Pressured,
    /// A repair pass ran: the repair closure's output and the repaired
    /// starts.
    Repaired(R, Vec<u64>),
}

/// The ack-driven repair policy: the newest ack from the peer, held until
/// every TPDU it asks for has been repaired once.
#[derive(Clone, Debug, Default)]
pub struct RepairPacer {
    /// The newest ack and the timer's send mark when it arrived.
    held: Option<(AckInfo, u32)>,
}

impl RepairPacer {
    /// Holds `ack` as the newest, superseding any earlier one. `rto`
    /// records which transmissions the ack can speak for.
    pub fn hold(&mut self, ack: AckInfo, rto: &RetransmitTimer) {
        self.held = Some((ack, rto.send_mark()));
    }

    /// Runs one repair pass for the held ack. `repair` receives the ack and
    /// the gate to hand to [`Sender::repair_chunks`](crate::Sender::repair_chunks)
    /// (or a packing wrapper of it) and returns its output with the
    /// repaired starts; at most `limit` TPDUs may be repaired per pass.
    ///
    /// A pressured ack is released without a pass ([`Served::Pressured`]).
    /// Otherwise the gate admits a TPDU whose last transmission went out
    /// before the ack arrived and — when `now` is given — is at least the
    /// minimum RTT old at `now`. Without `now` (a reactive pass with no
    /// clock of its own) every such TPDU is admitted at once. The ack stays
    /// held while the gate deferred a TPDU or the pass hit `limit`;
    /// otherwise it is served and released.
    pub fn serve<R>(
        &mut self,
        rto: &RetransmitTimer,
        now: Option<u64>,
        limit: usize,
        repair: impl FnOnce(&AckInfo, &mut dyn FnMut(u64) -> bool) -> Result<(R, Vec<u64>), CoreError>,
    ) -> Result<Served<R>, CoreError> {
        let Some((ack, mark)) = &self.held else {
            return Ok(Served::Idle);
        };
        if ack.pressure {
            self.held = None;
            return Ok(Served::Pressured);
        }
        let mut deferred = false;
        let mut gate = |start: u64| {
            if !rto.sent_by(start, *mark) {
                // Not sent yet, or sent again since the ack arrived: the
                // ack cannot speak for it.
                return false;
            }
            match now {
                Some(now) if !rto.old_enough(start, now) => {
                    deferred = true;
                    false
                }
                _ => true,
            }
        };
        let (out, repaired) = repair(ack, &mut gate)?;
        if !deferred && repaired.len() < limit {
            self.held = None;
        }
        Ok(Served::Repaired(out, repaired))
    }
}

/// The ack policy: an ack goes out only when it has news.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckGate {
    /// [`Receiver::chunks_taken`] when the last ack went out.
    taken: u64,
    /// The last ack's back-pressure flag.
    pressure: bool,
    /// The last ack sent cleared back-pressure, or repeats that clearing
    /// with no chunk arrived since: the peer may not have heard it yet.
    clearing: bool,
}

impl AckGate {
    /// True when `ack`, just built by `rx`, has news for the peer: `rx`
    /// took a data or ED chunk since the last ack went out, or `ack`
    /// reports open items ([`AckInfo::has_open_items`]), or its
    /// back-pressure flag differs from the last ack's, or it repeats a
    /// pressure-clearing ack the peer has not shown it heard.
    pub fn has_news(&self, rx: &Receiver, ack: &AckInfo) -> bool {
        rx.chunks_taken() != self.taken
            || ack.has_open_items()
            || ack.pressure != self.pressure
            || self.clearing
    }

    /// Records `ack`, built by `rx`, as sent. Call it once the ack is
    /// queued for the wire, not before: an ack that never left must not
    /// count as heard.
    pub fn sent(&mut self, rx: &Receiver, ack: &AckInfo) {
        let taken = rx.chunks_taken();
        // A chunk arriving after the clearing ack shows the peer sending
        // again; until then the clearing is repeated.
        self.clearing = !ack.pressure && (self.pressure || (self.clearing && taken == self.taken));
        self.taken = taken;
        self.pressure = ack.pressure;
    }
}

//! Per-layer accounting around the public calls a workload makes.
//!
//! Every call into the transport stack goes through [`Probe::stack`], which
//! counts its allocations and, in a traced run, times it. Netsim calls go
//! through [`Probe::netsim`] (timed, never counted) and benchmark
//! bookkeeping — digests, packet scans, shadow timings — through
//! [`Probe::bookkeeping`], which keeps its time out of the ledger. Both
//! uncounted windows check that the armed tally did not move: a non-zero
//! [`Probe::leaked`] means the counting discipline broke and fails the run.

use std::time::Instant;

use crate::alloc::{self, Count};

/// A layer of the stack, named for the module whose public call is timed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `Session::send` / `Sender::submit`: framing and ED computation.
    Sender,
    /// `Session::pump` on the data side; `Sender::packets_for_pending` and
    /// `PacketMux` in fan-in: packetisation, repair, timers.
    SessionTx,
    /// `Path::transmit`: the simulated wire.
    Netsim,
    /// `Session::handle_packet` on the data side; `ConnectionDemux::ingest`
    /// in fan-in: decode, demux, placement, verification.
    Receiver,
    /// `Session::pump` on the receiving side; `Receiver::make_ack` and the
    /// ack `PacketMux` in fan-in.
    Ack,
    /// Ack ingest on the sending side.
    AckRx,
}

/// Every layer, in ledger order.
pub const LAYERS: [Layer; 6] = [
    Layer::Sender,
    Layer::SessionTx,
    Layer::Netsim,
    Layer::Receiver,
    Layer::Ack,
    Layer::AckRx,
];

impl Layer {
    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sender => "sender",
            Layer::SessionTx => "session_tx",
            Layer::Netsim => "netsim",
            Layer::Receiver => "receiver",
            Layer::Ack => "ack",
            Layer::AckRx => "ack_rx",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Deterministic work counted in one layer.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Allocations and bytes requested inside those calls.
    pub alloc: Count,
}

/// Wall-clock time of one run, by layer.
#[derive(Clone, Copy, Default, Debug)]
pub struct Ledger {
    /// Time inside each layer's calls, in [`LAYERS`] order.
    pub busy_ns: [u64; 6],
    /// Run time minus benchmark bookkeeping: what the shares divide.
    pub total_ns: u64,
    /// Shadow timing of `validate` + `spans` + `decode_chunk_at` over the
    /// packets the receiving layer was handed.
    pub shadow_decode_ns: u64,
    /// Shadow timing of a `Wsc2` fold over the same data payloads.
    pub shadow_wsc_ns: u64,
}

impl Ledger {
    /// Adds another run's ledger (ratios of sums stay a closed ledger).
    pub fn add(&mut self, other: &Ledger) {
        for (a, b) in self.busy_ns.iter_mut().zip(other.busy_ns) {
            *a += b;
        }
        self.total_ns += other.total_ns;
        self.shadow_decode_ns += other.shadow_decode_ns;
        self.shadow_wsc_ns += other.shadow_wsc_ns;
    }

    /// Share of the run spent in `layer`.
    pub fn share(&self, layer: Layer) -> f64 {
        self.busy_ns[layer.index()] as f64 / self.total_ns.max(1) as f64
    }

    /// Share of the run in no timed layer: workload-loop glue between calls.
    pub fn unattributed(&self) -> f64 {
        1.0 - LAYERS.iter().map(|&l| self.share(l)).sum::<f64>()
    }
}

/// Counts (always) and times (when traced) the calls of one run.
#[derive(Debug)]
pub struct Probe {
    timed: bool,
    started: Instant,
    excluded_ns: u64,
    /// Per-layer counted work, in [`LAYERS`] order.
    pub tally: [Tally; 6],
    /// Per-layer wall time (traced runs only).
    pub ledger: Ledger,
    /// Allocations the armed tally gained inside uncounted windows.
    pub leaked: u64,
    /// What the most recent [`Self::stack`] call allocated.
    pub last: Count,
}

impl Probe {
    /// Starts a run's accounting; `timed` switches on the wall-clock ledger.
    pub fn new(timed: bool) -> Self {
        Probe {
            timed,
            started: Instant::now(),
            excluded_ns: 0,
            tally: [Tally::default(); 6],
            ledger: Ledger::default(),
            leaked: 0,
            last: Count::default(),
        }
    }

    /// A call into the transport stack: counted, and timed when traced.
    pub fn stack<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t0 = self.timed.then(Instant::now);
        let (r, count) = alloc::counted(f);
        if let Some(t0) = t0 {
            self.ledger.busy_ns[layer.index()] += t0.elapsed().as_nanos() as u64;
        }
        let tally = &mut self.tally[layer.index()];
        tally.calls += 1;
        tally.alloc += count;
        self.last = count;
        r
    }

    /// A call into the simulated network: timed when traced, not counted.
    pub fn netsim<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = alloc::armed();
        let t0 = self.timed.then(Instant::now);
        let r = f();
        if let Some(t0) = t0 {
            self.ledger.busy_ns[Layer::Netsim.index()] += t0.elapsed().as_nanos() as u64;
        }
        self.tally[Layer::Netsim.index()].calls += 1;
        self.leaked += (alloc::armed() - before).allocs;
        r
    }

    /// Benchmark-only work (and mid-run set-up), kept out of the ledger and
    /// not counted.
    pub fn bookkeeping<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = alloc::armed();
        let t0 = self.timed.then(Instant::now);
        let r = f();
        if let Some(t0) = t0 {
            self.excluded_ns += t0.elapsed().as_nanos() as u64;
        }
        self.leaked += (alloc::armed() - before).allocs;
        r
    }

    /// Times a shadow computation (traced runs only), as bookkeeping.
    pub fn shadow(&mut self, f: impl FnOnce() -> (u64, u64)) {
        if self.timed {
            let (decode_ns, wsc_ns) = self.bookkeeping(f);
            self.ledger.shadow_decode_ns += decode_ns;
            self.ledger.shadow_wsc_ns += wsc_ns;
        }
    }

    /// Closes the run: the ledger total is the elapsed time minus
    /// bookkeeping.
    pub fn finish(&mut self) {
        let elapsed = self.started.elapsed().as_nanos() as u64;
        self.ledger.total_ns = elapsed.saturating_sub(self.excluded_ns);
    }

    /// Counted work of one layer.
    pub fn layer(&self, layer: Layer) -> Tally {
        self.tally[layer.index()]
    }
}

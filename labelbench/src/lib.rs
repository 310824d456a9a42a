//! End-to-end benchmark of the chunk transport stack over the simulated
//! network: three single-threaded workloads driven through the public APIs
//! of `chunks-transport`, `chunks-core` and `chunks-netsim`, gated on
//! outcomes measured on the simulated clock and on work counted by the
//! allocator in [`alloc`], with a traced per-layer wall-clock ledger.
//!
//! See `README.md` in this directory for the workloads and every metric.

pub mod alloc;
pub mod bulk;
pub mod common;
pub mod fanin;
pub mod host;
pub mod probe;
pub mod report;
pub mod stream;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

use common::Outcome;
use probe::Ledger;

/// The workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Closed-loop 64 KiB messages on one connection, clean link.
    Bulk,
    /// Many connections' 256 B messages multiplexed into shared packets.
    Fanin,
    /// Open-loop 64 KiB messages over a lossy, reordering multipath.
    Stream,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Bulk, Workload::Fanin, Workload::Stream];

    /// The workload's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Fanin => "fanin",
            Workload::Stream => "stream",
        }
    }

    /// Looks a workload up by its CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one repetition does.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `bulk`: messages sent.
    pub bulk_messages: usize,
    /// `fanin`: connections.
    pub fanin_conns: usize,
    /// `fanin`: messages per connection (one per round).
    pub fanin_rounds: usize,
    /// `stream`: connections run one after another.
    pub stream_episodes: usize,
    /// `stream`: messages due on each connection.
    pub stream_messages: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub const FULL: Scale = Scale {
        bulk_messages: 256,
        fanin_conns: 4096,
        fanin_rounds: 16,
        stream_episodes: 8,
        stream_messages: 16,
    };

    /// A small scale for tests and for warming lazily built tables.
    pub const SMALL: Scale = Scale {
        bulk_messages: 4,
        fanin_conns: 64,
        fanin_rounds: 2,
        stream_episodes: 2,
        stream_messages: 3,
    };
}

/// One repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// What must repeat exactly for a seed.
    pub outcome: Outcome,
    /// Wall time to build endpoints, receivers, tables and paths (median
    /// of [`SETUP_BUILDS`] builds).
    pub setup_ns: u64,
    /// Per-layer wall time (traced runs only).
    pub ledger: Ledger,
    /// Allocations the armed tally gained outside transport-stack calls
    /// (must be 0).
    pub leaked: u64,
}

/// Times of set-up builds per repetition; [`setup`] reports their median.
pub const SETUP_BUILDS: usize = 5;

/// Builds a repetition's endpoints [`SETUP_BUILDS`] times, dropping all but
/// the last, and returns the median build time with the last build.
pub fn setup<T>(mut build: impl FnMut() -> T) -> (u64, T) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut built = None;
    for _ in 0..SETUP_BUILDS {
        drop(built.take());
        let t0 = std::time::Instant::now();
        built = Some(build());
        times.push(t0.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    (times[SETUP_BUILDS / 2], built.expect("built at least once"))
}

/// Runs one repetition of `workload` with inputs drawn from `seed`.
pub fn run(workload: Workload, seed: u64, scale: &Scale, timed: bool) -> Rep {
    match workload {
        Workload::Bulk => bulk::run(seed, scale, timed),
        Workload::Fanin => fanin::run(seed, scale, timed),
        Workload::Stream => stream::run(seed, scale, timed),
    }
}

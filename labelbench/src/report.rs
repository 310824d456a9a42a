//! Turns run results into named metrics and the one-line JSON result.

use crate::common::Outcome;
use crate::host;
use crate::probe::{Layer, Ledger, LAYERS};

const MIB: f64 = 1024.0 * 1024.0;

/// A named, unit-carrying measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Verified MiB of a run.
fn verified_mib(o: &Outcome) -> f64 {
    o.verified_bytes as f64 / MIB
}

/// The end-to-end metrics: every one but `setup_s` and `peak_rss_mib`
/// repeats exactly for a seed.
pub fn end_to_end(o: &Outcome, setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
    let (allocs, bytes) = o.total_alloc();
    let (allocs, bytes) = (allocs as f64, bytes as f64);
    vec![
        metric(
            "vt_goodput_mib_s",
            ratio(verified_mib(o), o.sim_ns as f64 / 1e9),
            "MiB/s",
        ),
        metric("vt_msg_p50_us", o.latency_ns(0.5) as f64 / 1e3, "us"),
        metric("vt_msg_p90_us", o.latency_ns(0.9) as f64 / 1e3, "us"),
        metric(
            "wire_overhead",
            ratio(o.wire_bytes as f64, o.verified_bytes as f64),
            "B/B",
        ),
        metric(
            "verified_share",
            ratio(o.verified as f64, o.messages as f64),
            "share",
        ),
        metric("allocs_per_mib", ratio(allocs, verified_mib(o)), "1/MiB"),
        metric(
            "alloc_bytes_per_byte",
            ratio(bytes, o.verified_bytes as f64),
            "B/B",
        ),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// The deterministic per-layer metrics: counts and ratios of counts.
pub fn layer_counts(o: &Outcome) -> Vec<Metric> {
    let per_mib = |l: Layer| ratio(o.layer(l).alloc.allocs as f64, verified_mib(o));
    vec![
        metric("sender.allocs_per_mib", per_mib(Layer::Sender), "1/MiB"),
        metric(
            "session_tx.allocs_per_mib",
            per_mib(Layer::SessionTx),
            "1/MiB",
        ),
        metric(
            "session_tx.alloc_bytes_per_byte",
            ratio(
                o.layer(Layer::SessionTx).alloc.bytes as f64,
                o.verified_bytes as f64,
            ),
            "B/B",
        ),
        metric(
            "session_tx.retx_byte_share",
            ratio(o.retx_bytes as f64, o.data_bytes_sent as f64),
            "share",
        ),
        metric("receiver.allocs_per_mib", per_mib(Layer::Receiver), "1/MiB"),
        metric(
            "receiver.dup_chunk_share",
            ratio(
                o.dup_chunks as f64,
                (o.dup_chunks + o.chunks_accepted) as f64,
            ),
            "share",
        ),
        metric(
            "receiver.touches_per_byte",
            ratio(o.data_touches as f64, o.verified_bytes as f64),
            "B/B",
        ),
        metric(
            "ack.alloc_bytes_per_ack",
            ratio(o.acks.bytes as f64, o.acks.acks as f64),
            "B",
        ),
        metric("ack.alloc_growth", o.acks.growth(), "ratio"),
        metric(
            "rto.rtt_samples_per_mib",
            ratio(o.rtt_samples as f64, verified_mib(o)),
            "1/MiB",
        ),
        metric("table.peak_live", o.table_peak_live as f64, "count"),
        metric("table.max_probe", o.table_max_probe as f64, "count"),
    ]
}

/// The wall-clock ledger of a group of traced runs that verified
/// `verified_bytes` in total.
pub fn ledger_metrics(l: &Ledger, verified_bytes: u64) -> Vec<Metric> {
    let total = l.total_ns.max(1) as f64;
    let mut m: Vec<Metric> = LAYERS
        .iter()
        .map(|&layer| {
            metric(
                format!("{}.busy_share", layer.name()),
                l.share(layer),
                "share",
            )
        })
        .collect();
    m.push(metric(
        "decode.busy_share_est",
        l.shadow_decode_ns as f64 / total,
        "share",
    ));
    m.push(metric(
        "wsc.busy_share_est",
        l.shadow_wsc_ns as f64 / total,
        "share",
    ));
    m.push(metric(
        "ledger.unattributed_share",
        l.unattributed(),
        "share",
    ));
    m.push(metric(
        "ledger.goodput_mib_s",
        verified_bytes as f64 / MIB / (total / 1e9),
        "MiB/s",
    ));
    m
}

/// Two groups of traced runs, for an A/A comparison.
#[derive(Debug, Default)]
pub struct Traced {
    /// Group A's ledger, summed over its runs.
    pub a: Ledger,
    /// Group B's ledger.
    pub b: Ledger,
    /// Runs in each group.
    pub runs: [u64; 2],
    /// Host time during each group's runs.
    pub host: [host::Delta; 2],
}

/// The per-layer metrics of a traced run: counts from `o`, and every
/// wall-clock number over both groups with its A/A spread, `|A - B|`
/// over the mean of A and B.
pub fn per_layer(o: &Outcome, t: &Traced) -> Vec<Metric> {
    let mut all = t.a;
    all.add(&t.b);
    let whole = ledger_metrics(&all, o.verified_bytes * (t.runs[0] + t.runs[1]));
    let a = ledger_metrics(&t.a, o.verified_bytes * t.runs[0]);
    let b = ledger_metrics(&t.b, o.verified_bytes * t.runs[1]);
    let mut m = layer_counts(o);
    for ((w, a), b) in whole.into_iter().zip(a).zip(b) {
        let spread = ratio((a.value - b.value).abs(), (a.value + b.value) / 2.0);
        m.push(metric(format!("{}_aa", w.name), spread, "share"));
        m.push(w);
    }
    m.push(metric("host.steal_ms_a", t.host[0].steal_ms, "ms"));
    m.push(metric("host.steal_ms_b", t.host[1].steal_ms, "ms"));
    m.push(metric("host.runq_wait_ms_a", t.host[0].runq_wait_ms, "ms"));
    m.push(metric("host.runq_wait_ms_b", t.host[1].runq_wait_ms, "ms"));
    m
}

/// Formats a number for JSON with every digit it has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

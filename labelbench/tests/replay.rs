//! The benchmark's own checks: replay, seed sensitivity, ledger closure,
//! the counting windows, and the digest check. They run the workloads at
//! [`Scale::SMALL`]; `cargo test --release` keeps them quick.

use chunks_netsim::Profile;
use labelbench::alloc;
use labelbench::common::{Book, Outcome};
use labelbench::probe::{Layer, Probe, LAYERS};
use labelbench::report;
use labelbench::{run, Scale, Workload};

/// The outcome of the run with the median allocation count out of three,
/// as the command reports it (see `Outcome::simulated` for why counts are
/// taken as a median).
fn median_run(w: Workload, seed: u64) -> Outcome {
    let mut runs: Vec<Outcome> = (0..3)
        .map(|_| run(w, seed, &Scale::SMALL, false).outcome)
        .collect();
    for r in &runs[1..] {
        assert_eq!(r.simulated(), runs[0].simulated(), "{w:?} seed {seed}");
    }
    runs.sort_by_key(|o| o.total_alloc());
    runs.swap_remove(1)
}

#[test]
fn same_seed_repeats_every_deterministic_metric() {
    for w in Workload::ALL {
        let a = median_run(w, 7);
        let b = median_run(w, 7);
        assert_eq!(a, b, "{w:?}: outcome and per-layer counts must repeat");
        assert_eq!(a.verified, a.messages, "{w:?}: every message verified");
        assert_eq!(a.corrupted, 0);
        assert_eq!(
            report::end_to_end(&a, 0.0, 0.0),
            report::end_to_end(&b, 0.0, 0.0)
        );
        assert_eq!(report::layer_counts(&a), report::layer_counts(&b));
    }
}

#[test]
fn another_seed_changes_the_stream_fault_pattern() {
    let a = run(Workload::Stream, 1, &Scale::SMALL, false).outcome;
    let b = run(Workload::Stream, 2, &Scale::SMALL, false).outcome;
    assert!(a.frames_lost > 0 && b.frames_lost > 0, "the path is lossy");
    assert_ne!(
        (a.frames_lost, a.wire_bytes, &a.latencies_ns),
        (b.frames_lost, b.wire_bytes, &b.latencies_ns),
        "the seed drives the fault stream"
    );
}

#[test]
fn traced_ledger_closes() {
    for w in Workload::ALL {
        let rep = run(w, 3, &Scale::SMALL, true);
        let l = rep.ledger;
        assert!(l.total_ns > 0);
        let busy: f64 = LAYERS.iter().map(|&layer| l.share(layer)).sum();
        assert!((busy + l.unattributed() - 1.0).abs() < 1e-9);
        assert!(l.unattributed() >= 0.0, "{w:?}: layers overlap the run");
        assert_eq!(
            rep.leaked, 0,
            "{w:?}: allocations counted outside stack calls"
        );
    }
}

#[test]
fn counting_windows_see_only_stack_calls() {
    let mut probe = Probe::new(false);
    let v = probe.stack(Layer::Sender, || vec![0u8; 64]);
    assert_eq!(probe.last.allocs, 1);
    assert_eq!(probe.last.bytes, 64);
    drop(v);

    // A netsim window and a bookkeeping window both allocate, yet the armed
    // tally does not move.
    let all_before = alloc::all_allocs();
    let armed_before = alloc::armed();
    let mut path = Profile::Clean.build(1500, 1);
    let out = probe.netsim(|| path.transmit(0, vec![1u8; 100]));
    assert_eq!(out.len(), 1);
    let copy = probe.bookkeeping(|| out[0].frame.clone());
    assert_eq!(copy.len(), 100);
    assert!(alloc::all_allocs() > all_before, "the windows did allocate");
    assert_eq!(alloc::armed(), armed_before);
    assert_eq!(probe.leaked, 0);
}

#[test]
fn a_corrupted_delivery_is_caught() {
    let msgs: [&[u8]; 2] = [&[1u8; 300], &[2u8; 200]];
    let mut book = Book::new(&msgs);
    book.on_delivered(0, 300, 12);
    book.on_delivered(0, 300, 13); // a repeat changes nothing
    book.on_delivered(300, 200, 15);
    let mut app = [msgs[0], msgs[1]].concat();
    let mut clean = Outcome::default();
    book.settle(&app, 100, &mut clean);
    assert_eq!((clean.verified, clean.corrupted), (2, 0));
    assert_eq!(clean.latencies_ns, vec![12, 15]);

    app[310] ^= 1;
    let mut bad = Outcome::default();
    book.settle(&app, 100, &mut bad);
    assert_eq!((bad.verified, bad.corrupted), (1, 1));
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let o = median_run(Workload::Bulk, 1);
    let line = report::json(true, 3, 0, &report::end_to_end(&o, 0.5, 10.0));
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    for name in [
        "vt_goodput_mib_s",
        "vt_msg_p50_us",
        "vt_msg_p90_us",
        "wire_overhead",
        "verified_share",
        "allocs_per_mib",
        "alloc_bytes_per_byte",
        "peak_rss_mib",
        "setup_s",
    ] {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
    }
}

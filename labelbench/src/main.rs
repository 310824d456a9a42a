//! Command line:
//!
//! ```text
//! labelbench --workload <bulk|fanin|stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload, with inputs drawn from the seed, until `--seconds`
//! have passed (at least [`MIN_RUNS`] times), checks every run delivered the
//! bytes that were sent and repeated the first run's simulated outcome, prints
//! every metric by name with its unit, and ends with one JSON line. With
//! `--trace 0` that line carries the end-to-end metrics, with `--trace 1`
//! the per-layer ones. Exit code 1 when a check failed, 2 on bad arguments.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use labelbench::common::Outcome;
use labelbench::report::{self, Metric, Traced};
use labelbench::{host, run, Rep, Scale, Workload};

/// Fewest runs per invocation: `setup_s` is a median over runs, and later
/// runs are checked against the first.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("bulk, fanin or stream"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("whole seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Checks every run; returns the problems found. Runs must repeat the
/// first run's simulated outcome exactly (allocation counts are compared
/// separately, see [`Outcome::simulated`]).
fn check(first: &Outcome, rep: &Rep) -> Vec<String> {
    let o = &rep.outcome;
    let mut problems = Vec::new();
    if o.corrupted > 0 {
        problems.push(format!(
            "{} messages delivered corrupted bytes",
            o.corrupted
        ));
    }
    if o.misaligned > 0 {
        problems.push(format!("{} deliveries matched no sent TPDU", o.misaligned));
    }
    if rep.leaked > 0 {
        problems.push(format!(
            "{} allocations counted outside transport-stack calls",
            rep.leaked
        ));
    }
    if o.simulated() != first.simulated() {
        problems.push("a run did not repeat the first run's simulated outcome".to_string());
    }
    problems
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labelbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Build the lazily initialised tables (GF arithmetic, backend choice)
    // before anything is counted or timed.
    run(args.workload, args.seed, &Scale::SMALL, false);

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced = Traced::default();
    let mut peak_rss_mib = 0.0;
    while reps.len() < MIN_RUNS || started.elapsed() < budget {
        // Traced runs alternate between groups A and B.
        let group = reps.len() % 2;
        let before = host::sample();
        reps.push(run(args.workload, args.seed, &Scale::FULL, args.trace));
        traced.host[group].add(before, host::sample());
        let ledger = reps.last().expect("just pushed").ledger;
        if group == 0 {
            traced.a.add(&ledger);
        } else {
            traced.b.add(&ledger);
        }
        traced.runs[group] += 1;
        if reps.len() == 1 {
            // The first run's peak: later runs only add allocator
            // fragmentation, whose amount depends on how many fit.
            peak_rss_mib = host::peak_rss_mib();
        }
    }

    let mut problems: Vec<String> = reps
        .iter()
        .flat_map(|r| check(&reps[0].outcome, r))
        .collect();
    // Report the run with the median allocation count, and how many runs
    // counted differently.
    let mut by_alloc: Vec<&Outcome> = reps.iter().map(|r| &r.outcome).collect();
    by_alloc.sort_by_key(|o| o.total_alloc());
    let reported = by_alloc[by_alloc.len() / 2].clone();
    let nonrepeat = by_alloc
        .iter()
        .filter(|o| o.tally != reported.tally)
        .count();
    let setup_s = median(reps.iter().map(|r| r.setup_ns).collect()) as f64 / 1e9;
    let e2e = report::end_to_end(&reported, setup_s, peak_rss_mib);
    let runs = reps.len() as u64;
    println!(
        "workload {} seed {} runs {} messages {} verified {} failed_share {} \
         alloc_counts_differing {}",
        args.workload.name(),
        args.seed,
        runs,
        reported.messages,
        reported.verified,
        (reported.messages - reported.verified) as f64 / reported.messages.max(1) as f64,
        nonrepeat
    );
    print_metrics("end to end", &e2e);
    let metrics = if args.trace {
        let mut layers = report::per_layer(&reported, &traced);
        layers.push(report::Metric {
            name: "counts.nonrepeat_share".to_string(),
            value: nonrepeat as f64 / reps.len() as f64,
            unit: "share",
        });
        let closure: f64 = layers
            .iter()
            .filter(|m| m.name.ends_with(".busy_share") || m.name == "ledger.unattributed_share")
            .map(|m| m.value)
            .sum();
        if (closure - 1.0).abs() > 1e-9 {
            problems.push(format!("ledger shares sum to {closure}, not 1"));
        }
        print_metrics("per layer", &layers);
        layers
    } else {
        e2e
    };
    for p in &problems {
        eprintln!("labelbench: FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        report::json(
            correct,
            reported.messages * runs,
            (reported.messages - reported.verified) * runs,
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

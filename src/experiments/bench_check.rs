//! The bench regression gate: committed `BENCH_*.json` summaries must
//! match what the code regenerates.
//!
//! Two classes of file, two checks:
//!
//! * **Exact** (`BENCH_lineage.json`, `BENCH_soak.json`,
//!   `BENCH_overlap.json`) — every value rides the virtual clock, so the
//!   check regenerates the file with the
//!   committed `meta.describe` and diffs byte for byte. Tolerance is zero:
//!   any drift means either the code's behaviour changed (commit the
//!   regenerated file deliberately) or determinism broke (fix it).
//! * **Structural** (`BENCH_parallel.json`, `BENCH_hotpath.json`,
//!   `BENCH_scale.json`, `BENCH_wsc.json`, `BENCH_obs.json`) — the
//!   numbers are host wall-clock, so the gate only validates shape: the
//!   file parses, opens with a complete `meta` block, and carries a
//!   non-empty `results` array. (`BENCH_obs.json` additionally has its
//!   committed on-null rows value-gated — ≤ 5% overhead, zero steady
//!   allocations — by `tests/bench_schema.rs`.)
//!
//! `just bench-check` runs this inside `just lint`, so a PR that changes
//! observable behaviour without regenerating the summaries fails CI.

use std::fmt;

use super::benchjson::{parse, Value};
use super::{lineage, overlap, soak, SEED, SEED2};

/// How one file fared.
#[derive(Clone, PartialEq, Debug)]
pub enum Status {
    /// The file matched (exactly, or structurally for wall-clock files).
    Ok,
    /// The file is missing or unreadable.
    Unreadable(String),
    /// The file did not parse as JSON.
    Malformed(String),
    /// The `meta` block is missing or incomplete.
    BadMeta(String),
    /// An exact file drifted from its regeneration.
    Drift {
        /// First differing line (1-based).
        line: usize,
        /// That line as committed.
        committed: String,
        /// That line as regenerated.
        regenerated: String,
        /// How many lines differ in all.
        lines: usize,
        /// The first [`DRIFT_ROWS_SHOWN`] differing lines, each with its
        /// row and first differing field.
        rows: Vec<String>,
    },
}

/// One file's verdict.
#[derive(Clone, PartialEq, Debug)]
pub struct FileCheck {
    /// The file checked.
    pub file: &'static str,
    /// Exact regeneration diff, or structural validation only.
    pub exact: bool,
    /// The verdict.
    pub status: Status,
}

/// The whole gate's result.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchCheckResult {
    /// One verdict per committed summary.
    pub checks: Vec<FileCheck>,
}

impl BenchCheckResult {
    /// True when every file passed.
    pub fn passes(&self) -> bool {
        self.checks.iter().all(|c| c.status == Status::Ok)
    }
}

impl fmt::Display for BenchCheckResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== bench-check — committed summaries vs regeneration ==="
        )?;
        for c in &self.checks {
            let mode = if c.exact { "exact" } else { "structural" };
            match &c.status {
                Status::Ok => writeln!(f, "  {:<22} {:<10} ok", c.file, mode)?,
                Status::Unreadable(e) => {
                    writeln!(f, "  {:<22} {:<10} UNREADABLE: {e}", c.file, mode)?
                }
                Status::Malformed(e) => {
                    writeln!(f, "  {:<22} {:<10} MALFORMED: {e}", c.file, mode)?
                }
                Status::BadMeta(e) => writeln!(f, "  {:<22} {:<10} BAD META: {e}", c.file, mode)?,
                Status::Drift {
                    line,
                    committed,
                    regenerated,
                    lines,
                    rows,
                } => {
                    writeln!(
                        f,
                        "  {:<22} {:<10} DRIFT at line {line} ({lines} lines drift):",
                        c.file, mode
                    )?;
                    writeln!(f, "    committed:   {committed}")?;
                    writeln!(f, "    regenerated: {regenerated}")?;
                    writeln!(f, "    first differing field per drifting line:")?;
                    for row in rows {
                        writeln!(f, "      {row}")?;
                    }
                    if *lines > rows.len() {
                        writeln!(f, "      ... and {} more", lines - rows.len())?;
                    }
                    writeln!(
                        f,
                        "    (intentional change? re-run the regenerate command in the file's meta block and commit the result)"
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Validates the `meta` block and returns its `describe` string.
fn check_meta(v: &Value) -> Result<String, String> {
    let meta = v.get("meta").ok_or("no `meta` object")?;
    let field = |key: &str| -> Result<String, String> {
        let s = meta
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("meta.{key} missing or not a string"))?;
        if s.is_empty() {
            return Err(format!("meta.{key} is empty"));
        }
        Ok(s.to_owned())
    };
    field("bench")?;
    field("regenerate")?;
    field("describe")
}

/// Drifting lines itemised in a [`Status::Drift`]; the rest are counted.
pub const DRIFT_ROWS_SHOWN: usize = 12;

/// Walks the two strings line by line, once: `None` when they are equal,
/// otherwise the [`Status::Drift`] naming the first differing line, how
/// many lines differ, and for the first [`DRIFT_ROWS_SHOWN`] of them `line
/// N: <row>: <first differing field>`. Strings that differ only in their
/// final newline drift by one line, past the last.
fn drift(committed: &str, regenerated: &str) -> Option<Status> {
    const EOF: &str = "<end of file>";
    if committed == regenerated {
        return None;
    }
    let (mut a, mut b) = (committed.lines(), regenerated.lines());
    let mut first = None;
    let (mut lines, mut rows) = (0, Vec::new());
    let mut n = 0;
    loop {
        n += 1;
        let (la, lb) = match (a.next(), b.next()) {
            (None, None) => break,
            (la, lb) if la == lb => continue,
            pair => pair,
        };
        lines += 1;
        first.get_or_insert_with(|| {
            (
                n,
                la.unwrap_or(EOF).to_owned(),
                lb.unwrap_or(EOF).to_owned(),
            )
        });
        if rows.len() < DRIFT_ROWS_SHOWN {
            let what = row_diff(la.unwrap_or(""), lb.unwrap_or(""));
            rows.push(format!("line {n}: {what}"));
        }
    }
    let (line, committed, regenerated) = first.unwrap_or_else(|| {
        lines = 1;
        rows.push(format!("line {n}: final newline differs"));
        (n, EOF.to_owned(), EOF.to_owned())
    });
    Some(Status::Drift {
        line,
        committed,
        regenerated,
        lines,
        rows,
    })
}

/// A drifting line as `<row label>: <first differing field>` when both
/// sides are one-line JSON objects (a `results` row); the row is labelled
/// by its first two scalar fields.
fn row_diff(committed: &str, regenerated: &str) -> String {
    let row = |line: &str| parse(line.trim().trim_end_matches(',')).ok();
    match (row(committed), row(regenerated)) {
        (Some(c), Some(r)) if c.as_obj().is_some() && r.as_obj().is_some() => {
            let label: Vec<String> = c
                .as_obj()
                .unwrap_or_default()
                .iter()
                .filter(|(_, v)| !matches!(v, Value::Obj(_) | Value::Arr(_)))
                .take(2)
                .map(|(k, v)| format!("{k}={}", brief(v)))
                .collect();
            let field = field_diff(&c, &r).unwrap_or_else(|| "formatting only".into());
            format!("{}: {field}", label.join(" "))
        }
        _ => "not a one-line JSON row".into(),
    }
}

/// The first field where two values differ, as `path: committed ->
/// regenerated` (nested objects give a dotted path); `None` when equal.
fn field_diff(c: &Value, r: &Value) -> Option<String> {
    if c == r {
        return None;
    }
    let (Some(co), Some(ro)) = (c.as_obj(), r.as_obj()) else {
        return Some(format!("{} -> {}", brief(c), brief(r)));
    };
    for i in 0..co.len().max(ro.len()) {
        match (co.get(i), ro.get(i)) {
            (Some((kc, vc)), Some((kr, vr))) if kc == kr => {
                if let Some(d) = field_diff(vc, vr) {
                    let sep = if vc.as_obj().is_some() && vr.as_obj().is_some() {
                        "."
                    } else {
                        ": "
                    };
                    return Some(format!("{kc}{sep}{d}"));
                }
            }
            (kc, kr) => {
                let key =
                    |k: Option<&(String, Value)>| k.map_or("<none>".into(), |(k, _)| k.clone());
                return Some(format!("field {} -> {}", key(kc), key(kr)));
            }
        }
    }
    None
}

/// A short rendering of a value: scalars as written, containers elided.
fn brief(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.clone(),
        Value::Str(s) => s.clone(),
        Value::Arr(_) => "[..]".into(),
        Value::Obj(_) => "{..}".into(),
    }
}

fn check_file(file: &'static str, exact: bool, regen: impl FnOnce(&str) -> String) -> FileCheck {
    let status = (|| {
        let committed =
            std::fs::read_to_string(file).map_err(|e| Status::Unreadable(e.to_string()))?;
        let parsed = parse(&committed).map_err(Status::Malformed)?;
        let describe = check_meta(&parsed).map_err(Status::BadMeta)?;
        if exact {
            let regenerated = regen(&describe);
            if let Some(drift) = drift(&committed, &regenerated) {
                return Err(drift);
            }
        } else if parsed
            .get("results")
            .and_then(Value::as_arr)
            .map(<[Value]>::is_empty)
            .unwrap_or(true)
        {
            return Err(Status::BadMeta("`results` missing or empty".into()));
        }
        Ok(())
    })();
    FileCheck {
        file,
        exact,
        status: match status {
            Ok(()) => Status::Ok,
            Err(s) => s,
        },
    }
}

/// Runs the gate against the committed `BENCH_*.json` files in the current
/// directory. Exact files are regenerated with the committed
/// `meta.describe`, so a clean tree round-trips byte for byte.
pub fn run() -> BenchCheckResult {
    BenchCheckResult {
        checks: vec![
            check_file("BENCH_lineage.json", true, |describe| {
                lineage::bench_json(&lineage::run(SEED), describe)
            }),
            check_file("BENCH_soak.json", true, |describe| {
                let (r1, r2) = (soak::run(SEED), soak::run(SEED2));
                soak::bench_json(&[&r1, &r2], describe)
            }),
            check_file("BENCH_overlap.json", true, |describe| {
                overlap::bench_json(&overlap::run(SEED), describe)
            }),
            check_file("BENCH_parallel.json", false, |_| String::new()),
            check_file("BENCH_hotpath.json", false, |_| String::new()),
            check_file("BENCH_scale.json", false, |_| String::new()),
            check_file("BENCH_wsc.json", false, |_| String::new()),
            check_file("BENCH_obs.json", false, |_| String::new()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first drifting line of [`drift`]: `(line, committed, regenerated)`.
    fn first_diff(committed: &str, regenerated: &str) -> Option<(usize, String, String)> {
        match drift(committed, regenerated)? {
            Status::Drift {
                line,
                committed,
                regenerated,
                ..
            } => Some((line, committed, regenerated)),
            other => panic!("not a drift: {other:?}"),
        }
    }

    /// The drifting-line count and itemised rows of [`drift`].
    fn drifting_lines(committed: &str, regenerated: &str) -> (usize, Vec<String>) {
        match drift(committed, regenerated) {
            None => (0, Vec::new()),
            Some(Status::Drift { lines, rows, .. }) => (lines, rows),
            Some(other) => panic!("not a drift: {other:?}"),
        }
    }

    #[test]
    fn first_diff_reports_the_first_differing_line() {
        assert_eq!(first_diff("a\nb\n", "a\nb\n"), None);
        let (line, c, r) = first_diff("a\nb\n", "a\nc\n").unwrap();
        assert_eq!((line, c.as_str(), r.as_str()), (2, "b", "c"));
        let (line, _, r) = first_diff("a\n", "a\nb\n").unwrap();
        assert_eq!((line, r.as_str()), (2, "b"));
    }

    #[test]
    fn drift_report_counts_every_drifting_line_and_names_its_field() {
        let committed = "{\n  \"results\": [\n    \
            {\"scenario\": \"a\", \"seed\": \"0x1\", \"ms\": 0.8, \"metrics\": {\"x\": 1, \"y\": 2}},\n    \
            {\"scenario\": \"b\", \"seed\": \"0x1\", \"ms\": 1.4, \"metrics\": {\"x\": 1}},\n    \
            {\"scenario\": \"c\", \"seed\": \"0x1\", \"ms\": 2.0, \"metrics\": {}}\n  ]\n}\n";
        let regenerated = committed
            .replace("\"y\": 2", "\"y\": 3")
            .replace("\"ms\": 1.4", "\"ms\": 1.6")
            .replace("\"ms\": 2.0, \"metrics\": {}", "\"ms\": 2.0, \"extra\": 1");
        assert_eq!(drifting_lines(committed, committed), (0, Vec::new()));
        let (lines, rows) = drifting_lines(committed, &regenerated);
        assert_eq!(lines, 3);
        assert_eq!(
            rows,
            [
                "line 3: scenario=a seed=0x1: metrics.y: 2 -> 3",
                "line 4: scenario=b seed=0x1: ms: 1.4 -> 1.6",
                "line 5: scenario=c seed=0x1: field metrics -> extra",
            ]
        );
        // Lines that are not rows still count; the list is capped.
        let many: String = (0..40).map(|i| format!("{i}\n")).collect();
        let (lines, rows) = drifting_lines(&many, &many.replace('\n', "!\n"));
        assert_eq!(lines, 40);
        assert_eq!(rows.len(), DRIFT_ROWS_SHOWN);
        assert_eq!(rows[0], "line 1: not a one-line JSON row");
        let (lines, _) = drifting_lines("a\n", "a\nb\nc\n");
        assert_eq!(lines, 2, "extra lines drift too");
        // A final newline alone is one drifting line, first and counted.
        assert_eq!(
            drifting_lines("a\n", "a"),
            (1, vec!["line 2: final newline differs".to_owned()])
        );
        assert_eq!(first_diff("a\n", "a").unwrap().0, 2);
    }

    #[test]
    fn meta_validation_requires_all_three_fields() {
        let ok =
            parse("{\"meta\": {\"bench\": \"x\", \"regenerate\": \"cmd\", \"describe\": \"v1\"}}")
                .unwrap();
        assert_eq!(check_meta(&ok).unwrap(), "v1");
        let missing = parse("{\"meta\": {\"bench\": \"x\", \"describe\": \"v1\"}}").unwrap();
        assert!(check_meta(&missing).is_err());
        let empty =
            parse("{\"meta\": {\"bench\": \"\", \"regenerate\": \"cmd\", \"describe\": \"v1\"}}")
                .unwrap();
        assert!(check_meta(&empty).is_err());
    }
}

//! Printing a run, collecting all runs into `results.json`, and comparing
//! two such files row by row.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::run::RunReport;
use crate::spec::{self, Better};

/// `out/results.json`: every run of one invocation of `run.sh`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Format version of this file.
    pub schema: u32,
    /// `--seed` of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// One untraced and one traced run per workload.
    pub runs: Vec<RunReport>,
}

/// Current [`Results::schema`].
pub const RESULTS_SCHEMA: u32 = 1;

/// Every metric of `run` by name with its unit, one per line.
#[must_use]
pub fn render_run(run: &RunReport) -> String {
    let mut out = String::new();
    let kind = if run.traced { "traced" } else { "untraced" };
    let _ = writeln!(
        out,
        "== {} (seed {}, {kind}, {} cores): attempted {} failed {} failed_share {} warmup_s {:.3}",
        run.workload,
        run.seed,
        run.nproc,
        run.attempted,
        run.failed,
        run.failed_share(),
        run.warmup_s,
    );
    let e2e = spec::END_TO_END.iter().map(|(m, _)| m);
    for m in e2e.chain(spec::PER_LAYER.iter()) {
        let Some(value) = run.metrics.get(m.name) else {
            continue;
        };
        let _ = write!(out, "{:<36} {value:>16.6} {}", m.name, m.unit);
        if let Some(s) = run.summaries.get(m.name) {
            let _ = write!(
                out,
                "  (median of {}: min {:.6} max {:.6}",
                s.n, s.min, s.max
            );
            if let Some((p, v)) = s.tail {
                let _ = write!(out, " p{p} {v:.6}");
            }
            let _ = write!(out, ")");
        }
        let _ = writeln!(out);
    }
    for w in &run.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    out
}

/// How one (metric, workload) row of B stands against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// B's median is better than A's by more than the bound.
    Better,
    /// The medians are within the bound of each other.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread of the samples is wider than the bound and the two
    /// ranges overlap: the runs cannot tell.
    Unresolved,
}

impl Outcome {
    /// Lower-case word for the table.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Same => "same",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the median and what is known of the samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// The reported value.
    pub median: f64,
    /// Smallest and largest sample (both the median when there was one).
    pub range: (f64, f64),
    /// Quartile distance over median.
    pub spread: f64,
}

fn side(run: &RunReport, metric: &str) -> Option<Side> {
    let median = *run.metrics.get(metric)?;
    Some(match run.summaries.get(metric) {
        Some(s) => Side {
            median,
            range: (s.min, s.max),
            spread: s.spread(),
        },
        None => Side {
            median,
            range: (median, median),
            spread: 0.0,
        },
    })
}

/// Judge B against A for a metric with the given direction and bound.
#[must_use]
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> Outcome {
    let overlap = a.range.0 <= b.range.1 && b.range.0 <= a.range.1;
    if a.spread.max(b.spread) > bound && overlap {
        return Outcome::Unresolved;
    }
    // Positive when B is worse, as a share of A.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if worse_by > bound {
        Outcome::Worse
    } else if worse_by < -bound {
        Outcome::Better
    } else {
        Outcome::Same
    }
}

/// The comparison table of two result files and whether any row is worse.
#[must_use]
pub fn compare(a: &Results, b: &Results) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<26} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for ra in a.runs.iter().filter(|r| !r.traced) {
        let Some(rb) = b
            .runs
            .iter()
            .find(|r| !r.traced && r.workload == ra.workload)
        else {
            let _ = writeln!(out, "{:<26} missing from B", ra.workload);
            any_worse = true;
            continue;
        };
        for (m, bound) in spec::END_TO_END {
            let (Some(sa), Some(sb)) = (side(ra, m.name), side(rb, m.name)) else {
                continue;
            };
            let verdict = judge(sa, sb, m.better, bound);
            any_worse |= verdict == Outcome::Worse;
            let _ = writeln!(
                out,
                "{:<26} {:<20} {:>14.6} {:>14.6} {:>8.4} {:>6.0}%  {}",
                ra.workload,
                format!("{} [{}]", m.name, m.unit),
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound * 100.0,
                verdict.as_str(),
            );
        }
        // failed_share has no tolerance: any failure on either side is worse.
        let (fa, fb) = (ra.failed_share(), rb.failed_share());
        let failed = fa > 0.0 || fb > 0.0;
        any_worse |= failed;
        let _ = writeln!(
            out,
            "{:<26} {:<20} {fa:>14.6} {fb:>14.6} {:>8} {:>6}   {}",
            ra.workload,
            "failed_share",
            "-",
            "0",
            if failed { "worse" } else { "same" },
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use std::collections::BTreeMap;

    fn tight(median: f64) -> Side {
        Side {
            median,
            range: (median * 0.99, median * 1.01),
            spread: 0.01,
        }
    }

    #[test]
    fn judge_uses_the_bound_the_direction_and_the_spread() {
        let lower = Better::Lower;
        assert_eq!(judge(tight(1.0), tight(1.05), lower, 0.1), Outcome::Same);
        assert_eq!(judge(tight(1.0), tight(1.2), lower, 0.1), Outcome::Worse);
        assert_eq!(judge(tight(1.0), tight(0.8), lower, 0.1), Outcome::Better);
        assert_eq!(
            judge(tight(1.0), tight(0.8), Better::Higher, 0.1),
            Outcome::Worse
        );
        // Wide samples that overlap cannot tell...
        let wide = |median: f64, lo: f64, hi: f64| Side {
            median,
            range: (lo, hi),
            spread: 0.3,
        };
        assert_eq!(
            judge(wide(1.0, 0.7, 1.4), wide(1.2, 0.9, 1.6), lower, 0.1),
            Outcome::Unresolved
        );
        // ...unless every sample of one side beats every sample of the other.
        assert_eq!(
            judge(wide(1.0, 0.8, 1.2), wide(2.0, 1.6, 2.4), lower, 0.1),
            Outcome::Worse
        );
    }

    fn report(workload: &str, wall: &[f64], failed: u64) -> RunReport {
        let s = Summary::of(wall);
        RunReport {
            workload: workload.to_owned(),
            seed: 7,
            traced: false,
            nproc: 2,
            attempted: 10,
            failed,
            warmup_s: 4.0,
            metrics: BTreeMap::from([
                ("verdict_wall_s".to_owned(), s.median),
                ("peak_rss_mb".to_owned(), 12.5),
            ]),
            summaries: BTreeMap::from([("verdict_wall_s".to_owned(), s)]),
            warnings: vec!["w".to_owned()],
        }
    }

    #[test]
    fn results_round_trip_through_json() {
        let results = Results {
            schema: RESULTS_SCHEMA,
            seed: 7,
            seconds: 10.0,
            runs: vec![report("matmul_cold", &[0.5, 0.52, 0.51], 0)],
        };
        let text = serde_json::to_string_pretty(&results).unwrap();
        let back: Results = serde_json::from_str(&text).unwrap();
        assert_eq!(back, results);
        let line: serde_json::Value =
            serde_json::from_str(&results.runs[0].contract_line()).unwrap();
        assert_eq!(
            line.get("correct").and_then(serde_json::Value::as_bool),
            Some(true)
        );
        let wall = line
            .get("metrics")
            .and_then(|m| m.get("verdict_wall_s"))
            .unwrap();
        assert_eq!(
            wall.get("unit").and_then(serde_json::Value::as_str),
            Some("s")
        );
        assert_eq!(
            wall.get("value").and_then(serde_json::Value::as_f64),
            Some(0.51)
        );
    }

    #[test]
    fn compare_flags_slower_runs_and_failures() {
        let results = |runs| Results {
            schema: RESULTS_SCHEMA,
            seed: 7,
            seconds: 10.0,
            runs,
        };
        let a = results(vec![report("matmul_cold", &[0.50, 0.51, 0.52], 0)]);
        let (table, worse) = compare(&a, &a);
        assert!(!worse, "{table}");
        assert!(table.contains("verdict_wall_s [s]") && table.contains("same"));

        let slow = results(vec![report("matmul_cold", &[0.70, 0.71, 0.72], 0)]);
        let (table, worse) = compare(&a, &slow);
        assert!(worse && table.contains("worse"), "{table}");
        let (table, worse) = compare(&slow, &a);
        assert!(!worse && table.contains("better"), "{table}");

        let failing = results(vec![report("matmul_cold", &[0.50, 0.51, 0.52], 1)]);
        assert!(compare(&a, &failing).1);
        assert!(compare(&a, &results(Vec::new())).1);
    }
}

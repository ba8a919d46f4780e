//! `benchmark compare <a.json> <b.json>`: holds results file `b` to results
//! file `a` with each metric's direction and bound from `BENCHMARK.json`,
//! one row per (metric, workload).

use duet_serve::json::Json;

use crate::report::num;
use crate::stats::Better;

/// How one row came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, or better.
    Ok,
    /// Worse by more than the bound, or an exact metric that moved.
    Regression,
    /// The slices of one side spread wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

/// One (metric, workload) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// Workload name.
    pub workload: String,
    /// Value in the first file, the base of `worse_by`.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// How much worse `b` is, as a share of `a`; negative when better.
    pub worse_by: f64,
    /// The most `worse_by` may be.
    pub bound: f64,
    /// What that makes the row.
    pub verdict: Verdict,
}

/// A metric of `BENCHMARK.json`'s `end_to_end` list.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Good direction.
    pub better: Better,
    /// Share of the parent's value the metric may get worse by.
    pub bound: f64,
}

/// Reads the gates out of a parsed `BENCHMARK.json`.
pub fn gates(spec: &Json) -> Result<Vec<Gate>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(num)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Gate {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

fn workloads(file: &Json) -> Result<&[Json], String> {
    file.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "results file has no workloads list".to_string())
}

fn value(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload
        .get(section)?
        .get(metric)?
        .get("value")
        .and_then(num)
}

/// How much worse `b` is than `a`, as a share of `a`.
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares two parsed results files. Rows for the gated host-time metrics
/// carry their bound; the exact rows — `sim_fingerprint`, `paper_err_pct`,
/// `failed_frac` — have bound 0 and regress on any move for the worse
/// (`paper_err_pct` and the fingerprint on any move at all: a speed change
/// must leave them bit-equal, and a fidelity change re-baselines them).
pub fn compare(a: &Json, b: &Json, gates: &[Gate]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wa in workloads(a)? {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let wb = workloads(b)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("{name} is missing from the second file"))?;
        let mut row = |metric: &str, a: f64, b: f64, worse_by: f64, bound: f64, verdict| {
            rows.push(Row {
                metric: metric.to_string(),
                workload: name.to_string(),
                a,
                b,
                worse_by,
                bound,
                verdict,
            });
        };
        let spread = |w: &Json| value(w, "per_layer", "bench.slice_spread_pct").unwrap_or(0.0);
        let noisiest = spread(wa).max(spread(wb)) / 100.0;
        for g in gates {
            let (Some(va), Some(vb)) = (
                value(wa, "end_to_end", &g.name),
                value(wb, "end_to_end", &g.name),
            ) else {
                return Err(format!("{name} lacks {}", g.name));
            };
            let worse = worse_by(va, vb, g.better);
            let verdict = if noisiest > g.bound {
                Verdict::Unresolved
            } else if worse > g.bound {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            row(&g.name, va, vb, worse, g.bound, verdict);
        }
        let exact = |moved: bool| {
            if moved {
                Verdict::Regression
            } else {
                Verdict::Ok
            }
        };
        let fp = |w: &Json| {
            w.get("sim_fingerprint")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
        };
        let (fa, fb) = (fp(wa), fp(wb));
        // Shown as the low 32 bits; compared whole.
        let low = |f: Option<u64>| f.map_or(f64::NAN, |f| (f & 0xffff_ffff) as f64);
        row(
            "sim_fingerprint",
            low(fa),
            low(fb),
            0.0,
            0.0,
            exact(fa != fb),
        );
        for (metric, any_move) in [("paper_err_pct", true), ("failed_frac", false)] {
            let va = value(wa, "per_layer", metric).unwrap_or(0.0);
            let vb = value(wb, "per_layer", metric).unwrap_or(0.0);
            let moved = if any_move {
                va.to_bits() != vb.to_bits()
            } else {
                vb > va
            };
            let worse = if va == 0.0 { vb - va } else { (vb - va) / va };
            row(metric, va, vb, worse, 0.0, exact(moved));
        }
    }
    Ok(rows)
}

/// The rows as a table, and whether any row regressed.
pub fn render(rows: &[Row]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<17} {:>16} {:>16} {:>9}  {:>6}  {}\n",
        "metric", "workload", "a (base)", "b", "worse by", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<17} {:>16.6} {:>16.6} {:>8.2}%  {:>5.0}%  {}\n",
            r.metric,
            r.workload,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regression);
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_serve::json::parse;

    fn file(unit_wall: f64, req: f64, spread: f64, fp: &str, paper: f64, failed: f64) -> Json {
        let text = format!(
            r#"{{"workloads":[{{"name":"w","sim_fingerprint":"{fp}",
                "end_to_end":{{"unit_wall_s":{{"value":{unit_wall},"unit":"s"}},
                               "req_per_s":{{"value":{req},"unit":"1/s"}}}},
                "per_layer":{{"bench.slice_spread_pct":{{"value":{spread},"unit":"%"}},
                              "paper_err_pct":{{"value":{paper},"unit":"%"}},
                              "failed_frac":{{"value":{failed},"unit":"ratio"}}}}}}]}}"#
        );
        parse(text.as_bytes()).expect("test file parses")
    }

    fn test_gates() -> Vec<Gate> {
        let spec = parse(
            br#"{"end_to_end":[
                {"name":"unit_wall_s","unit":"s","better":"lower","bound":0.1},
                {"name":"req_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        gates(&spec).unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<(String, Verdict)> {
        compare(a, b, &test_gates())
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn direction_and_bound_decide() {
        let a = file(1.0, 100.0, 2.0, "0a", 55.5, 0.0);
        // 8 % slower and 8 % fewer requests: inside 10 %.
        let rows = verdicts(&a, &file(1.08, 92.0, 2.0, "0a", 55.5, 0.0));
        assert!(rows.iter().all(|(_, v)| *v == Verdict::Ok), "{rows:?}");
        // 12 % slower: out. 12 % more requests: better, so fine.
        let rows = verdicts(&a, &file(1.12, 112.0, 2.0, "0a", 55.5, 0.0));
        assert_eq!(rows[0], ("unit_wall_s".into(), Verdict::Regression));
        assert_eq!(rows[1], ("req_per_s".into(), Verdict::Ok));
        // 12 % fewer requests: out.
        let rows = verdicts(&a, &file(1.0, 88.0, 2.0, "0a", 55.5, 0.0));
        assert_eq!(rows[1], ("req_per_s".into(), Verdict::Regression));
        assert!((worse_by(100.0, 88.0, Better::Higher) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn wide_slices_leave_a_row_unresolved() {
        let a = file(1.0, 100.0, 2.0, "0a", 55.5, 0.0);
        let rows = verdicts(&a, &file(1.3, 100.0, 14.0, "0a", 55.5, 0.0));
        assert_eq!(rows[0].1, Verdict::Unresolved);
        let (_, regressed) = render(&compare(&a, &a, &test_gates()).unwrap());
        assert!(!regressed);
    }

    #[test]
    fn exact_metrics_regress_on_any_move() {
        let a = file(1.0, 100.0, 2.0, "0a", 55.5, 0.0);
        let by_name = |b: &Json, name: &str| {
            verdicts(&a, b)
                .into_iter()
                .find(|(m, _)| m == name)
                .unwrap()
                .1
        };
        let other_fp = file(1.0, 100.0, 2.0, "0b", 55.5, 0.0);
        assert_eq!(by_name(&other_fp, "sim_fingerprint"), Verdict::Regression);
        // Closer to the paper is still a move: a speed change must not make it.
        let closer = file(1.0, 100.0, 2.0, "0a", 50.0, 0.0);
        assert_eq!(by_name(&closer, "paper_err_pct"), Verdict::Regression);
        let failing = file(1.0, 100.0, 2.0, "0a", 55.5, 0.01);
        assert_eq!(by_name(&failing, "failed_frac"), Verdict::Regression);
        let (text, regressed) = render(&compare(&a, &failing, &test_gates()).unwrap());
        assert!(regressed && text.contains("REGRESSION"));
    }
}

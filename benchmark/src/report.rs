//! What the benchmark prints and writes: the one-line result the contract
//! asks for, the per-workload record the runner's children hand back, the
//! combined results file, and the table for people.

use duet_serve::json::{obj, Json};

use crate::fingerprint;
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::runner::RunResult;

/// Schema tag of a combined results file.
pub const SCHEMA: &str = "duet-benchmark-v1";

/// A JSON number as `f64`, whichever of the three variants it parsed to.
pub fn num(j: &Json) -> Option<f64> {
    match j {
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        Json::F64(v) => Some(*v),
        _ => None,
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}` for every metric of `table`.
pub fn metrics_json(values: &Values, table: &'static [MetricDef]) -> Json {
    Json::Obj(
        values
            .complete(table)
            .into_iter()
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    obj([
                        ("value", Json::F64(v)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` — end-to-end metrics for an untraced run,
/// per-layer metrics for a traced one.
pub fn result_line(r: &RunResult, traced: bool) -> String {
    let (values, table) = if traced {
        (&r.per_layer, PER_LAYER)
    } else {
        (&r.end_to_end, END_TO_END)
    };
    obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(r.failures.len() as u64)),
        ("metrics", metrics_json(values, table)),
    ])
    .to_json()
}

/// One workload's entry in a combined results file. A child of the runner
/// writes one of these to its `--out` file per pass; the runner merges the
/// two passes into one entry.
pub fn workload_record(r: &RunResult, traced: bool) -> Json {
    let mut fields = vec![
        ("name", Json::Str(r.workload.to_string())),
        ("seed", Json::U64(r.seed)),
        (
            "sim_fingerprint",
            Json::Str(fingerprint::hex(r.fingerprint)),
        ),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(r.failures.len() as u64)),
        (
            "failures",
            Json::Arr(r.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("end_to_end", metrics_json(&r.end_to_end, END_TO_END)),
    ];
    if traced {
        fields.push(("per_layer", metrics_json(&r.per_layer, PER_LAYER)));
    }
    obj(fields)
}

/// `name  value unit` rows under a heading, every metric by name.
pub fn table(heading: &str, metrics: &Json) -> String {
    let mut out = format!("{heading}\n");
    for (name, m) in metrics.as_obj().unwrap_or(&[]) {
        let value = m.get("value").and_then(num).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        out.push_str(&format!("  {name:<34} {value:>16.6} {unit}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_serve::json::parse;

    fn sample() -> RunResult {
        let mut end_to_end = Values::default();
        end_to_end.set("setup_s", 0.012_345_678_9);
        end_to_end.set("unit_wall_s", 0.5);
        let mut per_layer = Values::default();
        per_layer.set("noc.tick_ns", 1234.5);
        RunResult {
            workload: "noc_hotspot",
            seed: 3,
            attempted: 70,
            failures: vec!["slice 2 simulated \"x\"".into()],
            fingerprint: 0xdead_beef,
            end_to_end,
            per_layer,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = sample();
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let parsed = parse(result_line(&r, traced).as_bytes()).expect("valid JSON");
            let keys: Vec<&str> = parsed
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(false));
            assert_eq!(parsed.get("failed").unwrap().as_u64(), Some(1));
            let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(names, want);
        }
    }

    #[test]
    fn records_round_trip_through_the_service_codec() {
        let r = sample();
        let text = workload_record(&r, true).to_json();
        let back = parse(text.as_bytes()).expect("valid JSON");
        assert_eq!(back.to_json(), text);
        assert_eq!(
            back.get("sim_fingerprint").unwrap().as_str(),
            Some("00000000deadbeef")
        );
        let setup = back.get("end_to_end").unwrap().get("setup_s").unwrap();
        assert_eq!(num(setup.get("value").unwrap()), Some(0.012_345_678_9));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        let tick = back.get("per_layer").unwrap().get("noc.tick_ns").unwrap();
        assert_eq!(num(tick.get("value").unwrap()), Some(1234.5));
        assert!(table("t", back.get("end_to_end").unwrap()).contains("setup_s"));
    }
}

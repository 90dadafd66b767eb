//! What this program reads of `BENCHMARK.json` (which metrics are
//! declared, with what unit and bound) and of the result line a child run
//! prints, through the repo's own JSON parser.

use std::path::PathBuf;

use bench::json::Json;

/// A metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// Share of the baseline's median the metric may worsen by;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The metrics listed in the array `section` (`end_to_end` or
/// `per_layer`) of the repo's `BENCHMARK.json`.
pub fn declared(section: &str) -> Result<Vec<Declared>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text)?;
    let metrics = json.get(section).ok_or(format!("no {section} section"))?;
    metrics
        .items()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                let value = m.get(key).and_then(Json::as_str);
                value.ok_or(format!("a {section} metric without {key}"))
            };
            Ok(Declared {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// `metrics.<name>.value` of a result line.
pub fn metric_value(result_line: &Json, name: &str) -> Option<f64> {
    result_line
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

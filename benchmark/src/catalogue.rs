//! `BENCHMARK.json` is the one list of workloads, metrics, units and
//! bounds: the harness reads it rather than repeat it, refuses to
//! report a metric it does not name, and `compare` takes its bounds
//! from it. Reference outputs live beside the benchmark in
//! `pinned.json`, because `BENCHMARK.json` has a fixed set of keys.

use hamr_trace::json::{self, Json};
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// only end-to-end metrics carry one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("{what}: no \"{key}\""))
}

fn text(obj: &Json, key: &str, what: &str) -> Result<String, String> {
    field(obj, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: \"{key}\" is not a string"))
}

fn metric_defs(root: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    field(root, key, "BENCHMARK.json")?
        .as_arr()
        .ok_or_else(|| format!("\"{key}\" is not a list"))?
        .iter()
        .map(|m| {
            let name = text(m, "name", key)?;
            let higher_is_better = match text(m, "better", &name)?.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{name}: better is \"{other}\"")),
            };
            Ok(MetricDef {
                unit: text(m, "unit", &name)?,
                higher_is_better,
                bound: m.get("bound").and_then(Json::as_f64),
                name,
            })
        })
        .collect()
}

impl Catalogue {
    pub fn parse(source: &str) -> Result<Catalogue, String> {
        let root = json::parse(source)?;
        let workloads = field(&root, "workloads", "BENCHMARK.json")?
            .as_arr()
            .ok_or("\"workloads\" is not a list")?
            .iter()
            .map(|w| text(w, "name", "workload"))
            .collect::<Result<_, _>>()?;
        Ok(Catalogue {
            workloads,
            end_to_end: metric_defs(&root, "end_to_end")?,
            per_layer: metric_defs(&root, "per_layer")?,
        })
    }

    pub fn load(path: &Path) -> Result<Catalogue, String> {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Catalogue::parse(&source).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The output a workload must produce at one seed and shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Pinned {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub checksum: u64,
    pub records: u64,
}

/// Parse `pinned.json`: a list of objects whose checksum is a hex
/// string, because a u64 does not survive a JSON number.
pub fn parse_pinned(source: &str) -> Result<Vec<Pinned>, String> {
    json::parse(source)?
        .as_arr()
        .ok_or("pinned references are not a list")?
        .iter()
        .map(|p| {
            let workload = text(p, "workload", "pinned")?;
            let hex = text(p, "checksum", &workload)?;
            let checksum = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                .map_err(|e| format!("{workload}: checksum \"{hex}\": {e}"))?;
            let number = |key: &str| {
                field(p, key, &workload)?
                    .as_u64()
                    .ok_or_else(|| format!("{workload}: \"{key}\" is not a whole number"))
            };
            Ok(Pinned {
                seed: number("seed")?,
                quick: matches!(field(p, "quick", &workload)?, Json::Bool(true)),
                records: number("records")?,
                checksum,
                workload,
            })
        })
        .collect()
}

pub fn load_pinned(path: &Path) -> Result<Vec<Pinned>, String> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_pinned(&source).map_err(|e| format!("{}: {e}", path.display()))
}

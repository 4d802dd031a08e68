//! `hamr-benchmark compare A.json B.json`: A is the parent, B the
//! change. Every end-to-end metric of every workload gets one row and
//! one verdict against the bound `BENCHMARK.json` gives it.

use crate::catalogue::Catalogue;
use crate::stats::Summary;
use hamr_trace::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

/// One metric of one workload: the value it is reported and gated as,
/// and the summary of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: Summary,
}

#[derive(Debug, Clone, PartialEq)]
pub struct LoadedWorkload {
    pub sizes: String,
    pub jobs_attempted: u64,
    pub jobs_failed: u64,
    pub metrics: BTreeMap<String, Measured>,
}

/// One `result.json`, as far as `compare` needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Loaded {
    pub comparable: bool,
    pub seed: u64,
    pub topology: (u64, u64),
    pub workloads: BTreeMap<String, LoadedWorkload>,
}

fn number(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no number \"{key}\""))
}

fn whole(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("no whole number \"{key}\""))
}

pub fn parse_result(source: &str) -> Result<Loaded, String> {
    let root = json::parse(source)?;
    let topology = root.get("topology").ok_or("no \"topology\"")?;
    let mut workloads = BTreeMap::new();
    for w in root
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no \"workloads\" list")?
    {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(found)) = w.get("metrics") {
            for (metric, m) in found {
                let samples = Summary {
                    median: number(m, "median")?,
                    q1: number(m, "q1")?,
                    q3: number(m, "q3")?,
                    min: number(m, "min")?,
                    max: number(m, "max")?,
                    n: whole(m, "n")? as usize,
                };
                let value = number(m, "value")?;
                metrics.insert(metric.clone(), Measured { value, samples });
            }
        }
        workloads.insert(
            name.to_string(),
            LoadedWorkload {
                sizes: w
                    .get("sizes")
                    .and_then(Json::as_str)
                    .ok_or("workload without \"sizes\"")?
                    .to_string(),
                jobs_attempted: whole(w, "jobs_attempted")?,
                jobs_failed: whole(w, "jobs_failed")?,
                metrics,
            },
        );
    }
    Ok(Loaded {
        comparable: matches!(root.get("comparable"), Some(Json::Bool(true))),
        seed: whole(&root, "seed")?,
        topology: (
            whole(topology, "nodes")?,
            whole(topology, "threads_per_node")?,
        ),
        workloads,
    })
}

pub fn load_result(path: &Path) -> Result<Loaded, String> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_result(&source).map_err(|e| format!("{}: {e}", path.display()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's value is worse than A's by more than the bound.
    Regression,
    /// Not a regression, but one side's own inter-quartile spread is
    /// wider than the bound, so "no change" cannot be told from noise.
    Unresolved,
    /// Not worse by more than the bound, and both sides are steady.
    WithinBound,
}

/// By how much of A's value B is worse (negative: better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let rel = (b - a) / a.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

pub fn verdict(a: &Measured, b: &Measured, higher_is_better: bool, bound: f64) -> Verdict {
    if worse_by(a.value, b.value, higher_is_better) > bound {
        Verdict::Regression
    } else if a.samples.spread() > bound || b.samples.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// The comparison as text, and whether B passes: no regression and no
/// workload with a higher share of failed jobs. `Err` when the files
/// do not describe the same experiment.
pub fn compare(a: &Loaded, b: &Loaded, catalogue: &Catalogue) -> Result<(String, bool), String> {
    if !a.comparable || !b.comparable {
        return Err("a --quick result is not comparable".into());
    }
    if a.seed != b.seed {
        return Err(format!("seeds differ: {} and {}", a.seed, b.seed));
    }
    if a.topology != b.topology {
        return Err(format!(
            "topologies differ: {}x{} and {}x{}",
            a.topology.0, a.topology.1, b.topology.0, b.topology.1
        ));
    }
    if !a.workloads.keys().eq(b.workloads.keys()) {
        return Err("the files hold different workloads".into());
    }
    let mut out = String::new();
    let mut pass = true;
    for (name, wa) in &a.workloads {
        let wb = &b.workloads[name];
        if wa.sizes != wb.sizes {
            return Err(format!(
                "{name}: sizes differ: {} and {}",
                wa.sizes, wb.sizes
            ));
        }
        for def in &catalogue.end_to_end {
            let (Some(sa), Some(sb)) = (wa.metrics.get(&def.name), wb.metrics.get(&def.name))
            else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let v = verdict(sa, sb, def.higher_is_better, bound);
            pass &= v != Verdict::Regression;
            let _ = writeln!(
                out,
                "{name} {} A {} [{} {}] n={} B {} [{} {}] n={} {} worse by {:+.2}% bound {:.0}% {}",
                def.name,
                sa.value,
                sa.samples.q1,
                sa.samples.q3,
                sa.samples.n,
                sb.value,
                sb.samples.q1,
                sb.samples.q3,
                sb.samples.n,
                def.unit,
                worse_by(sa.value, sb.value, def.higher_is_better) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                    Verdict::WithinBound => "within bound",
                }
            );
        }
        let share = |w: &LoadedWorkload| w.jobs_failed as f64 / w.jobs_attempted.max(1) as f64;
        let more_failures = share(wb) > share(wa);
        pass &= !more_failures;
        let _ = writeln!(
            out,
            "{name} jobs_failed A {}/{} B {}/{}{}",
            wa.jobs_failed,
            wa.jobs_attempted,
            wb.jobs_failed,
            wb.jobs_attempted,
            if more_failures { " MORE FAILURES" } else { "" }
        );
    }
    Ok((out, pass))
}

//! What a run prints and writes: one `workload metric value unit` line
//! per metric, `result.json` for `compare`, and the driver's one-line
//! JSON object.

use crate::catalogue::{Catalogue, MetricDef};
use crate::harness::{reported, Claim, Topology, WorkloadResult};
use hamr_trace::json::escape;
use std::fmt::Write;

/// Everything one invocation measured.
pub struct Report {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub topology: Topology,
    pub results: Vec<WorkloadResult>,
    pub claims: Vec<Claim>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.results.iter().all(WorkloadResult::ok) && self.claims.iter().all(|c| c.holds)
    }
}

/// The table, in `BENCHMARK.json`'s metric order.
pub fn table(report: &Report, catalogue: &Catalogue) -> String {
    let mut out = String::new();
    let t = &report.topology;
    let _ = writeln!(
        out,
        "# seed {} topology {}x{} on {} cores{}",
        report.seed,
        t.nodes,
        t.threads_per_node,
        t.cores,
        if report.quick {
            " QUICK: not comparable"
        } else {
            ""
        }
    );
    for r in &report.results {
        for def in catalogue.end_to_end.iter().chain(&catalogue.per_layer) {
            let Some(s) = r.metrics.get(&def.name) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{} {} {} {} median={} q1={} q3={} min={} max={} n={}",
                r.name,
                def.name,
                reported(&def.name, s),
                def.unit,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n
            );
        }
        let _ = writeln!(out, "{} jobs_attempted {} count", r.name, r.jobs_attempted);
        let _ = writeln!(out, "{} jobs_failed {} count", r.name, r.jobs_failed);
        if let Some((checksum, records)) = r.output {
            let _ = writeln!(
                out,
                "{} checksum {checksum:#018x} records={records}",
                r.name
            );
        }
        if let Some(x) = r.speedup_x() {
            let _ = writeln!(
                out,
                "{} speedup_x {x} x paper={} (not gated)",
                r.name, r.paper_speedup_x
            );
        }
        for e in &r.errors {
            let _ = writeln!(out, "{} ERROR {e}", r.name);
        }
    }
    for c in &report.claims {
        let verdict = if c.holds { "holds" } else { "FAILS" };
        let _ = writeln!(out, "# dominance {} {}: {verdict}", c.workload, c.text);
    }
    out
}

/// `result.json`: what `compare` reads.
pub fn result_json(report: &Report, catalogue: &Catalogue) -> String {
    let t = &report.topology;
    let workloads: Vec<String> = report
        .results
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, s)| {
                    let unit = catalogue.find(name).map_or("", |d| d.unit.as_str());
                    format!(
                        "      \"{}\": {{\"unit\": \"{}\", \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \
                         \"min\": {}, \"max\": {}, \"n\": {}}}",
                        escape(name),
                        escape(unit),
                        reported(name, s),
                        s.median,
                        s.q1,
                        s.q3,
                        s.min,
                        s.max,
                        s.n
                    )
                })
                .collect();
            let speedup = r.speedup_x().map_or("null".to_string(), |x| x.to_string());
            let checksum = r
                .output
                .map_or("null".to_string(), |(c, _)| format!("\"{c:#018x}\""));
            format!(
                "  {{\n    \"name\": \"{}\",\n    \"sizes\": \"{}\",\n    \"jobs_attempted\": {},\n    \
                 \"jobs_failed\": {},\n    \"checksum\": {checksum},\n    \"records\": {},\n    \
                 \"speedup_x\": {speedup},\n    \"paper_speedup_x\": {},\n    \
                 \"metrics\": {{\n{}\n    }}\n  }}",
                escape(&r.name),
                escape(&r.sizes),
                r.jobs_attempted,
                r.jobs_failed,
                r.output.map_or(0, |(_, n)| n),
                r.paper_speedup_x,
                metrics.join(",\n")
            )
        })
        .collect();
    let claims: Vec<String> = report
        .claims
        .iter()
        .map(|c| {
            format!(
                "  {{\"workload\": \"{}\", \"claim\": \"{}\", \"holds\": {}}}",
                c.workload,
                escape(c.text),
                c.holds
            )
        })
        .collect();
    format!(
        "{{\n\"schema\": 1,\n\"comparable\": {},\n\"seed\": {},\n\"seconds\": {},\n\"quick\": {},\n\
         \"topology\": {{\"nodes\": {}, \"threads_per_node\": {}, \"cores\": {}}},\n\
         \"workloads\": [\n{}\n],\n\"dominance\": [\n{}\n]\n}}\n",
        !report.quick,
        report.seed,
        report.seconds,
        report.quick,
        t.nodes,
        t.threads_per_node,
        t.cores,
        workloads.join(",\n"),
        claims.join(",\n")
    )
}

/// The driver's protocol: one object on one line, holding the reported
/// value of every metric in `defs`.
pub fn driver_line(result: &WorkloadResult, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let value = result.value(&d.name)?;
            Some(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                escape(&d.name),
                escape(&d.unit)
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.ok(),
        result.jobs_attempted.max(1),
        result.jobs_failed,
        metrics.join(", ")
    )
}

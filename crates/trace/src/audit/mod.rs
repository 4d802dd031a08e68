//! Bin custody audit ledger.
//!
//! Every bin that moves through the engine passes four custody points:
//! it is *emitted* by a producing task (`TaskOutput::close_bin`),
//! *shipped* onto the fabric by flow control, *delivered* by the
//! simulated network, and *consumed* by the ingress fire on the
//! destination node. The ledger tallies bins, records and payload bytes
//! per `(edge, dst)` at each stage with lock-free relaxed atomics, and
//! [`AuditReport::check`] proves conservation at job end: whatever was
//! emitted was shipped, delivered and consumed, nothing lost and
//! nothing double-counted.
//!
//! Re-emission is handled explicitly: a partial-reduce or reduce fire
//! that produces new bins is a fresh *emit* on the downstream edge, so
//! each edge's ledger row balances independently. Spilled reduce state
//! never leaves the node and does not touch the ledger.
//!
//! Like [`crate::Tracer`], the [`Audit`] handle is cheap to clone and a
//! disabled handle costs one branch per custody point.

mod doctor;

pub use doctor::{FlightRecord, RecordedEvent};

use crate::json::Json;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The four custody points a bin passes on its way between flowlets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditStage {
    /// A producing task closed the bin (`TaskOutput::close_bin`).
    Emit,
    /// Flow control handed the bin to the fabric (`ship_or_defer` /
    /// deferred-queue drain).
    Ship,
    /// The simulated network delivered the bin to its destination.
    Deliver,
    /// The destination runtime fired a consuming task for the bin.
    Consume,
}

impl AuditStage {
    pub const ALL: [AuditStage; 4] = [
        AuditStage::Emit,
        AuditStage::Ship,
        AuditStage::Deliver,
        AuditStage::Consume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AuditStage::Emit => "emit",
            AuditStage::Ship => "ship",
            AuditStage::Deliver => "deliver",
            AuditStage::Consume => "consume",
        }
    }

    fn index(self) -> usize {
        match self {
            AuditStage::Emit => 0,
            AuditStage::Ship => 1,
            AuditStage::Deliver => 2,
            AuditStage::Consume => 3,
        }
    }
}

/// What a network payload reports about the bin it carries, so the
/// fabric can tally the *deliver* custody point without knowing the
/// concrete message type. Non-bin traffic (acks, markers, completion
/// notices) reports nothing and stays out of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditBin {
    pub edge: u32,
    pub records: u64,
    pub bytes: u64,
}

const FIELDS: usize = 3; // bins, records, bytes
const COMBINE_FIELDS: usize = 3; // records in, folded, records out

/// The shared counter table behind an enabled [`Audit`] handle.
struct Ledger {
    edges: u32,
    nodes: u32,
    /// `[stage][edge][dst][field]` flattened; every cell a relaxed
    /// atomic, so custody tallies never take a lock.
    cells: Vec<AtomicU64>,
    /// Per-edge combiner side-table: `[edge][records_in, folded,
    /// records_out]`. In-node combining happens *before* the Emit
    /// custody point, so the four-stage rows still balance exactly; a
    /// record offered to a combine buffer is in no stage until the
    /// buffer drains it, and buffers outlive the task that filled them.
    /// This table is that custody: the only legal record loss is a
    /// fold, so at job end `records_in == folded + records_out`.
    combine_cells: Vec<AtomicU64>,
}

impl Ledger {
    fn idx(&self, stage: AuditStage, edge: u32, dst: u32) -> usize {
        ((stage.index() * self.edges as usize + edge as usize) * self.nodes as usize + dst as usize)
            * FIELDS
    }
}

/// Cheap, cloneable custody-tally handle. Disabled by default; an
/// enabled handle shares one [`Ledger`] across every thread of a run.
#[derive(Clone, Default)]
pub struct Audit {
    inner: Option<Arc<Ledger>>,
}

impl Audit {
    /// An enabled ledger sized for `edges` dataflow edges across
    /// `nodes` cluster nodes (both floored at 1 so an edgeless graph
    /// still audits cleanly).
    pub fn new(edges: u32, nodes: u32) -> Self {
        let edges = edges.max(1);
        let nodes = nodes.max(1);
        let len = 4 * edges as usize * nodes as usize * FIELDS;
        Audit {
            inner: Some(Arc::new(Ledger {
                edges,
                nodes,
                cells: (0..len).map(|_| AtomicU64::new(0)).collect(),
                combine_cells: (0..edges as usize * COMBINE_FIELDS)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            })),
        }
    }

    /// A handle whose `record` is a single branch on `None`.
    pub fn disabled() -> Self {
        Audit { inner: None }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Tally one bin with `records` records and `bytes` payload bytes
    /// passing custody point `stage` on `edge` toward node `dst`.
    #[inline]
    pub fn record(&self, stage: AuditStage, edge: u32, dst: u32, records: u64, bytes: u64) {
        if let Some(l) = &self.inner {
            debug_assert!(
                edge < l.edges && dst < l.nodes,
                "audit tally out of range: edge {edge}/{}, dst {dst}/{}",
                l.edges,
                l.nodes
            );
            if edge >= l.edges || dst >= l.nodes {
                return;
            }
            let i = l.idx(stage, edge, dst);
            l.cells[i].fetch_add(1, Ordering::Relaxed);
            l.cells[i + 1].fetch_add(records, Ordering::Relaxed);
            l.cells[i + 2].fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Tally one task's use of `edge`'s combine buffers: `records_in`
    /// records offered, `folded` of them merged into a partial already
    /// held, `records_out` partials drained into the emit path (some of
    /// them, possibly, offered by an earlier task).
    #[inline]
    pub fn combined(&self, edge: u32, records_in: u64, folded: u64, records_out: u64) {
        if let Some(l) = &self.inner {
            if edge >= l.edges {
                debug_assert!(false, "combine tally out of range: edge {edge}/{}", l.edges);
                return;
            }
            let i = edge as usize * COMBINE_FIELDS;
            l.combine_cells[i].fetch_add(records_in, Ordering::Relaxed);
            l.combine_cells[i + 1].fetch_add(folded, Ordering::Relaxed);
            l.combine_cells[i + 2].fetch_add(records_out, Ordering::Relaxed);
        }
    }

    /// Total bins tallied at `stage` across all edges and nodes. The
    /// watchdog polls this per epoch to measure cluster progress.
    pub fn stage_bins(&self, stage: AuditStage) -> u64 {
        let Some(l) = &self.inner else { return 0 };
        let mut total = 0;
        for edge in 0..l.edges {
            for dst in 0..l.nodes {
                total += l.cells[l.idx(stage, edge, dst)].load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Bins consumed per destination node (summed over edges) — the
    /// watchdog's per-node progress signal for straggler detection.
    pub fn consumed_bins_by_node(&self) -> Vec<u64> {
        let Some(l) = &self.inner else {
            return Vec::new();
        };
        let mut per_node = vec![0u64; l.nodes as usize];
        for edge in 0..l.edges {
            for dst in 0..l.nodes {
                per_node[dst as usize] +=
                    l.cells[l.idx(AuditStage::Consume, edge, dst)].load(Ordering::Relaxed);
            }
        }
        per_node
    }

    /// Snapshot the ledger into an owned report.
    pub fn report(&self) -> AuditReport {
        let Some(l) = &self.inner else {
            return AuditReport {
                edges: 0,
                nodes: 0,
                rows: Vec::new(),
                combines: Vec::new(),
            };
        };
        let mut rows = Vec::new();
        for edge in 0..l.edges {
            for dst in 0..l.nodes {
                let counts = AuditStage::ALL.map(|stage| {
                    let i = l.idx(stage, edge, dst);
                    StageCount {
                        bins: l.cells[i].load(Ordering::Relaxed),
                        records: l.cells[i + 1].load(Ordering::Relaxed),
                        bytes: l.cells[i + 2].load(Ordering::Relaxed),
                    }
                });
                if counts.iter().any(|c| c.bins | c.records | c.bytes != 0) {
                    rows.push(AuditRow { edge, dst, counts });
                }
            }
        }
        let mut combines = Vec::new();
        for edge in 0..l.edges {
            let i = edge as usize * COMBINE_FIELDS;
            let [records_in, folded, records_out] =
                [0, 1, 2].map(|field| l.combine_cells[i + field].load(Ordering::Relaxed));
            if records_in | folded | records_out != 0 {
                combines.push(CombineRow {
                    edge,
                    records_in,
                    folded,
                    records_out,
                });
            }
        }
        AuditReport {
            edges: l.edges,
            nodes: l.nodes,
            rows,
            combines,
        }
    }
}

impl fmt::Debug for Audit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Audit")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Bins / records / bytes tallied at one stage of one `(edge, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCount {
    pub bins: u64,
    pub records: u64,
    pub bytes: u64,
}

/// One `(edge, dst)` ledger row, counts indexed by [`AuditStage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRow {
    pub edge: u32,
    pub dst: u32,
    pub counts: [StageCount; 4],
}

impl AuditRow {
    pub fn stage(&self, stage: AuditStage) -> StageCount {
        self.counts[stage.index()]
    }

    fn balanced(&self) -> bool {
        self.counts.iter().all(|c| *c == self.counts[0])
    }
}

/// Pre/post-combine record custody for one edge's in-node combiners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombineRow {
    pub edge: u32,
    /// Raw records offered to the edge's combine buffers.
    pub records_in: u64,
    /// Offered records merged into a partial a buffer already held.
    pub folded: u64,
    /// Partials the buffers drained into the emit path.
    pub records_out: u64,
}

impl CombineRow {
    /// Every offered record was folded away or drained: nothing is
    /// left in (or was dropped with) a buffer, and nothing was minted.
    fn balanced(&self) -> bool {
        self.records_in == self.folded + self.records_out
    }
}

/// A conservation failure on one `(edge, dst)` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    pub edge: u32,
    pub dst: u32,
    /// Which quantity leaked: `"bins"`, `"records"`, `"bytes"`, or
    /// `"combined"` for combine buffers that did not drain exactly
    /// what they were offered and did not fold.
    pub field: &'static str,
    /// The four stage values for that quantity, emit→consume order.
    /// For `"combined"` the first three entries are records in, folded
    /// and out.
    pub stages: [u64; 4],
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.field == "combined" {
            return write!(
                f,
                "edge {}: combine buffers out of balance: in={} folded={} out={}",
                self.edge, self.stages[0], self.stages[1], self.stages[2]
            );
        }
        write!(
            f,
            "edge {} -> node {}: {} emit={} ship={} deliver={} consume={}",
            self.edge,
            self.dst,
            self.field,
            self.stages[0],
            self.stages[1],
            self.stages[2],
            self.stages[3]
        )
    }
}

/// An owned snapshot of the ledger, checkable and serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    pub edges: u32,
    pub nodes: u32,
    pub rows: Vec<AuditRow>,
    /// Per-edge combiner custody (empty unless combiners ran).
    pub combines: Vec<CombineRow>,
}

impl AuditReport {
    /// Prove conservation: every row must show identical bins, records
    /// and bytes at all four custody points, and every record offered
    /// to an edge's combine buffers must have been folded or drained.
    pub fn check(&self) -> Result<(), Vec<AuditViolation>> {
        let mut violations = Vec::new();
        for row in &self.rows {
            for (fi, field) in ["bins", "records", "bytes"].into_iter().enumerate() {
                let stages = [
                    [
                        row.counts[0].bins,
                        row.counts[1].bins,
                        row.counts[2].bins,
                        row.counts[3].bins,
                    ],
                    [
                        row.counts[0].records,
                        row.counts[1].records,
                        row.counts[2].records,
                        row.counts[3].records,
                    ],
                    [
                        row.counts[0].bytes,
                        row.counts[1].bytes,
                        row.counts[2].bytes,
                        row.counts[3].bytes,
                    ],
                ][fi];
                if stages.iter().any(|&v| v != stages[0]) {
                    violations.push(AuditViolation {
                        edge: row.edge,
                        dst: row.dst,
                        field,
                        stages,
                    });
                }
            }
        }
        for c in &self.combines {
            // Short means records died in a buffer (dropped with
            // entries in it, or never flushed); long means records were
            // minted out of thin air.
            if !c.balanced() {
                violations.push(AuditViolation {
                    edge: c.edge,
                    dst: 0,
                    field: "combined",
                    stages: [c.records_in, c.folded, c.records_out, 0],
                });
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Sum one stage across every row.
    pub fn total(&self, stage: AuditStage) -> StageCount {
        let mut t = StageCount::default();
        for row in &self.rows {
            let c = row.stage(stage);
            t.bins += c.bins;
            t.records += c.records;
            t.bytes += c.bytes;
        }
        t
    }

    /// Rows where bins went missing between ship and consume, ranked by
    /// the size of the gap — the "stuck edge" candidates a diagnosis
    /// leads with.
    pub fn stuck_rows(&self) -> Vec<(&AuditRow, u64)> {
        let mut stuck: Vec<(&AuditRow, u64)> = self
            .rows
            .iter()
            .filter_map(|row| {
                let gap = row
                    .stage(AuditStage::Emit)
                    .bins
                    .saturating_sub(row.stage(AuditStage::Consume).bins);
                (gap > 0).then_some((row, gap))
            })
            .collect();
        stuck.sort_by_key(|(_, gap)| std::cmp::Reverse(*gap));
        stuck
    }

    /// Plain-text ledger table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("bin custody ledger (bins/records/kbytes per stage)\n");
        out.push_str(&format!(
            "{:>5} {:>5}  {:>20} {:>20} {:>20} {:>20}  status\n",
            "edge", "dst", "emit", "ship", "deliver", "consume"
        ));
        for row in &self.rows {
            let cell = |c: StageCount| format!("{}/{}/{}", c.bins, c.records, c.bytes / 1024);
            out.push_str(&format!(
                "{:>5} {:>5}  {:>20} {:>20} {:>20} {:>20}  {}\n",
                row.edge,
                row.dst,
                cell(row.stage(AuditStage::Emit)),
                cell(row.stage(AuditStage::Ship)),
                cell(row.stage(AuditStage::Deliver)),
                cell(row.stage(AuditStage::Consume)),
                if row.balanced() { "ok" } else { "LEAK" }
            ));
        }
        if self.rows.is_empty() {
            out.push_str("  (no bins moved)\n");
        }
        if !self.combines.is_empty() {
            out.push_str("combiner custody (pre-combine -> post-combine records per edge)\n");
            for c in &self.combines {
                let pct = if c.records_in > 0 {
                    100.0 * (1.0 - c.records_out as f64 / c.records_in as f64)
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{:>5}        {:>12} -> {:>12}  ({pct:.1}% absorbed)  {}\n",
                    c.edge,
                    c.records_in,
                    c.records_out,
                    if c.balanced() { "ok" } else { "LEAK" }
                ));
            }
        }
        out
    }

    /// The report as a JSON object; [`from_json`](Self::from_json)
    /// reads it back.
    pub fn to_json(&self) -> Json {
        let count = |c: StageCount| {
            Json::obj([
                ("bins", c.bins.into()),
                ("records", c.records.into()),
                ("bytes", c.bytes.into()),
            ])
        };
        let rows = self.rows.iter().map(|row| {
            let stages = AuditStage::ALL.map(|stage| (stage.name(), count(row.stage(stage))));
            let at = [("edge", row.edge.into()), ("dst", row.dst.into())];
            Json::obj(at.into_iter().chain(stages))
        });
        let combines = self.combines.iter().map(|c| {
            Json::obj([
                ("edge", c.edge.into()),
                ("records_in", c.records_in.into()),
                ("folded", c.folded.into()),
                ("records_out", c.records_out.into()),
            ])
        });
        Json::obj([
            ("edges", self.edges.into()),
            ("nodes", self.nodes.into()),
            ("rows", rows.collect()),
            ("combines", combines.collect()),
        ])
    }

    /// Parse a report back out of its [`to_json`](Self::to_json) form.
    pub fn from_json(v: &Json) -> Result<AuditReport, String> {
        let u = |j: Option<&Json>, what: &str| {
            j.and_then(Json::as_u64)
                .ok_or_else(|| format!("audit report missing {what}"))
        };
        let mut rows = Vec::new();
        for rj in v
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("audit report missing rows")?
        {
            let mut counts = [StageCount::default(); 4];
            for stage in AuditStage::ALL {
                let c = rj
                    .get(stage.name())
                    .ok_or_else(|| format!("row missing stage {}", stage.name()))?;
                counts[stage.index()] = StageCount {
                    bins: u(c.get("bins"), "bins")?,
                    records: u(c.get("records"), "records")?,
                    bytes: u(c.get("bytes"), "bytes")?,
                };
            }
            rows.push(AuditRow {
                edge: u(rj.get("edge"), "edge")? as u32,
                dst: u(rj.get("dst"), "dst")? as u32,
                counts,
            });
        }
        // `combines` is absent from pre-skew flight-recorder dumps;
        // tolerate that rather than rejecting old doctor files.
        let mut combines = Vec::new();
        if let Some(arr) = v.get("combines").and_then(Json::as_arr) {
            for cj in arr {
                let records_in = u(cj.get("records_in"), "records_in")?;
                let records_out = u(cj.get("records_out"), "records_out")?;
                combines.push(CombineRow {
                    edge: u(cj.get("edge"), "edge")? as u32,
                    records_in,
                    // Dumps from before buffers outlived tasks tallied
                    // each flush whole: what did not come out was folded.
                    folded: match cj.get("folded") {
                        Some(folded) => u(Some(folded), "folded")?,
                        None => records_in.saturating_sub(records_out),
                    },
                    records_out,
                });
            }
        }
        Ok(AuditReport {
            edges: u(v.get("edges"), "edges")? as u32,
            nodes: u(v.get("nodes"), "nodes")? as u32,
            rows,
            combines,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn move_bin(a: &Audit, edge: u32, dst: u32, records: u64, bytes: u64) {
        for stage in AuditStage::ALL {
            a.record(stage, edge, dst, records, bytes);
        }
    }

    #[test]
    fn disabled_audit_is_inert() {
        let a = Audit::disabled();
        assert!(!a.enabled());
        a.record(AuditStage::Emit, 0, 0, 10, 100);
        assert_eq!(a.stage_bins(AuditStage::Emit), 0);
        assert!(a.report().rows.is_empty());
        assert!(a.report().check().is_ok());
    }

    #[test]
    fn balanced_ledger_passes_check() {
        let a = Audit::new(2, 3);
        move_bin(&a, 0, 1, 5, 64);
        move_bin(&a, 0, 1, 7, 80);
        move_bin(&a, 1, 2, 3, 48);
        let report = a.report();
        assert!(report.check().is_ok(), "{:?}", report.check());
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.total(AuditStage::Emit).bins, 3);
        assert_eq!(report.total(AuditStage::Consume).records, 15);
        assert_eq!(a.stage_bins(AuditStage::Deliver), 3);
        assert_eq!(a.consumed_bins_by_node(), vec![0, 2, 1]);
    }

    #[test]
    fn lost_bin_is_a_violation_naming_the_edge() {
        let a = Audit::new(3, 2);
        move_bin(&a, 2, 1, 4, 32);
        // A bin that was emitted and shipped but never delivered.
        a.record(AuditStage::Emit, 2, 1, 9, 99);
        a.record(AuditStage::Ship, 2, 1, 9, 99);
        let report = a.report();
        let violations = report.check().unwrap_err();
        assert_eq!(violations.len(), 3, "bins, records and bytes all leak");
        assert!(violations.iter().all(|v| v.edge == 2 && v.dst == 1));
        let msg = violations[0].to_string();
        assert!(msg.contains("edge 2 -> node 1"), "{msg}");
        let stuck = report.stuck_rows();
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].1, 1, "one bin stuck");
    }

    #[test]
    fn combine_side_table_balances_across_tasks() {
        let a = Audit::new(2, 2);
        // Two tasks fill a buffer and drain part of it; a third drains
        // the rest without offering anything.
        a.combined(1, 1000, 988, 4);
        a.combined(1, 500, 492, 10);
        assert_eq!(a.report().check().unwrap_err()[0].field, "combined");
        a.combined(1, 0, 0, 6);
        let report = a.report();
        assert!(report.check().is_ok());
        assert_eq!(
            report.combines,
            vec![CombineRow {
                edge: 1,
                records_in: 1500,
                folded: 1480,
                records_out: 20
            }]
        );
        assert!(report.render().contains("combiner custody"));
    }

    #[test]
    fn records_left_in_a_buffer_are_a_violation() {
        let a = Audit::new(1, 1);
        // Ten offered, three folded, five drained: two never left.
        a.combined(0, 10, 3, 5);
        let report = a.report();
        let violations = report.check().unwrap_err();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].field, "combined");
        let msg = violations[0].to_string();
        assert!(msg.contains("in=10 folded=3 out=5"), "{msg}");
        assert!(report.render().contains("LEAK"));
    }

    #[test]
    fn combiner_minting_records_is_a_violation() {
        let a = Audit::new(1, 1);
        a.combined(0, 10, 0, 11);
        let violations = a.report().check().unwrap_err();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].field, "combined");
    }

    #[test]
    fn old_reports_without_combines_still_parse() {
        let json = r#"{"edges":1,"nodes":1,"rows":[]}"#;
        let parsed = AuditReport::from_json(&json::parse(json).unwrap()).unwrap();
        assert!(parsed.combines.is_empty());
    }

    #[test]
    fn old_combine_rows_without_folded_still_parse_and_balance() {
        let json = r#"{"edges":2,"nodes":1,"rows":[],
            "combines":[{"edge":1,"records_in":64,"records_out":4}]}"#;
        let parsed = AuditReport::from_json(&json::parse(json).unwrap()).unwrap();
        assert_eq!(parsed.combines[0].folded, 60);
        assert!(parsed.check().is_ok());
    }

    #[test]
    fn report_json_round_trips() {
        let a = Audit::new(2, 2);
        move_bin(&a, 0, 0, 11, 1024);
        move_bin(&a, 1, 1, 2, 17);
        a.record(AuditStage::Emit, 1, 0, 1, 1);
        a.combined(0, 64, 60, 4);
        let report = a.report();
        let parsed = AuditReport::from_json(
            &json::parse(&report.to_json().to_string()).expect("valid json"),
        )
        .unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn out_of_range_tallies_are_dropped_not_misfiled() {
        let a = Audit::new(1, 1);
        // debug_assert fires in debug builds; verify release semantics
        // via a direct check on the guard.
        if !cfg!(debug_assertions) {
            a.record(AuditStage::Emit, 5, 0, 1, 1);
            a.record(AuditStage::Emit, 0, 9, 1, 1);
            assert_eq!(a.stage_bins(AuditStage::Emit), 0);
        }
    }

    #[test]
    fn concurrent_tallies_conserve() {
        let a = Audit::new(1, 4);
        let threads: Vec<_> = (0..4u32)
            .map(|dst| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        move_bin(&a, 0, dst, 3, 10);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = a.report();
        assert!(report.check().is_ok());
        assert_eq!(report.total(AuditStage::Ship).bins, 4000);
        assert_eq!(report.total(AuditStage::Consume).records, 12000);
    }
}

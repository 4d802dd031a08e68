//! Data-plane statistics: streaming sketches over the records that
//! actually flow, not just the tasks that move them.
//!
//! Every (shuffle edge, destination-partition) pair carries a
//! [`SketchSet`]. Which edges are shuffle edges is the engine's call,
//! made once per job: HAMR sketches its hash-exchange edges, the only
//! ones whose keys say where a shuffle funnels records; loader and
//! local edges carry keys (line offsets) that are distinct by
//! construction. The sketches:
//!
//! * [`Hll`] — a HyperLogLog distinct-key estimator with a fixed
//!   2^12 = 4096 registers (4 KiB, standard error 1.04/√4096 ≈ 1.6%),
//!   fed the 64-bit key hash the frame already carries — zero re-hash;
//! * [`SpaceSaving`] — the Metwally et al. top-K heavy-hitter sketch
//!   with the guaranteed-count invariant `count − err ≤ true ≤ count`
//!   (K = 32 on the stats plane, with key-byte samples for naming). A
//!   record costs one index probe and one add, an eviction one
//!   O(log K) heap sift, and neither allocates;
//! * a [`Log2Hist`](crate::Log2Hist) of record value sizes answering
//!   quantile queries to within a power of two.
//!
//! All three merge associatively across partitions and nodes, so a
//! job-wide per-edge profile is a fold, not a re-scan. The sketches
//! are observers: they never influence routing, so runs with stats on
//! and off are byte-identical.
//!
//! [`StatsPlane`] is the per-job runtime container the engine updates
//! at `TaskOutput::close_bin` time (once per finished bin, one mutex
//! acquisition amortized over the whole bin). Under
//! `HAMR_STATS=full[:N]` it also keeps a deterministic 1-in-N
//! hash-gated record lineage sample: every hop a sampled key's bins
//! take (emit, reduce ingest) appends a
//! [`LineageHop`], and the resulting [`LineageSample`]s travel with the
//! [`StatsSnapshot`] into the journal where `hamr explain` can replay
//! the path offline.
//!
//! ## Modules
//!
//! `sketch` holds the three sketches, [`SketchSet`] and the per-edge
//! summary it condenses into; `lineage` the sampled-record hops, the
//! sampling gate and `hamr explain`'s key decoding and rendering;
//! `plane` is [`StatsPlane`]. This file keeps the `HAMR_STATS` gate
//! and the [`StatsSnapshot`] the journal persists.

mod lineage;
mod plane;
mod sketch;
#[cfg(test)]
mod tests;

pub use lineage::{
    format_key, key_query_encodings, render_explain, sample_hit, HopKind, LineageHop,
    LineageSample, MAX_LINEAGE_HOPS, MAX_LINEAGE_SAMPLES,
};
pub use plane::StatsPlane;
pub use sketch::{
    EdgeStatsSummary, Hll, SketchSet, SpaceSaving, SsEntry, TopKey, KEY_SAMPLE_BYTES, STATS_TOP_K,
};

/// `HAMR_STATS` gate: how much of the data plane to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// No sketches, no lineage — the plane is never allocated.
    Off,
    /// Per-(edge, dst) sketches only (the default).
    #[default]
    Edges,
    /// Sketches plus 1-in-`sample_one_in` hash-gated record lineage.
    Full {
        /// Sample a key iff `hash % sample_one_in == 0` (1 = every key).
        sample_one_in: u64,
    },
}

impl StatsMode {
    /// Parse `HAMR_STATS=off|edges|full|full:<N>`. The error names the
    /// accepted forms.
    pub fn from_env_str(s: &str) -> Result<Self, String> {
        let full = |n: u64| StatsMode::Full {
            sample_one_in: n.max(1),
        };
        match s {
            "off" | "0" | "none" => Ok(StatsMode::Off),
            "edges" => Ok(StatsMode::Edges),
            "full" => Ok(full(DEFAULT_SAMPLE_ONE_IN)),
            _ => s
                .strip_prefix("full:")
                .and_then(|n| n.parse().ok())
                .map(full)
                .ok_or_else(|| "off|edges|full[:N]".to_string()),
        }
    }

    /// What `HAMR_STATS` asks for: unset or empty is the default, a
    /// value that does not parse panics naming the accepted forms.
    pub fn from_env() -> Self {
        crate::env_or_panic("HAMR_STATS", StatsMode::default(), StatsMode::from_env_str)
    }

    pub fn enabled(self) -> bool {
        self != StatsMode::Off
    }

    /// `Some(N)` when lineage sampling is on.
    pub fn lineage_one_in(self) -> Option<u64> {
        match self {
            StatsMode::Full { sample_one_in } => Some(sample_one_in),
            _ => None,
        }
    }
}

/// Default lineage sampling rate under plain `HAMR_STATS=full`.
pub const DEFAULT_SAMPLE_ONE_IN: u64 = 64;

/// The per-job stats record: merged per-edge summaries plus lineage
/// samples. Persisted to the journal (tag 8), where `hamr timeline` and
/// `hamr explain` read it.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    pub job: String,
    pub engine: String,
    pub edges: Vec<EdgeStatsSummary>,
    pub samples: Vec<LineageSample>,
}

impl StatsSnapshot {
    /// Largest distinct-key estimate across the shuffle edges — "how
    /// many keys did this job actually move between partitions"; a
    /// HAMR `JobRow`'s `distinct_keys`.
    pub fn shuffle_distinct(&self) -> u64 {
        self.edges.iter().map(|e| e.distinct).max().unwrap_or(0)
    }

    /// Find a sample whose key bytes match any of the candidate
    /// encodings (exact match), or whose hash matches.
    pub fn find_sample(&self, needles: &[Vec<u8>], hash: Option<u64>) -> Option<&LineageSample> {
        self.samples
            .iter()
            .find(|s| needles.iter().any(|n| n == &s.key) || hash == Some(s.hash))
    }
}

//! Cluster and runtime configuration, including the paper's testbed
//! specification (Table 1) and our scaled simulation equivalent.

use hamr_simdisk::DiskConfig;
use hamr_simnet::NetConfig;
use hamr_trace::{env_or_panic, StatsMode};

/// How a node schedules ready flowlet tasks onto its worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Decentralized work stealing (the default): each worker owns a
    /// LIFO deque, steals FIFO from peers when dry, and parks on a
    /// bounded timeout only when the node is drained. The runtime
    /// thread shrinks to an ingress/egress pump.
    WorkStealing,
    /// Single-threaded, seeded replay: no worker threads at all; a
    /// seeded PRNG picks the next ready task and runs it inline on the
    /// runtime thread. Deterministic interleaving: the oracle of the
    /// differential tests.
    Deterministic { seed: u64 },
}

impl SchedMode {
    /// Parse the `HAMR_SCHED` environment override: `ws`/`work-stealing`
    /// or `det[:seed]`. The error names the accepted forms.
    pub fn from_env_str(s: &str) -> Result<Self, String> {
        let forms = || "ws|det[:seed]".to_string();
        match s.trim().to_ascii_lowercase().as_str() {
            "ws" | "work-stealing" | "worksteal" | "workstealing" => Ok(SchedMode::WorkStealing),
            other => {
                let rest = other.strip_prefix("det").ok_or_else(forms)?;
                let seed = match rest.strip_prefix(':') {
                    Some(n) => n.parse().map_err(|_| forms())?,
                    None if rest.is_empty() => 0,
                    None => return Err(forms()),
                };
                Ok(SchedMode::Deterministic { seed })
            }
        }
    }
}

/// Deliberate runtime sabotage for watchdog / flight-recorder tests.
/// Production configs always use `None`; the other arms re-create the
/// two silent failure modes the self-verification layer must catch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultInjection {
    /// No fault: the engine behaves normally.
    #[default]
    None,
    /// `node` never broadcasts `EdgeComplete` for its finished
    /// flowlets, so downstream flowlets cluster-wide wait forever on an
    /// input that will never be announced complete — a pure *hang*
    /// (all bins move and are consumed; workers go idle).
    SwallowEdgeComplete { node: usize },
    /// `node` drops every flow-control `Ack` it receives, so its send
    /// windows never reopen: with a small `out_window_bins` its
    /// producers defer bins forever — a *backpressure deadlock*.
    DropAcks { node: usize },
}

/// The skew-mitigation switch — in-node combining, `outbuf/combine.rs` —
/// toggleable (`HAMR_SKEW`) so an ablation can measure it. Combining
/// only ever engages on edges that registered a combiner via
/// `JobBuilder::connect_combined`, so jobs without combiners are
/// byte-for-byte unaffected by either setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewConfig {
    /// In-node combining: pre-aggregate duplicate keys on the producer
    /// node before bins ship.
    pub combine: bool,
}

impl SkewConfig {
    /// In-node combining off: no combine buffer is built and every
    /// record ships as emitted. Nothing else changes — remote bins are
    /// still Huffman-coded on the link.
    pub fn off() -> Self {
        SkewConfig { combine: false }
    }

    /// Parse the `HAMR_SKEW` environment override: `off`/`none` or
    /// `combine`. The error names the accepted forms.
    pub fn from_env_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(SkewConfig::off()),
            "combine" => Ok(SkewConfig::default()),
            _ => Err("off|combine".to_string()),
        }
    }
}

impl Default for SkewConfig {
    fn default() -> Self {
        // Combining leaves checksums unchanged and strictly helps on
        // skewed inputs, so it defaults on.
        SkewConfig { combine: true }
    }
}

/// Engine tuning knobs, per node.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Records per bin before the output buffer packs and ships one.
    pub bin_capacity: usize,
    /// Flow-control window: max bins in flight from one node to one
    /// destination node before producers are suspended.
    pub out_window_bins: usize,
    /// Per-node memory budget for reduce group state; beyond it, state
    /// spills to the local disk as sorted runs.
    pub memory_budget: usize,
    /// Task scheduling strategy (see [`SchedMode`]).
    pub sched: SchedMode,
    /// Deliberate sabotage for self-verification tests (see
    /// [`FaultInjection`]). Always `None` outside tests.
    pub fault: FaultInjection,
    /// Skew mitigation switch (see [`SkewConfig`]).
    pub skew: SkewConfig,
    /// Data-plane statistics mode (see [`hamr_trace::StatsMode`]):
    /// per-edge streaming sketches and, in `Full`, sampled record
    /// lineage. Sketches observe frames as bins close; they never
    /// influence routing or scheduling.
    pub stats: StatsMode,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            bin_capacity: 1024,
            out_window_bins: 32,
            memory_budget: 64 << 20,
            // Explicit `sched` assignments in code (e.g. the
            // differential tests) are unaffected by the env var.
            sched: env_or_panic(
                "HAMR_SCHED",
                SchedMode::WorkStealing,
                SchedMode::from_env_str,
            ),
            fault: FaultInjection::None,
            // Like HAMR_SCHED, HAMR_SKEW lets the CI matrix ablate
            // without touching code; explicit assignments override.
            skew: env_or_panic("HAMR_SKEW", SkewConfig::default(), SkewConfig::from_env_str),
            // HAMR_STATS=off|edges|full[:N] — same env-gate idiom as
            // HAMR_SCHED/HAMR_SKEW. Defaults to `edges` (sketches on,
            // lineage sampling off).
            stats: StatsMode::from_env(),
        }
    }
}

/// Full description of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Worker threads per node (the paper's nodes ran 32).
    pub threads_per_node: usize,
    /// Network delivery model.
    pub net: NetConfig,
    /// Local-disk timing model (one disk per node).
    pub disk: DiskConfig,
    /// DFS parameters.
    pub dfs: hamr_dfs::DfsConfig,
    /// Engine tuning.
    pub runtime: RuntimeConfig,
}

impl ClusterConfig {
    /// Check the configuration for values the runtime cannot operate
    /// with. Called by [`crate::Cluster::try_new`]; kept public so
    /// harnesses can validate user-supplied configs before spending
    /// time building substrates.
    pub fn validate(&self) -> Result<(), crate::error::ConfigError> {
        use crate::error::ConfigError;
        if self.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.threads_per_node == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.runtime.bin_capacity == 0 {
            return Err(ConfigError::ZeroBinCapacity);
        }
        if self.runtime.out_window_bins == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        Ok(())
    }

    /// An instant (untimed) cluster for correctness tests: `nodes`
    /// nodes with `threads` workers each, no modeled delays.
    pub fn local(nodes: usize, threads: usize) -> Self {
        ClusterConfig {
            nodes,
            threads_per_node: threads,
            net: NetConfig::instant(),
            disk: DiskConfig::instant(),
            dfs: hamr_dfs::DfsConfig::default(),
            runtime: RuntimeConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_config_is_instant() {
        let c = ClusterConfig::local(4, 2);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.threads_per_node, 2);
        assert!(c.net.is_instant());
        assert!(c.disk.is_instant());
    }

    #[test]
    fn default_runtime_sane() {
        let r = RuntimeConfig::default();
        assert!(r.bin_capacity > 0);
        assert!(r.out_window_bins > 0);
        assert!(r.memory_budget > 0);
    }

    #[test]
    fn sched_mode_env_strings_parse() {
        assert_eq!(SchedMode::from_env_str("ws"), Ok(SchedMode::WorkStealing));
        assert_eq!(
            SchedMode::from_env_str("work-stealing"),
            Ok(SchedMode::WorkStealing)
        );
        assert_eq!(
            SchedMode::from_env_str("det"),
            Ok(SchedMode::Deterministic { seed: 0 })
        );
        assert_eq!(
            SchedMode::from_env_str("det:42"),
            Ok(SchedMode::Deterministic { seed: 42 })
        );
        for typo in ["centralized", "bogus", "det:notanumber", "detx"] {
            assert_eq!(
                SchedMode::from_env_str(typo),
                Err("ws|det[:seed]".to_string())
            );
        }
    }

    #[test]
    #[should_panic(expected = "HAMR_SCHED must be ws|det[:seed], got 'centralized'")]
    fn unparsable_sched_env_panics() {
        hamr_trace::value_or_panic("HAMR_SCHED", "centralized", SchedMode::from_env_str);
    }

    #[test]
    fn skew_env_strings_parse() {
        assert_eq!(SkewConfig::from_env_str("off"), Ok(SkewConfig::off()));
        assert_eq!(SkewConfig::from_env_str("none"), Ok(SkewConfig::off()));
        assert_eq!(
            SkewConfig::from_env_str(" Combine "),
            Ok(SkewConfig::default())
        );
        // The removed mechanisms are typos like any other.
        for typo in ["bogus", "split", "combine,split", "rebalance", "all", ""] {
            assert_eq!(
                SkewConfig::from_env_str(typo),
                Err("off|combine".to_string())
            );
        }
        assert!(SkewConfig::default().combine);
        assert!(!SkewConfig::off().combine);
    }

    #[test]
    fn removed_skew_mechanism_panics() {
        for removed in ["split", "combine,split", "rebalance"] {
            let panic = std::panic::catch_unwind(|| {
                hamr_trace::value_or_panic("HAMR_SKEW", removed, SkewConfig::from_env_str)
            })
            .expect_err("a removed mechanism must not parse");
            let msg = panic.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(
                msg,
                &format!("HAMR_SKEW must be off|combine, got '{removed}'")
            );
        }
    }

    #[test]
    fn validate_accepts_sane_config() {
        assert!(ClusterConfig::local(2, 2).validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_threads() {
        let c = ClusterConfig::local(2, 0);
        assert_eq!(c.validate(), Err(crate::error::ConfigError::ZeroThreads));
    }

    #[test]
    fn validate_rejects_zero_nodes() {
        let c = ClusterConfig::local(0, 2);
        assert_eq!(c.validate(), Err(crate::error::ConfigError::ZeroNodes));
    }

    #[test]
    fn validate_rejects_zero_window_and_bin_capacity() {
        let mut c = ClusterConfig::local(2, 2);
        c.runtime.out_window_bins = 0;
        assert_eq!(c.validate(), Err(crate::error::ConfigError::ZeroWindow));
        let mut c = ClusterConfig::local(2, 2);
        c.runtime.bin_capacity = 0;
        assert_eq!(
            c.validate(),
            Err(crate::error::ConfigError::ZeroBinCapacity)
        );
    }
}

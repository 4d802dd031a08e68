//! Traffic accounting: message and byte counters per directed link.
//!
//! Counters are lock-free relaxed atomics — they are statistics, not
//! synchronization, and every snapshot is taken after the traffic of
//! interest has quiesced.

use crate::NodeId;
use hamr_trace::{Counter, Histogram, Labels, Observe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live per-node traffic series in the observing run's registry (inert
/// without one). Unlike the [`NetMetrics`] snapshot matrix (n² cells,
/// read after quiescence), these are a handful of per-node counters
/// plus one message-size histogram, bumped on the send path — which is
/// per-bin, so a few relaxed atomic adds per message.
///
/// Counters are recorded at send/enqueue time (like the traffic
/// matrix): `recv` series mean "bytes addressed to this node", which
/// in the simulated fabric equals bytes delivered once traffic drains.
pub(crate) struct NetRegistry {
    sent_bytes: Vec<Counter>,
    recv_bytes: Vec<Counter>,
    sent_messages: Vec<Counter>,
    message_bytes: Histogram,
}

impl NetRegistry {
    /// Register the fabric's series for an `n`-node cluster.
    pub(crate) fn new(obs: &Observe, n: usize) -> Self {
        let per_node = |name: &str| {
            (0..n)
                .map(|node| obs.counter(name, Labels::new().node(node as u32)))
                .collect()
        };
        NetRegistry {
            sent_bytes: per_node("net_sent_bytes_total"),
            recv_bytes: per_node("net_recv_bytes_total"),
            sent_messages: per_node("net_sent_messages_total"),
            message_bytes: obs.histogram("net_message_bytes", Labels::new()),
        }
    }

    #[inline]
    pub(crate) fn record(&self, from: NodeId, to: NodeId, size: usize) {
        self.sent_bytes[from].add(size as u64);
        self.recv_bytes[to].add(size as u64);
        self.sent_messages[from].inc();
        self.message_bytes.record(size as u64);
    }
}

pub(crate) struct MetricsInner {
    nodes: usize,
    messages: Vec<AtomicU64>,
    bytes: Vec<AtomicU64>,
}

impl MetricsInner {
    pub(crate) fn new(nodes: usize) -> Self {
        MetricsInner {
            nodes,
            messages: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn record(&self, from: NodeId, to: NodeId, size: usize) {
        let idx = from * self.nodes + to;
        self.messages[idx].fetch_add(1, Ordering::Relaxed);
        self.bytes[idx].fetch_add(size as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> NetMetrics {
        NetMetrics {
            nodes: self.nodes,
            messages: self
                .messages
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            bytes: self
                .bytes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Counters for one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkMetrics {
    pub messages: u64,
    pub bytes: u64,
}

/// Snapshot of all traffic that has passed through a fabric.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    nodes: usize,
    messages: Vec<u64>,
    bytes: Vec<u64>,
}

impl NetMetrics {
    /// Number of nodes in the fabric this snapshot came from.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Counters for the directed link `from -> to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkMetrics {
        let idx = from * self.nodes + to;
        LinkMetrics {
            messages: self.messages[idx],
            bytes: self.bytes[idx],
        }
    }

    /// Total messages across all links, loopback included.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Total bytes across all links, loopback included.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Bytes that actually crossed between distinct nodes.
    pub fn remote_bytes(&self) -> u64 {
        let mut sum = 0;
        for from in 0..self.nodes {
            for to in 0..self.nodes {
                if from != to {
                    sum += self.bytes[from * self.nodes + to];
                }
            }
        }
        sum
    }

    /// Messages that crossed between distinct nodes.
    pub fn remote_messages(&self) -> u64 {
        let mut sum = 0;
        for from in 0..self.nodes {
            for to in 0..self.nodes {
                if from != to {
                    sum += self.messages[from * self.nodes + to];
                }
            }
        }
        sum
    }

    /// Bytes received per node (in-degree traffic), loopback included.
    /// Useful for observing shuffle skew.
    pub fn inbound_bytes_per_node(&self) -> Vec<u64> {
        (0..self.nodes)
            .map(|to| {
                (0..self.nodes)
                    .map(|from| self.bytes[from * self.nodes + to])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = MetricsInner::new(3);
        m.record(0, 1, 100);
        m.record(0, 1, 10);
        m.record(1, 1, 5);
        m.record(2, 0, 7);
        let s = m.snapshot();
        assert_eq!(s.nodes(), 3);
        assert_eq!(
            s.link(0, 1),
            LinkMetrics {
                messages: 2,
                bytes: 110
            }
        );
        assert_eq!(
            s.link(1, 1),
            LinkMetrics {
                messages: 1,
                bytes: 5
            }
        );
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.total_bytes(), 122);
        assert_eq!(s.remote_bytes(), 117);
        assert_eq!(s.remote_messages(), 3);
        assert_eq!(s.inbound_bytes_per_node(), vec![7, 115, 0]);
    }

    #[test]
    fn net_registry_streams_per_node_series() {
        use hamr_trace::{MetricsRegistry, SampleValue};
        let registry = MetricsRegistry::new();
        let obs = Observe {
            registry: Some(registry.clone()),
            engine: "hamr",
            ..Default::default()
        };
        let net = NetRegistry::new(&obs, 2);
        net.record(0, 1, 100);
        net.record(0, 1, 50);
        net.record(1, 0, 7);
        let snap = registry.snapshot();
        let node = |i: u32| Labels::new().engine("hamr").node(i);
        assert!(matches!(
            snap.get("net_sent_bytes_total", &node(0)),
            Some(SampleValue::Counter(150))
        ));
        assert!(matches!(
            snap.get("net_recv_bytes_total", &node(1)),
            Some(SampleValue::Counter(150))
        ));
        assert!(matches!(
            snap.get("net_sent_messages_total", &node(1)),
            Some(SampleValue::Counter(1))
        ));
        assert_eq!(snap.counter_total("net_sent_bytes_total"), 157);
        match snap.get("net_message_bytes", &Labels::new().engine("hamr")) {
            Some(SampleValue::Histogram(h)) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.sum_us, 157);
            }
            other => panic!("expected size histogram, got {other:?}"),
        }
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = MetricsInner::new(2).snapshot();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.remote_bytes(), 0);
        assert_eq!(s.inbound_bytes_per_node(), vec![0, 0]);
    }
}

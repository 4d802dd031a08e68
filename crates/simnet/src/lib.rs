//! In-process cluster network fabric.
//!
//! HAMR's evaluation ran on a 16-node InfiniBand cluster. This crate is
//! the substitute substrate: it connects N in-process "nodes" with
//! point-to-point message channels whose delivery is optionally delayed
//! by a configurable latency + bandwidth model, so that differences in
//! *shuffle volume* between engines become differences in wall-clock
//! time, as they would on a real network.
//!
//! Two delivery modes:
//! * **Instant** (`NetConfig::instant()`): messages are handed to the
//!   destination queue immediately. Used by correctness tests.
//! * **Modeled**: a timer thread holds messages until
//!   `max(now, link_busy) + size/bandwidth + latency` and tracks
//!   per-link serialization so concurrent senders to one destination
//!   contend for bandwidth, like a real NIC.
//!
//! The fabric is generic over the message type; the engine provides a
//! [`Payload`] impl so the model knows each message's wire size.

mod fabric;
mod metrics;
mod timer;

pub use fabric::{Endpoint, Envelope, Fabric, NetError};
pub use metrics::{LinkMetrics, NetMetrics};

use std::time::Duration;

/// Identifies a node attached to a fabric. Dense indices `0..n`.
pub type NodeId = usize;

/// Anything sent over the fabric. `wire_size` feeds the bandwidth model.
pub trait Payload: Send + 'static {
    /// Approximate serialized size in bytes (headers included is fine).
    fn wire_size(&self) -> usize;

    /// What this message reports to the bin custody audit at the
    /// *deliver* point: `Some` for messages that carry a dataflow bin,
    /// `None` (the default) for control traffic — acks, markers,
    /// completion notices — which must stay out of the ledger.
    fn audit_bin(&self) -> Option<hamr_trace::AuditBin> {
        None
    }
}

/// Delivery model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// One-way propagation latency added to every remote message.
    pub latency: Duration,
    /// Per-directed-link bandwidth in bytes/second. `None` = infinite.
    pub bandwidth: Option<u64>,
    /// Latency applied to loopback (same-node) messages. Usually zero.
    pub loopback_latency: Duration,
}

impl NetConfig {
    /// No delays at all: messages arrive as fast as channels allow.
    pub fn instant() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            bandwidth: None,
            loopback_latency: Duration::ZERO,
        }
    }

    /// A modeled network with the given latency and per-link bandwidth.
    pub fn modeled(latency: Duration, bandwidth_bytes_per_sec: u64) -> Self {
        NetConfig {
            latency,
            bandwidth: Some(bandwidth_bytes_per_sec),
            loopback_latency: Duration::ZERO,
        }
    }

    /// True when no timer thread is needed.
    pub fn is_instant(&self) -> bool {
        self.latency.is_zero() && self.bandwidth.is_none() && self.loopback_latency.is_zero()
    }

    /// Time to push `bytes` through one link under this config.
    pub fn transmission_time(&self, bytes: usize) -> Duration {
        match self.bandwidth {
            None => Duration::ZERO,
            Some(bw) => Duration::from_secs_f64(bytes as f64 / bw as f64),
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_config_is_instant() {
        assert!(NetConfig::instant().is_instant());
        assert!(NetConfig::default().is_instant());
    }

    #[test]
    fn modeled_config_is_not_instant() {
        assert!(!NetConfig::modeled(Duration::from_micros(10), 1 << 30).is_instant());
    }

    #[test]
    fn transmission_time_scales_with_size() {
        let cfg = NetConfig::modeled(Duration::ZERO, 1_000_000);
        assert_eq!(cfg.transmission_time(0), Duration::ZERO);
        let t1 = cfg.transmission_time(1_000_000);
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-9);
        let t2 = cfg.transmission_time(500_000);
        assert!((t2.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn infinite_bandwidth_transmits_instantly() {
        let cfg = NetConfig::instant();
        assert_eq!(cfg.transmission_time(usize::MAX), Duration::ZERO);
    }
}

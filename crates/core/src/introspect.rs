//! The cluster's live introspection plane: the unified metrics
//! registry plus the embedded HTTP endpoint that serves it.
//!
//! Every [`Cluster`](crate::Cluster) owns one [`Introspect`]. Runs
//! publish into its [`MetricsRegistry`] (net/disk counters and gauges
//! live on every run, job metrics at completion) and, when enabled, a
//! loopback [`HttpServer`] exposes three routes:
//!
//! * `/metrics` — every registered series in Prometheus text format,
//!   scrapeable mid-run;
//! * `/healthz` — JSON run-state: jobs running/completed/failed and
//!   the most recent unresolved watchdog incident (503 while one is
//!   active);
//! * `/doctor` — a live flight-recorder dump (`FlightRecord` JSON)
//!   built from the current run's trace ring, audit ledger, and
//!   gauges — what `hamr doctor` reads post-mortem, but available
//!   while the job is still wedged.
//!
//! A job's data-plane statistics reach `/metrics` as its `stats_node_*`
//! gauges, one per shuffle edge and destination node (what `hamr top`
//! reads), and the journal as its `Stats` record (`hamr timeline`,
//! `hamr explain`).
//!
//! The endpoint is off by default so tests and benchmarks stay
//! hermetic; opt in with `HAMR_HTTP=auto` (ephemeral port),
//! `HAMR_HTTP=<port>`, or [`Cluster::serve_introspection`].

use hamr_trace::json::Json;
use hamr_trace::{
    FlightRecord, HttpResponse, HttpServer, JournalSlot, MetricsRegistry, Observe, RingSink,
    RouteHandler, WatchdogTrip,
};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// How the embedded endpoint is configured, usually via `HAMR_HTTP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HttpMode {
    /// No listener (the default — tests stay hermetic).
    #[default]
    Off,
    /// Bind an ephemeral loopback port.
    Auto,
    /// Bind this specific loopback port.
    Port(u16),
}

impl HttpMode {
    /// Parse `HAMR_HTTP=off|auto|<port>` (unset means `Off`).
    pub fn from_env() -> Self {
        hamr_trace::env_or_panic("HAMR_HTTP", HttpMode::Off, |s| match s {
            "off" => Ok(HttpMode::Off),
            "auto" => Ok(HttpMode::Auto),
            port => port
                .parse()
                .map(HttpMode::Port)
                .map_err(|_| "off|auto|<port>".to_string()),
        })
    }
}

/// Live cluster run-state, served at `/healthz`.
#[derive(Debug, Clone, Default)]
pub struct Health {
    /// Jobs currently inside `run_inner`.
    pub running_jobs: u32,
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    /// Warn-only watchdog incidents observed (stragglers).
    pub warnings: u64,
    /// The most recent liveness incident (backpressure/hang) not yet
    /// cleared by a cleanly completing job. `/healthz` serves 503
    /// while this is set.
    pub incident: Option<WatchdogTrip>,
    /// When `incident` was posted, on the introspection clock
    /// ([`Introspect::now_us`]) — lets `/healthz` report how long the
    /// cluster has been wedged.
    pub incident_since_us: Option<u64>,
    /// When a job last completed cleanly, on the same clock.
    pub last_clean_completion_us: Option<u64>,
}

impl Health {
    /// True when no liveness incident is outstanding.
    pub fn healthy(&self) -> bool {
        self.incident.is_none()
    }

    /// Render for `/healthz`, computing ages against `now_us` (the
    /// introspection clock at request time).
    pub fn to_json_at(&self, now_us: u64) -> Json {
        let age = |at: Option<u64>| at.map(|at| now_us.saturating_sub(at));
        let status = if self.healthy() { "ok" } else { "incident" };
        let fields = [
            ("status", status.into()),
            ("running_jobs", self.running_jobs.into()),
            ("jobs_completed", self.jobs_completed.into()),
            ("jobs_failed", self.jobs_failed.into()),
            ("warnings", self.warnings.into()),
            ("now_us", now_us.into()),
            ("incident_age_us", age(self.incident_since_us).into()),
            (
                "last_clean_completion_us",
                self.last_clean_completion_us.into(),
            ),
            (
                "last_clean_completion_age_us",
                age(self.last_clean_completion_us).into(),
            ),
        ];
        let incident =
            (self.incident.as_ref()).map(|trip| ("incident", Json::Str(trip.to_string())));
        Json::obj(fields.into_iter().chain(incident))
    }
}

/// What `/doctor` reads: handles into the most recent (possibly still
/// running) run.
pub(crate) struct LiveRun {
    pub job: String,
    pub ring: Option<Arc<RingSink>>,
    pub obs: Observe,
}

/// Newest events kept in a doctor dump, live (`/doctor`) or post-mortem
/// (`doctor_<job>.json`).
pub(crate) const DOCTOR_KEEP_LAST: usize = 200;

/// The introspection plane one cluster owns: registry + health +
/// live-run handles + the (optional) embedded HTTP server.
pub(crate) struct Introspect {
    pub registry: MetricsRegistry,
    pub health: Arc<Mutex<Health>>,
    pub live: Arc<Mutex<LiveRun>>,
    /// The flight journal, when enabled (`HAMR_JOURNAL` or
    /// `Cluster::enable_journal`); the `mapred` baseline sharing this
    /// plane holds a clone of the slot.
    pub journal: JournalSlot,
    /// The introspection clock's origin: `/healthz` ages and
    /// `incident_since_us` count microseconds from here.
    epoch: Instant,
    server: Mutex<Option<HttpServer>>,
}

impl Introspect {
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        // Before the first job `/doctor` still reports the engine and
        // whatever its gauges hold.
        let idle = LiveRun {
            job: String::new(),
            ring: None,
            obs: Observe {
                registry: Some(registry.clone()),
                engine: "hamr",
                ..Default::default()
            },
        };
        Introspect {
            registry,
            health: Arc::new(Mutex::new(Health::default())),
            live: Arc::new(Mutex::new(idle)),
            journal: JournalSlot::default(),
            epoch: Instant::now(),
            server: Mutex::new(None),
        }
    }

    /// Microseconds since this cluster's introspection plane came up.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Start serving per [`HttpMode::from_env`]. A bind failure is
    /// reported on stderr, never fatal — introspection must not take a
    /// job down.
    pub fn serve_from_env(&self) {
        let port = match HttpMode::from_env() {
            HttpMode::Off => return,
            HttpMode::Auto => 0,
            HttpMode::Port(p) => p,
        };
        match self.serve(port) {
            // The ephemeral port is useless unless announced: `hamr top`
            // needs an address to poll.
            Ok(addr) => eprintln!("hamr: introspection endpoint on http://{addr}/metrics"),
            Err(e) => {
                eprintln!("hamr: introspection endpoint failed to bind port {port}: {e}")
            }
        }
    }

    /// Bind `127.0.0.1:port` (0 = ephemeral) and serve `/metrics`,
    /// `/healthz`, `/doctor`. Replaces any previous server.
    pub fn serve(&self, port: u16) -> std::io::Result<SocketAddr> {
        let registry = self.registry.clone();
        let health = Arc::clone(&self.health);
        let live = Arc::clone(&self.live);
        let epoch = self.epoch;
        let handler: RouteHandler = Arc::new(move |path| match path {
            "/metrics" | "/metrics/" => HttpResponse::text(registry.snapshot().to_prometheus()),
            "/healthz" | "/healthz/" => {
                let now_us = epoch.elapsed().as_micros() as u64;
                let health = health.lock().clone();
                let status = if health.healthy() { 200 } else { 503 };
                HttpResponse::json(health.to_json_at(now_us).to_string()).status(status)
            }
            "/doctor" | "/doctor/" => {
                let live = live.lock();
                let record = FlightRecord::capture(
                    live.job.clone(),
                    None,
                    None,
                    live.ring.as_deref(),
                    DOCTOR_KEEP_LAST,
                    &live.obs,
                );
                HttpResponse::json(record.to_json().to_string())
            }
            _ => HttpResponse::not_found(),
        });
        let server = HttpServer::bind(port, handler)?;
        let addr = server.addr();
        *self.server.lock() = Some(server);
        Ok(addr)
    }

    /// Address of the running server, if any.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.server.lock().as_ref().map(|s| s.addr())
    }

    /// Stop and drop the server (idempotent).
    pub fn stop(&self) {
        if let Some(mut server) = self.server.lock().take() {
            server.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_trace::{http_get, json, parse_prometheus, Labels, WatchdogClass};
    use std::time::Duration;

    #[test]
    fn http_mode_parses_env_forms() {
        std::env::remove_var("HAMR_HTTP");
        assert_eq!(HttpMode::from_env(), HttpMode::Off);
        std::env::set_var("HAMR_HTTP", "off");
        assert_eq!(HttpMode::from_env(), HttpMode::Off);
        std::env::set_var("HAMR_HTTP", "auto");
        assert_eq!(HttpMode::from_env(), HttpMode::Auto);
        std::env::set_var("HAMR_HTTP", "9099");
        assert_eq!(HttpMode::from_env(), HttpMode::Port(9099));
        std::env::remove_var("HAMR_HTTP");
    }

    #[test]
    fn health_json_reports_incidents_with_ages() {
        let mut h = Health::default();
        assert!(h.healthy());
        let json = h.to_json_at(500).to_string();
        assert!(json.contains("\"status\":\"ok\""), "{json}");
        assert!(json.contains("\"incident_age_us\":null"), "{json}");
        assert!(json.contains("\"last_clean_completion_us\":null"), "{json}");
        h.last_clean_completion_us = Some(400);
        h.incident = Some(WatchdogTrip {
            class: WatchdogClass::Backpressure,
            epoch: 4,
            detail: "on \"edge 1\"".into(),
        });
        h.incident_since_us = Some(100);
        assert!(!h.healthy());
        let doc = h.to_json_at(500);
        let incident = doc.get("incident").and_then(Json::as_str);
        assert_eq!(
            incident,
            Some("watchdog backpressure at epoch 4: on \"edge 1\"")
        );
        let json = doc.to_string();
        assert!(json.contains("\"status\":\"incident\""), "{json}");
        assert!(json.contains("\"incident_age_us\":400"), "{json}");
        assert!(json.contains("\"last_clean_completion_us\":400"), "{json}");
        assert!(
            json.contains("\"last_clean_completion_age_us\":100"),
            "{json}"
        );
    }

    #[test]
    fn endpoint_serves_metrics_healthz_and_doctor() {
        let intro = Introspect::new();
        intro
            .registry
            .counter("demo_total", Labels::new().engine("hamr"))
            .add(7);
        let addr = intro.serve(0).expect("bind ephemeral");
        assert_eq!(intro.addr(), Some(addr));
        let t = Duration::from_secs(2);
        let (status, body) = http_get(addr, "/metrics", t).expect("GET /metrics");
        assert_eq!(status, 200);
        let samples = parse_prometheus(&body).expect("valid Prometheus text");
        assert!(
            samples
                .iter()
                .any(|s| s.name == "hamr_demo_total" && s.value == 7.0),
            "{body}"
        );
        let (status, body) = http_get(addr, "/healthz", t).expect("GET /healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
        // An incident flips /healthz to 503 until cleared, and its text
        // survives the trip whatever it contains.
        let trip = WatchdogTrip {
            class: WatchdogClass::Hang,
            epoch: 7,
            detail: "hang\ton \"edge 1\" of C:\\jobs".into(),
        };
        intro.health.lock().incident = Some(trip.clone());
        let (status, body) = http_get(addr, "/healthz", t).expect("GET /healthz");
        assert_eq!(status, 503);
        let doc = json::parse(&body).expect("valid /healthz JSON");
        let incident = doc.get("incident").and_then(Json::as_str);
        assert_eq!(incident, Some(&*trip.to_string()));
        // /doctor renders even with no live run attached.
        let (status, body) = http_get(addr, "/doctor", t).expect("GET /doctor");
        assert_eq!(status, 200);
        assert!(body.contains("\"dropped_events\""), "{body}");
        assert!(body.contains("\"engine\":\"hamr\""), "{body}");
        // The retired /alerts route is a 404 like any unknown path.
        let (status, _) = http_get(addr, "/alerts", t).expect("GET /alerts");
        assert_eq!(status, 404);
        intro.stop();
        intro.stop();
    }
}

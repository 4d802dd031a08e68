//! The benchmark's own span recorder. It wraps the calls the harness
//! makes into each layer's public functions; nothing inside the engine
//! is instrumented. Spans stay in memory and are written once, when
//! the traced run ends.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One timed call. `parent` is the span that was open when this one
/// started; spans of one rep share `trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Single-threaded recorder: the harness runs one job at a time and
/// every call it makes happens on its own thread.
pub struct Recorder {
    enabled: Cell<bool>,
    epoch: Instant,
    trace: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            trace: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switch recording on or off between spans (the traced run
    /// alternates recorded and plain reps to price the recording).
    pub fn set_enabled(&self, on: bool) {
        assert!(self.open.borrow().is_empty(), "toggled inside a span");
        self.enabled.set(on);
    }

    /// Start a new trace id; every span until the next call carries it.
    pub fn next_trace(&self) {
        self.trace.set(self.trace.get() + 1);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                trace: self.trace.get(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time of every span, by id: its duration minus the part its
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Every span closed, inside its parent, and in its parent's trace.
    pub fn check_nesting(&self) -> Result<(), String> {
        let spans = self.spans.borrow();
        if let Some(&id) = self.open.borrow().last() {
            return Err(format!("span {id} ({}) still open", spans[id].name));
        }
        for s in spans.iter() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
            }
            let Some(p) = s.parent else { continue };
            let p = &spans[p];
            if p.id >= s.id || s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} ({}) not inside its parent {} ({})",
                    s.id, s.name, p.id, p.name
                ));
            }
            if p.trace != s.trace {
                return Err(format!("span {} left its parent's trace", s.id));
            }
        }
        Ok(())
    }

    /// The recording as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let rows: Vec<String> = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\
                     \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                    s.id, s.trace, s.name, s.start_ns, s.end_ns, own[s.id]
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

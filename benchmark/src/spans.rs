//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name (`<layer>.<what>`), start
//! and end on a monotonic clock, and the span that was open when it
//! began (its parent). Spans stay in memory until the run ends and are
//! then written out as JSON. A layer's *self time* is the duration of
//! its spans minus the part their child spans cover.
//!
//! Some work cannot be wrapped from outside: `Experiment::run` rebuilds
//! and fingerprints every program and reloads its trace before it
//! simulates. Such inner steps are recorded as *derived* children whose
//! duration is that of an identical standalone call on the same input,
//! so the enclosing span's self time excludes them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`; spans named `bench.*` are harness glue.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// The span open when this one began.
    pub parent: Option<SpanId>,
    /// Duration taken from an identical standalone call rather than
    /// timed in place.
    pub derived: bool,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> SpanId {
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            derived: false,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records a derived child of the closed span `parent`, lasting
    /// `duration` from the parent's start.
    pub fn derive(&mut self, parent: SpanId, name: impl Into<String>, duration: Duration) {
        let start = self.spans[parent].start_ns;
        self.spans.push(Span {
            name: name.into(),
            start_ns: start,
            end_ns: start + duration.as_nanos() as u64,
            parent: Some(parent),
            derived: true,
        });
    }

    /// Duration of span `id`.
    pub fn duration(&self, id: SpanId) -> Duration {
        Duration::from_nanos(self.spans[id].duration_ns())
    }

    /// Self time of span `id`: its duration minus its children's.
    /// Negative when derived children overstate the work inside it.
    pub fn self_ns(&self, id: SpanId) -> i64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns() as i64 - children as i64
    }

    fn descends_from(&self, mut id: SpanId, root: SpanId) -> bool {
        while let Some(parent) = self.spans[id].parent {
            if parent == root {
                return true;
            }
            id = parent;
        }
        false
    }

    /// Self time per layer over the strict descendants of `root`,
    /// leaving out `bench.*` glue.
    pub fn self_by_layer(&self, root: SpanId) -> BTreeMap<String, i64> {
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.layer() != "bench" && self.descends_from(id, root) {
                *out.entry(span.layer().to_string()).or_insert(0) += self.self_ns(id);
            }
        }
        out
    }

    /// Summed durations of every span named exactly `name`.
    pub fn total(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_ns)
                .sum(),
        )
    }

    /// The spans as a JSON array (times in microseconds).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                     \"parent\": {}, \"derived\": {}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.derived,
                )
            })
            .collect();
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("bench.root");
        let group = t.open("sim.group");
        t.span("cfg.build", |_| {
            std::thread::sleep(Duration::from_millis(2))
        });
        std::thread::sleep(Duration::from_millis(2));
        t.close(group);
        t.close(root);
        let layers = t.self_by_layer(root);
        assert!(layers["cfg"] >= 2_000_000);
        assert!(layers["sim"] >= 2_000_000);
        assert!(!layers.contains_key("bench"));
        t.derive(group, "trace.read", Duration::from_millis(1));
        assert_eq!(t.self_by_layer(root)["trace"], 1_000_000);
        assert!(t.total("cfg.build") < t.duration(group));
    }
}

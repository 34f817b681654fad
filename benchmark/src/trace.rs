//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing here reaches inside the crates under test: a span is opened
//! just before a public function of a layer is called and closed just
//! after it returns. Three kinds of span exist, told apart by the prefix
//! of their name:
//!
//! * no prefix — timed in place by the benchmark's own clock;
//! * `reply:` — a duration the daemon reported in its reply body
//!   (`queue_us`, `exec_us`), laid out inside the request span that
//!   carried it;
//! * `shadow:` — the median duration of the same public function on the
//!   same shape, measured by the benchmark after the timed rounds (the
//!   daemon calls `random_inputs`, `compile` and `output_checksum` where
//!   no outside clock can see them).
//!
//! Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The crate a span's time is charged to (`Bench` is the generator
/// itself: loop bookkeeping between calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    Service,
    Algos,
    Core,
    Runtime,
    Sim,
    Topology,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Service,
        Layer::Algos,
        Layer::Core,
        Layer::Runtime,
        Layer::Sim,
        Layer::Topology,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Service => "service",
            Layer::Algos => "algos",
            Layer::Core => "core",
            Layer::Runtime => "runtime",
            Layer::Sim => "sim",
            Layer::Topology => "topology",
        }
    }
}

/// One interval of one operation. `parent` indexes the span list the
/// span lives in; spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process: one clock for every
/// thread's spans.
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A per-thread span recorder. Disabled, it reads no clock and stores
/// nothing, so the untraced rounds run the same code minus the probes.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already recorded stay.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span now; `None` when disabled.
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: Layer,
        op_id: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            layer,
            op_id,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        op_id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, layer, op_id, parent);
        let r = f();
        self.end(id);
        r
    }

    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent and
/// overlapping children are counted once.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Where the client-observed time went: per layer, the summed self time
/// of its spans; `root_ns` is the summed duration of the parentless
/// spans — the time the callers actually waited.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    pub root_ns: u64,
    pub layer_ns: [u64; Layer::ALL.len()],
}

impl Budget {
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let mut layer_ns = [0u64; Layer::ALL.len()];
        let mut root_ns = 0;
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            layer_ns[s.layer as usize] += own;
            if s.parent.is_none() {
                root_ns += s.duration_ns();
            }
        }
        Self { root_ns, layer_ns }
    }

    /// A layer's share of the client-observed time, in `[0, 1]`.
    #[must_use]
    pub fn share(&self, layer: Layer) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.layer_ns[layer as usize] as f64 / self.root_ns as f64
        }
    }

    /// How far the layers' self times are from adding up to the
    /// client-observed time, as a share of it. Zero when every child
    /// lies inside its parent; anything else is a recording bug.
    #[must_use]
    pub fn gap_share(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        let sum: u64 = self.layer_ns.iter().sum();
        (sum as f64 - self.root_ns as f64).abs() / self.root_ns as f64
    }

    /// One stacked line, e.g. `service 46.1% | runtime 53.2% | bench 0.7%`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut parts: Vec<(Layer, f64)> = Layer::ALL
            .into_iter()
            .map(|l| (l, self.share(l)))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        parts.sort_by(|a, b| b.1.total_cmp(&a.1));
        parts
            .iter()
            .map(|(l, s)| format!("{} {:.1}%", l.name(), s * 100.0))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

/// The span list as a JSON array, one span per line.
#[must_use]
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 120 + 4);
    s.push_str("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"op_id\": {}, \
             \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            sp.name,
            sp.layer.name(),
            sp.op_id,
            sp.start_ns,
            sp.end_ns
        );
        s.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    s.push_str("]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            layer,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = vec![
            span(Layer::Bench, None, 0, 100),
            span(Layer::Service, Some(0), 10, 60),
            span(Layer::Runtime, Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
        let b = Budget::of(&spans);
        assert_eq!(b.root_ns, 100);
        assert_eq!(b.gap_share(), 0.0);
        assert!((b.share(Layer::Service) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn self_time_of_adjacent_and_overlapping_children() {
        // Adjacent children tile the parent exactly.
        let spans = vec![
            span(Layer::Bench, None, 0, 100),
            span(Layer::Core, Some(0), 0, 40),
            span(Layer::Core, Some(0), 40, 100),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 40, 60]);
        // Overlap is counted once; a child poking out is clipped.
        let spans = vec![
            span(Layer::Bench, None, 10, 110),
            span(Layer::Sim, Some(0), 20, 70),
            span(Layer::Sim, Some(0), 50, 90),
            span(Layer::Sim, Some(0), 100, 150),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        let id = t.begin("x", Layer::Bench, 1, None);
        assert_eq!(t.span("y", Layer::Core, 1, id, || 7), 7);
        t.end(id);
        assert!(t.into_spans().is_empty());
    }
}

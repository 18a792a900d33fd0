//! The layer ledger: in-memory spans recorded by the benchmark around
//! each public call it makes into a repo crate.
//!
//! Spans nest: the replay of one step opens a root `advection.step`
//! span and every layer call inside it is a child. A span's *self time*
//! is its duration minus the part its children cover, so the root's
//! self time is exactly the step time no layer call accounts for —
//! the `other` of the ledger. Nothing is written until the run ends.

use crate::json::Json;
use std::time::Instant;

/// Name of the root span of one replayed step.
pub const STEP: &str = "advection.step";

/// One recorded interval. `id` is the span's index in its tracer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording a span is
    /// two clock reads and a push without reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. `f` receives the tracer so it can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the time its direct children
/// cover. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per replayed step (root [`STEP`] span, in order), the time spent in
/// spans named `name` anywhere below it. A layer called three times in
/// one Strang step is summed, so the figure is "time per step".
pub fn per_step_ns(spans: &[Span], name: &str) -> Vec<u64> {
    // Spans are recorded in opening order, so a parent precedes its
    // children and one forward pass resolves every span's root step.
    let mut root = vec![usize::MAX; spans.len()];
    let mut step_index = vec![usize::MAX; spans.len()];
    let mut totals = Vec::new();
    for s in spans {
        match s.parent {
            None if s.name == STEP => {
                root[s.id] = s.id;
                step_index[s.id] = totals.len();
                totals.push(0u64);
            }
            None => {}
            Some(p) => root[s.id] = root[p],
        }
        if s.name == name && s.parent.is_some() && root[s.id] != usize::MAX {
            totals[step_index[root[s.id]]] += s.duration_ns();
        }
    }
    totals
}

/// Duration of every root [`STEP`] span, in order.
pub fn step_durations_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == STEP)
        .map(Span::duration_ns)
        .collect()
}

/// Self time of every root [`STEP`] span, in order: the per-step `other`.
pub fn step_self_ns(spans: &[Span]) -> Vec<u64> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == STEP)
        .map(|s| own[s.id])
        .collect()
}

/// The spans as the `trace.json` array: one object per span with
/// `{id, parent, name, workload, start_ns, end_ns}`.
pub fn to_json(spans: &[Span], workload: &str) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", s.id)
                    .with("parent", s.parent.map_or(Json::Null, Json::from))
                    .with("name", s.name)
                    .with("workload", workload)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    /// Two steps; the first has a nested grandchild, the second calls
    /// `eval` twice. A stray non-step root must be ignored.
    fn fixture() -> Vec<Span> {
        vec![
            span(0, None, STEP, 0, 100),
            span(1, Some(0), "solve", 10, 40),
            span(2, Some(1), "sweep", 15, 35),
            span(3, Some(0), "eval", 40, 90),
            span(4, None, "probe", 100, 150),
            span(5, Some(4), "eval", 100, 150),
            span(6, None, STEP, 200, 260),
            span(7, Some(6), "eval", 200, 220),
            span(8, Some(6), "eval", 230, 250),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own = self_times_ns(&fixture());
        // step 0: 100 − (30 + 50); solve: 30 − 20; sweep and eval are leaves.
        assert_eq!(own[0], 20);
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 50);
        assert_eq!(own[6], 20);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = fixture();
        let own = self_times_ns(&spans);
        let below_first_step: u64 = [0, 1, 2, 3].iter().map(|&i| own[i]).sum();
        assert_eq!(below_first_step, spans[0].duration_ns());
    }

    #[test]
    fn per_step_totals_sum_repeated_layers_and_skip_probes() {
        let spans = fixture();
        assert_eq!(per_step_ns(&spans, "eval"), vec![50, 40]);
        assert_eq!(per_step_ns(&spans, "solve"), vec![30, 0]);
        assert_eq!(per_step_ns(&spans, "sweep"), vec![20, 0]);
        assert_eq!(per_step_ns(&spans, "absent"), vec![0, 0]);
        assert_eq!(step_durations_ns(&spans), vec![100, 60]);
        assert_eq!(step_self_ns(&spans), vec![20, 20]);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut tr = Tracer::with_capacity(4);
        let out = tr.span(STEP, |tr| {
            tr.leaf("a", || ());
            tr.span("b", |tr| tr.leaf("c", || 7))
        });
        assert_eq!(out, 7);
        let spans = tr.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.id, s.parent, s.name)).collect();
        assert_eq!(
            shape,
            vec![
                (0, None, STEP),
                (1, Some(0), "a"),
                (2, Some(0), "b"),
                (3, Some(2), "c")
            ]
        );
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(s.start_ns >= spans[p].start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
    }

    #[test]
    fn trace_json_carries_the_six_fields() {
        let doc = to_json(&fixture()[..2], "adv_host_u3");
        let first = &doc.items()[0];
        let keys: Vec<_> = first.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["id", "parent", "name", "workload", "start_ns", "end_ns"]
        );
        assert_eq!(first.get("parent"), Some(&Json::Null));
        assert_eq!(
            doc.items()[1].get("parent").and_then(Json::as_f64),
            Some(0.0)
        );
    }
}

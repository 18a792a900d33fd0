//! Trace exporters: Chrome/Perfetto `trace_events` JSON and
//! folded-stack flamegraph text.
//!
//! Both exporters run the same single pass per thread: a stack of open
//! `Begin` events pairs spans, instants pass straight through, and the
//! two artefacts fall out of the pairing. Because the recorder is a
//! fixed-capacity ring, the window can start mid-span: an `End` with no
//! surviving `Begin` is dropped (its start fell off the ring), and a
//! `Begin` still open when the window ends is closed at the thread's
//! last timestamp so viewers render the truncated span instead of
//! losing it.

use crate::phase::PhaseId;
use crate::snapshot::json_escape;
use crate::trace::{Trace, TraceEventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Microseconds with nanosecond precision, as a decimal literal
/// (`1234.567`), avoiding float rounding of large timestamps.
fn us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

fn push_lane_args(out: &mut String, lane: Option<u32>) {
    if let Some(lane) = lane {
        let _ = write!(out, ", \"args\": {{\"lane\": {lane}}}");
    }
}

/// Process name shown by Perfetto/Chrome for every exported trace: all
/// recorders share pid 1, and without a `process_name` metadata record
/// the UI labels the group with the bare pid.
const PROCESS_NAME: &str = "batched-splines";

/// The `traceEvents` array (Chrome `trace_events` format) for `trace`,
/// as a JSON array literal: complete `"X"` events for paired spans,
/// `"i"` thread-scoped instants, and `"M"` metadata records — one
/// `process_name` for the shared pid plus per-thread `thread_name` /
/// `thread_sort_index`, so the UI groups rows under the process and
/// orders pool workers by recorder id instead of bare tids.
pub fn chrome_trace_events(trace: &Trace) -> String {
    let mut events: Vec<String> = vec![format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
         \"args\": {{\"name\": \"{}\"}}}}",
        json_escape(PROCESS_NAME)
    )];
    for thread in &trace.threads {
        if thread.events.is_empty() && thread.name.is_empty() {
            continue;
        }
        let tid = thread.tid;
        // No standard field for flight-recorder loss; the name carries it.
        let shown_name = if thread.dropped > 0 {
            format!("{} (dropped {})", thread.name, thread.dropped)
        } else {
            thread.name.clone()
        };
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            json_escape(&shown_name)
        ));
        events.push(format!(
            "{{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"sort_index\": {tid}}}}}"
        ));

        // Stack of open spans: (phase, t_ns, lane).
        let mut stack: Vec<(PhaseId, u64, Option<u32>)> = Vec::new();
        let max_ts = thread.events.last().map_or(0, |e| e.t_ns);
        let close = |events: &mut Vec<String>, phase: PhaseId, t0: u64, end: u64, lane| {
            let mut e = format!(
                "{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": 1, \"tid\": {tid}",
                phase.name(),
                us(t0),
                us(end.saturating_sub(t0)),
            );
            push_lane_args(&mut e, lane);
            e.push('}');
            events.push(e);
        };
        for ev in &thread.events {
            match ev.kind {
                TraceEventKind::Begin(p) => stack.push((p, ev.t_ns, ev.lane)),
                TraceEventKind::End(p) => {
                    // Only a matching top pairs; anything else means the
                    // Begin was overwritten — drop the clipped End.
                    if stack.last().is_some_and(|&(top, _, _)| top == p) {
                        let (_, t0, lane) = stack.pop().expect("matched above");
                        close(&mut events, p, t0, ev.t_ns, lane);
                    }
                }
                TraceEventKind::Instant(k) => {
                    let mut e = format!(
                        "{{\"name\": \"{}\", \"cat\": \"instant\", \"ph\": \"i\", \"s\": \"t\", \
                         \"ts\": {}, \"pid\": 1, \"tid\": {tid}",
                        k.name(),
                        us(ev.t_ns),
                    );
                    push_lane_args(&mut e, ev.lane);
                    e.push('}');
                    events.push(e);
                }
            }
        }
        // Spans still open at the window edge: close at the last
        // timestamp so the truncated span is visible.
        while let Some((p, t0, lane)) = stack.pop() {
            close(&mut events, p, t0, max_ts, lane);
        }
    }

    let mut j = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        j.push_str("    ");
        j.push_str(e);
        j.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]");
    j
}

/// Full Chrome/Perfetto trace JSON object for `trace`: open the output
/// at <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut j = format!(
        "{{\n  \"schema_version\": {},\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": ",
        crate::SCHEMA_VERSION
    );
    j.push_str(&chrome_trace_events(trace));
    j.push_str("\n}\n");
    j
}

/// Folded-stack flamegraph text for `trace`: one line per unique
/// `thread;phase;...` stack with its *self* time in nanoseconds
/// (children subtracted), ready for `flamegraph.pl` or speedscope.
/// Instants carry no duration and are skipped.
pub fn folded_stacks(trace: &Trace) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for thread in &trace.threads {
        // Flamegraph frames split on ';' and the count splits on the
        // last space, so neither may appear inside a frame name.
        let tname: String = thread
            .name
            .chars()
            .map(|c| if c == ';' || c == ' ' { '_' } else { c })
            .collect();
        let tname = if tname.is_empty() {
            format!("thread-{}", thread.tid)
        } else {
            tname
        };
        // (phase, t_ns, child_ns) — child_ns accumulates closed children.
        let mut stack: Vec<(PhaseId, u64, u64)> = Vec::new();
        let max_ts = thread.events.last().map_or(0, |e| e.t_ns);
        let close =
            |stack: &mut Vec<(PhaseId, u64, u64)>, folded: &mut BTreeMap<String, u64>, end: u64| {
                let (p, t0, child_ns) = stack.pop().expect("caller checked non-empty");
                let dur = end.saturating_sub(t0);
                let mut key = tname.clone();
                for (sp, _, _) in stack.iter() {
                    key.push(';');
                    key.push_str(sp.name());
                }
                key.push(';');
                key.push_str(p.name());
                *folded.entry(key).or_insert(0) += dur.saturating_sub(child_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            };
        for ev in &thread.events {
            match ev.kind {
                TraceEventKind::Begin(p) => stack.push((p, ev.t_ns, 0)),
                TraceEventKind::End(p) => {
                    if stack.last().is_some_and(|&(top, _, _)| top == p) {
                        close(&mut stack, &mut folded, ev.t_ns);
                    }
                }
                TraceEventKind::Instant(_) => {}
            }
        }
        while !stack.is_empty() {
            close(&mut stack, &mut folded, max_ts);
        }
    }
    let mut out = String::new();
    for (key, self_ns) in &folded {
        let _ = writeln!(out, "{key} {self_ns}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{InstantKind, ThreadTrace, TraceEvent};

    fn ev(t_ns: u64, kind: TraceEventKind, lane: Option<u32>) -> TraceEvent {
        TraceEvent { t_ns, kind, lane }
    }

    fn one_thread(events: Vec<TraceEvent>) -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                tid: 7,
                name: "main".into(),
                events,
                dropped: 0,
            }],
            capacity: 64,
        }
    }

    #[test]
    fn pairs_nested_spans_and_instants() {
        let t = one_thread(vec![
            ev(1_000, TraceEventKind::Begin(PhaseId::AdvectionStep), None),
            ev(2_000, TraceEventKind::Begin(PhaseId::SolvePttrs), Some(3)),
            ev(
                2_500,
                TraceEventKind::Instant(InstantKind::LaneQuarantined),
                Some(3),
            ),
            ev(4_000, TraceEventKind::End(PhaseId::SolvePttrs), Some(3)),
            ev(9_000, TraceEventKind::End(PhaseId::AdvectionStep), None),
        ]);
        let json = chrome_trace_json(&t);
        assert!(json.contains("\"name\": \"solve_pttrs\""));
        assert!(json.contains("\"dur\": 2.000"));
        assert!(json.contains("\"name\": \"lane_quarantined\""));
        assert!(json.contains("\"s\": \"t\""));
        assert!(json.contains("\"args\": {\"lane\": 3}"));

        let folded = folded_stacks(&t);
        // Outer span self time: 8000 − 2000 child = 6000.
        assert!(folded.contains("main;advection_step 6000\n"), "{folded}");
        assert!(
            folded.contains("main;advection_step;solve_pttrs 2000\n"),
            "{folded}"
        );
    }

    #[test]
    fn clipped_window_drops_orphan_end_and_closes_open_begin() {
        // Ring overwrote the Begin of the first span; the last span is
        // still open when the snapshot was taken.
        let t = one_thread(vec![
            ev(5_000, TraceEventKind::End(PhaseId::Assemble), None),
            ev(6_000, TraceEventKind::Begin(PhaseId::Dispatch), None),
            ev(
                7_500,
                TraceEventKind::Instant(InstantKind::DispatchCommit),
                None,
            ),
        ]);
        let json = chrome_trace_json(&t);
        // No assemble X event (orphan End dropped)…
        assert!(!json.contains("\"name\": \"assemble\""));
        // …but the open dispatch span is closed at the window edge.
        assert!(json.contains("\"name\": \"dispatch\""));
        assert!(json.contains("\"dur\": 1.500"));
        let folded = folded_stacks(&t);
        assert!(folded.contains("main;dispatch 1500\n"), "{folded}");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let j = chrome_trace_json(&Trace::default());
        // Even an empty trace names the process (and nothing else).
        assert!(j.contains("\"name\": \"process_name\""));
        assert!(!j.contains("\"name\": \"thread_name\""));
        assert!(j.contains("\"schema_version\""));
        assert_eq!(folded_stacks(&Trace::default()), "");
    }

    #[test]
    fn metadata_groups_threads_under_named_process() {
        let t = one_thread(vec![
            ev(1_000, TraceEventKind::Begin(PhaseId::Dispatch), None),
            ev(2_000, TraceEventKind::End(PhaseId::Dispatch), None),
        ]);
        let json = chrome_trace_json(&t);
        assert!(json.contains(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {\"name\": \"batched-splines\"}}"
        ));
        assert!(json.contains("\"name\": \"thread_name\""));
        assert!(json.contains(
            "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 1, \"tid\": 7, \
             \"args\": {\"sort_index\": 7}}"
        ));
    }
}

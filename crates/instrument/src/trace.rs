//! Event-timeline data model: what the per-thread flight recorders
//! capture and what the exporters consume.
//!
//! Everything in this module is plain data, compiled in both feature
//! modes so exporters, tests, and fault-dump consumers never need `cfg`.
//! The *recording* side (the ring buffers) lives in [`crate::active`]
//! and compiles to no-ops in [`crate::inert`].

use crate::phase::PhaseId;
use crate::snapshot::{json_escape, Snapshot};
use std::path::{Path, PathBuf};

/// One-off timeline markers that are not phase spans: faults, recovery
/// decisions, and dispatch protocol edges.
///
/// A closed enum for the same reason [`PhaseId`] is one: the hot-path
/// record is an integer store (no strings, no allocation) and every
/// exporter agrees on the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum InstantKind {
    /// `VerifiedBuilder` quarantined a lane (zeroed it out).
    LaneQuarantined,
    /// `VerifiedBuilder` accepted a lane after iterative refinement.
    LaneRefined,
    /// `VerifiedBuilder` recovered a lane via the fallback ladder.
    LaneRecovered,
    /// Krylov breakdown: ρ hit zero (Lanczos/CG pivot loss).
    BreakdownRhoZero,
    /// Krylov breakdown: ω hit zero (BiCGStab stabilisation loss).
    BreakdownOmegaZero,
    /// Krylov breakdown: residual went NaN/Inf.
    BreakdownNonFiniteResidual,
    /// Krylov breakdown: residual stagnated for a full window.
    BreakdownStagnation,
    /// Krylov gave up at the iteration cap without converging.
    BreakdownMaxIters,
    /// Recovery ladder ran its re-preconditioning rung.
    RecoveryReprecondition,
    /// Recovery ladder switched Krylov solvers.
    RecoverySolverSwitch,
    /// Recovery ladder fell back to the direct Schur solve.
    RecoveryDirectFallback,
    /// A pool worker committed to a dispatched job.
    DispatchCommit,
    /// The dispatcher revoked an uncommitted job slot.
    DispatchRevoke,
    /// An input was rejected as non-finite before any work ran.
    NonFiniteInput,
    /// Iterative refinement stopped improving before reaching tolerance.
    RefineSaturated,
    /// A [`FaultDump`] was captured here.
    FaultDumped,
    /// An ABFT checksum mismatch flagged silent data corruption in a
    /// lane's solve (factor data, right-hand side, or coefficients).
    SdcDetected,
    /// A crash-consistent checkpoint generation was committed to disk.
    CheckpointWritten,
    /// Simulation state was restored from a checkpoint generation.
    CheckpointRestored,
}

impl InstantKind {
    /// Number of instant kinds (length of [`InstantKind::ALL`]).
    pub const COUNT: usize = 19;

    /// Every kind, in declaration order (= index order).
    pub const ALL: [InstantKind; Self::COUNT] = [
        InstantKind::LaneQuarantined,
        InstantKind::LaneRefined,
        InstantKind::LaneRecovered,
        InstantKind::BreakdownRhoZero,
        InstantKind::BreakdownOmegaZero,
        InstantKind::BreakdownNonFiniteResidual,
        InstantKind::BreakdownStagnation,
        InstantKind::BreakdownMaxIters,
        InstantKind::RecoveryReprecondition,
        InstantKind::RecoverySolverSwitch,
        InstantKind::RecoveryDirectFallback,
        InstantKind::DispatchCommit,
        InstantKind::DispatchRevoke,
        InstantKind::NonFiniteInput,
        InstantKind::RefineSaturated,
        InstantKind::FaultDumped,
        InstantKind::SdcDetected,
        InstantKind::CheckpointWritten,
        InstantKind::CheckpointRestored,
    ];

    /// Dense index of this kind (its discriminant).
    #[inline(always)]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in exported traces.
    pub const fn name(self) -> &'static str {
        match self {
            InstantKind::LaneQuarantined => "lane_quarantined",
            InstantKind::LaneRefined => "lane_refined",
            InstantKind::LaneRecovered => "lane_recovered",
            InstantKind::BreakdownRhoZero => "breakdown_rho_zero",
            InstantKind::BreakdownOmegaZero => "breakdown_omega_zero",
            InstantKind::BreakdownNonFiniteResidual => "breakdown_non_finite_residual",
            InstantKind::BreakdownStagnation => "breakdown_stagnation",
            InstantKind::BreakdownMaxIters => "breakdown_max_iters",
            InstantKind::RecoveryReprecondition => "recovery_reprecondition",
            InstantKind::RecoverySolverSwitch => "recovery_solver_switch",
            InstantKind::RecoveryDirectFallback => "recovery_direct_fallback",
            InstantKind::DispatchCommit => "dispatch_commit",
            InstantKind::DispatchRevoke => "dispatch_revoke",
            InstantKind::NonFiniteInput => "non_finite_input",
            InstantKind::RefineSaturated => "refine_saturated",
            InstantKind::FaultDumped => "fault_dumped",
            InstantKind::SdcDetected => "sdc_detected",
            InstantKind::CheckpointWritten => "checkpoint_written",
            InstantKind::CheckpointRestored => "checkpoint_restored",
        }
    }
}

/// What one timeline event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A [`crate::Span`] opened on this phase.
    Begin(PhaseId),
    /// The matching span closed.
    End(PhaseId),
    /// A one-off marker.
    Instant(InstantKind),
}

/// One recorded event: a timestamp (ns since the process trace epoch),
/// what happened, and the batch lane it concerned (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the first trace event in the process.
    pub t_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Batch lane index, when the event is lane-scoped.
    pub lane: Option<u32>,
}

/// One thread's surviving window of events, oldest first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Stable per-process recorder id (registration order).
    pub tid: u64,
    /// OS thread name at registration (`pp-pool-N` for workers).
    pub name: String,
    /// Events still in the ring, in record order.
    pub events: Vec<TraceEvent>,
    /// Events overwritten before this snapshot (flight-recorder loss).
    pub dropped: u64,
}

/// A point-in-time copy of every thread's flight recorder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Per-thread windows, in recorder-registration order.
    pub threads: Vec<ThreadTrace>,
    /// Ring capacity (events per thread) the recorders ran with.
    pub capacity: usize,
}

impl Trace {
    /// True when no thread recorded anything.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|t| t.events.is_empty())
    }

    /// Total surviving events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Number of threads with at least one surviving event.
    pub fn threads_with_events(&self) -> usize {
        self.threads.iter().filter(|t| !t.events.is_empty()).count()
    }

    /// Occurrences of the instant `kind` anywhere in the window.
    pub fn instant_count(&self, kind: InstantKind) -> usize {
        self.threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == TraceEventKind::Instant(kind))
            .count()
    }

    /// Span begins recorded for `phase` anywhere in the window.
    pub fn begin_count(&self, phase: PhaseId) -> usize {
        self.threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == TraceEventKind::Begin(phase))
            .count()
    }
}

/// A flight-recorder dump captured when a fault-handling path fired:
/// the full timeline window, the aggregate metrics at that moment, and
/// the triggering report rendered into `detail`.
///
/// [`FaultDump::to_json`] writes a Perfetto-loadable object (the
/// timeline is the top-level `traceEvents` key; the extra keys are
/// ignored by trace viewers).
#[derive(Debug, Clone)]
pub struct FaultDump {
    /// Which fault path captured the dump (stable identifier, e.g.
    /// `"verified_quarantine"` or `"recovery_escalation"`).
    pub reason: &'static str,
    /// Human-readable rendering of the triggering report
    /// (`LaneReport` lanes, `RecoveryEvent` ladder, …).
    pub detail: String,
    /// Capture time, ns since the process trace epoch.
    pub t_ns: u64,
    /// The timeline window at capture.
    pub trace: Trace,
    /// Aggregate metrics at capture.
    pub metrics: Snapshot,
}

impl FaultDump {
    /// Serialise to a Perfetto-loadable JSON object: `traceEvents`
    /// holds the timeline, `reason`/`detail`/`t_ns`/`metrics` ride
    /// alongside as ignored-by-viewers metadata.
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\n");
        j.push_str(&format!(
            "  \"schema_version\": {},\n",
            crate::SCHEMA_VERSION
        ));
        j.push_str(&format!(
            "  \"reason\": \"{}\",\n",
            json_escape(self.reason)
        ));
        j.push_str(&format!(
            "  \"detail\": \"{}\",\n",
            json_escape(&self.detail)
        ));
        j.push_str(&format!("  \"t_ns\": {},\n", self.t_ns));
        j.push_str("  \"traceEvents\": ");
        j.push_str(&crate::export::chrome_trace_events(&self.trace));
        j.push_str(",\n  \"metrics\": ");
        let metrics = self.metrics.to_json();
        j.push_str(metrics.trim_end());
        j.push_str("\n}\n");
        j
    }

    /// Write the dump into `dir` as `fault_dump_<seq>.json`, creating
    /// the directory if needed. Returns the path written.
    ///
    /// # Errors
    /// Propagates filesystem errors from `create_dir_all`/`write`.
    pub fn write_to(&self, dir: &Path, seq: u64) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("fault_dump_{seq:04}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_all_is_in_index_order_and_complete() {
        assert_eq!(InstantKind::ALL.len(), InstantKind::COUNT);
        for (i, k) in InstantKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{}", k.name());
        }
    }

    #[test]
    fn instant_names_are_unique() {
        for (i, a) in InstantKind::ALL.iter().enumerate() {
            for b in &InstantKind::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn trace_queries_on_empty() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.threads_with_events(), 0);
        assert_eq!(t.instant_count(InstantKind::LaneQuarantined), 0);
        assert_eq!(t.begin_count(PhaseId::Dispatch), 0);
    }

    #[test]
    fn fault_dump_serialises_without_trailing_comma() {
        let dump = FaultDump {
            reason: "test_reason",
            detail: "a \"quoted\" detail\nwith newline".into(),
            t_ns: 42,
            trace: Trace::default(),
            metrics: Snapshot::default(),
        };
        let j = dump.to_json();
        assert!(j.contains("\"traceEvents\": ["));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\\n"));
        assert!(j.ends_with("}\n"));
    }
}

//! Time budgets and cooperative cancellation.
//!
//! Exa-scale production runs give each advection step a hard wall-clock
//! allowance; a straggling lane or a stalled Krylov loop must *degrade*,
//! not hang the step. [`Budget`] is the vocabulary for that: an optional
//! monotonic deadline plus a shared cancel flag, checked **cooperatively**
//! at natural preemption points (pool chunk boundaries, Krylov iteration
//! tops). Nothing is ever interrupted
//! mid-kernel — a participant that observes an exhausted budget finishes
//! its current unit of work and stops claiming new ones, which bounds the
//! overshoot past the deadline to one chunk / one iteration (see DESIGN.md
//! §11 for the precise slack contract).
//!
//! A `Budget` is cheap to clone (one `Arc` bump) and cheap to poll (one
//! relaxed atomic load plus, when a deadline is set, one monotonic clock
//! read). The unlimited budget polls as a single branch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall-clock allowance for a unit of work: an optional monotonic
/// deadline plus a shared cancel flag.
///
/// Clones share the cancel flag, so cancelling any clone (or a
/// [`CancelToken`] derived from one) cancels them all — pass clones down
/// the stack, keep one at the top to cancel from another thread.
///
/// ```
/// use pp_portable::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::with_deadline(Duration::from_millis(50));
/// assert!(!budget.exhausted());
/// budget.cancel();
/// assert!(budget.exhausted());
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    /// Absolute monotonic deadline; `None` means no time limit.
    deadline: Option<Instant>,
    /// Shared cooperative cancel flag.
    cancel: Arc<AtomicBool>,
}

impl Budget {
    /// A budget with no deadline and no cancellation requested. Polling
    /// it is a single relaxed load; work under it behaves exactly as if
    /// no budget existed.
    pub fn unlimited() -> Self {
        Self {
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget expiring `allowance` from now (monotonic clock).
    pub fn with_deadline(allowance: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + allowance)
    }

    /// A budget expiring at an absolute monotonic instant. Use this to
    /// derive several phase budgets from one step deadline.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Request cooperative cancellation: every clone of this budget (and
    /// every [`CancelToken`] derived from one) reports exhausted from now
    /// on. Idempotent.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// `true` once [`Budget::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// `true` once the deadline (if any) has passed. Ignores the cancel
    /// flag; most callers want [`Budget::exhausted`].
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` when work under this budget should stop claiming new units:
    /// cancelled or past the deadline. This is the poll every cooperative
    /// checkpoint makes.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.is_cancelled() || self.expired()
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// zero once expired or cancelled).
    pub fn remaining(&self) -> Option<Duration> {
        if self.is_cancelled() {
            return Some(Duration::ZERO);
        }
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// A handle that can cancel this budget without carrying the deadline
    /// (e.g. handed to a supervisor thread or a signal handler).
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken(Arc::clone(&self.cancel))
    }

    /// Raw pointer to the shared cancel flag, for the pool's type-erased
    /// job descriptor. The pointee lives as long as any clone of this
    /// budget (it sits inside the shared `Arc` allocation).
    pub(crate) fn cancel_flag_ptr(&self) -> *const AtomicBool {
        Arc::as_ptr(&self.cancel)
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Two budgets are equal when they are clones of each other (same cancel
/// flag) with the same deadline — i.e. they describe the *same*
/// allowance, not merely an equivalent one.
impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && Arc::ptr_eq(&self.cancel, &other.cancel)
    }
}

impl Eq for Budget {}

/// Cancel-only handle to a [`Budget`], detached from its deadline.
#[derive(Debug, Clone)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Request cancellation of the originating budget and all its clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// How a budgeted dispatch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// Every index in the range was visited.
    Completed,
    /// The budget ran out before the range was drained: indices past the
    /// last claimed chunk were **not** visited. The caller decides what
    /// partial coverage means (the chunked Krylov solver, for example,
    /// reports unvisited lanes as `BudgetExhausted`).
    TimedOut,
}

impl DispatchOutcome {
    /// `true` when every index was visited.
    pub fn is_complete(&self) -> bool {
        matches!(self, DispatchOutcome::Completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted());
        assert!(!b.expired());
        assert!(!b.is_cancelled());
        assert_eq!(b.deadline(), None);
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones_and_tokens() {
        let b = Budget::unlimited();
        let clone = b.clone();
        let token = b.cancel_token();
        assert!(!clone.exhausted());
        token.cancel();
        assert!(b.is_cancelled());
        assert!(clone.exhausted());
        assert!(token.is_cancelled());
        assert_eq!(clone.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn deadline_expires() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert!(b.expired());
        assert!(b.exhausted());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        let far = Budget::with_deadline(Duration::from_secs(3600));
        assert!(!far.exhausted());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn deadline_at_matches_with_deadline() {
        let at = Instant::now() + Duration::from_secs(10);
        let b = Budget::with_deadline_at(at);
        assert_eq!(b.deadline(), Some(at));
        assert!(!b.exhausted());
    }

    #[test]
    fn outcome_completeness() {
        assert!(DispatchOutcome::Completed.is_complete());
        assert!(!DispatchOutcome::TimedOut.is_complete());
    }
}

//! Cooperative cancellation and per-request deadlines.
//!
//! The toolflow's stages are pure CPU work — there is no I/O to
//! interrupt — so cancellation is *cooperative*: a [`CancelToken`] is
//! shared between a controller (e.g. the `argo-serve` request loop)
//! and the running session, and the session driver polls it at every
//! stage boundary via [`StageObserver::checkpoint`]. A tripped token
//! aborts the pipeline with a structured
//! [`ErrorCode::DeadlineExceeded`] diagnostic instead of letting an
//! already-doomed request burn a worker to completion.
//!
//! Stage boundaries are the paper-faithful granularity: the §II-E
//! feedback loop inside the backend runs to convergence uninterrupted,
//! so a cancelled session still leaves only complete, consistent
//! artifacts in its caches.
//!
//! [`StageObserver::checkpoint`]: crate::observer::StageObserver::checkpoint
//! [`ErrorCode::DeadlineExceeded`]: crate::ErrorCode::DeadlineExceeded

use crate::diag::{Diagnostic, ErrorCode, Stage};
use crate::observer::StageObserver;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable, thread-safe cancellation handle, optionally carrying a
/// deadline. Clones share state: cancelling any clone cancels all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never expires and starts uncancelled.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Trips the token (and every clone of it) immediately.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    /// Does not consider the deadline; see [`CancelToken::is_tripped`].
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// `true` once the deadline (if any) has passed.
    pub fn is_expired(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` when the token should stop work: explicitly cancelled or
    /// past its deadline.
    pub fn is_tripped(&self) -> bool {
        self.is_cancelled() || self.is_expired()
    }

    /// The deadline this token carries, when it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Checkpoint: `Ok(())` while work may continue, otherwise a
    /// [`ErrorCode::DeadlineExceeded`] diagnostic attributed to `stage`
    /// (the stage that was about to run when the token tripped).
    ///
    /// # Errors
    ///
    /// Returns the diagnostic described above once the token is
    /// cancelled or expired.
    pub fn check(&self, stage: Stage) -> Result<(), Diagnostic> {
        if self.is_tripped() {
            Err(Diagnostic::new(
                stage,
                ErrorCode::DeadlineExceeded,
                if self.is_cancelled() {
                    "request cancelled before this stage could run"
                } else {
                    "request deadline elapsed before this stage could run"
                },
            ))
        } else {
            Ok(())
        }
    }
}

/// A token is a pure checkpoint observer: attached to a session (alone
/// or through [`Fanout`](crate::Fanout)), it aborts the run at the next
/// stage boundary once tripped, and observes no events.
impl StageObserver for CancelToken {
    fn checkpoint(&self, stage: Stage) -> Result<(), Diagnostic> {
        self.check(stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_passes_checkpoints() {
        let t = CancelToken::new();
        assert!(!t.is_tripped());
        assert!(t.check(Stage::Frontend).is_ok());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_trips_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        let d = t.check(Stage::Backend).unwrap_err();
        assert_eq!(d.code, ErrorCode::DeadlineExceeded);
        assert_eq!(d.stage, Stage::Backend);
        assert!(d.message.contains("cancelled"), "{}", d.message);
    }

    #[test]
    fn past_deadline_trips_with_deadline_message() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_expired() && t.is_tripped() && !t.is_cancelled());
        let d = t.check(Stage::SeedCosts).unwrap_err();
        assert_eq!(d.code, ErrorCode::DeadlineExceeded);
        assert!(d.message.contains("deadline"), "{}", d.message);
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_tripped());
        assert!(t.check(Stage::Verify).is_ok());
        assert!(t.deadline().is_some());
    }
}

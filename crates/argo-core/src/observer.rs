//! Stage observability: typed hooks into a running [`Toolflow`] session.
//!
//! The paper's toolflow (Fig. 1) is an *iterative* pipeline — WCET
//! information feeds back into scheduling and placement. A
//! [`StageObserver`] attached via
//! [`Toolflow::observer`](crate::Toolflow::observer) watches it and
//! receives:
//!
//! * paired `on_stage_start` / `on_stage_finish` events for every
//!   pipeline [`Stage`] the session runs, the finish event carrying a
//!   [`StageSummary`] with the produced artifact's canonical
//!   [`Fingerprint`], a human-readable detail line, and the elapsed
//!   wall time;
//! * one [`FeedbackSnapshot`] per § II-E feedback round inside the
//!   backend, exposing the round's schedule (assignment + makespan) and
//!   memory placement so convergence can be traced.
//!
//! Observer methods take `&self` so one observer can be shared across
//! threads (e.g. one per DSE sweep); stateful observers use interior
//! mutability, as [`CollectingObserver`] does.
//!
//! [`Toolflow`]: crate::Toolflow

use crate::diag::Stage;
use crate::fingerprint::Fingerprint;
use argo_adl::CoreId;
use std::io::Write;
use std::sync::Mutex;
use std::time::Duration;

/// What a finished stage produced: fingerprint, description, timing.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Per-session monotonically increasing event sequence number (see
    /// [`StageObserver`]).
    pub seq: u64,
    /// The stage that finished.
    pub stage: Stage,
    /// Canonical fingerprint of the artifact the stage produced.
    pub fingerprint: Fingerprint,
    /// Short human-readable description (task counts, bounds, …).
    pub detail: String,
    /// Wall-clock time the stage took.
    pub elapsed: Duration,
}

/// One § II-E feedback round inside the backend: the round's schedule
/// and memory placement, for convergence tracing.
#[derive(Debug, Clone)]
pub struct FeedbackSnapshot {
    /// Per-session monotonically increasing event sequence number (see
    /// [`StageObserver`]).
    pub seq: u64,
    /// Round index (0-based).
    pub round: u32,
    /// Task → core mapping the scheduler chose this round.
    pub assignment: Vec<CoreId>,
    /// Interference-free makespan of this round's schedule.
    pub makespan: u64,
    /// Arrays the placement put in a scratchpad this round.
    pub spm_resident: usize,
    /// Arrays left in shared memory this round.
    pub shared_resident: usize,
    /// `true` when the assignment matched the previous round's (the
    /// feedback loop stops after a stable round).
    pub stable: bool,
}

/// Hooks into a running toolflow session. All methods have empty
/// defaults; implement only what you need.
///
/// Every started stage is closed by exactly one terminal event:
/// `on_stage_finish` on success, `on_stage_error` on failure — so
/// event streams stay well-nested even across failing points (a DSE
/// sweep routinely mixes both on one shared observer).
///
/// Every event carries a `seq` number drawn from one per-session
/// counter, which [`Toolflow`](crate::Toolflow) allocates and which
/// starts at 0 for every new session. Within a session,
/// `seq` is strictly increasing in emission order across *all* event
/// kinds — stage starts, finishes, errors and feedback rounds share
/// the counter — so consumers that receive events over a reordering
/// transport (e.g. the `argo-serve` progress stream) can restore
/// emission order and drop duplicates.
pub trait StageObserver {
    /// Cooperative cancellation checkpoint, polled by the session
    /// driver *before* each stage starts (before `on_stage_start`).
    /// Returning `Err` aborts the pipeline with that diagnostic and no
    /// start/terminal events are emitted for the aborted stage —
    /// streams stay well-nested. The default never cancels; observers
    /// that carry a [`CancelToken`](crate::CancelToken) delegate to
    /// [`CancelToken::check`](crate::CancelToken::check), and wrapper
    /// observers must forward the call so cancellation survives
    /// composition.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic (conventionally
    /// [`ErrorCode::DeadlineExceeded`](crate::ErrorCode::DeadlineExceeded))
    /// when the session should stop before running `stage`.
    fn checkpoint(&self, stage: Stage) -> Result<(), crate::Diagnostic> {
        let _ = stage;
        Ok(())
    }

    /// A pipeline stage is about to run.
    fn on_stage_start(&self, stage: Stage, seq: u64) {
        let _ = (stage, seq);
    }

    /// A pipeline stage finished, producing the summarized artifact.
    fn on_stage_finish(&self, summary: &StageSummary) {
        let _ = summary;
    }

    /// A pipeline stage failed with the given diagnostic (the terminal
    /// event for that stage — no `on_stage_finish` follows).
    fn on_stage_error(&self, stage: Stage, seq: u64, diagnostic: &crate::Diagnostic) {
        let _ = (stage, seq, diagnostic);
    }

    /// One backend feedback round completed.
    fn on_feedback_round(&self, snapshot: &FeedbackSnapshot) {
        let _ = snapshot;
    }
}

/// The do-nothing observer (default for sessions without one).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl StageObserver for NullObserver {}

/// Fans one session's events out to two observers, in order. The
/// checkpoint passes only when both pass, so a
/// [`CancelToken`](crate::CancelToken) on either side still cancels.
/// Both sides are `Sync`, so one fanout can serve every worker of a
/// parallel sweep.
#[derive(Clone, Copy)]
pub struct Fanout<'a>(
    pub &'a (dyn StageObserver + Sync),
    pub &'a (dyn StageObserver + Sync),
);

impl StageObserver for Fanout<'_> {
    fn checkpoint(&self, stage: Stage) -> Result<(), crate::Diagnostic> {
        self.0.checkpoint(stage)?;
        self.1.checkpoint(stage)
    }

    fn on_stage_start(&self, stage: Stage, seq: u64) {
        self.0.on_stage_start(stage, seq);
        self.1.on_stage_start(stage, seq);
    }

    fn on_stage_finish(&self, summary: &StageSummary) {
        self.0.on_stage_finish(summary);
        self.1.on_stage_finish(summary);
    }

    fn on_stage_error(&self, stage: Stage, seq: u64, diagnostic: &crate::Diagnostic) {
        self.0.on_stage_error(stage, seq, diagnostic);
        self.1.on_stage_error(stage, seq, diagnostic);
    }

    fn on_feedback_round(&self, snapshot: &FeedbackSnapshot) {
        self.0.on_feedback_round(snapshot);
        self.1.on_feedback_round(snapshot);
    }
}

/// One recorded observer callback, in arrival order.
#[derive(Debug, Clone)]
pub enum StageEvent {
    /// `on_stage_start` (stage, seq).
    Started(Stage, u64),
    /// `on_stage_finish`.
    Finished(StageSummary),
    /// `on_stage_error` (stage, seq, diagnostic).
    Errored(Stage, u64, crate::Diagnostic),
    /// `on_feedback_round`.
    Feedback(FeedbackSnapshot),
}

impl StageEvent {
    /// The event's per-session sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            StageEvent::Started(_, seq) => *seq,
            StageEvent::Finished(s) => s.seq,
            StageEvent::Errored(_, seq, _) => *seq,
            StageEvent::Feedback(s) => s.seq,
        }
    }
}

/// An observer that records every event, for tests, reports and
/// post-hoc timing. Thread-safe: events from concurrent sessions
/// interleave but each session's own events stay ordered.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    events: Mutex<Vec<StageEvent>>,
}

impl CollectingObserver {
    /// Empty collector.
    pub fn new() -> CollectingObserver {
        CollectingObserver::default()
    }

    /// Snapshot of all recorded events in arrival order.
    pub fn events(&self) -> Vec<StageEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Number of `(start, finish)` pairs recorded for `stage`.
    pub fn finished_count(&self, stage: Stage) -> usize {
        self.events()
            .iter()
            .filter(|e| matches!(e, StageEvent::Finished(s) if s.stage == stage))
            .count()
    }

    /// Recorded feedback snapshots, in order.
    pub fn feedback_rounds(&self) -> Vec<FeedbackSnapshot> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                StageEvent::Feedback(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    /// Recorded stage errors, in order.
    pub fn errors(&self) -> Vec<(Stage, crate::Diagnostic)> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                StageEvent::Errored(s, _, d) => Some((*s, d.clone())),
                _ => None,
            })
            .collect()
    }

    /// Sequence numbers of all recorded events, in arrival order.
    pub fn seqs(&self) -> Vec<u64> {
        self.events().iter().map(StageEvent::seq).collect()
    }

    /// `true` when stage events are well-nested: every `Started(s)` is
    /// closed by a matching terminal event (`Finished(s)` or
    /// `Errored(s, _)`) before the next stage starts, feedback
    /// snapshots only arrive inside the backend stage, and no stage
    /// terminates without having started.
    pub fn well_nested(&self) -> bool {
        let mut open: Option<Stage> = None;
        for ev in self.events() {
            match ev {
                StageEvent::Started(s, _) => {
                    if open.is_some() {
                        return false;
                    }
                    open = Some(s);
                }
                StageEvent::Finished(summary) => {
                    if open != Some(summary.stage) {
                        return false;
                    }
                    open = None;
                }
                StageEvent::Errored(s, _, _) => {
                    if open != Some(s) {
                        return false;
                    }
                    open = None;
                }
                StageEvent::Feedback(_) => {
                    if open != Some(Stage::Backend) {
                        return false;
                    }
                }
            }
        }
        open.is_none()
    }
}

impl StageObserver for CollectingObserver {
    fn on_stage_start(&self, stage: Stage, seq: u64) {
        self.events
            .lock()
            .unwrap()
            .push(StageEvent::Started(stage, seq));
    }

    fn on_stage_finish(&self, summary: &StageSummary) {
        self.events
            .lock()
            .unwrap()
            .push(StageEvent::Finished(summary.clone()));
    }

    fn on_stage_error(&self, stage: Stage, seq: u64, diagnostic: &crate::Diagnostic) {
        self.events
            .lock()
            .unwrap()
            .push(StageEvent::Errored(stage, seq, diagnostic.clone()));
    }

    fn on_feedback_round(&self, snapshot: &FeedbackSnapshot) {
        self.events
            .lock()
            .unwrap()
            .push(StageEvent::Feedback(snapshot.clone()));
    }
}

/// An observer that renders events as indented trace lines to any
/// writer — `TraceObserver::stderr()` gives progress output for CLI
/// binaries and examples without touching their pinned stdout tables.
pub struct TraceObserver<W: Write> {
    out: Mutex<W>,
}

impl TraceObserver<std::io::Stderr> {
    /// Trace to standard error.
    pub fn stderr() -> TraceObserver<std::io::Stderr> {
        TraceObserver {
            out: Mutex::new(std::io::stderr()),
        }
    }
}

impl<W: Write> TraceObserver<W> {
    /// Trace to an arbitrary writer.
    pub fn new(out: W) -> TraceObserver<W> {
        TraceObserver {
            out: Mutex::new(out),
        }
    }

    /// Consumes the observer, returning the writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap()
    }
}

impl<W: Write> StageObserver for TraceObserver<W> {
    fn on_stage_start(&self, stage: Stage, _seq: u64) {
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(out, "[toolflow] {stage} ...");
    }

    fn on_stage_finish(&self, summary: &StageSummary) {
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(
            out,
            "[toolflow] {} done in {:.1?} — {} (fp {})",
            summary.stage, summary.elapsed, summary.detail, summary.fingerprint
        );
    }

    fn on_stage_error(&self, stage: Stage, _seq: u64, diagnostic: &crate::Diagnostic) {
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(out, "[toolflow] {stage} FAILED — {diagnostic}");
    }

    fn on_feedback_round(&self, snapshot: &FeedbackSnapshot) {
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(
            out,
            "[toolflow]   feedback round {}: makespan {}, {} spm / {} shared arrays{}",
            snapshot.round,
            snapshot.makespan,
            snapshot.spm_resident,
            snapshot.shared_resident,
            if snapshot.stable { " (stable)" } else { "" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(stage: Stage, seq: u64) -> StageSummary {
        StageSummary {
            seq,
            stage,
            fingerprint: Fingerprint(7),
            detail: "x".into(),
            elapsed: Duration::from_millis(1),
        }
    }

    #[test]
    fn well_nested_accepts_ordered_pairs() {
        let obs = CollectingObserver::new();
        obs.on_stage_start(Stage::Frontend, 0);
        obs.on_stage_finish(&summary(Stage::Frontend, 1));
        obs.on_stage_start(Stage::Backend, 2);
        obs.on_feedback_round(&FeedbackSnapshot {
            seq: 3,
            round: 0,
            assignment: vec![CoreId(0)],
            makespan: 5,
            spm_resident: 0,
            shared_resident: 1,
            stable: true,
        });
        obs.on_stage_finish(&summary(Stage::Backend, 4));
        assert!(obs.well_nested());
        assert_eq!(obs.finished_count(Stage::Frontend), 1);
        assert_eq!(obs.feedback_rounds().len(), 1);
        assert_eq!(obs.seqs(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn well_nested_rejects_unclosed_and_crossed_stages() {
        let open = CollectingObserver::new();
        open.on_stage_start(Stage::Frontend, 0);
        assert!(!open.well_nested());

        let crossed = CollectingObserver::new();
        crossed.on_stage_start(Stage::Frontend, 0);
        crossed.on_stage_finish(&summary(Stage::Backend, 1));
        assert!(!crossed.well_nested());

        let stray = CollectingObserver::new();
        stray.on_feedback_round(&FeedbackSnapshot {
            seq: 0,
            round: 0,
            assignment: vec![],
            makespan: 0,
            spm_resident: 0,
            shared_resident: 0,
            stable: false,
        });
        assert!(!stray.well_nested());
    }

    #[test]
    fn trace_observer_writes_lines() {
        let obs = TraceObserver::new(Vec::<u8>::new());
        obs.on_stage_start(Stage::Frontend, 0);
        obs.on_stage_finish(&summary(Stage::Frontend, 1));
        let text = String::from_utf8(obs.into_inner()).unwrap();
        assert!(text.contains("frontend ..."), "{text}");
        assert!(text.contains("frontend done"), "{text}");
    }
}

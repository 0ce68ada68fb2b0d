//! Hierarchical spans: RAII guards and a bounded ring buffer of
//! completed span records.
//!
//! A [`Tracer`] hands out [`Span`] guards. While a guard is alive, new
//! spans started on the same thread become its children (parent links
//! ride a thread-local stack, so cross-thread sessions each get their
//! own hierarchy). Dropping the guard timestamps the span and pushes a
//! [`SpanRecord`] into the tracer's ring buffer: a slot is claimed with
//! one atomic `fetch_add` (no global lock), and the oldest record is
//! evicted when the ring wraps. Eviction removes *older* (lower-`seq`)
//! records first, and a child always completes — and is therefore
//! recorded — before its parent, so eviction can orphan a child's
//! parent *reference* but never re-point it: consumers treat a parent
//! id missing from a snapshot as "root". A disabled tracer hands out
//! inert guards that touch no shared state.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One completed span, as stored in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root. The parent may have
    /// been evicted from the ring by the time a snapshot is taken;
    /// consumers must treat an unresolvable parent as a root.
    pub parent: u64,
    /// Span name (aggregation key for flame summaries).
    pub name: Cow<'static, str>,
    /// Small process-unique id of the recording thread (see
    /// [`thread_names`]).
    pub thread: u32,
    /// Start time in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Global record sequence number (ring order; children of a span
    /// always carry a lower `seq` than the span itself).
    pub seq: u64,
}

impl SpanRecord {
    /// End time in nanoseconds since the tracer's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

// --- Thread identity: a small dense id per OS thread, plus a name
// registry for trace exporters. Ids are process-global (shared by all
// tracers) so records from different tracers agree on thread labels.

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

fn name_registry() -> &'static Mutex<BTreeMap<u32, String>> {
    static NAMES: OnceLock<Mutex<BTreeMap<u32, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static THREAD_ID: Cell<u32> = const { Cell::new(0) };
    /// Stack of (tracer token, span id) for open spans on this thread.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's small trace id, assigning one (and registering
/// the thread's name) on first use.
pub fn current_thread_id() -> u32 {
    THREAD_ID.with(|cell| {
        let v = cell.get();
        if v != 0 {
            return v;
        }
        let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{id}"));
        name_registry().lock().unwrap().insert(id, name);
        cell.set(id);
        id
    })
}

/// Snapshot of the thread-id → thread-name registry (every thread that
/// has recorded at least one span).
pub fn thread_names() -> Vec<(u32, String)> {
    name_registry()
        .lock()
        .unwrap()
        .iter()
        .map(|(&id, name)| (id, name.clone()))
        .collect()
}

// --- Tracer.

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// A span recorder: RAII guards in, [`SpanRecord`]s out of a bounded
/// ring buffer. Cheap to share (`&Tracer` is `Sync`); see the module
/// docs for the concurrency story.
pub struct Tracer {
    /// Distinguishes this tracer's entries on the shared thread-local
    /// parent stack (tests run several tracers on one thread).
    token: u64,
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    cursor: AtomicU64,
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    evicted: AtomicU64,
}

impl Tracer {
    /// A disabled tracer whose ring holds `capacity` completed spans
    /// (oldest evicted first). Capacity is clamped to at least 1.
    pub fn new(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            cursor: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            evicted: AtomicU64::new(0),
        }
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (open guards become inert at drop).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Number of records evicted by ring wrap-around so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Opens a span. The guard records on drop; if the tracer is
    /// disabled the guard is inert (no allocation, no shared state).
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span<'_> {
        if !self.is_enabled() {
            return Span { live: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|&&(token, _)| token == self.token)
                .map_or(0, |&(_, id)| id);
            stack.push((self.token, id));
            parent
        });
        Span {
            live: Some(LiveSpan {
                tracer: self,
                id,
                parent,
                name: name.into(),
                start: Instant::now(),
            }),
        }
    }

    /// Records an already-timed span ending now (start is back-dated by
    /// `elapsed`), parented under the thread's innermost open span.
    /// This is the hook for adapters that learn a duration from an
    /// event stream (e.g. a `StageObserver` finish event) rather than
    /// from a guard.
    pub fn record_complete(&self, name: impl Into<Cow<'static, str>>, elapsed: Duration) {
        if !self.is_enabled() {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|&&(token, _)| token == self.token)
                .map_or(0, |&(_, id)| id)
        });
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let dur_ns = elapsed.as_nanos() as u64;
        self.push(SpanRecord {
            id,
            parent,
            name: name.into(),
            thread: current_thread_id(),
            start_ns: end_ns.saturating_sub(dur_ns),
            dur_ns,
            seq: 0,
        });
    }

    fn push(&self, mut record: SpanRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock().unwrap();
        if guard.is_some() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        *guard = Some(record);
    }

    /// All retained records, oldest first. Records evicted by ring
    /// wrap-around are gone; a record whose `parent` is not in the
    /// snapshot must be treated as a root.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap().clone())
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Clears the ring (the eviction counter is kept).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock().unwrap() = None;
        }
    }
}

struct LiveSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    start: Instant,
}

/// RAII span guard: the span runs from construction to drop. Obtained
/// from [`Tracer::span`] (or the crate-level [`crate::span`] for the
/// global tracer); inert when tracing is disabled.
pub struct Span<'t> {
    live: Option<LiveSpan<'t>>,
}

impl Span<'_> {
    /// A guard that records nothing (what a disabled tracer returns).
    pub fn inert() -> Span<'static> {
        Span { live: None }
    }

    /// This span's id, or 0 for an inert guard.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur = live.start.elapsed();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            // LIFO in the common case; a linear scan tolerates guards
            // dropped out of declaration order.
            if let Some(pos) = stack
                .iter()
                .rposition(|&entry| entry == (live.tracer.token, live.id))
            {
                stack.remove(pos);
            }
        });
        let start_ns = live
            .start
            .saturating_duration_since(live.tracer.epoch)
            .as_nanos() as u64;
        live.tracer.push(SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            thread: current_thread_id(),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            seq: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(16);
        {
            let _a = tracer.span("a");
            let _b = tracer.span("b");
        }
        tracer.record_complete("c", Duration::from_millis(1));
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn nesting_links_parent_and_child() {
        let tracer = Tracer::new(16);
        tracer.enable();
        {
            let a = tracer.span("a");
            let b = tracer.span("b");
            assert_ne!(a.id(), b.id());
            drop(b);
            tracer.record_complete("timed", Duration::from_micros(5));
        }
        let records = tracer.snapshot();
        assert_eq!(records.len(), 3);
        let a = records.iter().find(|r| r.name == "a").unwrap();
        let b = records.iter().find(|r| r.name == "b").unwrap();
        let timed = records.iter().find(|r| r.name == "timed").unwrap();
        assert_eq!(a.parent, 0);
        assert_eq!(b.parent, a.id);
        assert_eq!(
            timed.parent, a.id,
            "record_complete parents under the open span"
        );
        assert!(b.seq < a.seq, "children complete before their parent");
        assert!(a.start_ns <= b.start_ns);
        assert!(a.end_ns() >= b.end_ns());
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let tracer = Tracer::new(4);
        tracer.enable();
        for i in 0..10u64 {
            let _s = tracer.span(format!("s{i}"));
        }
        let records = tracer.snapshot();
        assert_eq!(records.len(), 4);
        assert_eq!(tracer.evicted(), 6);
        let names: Vec<_> = records.iter().map(|r| r.name.as_ref()).collect();
        assert_eq!(names, ["s6", "s7", "s8", "s9"], "oldest evicted first");
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn two_tracers_on_one_thread_keep_separate_parents() {
        let t1 = Tracer::new(8);
        let t2 = Tracer::new(8);
        t1.enable();
        t2.enable();
        {
            let _a = t1.span("t1-root");
            let _b = t2.span("t2-root");
            let _c = t1.span("t1-child");
            let _d = t2.span("t2-child");
        }
        let r1 = t1.snapshot();
        let r2 = t2.snapshot();
        let root1 = r1.iter().find(|r| r.name == "t1-root").unwrap();
        let child1 = r1.iter().find(|r| r.name == "t1-child").unwrap();
        assert_eq!(child1.parent, root1.id);
        let root2 = r2.iter().find(|r| r.name == "t2-root").unwrap();
        let child2 = r2.iter().find(|r| r.name == "t2-child").unwrap();
        assert_eq!(child2.parent, root2.id);
    }

    #[test]
    fn threads_get_distinct_ids_and_names() {
        let tracer = std::sync::Arc::new(Tracer::new(64));
        tracer.enable();
        let t = tracer.clone();
        std::thread::Builder::new()
            .name("span-worker".into())
            .spawn(move || {
                let _s = t.span("on-worker");
            })
            .unwrap()
            .join()
            .unwrap();
        let _s = tracer.span("on-main");
        drop(_s);
        let records = tracer.snapshot();
        let worker = records.iter().find(|r| r.name == "on-worker").unwrap();
        let main = records.iter().find(|r| r.name == "on-main").unwrap();
        assert_ne!(worker.thread, main.thread);
        let names = thread_names();
        assert!(names
            .iter()
            .any(|(id, n)| *id == worker.thread && n == "span-worker"));
    }
}

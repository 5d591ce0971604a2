//! Tick-anchored structured tracing.
//!
//! A *trace* groups every span recorded on behalf of one engine tick —
//! across threads and (by propagating the trace id over the partition wire
//! protocol) across processes. Spans are deliberately cheap: a trace id, a
//! span id, a parent id, an interned `&'static str` label, and two
//! monotonic microsecond timestamps, written into a **lock-free per-thread
//! ring buffer** (a seqlock per slot, single writer per ring) so the hot
//! tick path never takes a lock or allocates.
//!
//! * [`next_trace_id`] mints a process-unique trace id (never 0; 0 means
//!   "untraced" and makes every span call a no-op).
//! * [`span`] opens a [`SpanGuard`] that records itself on drop;
//!   [`record_span`] writes a span with explicit timestamps (used to
//!   materialise stage timings measured elsewhere).
//! * [`collect_spans`] walks every thread's ring and returns the spans of
//!   one trace — the debug-endpoint and slow-tick-capture read path.
//!
//! Rings are bounded ([`RING_CAPACITY`] spans per thread); old spans are
//! overwritten, which is fine because readers only ever chase *recent*
//! traces. A torn read (reader racing the writer on a wrapping slot) is
//! detected by the slot's sequence number and the slot is skipped.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans retained per thread before the ring wraps.
pub const RING_CAPACITY: usize = 1024;

/// One finished span, as read back from a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The trace this span belongs to.
    pub trace: u64,
    /// This span's id (unique within the process).
    pub span: u64,
    /// The parent span id (0 for a root span).
    pub parent: u64,
    /// The static label (e.g. `"tick"`, `"wal.fsync"`).
    pub name: &'static str,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// The process-wide monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (monotonic).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Mints a process-unique trace id; never returns 0 (0 = untraced).
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        // Seed from wall clock + a stack address so concurrent processes
        // (router + daemons on one host) mint disjoint id streams.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let marker = &NEXT as *const _ as u64;
        nanos ^ marker.rotate_left(32)
    });
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        // splitmix64 finaliser: well-mixed, bijective, so ids never collide
        // within a process.
        let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z != 0 {
            return z;
        }
    }
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A ring slot: a seqlock sequence word plus the span payload, all atomics
/// so the reader/writer race is data-race-free by construction.
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    name: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            name: AtomicU64::new(0),
            start_us: AtomicU64::new(0),
            dur_us: AtomicU64::new(0),
        }
    }
}

/// One thread's span ring. The owning thread is the only writer; any thread
/// may read (the debug endpoints and slow-tick capture).
struct Ring {
    slots: Vec<Slot>,
    head: AtomicU64,
}

impl Ring {
    fn new() -> Self {
        Self {
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Single-writer push (seqlock write protocol: odd = in progress).
    fn push(&self, trace: u64, span: u64, parent: u64, name_idx: u64, start_us: u64, dur_us: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % RING_CAPACITY as u64) as usize];
        slot.seq.store(h * 2 + 1, Ordering::Relaxed);
        fence(Ordering::Release); // payload writes become visible only after the odd mark
        slot.trace.store(trace, Ordering::Relaxed);
        slot.span.store(span, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.name.store(name_idx, Ordering::Relaxed);
        slot.start_us.store(start_us, Ordering::Relaxed);
        slot.dur_us.store(dur_us, Ordering::Relaxed);
        slot.seq.store(h * 2 + 2, Ordering::Release); // even = complete
        self.head.store(h + 1, Ordering::Release);
    }

    /// Seqlock read of every complete slot, filtered by trace id.
    fn collect_into(&self, trace: u64, names: &[&'static str], out: &mut Vec<SpanEvent>) {
        for slot in &self.slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let t = slot.trace.load(Ordering::Relaxed);
            let span = slot.span.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let name_idx = slot.name.load(Ordering::Relaxed);
            let start_us = slot.start_us.load(Ordering::Relaxed);
            let dur_us = slot.dur_us.load(Ordering::Relaxed);
            fence(Ordering::Acquire); // payload reads settle before the re-check
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn: the writer lapped us on this slot
            }
            if t != trace {
                continue;
            }
            let Some(name) = names.get(name_idx as usize) else {
                continue;
            };
            out.push(SpanEvent {
                trace: t,
                span,
                parent,
                name,
                start_us,
                dur_us,
            });
        }
    }
}

/// Global registry of every thread's ring (append-only; rings outlive their
/// threads so late readers still see recent spans).
fn rings() -> &'static Mutex<Vec<std::sync::Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<std::sync::Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn names_table() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

fn intern_name(name: &'static str) -> u64 {
    let mut names = names_table().lock().expect("span label table lock");
    if let Some(idx) = names.iter().position(|n| *n == name) {
        return idx as u64;
    }
    names.push(name);
    (names.len() - 1) as u64
}

thread_local! {
    static THREAD_RING: std::sync::Arc<Ring> = {
        let ring = std::sync::Arc::new(Ring::new());
        rings().lock().expect("span ring registry lock").push(std::sync::Arc::clone(&ring));
        ring
    };
}

/// Records a finished span with explicit timestamps and returns its span id.
/// No-op (returning 0) when `trace` is 0. Used to materialise stage timings
/// that were measured by code that does not itself speak tracing (e.g. the
/// engine's per-stage stopwatch).
pub fn record_span(trace: u64, parent: u64, name: &'static str, start_us: u64, dur_us: u64) -> u64 {
    if trace == 0 {
        return 0;
    }
    let span = next_span_id();
    let name_idx = intern_name(name);
    THREAD_RING.with(|ring| ring.push(trace, span, parent, name_idx, start_us, dur_us));
    span
}

/// Opens a span that records itself when dropped. When `trace` is 0 the
/// guard is inert (nothing is recorded and `id()` is 0).
pub fn span(trace: u64, parent: u64, name: &'static str) -> SpanGuard {
    SpanGuard {
        trace,
        parent,
        name,
        span: if trace == 0 { 0 } else { next_span_id() },
        start_us: if trace == 0 { 0 } else { now_us() },
    }
}

/// An open span; records itself into the current thread's ring on drop.
#[derive(Debug)]
pub struct SpanGuard {
    trace: u64,
    parent: u64,
    name: &'static str,
    span: u64,
    start_us: u64,
}

impl SpanGuard {
    /// This span's id, for parenting child spans (0 when untraced).
    pub fn id(&self) -> u64 {
        self.span
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.trace == 0 {
            return;
        }
        let end = now_us();
        let name_idx = intern_name(self.name);
        THREAD_RING.with(|ring| {
            ring.push(
                self.trace,
                self.span,
                self.parent,
                name_idx,
                self.start_us,
                end.saturating_sub(self.start_us),
            )
        });
    }
}

/// Materialises one span per non-zero stage of `timings` under `parent`,
/// back-dated so the stages abut and end "now" — an honest reconstruction
/// of sequentially-executed stages whose durations were measured in place.
pub fn record_stage_spans(trace: u64, parent: u64, timings: &crate::stage::StageTimings) {
    if trace == 0 {
        return;
    }
    let total: u64 = timings.as_array().iter().map(|(_, us)| *us).sum();
    let mut cursor = now_us().saturating_sub(total);
    for (name, us) in timings.as_array() {
        if us == 0 {
            continue;
        }
        record_span(trace, parent, name, cursor, us);
        cursor += us;
    }
}

/// Collects every span of `trace` across all thread rings, sorted by
/// `(start_us, span)`. Empty for trace 0 or an unknown trace.
pub fn collect_spans(trace: u64) -> Vec<SpanEvent> {
    if trace == 0 {
        return Vec::new();
    }
    let names: Vec<&'static str> = names_table().lock().expect("span label table lock").clone();
    let rings: Vec<std::sync::Arc<Ring>> = rings()
        .lock()
        .expect("span ring registry lock")
        .iter()
        .cloned()
        .collect();
    let mut out = Vec::new();
    for ring in rings {
        ring.collect_into(trace, &names, &mut out);
    }
    out.sort_by_key(|s| (s.start_us, s.span));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }

    #[test]
    fn guard_records_a_span_on_drop() {
        let trace = next_trace_id();
        {
            let root = span(trace, 0, "test.root");
            assert_ne!(root.id(), 0);
            let child = span(trace, root.id(), "test.child");
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(child);
        }
        let spans = collect_spans(trace);
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "test.child").unwrap();
        let root = spans.iter().find(|s| s.name == "test.root").unwrap();
        assert_eq!(child.parent, root.span);
        assert!(child.dur_us >= 1_000, "child slept 2ms: {}", child.dur_us);
        assert!(root.dur_us >= child.dur_us);
    }

    #[test]
    fn untraced_spans_are_inert() {
        let guard = span(0, 0, "inert");
        assert_eq!(guard.id(), 0);
        drop(guard);
        assert!(collect_spans(0).is_empty());
        assert_eq!(record_span(0, 0, "inert", 0, 1), 0);
    }

    #[test]
    fn spans_from_other_threads_are_collected() {
        let trace = next_trace_id();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    drop(span(trace, 0, "test.cross-thread"));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = collect_spans(trace);
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.name == "test.cross-thread"));
    }

    #[test]
    fn ring_wrap_keeps_the_most_recent_spans() {
        let old = next_trace_id();
        drop(span(old, 0, "test.wrapped-out"));
        let fresh = next_trace_id();
        for _ in 0..(RING_CAPACITY + 8) {
            record_span(fresh, 0, "test.filler", 0, 1);
        }
        // The old span was overwritten; the fresh trace survives (bounded).
        assert!(collect_spans(old).is_empty());
        let survivors = collect_spans(fresh);
        assert!(!survivors.is_empty());
        assert!(survivors.len() <= RING_CAPACITY);
    }

    #[test]
    fn stage_spans_abut_and_skip_zeros() {
        use crate::stage::StageTimings;
        let trace = next_trace_id();
        let timings = StageTimings {
            apply_us: 10,
            extract_us: 0,
            solve_us: 30,
            merge_us: 5,
            wal_append_us: 0,
            wal_fsync_us: 0,
        };
        record_stage_spans(trace, 7, &timings);
        let spans = collect_spans(trace);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["stage.apply", "stage.solve", "stage.merge"]);
        assert!(spans.iter().all(|s| s.parent == 7));
        assert_eq!(spans[0].start_us + spans[0].dur_us, spans[1].start_us);
    }
}

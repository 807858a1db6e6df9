//! Begin/end spans buffered per thread, exported as Chrome Trace Event JSON.
//!
//! The hot path is designed around two invariants:
//!
//! 1. **Disabled means free (almost).** [`span`] and [`span_with`] branch on
//!    one relaxed atomic load and return an inert guard when tracing is off —
//!    no clock read, no allocation, no buffer touch. [`timed_span`] always
//!    reads the clock because its caller wants the [`Duration`] back (report
//!    timing fields are derived from the same instants as the trace events,
//!    so the two can never disagree).
//! 2. **No cross-thread contention while recording.** Each thread owns an
//!    `Arc<ThreadBuffer>` registered once in a global list; pushing an event
//!    locks only that thread's own mutex, which no other thread touches until
//!    [`take_trace`] drains everything at the end of the run.
//!
//! Per-thread buffers are balanced and properly nested by construction: the
//! guard pushes `B` on creation and `E` on drop, and Rust's drop order
//! unwinds inner guards first. Timestamps are monotone per thread because
//! `Instant` is monotone and events are pushed in program order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

static TRACING: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Is span recording currently on? One relaxed load — cheap enough to guard
/// any instrumentation site.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turn span recording on or off. Enabling pins the trace epoch (timestamp
/// zero) the first time it happens in the process.
pub fn set_tracing(on: bool) {
    if on {
        epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Heap-allocation delta attributed to one span, attached to its `E` event
/// when allocation tracking ([`crate::set_alloc_tracking`]) was on at span
/// begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Bytes allocated *by the span's own thread* while the span was open
    /// (gross: frees are not subtracted).
    pub alloc_bytes: u64,
    /// How far the process-wide allocator high-water mark advanced while the
    /// span was open — the span's contribution to peak footprint.
    pub peak_delta: u64,
}

/// One Chrome Trace Event: phase `B` (begin) or `E` (end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: &'static str,
    /// `B` or `E`.
    pub phase: char,
    /// Microseconds since the trace epoch.
    pub ts_micros: u64,
    pub tid: u64,
    /// Free-form detail attached to the begin event (empty when absent).
    pub detail: String,
    /// Allocation delta attached to the end event (`None` when allocation
    /// tracking was off at span begin).
    pub alloc: Option<AllocDelta>,
}

struct ThreadBuffer {
    tid: u64,
    events: Mutex<Vec<TraceEvent>>,
}

fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadBuffer> = {
        let buf = Arc::new(ThreadBuffer {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        buffers().lock().unwrap().push(Arc::clone(&buf));
        buf
    };
}

fn push_event(
    name: &'static str,
    phase: char,
    at: Instant,
    detail: String,
    alloc: Option<AllocDelta>,
) {
    let ts_micros = at.saturating_duration_since(epoch()).as_micros() as u64;
    LOCAL.with(|buf| {
        buf.events.lock().unwrap().push(TraceEvent {
            name,
            phase,
            ts_micros,
            tid: buf.tid,
            detail,
            alloc,
        });
    });
}

/// Thread-alloc-bytes and global-peak marks taken at span begin, diffed at
/// span end into the [`AllocDelta`] attached to the `E` event.
#[derive(Clone, Copy)]
struct AllocMark {
    thread_alloc_bytes: u64,
    peak_bytes: u64,
}

fn alloc_mark() -> Option<AllocMark> {
    if !crate::alloc::alloc_tracking_enabled() {
        return None;
    }
    Some(AllocMark {
        thread_alloc_bytes: crate::alloc::thread_alloc_bytes(),
        peak_bytes: crate::alloc::alloc_peak_bytes(),
    })
}

/// RAII span guard: records `B` when created (if recording), `E` on drop.
///
/// The `E` event is emitted from `Drop`, so a span that unwinds out of a
/// panic still closes — the trace stays balanced on every path (asserted by
/// `panicking_span_still_yields_a_balanced_trace` below).
///
/// `start` is `Some` only for [`timed_span`], which always measures so that
/// [`SpanGuard::stop`] can hand the elapsed time back to report fields.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    recording: bool,
    alloc_mark: Option<AllocMark>,
}

impl SpanGuard {
    /// Finish the span and return its duration (zero unless created with
    /// [`timed_span`]). Consumes the guard; the `E` event is emitted here
    /// instead of in `Drop`.
    pub fn stop(mut self) -> Duration {
        let elapsed = self
            .start
            .map(|s| s.elapsed())
            .unwrap_or_else(|| Duration::from_secs(0));
        self.finish();
        elapsed
    }

    fn finish(&mut self) {
        if self.recording {
            self.recording = false;
            let alloc = self.alloc_mark.map(|mark| AllocDelta {
                alloc_bytes: crate::alloc::thread_alloc_bytes()
                    .saturating_sub(mark.thread_alloc_bytes),
                peak_delta: crate::alloc::alloc_peak_bytes().saturating_sub(mark.peak_bytes),
            });
            push_event(self.name, 'E', Instant::now(), String::new(), alloc);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Open a span. When tracing is off this is one atomic load and an inert
/// guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard {
            name,
            start: None,
            recording: false,
            alloc_mark: None,
        };
    }
    push_event(name, 'B', Instant::now(), String::new(), None);
    SpanGuard {
        name,
        start: None,
        recording: true,
        alloc_mark: alloc_mark(),
    }
}

/// Open a span with lazily-computed detail (attached to the begin event).
/// The closure runs only when tracing is on.
#[inline]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard {
            name,
            start: None,
            recording: false,
            alloc_mark: None,
        };
    }
    push_event(name, 'B', Instant::now(), detail(), None);
    SpanGuard {
        name,
        start: None,
        recording: true,
        alloc_mark: alloc_mark(),
    }
}

/// Open a span that *always* measures wall time, recording trace events only
/// when tracing is on. This is the bridge that unifies report `timing_ms`
/// fields with trace spans: both views derive from the same `Instant` pair.
#[inline]
pub fn timed_span(name: &'static str) -> SpanGuard {
    let now = Instant::now();
    let recording = tracing_enabled();
    if recording {
        push_event(name, 'B', now, String::new(), None);
    }
    SpanGuard {
        name,
        start: Some(now),
        recording,
        alloc_mark: if recording { alloc_mark() } else { None },
    }
}

/// A drained trace: every event recorded since the last [`take_trace`],
/// grouped per thread in recording order.
#[derive(Debug, Default)]
pub struct Trace {
    /// `(tid, events)` — events within one tid are in program order.
    pub threads: Vec<(u64, Vec<TraceEvent>)>,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|(_, ev)| ev.is_empty())
    }

    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|(_, ev)| ev.len()).sum()
    }

    /// Serialize as Chrome Trace Event Format, loadable by Perfetto and
    /// `chrome://tracing`. The category is the span-name prefix before the
    /// first `.` (e.g. `xmerge.index` → category `xmerge`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (_, events) in &self.threads {
            for ev in events {
                if !first {
                    out.push(',');
                }
                first = false;
                let cat = ev.name.split('.').next().unwrap_or(ev.name);
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                    json_escape(ev.name),
                    json_escape(cat),
                    ev.phase,
                    ev.ts_micros,
                    ev.tid
                ));
                match (&ev.alloc, ev.detail.is_empty()) {
                    (Some(a), _) => out.push_str(&format!(
                        ",\"args\":{{\"alloc_bytes\":{},\"peak_delta\":{}}}",
                        a.alloc_bytes, a.peak_delta
                    )),
                    (None, false) => out.push_str(&format!(
                        ",\"args\":{{\"detail\":\"{}\"}}",
                        json_escape(&ev.detail)
                    )),
                    (None, true) => {}
                }
                out.push('}');
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Drain every thread's span buffer into one [`Trace`]. Call after the
/// instrumented work is done (e.g. right before writing `--trace-out`);
/// spans still open on other threads will land in the next drain.
pub fn take_trace() -> Trace {
    let bufs = buffers().lock().unwrap();
    let mut threads: Vec<(u64, Vec<TraceEvent>)> = bufs
        .iter()
        .map(|b| (b.tid, std::mem::take(&mut *b.events.lock().unwrap())))
        .filter(|(_, ev)| !ev.is_empty())
        .collect();
    threads.sort_by_key(|(tid, _)| *tid);
    Trace { threads }
}

/// Escapes a string for inclusion in a JSON string literal: quotes,
/// backslashes and control characters are escaped, everything else
/// (non-ASCII included) passes through unchanged.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state and buffers are process-wide; serialize the tests.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing_and_cost_no_clock_read() {
        let _l = lock();
        set_tracing(false);
        let _ = take_trace();
        {
            let g = span("test.disabled");
            assert!(g.start.is_none());
        }
        let _ = span_with("test.disabled.detail", || panic!("must not run"));
        assert!(take_trace().is_empty());
    }

    #[test]
    fn timed_span_measures_even_when_disabled() {
        let _l = lock();
        set_tracing(false);
        let _ = take_trace();
        let g = timed_span("test.timed");
        std::thread::sleep(Duration::from_millis(2));
        let d = g.stop();
        assert!(d >= Duration::from_millis(1), "{d:?}");
        assert!(take_trace().is_empty());
    }

    #[test]
    fn enabled_spans_are_balanced_nested_and_monotone() {
        let _l = lock();
        set_tracing(true);
        let _ = take_trace();
        {
            let _a = span("test.outer");
            let _b = span_with("test.inner", || "detail".to_string());
        }
        set_tracing(false);
        let trace = take_trace();
        let my_events: Vec<_> = trace
            .threads
            .iter()
            .flat_map(|(_, ev)| ev.iter())
            .filter(|e| e.name.starts_with("test."))
            .collect();
        assert_eq!(my_events.len(), 4);
        // Drop order: inner E before outer E.
        let phases: Vec<(char, &str)> = my_events.iter().map(|e| (e.phase, e.name)).collect();
        assert_eq!(
            phases,
            vec![
                ('B', "test.outer"),
                ('B', "test.inner"),
                ('E', "test.inner"),
                ('E', "test.outer"),
            ]
        );
        let ts: Vec<u64> = my_events.iter().map(|e| e.ts_micros).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        assert_eq!(my_events[1].detail, "detail");
    }

    #[test]
    fn panicking_span_still_yields_a_balanced_trace() {
        let _l = lock();
        set_tracing(true);
        let _ = take_trace();
        let unwound = std::panic::catch_unwind(|| {
            let _outer = span("test.panic.outer");
            let _inner = timed_span("test.panic.inner");
            panic!("span unwinding");
        });
        assert!(unwound.is_err());
        set_tracing(false);
        let trace = take_trace();
        let phases: Vec<(char, &str)> = trace
            .threads
            .iter()
            .flat_map(|(_, ev)| ev.iter())
            .filter(|e| e.name.starts_with("test.panic."))
            .map(|e| (e.phase, e.name))
            .collect();
        // Drop order on unwind closes inner before outer: the trace stays
        // balanced and properly nested even though the scope panicked.
        assert_eq!(
            phases,
            vec![
                ('B', "test.panic.outer"),
                ('B', "test.panic.inner"),
                ('E', "test.panic.inner"),
                ('E', "test.panic.outer"),
            ]
        );
    }

    #[test]
    fn spans_attribute_thread_allocations_when_tracking_is_on() {
        let _l = lock();
        set_tracing(true);
        crate::alloc::set_alloc_tracking(true);
        let _ = take_trace();
        {
            let _g = span("test.alloc.span");
            let block: Vec<u8> = Vec::with_capacity(1 << 20);
            drop(block);
        }
        crate::alloc::set_alloc_tracking(false);
        set_tracing(false);
        let trace = take_trace();
        let end = trace
            .threads
            .iter()
            .flat_map(|(_, ev)| ev.iter())
            .find(|e| e.name == "test.alloc.span" && e.phase == 'E')
            .expect("span closed");
        let alloc = end.alloc.expect("alloc delta attached while tracking");
        assert!(
            alloc.alloc_bytes >= 1 << 20,
            "span under-attributed: {alloc:?}"
        );
        let json = trace.to_chrome_json();
        assert!(json.contains("\"alloc_bytes\":"), "{json}");
    }

    #[test]
    fn chrome_json_shape() {
        let _l = lock();
        set_tracing(true);
        let _ = take_trace();
        {
            let _g = span("test.json");
        }
        set_tracing(false);
        let json = take_trace().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"cat\":\"test\""), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{json}");
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_control_characters() {
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape("a\\b"), r"a\\b");
        assert_eq!(json_escape("a\nb\rc\td"), r"a\nb\rc\td");
        assert_eq!(json_escape("\u{1}"), r"\u0001");
        assert_eq!(json_escape("\u{1f}"), r"\u001f");
        assert_eq!(json_escape("größe→λ"), "größe→λ");
        assert_eq!(json_escape("plain.name-ok"), "plain.name-ok");
    }
}

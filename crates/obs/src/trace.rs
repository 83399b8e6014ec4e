//! Structured tracing: hierarchical spans with timestamps and key/value
//! fields, ring-buffered per thread, merged deterministically on
//! [`drain`].
//!
//! Each recording thread owns a bounded ring (events past the cap are
//! counted in [`Trace::dropped_events`], never silently lost). [`drain`]
//! collects every thread's ring and sorts the merged events by a
//! timestamp-free canonical key — `(signature, start, thread)` — so the
//! multiset of `(name, fields)` pairs, and therefore
//! [`Trace::stable_signature`], is reproducible run-to-run for a seeded
//! workload even though raw timestamps are not.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How much of the span hierarchy is recorded. Levels are cumulative:
/// `Task` includes everything `Phase` records, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Detail {
    /// Pipeline phases, protocol rounds and protocol events only
    /// (default). Volume is O(rounds × nodes).
    Phase = 1,
    /// Plus per-task runtime-pool spans and per-message network
    /// events. Volume is O(messages + spawned tasks).
    Task = 2,
    /// Plus per-kernel spans (gemm, row-wise). High volume.
    Kernel = 3,
}

/// One key/value field attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Conversion into a [`FieldValue`]; implemented for the primitive
/// types span call sites actually pass.
pub trait IntoField {
    fn into_field(self) -> FieldValue;
}

macro_rules! impl_into_field {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl IntoField for $t {
            #[inline]
            fn into_field(self) -> FieldValue {
                FieldValue::$variant(self as $cast)
            }
        }
    )*};
}

impl_into_field! {
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, u8 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64, f32 => F64 as f64,
}

impl IntoField for &str {
    #[inline]
    fn into_field(self) -> FieldValue {
        FieldValue::Str(self.to_string())
    }
}

impl IntoField for String {
    #[inline]
    fn into_field(self) -> FieldValue {
        FieldValue::Str(self)
    }
}

/// Whether a [`SpanEvent`] is a duration span or an instantaneous
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Span,
    Event,
}

/// One recorded span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"protocol.round"`.
    pub name: &'static str,
    pub kind: SpanKind,
    /// Fields in call-site order.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Recording-thread ordinal (first-use order; not stable across
    /// runs).
    pub thread: u32,
    /// Nesting depth on the recording thread when the span opened.
    pub depth: u16,
    /// Nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for [`SpanKind::Event`]).
    pub dur_ns: u64,
}

impl SpanEvent {
    /// Timestamp- and thread-free identity: `name{k=v,...}`. The unit
    /// of the determinism contract — the multiset of signatures in a
    /// drained trace is reproducible for a fixed seed and thread count.
    #[must_use]
    fn signature(&self) -> String {
        let mut s = String::with_capacity(self.name.len() + 16 * self.fields.len());
        s.push_str(self.name);
        s.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push('=');
            s.push_str(&v.to_string());
        }
        s.push('}');
        s
    }

    /// Looks up a field by key.
    #[must_use]
    fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Looks up an unsigned-integer field by key.
    #[must_use]
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }
}

/// A drained, canonically ordered collection of spans.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by `(signature, start_ns, thread, dur_ns)`.
    pub spans: Vec<SpanEvent>,
    /// Events discarded because a per-thread ring was full. Non-zero
    /// means the trace is incomplete (raise the ring capacity or lower
    /// the detail level) and its signature is no longer guaranteed
    /// stable across reruns.
    pub dropped_events: u64,
}

impl Trace {
    /// Number of spans/events with the given name.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|e| e.name == name).count()
    }

    /// Iterator over spans/events with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEvent> {
        self.spans.iter().filter(move |e| e.name == name)
    }

    /// Absorbs another drained trace into this one: spans are combined
    /// and re-sorted into the canonical `(signature, start, thread,
    /// duration)` order, and dropped-event counts are summed. Used by
    /// callers that receive a partial trace from a subsystem (e.g.
    /// `ProtocolOutcome`) and drain the remainder themselves.
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        self.dropped_events += other.dropped_events;
        self.spans
            .sort_by_cached_key(|e| (e.signature(), e.start_ns, e.thread, e.dur_ns));
    }

    /// Newline-joined sorted signatures of every span — the
    /// deterministic fingerprint of a trace. Two runs of the same
    /// seeded workload at the same thread count must produce equal
    /// stable signatures (given `dropped_events == 0` and no
    /// sampling).
    #[must_use]
    pub fn stable_signature(&self) -> String {
        let mut sigs: Vec<String> = self.spans.iter().map(SpanEvent::signature).collect();
        sigs.sort_unstable();
        sigs.join("\n")
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicU8 = AtomicU8::new(Detail::Phase as u8);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(1 << 16);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Ring {
    events: Vec<SpanEvent>,
    dropped: u64,
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct Tls {
    ring: Arc<Mutex<Ring>>,
    depth: Cell<u16>,
    thread: u32,
}

impl Tls {
    fn new() -> Self {
        let ring = Arc::new(Mutex::new(Ring {
            events: Vec::new(),
            dropped: 0,
        }));
        registry().lock().unwrap().push(Arc::clone(&ring));
        Tls {
            ring,
            depth: Cell::new(0),
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        }
    }
}

thread_local! {
    static TLS: Tls = Tls::new();
}

fn push(event: SpanEvent) {
    TLS.with(|t| {
        let mut ring = t.ring.lock().unwrap();
        if ring.events.len() >= RING_CAPACITY.load(Ordering::Relaxed) {
            ring.dropped += 1;
        } else {
            ring.events.push(event);
        }
    });
}

/// Turns recording on or off — the one switch of every span, event,
/// timer and metric in the workspace.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin the epoch before the first span
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// `true` iff runtime recording is on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// `true` iff runtime recording is on at the given detail level.
#[inline(always)]
pub fn enabled_at(detail: Detail) -> bool {
    enabled() && detail as u8 <= DETAIL.load(Ordering::Relaxed)
}

/// Sets the recorded [`Detail`] level (default: [`Detail::Phase`]).
pub fn set_detail(detail: Detail) {
    DETAIL.store(detail as u8, Ordering::SeqCst);
}

/// Sets the per-thread ring capacity applied to future pushes.
pub fn set_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(1), Ordering::SeqCst);
}

/// Collects every thread's ring into one canonically sorted
/// [`Trace`], leaving all rings empty. Rings of threads that have
/// since exited are drained and unregistered.
pub fn drain() -> Trace {
    let mut spans = Vec::new();
    let mut dropped = 0;
    registry().lock().unwrap().retain(|ring| {
        let alive;
        {
            let mut r = ring.lock().unwrap();
            spans.append(&mut r.events);
            dropped += std::mem::take(&mut r.dropped);
            alive = Arc::strong_count(ring) > 1;
        }
        alive
    });
    spans.sort_by_cached_key(|e| (e.signature(), e.start_ns, e.thread, e.dur_ns));
    Trace {
        spans,
        dropped_events: dropped,
    }
}

struct Open {
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    depth: u16,
    start_ns: u64,
}

/// Guard for an open span; records the span when dropped. Created
/// by the [`crate::span!`] macro.
#[must_use = "a span guard records its span when dropped"]
#[derive(Default)]
pub struct SpanGuard {
    open: Option<Open>,
}

impl SpanGuard {
    /// Opens a span now. Callers should go through [`crate::span!`],
    /// which performs the enabled checks first.
    pub fn begin(name: &'static str) -> SpanGuard {
        let depth = TLS.with(|t| {
            let d = t.depth.get();
            t.depth.set(d.saturating_add(1));
            d
        });
        SpanGuard {
            open: Some(Open {
                name,
                fields: Vec::new(),
                depth,
                start_ns: now_ns(),
            }),
        }
    }

    /// A guard that records nothing.
    pub fn disabled() -> SpanGuard {
        SpanGuard { open: None }
    }

    /// Attaches a field (call-site order is preserved).
    pub fn with(mut self, key: &'static str, value: impl IntoField) -> Self {
        if let Some(open) = &mut self.open {
            open.fields.push((key, value.into_field()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end = now_ns();
            TLS.with(|t| t.depth.set(t.depth.get().saturating_sub(1)));
            push(SpanEvent {
                name: open.name,
                kind: SpanKind::Span,
                fields: open.fields,
                thread: TLS.with(|t| t.thread),
                depth: open.depth,
                start_ns: open.start_ns,
                dur_ns: end.saturating_sub(open.start_ns),
            });
        }
    }
}

/// Builder for an instantaneous event. Created by the
/// [`crate::event!`] macro.
#[must_use = "call .emit() to record the event"]
pub struct EventBuilder {
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

impl EventBuilder {
    pub fn begin(name: &'static str) -> EventBuilder {
        EventBuilder {
            name,
            fields: Vec::new(),
        }
    }

    pub fn with(mut self, key: &'static str, value: impl IntoField) -> Self {
        self.fields.push((key, value.into_field()));
        self
    }

    /// Records the event at the current depth with zero duration.
    pub fn emit(self) {
        let (thread, depth) = TLS.with(|t| (t.thread, t.depth.get()));
        push(SpanEvent {
            name: self.name,
            kind: SpanKind::Event,
            fields: self.fields,
            thread,
            depth,
            start_ns: now_ns(),
            dur_ns: 0,
        });
    }
}

struct TimerOpen {
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    depth: u16,
    start_ns: u64,
    trace: bool,
}

/// Guard that feeds a duration histogram (and, at
/// [`Detail::Kernel`], a span) when dropped. Created by the
/// [`crate::timer!`] macro.
#[must_use = "a timer guard observes its duration when dropped"]
#[derive(Default)]
pub struct TimerGuard {
    open: Option<TimerOpen>,
}

impl TimerGuard {
    pub fn begin(name: &'static str) -> TimerGuard {
        let trace = enabled_at(Detail::Kernel);
        let depth = if trace {
            TLS.with(|t| {
                let d = t.depth.get();
                t.depth.set(d.saturating_add(1));
                d
            })
        } else {
            0
        };
        TimerGuard {
            open: Some(TimerOpen {
                name,
                fields: Vec::new(),
                depth,
                start_ns: now_ns(),
                trace,
            }),
        }
    }

    pub fn disabled() -> TimerGuard {
        TimerGuard { open: None }
    }

    /// Attaches a field to the kernel span. No-op (and no
    /// allocation) unless kernel-level tracing is active.
    pub fn with(mut self, key: &'static str, value: impl IntoField) -> Self {
        if let Some(open) = &mut self.open {
            if open.trace {
                open.fields.push((key, value.into_field()));
            }
        }
        self
    }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end = now_ns();
            let dur_ns = end.saturating_sub(open.start_ns);
            crate::metrics::observe_us(open.name, dur_ns as f64 / 1_000.0);
            if open.trace {
                TLS.with(|t| t.depth.set(t.depth.get().saturating_sub(1)));
                push(SpanEvent {
                    name: open.name,
                    kind: SpanKind::Span,
                    fields: open.fields,
                    thread: TLS.with(|t| t.thread),
                    depth: open.depth,
                    start_ns: open.start_ns,
                    dur_ns,
                });
            }
        }
    }
}

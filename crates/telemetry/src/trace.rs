//! Span tracer: fixed-capacity per-device ring buffers of
//! [`SpanEvent`]s behind one lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tulkun_netmodel::topology::DeviceId;

/// One recorded span (or instantaneous event when `dur == 0`).
///
/// `begin` is a monotonic tick in nanoseconds — host-monotonic time
/// since the owning [`crate::Telemetry`] handle was created, one
/// coherent timeline across every device and thread of a run. The
/// substrate's own clock reading (virtual time under `Engine`) rides
/// along in `aux` where relevant, so traces can be re-keyed offline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Device the span belongs to (exported as the Chrome-trace tid).
    pub device: DeviceId,
    /// Static span name, e.g. `"dvm.update"` or `"lec.delta"`.
    pub name: &'static str,
    /// Static category, e.g. `"dvm"`, `"fault"`, `"init"`.
    pub cat: &'static str,
    /// Begin tick in nanoseconds (see type docs).
    pub begin: u64,
    /// Duration in nanoseconds; 0 marks an instantaneous event.
    pub dur: u64,
    /// Causal trace id threaded through `Envelope`; 0 = untraced.
    pub trace: u64,
    /// Auxiliary word: virtual-clock tick, fence epoch, or 0.
    pub aux: u64,
}

/// Fixed-capacity ring of spans for one device.
#[derive(Debug)]
struct Ring {
    events: Vec<SpanEvent>,
    cap: usize,
    /// Next overwrite position once full.
    head: usize,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            events: Vec::new(),
            cap,
            head: 0,
        }
    }

    /// Push, overwriting the oldest event when full. Returns whether
    /// an event was dropped.
    fn push(&mut self, ev: SpanEvent) -> bool {
        if self.events.len() < self.cap {
            self.events.push(ev);
            false
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            true
        }
    }

    /// Events in recording order (oldest first).
    fn ordered(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

const POISONED: &str = "no thread panics while holding the tracer lock";

/// The span sink; see [`crate::Telemetry`] for the recording API.
#[derive(Debug)]
pub(crate) struct Tracer {
    /// Device index → its ring.
    rings: Mutex<BTreeMap<u32, Ring>>,
    ring_capacity: usize,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer whose per-device rings hold `ring_capacity` spans; 0
    /// records none.
    pub(crate) fn new(ring_capacity: usize) -> Tracer {
        Tracer {
            rings: Mutex::new(BTreeMap::new()),
            ring_capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Record one span into its device's ring.
    pub(crate) fn record(&self, ev: SpanEvent) {
        if self.ring_capacity == 0 {
            return;
        }
        let mut rings = self.rings.lock().expect(POISONED);
        let ring = rings
            .entry(ev.device.0)
            .or_insert_with(|| Ring::new(self.ring_capacity));
        if ring.push(ev) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans overwritten because a ring filled up.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// All spans, sorted by `(begin, device, name)` so equal
    /// recordings snapshot to equal vectors.
    pub(crate) fn snapshot(&self) -> Vec<SpanEvent> {
        let rings = self.rings.lock().expect(POISONED);
        let mut out: Vec<SpanEvent> = rings.values().flat_map(Ring::ordered).collect();
        out.sort_by(|a, b| {
            (a.begin, a.device.0, a.name, a.dur, a.trace)
                .cmp(&(b.begin, b.device.0, b.name, b.dur, b.trace))
        });
        out
    }
}

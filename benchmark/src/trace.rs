//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! recorder's epoch), the id of the span that caused it, and a group id
//! shared by every span of one cell or job. Spans stay in memory and are
//! written out once, when the run ends. With tracing off, [`Tracer::open`]
//! returns `None` and nothing is recorded.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Cell or job the span belongs to.
    pub group: u64,
    /// Layer call the span covers (`stream.build`, `sim.replay`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    group: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// Id of this span, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The recorder. Shared by reference across client threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    // lock:rank(90, benchmark.trace.spans)
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            // det:boundary — span epoch; spans measure host time only.
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name` in `group`, nested under `parent`.
    pub fn open(&self, name: &'static str, group: u64, parent: Option<&Open>) -> Option<Open> {
        if !self.on {
            return None;
        }
        Some(Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.map_or(0, Open::id),
            group,
            name,
            // det:boundary — span start, host time of a layer call.
            start: Instant::now(),
        })
    }

    /// Closes a span opened by [`Tracer::open`]; returns its duration
    /// in milliseconds (0 with tracing off).
    pub fn close(&self, open: Option<Open>) -> f64 {
        let Some(o) = open else { return 0.0 };
        // det:boundary — span end, host time of a layer call.
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: o.id,
            parent: o.parent,
            group: o.group,
            name: o.name,
            start_ns: ns(o.start),
            end_ns: ns(end),
        };
        let ms = span.dur_ns() as f64 / 1e6;
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking client thread")
            .push(span);
        ms
    }

    /// Every recorded span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking client thread")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// child time outside the parent's interval is ignored).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Writes the spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut s = String::with_capacity(spans.len() * 96);
    for sp in spans {
        s.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"group\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}\n",
            sp.id,
            sp.parent,
            sp.group,
            sp.name,
            sp.start_ns,
            sp.end_ns,
            selfs.get(&sp.id).copied().unwrap_or(0)
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 7,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Overlapping children [10,30] and [20,50] cover 40 ns once.
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            // A disjoint child covers 10 more.
            span(4, 1, 60, 70),
            // A grandchild inside span 2 does not reduce span 1 again.
            span(5, 2, 12, 18),
            // A child sticking out of its parent counts only inside it.
            span(6, 4, 65, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 6);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10 - 5);
        assert_eq!(selfs[&5], 6);
        assert_eq!(selfs[&6], 25);
    }

    #[test]
    fn a_child_covering_its_parent_leaves_zero_self_time() {
        let spans = vec![span(1, 0, 10, 20), span(2, 1, 0, 30)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn recorder_nests_and_groups_spans() {
        let t = Tracer::new(true);
        let outer = t.open("outer", 3, None);
        let inner = t.open("inner", 3, outer.as_ref());
        t.close(inner);
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.group == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let sum = summarize(&spans);
        assert_eq!(sum["inner"].0, 1);
        assert!(to_jsonl(&spans).lines().count() == 2);

        let off = Tracer::new(false);
        assert!(off.open("x", 0, None).is_none());
        assert!(off.spans().is_empty());
    }
}

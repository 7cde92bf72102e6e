//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced run wraps every public call in a span — name, start, end,
//! the span that caused it, and the trace id shared by all spans of one
//! transaction. Spans stay in memory until the run ends and are then
//! written as one JSON object per line. End-to-end numbers never come
//! from a traced run; an untraced run passes [`Tracer::off`], whose
//! spans cost one branch.

use crate::sys::now_us;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const POISON: &str = "tracer mutex poisoned by a panicking workload thread";

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_us: i64,
    pub end_us: i64,
}

pub struct Tracer {
    on: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Root span of each trace, so a consumer on another thread can
    /// hang a reaction under the transaction that caused it.
    roots: Mutex<HashMap<u64, u64>>,
}

/// An open span; closing it records it.
pub struct Open<'a> {
    tracer: &'a Tracer,
    span: Option<Span>,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            roots: Mutex::new(HashMap::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span now. `parent` is the id of the causing span (0 for a
    /// root).
    pub fn open(&self, trace: u64, parent: u64, name: &'static str) -> Open<'_> {
        let span = self.on.then(|| {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            if parent == 0 {
                self.roots.lock().expect(POISON).insert(trace, id);
            }
            Span {
                trace,
                id,
                parent,
                name,
                start_us: now_us(),
                end_us: 0,
            }
        });
        Open { tracer: self, span }
    }

    /// Record a reaction: the generator stamped `start_us` into the row
    /// it wrote, the consumer closes the span on receipt. Its parent is
    /// the root span of the transaction that caused it.
    pub fn reaction(&self, trace: u64, name: &'static str, start_us: i64, end_us: i64) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let parent = self
                .roots
                .lock()
                .expect(POISON)
                .get(&trace)
                .copied()
                .unwrap_or(0);
            self.push(Span {
                trace,
                id,
                parent,
                name,
                start_us,
                end_us,
            });
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect(POISON).push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect(POISON).clone()
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            s.trace, s.id, s.parent, s.name, s.start_us, s.end_us
        )?;
    }
    out.flush()
}

impl Open<'_> {
    /// Id to pass as `parent` to child spans (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.span.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if let Some(mut s) = self.span.take() {
            s.end_us = now_us();
            self.tracer.push(s);
        }
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed *self* time — duration minus the part covered by child spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: i64,
    pub self_us: i64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_cover: BTreeMap<u64, i64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            // Only the part of the child inside the parent's interval
            // counts: a reaction outlives the transaction that caused it.
            let covered = s.end_us.min(p.end_us) - s.start_us.max(p.start_us);
            *child_cover.entry(p.id).or_default() += covered.max(0);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let dur = s.end_us - s.start_us;
        t.count += 1;
        t.total_us += dur;
        t.self_us += (dur - child_cover.get(&s.id).copied().unwrap_or(0)).max(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_clipped_to_the_parent() {
        let spans = vec![
            Span {
                trace: 1,
                id: 1,
                parent: 0,
                name: "txn",
                start_us: 0,
                end_us: 100,
            },
            Span {
                trace: 1,
                id: 2,
                parent: 1,
                name: "net.update",
                start_us: 10,
                end_us: 40,
            },
            Span {
                trace: 1,
                id: 3,
                parent: 1,
                name: "react",
                start_us: 50,
                end_us: 400,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["txn"],
            NameTotals {
                count: 1,
                total_us: 100,
                self_us: 20
            }
        );
        assert_eq!(t["net.update"].self_us, 30);
        assert_eq!(t["react"].total_us, 350);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        {
            let root = t.open(1, 0, "txn");
            let _child = t.open(1, root.id(), "x");
        }
        t.reaction(1, "react", 0, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_reaction_hangs_under_the_root_of_its_trace() {
        let t = Tracer::on();
        let root = t.open(42, 0, "txn");
        t.reaction(42, "react", 0, 5);
        let root_id = root.id();
        drop(root);
        let react = t.spans().into_iter().find(|s| s.name == "react").unwrap();
        assert_eq!((react.trace, react.parent), (42, root_id));
    }
}

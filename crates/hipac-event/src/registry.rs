//! The event detector registry (§5.3).
//!
//! One registry instance stands for the collection of Event Detectors:
//! the database-operation detector (fed by the Object Manager and the
//! Transaction Manager), the temporal detector (a timer queue over the
//! database clock) and the external-notification detector (fed by
//! applications through *signal event*).
//!
//! Its interface is the paper's: *define event*, *delete event*,
//! *enable event*, *disable event*; occurrences are reported to the
//! registered [`SignalSink`]s — in the full system, the Rule Manager's
//! single *signal event* operation (§5.4). Sink errors propagate to the
//! signalling operation, which is what lets an immediate-coupled
//! constraint rule abort the triggering operation.

use crate::automaton::{Automaton, LeafSub, TimerRequest};
use crate::signal::{DbEventData, EventSignal};
use crate::spec::{DbEventKind, EventSpec, TemporalSpec};
use hipac_common::id::IdAllocator;
use hipac_common::{Clock, EventId, HipacError, IdMap, Result, Timestamp, TxnId, Value};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Receiver of event occurrences (the Rule Manager).
pub trait SignalSink: Send + Sync {
    /// An event fired. The error return lets the sink veto the
    /// triggering operation (immediate rules enforcing constraints).
    fn signal(&self, event: EventId, signal: &EventSignal) -> Result<()>;

    /// [`SignalSink::signal`], handed the registry's shared signal: a
    /// sink that keeps the signal beyond the call holds this one
    /// instead of copying it.
    fn signal_shared(&self, event: EventId, signal: &Arc<EventSignal>) -> Result<()> {
        self.signal(event, signal)
    }
}

struct EventDef {
    name: Option<String>,
    spec: EventSpec,
    auto: Automaton,
    /// The automaton's leaf subscriptions, listed once at definition:
    /// detection walks them on every occurrence.
    subs: Box<[LeafSub]>,
    enabled: bool,
    /// Formal parameter names for externally-defined events.
    formals: Vec<String>,
}

#[derive(PartialEq, Eq)]
struct TimerEntry {
    due: Timestamp,
    seq: u64,
    event: EventId,
    node: usize,
    period: Option<u64>,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Inner {
    defs: IdMap<EventId, EventDef>,
    /// Per database event kind, the definitions with a leaf of it.
    db_kinds: [usize; DB_KINDS],
    by_name: HashMap<String, EventId>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
}

/// Number of [`DbEventKind`]s.
const DB_KINDS: usize = 8;

impl Inner {
    fn insert(&mut self, id: EventId, def: EventDef) {
        for kind in db_kinds_of(&def.subs) {
            self.db_kinds[kind as usize] += 1;
        }
        self.defs.insert(id, def);
    }

    fn remove(&mut self, id: EventId) -> Option<EventDef> {
        let def = self.defs.remove(&id)?;
        for kind in db_kinds_of(&def.subs) {
            self.db_kinds[kind as usize] -= 1;
        }
        Some(def)
    }
}

/// The database event kinds `subs` has a leaf of, each once.
fn db_kinds_of(subs: &[LeafSub]) -> impl Iterator<Item = DbEventKind> + '_ {
    subs.iter()
        .enumerate()
        .filter_map(move |(i, sub)| match sub {
            LeafSub::Db { kind, .. }
                if !subs[..i]
                    .iter()
                    .any(|s| matches!(s, LeafSub::Db { kind: k, .. } if k == kind)) =>
            {
                Some(*kind)
            }
            _ => None,
        })
}

/// The registry of defined events and their detectors.
pub struct EventRegistry {
    clock: Arc<dyn Clock>,
    ids: IdAllocator,
    inner: Mutex<Inner>,
    /// Replaced, not edited, on registration: a dispatch holds the
    /// list by reference count, not under the lock.
    sinks: RwLock<Arc<[Arc<dyn SignalSink>]>>,
}

impl EventRegistry {
    /// Create a registry over `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        EventRegistry {
            clock,
            ids: IdAllocator::new(1),
            inner: Mutex::new(Inner {
                defs: IdMap::default(),
                db_kinds: [0; DB_KINDS],
                by_name: HashMap::new(),
                timers: BinaryHeap::new(),
                timer_seq: 0,
            }),
            sinks: RwLock::new(Arc::new([])),
        }
    }

    /// The database clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Register an occurrence sink (the Rule Manager).
    pub fn register_sink(&self, sink: Arc<dyn SignalSink>) {
        let mut sinks = self.sinks.write();
        *sinks = sinks.iter().cloned().chain([sink]).collect();
    }

    /// Define an application-specific event with formal parameters
    /// (§4.1 *define*). The event can then be referenced by name in
    /// rule event specifications and raised with
    /// [`EventRegistry::signal_external`].
    pub fn define_external(&self, name: &str, formals: Vec<String>) -> Result<EventId> {
        let mut inner = self.inner.lock();
        if inner.by_name.contains_key(name) {
            return Err(HipacError::DuplicateName(format!("event {name}")));
        }
        let id = EventId(self.ids.alloc());
        let spec = EventSpec::External {
            name: name.to_owned(),
        };
        let auto = Automaton::compile(&spec);
        inner.insert(
            id,
            EventDef {
                name: Some(name.to_owned()),
                subs: auto.subscriptions().into(),
                auto,
                spec,
                enabled: true,
                formals,
            },
        );
        inner.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Define an event from a specification (§5.3 *define event*; the
    /// Rule Manager calls this when a rule is created). External leaves
    /// must reference events previously defined with
    /// [`EventRegistry::define_external`].
    pub fn define_event(&self, spec: EventSpec) -> Result<EventId> {
        let mut inner = self.inner.lock();
        for name in spec.external_refs() {
            if !inner.by_name.contains_key(&name) {
                return Err(HipacError::UnknownEvent(name));
            }
        }
        let id = EventId(self.ids.alloc());
        let auto = Automaton::compile(&spec);
        let subs: Box<[LeafSub]> = auto.subscriptions().into();
        let now = self.clock.now();
        for sub in subs.iter() {
            if let LeafSub::Timer { idx, spec } = sub {
                Self::arm_timer(&mut inner, id, *idx, spec, now);
            }
        }
        inner.insert(
            id,
            EventDef {
                name: None,
                subs,
                auto,
                spec,
                enabled: true,
                formals: Vec::new(),
            },
        );
        Ok(id)
    }

    fn arm_timer(
        inner: &mut Inner,
        event: EventId,
        node: usize,
        spec: &TemporalSpec,
        now: Timestamp,
    ) {
        let (due, period) = match spec {
            TemporalSpec::Absolute { at } => (*at, None),
            TemporalSpec::Periodic { period, start } => {
                (start.unwrap_or(now).saturating_add(*period), Some(*period))
            }
            TemporalSpec::Relative { .. } => return, // armed by baseline firings
        };
        inner.timer_seq += 1;
        let seq = inner.timer_seq;
        inner.timers.push(Reverse(TimerEntry {
            due,
            seq,
            event,
            node,
            period,
        }));
    }

    /// Delete a defined event (§5.3 *delete event*).
    pub fn delete_event(&self, id: EventId) -> Result<()> {
        let mut inner = self.inner.lock();
        let def = inner
            .remove(id)
            .ok_or_else(|| HipacError::UnknownEvent(id.to_string()))?;
        if let Some(name) = def.name {
            inner.by_name.remove(&name);
        }
        // Stale timer entries are skipped at poll time.
        Ok(())
    }

    /// Suspend detection of `id` (§5.3 *disable event*). Detection
    /// state is discarded.
    pub fn disable_event(&self, id: EventId) -> Result<()> {
        let mut inner = self.inner.lock();
        let def = inner
            .defs
            .get_mut(&id)
            .ok_or_else(|| HipacError::UnknownEvent(id.to_string()))?;
        def.enabled = false;
        def.auto.reset();
        Ok(())
    }

    /// Resume detection of `id` (§5.3 *enable event*). Absolute timers
    /// still in the future and periodic timers are re-armed.
    pub fn enable_event(&self, id: EventId) -> Result<()> {
        let mut inner = self.inner.lock();
        let now = self.clock.now();
        let def = inner
            .defs
            .get_mut(&id)
            .ok_or_else(|| HipacError::UnknownEvent(id.to_string()))?;
        if def.enabled {
            return Ok(());
        }
        def.enabled = true;
        let subs = def.subs.clone();
        for sub in subs.into_vec() {
            if let LeafSub::Timer { idx, spec } = sub {
                match &spec {
                    TemporalSpec::Absolute { at } if *at <= now => {}
                    TemporalSpec::Periodic { .. } => {
                        // Restart the cadence from now.
                        Self::arm_timer(
                            &mut inner,
                            id,
                            idx,
                            &TemporalSpec::Periodic {
                                period: match spec {
                                    TemporalSpec::Periodic { period, .. } => period,
                                    _ => unreachable!(),
                                },
                                start: Some(now),
                            },
                            now,
                        );
                    }
                    _ => Self::arm_timer(&mut inner, id, idx, &spec, now),
                }
            }
        }
        Ok(())
    }

    /// Is `id` currently enabled?
    pub fn is_enabled(&self, id: EventId) -> Result<bool> {
        self.inner
            .lock()
            .defs
            .get(&id)
            .map(|d| d.enabled)
            .ok_or_else(|| HipacError::UnknownEvent(id.to_string()))
    }

    /// The specification of a defined event (diagnostics and tests).
    pub fn spec_of(&self, id: EventId) -> Result<EventSpec> {
        self.inner
            .lock()
            .defs
            .get(&id)
            .map(|d| d.spec.clone())
            .ok_or_else(|| HipacError::UnknownEvent(id.to_string()))
    }

    /// Resolve an external event's id by name.
    pub fn external_id(&self, name: &str) -> Result<EventId> {
        self.inner
            .lock()
            .by_name
            .get(name)
            .copied()
            .ok_or_else(|| HipacError::UnknownEvent(name.to_owned()))
    }

    /// Number of defined events.
    pub fn len(&self) -> usize {
        self.inner.lock().defs.len()
    }

    /// Would a database operation of `kind` on a class whose lineage
    /// `in_lineage` tests reach some enabled event's leaf? A detector
    /// asks first and builds its report ([`EventRegistry::report_db`])
    /// only when it would.
    pub fn watches_db(&self, kind: DbEventKind, in_lineage: impl Fn(&str) -> bool) -> bool {
        let inner = self.inner.lock();
        inner.db_kinds[kind as usize] > 0
            && inner.defs.values().any(|def| {
                def.enabled
                    && def.subs.iter().any(|sub| {
                        matches!(sub, LeafSub::Db { kind: k, class, .. }
                            if *k == kind && class.as_deref().map_or(true, &in_lineage))
                    })
            })
    }

    /// True when no events are defined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ------------------------------------------------------------------
    // Occurrence reporting
    // ------------------------------------------------------------------

    /// Report a database operation (called by the Object Manager's and
    /// Transaction Manager's detectors).
    pub fn report_db(&self, txn: Option<TxnId>, data: DbEventData) -> Result<()> {
        let mut params = HashMap::new();
        if let Some(first) = data.class_lineage.first() {
            params.insert("class".to_owned(), Value::Str(first.clone()));
        }
        if let Some(oid) = data.oid {
            params.insert("oid".to_owned(), Value::Ref(oid));
        }
        let data = Arc::new(data);
        let signal = EventSignal {
            time: self.clock.now(),
            txn,
            params,
            db: Some(Arc::clone(&data)),
        };
        let fired = self.detect(&signal, |sub| match sub {
            LeafSub::Db { idx, kind, class } => {
                let class_ok = match class {
                    None => true,
                    Some(c) => data.class_lineage.iter().any(|l| l == c),
                };
                (*kind == data.kind && class_ok).then_some(*idx)
            }
            _ => None,
        });
        self.dispatch(fired)
    }

    /// Inject `signal` into every enabled definition at the leaves
    /// `target` selects, queueing the timers that arms; the events that
    /// fired, with their merged signals.
    fn detect(
        &self,
        signal: &EventSignal,
        target: impl Fn(&LeafSub) -> Option<usize>,
    ) -> Vec<(EventId, EventSignal)> {
        let mut inner = self.inner.lock();
        let mut fired = Vec::new();
        let mut armed = Vec::new();
        for (&id, def) in inner.defs.iter_mut() {
            if !def.enabled {
                continue;
            }
            let targets: Vec<usize> = def.subs.iter().filter_map(&target).collect();
            if targets.is_empty() {
                continue;
            }
            let mut timers = Vec::new();
            if let Some(out) = def.auto.inject(&targets, signal, &mut timers) {
                fired.push((id, out));
            }
            if !timers.is_empty() {
                armed.push((id, timers));
            }
        }
        for (id, timers) in armed {
            Self::queue_timers(&mut inner, id, timers);
        }
        fired
    }

    /// Raise an application-defined event (§4.1 *signal*). `args` must
    /// bind exactly the formal parameters declared at definition.
    pub fn signal_external(
        &self,
        name: &str,
        args: HashMap<String, Value>,
        txn: Option<TxnId>,
    ) -> Result<()> {
        let signal = {
            let inner = self.inner.lock();
            let base_id = *inner
                .by_name
                .get(name)
                .ok_or_else(|| HipacError::UnknownEvent(name.to_owned()))?;
            let formals = inner.defs[&base_id].formals.clone();
            for f in &formals {
                if !args.contains_key(f) {
                    return Err(HipacError::EventParamMismatch(format!(
                        "missing argument {f} for event {name}"
                    )));
                }
            }
            for k in args.keys() {
                if !formals.contains(k) {
                    return Err(HipacError::EventParamMismatch(format!(
                        "unknown argument {k} for event {name}"
                    )));
                }
            }
            EventSignal {
                time: self.clock.now(),
                txn,
                params: args,
                db: None,
            }
        };
        let fired = self.detect(&signal, |sub| match sub {
            LeafSub::External { idx, name: n } if n == name => Some(*idx),
            _ => None,
        });
        self.dispatch(fired)
    }

    /// Fire all due temporal events. Call after advancing a virtual
    /// clock, or periodically from a timer thread under a system clock.
    pub fn poll_temporal(&self) -> Result<()> {
        let now = self.clock.now();
        let fired = {
            let mut inner = self.inner.lock();
            let mut fired = Vec::new();
            loop {
                match inner.timers.peek() {
                    Some(Reverse(e)) if e.due <= now => {}
                    _ => break,
                }
                let Reverse(entry) = inner.timers.pop().expect("peeked");
                let Some(def) = inner.defs.get_mut(&entry.event) else {
                    continue; // deleted event: stale timer
                };
                if def.enabled {
                    let signal = EventSignal::at(entry.due);
                    let mut timers = Vec::new();
                    if let Some(out) = def.auto.inject(&[entry.node], &signal, &mut timers) {
                        fired.push((entry.event, out));
                    }
                    Self::queue_timers(&mut inner, entry.event, timers);
                }
                if let Some(period) = entry.period {
                    // Re-arm even while disabled so cadence survives
                    // disable/enable? No — enable re-arms explicitly;
                    // only re-arm when enabled.
                    if inner.defs.get(&entry.event).is_some_and(|d| d.enabled) {
                        inner.timer_seq += 1;
                        let seq = inner.timer_seq;
                        inner.timers.push(Reverse(TimerEntry {
                            due: entry.due.saturating_add(period),
                            seq,
                            event: entry.event,
                            node: entry.node,
                            period: Some(period),
                        }));
                    }
                }
            }
            fired
        };
        self.dispatch(fired)
    }

    fn queue_timers(inner: &mut Inner, event: EventId, timers: Vec<TimerRequest>) {
        for t in timers {
            inner.timer_seq += 1;
            let seq = inner.timer_seq;
            inner.timers.push(Reverse(TimerEntry {
                due: t.due,
                seq,
                event,
                node: t.node,
                period: t.period,
            }));
        }
    }

    fn dispatch(&self, mut fired: Vec<(EventId, EventSignal)>) -> Result<()> {
        if fired.is_empty() {
            return Ok(());
        }
        fired.sort_by_key(|(id, _)| *id);
        let sinks = Arc::clone(&self.sinks.read());
        for (id, signal) in fired {
            let signal = Arc::new(signal);
            for sink in sinks.iter() {
                sink.signal_shared(id, &signal)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DbEventKind;
    use hipac_common::{ClassId, ObjectId, VirtualClock};

    struct Collector(Mutex<Vec<(EventId, EventSignal)>>);

    impl SignalSink for Collector {
        fn signal(&self, event: EventId, signal: &EventSignal) -> Result<()> {
            self.0.lock().push((event, signal.clone()));
            Ok(())
        }
    }

    fn setup() -> (Arc<VirtualClock>, EventRegistry, Arc<Collector>) {
        let clock = Arc::new(VirtualClock::new());
        let reg = EventRegistry::new(clock.clone() as Arc<dyn Clock>);
        let sink = Arc::new(Collector(Mutex::new(Vec::new())));
        reg.register_sink(sink.clone());
        (clock, reg, sink)
    }

    fn db_update(lineage: &[&str]) -> DbEventData {
        DbEventData {
            kind: DbEventKind::Update,
            class: ClassId(1),
            class_lineage: lineage.iter().map(|s| s.to_string()).collect(),
            oid: Some(ObjectId(7)),
            old: Some(vec![Value::Int(1)].into()),
            new: Some(vec![Value::Int(2)].into()),
        }
    }

    #[test]
    fn db_event_matching_with_lineage() {
        let (_c, reg, sink) = setup();
        let on_stock = reg.define_event(EventSpec::on_update("stock")).unwrap();
        let on_sec = reg.define_event(EventSpec::on_update("security")).unwrap();
        let on_bond = reg.define_event(EventSpec::on_update("bond")).unwrap();
        let any = reg
            .define_event(EventSpec::db(DbEventKind::Update, None))
            .unwrap();
        reg.report_db(Some(TxnId(1)), db_update(&["stock", "security"]))
            .unwrap();
        let fired: Vec<EventId> = sink.0.lock().iter().map(|(id, _)| *id).collect();
        assert!(fired.contains(&on_stock));
        assert!(fired.contains(&on_sec), "superclass event fires for subclass op");
        assert!(!fired.contains(&on_bond));
        assert!(fired.contains(&any));
        // Signals carry the payload.
        let (_, sig) = sink.0.lock()[0].clone();
        assert_eq!(sig.txn, Some(TxnId(1)));
        assert_eq!(sig.params["class"], Value::from("stock"));
        assert!(sig.db.as_ref().unwrap().old.is_some());
    }

    #[test]
    fn external_events_validate_parameters() {
        let (_c, reg, sink) = setup();
        let id = reg
            .define_external("trade", vec!["symbol".into(), "shares".into()])
            .unwrap();
        // Missing arg.
        let mut args = HashMap::new();
        args.insert("symbol".to_string(), Value::from("XRX"));
        assert!(matches!(
            reg.signal_external("trade", args.clone(), None),
            Err(HipacError::EventParamMismatch(_))
        ));
        // Extra arg.
        args.insert("shares".to_string(), Value::from(500));
        args.insert("bogus".to_string(), Value::Null);
        assert!(reg.signal_external("trade", args.clone(), None).is_err());
        args.remove("bogus");
        reg.signal_external("trade", args, None).unwrap();
        let fired = sink.0.lock();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, id);
        assert_eq!(fired[0].1.params["shares"], Value::Int(500));
        // Unknown event name.
        assert!(reg
            .signal_external("nope", HashMap::new(), None)
            .is_err());
        // Duplicate definition.
        assert!(reg.define_external("trade", vec![]).is_err());
    }

    #[test]
    fn composite_event_via_registry() {
        let (_c, reg, sink) = setup();
        reg.define_external("a", vec![]).unwrap();
        reg.define_external("b", vec![]).unwrap();
        let seq = reg
            .define_event(EventSpec::external("a").then(EventSpec::external("b")))
            .unwrap();
        reg.signal_external("b", HashMap::new(), None).unwrap();
        reg.signal_external("a", HashMap::new(), None).unwrap();
        assert!(!sink.0.lock().iter().any(|(id, _)| *id == seq));
        reg.signal_external("b", HashMap::new(), None).unwrap();
        assert!(sink.0.lock().iter().any(|(id, _)| *id == seq));
    }

    #[test]
    fn composite_referencing_undefined_external_is_rejected() {
        let (_c, reg, _s) = setup();
        assert!(matches!(
            reg.define_event(EventSpec::external("ghost")),
            Err(HipacError::UnknownEvent(_))
        ));
    }

    #[test]
    fn absolute_and_periodic_temporal_events() {
        let (clock, reg, sink) = setup();
        let abs = reg
            .define_event(EventSpec::Temporal(TemporalSpec::Absolute { at: 100 }))
            .unwrap();
        let per = reg
            .define_event(EventSpec::Temporal(TemporalSpec::Periodic {
                period: 50,
                start: Some(0),
            }))
            .unwrap();
        clock.advance(49);
        reg.poll_temporal().unwrap();
        assert!(sink.0.lock().is_empty());
        clock.advance(1); // t=50: first periodic
        reg.poll_temporal().unwrap();
        assert_eq!(sink.0.lock().len(), 1);
        assert_eq!(sink.0.lock()[0].0, per);
        clock.advance(100); // t=150: abs@100, periodic@100 and @150
        reg.poll_temporal().unwrap();
        let fired: Vec<(EventId, Timestamp)> =
            sink.0.lock().iter().map(|(id, s)| (*id, s.time)).collect();
        assert!(fired.contains(&(abs, 100)));
        assert!(fired.contains(&(per, 100)));
        assert!(fired.contains(&(per, 150)));
        // Absolute fires once only.
        assert_eq!(fired.iter().filter(|(id, _)| *id == abs).count(), 1);
    }

    #[test]
    fn relative_temporal_event() {
        let (clock, reg, sink) = setup();
        reg.define_external("market_open", vec![]).unwrap();
        let rel = reg
            .define_event(EventSpec::Temporal(TemporalSpec::Relative {
                baseline: Box::new(EventSpec::external("market_open")),
                offset: 30,
            }))
            .unwrap();
        clock.advance(10);
        reg.signal_external("market_open", HashMap::new(), None)
            .unwrap();
        reg.poll_temporal().unwrap();
        assert!(!sink.0.lock().iter().any(|(id, _)| *id == rel));
        clock.advance(30); // t=40 >= 10+30
        reg.poll_temporal().unwrap();
        let fired: Vec<EventId> = sink.0.lock().iter().map(|(id, _)| *id).collect();
        assert!(fired.contains(&rel));
    }

    #[test]
    fn disable_enable_and_delete() {
        let (_c, reg, sink) = setup();
        let id = reg.define_external("e", vec![]).unwrap();
        reg.disable_event(id).unwrap();
        assert!(!reg.is_enabled(id).unwrap());
        reg.signal_external("e", HashMap::new(), None).unwrap();
        assert!(sink.0.lock().is_empty(), "disabled events do not fire");
        reg.enable_event(id).unwrap();
        reg.signal_external("e", HashMap::new(), None).unwrap();
        assert_eq!(sink.0.lock().len(), 1);
        reg.delete_event(id).unwrap();
        assert!(reg.signal_external("e", HashMap::new(), None).is_err());
        assert!(reg.delete_event(id).is_err());
    }

    #[test]
    fn disable_resets_composite_state() {
        let (_c, reg, sink) = setup();
        reg.define_external("a", vec![]).unwrap();
        reg.define_external("b", vec![]).unwrap();
        let seq = reg
            .define_event(EventSpec::external("a").then(EventSpec::external("b")))
            .unwrap();
        reg.signal_external("a", HashMap::new(), None).unwrap();
        reg.disable_event(seq).unwrap();
        reg.enable_event(seq).unwrap();
        // The pending "a" was discarded: b alone must not fire.
        reg.signal_external("b", HashMap::new(), None).unwrap();
        assert!(!sink.0.lock().iter().any(|(id, _)| *id == seq));
    }

    #[test]
    fn periodic_stops_while_disabled_and_resumes() {
        let (clock, reg, sink) = setup();
        let per = reg
            .define_event(EventSpec::Temporal(TemporalSpec::Periodic {
                period: 10,
                start: Some(0),
            }))
            .unwrap();
        clock.advance(10);
        reg.poll_temporal().unwrap();
        assert_eq!(sink.0.lock().len(), 1);
        reg.disable_event(per).unwrap();
        clock.advance(50);
        reg.poll_temporal().unwrap();
        assert_eq!(sink.0.lock().len(), 1, "no firings while disabled");
        reg.enable_event(per).unwrap();
        clock.advance(10); // next period from enable time (60) → due 70
        reg.poll_temporal().unwrap();
        assert_eq!(sink.0.lock().len(), 2);
        assert_eq!(sink.0.lock()[1].1.time, 70);
    }

    #[test]
    fn sink_error_propagates_to_the_reporter() {
        struct Veto;
        impl SignalSink for Veto {
            fn signal(&self, _e: EventId, _s: &EventSignal) -> Result<()> {
                Err(HipacError::ConstraintViolation("no".into()))
            }
        }
        let clock = Arc::new(VirtualClock::new());
        let reg = EventRegistry::new(clock as Arc<dyn Clock>);
        reg.register_sink(Arc::new(Veto));
        reg.define_external("e", vec![]).unwrap();
        assert!(matches!(
            reg.signal_external("e", HashMap::new(), None),
            Err(HipacError::ConstraintViolation(_))
        ));
    }
}

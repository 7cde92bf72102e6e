//! Discrimination network for event→rule matching (ROADMAP item 2).
//!
//! The Rule Manager's naive trigger path resolves a signal's candidate
//! rules by walking the full event→rules list and evaluating every
//! rule's condition — O(rules) per signal, which collapses at
//! production rule counts. Production ECA engines in the Rete/TREAT
//! lineage share predicate tests across rules in a *discrimination
//! network*; this module implements the variant that fits HiPAC's
//! knowledge model:
//!
//! * **Type nodes** — one per (shared) event definition, mirroring the
//!   event→rules wiring. Event-type discrimination itself is the event
//!   registry's spec sharing; a type node refines *within* one event.
//! * **Attribute discrimination** — a rule's *guard chain* is the run
//!   of literal comparisons (`old.x`/`new.x ⟨=,<,<=,>,>=⟩ literal`,
//!   either orientation) its first condition query opens with, when
//!   that query is delta-answerable; the chain stops at the first
//!   conjunct of any other shape. The first link is the indexed key:
//!   equality links in a hash map keyed by the literal (exact, because
//!   [`Value`]'s `Eq`/`Hash` are consistent with its total order,
//!   Int/Float cross-comparison included), interval links in two
//!   ordered maps (lower bounds `>=`/`>`, upper bounds `<=`/`<`). One
//!   probe with the event's attribute value yields the bucket entries
//!   whose first link passes — O(matches), not O(rules). Each entry
//!   carries its rule's *later* links in compiled form (image,
//!   attribute, operator, literal), and they are checked against the
//!   event's images straight from the bucket before the rule becomes a
//!   candidate: a probe reads no rule definition.
//! * **Residual set** — rules the network cannot discriminate (store
//!   conditions, disjunctions, `!=`, non-literal comparands, empty
//!   conditions). Always candidates; evaluated exactly as today.
//! * **Unstable set** — rules with *uncommitted* definition changes
//!   (created, altered, dropped, enabled or disabled inside an open
//!   transaction). Such rules are always candidates until the change
//!   resolves: the shared dispatch path re-reads the rule under the
//!   probing transaction's visibility, so the outcome per candidate is
//!   identical to the naive path's, and an aborted definition change
//!   leaves the committed placement untouched.
//!
//! **Placement.** Where a rule goes is a function of its definition
//! alone ([`placement`]), parsed by the one literal-link parser. The
//! network compiles a rule's later links into its bucket entry when it
//! places the rule from its committed definition, and keeps nothing
//! else about it: a type node knows only *which* rules it placed.
//! Removal re-derives the old placement from the old committed
//! definition, which the rule store's top-level commit hands back in
//! its change set. Nothing about a placement is persisted; reopening a
//! database places each rule from the definition it decodes.
//!
//! **Prune safety.** A rule may be dropped from the candidate set only
//! when the naive path would *provably* find its condition unsatisfied
//! without error. The guard chain is a prefix of the first query's
//! conjuncts, which the evaluator's left-to-right short-circuit `and`
//! evaluates in order; comparisons never error (null compares false),
//! so the first false link — indexed or checked — means the whole
//! predicate is false, and the first query's empty result ends the
//! condition. Everything uncertain falls back to "keep as candidate":
//! no event delta, the query's class not in the event's lineage (the
//! naive delta path would not apply), any referenced attribute that
//! does not resolve against the event's class (the naive path resolves
//! the whole predicate eagerly and errors), or a link's image missing
//! or its attribute slot out of range before any link failed (ditto).
//! Only rules taken from a guard bucket are chain-checked; residual and
//! unstable rules are candidates as they are. A stable rule's compiled
//! chain is the one the naive path reads, because a rule with an
//! uncommitted change sits in the unstable set until its placement is
//! redone. Candidate sets are therefore a superset of the satisfied
//! rules and a subset of the naive candidate list, and every candidate
//! flows through the unchanged per-rule visibility/enablement/evaluation
//! path — the differential harness in `tests/matching_diff.rs` and the
//! property suite hold both modes to identical outcomes.

use crate::rule::RuleDef;
use hipac_common::{EventId, IdMap, IdSet, RuleId, TxnId, Value};
use hipac_event::{DbEventData, EventSignal};
use hipac_object::expr::{BinOp, Expr};
use hipac_object::query::Query;
use hipac_object::ObjectStore;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the Rule Manager resolves a signal's candidate rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Matching {
    /// Walk the full event→rules list (the differential oracle).
    Naive,
    /// Probe the discrimination network (the default).
    #[default]
    Network,
}

/// Which event image a guard probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageRef {
    Old,
    New,
}

/// Guard comparison operator (`!=` is not discriminable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

/// The evaluator's verdict on `v ⟨op⟩ literal`: null compares false,
/// anything else by [`Value`]'s total order.
fn compare(v: &Value, op: GuardOp, literal: &Value) -> bool {
    if v.is_null() || literal.is_null() {
        return false;
    }
    let ord = v.cmp(literal);
    match op {
        GuardOp::Eq => ord.is_eq(),
        GuardOp::Lt => ord.is_lt(),
        GuardOp::Le => ord.is_le(),
        GuardOp::Gt => ord.is_gt(),
        GuardOp::Ge => ord.is_ge(),
    }
}

/// One literal link of a guard chain, read as `image.attr ⟨op⟩ value`
/// (a literal-first comparison is flipped into this orientation),
/// borrowed from the rule definition it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link<'a> {
    pub image: ImageRef,
    pub attr: &'a str,
    pub op: GuardOp,
    pub value: &'a Value,
}

impl Link<'_> {
    /// The evaluator's verdict on this link for the image value `v`.
    pub fn holds(&self, v: &Value) -> bool {
        compare(v, self.op, self.value)
    }
}

impl fmt::Display for Link<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let image = match self.image {
            ImageRef::Old => "old",
            ImageRef::New => "new",
        };
        let op = match self.op {
            GuardOp::Eq => "=",
            GuardOp::Lt => "<",
            GuardOp::Le => "<=",
            GuardOp::Gt => ">",
            GuardOp::Ge => ">=",
        };
        write!(f, "{image}.{} {op} {}", self.attr, self.value)
    }
}

/// Where the network places a rule, derived from its definition alone.
#[derive(Debug, PartialEq)]
pub enum Placement<'a> {
    /// Not discriminable: always a candidate within its type node.
    Residual,
    /// Indexed on the first link of the rule's guard chain; the later
    /// links are checked against the event's images.
    Guarded {
        /// Class of the rule's first condition query.
        class: &'a str,
        indexed: Link<'a>,
        checked: Vec<Link<'a>>,
        /// `old.*`/`new.*` attribute names the whole first-query
        /// predicate references, sorted and deduplicated: the naive
        /// delta path resolves them all eagerly, so if any fails to
        /// resolve against the event's class the rule must stay a
        /// candidate (to reproduce the naive error).
        ref_attrs: Vec<&'a str>,
    },
}

impl fmt::Display for Placement<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Placement::Guarded {
            class,
            indexed,
            checked,
            ..
        } = self
        else {
            return f.write_str("residual (a candidate for every signal)");
        };
        write!(f, "{class}: indexed on {indexed}")?;
        for (i, link) in checked.iter().enumerate() {
            f.write_str(if i == 0 { "; checks " } else { " and " })?;
            write!(f, "{link}")?;
        }
        Ok(())
    }
}

/// Parse one conjunct as a literal link: `old.x ⟨cmp⟩ literal` /
/// `new.x ⟨cmp⟩ literal` in either orientation, `cmp` one of `=`, `<`,
/// `<=`, `>`, `>=`. This is the one definition of what counts as a
/// guard. A compiled rule's resolved references read as their names:
/// the network keys on attribute names and resolves them per probe.
fn literal_link(e: &Expr) -> Option<Link<'_>> {
    let Expr::Binary(op, l, r) = e else {
        return None;
    };
    let (side, op, value) = match (l.as_ref(), r.as_ref()) {
        (side, Expr::Literal(v)) => (side, *op, v),
        // `literal ⟨op⟩ attr` reads as `attr ⟨flipped op⟩ literal`.
        (Expr::Literal(v), side) => (side, flip(*op), v),
        _ => return None,
    };
    let (image, attr) = match side {
        Expr::OldAttr(n) | Expr::OldSlot(_, n) => (ImageRef::Old, n.as_str()),
        Expr::NewAttr(n) | Expr::NewSlot(_, n) => (ImageRef::New, n.as_str()),
        _ => return None,
    };
    let op = match op {
        BinOp::Eq => GuardOp::Eq,
        BinOp::Lt => GuardOp::Lt,
        BinOp::Le => GuardOp::Le,
        BinOp::Gt => GuardOp::Gt,
        BinOp::Ge => GuardOp::Ge,
        _ => return None,
    };
    Some(Link {
        image,
        attr,
        op,
        value,
    })
}

/// A rule's guard chain: its first condition query `q0`, when that has
/// the delta-answerable shape, and the literal links its predicate opens
/// with, left to right up to the first conjunct of any other shape.
fn guard_chain(q0: Option<&Query>) -> Option<(&Query, impl Iterator<Item = Link<'_>>)> {
    let q0 = q0?;
    if !crate::condition::ConditionEvaluator::delta_answerable_shape(q0) {
        return None;
    }
    let links = q0.predicate.conjuncts().into_iter().map_while(literal_link);
    Some((q0, links))
}

/// Derive a rule's placement from its definition: indexed on the first
/// link of its guard chain, or [`Placement::Residual`] when the chain
/// is empty. Deterministic, so placing and removing a rule derive the
/// same answer from the same definition.
pub fn placement(def: &RuleDef) -> Placement<'_> {
    placement_of(def.condition.first())
}

/// [`placement`] from a rule's first condition query.
pub(crate) fn placement_of(q0: Option<&Query>) -> Placement<'_> {
    let Some((q0, mut chain)) = guard_chain(q0) else {
        return Placement::Residual;
    };
    let Some(indexed) = chain.next() else {
        return Placement::Residual;
    };
    let checked = chain.collect();
    let mut ref_attrs = Vec::new();
    collect_attr_names(&q0.predicate, &mut ref_attrs);
    ref_attrs.sort_unstable();
    ref_attrs.dedup();
    Placement::Guarded {
        class: &q0.class,
        indexed,
        checked,
        ref_attrs,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn collect_attr_names<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    match e {
        Expr::OldAttr(n) | Expr::NewAttr(n) | Expr::OldSlot(_, n) | Expr::NewSlot(_, n) => {
            out.push(n)
        }
        Expr::Unary(_, x) => collect_attr_names(x, out),
        Expr::Binary(_, l, r) => {
            collect_attr_names(l, out);
            collect_attr_names(r, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                collect_attr_names(a, out);
            }
        }
        _ => {}
    }
}

/// Why a rule sits in the unstable set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Created by this (possibly nested) transaction; retracted if it
    /// aborts, promoted on child commit, placed on top commit.
    Created(TxnId),
    /// Existing rule with a pending definition change owned by this
    /// *top* transaction (the rule's write lock guarantees one owner).
    Pending(TxnId),
}

type GroupKey = (String, ImageRef, String);

/// A later chain link compiled into its bucket entry. The attribute
/// name is the group's interned copy, so a probe finds its slot by
/// pointer among the group's resolved attributes.
struct Check {
    image: ImageRef,
    op: GuardOp,
    attr: Arc<str>,
    value: Value,
}

/// One bucket entry: a rule and its later links, in chain order.
struct Member {
    rid: RuleId,
    checks: Box<[Check]>,
}

#[derive(Default)]
struct Bounds {
    /// Rules matching inclusively at this key (`>=` / `<=`).
    inclusive: Vec<Member>,
    /// Rules matching strictly (`>` / `<`).
    strict: Vec<Member>,
}

impl Bounds {
    fn is_empty(&self) -> bool {
        self.inclusive.is_empty() && self.strict.is_empty()
    }

    fn list(&mut self, inclusive: bool) -> &mut Vec<Member> {
        if inclusive {
            &mut self.inclusive
        } else {
            &mut self.strict
        }
    }
}

/// Which map of a group a first link indexes into, and whether it
/// matches inclusively. A null literal never holds, so it is keyed as
/// an equality on null, which no probe reaches (a null probe value
/// prunes the whole group).
enum Side {
    Eq,
    Lower(bool),
    Upper(bool),
}

fn side(link: &Link<'_>) -> Side {
    match link.op {
        _ if link.value.is_null() => Side::Eq,
        GuardOp::Eq => Side::Eq,
        GuardOp::Ge => Side::Lower(true),
        GuardOp::Gt => Side::Lower(false),
        GuardOp::Le => Side::Upper(true),
        GuardOp::Lt => Side::Upper(false),
    }
}

/// Shared discrimination node for one (class, image, attribute).
#[derive(Default)]
struct AttrDisc {
    eq: HashMap<Value, Vec<Member>>,
    /// Lower bounds: guards `attr >= key` / `attr > key`.
    lower: BTreeMap<Value, Bounds>,
    /// Upper bounds: guards `attr <= key` / `attr < key`.
    upper: BTreeMap<Value, Bounds>,
    /// Refcounted union of referenced attribute names across member
    /// rules, interned for the members' checks. If any fails to resolve
    /// at probe time, the whole group stays candidates (conservative,
    /// see module docs).
    attrs: HashMap<Arc<str>, usize>,
    rules: usize,
}

/// One event definition's node.
#[derive(Default)]
struct TypeNode {
    groups: HashMap<GroupKey, AttrDisc>,
    residual: BTreeSet<RuleId>,
    /// Always-candidates with uncommitted definition changes.
    unstable: IdMap<RuleId, Mark>,
    /// Every rule placed from its committed definition.
    placed: IdSet<RuleId>,
}

impl TypeNode {
    fn is_empty(&self) -> bool {
        self.placed.is_empty() && self.unstable.is_empty()
    }

    /// All rules wired to this node, ascending (the full-candidate
    /// fallback; equals the naive list's sorted order).
    fn all_rules(&self) -> Vec<RuleId> {
        let mut out: Vec<RuleId> = self.placed.iter().copied().collect();
        out.extend(self.unstable.keys().copied());
        out.sort_unstable();
        out.dedup();
        out
    }

    fn size(&self) -> usize {
        let extra = self
            .unstable
            .keys()
            .filter(|rid| !self.placed.contains(rid))
            .count();
        self.placed.len() + extra
    }
}

/// Network-wide counters (surface through `EngineStats`).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Live discrimination nodes: type nodes + attribute groups +
    /// distinct equality buckets + distinct bound keys.
    pub index_nodes: AtomicU64,
    /// Signals resolved through the network.
    pub probes: AtomicU64,
    /// Rules excluded from candidate sets across all probes.
    pub candidates_pruned: AtomicU64,
}

#[derive(Default)]
struct Inner {
    nodes: IdMap<EventId, TypeNode>,
    /// txn → rules it created (for promotion/retraction).
    created: IdMap<TxnId, Vec<(EventId, RuleId)>>,
    /// top txn → rules it has pending definition changes on.
    pending: IdMap<TxnId, Vec<(EventId, RuleId)>>,
}

/// The discrimination network.
pub struct MatchNetwork {
    inner: RwLock<Inner>,
    stats: NetStats,
}

impl Default for MatchNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl MatchNetwork {
    pub fn new() -> MatchNetwork {
        MatchNetwork {
            inner: RwLock::new(Inner::default()),
            stats: NetStats::default(),
        }
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mirror of `create_rule`'s eager event wiring: the new rule is
    /// unstable until its creating transaction resolves.
    pub fn link_created(&self, event: EventId, rid: RuleId, txn: TxnId) {
        let mut inner = self.inner.write();
        let node = self.node_mut(&mut inner.nodes, event);
        node.unstable.insert(rid, Mark::Created(txn));
        inner.created.entry(txn).or_default().push((event, rid));
    }

    /// Creation attribution moves up on child commit (mirrors the
    /// catalog's `created_by` promotion).
    pub fn promote_created(&self, child: TxnId, parent: TxnId) {
        let mut inner = self.inner.write();
        let Some(entries) = inner.created.remove(&child) else {
            return;
        };
        for (event, rid) in &entries {
            if let Some(node) = inner.nodes.get_mut(event) {
                if let Some(mark) = node.unstable.get_mut(rid) {
                    if *mark == Mark::Created(child) {
                        *mark = Mark::Created(parent);
                    }
                }
            }
        }
        inner.created.entry(parent).or_default().extend(entries);
    }

    /// Unlink the rules `txn` created that are still marked as its own:
    /// all of them when it aborts (mirrors `retract_created_by`), and
    /// after a top-level commit, the ones it also dropped.
    pub fn retract_created(&self, txn: TxnId) {
        let mut inner = self.inner.write();
        let entries = inner.created.remove(&txn).unwrap_or_default();
        self.unmark(&mut inner.nodes, entries, Mark::Created(txn));
    }

    /// An existing rule gained a pending definition change (alter /
    /// drop / enable / disable): always-candidate until `top` ends.
    pub fn mark_pending(&self, event: EventId, rid: RuleId, top: TxnId) {
        let mut inner = self.inner.write();
        let node = self.node_mut(&mut inner.nodes, event);
        // A rule created by this very family keeps its Created mark
        // (retraction must still unlink it entirely).
        node.unstable.entry(rid).or_insert(Mark::Pending(top));
        inner.pending.entry(top).or_default().push((event, rid));
    }

    /// A definition change committed at top level: take the rule out
    /// of the placement its `old` committed definition derives (`None`
    /// = it had none), then place it per its `new` one (`None` =
    /// deleted). Each definition is given by its first condition query
    /// (`Some(None)`: a rule without conditions). `old_event` /
    /// `new_event` come from the catalog rewiring.
    pub(crate) fn commit_change(
        &self,
        old_event: EventId,
        new_event: EventId,
        rid: RuleId,
        old: Option<Option<&Query>>,
        new: Option<Option<&Query>>,
    ) {
        let mut inner = self.inner.write();
        self.remove_rule(&mut inner.nodes, old_event, rid, old);
        if let Some(q0) = new {
            self.place_rule(&mut inner.nodes, new_event, rid, q0);
        }
    }

    /// Does the top transaction `top` own an unstable mark (a rule it
    /// created, or one whose definition it changed)?
    pub fn owns_marks(&self, top: TxnId) -> bool {
        let inner = self.inner.read();
        inner.created.contains_key(&top) || inner.pending.contains_key(&top)
    }

    /// Drop the marks owned by a finished top transaction that no
    /// re-placement cleared: pending marks of child-aborted changes or
    /// of a top abort (their committed placement is already correct),
    /// and rules it created and dropped again.
    pub fn clear_top(&self, top: TxnId) {
        let mut inner = self.inner.write();
        let created = inner.created.remove(&top).unwrap_or_default();
        let pending = inner.pending.remove(&top).unwrap_or_default();
        self.unmark(&mut inner.nodes, created, Mark::Created(top));
        self.unmark(&mut inner.nodes, pending, Mark::Pending(top));
    }

    /// Place a committed rule (durable reload and commit-time
    /// placement share this path).
    pub fn place_committed(&self, event: EventId, rid: RuleId, def: &RuleDef) {
        let mut inner = self.inner.write();
        self.place_rule(&mut inner.nodes, event, rid, def.condition.first());
    }

    /// Resolve the candidate set for one signal: residual ∪ unstable ∪
    /// the bucket members whose whole guard chain passes, ascending by
    /// rule id (the naive list's order). Returns `None` when no rules
    /// are wired to the event.
    pub fn probe(
        &self,
        event: EventId,
        store: &ObjectStore,
        signal: &EventSignal,
    ) -> Option<Vec<RuleId>> {
        let inner = self.inner.read();
        let node = inner.nodes.get(&event)?;
        self.stats.probes.fetch_add(1, Ordering::Relaxed);
        let full_size = node.size();
        // No delta, or no transaction to resolve the schema under:
        // nothing to discriminate on — everything is a candidate.
        let (Some(db), Some(txn)) = (&signal.db, signal.txn) else {
            return Some(node.all_rules());
        };
        if node.groups.is_empty() {
            return Some(node.all_rules());
        }
        let schema = store.schema(txn);
        let mut out: Vec<RuleId> = node.residual.iter().copied().collect();
        out.extend(node.unstable.keys().copied());
        // The slot of each of a group's attributes in the event's class.
        let mut slots: Vec<(&Arc<str>, usize)> = Vec::new();
        'groups: for ((class, image, attr), group) in &node.groups {
            // The naive delta path applies only when the query's class
            // is in the event's lineage; otherwise the store path's
            // eager delta folding errors — keep the group.
            if !db.class_lineage.contains(class) {
                all_of(group, &mut out);
                continue;
            }
            // Every referenced attribute must resolve against the
            // event's class, or naive's eager resolve errors.
            slots.clear();
            for name in group.attrs.keys() {
                let Ok((slot, _)) = schema.resolve_attr(db.class, name) else {
                    all_of(group, &mut out);
                    continue 'groups;
                };
                slots.push((name, slot));
            }
            // Missing image or out-of-range slot: naive errors — keep.
            let Some(img) = image_of(db, *image) else {
                all_of(group, &mut out);
                continue;
            };
            let slot = slots
                .iter()
                .find(|(name, _)| &***name == attr.as_str())
                .map(|&(_, slot)| slot)
                .expect("a group's attributes include its key");
            let Some(v) = img.get(slot) else {
                all_of(group, &mut out);
                continue;
            };
            if v.is_null() {
                // Null compares false against everything: the guard is
                // false for every rule in the group — prune them all.
                continue;
            }
            let mut take = |members: &[Member]| {
                out.extend(
                    members
                        .iter()
                        .filter(|m| !chain_fails(&m.checks, db, &slots))
                        .map(|m| m.rid),
                );
            };
            if let Some(members) = group.eq.get(v) {
                take(members);
            }
            for (key, b) in group.lower.range::<Value, _>((Bound::Unbounded, Bound::Included(v)))
            {
                take(&b.inclusive);
                if key != v {
                    take(&b.strict);
                }
            }
            for (key, b) in group.upper.range::<Value, _>((Bound::Included(v), Bound::Unbounded))
            {
                take(&b.inclusive);
                if key != v {
                    take(&b.strict);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        self.stats
            .candidates_pruned
            .fetch_add(full_size.saturating_sub(out.len()) as u64, Ordering::Relaxed);
        Some(out)
    }

    /// Rules currently wired to `event` (diagnostics/tests).
    pub fn node_size(&self, event: EventId) -> usize {
        self.inner
            .read()
            .nodes
            .get(&event)
            .map_or(0, TypeNode::size)
    }

    // ---- internal placement plumbing ---------------------------------

    fn node_mut<'a>(
        &self,
        nodes: &'a mut IdMap<EventId, TypeNode>,
        event: EventId,
    ) -> &'a mut TypeNode {
        nodes.entry(event).or_insert_with(|| {
            self.stats.index_nodes.fetch_add(1, Ordering::Relaxed);
            TypeNode::default()
        })
    }

    /// Remove the given rules' unstable marks where they still read
    /// `mark`, and any type node left empty.
    fn unmark(
        &self,
        nodes: &mut IdMap<EventId, TypeNode>,
        entries: Vec<(EventId, RuleId)>,
        mark: Mark,
    ) {
        for (event, rid) in entries {
            let Some(node) = nodes.get_mut(&event) else {
                continue;
            };
            if node.unstable.get(&rid) == Some(&mark) {
                node.unstable.remove(&rid);
            }
            if node.is_empty() {
                nodes.remove(&event);
                self.stats.index_nodes.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn place_rule(
        &self,
        nodes: &mut IdMap<EventId, TypeNode>,
        event: EventId,
        rid: RuleId,
        q0: Option<&Query>,
    ) {
        let mut delta: u64 = 0;
        let node = self.node_mut(nodes, event);
        node.unstable.remove(&rid);
        node.placed.insert(rid);
        let Placement::Guarded {
            class,
            indexed,
            checked,
            ref_attrs,
        } = placement_of(q0)
        else {
            node.residual.insert(rid);
            return;
        };
        let key = (class.to_owned(), indexed.image, indexed.attr.to_owned());
        let group = node.groups.entry(key).or_insert_with(|| {
            delta += 1;
            AttrDisc::default()
        });
        for a in ref_attrs {
            match group.attrs.get_mut(a) {
                Some(count) => *count += 1,
                None => {
                    group.attrs.insert(Arc::from(a), 1);
                }
            }
        }
        group.rules += 1;
        let checks = checked
            .iter()
            .map(|link| Check {
                image: link.image,
                op: link.op,
                attr: Arc::clone(
                    group
                        .attrs
                        .get_key_value(link.attr)
                        .expect("a rule's links are among its referenced attributes")
                        .0,
                ),
                value: link.value.clone(),
            })
            .collect();
        let value = indexed.value.clone();
        let list = match side(&indexed) {
            Side::Eq => group.eq.entry(value).or_insert_with(|| {
                delta += 1;
                Vec::new()
            }),
            Side::Lower(inclusive) => group
                .lower
                .entry(value)
                .or_insert_with(|| {
                    delta += 1;
                    Bounds::default()
                })
                .list(inclusive),
            Side::Upper(inclusive) => group
                .upper
                .entry(value)
                .or_insert_with(|| {
                    delta += 1;
                    Bounds::default()
                })
                .list(inclusive),
        };
        if let Err(pos) = list.binary_search_by_key(&rid, |m| m.rid) {
            list.insert(pos, Member { rid, checks });
        }
        self.stats.index_nodes.fetch_add(delta, Ordering::Relaxed);
    }

    /// Take `rid` out of `event`'s node: its unstable mark, and the
    /// placement its committed definition `def` derives, if it was
    /// placed.
    fn remove_rule(
        &self,
        nodes: &mut IdMap<EventId, TypeNode>,
        event: EventId,
        rid: RuleId,
        def: Option<Option<&Query>>,
    ) {
        let Some(node) = nodes.get_mut(&event) else {
            return;
        };
        let mut delta: u64 = 0;
        node.unstable.remove(&rid);
        if let (true, Some(q0)) = (node.placed.remove(&rid), def) {
            match placement_of(q0) {
                Placement::Residual => {
                    node.residual.remove(&rid);
                }
                Placement::Guarded {
                    class,
                    indexed,
                    ref_attrs,
                    ..
                } => {
                    let key = (class.to_owned(), indexed.image, indexed.attr.to_owned());
                    if let Some(group) = node.groups.get_mut(&key) {
                        for a in ref_attrs {
                            if let Some(count) = group.attrs.get_mut(a) {
                                *count -= 1;
                                if *count == 0 {
                                    group.attrs.remove(a);
                                }
                            }
                        }
                        group.rules = group.rules.saturating_sub(1);
                        let value = indexed.value;
                        let unlist = |list: &mut Vec<Member>| list.retain(|m| m.rid != rid);
                        match side(&indexed) {
                            Side::Eq => {
                                if let Some(list) = group.eq.get_mut(value) {
                                    unlist(list);
                                    if list.is_empty() {
                                        group.eq.remove(value);
                                        delta += 1;
                                    }
                                }
                            }
                            Side::Lower(inclusive) => {
                                if let Some(b) = group.lower.get_mut(value) {
                                    unlist(b.list(inclusive));
                                    if b.is_empty() {
                                        group.lower.remove(value);
                                        delta += 1;
                                    }
                                }
                            }
                            Side::Upper(inclusive) => {
                                if let Some(b) = group.upper.get_mut(value) {
                                    unlist(b.list(inclusive));
                                    if b.is_empty() {
                                        group.upper.remove(value);
                                        delta += 1;
                                    }
                                }
                            }
                        }
                        if group.rules == 0 {
                            node.groups.remove(&key);
                            delta += 1;
                        }
                    }
                }
            }
        }
        if node.is_empty() {
            nodes.remove(&event);
            delta += 1;
        }
        self.stats.index_nodes.fetch_sub(delta, Ordering::Relaxed);
    }
}

fn image_of(db: &DbEventData, image: ImageRef) -> Option<&[Value]> {
    match image {
        ImageRef::Old => db.old.as_deref(),
        ImageRef::New => db.new.as_deref(),
    }
}

/// Does naive evaluation provably find a bucket member's first query
/// false, without error? Its first link held (the bucket was reached),
/// so walk the later links in the evaluator's left-to-right order: a
/// false link decides it (every link before it was a true comparison,
/// and `and` short-circuits); a link whose image or slot is missing is
/// one the evaluator would error on, so the rule is kept; a chain that
/// passes leaves the decision to the evaluator. `slots` maps the
/// group's interned attribute names to their slots in the event's class.
fn chain_fails(checks: &[Check], db: &DbEventData, slots: &[(&Arc<str>, usize)]) -> bool {
    for check in checks {
        let Some(img) = image_of(db, check.image) else {
            return false;
        };
        let Some(&(_, slot)) = slots.iter().find(|(name, _)| Arc::ptr_eq(name, &check.attr)) else {
            return false;
        };
        let Some(v) = img.get(slot) else { return false };
        if !compare(v, check.op, &check.value) {
            return true;
        }
    }
    false
}

fn all_of(group: &AttrDisc, out: &mut Vec<RuleId>) {
    let lists = group.lower.values().chain(group.upper.values());
    let members = group
        .eq
        .values()
        .chain(lists.flat_map(|b| [&b.inclusive, &b.strict]));
    out.extend(members.flatten().map(|m| m.rid));
}

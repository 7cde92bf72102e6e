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
//!   probe with the event's attribute value yields the rules whose
//!   first link passes — O(matches), not O(rules) — and each of them
//!   then has its later links checked against the event's images,
//!   read in place from the rule's committed definition, before it
//!   becomes a candidate.
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
//! the whole predicate eagerly and errors), a link's image missing or
//! its attribute slot out of range before any link failed (ditto), or
//! no committed definition to read the chain from. Only rules taken
//! from a guard bucket are chain-checked; residual and unstable rules
//! are candidates as they are. A stable rule's committed definition
//! is the one the naive path reads, because a rule with an uncommitted
//! change sits in the unstable set until its placement is redone.
//! Candidate sets are therefore a superset of the satisfied rules and
//! a subset of the naive candidate list, and every candidate flows
//! through the unchanged per-rule visibility/enablement/evaluation
//! path — the differential harness in `tests/matching_diff.rs` and the
//! property suite hold both modes to identical outcomes.
//!
//! **Memoized partial matches.** Store-path condition queries (the
//! shared subexpression nodes of the condition graph) are memoized in
//! a [`MemoTable`] validated against the Object Manager's
//! committed-data version stamps. Invalidation is transactional: the
//! stamp counters bump inside the committing transaction's publish
//! window — before its locks release — so no reader can validate a
//! stale entry against already-published data, and a probing
//! transaction whose own family has pending writes on the query's
//! class tree skips the memo entirely (it must see its own writes).
//! Aborted data changes never touch the counters, so they never
//! invalidate (nor pollute) the memo.

use crate::rule::RuleDef;
use hipac_common::{EventId, ObjectId, RuleId, TxnId, Value};
use hipac_event::{DbEventData, EventSignal};
use hipac_object::expr::{BinOp, Expr};
use hipac_object::query::{Query, QueryResult};
use hipac_object::{ObjectStore, Schema};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The index metadata of one rule: how the network discriminates it.
/// Derived deterministically from the rule definition; persisted
/// alongside the rule (codec `g` records) so a reopened database
/// rebuilds the same network without re-deriving.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardSpec {
    /// Not discriminable: always a candidate within its type node.
    Residual,
    /// The first link of the rule's guard chain (the indexed key).
    Guarded {
        /// Class of the rule's first condition query.
        class: String,
        image: ImageRef,
        attr: String,
        op: GuardOp,
        value: Value,
        /// Union of `old.*`/`new.*` attribute names referenced by the
        /// whole first-query predicate: the naive delta path resolves
        /// them all eagerly, so if any fails to resolve against the
        /// event's class the rule must stay a candidate (to reproduce
        /// the naive error).
        ref_attrs: Vec<String>,
    },
}

/// One literal link of a guard chain, read as `image.attr ⟨op⟩ value`
/// (a literal-first comparison is flipped into this orientation).
struct Link<'a> {
    image: ImageRef,
    attr: &'a str,
    op: GuardOp,
    value: &'a Value,
}

impl Link<'_> {
    /// The evaluator's verdict on this link for the image value `v`:
    /// null compares false, anything else by [`Value`]'s total order.
    fn holds(&self, v: &Value) -> bool {
        if v.is_null() || self.value.is_null() {
            return false;
        }
        let ord = v.cmp(self.value);
        match self.op {
            GuardOp::Eq => ord.is_eq(),
            GuardOp::Lt => ord.is_lt(),
            GuardOp::Le => ord.is_le(),
            GuardOp::Gt => ord.is_gt(),
            GuardOp::Ge => ord.is_ge(),
        }
    }
}

/// Parse one conjunct as a literal link: `old.x ⟨cmp⟩ literal` /
/// `new.x ⟨cmp⟩ literal` in either orientation, `cmp` one of `=`, `<`,
/// `<=`, `>`, `>=`. This is the one definition of what counts as a
/// guard. Pre-resolved slot forms are *not* links: their stored index
/// could disagree with name resolution at evaluation time.
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
        Expr::OldAttr(n) => (ImageRef::Old, n.as_str()),
        Expr::NewAttr(n) => (ImageRef::New, n.as_str()),
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

/// A rule's guard chain: its first condition query, when that has the
/// delta-answerable shape, and the literal links its predicate opens
/// with, left to right up to the first conjunct of any other shape.
fn guard_chain(def: &RuleDef) -> Option<(&Query, impl Iterator<Item = Link<'_>>)> {
    let q0 = def.condition.first()?;
    if !crate::condition::ConditionEvaluator::delta_answerable_shape(q0) {
        return None;
    }
    let links = q0.predicate.conjuncts().into_iter().map_while(literal_link);
    Some((q0, links))
}

/// Derive a rule's guard spec from its definition: the first link of
/// its guard chain, or [`GuardSpec::Residual`] when the chain is empty.
pub fn derive_guard(def: &RuleDef) -> GuardSpec {
    let Some((q0, mut chain)) = guard_chain(def) else {
        return GuardSpec::Residual;
    };
    let Some(first) = chain.next() else {
        return GuardSpec::Residual;
    };
    let mut ref_attrs = Vec::new();
    collect_attr_names(&q0.predicate, &mut ref_attrs);
    ref_attrs.sort();
    ref_attrs.dedup();
    GuardSpec::Guarded {
        class: q0.class.clone(),
        image: first.image,
        attr: first.attr.to_owned(),
        op: first.op,
        value: first.value.clone(),
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

fn collect_attr_names(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::OldAttr(n) | Expr::NewAttr(n) => out.push(n.clone()),
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

#[derive(Default)]
struct Bounds {
    /// Rules matching inclusively at this key (`>=` / `<=`).
    inclusive: Vec<RuleId>,
    /// Rules matching strictly (`>` / `<`).
    strict: Vec<RuleId>,
}

impl Bounds {
    fn is_empty(&self) -> bool {
        self.inclusive.is_empty() && self.strict.is_empty()
    }
}

/// Shared discrimination node for one (class, image, attribute).
#[derive(Default)]
struct AttrDisc {
    eq: HashMap<Value, Vec<RuleId>>,
    /// Lower bounds: guards `attr >= key` / `attr > key`.
    lower: BTreeMap<Value, Bounds>,
    /// Upper bounds: guards `attr <= key` / `attr < key`.
    upper: BTreeMap<Value, Bounds>,
    /// Refcounted union of referenced attribute names across member
    /// rules. If any fails to resolve at probe time, the whole group
    /// stays candidates (conservative, see module docs).
    ref_attrs: HashMap<String, usize>,
    rules: usize,
}

/// One event definition's node.
#[derive(Default)]
struct TypeNode {
    groups: HashMap<GroupKey, AttrDisc>,
    residual: BTreeSet<RuleId>,
    /// Always-candidates with uncommitted definition changes.
    unstable: HashMap<RuleId, Mark>,
    /// Committed placement of every placed rule, for O(1) removal.
    placed: HashMap<RuleId, GuardSpec>,
}

impl TypeNode {
    fn is_empty(&self) -> bool {
        self.placed.is_empty() && self.unstable.is_empty()
    }

    /// All rules wired to this node, ascending (the full-candidate
    /// fallback; equals the naive list's sorted order).
    fn all_rules(&self) -> Vec<RuleId> {
        let mut out: Vec<RuleId> = self.placed.keys().copied().collect();
        out.extend(self.unstable.keys().copied());
        out.sort_unstable();
        out.dedup();
        out
    }

    fn size(&self) -> usize {
        let extra = self
            .unstable
            .keys()
            .filter(|rid| !self.placed.contains_key(rid))
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
    nodes: HashMap<EventId, TypeNode>,
    /// txn → rules it created (for promotion/retraction).
    created: HashMap<TxnId, Vec<(EventId, RuleId)>>,
    /// top txn → rules it has pending definition changes on.
    pending: HashMap<TxnId, Vec<(EventId, RuleId)>>,
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

    /// Unlink rules created by an aborted transaction (mirrors
    /// `retract_created_by`).
    pub fn retract_created(&self, txn: TxnId) {
        let mut inner = self.inner.write();
        let Some(entries) = inner.created.remove(&txn) else {
            return;
        };
        for (event, rid) in entries {
            let remove_node = match inner.nodes.get_mut(&event) {
                Some(node) => {
                    if node.unstable.get(&rid) == Some(&Mark::Created(txn)) {
                        node.unstable.remove(&rid);
                    }
                    node.is_empty()
                }
                None => false,
            };
            if remove_node {
                inner.nodes.remove(&event);
                self.stats.index_nodes.fetch_sub(1, Ordering::Relaxed);
            }
        }
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

    /// A definition change committed at top level: re-place the rule
    /// per its committed definition (`None` = deleted). `old_event` /
    /// `new_event` come from the catalog rewiring.
    pub fn commit_change(
        &self,
        old_event: EventId,
        new_event: EventId,
        rid: RuleId,
        def: Option<&RuleDef>,
    ) {
        let mut inner = self.inner.write();
        self.remove_rule(&mut inner.nodes, old_event, rid);
        if let Some(def) = def {
            let guard = derive_guard(def);
            self.place_rule(&mut inner.nodes, new_event, rid, guard);
        }
    }

    /// Drop the unstable marks owned by a finished top transaction
    /// whose rules were *not* re-placed (child-aborted changes, or a
    /// top abort): their committed placement is already correct.
    pub fn clear_top(&self, top: TxnId) {
        let mut inner = self.inner.write();
        for (event, rid) in inner.pending.remove(&top).unwrap_or_default() {
            let remove_node = match inner.nodes.get_mut(&event) {
                Some(node) => {
                    if node.unstable.get(&rid) == Some(&Mark::Pending(top)) {
                        node.unstable.remove(&rid);
                    }
                    node.is_empty()
                }
                None => false,
            };
            if remove_node {
                inner.nodes.remove(&event);
                self.stats.index_nodes.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Place a committed rule (durable reload and commit-time
    /// placement share this path).
    pub fn place_committed(&self, event: EventId, rid: RuleId, guard: GuardSpec) {
        let mut inner = self.inner.write();
        self.place_rule(&mut inner.nodes, event, rid, guard);
    }

    /// Resolve the candidate set for one signal: residual ∪ unstable ∪
    /// the bucket members whose whole guard chain passes, ascending by
    /// rule id (the naive list's order). `defs` reads a rule's committed
    /// definition in place (see [`DefLookup`]); it is called with the
    /// network's read lock held, so the lock order is network → rule
    /// store. Returns `None` when no rules are wired to the event.
    pub fn probe(
        &self,
        event: EventId,
        store: &ObjectStore,
        signal: &EventSignal,
        defs: DefLookup<'_>,
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
        let chain = ChainTest {
            schema: &schema,
            db,
            defs,
        };
        let mut out: Vec<RuleId> = node.residual.iter().copied().collect();
        out.extend(node.unstable.keys().copied());
        for ((class, image, attr), group) in &node.groups {
            // The naive delta path applies only when the query's class
            // is in the event's lineage; otherwise the store path's
            // eager delta folding errors — keep the group.
            if !db.class_lineage.contains(class) {
                all_of(group, &mut out);
                continue;
            }
            // Every referenced attribute must resolve against the
            // event's class, or naive's eager resolve errors.
            if group
                .ref_attrs
                .keys()
                .any(|n| schema.resolve_attr(db.class, n).is_err())
            {
                all_of(group, &mut out);
                continue;
            }
            let img = match image {
                ImageRef::Old => db.old.as_deref(),
                ImageRef::New => db.new.as_deref(),
            };
            // Missing image or out-of-range slot: naive errors — keep.
            let Some(img) = img else {
                all_of(group, &mut out);
                continue;
            };
            let slot = schema
                .resolve_attr(db.class, attr)
                .map(|(s, _)| s)
                .expect("checked by the ref_attrs union");
            let Some(v) = img.get(slot) else {
                all_of(group, &mut out);
                continue;
            };
            if v.is_null() {
                // Null compares false against everything: the guard is
                // false for every rule in the group — prune them all.
                continue;
            }
            if let Some(rules) = group.eq.get(v) {
                chain.take(rules, &mut out);
            }
            for (key, b) in group.lower.range::<Value, _>((Bound::Unbounded, Bound::Included(v)))
            {
                chain.take(&b.inclusive, &mut out);
                if key != v {
                    chain.take(&b.strict, &mut out);
                }
            }
            for (key, b) in group.upper.range::<Value, _>((Bound::Included(v), Bound::Unbounded))
            {
                chain.take(&b.inclusive, &mut out);
                if key != v {
                    chain.take(&b.strict, &mut out);
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
        nodes: &'a mut HashMap<EventId, TypeNode>,
        event: EventId,
    ) -> &'a mut TypeNode {
        nodes.entry(event).or_insert_with(|| {
            self.stats.index_nodes.fetch_add(1, Ordering::Relaxed);
            TypeNode::default()
        })
    }

    fn place_rule(
        &self,
        nodes: &mut HashMap<EventId, TypeNode>,
        event: EventId,
        rid: RuleId,
        guard: GuardSpec,
    ) {
        let mut delta: i64 = 0;
        let node = self.node_mut(nodes, event);
        node.unstable.remove(&rid);
        match &guard {
            GuardSpec::Residual => {
                node.residual.insert(rid);
            }
            GuardSpec::Guarded {
                class,
                image,
                attr,
                op,
                value,
                ref_attrs,
            } => {
                let key = (class.clone(), *image, attr.clone());
                let group = node.groups.entry(key).or_insert_with(|| {
                    delta += 1;
                    AttrDisc::default()
                });
                for a in ref_attrs {
                    *group.ref_attrs.entry(a.clone()).or_insert(0) += 1;
                }
                group.rules += 1;
                match op {
                    GuardOp::Eq => {
                        let bucket = group.eq.entry(value.clone()).or_insert_with(|| {
                            delta += 1;
                            Vec::new()
                        });
                        insert_sorted(bucket, rid);
                    }
                    GuardOp::Ge | GuardOp::Gt => {
                        let b = group.lower.entry(value.clone()).or_insert_with(|| {
                            delta += 1;
                            Bounds::default()
                        });
                        let list = if *op == GuardOp::Ge {
                            &mut b.inclusive
                        } else {
                            &mut b.strict
                        };
                        insert_sorted(list, rid);
                    }
                    GuardOp::Le | GuardOp::Lt => {
                        let b = group.upper.entry(value.clone()).or_insert_with(|| {
                            delta += 1;
                            Bounds::default()
                        });
                        let list = if *op == GuardOp::Le {
                            &mut b.inclusive
                        } else {
                            &mut b.strict
                        };
                        insert_sorted(list, rid);
                    }
                }
            }
        }
        node.placed.insert(rid, guard);
        if delta != 0 {
            self.stats
                .index_nodes
                .fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    fn remove_rule(
        &self,
        nodes: &mut HashMap<EventId, TypeNode>,
        event: EventId,
        rid: RuleId,
    ) {
        let Some(node) = nodes.get_mut(&event) else {
            return;
        };
        let mut delta: u64 = 0;
        node.unstable.remove(&rid);
        match node.placed.remove(&rid) {
            None => {}
            Some(GuardSpec::Residual) => {
                node.residual.remove(&rid);
            }
            Some(GuardSpec::Guarded {
                class,
                image,
                attr,
                op,
                value,
                ref_attrs,
            }) => {
                let key = (class, image, attr);
                if let Some(group) = node.groups.get_mut(&key) {
                    for a in &ref_attrs {
                        if let Some(c) = group.ref_attrs.get_mut(a) {
                            *c -= 1;
                            if *c == 0 {
                                group.ref_attrs.remove(a);
                            }
                        }
                    }
                    group.rules = group.rules.saturating_sub(1);
                    match op {
                        GuardOp::Eq => {
                            if let Some(bucket) = group.eq.get_mut(&value) {
                                bucket.retain(|r| *r != rid);
                                if bucket.is_empty() {
                                    group.eq.remove(&value);
                                    delta += 1;
                                }
                            }
                        }
                        GuardOp::Ge | GuardOp::Gt => {
                            if let Some(b) = group.lower.get_mut(&value) {
                                let list = if op == GuardOp::Ge {
                                    &mut b.inclusive
                                } else {
                                    &mut b.strict
                                };
                                list.retain(|r| *r != rid);
                                if b.is_empty() {
                                    group.lower.remove(&value);
                                    delta += 1;
                                }
                            }
                        }
                        GuardOp::Le | GuardOp::Lt => {
                            if let Some(b) = group.upper.get_mut(&value) {
                                let list = if op == GuardOp::Le {
                                    &mut b.inclusive
                                } else {
                                    &mut b.strict
                                };
                                list.retain(|r| *r != rid);
                                if b.is_empty() {
                                    group.upper.remove(&value);
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
        if node.is_empty() {
            nodes.remove(&event);
            delta += 1;
        }
        if delta != 0 {
            self.stats.index_nodes.fetch_sub(delta, Ordering::Relaxed);
        }
    }
}

/// Borrow a rule's committed definition in place: `defs(rid, f)` calls
/// `f` on it and returns `f`'s answer, or `None` when the rule has no
/// committed definition. The Rule Manager answers from its rule store
/// ([`hipac_txn::VersionStore::with_committed`]), so the network keeps
/// no copy of any rule's chain and clones no definition to test one.
pub type DefLookup<'a> = &'a dyn Fn(RuleId, &mut dyn FnMut(&RuleDef) -> bool) -> Option<bool>;

/// The guard-chain test of one probe: the signal's schema and delta,
/// and the rule store the chains are read from.
struct ChainTest<'a> {
    schema: &'a Schema,
    db: &'a DbEventData,
    defs: DefLookup<'a>,
}

impl ChainTest<'_> {
    /// Append the members of a passing guard bucket, minus those whose
    /// guard chain fails on this event.
    fn take(&self, rules: &[RuleId], out: &mut Vec<RuleId>) {
        out.extend(rules.iter().copied().filter(|&rid| !self.rejects(rid)));
    }

    fn rejects(&self, rid: RuleId) -> bool {
        (self.defs)(rid, &mut |def| self.chain_fails(def)).unwrap_or(false)
    }

    /// Does naive evaluation provably find `def`'s first query false,
    /// without error? Walk the chain in the evaluator's left-to-right
    /// order: a false link decides it (every link before it was a true
    /// comparison, and `and` short-circuits); a link whose image, slot
    /// or attribute is missing is one the evaluator would error on, so
    /// the rule is kept; a chain that passes leaves the decision to the
    /// evaluator.
    fn chain_fails(&self, def: &RuleDef) -> bool {
        let Some((_, links)) = guard_chain(def) else {
            return false;
        };
        for link in links {
            let img = match link.image {
                ImageRef::Old => self.db.old.as_deref(),
                ImageRef::New => self.db.new.as_deref(),
            };
            let Some(img) = img else { return false };
            let Ok((slot, _)) = self.schema.resolve_attr(self.db.class, link.attr) else {
                return false;
            };
            let Some(v) = img.get(slot) else { return false };
            if !link.holds(v) {
                return true;
            }
        }
        false
    }
}

fn all_of(group: &AttrDisc, out: &mut Vec<RuleId>) {
    for rules in group.eq.values() {
        out.extend_from_slice(rules);
    }
    for b in group.lower.values().chain(group.upper.values()) {
        out.extend_from_slice(&b.inclusive);
        out.extend_from_slice(&b.strict);
    }
}

fn insert_sorted(list: &mut Vec<RuleId>, rid: RuleId) {
    if let Err(pos) = list.binary_search(&rid) {
        list.insert(pos, rid);
    }
}

// ---------------------------------------------------------------------
// Memoized partial matches
// ---------------------------------------------------------------------

/// One memoized store-path query result.
struct MemoEntry {
    /// The Object Manager's committed-data stamp of the query's class
    /// at fill time.
    stamp: (u64, u64),
    oids: Vec<ObjectId>,
    rows: QueryResult,
}

/// Memo counters.
#[derive(Debug, Default)]
pub struct MemoStats {
    pub hits: AtomicU64,
    pub fills: AtomicU64,
    /// Entries found stale (stamp mismatch) or evicted.
    pub invalidations: AtomicU64,
}

/// Committed-data query memo: the network's shared subexpression
/// nodes. Entries validate against [`ObjectStore::data_stamp`]; a hit
/// re-acquires the query's locking footprint (class + row read locks)
/// and re-validates, so a hit is indistinguishable — locks included —
/// from re-running the query.
pub struct MemoTable {
    entries: Mutex<HashMap<Query, MemoEntry>>,
    capacity: usize,
    stats: MemoStats,
}

impl MemoTable {
    pub fn new(capacity: usize) -> MemoTable {
        MemoTable {
            entries: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            stats: MemoStats::default(),
        }
    }

    pub fn stats(&self) -> &MemoStats {
        &self.stats
    }

    /// Number of live entries (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is `query` memoizable? Only pure committed-data queries: no
    /// delta references (the caller memoizes *folded* queries, where
    /// deltas became literals) and no parameters (results would depend
    /// on bindings outside the key).
    pub fn eligible(query: &Query) -> bool {
        fn pure(e: &Expr) -> bool {
            match e {
                Expr::Literal(_) | Expr::Attr(_) | Expr::Slot(..) => true,
                Expr::Param(_)
                | Expr::OldAttr(_)
                | Expr::OldSlot(..)
                | Expr::NewAttr(_)
                | Expr::NewSlot(..) => false,
                Expr::Unary(_, x) => pure(x),
                Expr::Binary(_, l, r) => pure(l) && pure(r),
                Expr::Call(_, args) => args.iter().all(pure),
            }
        }
        pure(&query.predicate)
    }

    /// Try to answer `query` from the memo. `Ok(None)` means "run the
    /// real query" (no entry, stale entry, unstable stamp, or the
    /// probing family has pending writes on the class tree).
    pub fn lookup(
        &self,
        store: &ObjectStore,
        txn: TxnId,
        query: &Query,
    ) -> hipac_common::Result<Option<QueryResult>> {
        if store.family_dirty(txn, &query.class) {
            return Ok(None);
        }
        let Some(stamp) = store.data_stamp(&query.class) else {
            return Ok(None);
        };
        let (entry_stamp, oids, rows) = {
            let mut entries = self.entries.lock();
            let Some(entry) = entries.get(query) else {
                return Ok(None);
            };
            if entry.stamp != stamp {
                entries.remove(query);
                self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            (entry.stamp, entry.oids.clone(), entry.rows.clone())
        };
        // Same locking footprint as the query itself; may block on a
        // concurrent writer — in which case the re-validation below
        // catches whatever it published.
        store.lock_rows_read(txn, &query.class, &oids)?;
        if store.data_stamp(&query.class) != Some(entry_stamp) {
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().remove(query);
            return Ok(None);
        }
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(rows))
    }

    /// Record a query result computed against a stable committed
    /// stamp. `stamp_before` is the class stamp taken *before* the
    /// query ran; the entry is kept only if the stamp still holds (no
    /// commit published meanwhile) and the family is clean (the result
    /// reflects committed data only).
    pub fn fill(
        &self,
        store: &ObjectStore,
        txn: TxnId,
        query: &Query,
        stamp_before: Option<(u64, u64)>,
        rows: &QueryResult,
    ) {
        let Some(stamp) = stamp_before else { return };
        if store.family_dirty(txn, &query.class) {
            return;
        }
        if store.data_stamp(&query.class) != Some(stamp) {
            return;
        }
        let mut entries = self.entries.lock();
        if entries.len() >= self.capacity && !entries.contains_key(query) {
            // Evict stale entries first; if none, drop an arbitrary one.
            let stale: Vec<Query> = entries
                .iter()
                .filter(|(q, e)| store.data_stamp(&q.class) != Some(e.stamp))
                .map(|(q, _)| q.clone())
                .take(16)
                .collect();
            let evicted = stale.len().max(1);
            if stale.is_empty() {
                if let Some(q) = entries.keys().next().cloned() {
                    entries.remove(&q);
                }
            } else {
                for q in stale {
                    entries.remove(&q);
                }
            }
            self.stats
                .invalidations
                .fetch_add(evicted as u64, Ordering::Relaxed);
        }
        self.stats.fills.fetch_add(1, Ordering::Relaxed);
        entries.insert(
            query.clone(),
            MemoEntry {
                stamp,
                oids: rows.iter().map(|r| r.oid).collect(),
                rows: rows.clone(),
            },
        );
    }
}

//! Prepared queries (§5.1): a query resolved once against one catalog
//! generation, then executed many times.
//!
//! Preparing does the work that depends on the catalog, not on the
//! data. It finds the queried class, picks the access path (an index
//! probe with its index slot and probe source, or a scan), resolves the
//! predicate's references to row slots and the projection's attributes
//! to slots.
//! Layouts are prefix-inherited: a subclass's layout is its
//! superclass's followed by its own attributes, and names are unique
//! across a layout. So what resolves against the queried class resolves
//! to the same slots in every member class. Only when something does not
//! resolve against the queried class (a subclass attribute named in a
//! superclass query) does each member class get a resolution of its own;
//! the failure then surfaces on the first row of a class that lacks the
//! attribute, not when the query is prepared.
//!
//! Delta references (`old.x`, `new.x`) are bound at execution through
//! [`Bindings`](crate::expr::Bindings). Prepared for an event class,
//! they resolve against that class's layout and an equality against one
//! of them can drive an index probe; prepared without one (an
//! application query), they resolve like plain attributes.

use crate::expr::{BinOp, Expr, RefKind};
use crate::query::{Plan, Query};
use crate::schema::Schema;
use hipac_common::{ClassId, HipacError, Result};

/// How the executor reaches its candidate rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Scan the polymorphic extent.
    Scan,
    /// Probe the index on `slot` of every member class with one side of
    /// the `conjunct`-th top-level conjunct, `attr = probe`.
    IndexEq {
        slot: u32,
        conjunct: u32,
        probe_right: bool,
    },
}

/// A member class's own resolution, kept only when the queried class's
/// failed.
#[derive(Debug, Clone)]
struct ClassForm {
    class: ClassId,
    predicate: Result<Expr>,
    projection: Result<Option<Box<[usize]>>>,
}

/// A query resolved against one catalog generation. Build one with
/// [`ObjectStore::prepare`](crate::ObjectStore::prepare) and run it with
/// [`ObjectStore::execute`](crate::ObjectStore::execute), which prepares
/// it again only when the catalog it was built for is no longer the one
/// the executing transaction sees.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The source query, its predicate resolved where the queried
    /// class's layout allows. It reads, compares and encodes as the
    /// query it was prepared from.
    query: Query,
    /// The committed catalog generation it was prepared against; `None`
    /// when DDL was pending on the preparing transaction's chain.
    generation: Option<u64>,
    root: ClassId,
    /// The event class its delta references resolve against.
    delta: Option<ClassId>,
    pub(crate) access: Access,
    projection: Option<Box<[usize]>>,
    /// Each member class's resolution, when the queried class's failed.
    per_class: Option<Box<[ClassForm]>>,
}

impl PreparedQuery {
    /// Prepare `query` against `schema`, the catalog of `generation`.
    /// With `delta`, the predicate's `old.x`/`new.x` references resolve
    /// against that event class's layout; an unknown one fails here,
    /// before anything else. An unknown queried class fails too; a
    /// reference or projected attribute the queried class lacks does
    /// not (see the module comment).
    pub fn new(
        schema: &Schema,
        generation: Option<u64>,
        query: &Query,
        delta: Option<ClassId>,
    ) -> Result<PreparedQuery> {
        let source = match delta {
            Some(event) => Some(query.predicate.resolve_refs(
                &mut |kind, name, slot| match kind {
                    RefKind::Attr => Ok(slot),
                    RefKind::Old | RefKind::New => {
                        schema.resolve_attr(event, name).map(|(s, _)| Some(s))
                    }
                },
            )?),
            None => None,
        };
        let source = source.as_ref().unwrap_or(&query.predicate);
        let root = schema.class_by_name(&query.class)?.id;
        // Row references, and delta references too when there is no
        // event class, resolve against `class`; a miss leaves the name.
        let rows = |class: ClassId, lenient: bool| {
            source.resolve_refs(&mut |kind, name, slot| {
                if kind != RefKind::Attr && delta.is_some() {
                    return Ok(slot);
                }
                match schema.resolve_attr(class, name) {
                    Ok((s, _)) => Ok(Some(s)),
                    Err(_) if lenient => Ok(None),
                    Err(e) => Err(e),
                }
            })
        };
        let projected = |class: ClassId| -> Result<Option<Box<[usize]>>> {
            query
                .projection
                .as_ref()
                .map(|attrs| {
                    attrs
                        .iter()
                        .map(|a| schema.resolve_attr(class, a).map(|(s, _)| s))
                        .collect()
                })
                .transpose()
        };
        let (predicate, projection, per_class) = match (rows(root, false), projected(root)) {
            (Ok(predicate), Ok(projection)) => (predicate, projection, None),
            _ => {
                let forms = schema
                    .members(root)?
                    .iter()
                    .map(|&class| ClassForm {
                        class,
                        predicate: rows(class, false),
                        projection: projected(class),
                    })
                    .collect();
                // What the queried class does resolve still plans.
                (rows(root, true)?, None, Some(forms))
            }
        };
        let access = Self::access(schema, root, &predicate, delta.is_some());
        Ok(PreparedQuery {
            query: Query {
                class: query.class.clone(),
                predicate,
                projection: query.projection.clone(),
            },
            generation,
            root,
            delta,
            access,
            projection,
            per_class,
        })
    }

    /// The first top-level conjunct `attr = probe` over an indexed
    /// attribute of the queried class, `probe` being a literal, a
    /// parameter or (with an event class) a delta reference.
    fn access(schema: &Schema, root: ClassId, predicate: &Expr, delta: bool) -> Access {
        let indexed = |slot: usize| {
            schema
                .layout(root)
                .is_ok_and(|mut layout| layout.nth(slot).is_some_and(|a| a.indexed))
        };
        for (k, conjunct) in predicate.conjuncts().into_iter().enumerate() {
            let Expr::Binary(BinOp::Eq, l, r) = conjunct else {
                continue;
            };
            for (probe_right, attr, probe) in [(true, l, r), (false, r, l)] {
                let Expr::Slot(slot, _) = **attr else {
                    continue;
                };
                let probe_source = match **probe {
                    Expr::Literal(_) | Expr::Param(_) => true,
                    Expr::OldSlot(..) | Expr::NewSlot(..) => delta,
                    _ => false,
                };
                if probe_source && indexed(slot) {
                    return Access::IndexEq {
                        slot: slot as u32,
                        conjunct: k as u32,
                        probe_right,
                    };
                }
            }
        }
        Access::Scan
    }

    /// The query, its references resolved (they read as their names).
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The catalog generation it was prepared against (`None`: under
    /// DDL pending on the preparing transaction's chain).
    pub fn generation(&self) -> Option<u64> {
        self.generation
    }

    /// The queried class.
    pub fn class(&self) -> ClassId {
        self.root
    }

    /// The event class its delta references resolve against.
    pub fn delta_class(&self) -> Option<ClassId> {
        self.delta
    }

    /// The access path, as `EXPLAIN`-style diagnostics show it.
    pub fn plan(&self, schema: &Schema) -> Plan {
        match self.access {
            Access::Scan => Plan::Scan,
            Access::IndexEq { slot, .. } => Plan::IndexEq {
                attr: schema
                    .layout(self.root)
                    .ok()
                    .and_then(|mut layout| layout.nth(slot as usize))
                    .map(|a| a.name.clone())
                    .unwrap_or_default(),
            },
        }
    }

    /// The index probe's source expression.
    pub(crate) fn probe(&self) -> Option<&Expr> {
        let Access::IndexEq {
            conjunct,
            probe_right,
            ..
        } = self.access
        else {
            return None;
        };
        match self.query.predicate.conjunct(conjunct as usize)? {
            Expr::Binary(BinOp::Eq, l, r) => Some(if probe_right { r } else { l }),
            _ => None,
        }
    }

    /// The predicate for a row of the member class `class`.
    pub(crate) fn predicate_for(&self, class: ClassId) -> Result<&Expr> {
        match &self.per_class {
            None => Ok(&self.query.predicate),
            Some(_) => self.form(class)?.predicate.as_ref().map_err(Clone::clone),
        }
    }

    /// The projected slots for a row of the member class `class`
    /// (`None`: the whole row).
    pub(crate) fn projection_for(&self, class: ClassId) -> Result<Option<&[usize]>> {
        match &self.per_class {
            None => Ok(self.projection.as_deref()),
            Some(_) => match &self.form(class)?.projection {
                Ok(slots) => Ok(slots.as_deref()),
                Err(e) => Err(e.clone()),
            },
        }
    }

    fn form(&self, class: ClassId) -> Result<&ClassForm> {
        self.per_class
            .iter()
            .flat_map(|forms| forms.iter())
            .find(|f| f.class == class)
            .ok_or_else(|| HipacError::internal(format!("{class} is not a member class")))
    }
}

//! Classes, attributes and the schema catalog.
//!
//! The data model is object-oriented (§2 of the paper): classes with
//! typed attributes and single inheritance. A subclass inherits all of
//! its ancestors' attributes; its instances appear in superclass
//! extents ("polymorphic scan").
//!
//! A [`Schema`] is an immutable snapshot of the catalog. The object
//! store builds one per committed catalog generation and shares it by
//! `Arc` with every reader whose transaction has no DDL pending, so
//! [`Schema::new`] runs once per catalog change. It resolves each
//! class's full layout then, into a slot table; attribute resolution
//! and row checks walk that table and allocate nothing.

use hipac_common::{codec, ClassId, HipacError, Result, ValueType};

/// Definition of one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    pub name: String,
    pub ty: ValueType,
    /// `Null` storable when true.
    pub nullable: bool,
    /// Maintain a secondary index over this attribute.
    pub indexed: bool,
}

impl AttrDef {
    /// A required (non-null), unindexed attribute.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        AttrDef {
            name: name.into(),
            ty,
            nullable: false,
            indexed: false,
        }
    }

    /// Mark nullable.
    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }

    /// Mark indexed.
    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }
}

/// Definition of a class.
///
/// `attrs` holds only the attributes declared on this class; the full
/// layout of an instance is the concatenation of all ancestors'
/// attributes (root first) followed by `attrs` — see
/// [`Schema::layout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    pub id: ClassId,
    pub name: String,
    pub superclass: Option<ClassId>,
    pub attrs: Vec<AttrDef>,
    /// System classes (the rule class) are hidden from user DDL.
    pub system: bool,
}

hipac_common::wire_struct! { AttrDef { name, ty, nullable, indexed } }
hipac_common::wire_struct! { ClassDef { id, name, superclass, system, attrs } }

impl ClassDef {
    /// Serialize for the durable store.
    pub fn encode(&self) -> Vec<u8> {
        codec::to_bytes(self)
    }

    /// Inverse of [`ClassDef::encode`].
    pub fn decode(buf: &[u8]) -> Result<ClassDef> {
        codec::from_bytes(buf)
    }
}

/// A resolved, immutable view of the class hierarchy as one transaction
/// sees it. Built by the object store from its versioned catalog and
/// handed to the planner/executor.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// Ascending by id.
    classes: Vec<ClassDef>,
    /// Parallel to `classes`: each class's full layout as
    /// `(class position, attribute position)` pairs, ancestors' slots
    /// first — or why it has none (an unknown superclass, a cycle).
    layouts: Vec<Result<Vec<(usize, usize)>>>,
}

impl Schema {
    /// Build from a list of class definitions, resolving every class's
    /// layout once.
    pub fn new(mut classes: Vec<ClassDef>) -> Self {
        classes.sort_by_key(|c| c.id);
        let mut schema = Schema {
            classes,
            layouts: Vec::new(),
        };
        schema.layouts = (0..schema.classes.len())
            .map(|pos| schema.resolve_layout(pos))
            .collect();
        schema
    }

    /// Walk `pos`'s superclass chain into its layout table.
    fn resolve_layout(&self, pos: usize) -> Result<Vec<(usize, usize)>> {
        let mut chain = Vec::new();
        let mut cur = Some(pos);
        while let Some(p) = cur {
            chain.push(p);
            if chain.len() > self.classes.len() {
                return Err(HipacError::Corruption("class hierarchy cycle".into()));
            }
            cur = self.classes[p]
                .superclass
                .map(|sup| self.position(sup))
                .transpose()?;
        }
        Ok(chain
            .into_iter()
            .rev()
            .flat_map(|p| (0..self.classes[p].attrs.len()).map(move |a| (p, a)))
            .collect())
    }

    fn position(&self, id: ClassId) -> Result<usize> {
        self.classes
            .binary_search_by_key(&id, |c| c.id)
            .map_err(|_| HipacError::UnknownClass(id.to_string()))
    }

    /// Look up a class by name.
    pub fn class_by_name(&self, name: &str) -> Result<&ClassDef> {
        self.classes
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| HipacError::UnknownClass(name.to_owned()))
    }

    /// Look up a class by id.
    pub fn class(&self, id: ClassId) -> Result<&ClassDef> {
        Ok(&self.classes[self.position(id)?])
    }

    /// All classes, ascending by id.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// Full attribute layout of `id`: ancestors' attributes (root
    /// first), then own, one per slot. Instances store one value per
    /// layout slot.
    pub fn layout(&self, id: ClassId) -> Result<impl ExactSizeIterator<Item = &AttrDef> + '_> {
        let table = self.layouts[self.position(id)?]
            .as_ref()
            .map_err(Clone::clone)?;
        Ok(table.iter().map(|&(c, a)| &self.classes[c].attrs[a]))
    }

    /// Position and definition of attribute `name` in `class`'s layout.
    pub fn resolve_attr(&self, class: ClassId, name: &str) -> Result<(usize, &AttrDef)> {
        self.layout(class)?
            .enumerate()
            .find(|(_, a)| a.name == name)
            .ok_or_else(|| HipacError::UnknownAttribute(format!("{name} (in {class})")))
    }

    /// Is `sub` equal to or a (transitive) subclass of `sup`?
    pub fn is_subclass_or_self(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        let mut steps = 0;
        while let Some(cid) = cur {
            if cid == sup {
                return true;
            }
            cur = self.class(cid).ok().and_then(|c| c.superclass);
            steps += 1;
            if steps > self.classes.len() {
                return false;
            }
        }
        false
    }

    /// Ids of `sup` and all of its (transitive) subclasses.
    pub fn subclasses_inclusive(&self, sup: ClassId) -> Vec<ClassId> {
        self.classes
            .iter()
            .filter(|c| self.is_subclass_or_self(c.id, sup))
            .map(|c| c.id)
            .collect()
    }

    /// Validate a row of attribute values against the layout of
    /// `class` (arity, types, nullability).
    pub fn check_row(&self, class: ClassId, values: &[hipac_common::Value]) -> Result<()> {
        let layout = self.layout(class)?;
        if layout.len() != values.len() {
            return Err(HipacError::ConstraintViolation(format!(
                "class {class} expects {} attributes, got {}",
                layout.len(),
                values.len()
            )));
        }
        for (attr, value) in layout.zip(values) {
            if value.is_null() {
                if !attr.nullable {
                    return Err(HipacError::ConstraintViolation(format!(
                        "attribute {} is not nullable",
                        attr.name
                    )));
                }
                continue;
            }
            if !value.conforms_to(attr.ty) {
                return Err(HipacError::TypeError(format!(
                    "attribute {} expects {}, got {}",
                    attr.name,
                    attr.ty,
                    value.value_type()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipac_common::Value;

    fn sample() -> Schema {
        Schema::new(vec![
            ClassDef {
                id: ClassId(1),
                name: "security".into(),
                superclass: None,
                attrs: vec![
                    AttrDef::new("symbol", ValueType::Str).indexed(),
                    AttrDef::new("price", ValueType::Float),
                ],
                system: false,
            },
            ClassDef {
                id: ClassId(2),
                name: "stock".into(),
                superclass: Some(ClassId(1)),
                attrs: vec![AttrDef::new("exchange", ValueType::Str).nullable()],
                system: false,
            },
            ClassDef {
                id: ClassId(3),
                name: "bond".into(),
                superclass: Some(ClassId(1)),
                attrs: vec![AttrDef::new("maturity", ValueType::Timestamp)],
                system: false,
            },
        ])
    }

    #[test]
    fn lookup_by_name_and_id() {
        let s = sample();
        assert_eq!(s.class_by_name("stock").unwrap().id, ClassId(2));
        assert_eq!(s.class(ClassId(3)).unwrap().name, "bond");
        assert!(s.class_by_name("nope").is_err());
    }

    #[test]
    fn layout_concatenates_inherited_attributes() {
        let s = sample();
        let names: Vec<&str> = s
            .layout(ClassId(2))
            .unwrap()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["symbol", "price", "exchange"]);
        let (pos, def) = s.resolve_attr(ClassId(2), "price").unwrap();
        assert_eq!(pos, 1);
        assert_eq!(def.ty, ValueType::Float);
        let (pos, _) = s.resolve_attr(ClassId(2), "exchange").unwrap();
        assert_eq!(pos, 2);
        assert!(s.resolve_attr(ClassId(1), "exchange").is_err());
    }

    #[test]
    fn broken_hierarchies_have_no_layout() {
        let class = |id: u64, superclass: Option<u64>| ClassDef {
            id: ClassId(id),
            name: format!("c{id}"),
            superclass: superclass.map(ClassId),
            attrs: vec![AttrDef::new(format!("a{id}"), ValueType::Int)],
            system: false,
        };
        // Out of id order on purpose: the table sorts by id.
        let s = Schema::new(vec![
            class(3, Some(9)),
            class(2, Some(1)),
            class(1, Some(2)),
        ]);
        assert!(matches!(
            s.layout(ClassId(3)),
            Err(HipacError::UnknownClass(_))
        ));
        assert!(matches!(
            s.layout(ClassId(1)),
            Err(HipacError::Corruption(_))
        ));
        assert!(s.resolve_attr(ClassId(2), "a2").is_err());
        assert_eq!(s.classes()[0].id, ClassId(1));
    }

    #[test]
    fn subclass_relation() {
        let s = sample();
        assert!(s.is_subclass_or_self(ClassId(2), ClassId(1)));
        assert!(s.is_subclass_or_self(ClassId(1), ClassId(1)));
        assert!(!s.is_subclass_or_self(ClassId(1), ClassId(2)));
        assert!(!s.is_subclass_or_self(ClassId(2), ClassId(3)));
        let mut subs = s.subclasses_inclusive(ClassId(1));
        subs.sort();
        assert_eq!(subs, vec![ClassId(1), ClassId(2), ClassId(3)]);
    }

    #[test]
    fn classdef_codec_roundtrip() {
        let s = sample();
        for def in s.classes() {
            let enc = def.encode();
            assert_eq!(&ClassDef::decode(&enc).unwrap(), def);
            for cut in 0..enc.len() {
                assert!(ClassDef::decode(&enc[..cut]).is_err(), "cut at {cut}");
            }
        }
        let sys = ClassDef {
            id: ClassId(99),
            name: "__rule".into(),
            superclass: None,
            attrs: vec![],
            system: true,
        };
        assert_eq!(ClassDef::decode(&sys.encode()).unwrap(), sys);
    }

    /// `nullable` and `indexed` are written as 0 or 1; any other byte is
    /// corruption, not `false`.
    #[test]
    fn classdef_codec_rejects_flag_bytes_other_than_0_and_1() {
        let def = ClassDef {
            id: ClassId(5),
            name: "c".into(),
            superclass: None,
            attrs: vec![AttrDef::new("a", ValueType::Int)],
            system: false,
        };
        let enc = def.encode();
        // The record ends with the attribute's nullable and indexed bytes.
        let (nullable, indexed) = (enc.len() - 2, enc.len() - 1);
        for at in [nullable, indexed] {
            let mut bad = enc.clone();
            bad[at] = 2;
            assert!(
                ClassDef::decode(&bad).is_err(),
                "flag byte 2 at {at} accepted"
            );
            bad[at] = 1;
            assert!(ClassDef::decode(&bad).is_ok());
        }
    }

    #[test]
    fn row_validation() {
        let s = sample();
        // stock: symbol, price, exchange(nullable)
        s.check_row(
            ClassId(2),
            &[Value::from("XRX"), Value::from(49.5), Value::Null],
        )
        .unwrap();
        // wrong arity
        assert!(s.check_row(ClassId(2), &[Value::from("XRX")]).is_err());
        // non-nullable null
        assert!(s
            .check_row(ClassId(2), &[Value::Null, Value::from(1.0), Value::Null])
            .is_err());
        // type error
        assert!(s
            .check_row(
                ClassId(2),
                &[Value::from("XRX"), Value::from("fifty"), Value::Null]
            )
            .is_err());
        // int widens to float
        s.check_row(
            ClassId(2),
            &[Value::from("XRX"), Value::from(50), Value::from("NYSE")],
        )
        .unwrap();
    }
}

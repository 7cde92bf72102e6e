//! Select-project queries over class extents.
//!
//! A rule condition is "a collection of queries … satisfied if all of
//! these queries produce non-empty results" (§2.1); those queries are
//! [`Query`] values. Applications use the same type through the Object
//! Manager's *execute operation* interface.

use crate::expr::Expr;
use crate::parser::parse_expr;
use hipac_common::{ClassId, HipacError, ObjectId, Result, Value};

/// A query: scan the (polymorphic) extent of `class`, keep rows
/// satisfying `predicate`, optionally projecting `projection`
/// attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    pub class: String,
    pub predicate: Expr,
    /// Attribute names to return; `None` returns the full layout.
    pub projection: Option<Vec<String>>,
}

hipac_common::wire_struct! { Query { class, predicate, projection } }

impl Query {
    /// Query returning every instance of `class`.
    pub fn all(class: impl Into<String>) -> Query {
        Query {
            class: class.into(),
            predicate: Expr::lit(true),
            projection: None,
        }
    }

    /// Query with a predicate.
    pub fn filtered(class: impl Into<String>, predicate: Expr) -> Query {
        Query {
            class: class.into(),
            predicate,
            projection: None,
        }
    }

    /// Restrict the returned attributes.
    pub fn select(mut self, attrs: Vec<String>) -> Query {
        self.projection = Some(attrs);
        self
    }

    /// Parse the textual form:
    ///
    /// ```text
    /// from <class> [where <expr>] [select <attr>, <attr>, ...]
    /// ```
    ///
    /// ```
    /// use hipac_object::Query;
    /// let q = Query::parse("from stock where price >= 50.0 select symbol").unwrap();
    /// assert_eq!(q.class, "stock");
    /// assert_eq!(q.projection, Some(vec!["symbol".to_string()]));
    /// assert_eq!(q.predicate.to_string(), "price >= 50.0");
    /// ```
    pub fn parse(src: &str) -> Result<Query> {
        let src = src.trim();
        let rest = src.strip_prefix("from ").ok_or_else(|| HipacError::ParseError {
            position: 0,
            message: "query must start with 'from <class>'".into(),
        })?;
        let rest = rest.trim_start();
        let class_end = rest
            .find(|c: char| c.is_whitespace())
            .unwrap_or(rest.len());
        let class = &rest[..class_end];
        if class.is_empty() {
            return Err(HipacError::ParseError {
                position: 5,
                message: "missing class name".into(),
            });
        }
        let mut tail = rest[class_end..].trim_start();
        // Optional trailing `select …` (scan from the end so `where`
        // expressions may not contain the keyword unquoted).
        let mut projection = None;
        if let Some(idx) = tail.rfind("select ") {
            // Only treat it as the projection clause if it is either at
            // the start or preceded by whitespace.
            let at_boundary = idx == 0
                || tail[..idx]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_whitespace());
            if at_boundary {
                let attrs: Vec<String> = tail[idx + "select ".len()..]
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
                if attrs.is_empty() {
                    return Err(HipacError::ParseError {
                        position: idx,
                        message: "empty select list".into(),
                    });
                }
                projection = Some(attrs);
                tail = tail[..idx].trim_end();
            }
        }
        let predicate = if let Some(w) = tail.strip_prefix("where ") {
            parse_expr(w)?
        } else if tail.is_empty() {
            Expr::lit(true)
        } else {
            return Err(HipacError::ParseError {
                position: src.len() - tail.len(),
                message: format!("unexpected query clause: {tail:?}"),
            });
        };
        Ok(Query {
            class: class.to_owned(),
            predicate,
            projection,
        })
    }
}

/// One result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub oid: ObjectId,
    /// Concrete class of the instance (may be a subclass of the queried
    /// class).
    pub class: ClassId,
    pub values: Vec<Value>,
}

/// Result of a query.
pub type QueryResult = Vec<Row>;

/// How the executor will run a query (exposed for tests, benches and
/// `EXPLAIN`-style diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Probe the secondary index of `attr` on the queried class (and
    /// each subclass) with an equality value, then re-check the full
    /// predicate on candidates.
    IndexEq { attr: String },
    /// Scan the polymorphic extent.
    Scan,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn parse_full_form() {
        let q = Query::parse("from stock where price >= 50 select symbol, price").unwrap();
        assert_eq!(q.class, "stock");
        assert_eq!(
            q.predicate,
            Expr::attr("price").bin(BinOp::Ge, Expr::lit(50))
        );
        assert_eq!(
            q.projection,
            Some(vec!["symbol".to_string(), "price".to_string()])
        );
    }

    #[test]
    fn parse_minimal_form() {
        let q = Query::parse("from stock").unwrap();
        assert_eq!(q.class, "stock");
        assert_eq!(q.predicate, Expr::lit(true));
        assert_eq!(q.projection, None);
    }

    #[test]
    fn parse_where_only_and_select_only() {
        let q = Query::parse("from stock where symbol = \"XRX\"").unwrap();
        assert!(q.projection.is_none());
        let q = Query::parse("from stock select symbol").unwrap();
        assert_eq!(q.predicate, Expr::lit(true));
        assert_eq!(q.projection, Some(vec!["symbol".to_string()]));
    }

    #[test]
    fn parse_errors() {
        assert!(Query::parse("stock where x = 1").is_err());
        assert!(Query::parse("from ").is_err());
        assert!(Query::parse("from stock banana").is_err());
        assert!(Query::parse("from stock where price >=").is_err());
        assert!(Query::parse("from stock select ").is_err());
    }

    #[test]
    fn builders() {
        let q = Query::filtered("stock", Expr::attr("price").bin(BinOp::Gt, Expr::lit(1)))
            .select(vec!["price".into()]);
        assert_eq!(q.class, "stock");
        assert!(q.projection.is_some());
        let q = Query::all("bond");
        assert_eq!(q.predicate, Expr::lit(true));
    }
}

//! A disk-backed B+tree mapping byte keys to byte values.
//!
//! Each node is one length-prefixed serialized record in its own
//! buffer-pool page, and is read and changed where it lies: a lookup or
//! descent parses the header and scans the entries borrowed from the
//! page guard, building nothing and cloning only the value it returns;
//! a leaf upsert or delete that neither splits nor underflows writes
//! the new node bytes once, spliced from the old page's slices and the
//! new entry. Only the rare split, merge and redistribute paths decode
//! a node into an owned [`Node`], change it and re-encode it — in the
//! same format, so either writer can follow the other. Keys are unique;
//! `insert` is an upsert. Leaves are chained for range scans.
//!
//! Sizing is byte-based rather than arity-based: a node splits when its
//! serialized form outgrows a page and is rebalanced (merged with or
//! refilled from a sibling) when it shrinks below a quarter page.
//! `key.len() + value.len()` is capped at [`MAX_ENTRY`] so that any two
//! entries always fit one page.
//!
//! Pages freed by merges are leaked until the next durable-store
//! checkpoint, which rebuilds the tree into a fresh file with
//! [`BTree::bulk_load`] — one pass over the sorted entries, every node
//! serialized once. Until the tree has a free list that rewrite is the
//! only reclaimer, which is why the checkpoint still compacts instead of
//! flushing dirty pages in place.

use crate::buffer::{BufferPool, PageRef};
use crate::page::{Page, PageId, PAGE_SIZE};
use hipac_common::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use hipac_common::{HipacError, Result};
use parking_lot::{RwLock, RwLockReadGuard};
use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::Arc;

/// Maximum `key.len() + value.len()` for one entry.
pub const MAX_ENTRY: usize = 1024;
/// Serialized-node byte budget per page.
const NODE_CAPACITY: usize = PAGE_SIZE - 8;
/// Nodes smaller than this (in serialized bytes) are rebalanced.
const UNDERFLOW: usize = NODE_CAPACITY / 4;

/// Upper bound on a node's serialized header (type, next/count varints).
const NODE_HEADER: usize = 16;
/// Upper bound on a serialized child pointer (a varint page id).
const CHILD_POINTER: usize = 10;

/// Serialized size of the varint `v`.
fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Serialized size of a length-prefixed byte string.
fn encoded_len(bytes: &[u8]) -> usize {
    uvarint_len(bytes.len() as u64) + bytes.len()
}

const TYPE_LEAF: u8 = 1;
const TYPE_INTERNAL: u8 = 2;

/// A node decoded into owned entries: the split/merge/redistribute
/// representation, and the format's reference codec.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        next: PageId,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    Internal {
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.size());
        match self {
            Node::Leaf { next, entries } => {
                buf.push(TYPE_LEAF);
                put_uvarint(&mut buf, next.0);
                put_uvarint(&mut buf, entries.len() as u64);
                for (k, v) in entries {
                    put_bytes(&mut buf, k);
                    put_bytes(&mut buf, v);
                }
            }
            Node::Internal { keys, children } => {
                buf.push(TYPE_INTERNAL);
                put_uvarint(&mut buf, keys.len() as u64);
                for k in keys {
                    put_bytes(&mut buf, k);
                }
                for c in children {
                    put_uvarint(&mut buf, c.0);
                }
            }
        }
        buf
    }

    fn decode(buf: &[u8]) -> Result<Node> {
        let view = NodeView::parse(buf)?;
        let mut pos = view.body;
        let mut bytes = || get_bytes(buf, &mut pos).map(<[u8]>::to_vec);
        if view.leaf {
            let mut entries = Vec::with_capacity(view.count.min(1024));
            for _ in 0..view.count {
                entries.push((bytes()?, bytes()?));
            }
            let next = view.next;
            return Ok(Node::Leaf { next, entries });
        }
        let mut keys = Vec::with_capacity(view.count.min(1024));
        for _ in 0..view.count {
            keys.push(bytes()?);
        }
        let mut children = Vec::with_capacity(keys.len() + 1);
        for _ in 0..=view.count {
            children.push(PageId(get_uvarint(buf, &mut pos)?));
        }
        Ok(Node::Internal { keys, children })
    }

    /// In an internal node, take in the split of child `idx`: its
    /// separator and new right sibling.
    fn adopt(&mut self, idx: usize, (sep, right): (Vec<u8>, PageId)) {
        if let Node::Internal { keys, children } = self {
            keys.insert(idx, sep);
            children.insert(idx + 1, right);
        }
    }

    /// Serialized size, computed without serializing.
    fn size(&self) -> usize {
        match self {
            Node::Leaf { next, entries } => {
                1 + uvarint_len(next.0)
                    + uvarint_len(entries.len() as u64)
                    + entries
                        .iter()
                        .map(|(k, v)| encoded_len(k) + encoded_len(v))
                        .sum::<usize>()
            }
            Node::Internal { keys, children } => {
                1 + uvarint_len(keys.len() as u64)
                    + keys.iter().map(|k| encoded_len(k)).sum::<usize>()
                    + children.iter().map(|c| uvarint_len(c.0)).sum::<usize>()
            }
        }
    }
}

/// A serialized node parsed where it lies: the header decoded, the
/// entries (leaf) or keys then children (internal) left in place.
struct NodeView<'a> {
    bytes: &'a [u8],
    leaf: bool,
    /// A leaf's successor in the chain (null for internal nodes).
    next: PageId,
    /// Entries of a leaf; separator keys of an internal node.
    count: usize,
    /// Byte offset of the first entry or key.
    body: usize,
}

/// Where a key falls among a serialized leaf's entries.
struct Seek<'a> {
    /// Byte offset of the first entry whose key is not less than it.
    at: usize,
    /// Byte offset just past that entry if its key is equal, else `at`.
    end: usize,
    /// The equal entry's value.
    value: Option<&'a [u8]>,
}

impl<'a> NodeView<'a> {
    fn parse(bytes: &'a [u8]) -> Result<NodeView<'a>> {
        let mut pos = 1;
        let (leaf, next) = match bytes.first() {
            Some(&TYPE_LEAF) => (true, PageId(get_uvarint(bytes, &mut pos)?)),
            Some(&TYPE_INTERNAL) => (false, PageId::NULL),
            Some(other) => {
                return Err(HipacError::Corruption(format!(
                    "unknown btree node type {other}"
                )))
            }
            None => return Err(HipacError::Corruption("empty btree node".into())),
        };
        let count = get_uvarint(bytes, &mut pos)? as usize;
        Ok(NodeView {
            bytes,
            leaf,
            next,
            count,
            body: pos,
        })
    }

    /// In a leaf, scan the entries up to the first key not less than
    /// `key`.
    fn seek(&self, key: &[u8]) -> Result<Seek<'a>> {
        let mut pos = self.body;
        for _ in 0..self.count {
            let at = pos;
            let k = get_bytes(self.bytes, &mut pos)?;
            let v = get_bytes(self.bytes, &mut pos)?;
            let (end, value) = match k.cmp(key) {
                Ordering::Less => continue,
                Ordering::Equal => (pos, Some(v)),
                Ordering::Greater => (at, None),
            };
            return Ok(Seek { at, end, value });
        }
        Ok(Seek {
            at: pos,
            end: pos,
            value: None,
        })
    }

    /// In an internal node, the index and page of the child whose
    /// subtree holds `key`: the child after the last separator `<= key`.
    fn child(&self, key: &[u8]) -> Result<(usize, PageId)> {
        let mut pos = self.body;
        let mut idx = self.count;
        for i in 0..self.count {
            if get_bytes(self.bytes, &mut pos)? > key && idx == self.count {
                idx = i;
            }
        }
        for _ in 0..idx {
            get_uvarint(self.bytes, &mut pos)?;
        }
        Ok((idx, PageId(get_uvarint(self.bytes, &mut pos)?)))
    }

    /// This leaf re-serialized with the entry at `seek` replaced by
    /// `entry` (or removed): an upsert or delete written once, from the
    /// page's own slices.
    fn splice(&self, seek: &Seek<'_>, entry: Option<(&[u8], &[u8])>) -> Vec<u8> {
        let (key, value) = entry.unwrap_or_default();
        let count = self.count + usize::from(entry.is_some()) - usize::from(seek.value.is_some());
        let mut out =
            Vec::with_capacity(self.bytes.len() + encoded_len(key) + encoded_len(value) + 2);
        out.push(TYPE_LEAF);
        put_uvarint(&mut out, self.next.0);
        put_uvarint(&mut out, count as u64);
        out.extend_from_slice(&self.bytes[self.body..seek.at]);
        if entry.is_some() {
            put_bytes(&mut out, key);
            put_bytes(&mut out, value);
        }
        out.extend_from_slice(&self.bytes[seek.end..]);
        out
    }
}

/// The serialized node held by `page`, checked against its length
/// field.
fn node_bytes(page: &Page, id: PageId) -> Result<&[u8]> {
    let len = page.get_u32(0) as usize;
    if len > NODE_CAPACITY {
        return Err(HipacError::Corruption(format!(
            "btree node {id} length field {len}"
        )));
    }
    Ok(page.get_slice(4, len))
}

/// Result of a recursive insert or delete: a promoted separator and
/// new right sibling, if the child split.
type SplitInfo = Option<(Vec<u8>, PageId)>;

/// What a recursive delete did to the subtree it descended into.
struct Removed {
    /// The removed value, if the key was present.
    old: Option<Vec<u8>>,
    /// The subtree root's serialized size afterwards: its parent
    /// rebalances it when that fell below [`UNDERFLOW`].
    size: usize,
    /// Rebalancing below can lengthen a separator, and so split a node.
    split: SplitInfo,
}

/// The B+tree.
pub struct BTree {
    pool: Arc<BufferPool>,
    /// Tree-level latch: structural changes take the write lock,
    /// lookups the read lock.
    root: RwLock<PageId>,
}

impl BTree {
    /// Create an empty tree; remember [`BTree::root_page`] to reopen it.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let page = pool.new_page()?;
        let root = page.id();
        Self::write_node(
            &pool,
            root,
            &Node::Leaf {
                next: PageId::NULL,
                entries: Vec::new(),
            },
        )?;
        Ok(BTree {
            pool,
            root: RwLock::new(root),
        })
    }

    /// Open an existing tree rooted at `root`.
    pub fn open(pool: Arc<BufferPool>, root: PageId) -> Result<Self> {
        // Validate eagerly so corruption surfaces at open time.
        Self::read_node(&pool, root)?;
        Ok(BTree {
            pool,
            root: RwLock::new(root),
        })
    }

    /// Build a tree from `entries`, which must arrive in strictly
    /// ascending key order: leaves are filled left to right and each
    /// node is serialized exactly once, so the cost is linear in the
    /// input and the pool needs room for one node per level, whatever
    /// the size of the tree. Equivalent to [`BTree::create`] followed by
    /// an [`BTree::insert`] per entry.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        entries: impl IntoIterator<Item = Result<(Vec<u8>, Vec<u8>)>>,
    ) -> Result<Self> {
        // (smallest key, page) of every finished node of the level being
        // built, left to right.
        let mut level: Vec<(Vec<u8>, PageId)> = Vec::new();
        let mut page = pool.new_page()?;
        let mut leaf: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut leaf_bytes = NODE_HEADER;
        for entry in entries {
            let (key, value) = entry?;
            Self::check_entry(&key, &value)?;
            if leaf.last().is_some_and(|(last, _)| *last >= key) {
                return Err(HipacError::internal("bulk load input is not sorted"));
            }
            let size = encoded_len(&key) + encoded_len(&value);
            if !leaf.is_empty() && leaf_bytes + size > NODE_CAPACITY {
                // The successor is allocated (and stays pinned) before
                // this leaf is written, so the chain link is known.
                let next = pool.new_page()?;
                level.push((leaf[0].0.clone(), page.id()));
                let entries = std::mem::take(&mut leaf);
                Self::write_into(
                    &page,
                    &Node::Leaf {
                        next: next.id(),
                        entries,
                    },
                )?;
                page = next;
                leaf_bytes = NODE_HEADER;
            }
            leaf_bytes += size;
            leaf.push((key, value));
        }
        level.push((
            leaf.first().map(|(k, _)| k.clone()).unwrap_or_default(),
            page.id(),
        ));
        Self::write_into(
            &page,
            &Node::Leaf {
                next: PageId::NULL,
                entries: leaf,
            },
        )?;
        drop(page);

        while level.len() > 1 {
            let mut groups: Vec<Vec<(Vec<u8>, PageId)>> = vec![Vec::new()];
            let mut bytes = NODE_HEADER;
            for child in level {
                let size = encoded_len(&child.0) + CHILD_POINTER;
                if bytes + size > NODE_CAPACITY {
                    groups.push(Vec::new());
                    bytes = NODE_HEADER;
                }
                bytes += size;
                groups.last_mut().expect("never empty").push(child);
            }
            // An internal node needs two children: a lone straggler takes
            // one from its left neighbour (any two entries fit one page).
            if let [.., left, last] = groups.as_mut_slice() {
                if last.len() == 1 {
                    last.insert(0, left.pop().expect("a full node has many children"));
                }
            }
            level = Vec::with_capacity(groups.len());
            for mut group in groups {
                let page = pool.new_page()?;
                let children = group.iter().map(|(_, id)| *id).collect();
                let first = std::mem::take(&mut group[0].0);
                let keys = group.into_iter().skip(1).map(|(key, _)| key).collect();
                Self::write_into(&page, &Node::Internal { keys, children })?;
                level.push((first, page.id()));
            }
        }
        Ok(BTree {
            root: RwLock::new(level[0].1),
            pool,
        })
    }

    /// Current root page id (persist this in the meta page).
    pub fn root_page(&self) -> PageId {
        *self.root.read()
    }

    fn read_node(pool: &BufferPool, id: PageId) -> Result<Node> {
        Node::decode(node_bytes(&pool.fetch(id)?.read(), id)?)
    }

    fn write_node(pool: &BufferPool, id: PageId, node: &Node) -> Result<()> {
        Self::write_into(&pool.fetch(id)?, node)
    }

    fn write_into(page: &PageRef, node: &Node) -> Result<()> {
        Self::write_bytes(page, &node.encode())
    }

    fn write_bytes(page: &PageRef, bytes: &[u8]) -> Result<()> {
        if bytes.len() > NODE_CAPACITY {
            return Err(HipacError::internal(format!(
                "btree node {} overflow: {} bytes",
                page.id(),
                bytes.len()
            )));
        }
        let mut guard = page.write();
        guard.put_u32(0, bytes.len() as u32);
        guard.put_slice(4, bytes);
        Ok(())
    }

    /// The leaf whose key range holds `key`, reached from `id` by
    /// reading each internal node in place.
    fn find_leaf(pool: &BufferPool, mut id: PageId, key: &[u8]) -> Result<PageRef> {
        loop {
            let page = pool.fetch(id)?;
            let guard = page.read();
            let view = NodeView::parse(node_bytes(&guard, id)?)?;
            if view.leaf {
                drop(guard);
                return Ok(page);
            }
            id = view.child(key)?.1;
        }
    }

    fn check_entry(key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() + value.len() > MAX_ENTRY {
            return Err(HipacError::RecordTooLarge {
                size: key.len() + value.len(),
                max: MAX_ENTRY,
            });
        }
        Ok(())
    }

    /// Look up `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let root = self.root.read();
        let leaf = Self::find_leaf(&self.pool, *root, key)?;
        let guard = leaf.read();
        let view = NodeView::parse(node_bytes(&guard, leaf.id())?)?;
        Ok(view.seek(key)?.value.map(<[u8]>::to_vec))
    }

    /// Insert or replace `key`; returns the previous value, if any.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        Self::check_entry(key, value)?;
        let mut root = self.root.write();
        let (old, split) = self.insert_rec(*root, key, value)?;
        self.grow_root(&mut root, split)?;
        Ok(old)
    }

    fn insert_rec(
        &self,
        id: PageId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(Option<Vec<u8>>, SplitInfo)> {
        let page = self.pool.fetch(id)?;
        let guard = page.read();
        let view = NodeView::parse(node_bytes(&guard, id)?)?;
        if view.leaf {
            let seek = view.seek(key)?;
            let old = seek.value.map(<[u8]>::to_vec);
            let bytes = view.splice(&seek, Some((key, value)));
            drop(guard);
            if bytes.len() <= NODE_CAPACITY {
                Self::write_bytes(&page, &bytes)?;
                return Ok((old, None));
            }
            return Ok((old, self.write_or_split(&page, Node::decode(&bytes)?)?));
        }
        let (idx, child) = view.child(key)?;
        drop(guard);
        let (old, split) = self.insert_rec(child, key, value)?;
        let Some(split) = split else {
            return Ok((old, None));
        };
        let mut node = Self::read_node(&self.pool, id)?;
        node.adopt(idx, split);
        Ok((old, self.write_or_split(&page, node)?))
    }

    /// Put a new root above a root that split.
    fn grow_root(&self, root: &mut PageId, split: SplitInfo) -> Result<()> {
        if let Some((sep, right)) = split {
            let page = self.pool.new_page()?;
            Self::write_into(
                &page,
                &Node::Internal {
                    keys: vec![sep],
                    children: vec![*root, right],
                },
            )?;
            *root = page.id();
        }
        Ok(())
    }

    /// Write `node` to `page`, first splitting off a new right sibling
    /// if it outgrew the page.
    fn write_or_split(&self, page: &PageRef, mut node: Node) -> Result<SplitInfo> {
        if node.size() <= NODE_CAPACITY {
            Self::write_into(page, &node)?;
            return Ok(None);
        }
        let (sep, right_node) = Self::split(&mut node);
        let right_page = self.pool.new_page()?;
        // For leaves fix the chain: left -> new right -> old next
        // (right_node already carries the old next pointer).
        if let Node::Leaf { next, .. } = &mut node {
            *next = right_page.id();
        }
        Self::write_into(&right_page, &right_node)?;
        Self::write_into(page, &node)?;
        Ok(Some((sep, right_page.id())))
    }

    /// Split an oversized node roughly in half (by bytes for leaves, by
    /// arity for internals). Returns the promoted separator and the new
    /// right node; `node` becomes the left half.
    fn split(node: &mut Node) -> (Vec<u8>, Node) {
        match node {
            Node::Leaf { next, entries } => {
                let total: usize = entries.iter().map(|(k, v)| k.len() + v.len() + 8).sum();
                let mut acc = 0usize;
                let mut cut = entries.len() / 2;
                for (i, (k, v)) in entries.iter().enumerate() {
                    acc += k.len() + v.len() + 8;
                    if acc >= total / 2 {
                        cut = (i + 1).min(entries.len() - 1).max(1);
                        break;
                    }
                }
                let right_entries = entries.split_off(cut);
                let sep = right_entries[0].0.clone();
                let right = Node::Leaf {
                    next: *next,
                    entries: right_entries,
                };
                (sep, right)
            }
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("internal node has keys");
                let right_children = children.split_off(mid + 1);
                let right = Node::Internal {
                    keys: right_keys,
                    children: right_children,
                };
                (sep, right)
            }
        }
    }

    /// Remove `key`; returns the removed value, if present.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut root = self.root.write();
        let removed = self.delete_rec(*root, key)?;
        self.grow_root(&mut root, removed.split)?;
        // Collapse a root that became a single-child internal node.
        loop {
            let page = self.pool.fetch(*root)?;
            let guard = page.read();
            let view = NodeView::parse(node_bytes(&guard, *root)?)?;
            if view.leaf || view.count > 0 {
                break;
            }
            *root = view.child(&[])?.1;
        }
        Ok(removed.old)
    }

    fn delete_rec(&self, id: PageId, key: &[u8]) -> Result<Removed> {
        let page = self.pool.fetch(id)?;
        let guard = page.read();
        let view = NodeView::parse(node_bytes(&guard, id)?)?;
        let size = view.bytes.len();
        if view.leaf {
            let seek = view.seek(key)?;
            let old = seek.value.map(<[u8]>::to_vec);
            if old.is_none() {
                return Ok(Removed {
                    old,
                    size,
                    split: None,
                });
            }
            let bytes = view.splice(&seek, None);
            drop(guard);
            Self::write_bytes(&page, &bytes)?;
            return Ok(Removed {
                old,
                size: bytes.len(),
                split: None,
            });
        }
        let (idx, child) = view.child(key)?;
        let count = view.count;
        drop(guard);
        let removed = self.delete_rec(child, key)?;
        let underflow = removed.old.is_some() && removed.size < UNDERFLOW && count > 0;
        if removed.split.is_none() && !underflow {
            return Ok(Removed { size, ..removed });
        }
        let mut node = Self::read_node(&self.pool, id)?;
        match removed.split {
            Some(split) => node.adopt(idx, split),
            None => self.rebalance(&mut node, idx)?,
        }
        Ok(Removed {
            old: removed.old,
            size: node.size(),
            split: self.write_or_split(&page, node)?,
        })
    }

    /// Fix an underflowing child at `idx` of `parent` by merging with or
    /// borrowing from a sibling. The parent is changed in place; the
    /// caller rewrites it.
    fn rebalance(&self, parent: &mut Node, idx: usize) -> Result<()> {
        let Node::Internal { keys, children } = parent else {
            return Err(HipacError::Corruption("btree leaf with children".into()));
        };
        // Normalize to (left_idx, right_idx) = adjacent pair.
        let (li, ri) = if idx == 0 { (0, 1) } else { (idx - 1, idx) };
        let left_id = children[li];
        let right_id = children[ri];
        let mut left = Self::read_node(&self.pool, left_id)?;
        let mut right = Self::read_node(&self.pool, right_id)?;
        let sep = keys[li].clone();
        // Merging internal nodes pulls the separator down between them.
        let pulled_down = match left {
            Node::Internal { .. } => encoded_len(&sep),
            Node::Leaf { .. } => 0,
        };

        if left.size() + right.size() + pulled_down <= NODE_CAPACITY - 64 {
            // Merge right into left.
            match (&mut left, right) {
                (
                    Node::Leaf { next, entries },
                    Node::Leaf {
                        next: rnext,
                        entries: rentries,
                    },
                ) => {
                    entries.extend(rentries);
                    *next = rnext;
                }
                (
                    Node::Internal { keys: lk, children: lc },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                ) => {
                    lk.push(sep);
                    lk.extend(rk);
                    lc.extend(rc);
                }
                _ => {
                    return Err(HipacError::internal(
                        "sibling nodes of different kinds",
                    ))
                }
            }
            Self::write_node(&self.pool, left_id, &left)?;
            keys.remove(li);
            children.remove(ri);
            // right_id's page is leaked until the next checkpoint.
        } else {
            // Redistribute: move entries/keys across until both sides
            // are above the underflow threshold.
            match (&mut left, &mut right) {
                (
                    Node::Leaf { entries: le, .. },
                    Node::Leaf { entries: re, .. },
                ) => {
                    while Self::leaf_bytes(le) < UNDERFLOW && re.len() > 1 {
                        le.push(re.remove(0));
                    }
                    while Self::leaf_bytes(re) < UNDERFLOW && le.len() > 1 {
                        re.insert(0, le.pop().expect("nonempty"));
                    }
                    keys[li] = re[0].0.clone();
                }
                (
                    Node::Internal { keys: lk, children: lc },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                ) => {
                    // Rotate through the separator one step at a time.
                    let mut sep = sep;
                    while lk.len() + 1 < rk.len() {
                        lk.push(std::mem::replace(&mut sep, rk.remove(0)));
                        lc.push(rc.remove(0));
                    }
                    while rk.len() + 1 < lk.len() {
                        rk.insert(0, std::mem::replace(&mut sep, lk.pop().expect("nonempty")));
                        rc.insert(0, lc.pop().expect("nonempty"));
                    }
                    keys[li] = sep;
                }
                _ => {
                    return Err(HipacError::internal(
                        "sibling nodes of different kinds",
                    ))
                }
            }
            Self::write_node(&self.pool, left_id, &left)?;
            Self::write_node(&self.pool, right_id, &right)?;
        }
        Ok(())
    }

    fn leaf_bytes(entries: &[(Vec<u8>, Vec<u8>)]) -> usize {
        entries.iter().map(|(k, v)| k.len() + v.len() + 8).sum()
    }

    /// Stream the entries from the leaf that would hold `seek` onwards,
    /// in key order, one leaf in memory at a time. The iterator holds the
    /// tree latch (shared) for as long as it lives.
    pub(crate) fn entries_from(&self, seek: &[u8]) -> Result<Entries<'_>> {
        let root = self.root.read();
        let next = Self::find_leaf(&self.pool, *root, seek)?.id();
        Ok(Entries {
            _latch: root,
            pool: &self.pool,
            leaf: Vec::new().into_iter(),
            next,
        })
    }

    /// Stream every entry in key order (see [`BTree::entries_from`]).
    pub(crate) fn entries(&self) -> Result<Entries<'_>> {
        self.entries_from(&[])
    }

    /// Scan entries with keys in `[start, end)` bounds.
    pub fn range(
        &self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let seek: &[u8] = match start {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        let mut out = Vec::new();
        for entry in self.entries_from(seek)? {
            let (k, v) = entry?;
            let below = match start {
                Bound::Included(s) => k.as_slice() < s,
                Bound::Excluded(s) => k.as_slice() <= s,
                Bound::Unbounded => false,
            };
            let above = match end {
                Bound::Included(e) => k.as_slice() > e,
                Bound::Excluded(e) => k.as_slice() >= e,
                Bound::Unbounded => false,
            };
            if above {
                break;
            }
            if !below {
                out.push((k, v));
            }
        }
        Ok(out)
    }

    /// All entries in key order.
    pub fn iter_all(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.entries()?.collect()
    }

    /// Number of entries (walks the leaf chain).
    pub fn len(&self) -> Result<usize> {
        self.entries()?.try_fold(0, |n, entry| entry.map(|_| n + 1))
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (root to leaf), for tests and diagnostics.
    pub fn height(&self) -> Result<usize> {
        let root = self.root.read();
        let mut id = *root;
        let mut h = 1;
        loop {
            match Self::read_node(&self.pool, id)? {
                Node::Leaf { .. } => return Ok(h),
                Node::Internal { children, .. } => {
                    id = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Walk every node reachable from the root and check that it is in
    /// the format's canonical form: that its bytes decode with the owned
    /// codec and re-encode to exactly the same bytes, and that its keys
    /// ascend strictly. (A diagnostic: the in-place writers are held to
    /// the owned codec.)
    pub fn check_nodes(&self) -> Result<()> {
        let root = self.root.read();
        let mut stack = vec![*root];
        while let Some(id) = stack.pop() {
            let page = self.pool.fetch(id)?;
            let guard = page.read();
            let bytes = node_bytes(&guard, id)?;
            let node = Node::decode(bytes)?;
            let ascending = match &node {
                Node::Leaf { entries, .. } => entries.windows(2).all(|w| w[0].0 < w[1].0),
                Node::Internal { keys, children } => {
                    stack.extend(children);
                    keys.windows(2).all(|w| w[0] < w[1])
                }
            };
            if node.encode() != bytes || node.size() != bytes.len() || !ascending {
                return Err(HipacError::Corruption(format!(
                    "btree node {id} is not in canonical form"
                )));
            }
        }
        Ok(())
    }
}

/// Streaming cursor over a tree's leaf chain; see
/// [`BTree::entries_from`].
pub(crate) struct Entries<'a> {
    _latch: RwLockReadGuard<'a, PageId>,
    pool: &'a BufferPool,
    leaf: std::vec::IntoIter<(Vec<u8>, Vec<u8>)>,
    /// The next leaf to read; null once the chain is exhausted.
    next: PageId,
}

impl Iterator for Entries<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.leaf.next() {
                return Some(Ok(entry));
            }
            if self.next.is_null() {
                return None;
            }
            match BTree::read_node(self.pool, std::mem::replace(&mut self.next, PageId::NULL)) {
                Ok(Node::Leaf { next, entries }) => {
                    self.next = next;
                    self.leaf = entries.into_iter();
                }
                Ok(Node::Internal { .. }) => {
                    return Some(Err(HipacError::Corruption(
                        "leaf chain hit internal node".into(),
                    )))
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use rand::prelude::*;
    use std::collections::BTreeMap;

    fn make_tree(name: &str) -> BTree {
        let dir = std::env::temp_dir().join("hipac-btree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let pool = Arc::new(BufferPool::new(
            Arc::new(DiskManager::open(&p).unwrap()),
            64,
        ));
        BTree::create(pool).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_small() {
        let t = make_tree("small");
        assert_eq!(t.insert(b"b", b"2").unwrap(), None);
        assert_eq!(t.insert(b"a", b"1").unwrap(), None);
        assert_eq!(t.insert(b"c", b"3").unwrap(), None);
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.get(b"z").unwrap(), None);
        assert_eq!(t.insert(b"a", b"9").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"a").unwrap(), Some(b"9".to_vec()));
    }

    #[test]
    fn sequential_inserts_split_and_stay_sorted() {
        let t = make_tree("seq");
        let n = 2000u64;
        for i in 0..n {
            t.insert(&key(i), format!("value-{i}").as_bytes()).unwrap();
        }
        assert!(t.height().unwrap() >= 2, "tree must have split");
        for i in 0..n {
            assert_eq!(
                t.get(&key(i)).unwrap(),
                Some(format!("value-{i}").into_bytes()),
                "key {i}"
            );
        }
        let all = t.iter_all().unwrap();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted order");
    }

    #[test]
    fn random_inserts_match_model() {
        let t = make_tree("random");
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..3000 {
            let k = key(rng.gen_range(0..1000));
            let v = vec![rng.gen::<u8>(); rng.gen_range(0..64)];
            let expected = model.insert(k.clone(), v.clone());
            assert_eq!(t.insert(&k, &v).unwrap(), expected);
        }
        for (k, v) in &model {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        let all = t.iter_all().unwrap();
        assert_eq!(all.len(), model.len());
    }

    #[test]
    fn deletes_match_model_and_rebalance() {
        let t = make_tree("delete");
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..2000u64 {
            let v = vec![b'x'; 32];
            t.insert(&key(i), &v).unwrap();
            model.insert(key(i), v);
        }
        let pre_height = t.height().unwrap();
        assert!(pre_height >= 2);
        // Delete 90% in random order.
        let mut keys: Vec<u64> = (0..2000).collect();
        keys.shuffle(&mut rng);
        for i in &keys[..1800] {
            let expected = model.remove(&key(*i));
            assert_eq!(t.delete(&key(*i)).unwrap(), expected, "delete {i}");
        }
        assert_eq!(t.delete(&key(keys[0])).unwrap(), None, "double delete");
        for (k, v) in &model {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        assert_eq!(t.len().unwrap(), model.len());
        assert!(
            t.height().unwrap() <= pre_height,
            "root collapse must not grow the tree"
        );
    }

    #[test]
    fn delete_everything_leaves_empty_tree() {
        let t = make_tree("drain");
        for i in 0..500u64 {
            t.insert(&key(i), &[0u8; 100]).unwrap();
        }
        for i in 0..500u64 {
            assert!(t.delete(&key(i)).unwrap().is_some());
        }
        assert!(t.is_empty().unwrap());
        assert_eq!(t.height().unwrap(), 1, "tree collapsed to a leaf root");
        // Still usable afterwards.
        t.insert(b"again", b"yes").unwrap();
        assert_eq!(t.get(b"again").unwrap(), Some(b"yes".to_vec()));
    }

    #[test]
    fn range_scans() {
        let t = make_tree("range");
        for i in (0..100u64).step_by(2) {
            t.insert(&key(i), &key(i * 10)).unwrap();
        }
        let r = t
            .range(Bound::Included(&key(10)[..]), Bound::Excluded(&key(20)[..]))
            .unwrap();
        let got: Vec<u64> = r
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k[..8].try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18]);
        let r = t
            .range(Bound::Excluded(&key(10)[..]), Bound::Included(&key(14)[..]))
            .unwrap();
        assert_eq!(r.len(), 2); // 12, 14
        let all = t.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn large_values_and_entry_cap() {
        let t = make_tree("large");
        let v = vec![9u8; MAX_ENTRY - 8];
        t.insert(b"bigkey12", &v).unwrap();
        assert_eq!(t.get(b"bigkey12").unwrap(), Some(v));
        let too_big = vec![0u8; MAX_ENTRY + 1];
        assert!(matches!(
            t.insert(b"", &too_big),
            Err(HipacError::RecordTooLarge { .. })
        ));
        // Many large entries force splits with tiny arity.
        for i in 0..50u64 {
            t.insert(&key(i), &vec![1u8; 900]).unwrap();
        }
        for i in 0..50u64 {
            assert_eq!(t.get(&key(i)).unwrap(), Some(vec![1u8; 900]));
        }
    }

    /// Redistributing two leaves can replace their separator with a far
    /// longer key; when the parent was nearly full, the delete must
    /// split it and grow the tree instead of overflowing the page.
    #[test]
    fn delete_splits_a_parent_whose_separator_grew() {
        let t = make_tree("separator-grows");
        let sep = |i: usize| {
            let mut k = format!("{i:04}").into_bytes();
            k.resize(40, b'a');
            k
        };
        let long = |i: usize, j: u8| {
            let mut k = sep(i);
            k.resize(940, b'z');
            k.push(j);
            k
        };
        // A root of 90 leaves under 40-byte separators (~3 800 bytes).
        // Leaf 48 ends in 940-byte keys; leaf 49 sits just above the
        // underflow line, and too much is in the pair to merge it.
        let (n, thin) = (90, 49);
        let mut model = BTreeMap::new();
        let leaves: Vec<PageRef> = (0..n).map(|_| t.pool.new_page().unwrap()).collect();
        for (i, page) in leaves.iter().enumerate() {
            let mut entries = vec![(sep(i), vec![b'v'; 10])];
            if i == thin - 1 {
                entries.extend((0..4).map(|j| (long(i, j), Vec::new())));
            }
            if i == thin {
                entries = vec![
                    (sep(i), vec![1; 600]),
                    ([sep(i), b"b".to_vec()].concat(), vec![2; 600]),
                ];
            }
            model.extend(entries.iter().cloned());
            let next = leaves.get(i + 1).map_or(PageId::NULL, PageRef::id);
            BTree::write_into(page, &Node::Leaf { next, entries }).unwrap();
        }
        let root = t.pool.new_page().unwrap();
        let keys = (1..n).map(sep).collect();
        let children = leaves.iter().map(PageRef::id).collect();
        BTree::write_into(&root, &Node::Internal { keys, children }).unwrap();
        *t.root.write() = root.id();
        t.check_nodes().unwrap();
        assert_eq!(t.height().unwrap(), 2);

        let victim = [sep(thin), b"b".to_vec()].concat();
        assert_eq!(t.delete(&victim).unwrap(), model.remove(&victim));
        assert_eq!(t.height().unwrap(), 3, "the overgrown root split");
        t.check_nodes().unwrap();
        assert_eq!(t.iter_all().unwrap(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn reopen_preserves_contents() {
        let dir = std::env::temp_dir().join("hipac-btree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("reopen-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let disk = Arc::new(DiskManager::open(&p).unwrap());
        let root;
        {
            let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 64));
            let t = BTree::create(Arc::clone(&pool)).unwrap();
            for i in 0..1000u64 {
                t.insert(&key(i), &key(i)).unwrap();
            }
            root = t.root_page();
            pool.flush_and_sync().unwrap();
        }
        let pool = Arc::new(BufferPool::new(disk, 64));
        let t = BTree::open(pool, root).unwrap();
        assert_eq!(t.len().unwrap(), 1000);
        assert_eq!(t.get(&key(999)).unwrap(), Some(key(999)));
    }
}

//! The R*-tree proper: insertion with forced reinsertion, deletion with
//! condensation, and rectangle queries.

use crate::node::{ChildEntry, LeafEntry, Node};
use crate::split::rstar_split;
use mobieyes_geo::{Point, Rect};

/// Default maximum number of entries per node (the R* paper's M).
pub const DEFAULT_MAX_ENTRIES: usize = 32;

/// An entry pending insertion: either a fresh leaf entry or a subtree
/// detached during forced reinsertion, to be attached so a node at
/// `attach_level` receives it as a child.
enum Pending<T> {
    Leaf(LeafEntry<T>),
    Subtree {
        rect: Rect,
        child: Box<Node<T>>,
        attach_level: usize,
    },
}

impl<T> Pending<T> {
    fn rect(&self) -> Rect {
        match self {
            Pending::Leaf(e) => e.rect,
            Pending::Subtree { rect, .. } => *rect,
        }
    }

    fn attach_level(&self) -> usize {
        match self {
            Pending::Leaf(_) => 0,
            Pending::Subtree { attach_level, .. } => *attach_level,
        }
    }
}

/// An R*-tree over `(Rect, T)` entries.
///
/// See the crate docs for an example. Node parameters follow the R* paper's
/// recommendations: minimum fill 40 % of M, forced-reinsert fraction 30 %.
#[derive(Debug)]
pub struct RStarTree<T> {
    root: Node<T>,
    /// Root level; leaves are level 0, so `height = root_level + 1`.
    root_level: usize,
    size: usize,
    max_entries: usize,
    min_entries: usize,
    reinsert_count: usize,
}

impl<T> Default for RStarTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RStarTree<T> {
    /// An empty tree with the default node capacity.
    pub fn new() -> Self {
        Self::with_max_entries(DEFAULT_MAX_ENTRIES)
    }

    /// An empty tree with node capacity `max_entries` (>= 4).
    pub fn with_max_entries(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R*-tree needs M >= 4");
        let min_entries = ((max_entries as f64 * 0.4) as usize).max(2);
        let reinsert_count = ((max_entries as f64 * 0.3) as usize).max(1);
        RStarTree {
            root: Node::new_leaf(),
            root_level: 0,
            size: 0,
            max_entries,
            min_entries,
            reinsert_count,
        }
    }

    pub fn len(&self) -> usize {
        self.size
    }

    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Tree height (1 for a single leaf root).
    pub fn height(&self) -> usize {
        self.root_level + 1
    }

    pub fn clear(&mut self) {
        self.root = Node::new_leaf();
        self.root_level = 0;
        self.size = 0;
    }

    /// Inserts an entry. Duplicates (same rect and equal payload) are kept;
    /// the tree is a multiset.
    pub fn insert(&mut self, rect: Rect, item: T) {
        debug_assert!(rect.low().is_finite() && rect.high().is_finite());
        self.size += 1;
        let mut overflow_seen = vec![false; self.root_level + 1];
        self.insert_pending(Pending::Leaf(LeafEntry { rect, item }), &mut overflow_seen);
    }

    /// Drives a pending entry (plus any reinsertion fallout) to completion.
    fn insert_pending(&mut self, first: Pending<T>, overflow_seen: &mut Vec<bool>) {
        let mut queue: Vec<Pending<T>> = vec![first];
        while let Some(p) = queue.pop() {
            if overflow_seen.len() < self.root_level + 1 {
                overflow_seen.resize(self.root_level + 1, false);
            }
            let split = Self::insert_rec(
                &mut self.root,
                self.root_level,
                self.root_level,
                p,
                self.max_entries,
                self.min_entries,
                self.reinsert_count,
                overflow_seen,
                &mut queue,
            );
            if let Some((sib_rect, sib_node)) = split {
                // Root split: grow the tree by one level.
                let old_root = std::mem::replace(&mut self.root, Node::new_leaf());
                let old_rect = old_root.mbr().expect("split root cannot be empty");
                self.root = Node::Internal(vec![
                    ChildEntry {
                        rect: old_rect,
                        child: Box::new(old_root),
                    },
                    ChildEntry {
                        rect: sib_rect,
                        child: Box::new(sib_node),
                    },
                ]);
                self.root_level += 1;
            }
        }
    }

    /// Recursive insert. Returns a new sibling `(mbr, node)` when `node`
    /// split; the caller attaches it one level up.
    #[allow(clippy::too_many_arguments)]
    fn insert_rec(
        node: &mut Node<T>,
        level: usize,
        root_level: usize,
        pending: Pending<T>,
        max_entries: usize,
        min_entries: usize,
        reinsert_count: usize,
        overflow_seen: &mut [bool],
        queue: &mut Vec<Pending<T>>,
    ) -> Option<(Rect, Node<T>)> {
        if level == pending.attach_level() {
            match (node, pending) {
                (Node::Leaf(entries), Pending::Leaf(e)) => {
                    entries.push(e);
                    if entries.len() > max_entries {
                        return Self::overflow_leaf(
                            entries,
                            level,
                            root_level,
                            min_entries,
                            reinsert_count,
                            overflow_seen,
                            queue,
                        );
                    }
                    None
                }
                (Node::Internal(children), Pending::Subtree { rect, child, .. }) => {
                    children.push(ChildEntry { rect, child });
                    if children.len() > max_entries {
                        return Self::overflow_internal(
                            children,
                            level,
                            root_level,
                            min_entries,
                            reinsert_count,
                            overflow_seen,
                            queue,
                        );
                    }
                    None
                }
                _ => unreachable!("attach level does not match node kind"),
            }
        } else {
            let Node::Internal(children) = node else {
                unreachable!("descending past a leaf");
            };
            let target_rect = pending.rect();
            let idx = Self::choose_subtree(children, &target_rect, level);
            let split = Self::insert_rec(
                &mut children[idx].child,
                level - 1,
                root_level,
                pending,
                max_entries,
                min_entries,
                reinsert_count,
                overflow_seen,
                queue,
            );
            // Recompute the child MBR: it may have grown (insert) or shrunk
            // (forced reinsertion removed entries).
            children[idx].rect = children[idx]
                .child
                .mbr()
                .expect("child emptied during insert");
            if let Some((sib_rect, sib_node)) = split {
                children.push(ChildEntry {
                    rect: sib_rect,
                    child: Box::new(sib_node),
                });
                if children.len() > max_entries {
                    return Self::overflow_internal(
                        children,
                        level,
                        root_level,
                        min_entries,
                        reinsert_count,
                        overflow_seen,
                        queue,
                    );
                }
            }
            None
        }
    }

    /// R* ChooseSubtree: minimum overlap enlargement when children are
    /// leaves, minimum area enlargement otherwise; ties broken by area
    /// enlargement then by area.
    fn choose_subtree(children: &[ChildEntry<T>], rect: &Rect, level: usize) -> usize {
        debug_assert!(!children.is_empty());
        let children_are_leaves = level == 1;
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, c) in children.iter().enumerate() {
            let enlarged = c.rect.union(rect);
            let area_enlargement = enlarged.area() - c.rect.area();
            let key = if children_are_leaves {
                // Overlap enlargement of child i w.r.t. its siblings.
                let mut overlap_before = 0.0;
                let mut overlap_after = 0.0;
                for (j, other) in children.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    overlap_before += c.rect.overlap_area(&other.rect);
                    overlap_after += enlarged.overlap_area(&other.rect);
                }
                (
                    overlap_after - overlap_before,
                    area_enlargement,
                    c.rect.area(),
                )
            } else {
                (area_enlargement, c.rect.area(), 0.0)
            };
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Overflow at a leaf: forced reinsert once per level per operation,
    /// otherwise split.
    fn overflow_leaf(
        entries: &mut Vec<LeafEntry<T>>,
        level: usize,
        root_level: usize,
        min_entries: usize,
        reinsert_count: usize,
        overflow_seen: &mut [bool],
        queue: &mut Vec<Pending<T>>,
    ) -> Option<(Rect, Node<T>)> {
        if level != root_level && !overflow_seen[level] {
            overflow_seen[level] = true;
            let removed = take_farthest(entries, reinsert_count, |e| e.rect);
            // Close reinsert: the stack pops last-pushed first, so push in
            // decreasing-distance order to reinsert the closest entry first.
            for e in removed {
                queue.push(Pending::Leaf(e));
            }
            None
        } else {
            let second = rstar_split(entries, min_entries, |e| e.rect);
            let node = Node::Leaf(second);
            let rect = node.mbr().expect("split produced empty node");
            Some((rect, node))
        }
    }

    /// Overflow at an internal node: forced reinsert of child subtrees once
    /// per level per operation, otherwise split.
    fn overflow_internal(
        children: &mut Vec<ChildEntry<T>>,
        level: usize,
        root_level: usize,
        min_entries: usize,
        reinsert_count: usize,
        overflow_seen: &mut [bool],
        queue: &mut Vec<Pending<T>>,
    ) -> Option<(Rect, Node<T>)> {
        if level != root_level && !overflow_seen[level] {
            overflow_seen[level] = true;
            let removed = take_farthest(children, reinsert_count, |e| e.rect);
            for e in removed {
                queue.push(Pending::Subtree {
                    rect: e.rect,
                    child: e.child,
                    attach_level: level,
                });
            }
            None
        } else {
            let second = rstar_split(children, min_entries, |e| e.rect);
            let node = Node::Internal(second);
            let rect = node.mbr().expect("split produced empty node");
            Some((rect, node))
        }
    }

    /// Removes one entry matching `rect` (exactly) and `item` (by equality).
    /// Returns true when an entry was removed.
    pub fn remove(&mut self, rect: &Rect, item: &T) -> bool
    where
        T: PartialEq,
    {
        let mut orphans: Vec<LeafEntry<T>> = Vec::new();
        let removed = Self::remove_rec(&mut self.root, rect, item, self.min_entries, &mut orphans);
        if !removed {
            debug_assert!(orphans.is_empty());
            return false;
        }
        self.size -= 1;
        // Shrink the root while it is an internal node with a single child
        // (or convert an emptied internal root back to a leaf).
        loop {
            match &mut self.root {
                Node::Internal(v) if v.len() == 1 => {
                    let only = v.pop().expect("len checked");
                    self.root = *only.child;
                    self.root_level -= 1;
                }
                Node::Internal(v) if v.is_empty() => {
                    self.root = Node::new_leaf();
                    self.root_level = 0;
                    break;
                }
                _ => break,
            }
        }
        // Reinsert orphaned leaf entries (condensed subtrees are flattened
        // to leaf entries: condense events are rare and nodes are small, so
        // item-wise reinsertion keeps the code simple and the tree valid).
        let mut overflow_seen = vec![false; self.root_level + 1];
        for e in orphans {
            self.insert_pending(Pending::Leaf(e), &mut overflow_seen);
        }
        true
    }

    /// Recursive removal; collects leaf entries of condensed nodes into
    /// `orphans` (flattened).
    fn remove_rec(
        node: &mut Node<T>,
        rect: &Rect,
        item: &T,
        min_entries: usize,
        orphans: &mut Vec<LeafEntry<T>>,
    ) -> bool
    where
        T: PartialEq,
    {
        match node {
            Node::Leaf(entries) => {
                if let Some(pos) = entries
                    .iter()
                    .position(|e| e.rect == *rect && e.item == *item)
                {
                    entries.swap_remove(pos);
                    true
                } else {
                    false
                }
            }
            Node::Internal(children) => {
                for i in 0..children.len() {
                    if !children[i].rect.contains_rect(rect) {
                        continue;
                    }
                    if Self::remove_rec(&mut children[i].child, rect, item, min_entries, orphans) {
                        if children[i].child.len() < min_entries {
                            // Condense: detach the whole child and flatten.
                            let dead = children.swap_remove(i);
                            flatten_into(*dead.child, orphans);
                        } else {
                            children[i].rect = children[i]
                                .child
                                .mbr()
                                .expect("non-underflowing child has entries");
                        }
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Removes and reinserts an entry whose rectangle changed — the
    /// "update" operation the object-index baseline performs on every
    /// position report. Returns false (and inserts anyway) when the old
    /// entry was not found.
    pub fn update(&mut self, old_rect: &Rect, new_rect: Rect, item: T) -> bool
    where
        T: PartialEq,
    {
        let found = self.remove(old_rect, &item);
        self.insert(new_rect, item);
        found
    }

    /// All entries whose rectangle intersects `query` (closed semantics).
    pub fn query_rect(&self, query: &Rect) -> Vec<(&Rect, &T)> {
        let mut out = Vec::new();
        self.for_each_intersecting(query, |r, t| out.push((r, t)));
        out
    }

    /// All entries whose rectangle contains `p`.
    pub fn query_point(&self, p: Point) -> Vec<(&Rect, &T)> {
        self.query_rect(&Rect::from_point(p))
    }

    /// Visits every entry intersecting `query` without allocating.
    pub fn for_each_intersecting<'a>(&'a self, query: &Rect, mut f: impl FnMut(&'a Rect, &'a T)) {
        fn walk<'a, T>(node: &'a Node<T>, query: &Rect, f: &mut impl FnMut(&'a Rect, &'a T)) {
            match node {
                Node::Leaf(entries) => {
                    for e in entries {
                        if e.rect.intersects(query) {
                            f(&e.rect, &e.item);
                        }
                    }
                }
                Node::Internal(children) => {
                    for c in children {
                        if c.rect.intersects(query) {
                            walk(&c.child, query, f);
                        }
                    }
                }
            }
        }
        walk(&self.root, query, &mut f);
    }

    /// Iterates all `(rect, item)` pairs (no particular order).
    pub fn iter(&self) -> impl Iterator<Item = (&Rect, &T)> {
        let mut stack = vec![&self.root];
        std::iter::from_fn(move || loop {
            let node = stack.pop()?;
            match node {
                Node::Leaf(entries) => {
                    if !entries.is_empty() {
                        return Some(
                            entries
                                .iter()
                                .map(|e| (&e.rect, &e.item))
                                .collect::<Vec<_>>(),
                        );
                    }
                }
                Node::Internal(children) => {
                    for c in children {
                        stack.push(&c.child);
                    }
                }
            }
        })
        .flatten()
    }

    /// Root node accessor for in-crate traversals (kNN).
    pub(crate) fn root_node(&self) -> &Node<T> {
        &self.root
    }

    /// Installs a fully-built tree (bulk loading). `root_level` is the
    /// level of `root` (0 = leaf), `size` the number of leaf entries.
    pub(crate) fn replace_root(&mut self, root: Node<T>, root_level: usize, size: usize) {
        self.root = root;
        self.root_level = root_level;
        self.size = size;
    }

    /// Validates all structural invariants; panics with a description on
    /// violation. Intended for tests and debug assertions.
    pub fn check_invariants(&self) {
        fn walk<T>(
            node: &Node<T>,
            level: usize,
            is_root: bool,
            min: usize,
            max: usize,
            leaf_levels: &mut Vec<usize>,
            count: &mut usize,
        ) {
            let n = node.len();
            if is_root {
                assert!(n <= max, "root overflows: {n} > {max}");
            } else {
                assert!(n >= min && n <= max, "node fill {n} outside [{min}, {max}]");
            }
            match node {
                Node::Leaf(entries) => {
                    leaf_levels.push(level);
                    *count += entries.len();
                }
                Node::Internal(children) => {
                    assert!(level > 0, "internal node at leaf level");
                    for c in children {
                        let mbr = c.child.mbr().expect("child node empty");
                        assert_eq!(c.rect, mbr, "stored child rect != child MBR");
                        walk(&c.child, level - 1, false, min, max, leaf_levels, count);
                    }
                }
            }
        }
        let mut leaf_levels = Vec::new();
        let mut count = 0;
        walk(
            &self.root,
            self.root_level,
            true,
            self.min_entries,
            self.max_entries,
            &mut leaf_levels,
            &mut count,
        );
        assert!(
            leaf_levels.iter().all(|&l| l == 0),
            "leaves at differing levels"
        );
        assert_eq!(count, self.size, "size bookkeeping mismatch");
    }
}

/// Removes the `k` entries whose centers are farthest from the node MBR
/// center, returning them sorted by decreasing distance.
fn take_farthest<E>(entries: &mut Vec<E>, k: usize, rect_of: impl Fn(&E) -> Rect) -> Vec<E> {
    let mbr = entries
        .iter()
        .map(&rect_of)
        .reduce(|a, b| a.union(&b))
        .expect("overflowing node is non-empty");
    let center = mbr.center();
    entries.sort_by(|a, b| {
        let da = rect_of(a).center().distance_sq(center);
        let db = rect_of(b).center().distance_sq(center);
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    let keep_from = k.min(entries.len().saturating_sub(1));
    let mut removed: Vec<E> = Vec::with_capacity(keep_from);
    // The farthest k are now at the front; drain them.
    for e in entries.drain(..keep_from) {
        removed.push(e);
    }
    removed
}

/// Flattens a subtree into its leaf entries.
fn flatten_into<T>(node: Node<T>, out: &mut Vec<LeafEntry<T>>) {
    match node {
        Node::Leaf(entries) => out.extend(entries),
        Node::Internal(children) => {
            for c in children {
                flatten_into(*c.child, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Rect {
        Rect::from_point(Point::new(x, y))
    }

    #[test]
    fn empty_tree() {
        let t: RStarTree<u32> = RStarTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.query_rect(&Rect::new(0.0, 0.0, 100.0, 100.0)).is_empty());
        t.check_invariants();
    }

    #[test]
    fn insert_and_query_small() {
        let mut t = RStarTree::new();
        t.insert(pt(1.0, 1.0), "a");
        t.insert(pt(5.0, 5.0), "b");
        t.insert(pt(9.0, 1.0), "c");
        assert_eq!(t.len(), 3);
        let hits = t.query_rect(&Rect::new(0.0, 0.0, 2.0, 2.0));
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].1, "a");
        t.check_invariants();
    }

    #[test]
    fn grows_past_one_node_and_stays_valid() {
        let mut t = RStarTree::with_max_entries(8);
        for i in 0..500u32 {
            let x = (i % 50) as f64;
            let y = (i / 50) as f64;
            t.insert(pt(x, y), i);
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() > 1);
        t.check_invariants();
        // Every inserted point is findable.
        for i in 0..500u32 {
            let x = (i % 50) as f64;
            let y = (i / 50) as f64;
            let hits = t.query_point(Point::new(x, y));
            assert!(hits.iter().any(|(_, &v)| v == i), "lost item {i}");
        }
    }

    #[test]
    fn query_matches_brute_force() {
        let mut t = RStarTree::with_max_entries(6);
        let mut all = Vec::new();
        // Deterministic pseudo-random points.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for i in 0..300u32 {
            let r = Rect::new(next() * 100.0, next() * 100.0, next() * 5.0, next() * 5.0);
            t.insert(r, i);
            all.push((r, i));
        }
        t.check_invariants();
        let q = Rect::new(20.0, 20.0, 30.0, 30.0);
        let mut got: Vec<u32> = t.query_rect(&q).iter().map(|(_, &v)| v).collect();
        let mut want: Vec<u32> = all
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|&(_, v)| v)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_existing_and_missing() {
        let mut t = RStarTree::with_max_entries(4);
        for i in 0..100u32 {
            t.insert(pt(i as f64, 0.0), i);
        }
        assert!(t.remove(&pt(50.0, 0.0), &50));
        assert!(!t.remove(&pt(50.0, 0.0), &50), "double remove must fail");
        assert!(!t.remove(&pt(1000.0, 0.0), &7), "missing rect");
        assert_eq!(t.len(), 99);
        t.check_invariants();
        assert!(t.query_point(Point::new(50.0, 0.0)).is_empty());
        assert!(!t.query_point(Point::new(51.0, 0.0)).is_empty());
    }

    #[test]
    fn remove_all_empties_tree() {
        let mut t = RStarTree::with_max_entries(4);
        for i in 0..64u32 {
            t.insert(pt((i % 8) as f64, (i / 8) as f64), i);
        }
        for i in 0..64u32 {
            assert!(
                t.remove(&pt((i % 8) as f64, (i / 8) as f64), &i),
                "lost {i}"
            );
            t.check_invariants();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn duplicate_entries_are_multiset() {
        let mut t = RStarTree::new();
        t.insert(pt(1.0, 1.0), 7u32);
        t.insert(pt(1.0, 1.0), 7);
        assert_eq!(t.len(), 2);
        assert!(t.remove(&pt(1.0, 1.0), &7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.query_point(Point::new(1.0, 1.0)).len(), 1);
    }

    #[test]
    fn update_moves_entry() {
        let mut t = RStarTree::new();
        for i in 0..50u32 {
            t.insert(pt(i as f64, 0.0), i);
        }
        assert!(t.update(&pt(10.0, 0.0), pt(200.0, 200.0), 10));
        assert!(t.query_point(Point::new(10.0, 0.0)).is_empty());
        assert_eq!(t.query_point(Point::new(200.0, 200.0)).len(), 1);
        assert_eq!(t.len(), 50);
        t.check_invariants();
        // Updating a missing entry still inserts and reports false.
        assert!(!t.update(&pt(999.0, 999.0), pt(5.0, 5.0), 777));
        assert_eq!(t.len(), 51);
    }

    #[test]
    fn iter_visits_everything_once() {
        let mut t = RStarTree::with_max_entries(5);
        for i in 0..200u32 {
            t.insert(pt((i % 20) as f64, (i / 20) as f64), i);
        }
        let mut seen: Vec<u32> = t.iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets() {
        let mut t = RStarTree::new();
        for i in 0..100u32 {
            t.insert(pt(i as f64, i as f64), i);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants();
        t.insert(pt(1.0, 1.0), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clustered_then_removed_keeps_invariants() {
        // Heavy churn in one region exercises reinsert + condense paths.
        let mut t = RStarTree::with_max_entries(8);
        for round in 0..5 {
            for i in 0..200u32 {
                let x = (i % 10) as f64 + round as f64 * 0.01;
                t.insert(pt(x, (i / 10) as f64), i);
            }
            t.check_invariants();
            for i in (0..200u32).step_by(2) {
                let x = (i % 10) as f64 + round as f64 * 0.01;
                assert!(t.remove(&pt(x, (i / 10) as f64), &i));
            }
            t.check_invariants();
        }
        assert_eq!(t.len(), 5 * 100);
    }
}

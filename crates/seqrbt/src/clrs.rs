//! # The red-black tree algorithms, written once
//!
//! Every red-black tree in the suite runs this code: [`RbTree`](crate::RbTree)
//! over its `Vec` arena, and `tinystm::RbStm` over TL2 transactional cells.
//! The algorithms are those of Cormen, Leiserson, Rivest and Stein
//! (*Introduction to Algorithms*, ch. 13). Nodes are addressed by `u32`
//! indices, [`NIL`] is the null link, and every node access goes through a
//! [`Store`]. A store's operations may give up with its
//! [`Stop`](Store::Stop) type: `Infallible` for a plain arena, a
//! transaction's abort for the STM. Each function here passes that on with
//! `?`, so the STM tree is the sequential tree run unmodified inside a
//! transaction.
//!
//! Each mirror-image pair of cases is written once, for a side `0` (left)
//! or `1` (right). A search reads each node it visits once, through one
//! [`Store::node`] call that yields the key and the links together.

use std::cmp::Ordering;
use std::ops::{Bound, RangeBounds};

/// The null link.
pub const NIL: u32 = u32::MAX;

/// A node's place in the tree: its two children, its parent and its
/// colour. Stores keep it opaque; only the algorithms here read or change
/// it.
#[derive(Clone, Copy, Debug)]
pub struct Links {
    child: [u32; 2],
    parent: u32,
    red: bool,
}

/// A tree node as a store keeps it.
#[derive(Clone, Debug)]
pub struct Node<K, V> {
    /// The key.
    pub key: K,
    /// The value.
    pub value: V,
    /// Where the node hangs; maintained by the algorithms.
    pub links: Links,
}

/// Node storage the algorithms run over. Reads take `&self`, writes
/// `&mut self`; every node index passed in is a live node.
pub trait Store {
    /// The key type.
    type Key: Ord;
    /// The value type.
    type Value;
    /// Why an operation gave up: `Infallible` when it cannot.
    type Stop;

    /// The root's index, or [`NIL`] for an empty tree.
    fn root(&self) -> Result<u32, Self::Stop>;
    /// Calls `f` with node `i`'s key and links, from one read of the node.
    fn node<R>(&self, i: u32, f: impl FnOnce(&Self::Key, Links) -> R) -> Result<R, Self::Stop>;
    /// A copy of node `i`'s key and value.
    fn pair(&self, i: u32) -> Result<(Self::Key, Self::Value), Self::Stop>;
    /// Makes `i` the root.
    fn set_root(&mut self, i: u32);
    /// Lets `f` change node `i`'s links.
    fn update<R>(&mut self, i: u32, f: impl FnOnce(&mut Links) -> R) -> Result<R, Self::Stop>;
    /// Gives node `i` a new value; returns the old one.
    fn replace(&mut self, i: u32, value: Self::Value) -> Result<Self::Value, Self::Stop>;
    /// Stores a new node; returns its index.
    fn alloc(&mut self, node: Node<Self::Key, Self::Value>) -> u32;
    /// Deletes node `i`, which is no longer linked; returns its value.
    fn free(&mut self, i: u32) -> Result<Self::Value, Self::Stop>;
}

fn links<S: Store>(s: &S, i: u32) -> Result<Links, S::Stop> {
    s.node(i, |_, l| l)
}

/// Whether `i` is red; the null link is black.
fn is_red<S: Store>(s: &S, i: u32) -> Result<bool, S::Stop> {
    Ok(i != NIL && s.node(i, |_, l| l.red)?)
}

fn paint<S: Store>(s: &mut S, i: u32, red: bool) -> Result<(), S::Stop> {
    s.update(i, |l| l.red = red)
}

/// Where a search for a key ends.
enum Search {
    /// At the node holding the key.
    Found(u32, Links),
    /// At a null link: the child on side `.1` of node `.0` ([`NIL`] for an
    /// empty tree).
    Vacant(u32, usize),
}

fn search<S: Store>(s: &S, key: &S::Key) -> Result<Search, S::Stop> {
    let (mut parent, mut side) = (NIL, 0);
    let mut cur = s.root()?;
    while cur != NIL {
        let (ord, l) = s.node(cur, |k, l| (key.cmp(k), l))?;
        if ord == Ordering::Equal {
            return Ok(Search::Found(cur, l));
        }
        side = (ord == Ordering::Greater) as usize;
        parent = cur;
        cur = l.child[side];
    }
    Ok(Search::Vacant(parent, side))
}

/// The node holding `key`.
pub fn find<S: Store>(s: &S, key: &S::Key) -> Result<Option<u32>, S::Stop> {
    Ok(match search(s, key)? {
        Search::Found(i, _) => Some(i),
        Search::Vacant(..) => None,
    })
}

/// The node with the nearest key beyond `key` in direction `toward`: the
/// smallest greater key for `Ordering::Greater` (the successor), the
/// largest smaller key for `Ordering::Less` (the predecessor).
pub fn neighbour<S: Store>(s: &S, key: &S::Key, toward: Ordering) -> Result<Option<u32>, S::Stop> {
    debug_assert_ne!(toward, Ordering::Equal);
    // The side of a candidate on which nearer candidates lie.
    let nearer = (toward == Ordering::Less) as usize;
    let (mut cur, mut best) = (s.root()?, None);
    while cur != NIL {
        let (beyond, l) = s.node(cur, |k, l| (k.cmp(key) == toward, l))?;
        if beyond {
            best = Some(cur);
            cur = l.child[nearer];
        } else {
            cur = l.child[1 - nearer];
        }
    }
    Ok(best)
}

/// Points `parent`'s link to `old` at `new`; a [`NIL`] `parent` means the
/// root.
fn replace_child<S: Store>(s: &mut S, parent: u32, old: u32, new: u32) -> Result<(), S::Stop> {
    if parent == NIL {
        s.set_root(new);
        return Ok(());
    }
    s.update(parent, |l| l.child[(l.child[0] != old) as usize] = new)
}

/// Raises `x`'s child on side `1 - side`, making `x` its child on `side`
/// (`side` 0: a left rotation). Reads each node once.
fn rotate<S: Store>(s: &mut S, x: u32, side: usize) -> Result<(), S::Stop> {
    let (y, xp) = s.update(x, |l| {
        let old = (l.child[1 - side], l.parent);
        l.parent = old.0;
        old
    })?;
    let inner = s.update(y, |l| {
        l.parent = xp;
        std::mem::replace(&mut l.child[side], x)
    })?;
    s.update(x, |l| l.child[1 - side] = inner)?;
    if inner != NIL {
        s.update(inner, |l| l.parent = x)?;
    }
    replace_child(s, xp, x, y)
}

/// Inserts `key → value`; returns the previous value if the key was
/// present.
pub fn insert<S: Store>(
    s: &mut S,
    key: S::Key,
    value: S::Value,
) -> Result<Option<S::Value>, S::Stop> {
    let (parent, side) = match search(s, &key)? {
        Search::Found(i, _) => return s.replace(i, value).map(Some),
        Search::Vacant(parent, side) => (parent, side),
    };
    let links = Links {
        child: [NIL; 2],
        parent,
        red: true,
    };
    let z = s.alloc(Node { key, value, links });
    if parent == NIL {
        s.set_root(z);
    } else {
        s.update(parent, |l| l.child[side] = z)?;
    }
    insert_fixup(s, z, parent)?;
    Ok(None)
}

/// Restores the colour invariants above the red node `z`, whose parent is
/// `zp`.
fn insert_fixup<S: Store>(s: &mut S, mut z: u32, mut zp: u32) -> Result<(), S::Stop> {
    loop {
        if zp == NIL {
            // `z` is the root.
            return paint(s, z, false);
        }
        let zpl = links(s, zp)?;
        if !zpl.red {
            return Ok(());
        }
        // A red parent is not the root, so the grandparent exists.
        let zpp = zpl.parent;
        let zppl = links(s, zpp)?;
        let side = (zppl.child[0] != zp) as usize;
        let uncle = zppl.child[1 - side];
        if is_red(s, uncle)? {
            paint(s, zp, false)?;
            paint(s, uncle, false)?;
            paint(s, zpp, true)?;
            (z, zp) = (zpp, zppl.parent);
            continue;
        }
        if zpl.child[1 - side] == z {
            // An inner grandchild: rotating it outward makes it the parent.
            rotate(s, zp, side)?;
            zp = z;
        }
        paint(s, zp, false)?;
        paint(s, zpp, true)?;
        return rotate(s, zpp, 1 - side);
    }
}

/// Puts subtree `v` where subtree `u`, the child of `up`, hangs.
fn transplant<S: Store>(s: &mut S, u: u32, up: u32, v: u32) -> Result<(), S::Stop> {
    replace_child(s, up, u, v)?;
    if v != NIL {
        s.update(v, |l| l.parent = up)?;
    }
    Ok(())
}

/// Removes `key`; returns its value if it was present.
pub fn remove<S: Store>(s: &mut S, key: &S::Key) -> Result<Option<S::Value>, S::Stop> {
    let Search::Found(z, zl) = search(s, key)? else {
        return Ok(None);
    };
    // The node `y` leaving its position is `z` itself or, if `z` has two
    // children, its successor. `x` (possibly NIL) moves into y's old
    // position, under `xp`.
    let (x, xp, y_red);
    if zl.child[0] == NIL || zl.child[1] == NIL {
        x = zl.child[(zl.child[0] == NIL) as usize];
        (xp, y_red) = (zl.parent, zl.red);
        transplant(s, z, zl.parent, x)?;
    } else {
        let (mut y, mut yl) = (zl.child[1], links(s, zl.child[1])?);
        while yl.child[0] != NIL {
            y = yl.child[0];
            yl = links(s, y)?;
        }
        (x, y_red) = (yl.child[1], yl.red);
        // `y` takes over z's parent, children and colour.
        let mut taken = zl;
        if yl.parent == z {
            xp = y;
            taken.child[1] = x;
        } else {
            xp = yl.parent;
            transplant(s, y, yl.parent, x)?;
            s.update(zl.child[1], |l| l.parent = y)?;
        }
        s.update(zl.child[0], |l| l.parent = y)?;
        s.update(y, |l| *l = taken)?;
        replace_child(s, zl.parent, z, y)?;
    }
    let value = s.free(z)?;
    if !y_red {
        delete_fixup(s, x, xp)?;
    }
    Ok(Some(value))
}

/// Removes the extra black that `x` (possibly NIL), the child of `xp`,
/// carries after a black node left the tree.
fn delete_fixup<S: Store>(s: &mut S, mut x: u32, mut xp: u32) -> Result<(), S::Stop> {
    loop {
        if is_red(s, x)? {
            return paint(s, x, false);
        }
        if xp == NIL {
            // `x` is the root and absorbs the extra black.
            return Ok(());
        }
        let xpl = links(s, xp)?;
        let side = (xpl.child[0] != x) as usize;
        let mut w = xpl.child[1 - side];
        let mut wl = links(s, w)?;
        if wl.red {
            paint(s, w, false)?;
            paint(s, xp, true)?;
            rotate(s, xp, side)?;
            w = wl.child[side];
            wl = links(s, w)?;
        }
        let (near, far) = (wl.child[side], wl.child[1 - side]);
        let far_red = is_red(s, far)?;
        if !far_red && !is_red(s, near)? {
            paint(s, w, true)?;
            x = xp;
            xp = links(s, x)?.parent;
            continue;
        }
        let (w, far) = if far_red {
            (w, far)
        } else {
            // The near nephew is red: rotate it into the sibling's place.
            paint(s, near, false)?;
            paint(s, w, true)?;
            rotate(s, w, 1 - side)?;
            (near, w)
        };
        let xp_red = is_red(s, xp)?;
        paint(s, w, xp_red)?;
        paint(s, xp, false)?;
        paint(s, far, false)?;
        return rotate(s, xp, side);
    }
}

/// Key-value pairs copied out of a store, in key order.
pub type Pairs<S> = Vec<(<S as Store>::Key, <S as Store>::Value)>;

/// All pairs with keys in `bounds`, sorted: an in-order walk that skips
/// subtrees outside the bounds. Recursion depth is the tree height.
pub fn range<S, B>(s: &S, bounds: &B) -> Result<Pairs<S>, S::Stop>
where
    S: Store,
    B: RangeBounds<S::Key>,
{
    fn walk<S: Store, B: RangeBounds<S::Key>>(
        s: &S,
        i: u32,
        bounds: &B,
        out: &mut Pairs<S>,
    ) -> Result<(), S::Stop> {
        if i == NIL {
            return Ok(());
        }
        let (left, here, right) = s.node(i, |k, l| {
            let left = match bounds.start_bound() {
                Bound::Unbounded => true,
                Bound::Included(lo) | Bound::Excluded(lo) => lo < k,
            };
            let right = match bounds.end_bound() {
                Bound::Unbounded => true,
                Bound::Included(hi) | Bound::Excluded(hi) => hi > k,
            };
            let skip = |go: bool, c: u32| if go { c } else { NIL };
            (
                skip(left, l.child[0]),
                bounds.contains(k),
                skip(right, l.child[1]),
            )
        })?;
        // Copy the pair before the left walk: a store may serve it from
        // the read just made.
        let here = if here { Some(s.pair(i)?) } else { None };
        walk(s, left, bounds, out)?;
        out.extend(here);
        walk(s, right, bounds, out)
    }
    let mut out = Vec::new();
    walk(s, s.root()?, bounds, &mut out)?;
    Ok(out)
}

/// Checks the search-tree order, the red-black colour rules and the parent
/// links. Returns the black height, or a description of a violation.
pub fn check<S>(s: &S) -> Result<Result<usize, String>, S::Stop>
where
    S: Store,
    S::Key: Clone,
{
    fn walk<S: Store<Key: Clone>>(
        s: &S,
        i: u32,
        parent: u32,
        bounds: (Option<&S::Key>, Option<&S::Key>),
        flaw: &mut Option<String>,
    ) -> Result<usize, S::Stop> {
        if i == NIL {
            return Ok(1);
        }
        let (key, l) = s.node(i, |k, l| (k.clone(), l))?;
        let mut fail = |what: String| {
            flaw.get_or_insert(format!("node {i}: {what}"));
        };
        if l.parent != parent {
            fail(format!("parent link {} under parent {parent}", l.parent));
        }
        if bounds.0.is_some_and(|lo| &key <= lo) || bounds.1.is_some_and(|hi| &key >= hi) {
            fail("search-tree order violated".into());
        }
        if l.red && (is_red(s, l.child[0])? || is_red(s, l.child[1])?) {
            fail("red node with a red child".into());
        }
        let lh = walk(s, l.child[0], i, (bounds.0, Some(&key)), flaw)?;
        let rh = walk(s, l.child[1], i, (Some(&key), bounds.1), flaw)?;
        if lh != rh {
            flaw.get_or_insert(format!("node {i}: black heights differ: {lh} vs {rh}"));
        }
        Ok(lh + !l.red as usize)
    }
    let root = s.root()?;
    if is_red(s, root)? {
        return Ok(Err("root is red".into()));
    }
    let mut flaw = None;
    let height = walk(s, root, NIL, (None, None), &mut flaw)?;
    Ok(flaw.map_or(Ok(height), Err))
}

#[cfg(test)]
mod tests {
    use crate::RbTree;

    #[test]
    fn check_catches_a_broken_parent_link() {
        let mut t = RbTree::new();
        for k in 0..8u64 {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        let root = t.arena.root;
        let nodes = &t.arena.nodes;
        let leaf = nodes
            .iter()
            .position(|n| n.as_ref().is_some_and(|n| n.key == 7));
        let leaf = leaf.unwrap() as u32;
        assert_ne!(t.arena.at(leaf).links.parent, root);
        t.arena.at_mut(leaf).links.parent = root;
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("parent link"), "{err}");
        // Lookups never read parent links, so only the check notices.
        assert_eq!(t.get(&7), Some(&7));
    }
}

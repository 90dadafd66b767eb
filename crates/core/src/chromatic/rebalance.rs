//! `Cleanup`, `TryRebalance` and the 22 rebalancing steps (paper §5.2,
//! Figs. 11 and 14–17).
//!
//! Each rebalancing step is implemented once, parameterized by a direction
//! `d` (`0` = the left-hand version drawn in Fig. 11, `1` = its mirror), so
//! the 11 drawn transformations cover all 22. Every step is an instance of
//! the tree update template: LLXs on the affected nodes, then one SCX that
//! swings a single child pointer, replacing the removed set `R` by freshly
//! allocated nodes `N` while the fringe `F_N` is reused.
//!
//! The chosen step set satisfies the paper's **VIOL** property: a violation
//! on the search path to a key stays on that search path (or is eliminated),
//! which is what lets each insertion/deletion clean up the violation it
//! created by repeatedly searching for its own key.

use llxscx::epoch::{Guard, Shared};

use super::stats::Step;
use super::{edge_violations, ChromaticTree};
use crate::node::Node;
use crate::template::{bfs2, commit, copy_with_weight, llx_ok, mk_internal, side_of, Handle};

type H<'g, K, V> = Handle<'g, K, V>;

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The paper's `Cleanup(key)` (Fig. 15): repeatedly walk the search path
    /// for `key` from `entry`; at the first violation, attempt one
    /// rebalancing step and restart; return once a full walk reaches a leaf
    /// without seeing a violation. By VIOL, the violation this thread's
    /// update created is then guaranteed to be gone.
    #[allow(unused_assignments)] // ALLOW: the walk's final `gp/p` shifts are dead on the exit path; restructuring would obscure the paper's Fig. 12 loop
    pub(crate) fn cleanup(&self, key: &K) {
        loop {
            // One walk per cached-guard entry (see `ChromaticTree::insert`);
            // `true` means the walk was clean and cleanup is done.
            let clean = llxscx::with_guard(|guard| {
                self.stats.bump_cleanup_passes();
                let mut gp: Shared<'_, Node<K, V>> = Shared::null();
                let mut p: Shared<'_, Node<K, V>> = Shared::null();
                let mut ggp: Shared<'_, Node<K, V>> = Shared::null();
                let mut l = self.tree.entry(guard);
                loop {
                    // SAFETY: reached from entry under `guard` (property C3).
                    let l_ref = unsafe { l.deref() };
                    if l_ref.is_leaf(guard) {
                        return true; // clean walk: our violation is gone
                    }
                    let dir = if l_ref.route_left(key) { 0 } else { 1 };
                    ggp = gp;
                    gp = p;
                    p = l;
                    l = l_ref.read_child(dir, guard);
                    // SAFETY: `l` is a child of a live internal node (leaf-oriented tree:
                    // children of internals are never null), read under `guard`;
                    // `l_ref` is its parent on this walk.
                    if edge_violations(l_ref, unsafe { l.deref() }) > 0 {
                        if !ggp.is_null() {
                            // A failed attempt is fine: the walk restarts.
                            let _ = self.try_rebalance(ggp, gp, p, l, guard);
                        }
                        return false; // go back to entry and search again
                    }
                }
            });
            if clean {
                return;
            }
        }
    }

    /// One rebalancing attempt at the violation found at `l` with ancestors
    /// `p`, `gp`, `ggp` (paper Fig. 15, lines 94–130). `Some(())` iff a
    /// step committed; `None` (a concurrent update interfered, or the
    /// section no longer looks like the walk saw it) is fine: the caller
    /// restarts its walk.
    pub(crate) fn try_rebalance<'g>(
        &self,
        ggp: Shared<'g, Node<K, V>>,
        gp: Shared<'g, Node<K, V>>,
        p: Shared<'g, Node<K, V>>,
        l: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) -> Option<()> {
        let hr = llx_ok(ggp, guard)?;
        side_of(&hr, gp)?;
        let hrx = llx_ok(gp, guard)?;
        side_of(&hrx, p)?;
        let hrxx = llx_ok(p, guard)?;

        // SAFETY: `l` reached from entry under `guard`; weights immutable.
        if unsafe { l.deref() }.weight() > 1 {
            // Overweight violation at l.
            let d = side_of(&hrxx, l)?;
            let hl = llx_ok(l, guard)?;
            self.overweight(&hr, &hrx, &hrxx, &hl, d, guard)
        } else {
            // Red-red violation at l (l.w = p.w = 0, gp.w ≠ 0).
            self.red_red(&hr, &hrx, &hrxx, l, guard)
        }
    }

    /// Fixes the red-red violation at `c`, a red child of the red node
    /// `rxx` (Fig. 15): **BLK** when `rxx`'s sibling is red too, otherwise
    /// a rotation at `rx` — **RB1** when `c` is the *outside* grandchild,
    /// **RB2** when it is the inside one. One body for both mirror images:
    /// `e` is `rxx`'s side under `rx`.
    fn red_red<'g>(
        &self,
        hr: &H<'g, K, V>,
        hrx: &H<'g, K, V>,
        hrxx: &H<'g, K, V>,
        c: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) -> Option<()> {
        let e = side_of(hrx, hrxx.node)?;
        let uncle = hrx.child(1 - e);
        // SAFETY: `rx` is internal (it has the child `rxx`), so both its
        // children are non-null; weights are immutable.
        if unsafe { uncle.deref() }.weight() == 0 {
            let [left, right] = bfs2(*hrxx, llx_ok(uncle, guard)?, e);
            self.do_blk(hr, hrx, &left, &right, guard)
        } else if c == hrxx.child(e) {
            self.do_rb1(hr, hrx, hrxx, e, guard)
        } else if c == hrxx.child(1 - e) {
            self.do_rb2(hr, hrx, hrxx, &llx_ok(c, guard)?, e, guard)
        } else {
            None // `c` is no longer `rxx`'s child
        }
    }

    /// `OverweightLeft`/`OverweightRight` (paper Fig. 16), merged via the
    /// direction `d` of the overweight child under its parent `rxx`.
    ///
    /// Handles: `hr → r (ggp)`, `hrx → rx (gp)`, `hrxx → rxx (p)`,
    /// `hl → the overweight child`.
    fn overweight<'g>(
        &self,
        hr: &H<'g, K, V>,
        hrx: &H<'g, K, V>,
        hrxx: &H<'g, K, V>,
        hl: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let sib = hrxx.child(o);
        debug_assert!(!sib.is_null(), "overweight node's parent must be internal");
        // SAFETY: weights are immutable; nodes protected by `guard`.
        let sib_w = unsafe { sib.deref() }.weight();

        if sib_w == 0 {
            if hrxx.node_ref().weight() == 0 {
                // rxx is red with a red child (the sibling): fix that
                // red-red violation first, one level up (u = r, ux = rx).
                return self.red_red(hr, hrx, hrxx, sib, guard);
            }
            // Red sibling, black parent: W1–W4 / an RB2 at the rx level,
            // depending on the sibling's child nearer the violation.
            let hs = llx_ok(sib, guard)?;
            let sl = hs.child(d);
            if sl.is_null() {
                return None; // sibling became a leaf: a node changed under us
            }
            // SAFETY: `s` was re-checked internal above, so `sl` is non-null.
            let sl_w = unsafe { sl.deref() }.weight();
            let hsl = llx_ok(sl, guard)?;
            if sl_w > 1 {
                self.do_w1(hrx, hrxx, hl, &hs, &hsl, d, guard)
            } else if sl_w == 0 {
                // Red-red at sl under the red sibling: rotate it out
                // (paper line 152: V = ⟨rx, rxx, rxxr, rxxrl⟩, u = rx).
                self.do_rb2(hrx, hrxx, &hs, &hsl, o, guard)
            } else {
                // sl.w == 1: W2/W3/W4 based on sl's children.
                let far = hsl.child(o);
                if far.is_null() {
                    return None; // sl is a leaf: a node we LLXed was modified
                }
                // SAFETY: `sl` was re-checked internal above; its children are non-null.
                if unsafe { far.deref() }.weight() == 0 {
                    let hfar = llx_ok(far, guard)?;
                    return self.do_w4(hrx, hrxx, hl, &hs, &hsl, &hfar, d, guard);
                }
                let near = hsl.child(d);
                // SAFETY: as for `far`: child of the internal `sl`.
                if unsafe { near.deref() }.weight() == 0 {
                    let hnear = llx_ok(near, guard)?;
                    self.do_w3(hrx, hrxx, hl, &hs, &hsl, &hnear, d, guard)
                } else {
                    self.do_w2(hrx, hrxx, hl, &hs, &hsl, d, guard)
                }
            }
        } else if sib_w == 1 {
            let hs = llx_ok(sib, guard)?;
            let far = hs.child(o);
            if far.is_null() {
                return None; // sibling is a leaf: a node we LLXed was modified
            }
            // SAFETY: `s` was re-checked internal above; its children are non-null.
            if unsafe { far.deref() }.weight() == 0 {
                let hfar = llx_ok(far, guard)?;
                return self.do_w5(hrx, hrxx, hl, &hs, &hfar, d, guard);
            }
            let near = hs.child(d);
            // SAFETY: as for `far`: child of the internal `s`.
            if unsafe { near.deref() }.weight() == 0 {
                let hnear = llx_ok(near, guard)?;
                self.do_w6(hrx, hrxx, hl, &hs, &hnear, d, guard)
            } else {
                self.do_push(hrx, hrxx, hl, &hs, d, guard)
            }
        } else {
            // Sibling also overweight: W7.
            let hs = llx_ok(sib, guard)?;
            self.do_w7(hrx, hrxx, hl, &hs, d, guard)
        }
    }
}

// ---------------------------------------------------------------------------
// The transformations of Fig. 11. Shared helpers first.
// ---------------------------------------------------------------------------

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Weight for a replacement node installed under `u`: the chromatic tree
    /// root (parent has the sentinel key `∞`) always keeps weight 1
    /// (paper §C.4, proof of Lemma 28).
    fn top_weight(hu: &H<'_, K, V>, computed: u32) -> u32 {
        if hu.node_ref().is_sentinel_key() {
            1
        } else {
            computed
        }
    }

    /// Runs the SCX for a rebalancing step: `v` in BFS order, finalizing all
    /// of `v` except the first entry (`u`), swinging `u`'s pointer to `ux`
    /// over to `new`. `Some(())` iff the step committed; on failure the
    /// freshly built nodes in `created` are released.
    ///
    /// # Safety
    /// [`commit`]'s contract for `created`.
    unsafe fn commit_step<'g>(
        &self,
        step: Step,
        v: &[H<'g, K, V>],
        new: Shared<'g, Node<K, V>>,
        created: &[Shared<'g, Node<K, V>>],
        guard: &'g Guard,
    ) -> Option<()> {
        let fld_idx = side_of(&v[0], v[1].node).expect("callers validated the u → ux edge");
        // R = all of V except u.
        let finalize = ((1u16 << v.len()) - 2) as u8;
        // SAFETY: forwarded contract.
        unsafe { commit(v, finalize, fld_idx, new, created, guard) }
            .then(|| self.stats.bump_step(step))
    }

    /// **BLK** (recolor, its own mirror image): `ux` with two red children
    /// is replaced by a copy of weight `ux.w − 1` whose children are copies
    /// with weight 1. Applied only when a red-red violation exists below.
    fn do_blk<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        huxl: &H<'g, K, V>,
        huxr: &H<'g, K, V>,
        guard: &'g Guard,
    ) -> Option<()> {
        let nl = copy_with_weight(huxl, 1, guard);
        let nr = copy_with_weight(huxr, 1, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight().max(1) - 1);
        let n = Node::internal(hux.node_ref().key().cloned(), w, nl, nr).into_shared(guard);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe {
            self.commit_step(
                Step::Blk,
                &[*hu, *hux, *huxl, *huxr],
                n,
                &[nl, nr, n],
                guard,
            )
        }
    }

    /// **RB1 / RB1s** (single rotation): fixes a red-red violation at the
    /// *outside* grandchild. `hc` is `ux`'s child on side `d` (red, with a
    /// red child on side `d`).
    fn do_rb1<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        hc: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let inner = mk_internal(hux.node_ref().key(), 0, d, hc.child(o), hux.child(o), guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = mk_internal(hc.node_ref().key(), w, d, hc.child(d), inner, guard);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe { self.commit_step(Step::Rb1, &[*hu, *hux, *hc], n, &[inner, n], guard) }
    }

    /// **RB2 / RB2s** (double rotation, Fig. 17): fixes a red-red violation
    /// at the *inside* grandchild. `hc` is `ux`'s child on side `d` (red);
    /// `hgc` is `hc`'s child on side `1 − d` (red).
    fn do_rb2<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        hc: &H<'g, K, V>,
        hgc: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let nd = mk_internal(hc.node_ref().key(), 0, d, hc.child(d), hgc.child(d), guard);
        let no = mk_internal(
            hux.node_ref().key(),
            0,
            d,
            hgc.child(o),
            hux.child(o),
            guard,
        );
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = mk_internal(hgc.node_ref().key(), w, d, nd, no, guard);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe { self.commit_step(Step::Rb2, &[*hu, *hux, *hc, *hgc], n, &[nd, no, n], guard) }
    }

    /// **PUSH / PUSHs**: the overweight child `ha` (side `d`) gives one
    /// weight unit to the parent; the weight-1 sibling `hs` goes red.
    /// Applied only when the sibling's children are not red.
    fn do_push<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let na = copy_with_weight(ha, ha.node_ref().weight() - 1, guard);
        let ns = copy_with_weight(hs, 0, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight() + 1);
        let n = mk_internal(hux.node_ref().key(), w, d, na, ns, guard);
        let [c0, c1] = bfs2(*ha, *hs, d);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe { self.commit_step(Step::Push, &[*hu, *hux, c0, c1], n, &[na, ns, n], guard) }
    }

    /// **W1 / W1s**: red sibling whose near child is also overweight — one
    /// rotation reduces both overweights.
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w1<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hsl: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let na = copy_with_weight(ha, ha.node_ref().weight() - 1, guard);
        let nsl = copy_with_weight(hsl, hsl.node_ref().weight() - 1, guard);
        let nl = mk_internal(hux.node_ref().key(), 1, d, na, nsl, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = mk_internal(hs.node_ref().key(), w, d, nl, hs.child(o), guard);
        let [c0, c1] = bfs2(*ha, *hs, d);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe {
            self.commit_step(
                Step::W1,
                &[*hu, *hux, c0, c1, *hsl],
                n,
                &[na, nsl, nl, n],
                guard,
            )
        }
    }

    /// **W2 / W2s**: red sibling, near child weight 1 with no red child —
    /// rotation; the near child goes red.
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w2<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hsl: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let na = copy_with_weight(ha, ha.node_ref().weight() - 1, guard);
        let nsl = copy_with_weight(hsl, 0, guard);
        let nl = mk_internal(hux.node_ref().key(), 1, d, na, nsl, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = mk_internal(hs.node_ref().key(), w, d, nl, hs.child(o), guard);
        let [c0, c1] = bfs2(*ha, *hs, d);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe {
            self.commit_step(
                Step::W2,
                &[*hu, *hux, c0, c1, *hsl],
                n,
                &[na, nsl, nl, n],
                guard,
            )
        }
    }

    /// **W3 / W3s**: red sibling, near child weight 1 whose *near* child is
    /// red — double rotation through that red grandchild (`hd`).
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w3<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hsl: &H<'g, K, V>,
        hd: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let na = copy_with_weight(ha, ha.node_ref().weight() - 1, guard);
        let nll = mk_internal(hux.node_ref().key(), 0, d, na, hd.child(d), guard);
        let nlr = mk_internal(hsl.node_ref().key(), 0, d, hd.child(o), hsl.child(o), guard);
        let nl = mk_internal(hd.node_ref().key(), 1, d, nll, nlr, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = mk_internal(hs.node_ref().key(), w, d, nl, hs.child(o), guard);
        let [c0, c1] = bfs2(*ha, *hs, d);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe {
            self.commit_step(
                Step::W3,
                &[*hu, *hux, c0, c1, *hsl, *hd],
                n,
                &[na, nll, nlr, nl, n],
                guard,
            )
        }
    }

    /// **W4 / W4s**: red sibling, near child weight 1 whose *far* child is
    /// red — rotation through the near child (`hsl`); `hfar` is its red
    /// child on the far side.
    ///
    /// Weight placement: the replacement triple is `(0, 1, 1)` — a red node
    /// over two weight-1 internals — NOT `(1, 0, 0)`. Both preserve path
    /// sums, but with `(1, 0, 0)` the sibling's *near* grandchild (whose
    /// weight is unconstrained here, unlike in W2/W3) would sit under a red
    /// new node and, if itself red, mint a red-red violation that no
    /// in-progress operation owns — breaking Lemma 26's accounting and
    /// leaving a violation nothing ever cleans up (observed as a `Cleanup`
    /// livelock under contention before this was fixed).
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w4<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hsl: &H<'g, K, V>,
        hfar: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let na = copy_with_weight(ha, ha.node_ref().weight() - 1, guard);
        let p2 = mk_internal(hux.node_ref().key(), 1, d, na, hsl.child(d), guard);
        let p3 = mk_internal(
            hfar.node_ref().key(),
            1,
            d,
            hfar.child(d),
            hfar.child(o),
            guard,
        );
        let p = mk_internal(hsl.node_ref().key(), 0, d, p2, p3, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = mk_internal(hs.node_ref().key(), w, d, p, hs.child(o), guard);
        let [c0, c1] = bfs2(*ha, *hs, d);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe {
            self.commit_step(
                Step::W4,
                &[*hu, *hux, c0, c1, *hsl, *hfar],
                n,
                &[na, p2, p3, p, n],
                guard,
            )
        }
    }

    /// **W5 / W5s**: weight-1 sibling whose *far* child is red — single
    /// rotation (the classic red-black "case 4").
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w5<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hfar: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let na = copy_with_weight(ha, ha.node_ref().weight() - 1, guard);
        let nl = mk_internal(hux.node_ref().key(), 1, d, na, hs.child(d), guard);
        let nr = mk_internal(
            hfar.node_ref().key(),
            1,
            d,
            hfar.child(d),
            hfar.child(o),
            guard,
        );
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = mk_internal(hs.node_ref().key(), w, d, nl, nr, guard);
        let [c0, c1] = bfs2(*ha, *hs, d);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe {
            self.commit_step(
                Step::W5,
                &[*hu, *hux, c0, c1, *hfar],
                n,
                &[na, nl, nr, n],
                guard,
            )
        }
    }

    /// **W6 / W6s**: weight-1 sibling whose *near* child is red — double
    /// rotation (the classic red-black "case 3").
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w6<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hnear: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let o = 1 - d;
        let na = copy_with_weight(ha, ha.node_ref().weight() - 1, guard);
        let nl = mk_internal(hux.node_ref().key(), 1, d, na, hnear.child(d), guard);
        let nr = mk_internal(
            hs.node_ref().key(),
            1,
            d,
            hnear.child(o),
            hs.child(o),
            guard,
        );
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = mk_internal(hnear.node_ref().key(), w, d, nl, nr, guard);
        let [c0, c1] = bfs2(*ha, *hs, d);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe {
            self.commit_step(
                Step::W6,
                &[*hu, *hux, c0, c1, *hnear],
                n,
                &[na, nl, nr, n],
                guard,
            )
        }
    }

    /// **W7 / W7s**: both children overweight — each gives one weight unit
    /// to the parent.
    fn do_w7<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> Option<()> {
        let na = copy_with_weight(ha, ha.node_ref().weight() - 1, guard);
        let ns = copy_with_weight(hs, hs.node_ref().weight() - 1, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight() + 1);
        let n = mk_internal(hux.node_ref().key(), w, d, na, ns, guard);
        let [c0, c1] = bfs2(*ha, *hs, d);
        // SAFETY: `created` lists exactly the nodes allocated above, each
        // once; all are unpublished.
        unsafe { self.commit_step(Step::W7, &[*hu, *hux, c0, c1], n, &[na, ns, n], guard) }
    }
}

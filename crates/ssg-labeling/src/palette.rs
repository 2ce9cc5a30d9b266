//! The palette family `P_0, ..., P_t` of the paper's interval algorithms
//! (Figure 1 and §3.2) and of the tree sweeps (Figures 3–5, §4.2).
//!
//! * [`BitsetPalette`] — the palette every solver runs on; each
//!   [`Workspace`](crate::workspace::Workspace) holds one. Each level keeps
//!   an append-ordered arena of linked colors plus a `u64` liveness word
//!   per 64 arena slots; `pop` is a find-last-set word scan from a
//!   monotone top-word hint, and the δ-gap extraction of the §4.2 tree
//!   approximation tests each candidate against a precomputed `[lo, hi]`
//!   separation window with branchless compares instead of a per-color
//!   predicate call. Because a re-link always appends, arena position
//!   order *is* recency order, so every operation observes the exact LIFO
//!   semantics of the linked list below.
//! * [`PaletteFamily`] — the reference, implemented exactly as Theorem 1's
//!   complexity proof prescribes: doubly linked lists threaded through a
//!   color-indexed table `C[c]`, so that insertion, extraction of a
//!   *given* color, and extraction of *some* color are all `O(1)`. It does
//!   not run in production; this module's tests drive both structures
//!   through the same random op sequences and require identical
//!   observables, which is what ties the bitset to the paper's lists.
//!
//! Semantics shared by both: colors live at a *level* `0..=t`, are
//! *linked* (listed) or *parked* (tracked but extractable only by id),
//! `pop` returns the most recently linked color of a level, and
//! `pop_where`/`pop_separated` scan linked colors most-recent-first.
//!
//! Both maintain two deterministic work tallies:
//!
//! * `probe_count()` — palette entries *examined* by `pop`/`pop_where`/
//!   `pop_separated` (the paper-facing probe counter, identical across
//!   the two structures on identical op sequences).
//! * `word_scan_count()` — structure words read or written per operation
//!   (list pointer splices vs bitset word updates); the bitset's feeds the
//!   `palette_word_scans` counter.

/// Sentinel for "no color" in the intrusive lists (also used by callers as
/// a "no parent color" marker for [`BitsetPalette::pop_separated`]).
const NIL: u32 = u32::MAX;

/// A family of `t + 1` palettes over colors `0..pool_size`, with O(1)
/// insert / remove / pop and per-color level tracking — the reference
/// linked lists of Theorem 1 that [`BitsetPalette`] is checked against.
///
/// A color is always *assigned a level* once introduced, but may be
/// temporarily **parked** (tracked at its level yet not linked into the
/// list) — the §3.2 approximation uses this for colors blocked by the
/// `δ1`-separation of an open interval.
#[derive(Debug, Clone)]
pub struct PaletteFamily {
    next: Vec<u32>,
    prev: Vec<u32>,
    level: Vec<u32>,
    linked: Vec<bool>,
    head: Vec<u32>,
    len: Vec<usize>,
    probes: u64,
    word_scans: u64,
}

impl PaletteFamily {
    /// Creates palettes `P_0..P_t` with an initial pool of `pool` colors
    /// (`0..pool`), all linked into `P_0`.
    pub fn new(t: u32, pool: usize) -> Self {
        let mut f = PaletteFamily {
            next: Vec::new(),
            prev: Vec::new(),
            level: Vec::new(),
            linked: Vec::new(),
            head: Vec::new(),
            len: Vec::new(),
            probes: 0,
            word_scans: 0,
        };
        f.reset(t, pool);
        f
    }

    /// See [`BitsetPalette::reset`].
    pub fn reset(&mut self, t: u32, pool: usize) {
        self.next.clear();
        self.prev.clear();
        self.level.clear();
        self.linked.clear();
        self.head.clear();
        self.head.resize(t as usize + 1, NIL);
        self.len.clear();
        self.len.resize(t as usize + 1, 0);
        self.probes = 0;
        self.word_scans = 0;
        for _ in 0..pool {
            self.grow();
        }
    }

    /// Number of palettes (`t + 1`).
    pub fn num_levels(&self) -> usize {
        self.head.len()
    }

    /// Total colors ever introduced.
    pub fn pool_size(&self) -> usize {
        self.level.len()
    }

    /// Introduces the next color (id `pool_size()`), linked into `P_0`.
    /// Returns its id.
    pub fn grow(&mut self) -> u32 {
        let c = self.level.len() as u32;
        self.next.push(NIL);
        self.prev.push(NIL);
        self.level.push(0);
        self.linked.push(false);
        self.word_scans += 4;
        self.link(0, c);
        c
    }

    /// The palette index currently holding color `c`.
    pub fn level_of(&self, c: u32) -> u32 {
        self.level[c as usize]
    }

    /// Whether `c` is linked into its palette's list (not parked).
    pub fn is_linked(&self, c: u32) -> bool {
        self.linked[c as usize]
    }

    /// Number of linked colors in palette `j`.
    pub fn len(&self, j: u32) -> usize {
        self.len[j as usize]
    }

    /// Whether palette `j` has no linked colors.
    pub fn is_empty(&self, j: u32) -> bool {
        self.len[j as usize] == 0
    }

    /// Links `c` into palette `j` (front insertion) and records its level.
    /// `c` must not currently be linked.
    pub fn link(&mut self, j: u32, c: u32) {
        debug_assert!(!self.linked[c as usize], "color {c} already linked");
        let h = self.head[j as usize];
        // Word tally: next[c], prev[c], head read+write, level, linked,
        // len, plus the old head's prev backlink when the list was
        // non-empty.
        self.word_scans += 7 + (h != NIL) as u64;
        self.next[c as usize] = h;
        self.prev[c as usize] = NIL;
        if h != NIL {
            self.prev[h as usize] = c;
        }
        self.head[j as usize] = c;
        self.level[c as usize] = j;
        self.linked[c as usize] = true;
        self.len[j as usize] += 1;
    }

    /// Unlinks `c` from its palette list, keeping its level. The color is
    /// then *parked*.
    pub fn unlink(&mut self, c: u32) {
        debug_assert!(self.linked[c as usize], "color {c} not linked");
        let (p, n) = (self.prev[c as usize], self.next[c as usize]);
        // Word tally: prev[c], next[c], level read, predecessor-or-head
        // splice, linked, len, plus the successor's prev backlink when
        // one exists.
        self.word_scans += 6 + (n != NIL) as u64;
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head[self.level[c as usize] as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.linked[c as usize] = false;
        self.len[self.level[c as usize] as usize] -= 1;
    }

    /// Moves a linked color to palette `j` (unlink + link).
    pub fn move_to(&mut self, c: u32, j: u32) {
        self.unlink(c);
        self.link(j, c);
    }

    /// Sets the level of a *parked* color without linking it.
    pub fn set_parked_level(&mut self, c: u32, j: u32) {
        debug_assert!(!self.linked[c as usize]);
        self.word_scans += 1;
        self.level[c as usize] = j;
    }

    /// Pops some color from palette `j` (the most recently inserted), or
    /// `None` when the palette is empty.
    pub fn pop(&mut self, j: u32) -> Option<u32> {
        self.probes += 1;
        self.word_scans += 1;
        let h = self.head[j as usize];
        if h == NIL {
            return None;
        }
        self.unlink(h);
        Some(h)
    }

    /// Pops the first linked color of palette `j` satisfying `pred`,
    /// scanning front to back. The predicate may carry mutable state.
    pub fn pop_where(&mut self, j: u32, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut c = self.head[j as usize];
        while c != NIL {
            self.probes += 1;
            self.word_scans += 1;
            if pred(c) {
                self.unlink(c);
                return Some(c);
            }
            c = self.next[c as usize];
        }
        None
    }

    /// See [`BitsetPalette::pop_separated`].
    pub fn pop_separated(&mut self, j: u32, parent: u32, delta1: u32) -> Option<u32> {
        if parent == NIL || delta1 <= 1 {
            return self.pop(j);
        }
        let lo = parent.saturating_sub(delta1 - 1);
        let hi = parent.saturating_add(delta1 - 1);
        self.pop_where(j, move |c| c < lo || c > hi)
    }

    /// See [`BitsetPalette::probe_count`].
    pub fn probe_count(&self) -> u64 {
        self.probes
    }

    /// See [`BitsetPalette::word_scan_count`].
    pub fn word_scan_count(&self) -> u64 {
        self.word_scans
    }

    /// The linked colors of palette `j`, front to back.
    pub fn collect(&self, j: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut c = self.head[j as usize];
        while c != NIL {
            out.push(c);
            c = self.next[c as usize];
        }
        out
    }
}

/// One level's state in a [`BitsetPalette`]: an append-ordered arena of
/// the colors ever linked here since the last reset, with one liveness
/// bit per slot packed into `u64` words. Slots are never reused — a
/// re-link appends — so *position order is recency order* and a
/// find-last-set scan yields exact LIFO extraction.
#[derive(Debug, Clone, Default)]
struct LevelArena {
    /// Colors in link order; slot index = liveness bit index.
    order: Vec<u32>,
    /// One liveness bit per `order` slot, 64 per word.
    bits: Vec<u64>,
    /// Linked (live) colors at this level.
    len: usize,
    /// Word index upper bound for set bits: no word above `scan_top` has
    /// a set bit. Raised by `link` (≤ 1 per 64 links), lowered by `pop`
    /// hits, so downward scans amortize to O(1) per operation.
    scan_top: usize,
}

impl LevelArena {
    fn clear(&mut self) {
        self.order.clear();
        self.bits.clear();
        self.len = 0;
        self.scan_top = 0;
    }
}

/// The u64-word bitset palette the solvers run on: per-level append-order
/// arenas with packed liveness words (the private `LevelArena`), plus
/// per-color `pos`/`level` tables. Unlike [`PaletteFamily`] there is *no*
/// separate linked-flag table — linked-ness is derived from the liveness
/// bit at `(level[c], pos[c])` (see [`is_linked`](Self::is_linked)), which
/// saves one table write in every `link`/`unlink`/`pop`.
///
/// `pop` scans liveness words downward from the level's `scan_top` hint
/// and takes the highest set bit — the most recent link — in one
/// `leading_zeros`. `pop_where`/`pop_separated` iterate set bits
/// most-significant-first, so candidates are examined in exactly the
/// order the linked list would examine them and `probe_count()` matches
/// [`PaletteFamily`] probe-for-probe.
#[derive(Debug, Clone)]
pub struct BitsetPalette {
    /// Color → its slot in its level's arena (valid while linked; after
    /// an unlink it keeps pointing at the now-dead slot, which is what
    /// lets [`is_linked`](Self::is_linked) work without a flag table).
    pos: Vec<u32>,
    level: Vec<u32>,
    levels: Vec<LevelArena>,
    probes: u64,
    word_scans: u64,
}

impl Default for BitsetPalette {
    /// The cold state of a workspace arena: `P_0` alone, empty pool.
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl BitsetPalette {
    /// Creates palettes `P_0..P_t` with an initial pool of `pool` colors
    /// (`0..pool`), all linked into `P_0`.
    pub fn new(t: u32, pool: usize) -> Self {
        let mut p = BitsetPalette {
            pos: Vec::new(),
            level: Vec::new(),
            levels: Vec::new(),
            probes: 0,
            word_scans: 0,
        };
        p.reset(t, pool);
        p
    }

    /// Reinitializes to the state `new(t, pool)` would produce — `t + 1`
    /// empty palettes, colors `0..pool` linked into `P_0` in LIFO order,
    /// zeroed probe/word tallies — retaining buffer capacity so a warm
    /// [`Workspace`](crate::workspace::Workspace) reruns without heap
    /// allocation.
    pub fn reset(&mut self, t: u32, pool: usize) {
        self.pos.clear();
        self.level.clear();
        let n = t as usize + 1;
        self.levels.truncate(n);
        for arena in &mut self.levels {
            arena.clear();
        }
        while self.levels.len() < n {
            self.levels.push(LevelArena::default());
        }
        self.probes = 0;
        self.word_scans = 0;
        // Bulk pool fill: identical observable state to `pool` front
        // insertions into P_0 (slot i holds color i, all live), without
        // per-color splicing.
        if pool > 0 {
            self.pos.extend(0..pool as u32);
            self.level.resize(pool, 0);
            let arena = &mut self.levels[0];
            arena.order.extend(0..pool as u32);
            arena.bits.resize(pool / 64, u64::MAX);
            if !pool.is_multiple_of(64) {
                arena.bits.push((1u64 << (pool % 64)) - 1);
            }
            arena.len = pool;
            arena.scan_top = (pool - 1) / 64;
            // Word tally: three per-color table writes + the packed words.
            self.word_scans += 3 * pool as u64 + arena.bits.len() as u64;
        }
    }

    /// Sum of the capacities (in elements) of the internal buffers; equal
    /// footprints across repeated same-sized solves certify that no
    /// buffer regrew.
    pub fn capacity_footprint(&self) -> usize {
        self.pos.capacity()
            + self.level.capacity()
            + self.levels.capacity()
            + self
                .levels
                .iter()
                .map(|a| a.order.capacity() + a.bits.capacity())
                .sum::<usize>()
    }

    /// Number of palettes (`t + 1`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total colors ever introduced.
    pub fn pool_size(&self) -> usize {
        self.level.len()
    }

    /// Introduces the next color (id `pool_size()`), linked into `P_0`.
    /// Returns its id.
    pub fn grow(&mut self) -> u32 {
        let c = self.level.len() as u32;
        self.pos.push(0);
        self.level.push(0);
        self.word_scans += 2;
        self.link(0, c);
        c
    }

    /// The palette index currently holding color `c`.
    #[inline]
    pub fn level_of(&self, c: u32) -> u32 {
        self.level[c as usize]
    }

    /// Whether `c` is linked into its palette's arena (not parked),
    /// derived from the liveness bit instead of a flag table: `c` is
    /// linked iff the slot `(level[c], pos[c])` still *owns* `c` and its
    /// bit is live. Dead slots never revive (a re-link appends a fresh
    /// slot), and `set_parked_level` re-points `level[c]` at an arena
    /// where slot `pos[c]` either holds a different color or holds `c`'s
    /// own dead slot — the ownership check rejects both.
    #[inline]
    pub fn is_linked(&self, c: u32) -> bool {
        let arena = &self.levels[self.level[c as usize] as usize];
        let pos = self.pos[c as usize] as usize;
        pos < arena.order.len()
            && arena.order[pos] == c
            && arena.bits[pos / 64] & (1u64 << (pos % 64)) != 0
    }

    /// Number of linked colors in palette `j`.
    #[inline]
    pub fn len(&self, j: u32) -> usize {
        self.levels[j as usize].len
    }

    /// Whether palette `j` has no linked colors.
    #[inline]
    pub fn is_empty(&self, j: u32) -> bool {
        self.levels[j as usize].len == 0
    }

    /// Links `c` into palette `j` (arena append = front insertion in
    /// recency order) and records its level. `c` must not be linked.
    pub fn link(&mut self, j: u32, c: u32) {
        debug_assert!(!self.is_linked(c), "color {c} already linked");
        let arena = &mut self.levels[j as usize];
        let pos = arena.order.len();
        arena.order.push(c);
        let (w, b) = (pos / 64, pos % 64);
        if w == arena.bits.len() {
            arena.bits.push(0);
        }
        arena.bits[w] |= 1u64 << b;
        if w > arena.scan_top {
            arena.scan_top = w;
        }
        arena.len += 1;
        self.pos[c as usize] = pos as u32;
        self.level[c as usize] = j;
        // Word tally: pos, arena slot, liveness word read+write, level.
        self.word_scans += 5;
    }

    /// Unlinks `c` (clears its liveness bit), keeping its level. The
    /// color is then *parked*; its arena slot stays dead forever.
    pub fn unlink(&mut self, c: u32) {
        debug_assert!(self.is_linked(c), "color {c} not linked");
        let j = self.level[c as usize] as usize;
        let pos = self.pos[c as usize] as usize;
        let arena = &mut self.levels[j];
        arena.bits[pos / 64] &= !(1u64 << (pos % 64));
        arena.len -= 1;
        // Word tally: level, pos, liveness word read+write. Parking is
        // free: the dead bit itself records it.
        self.word_scans += 4;
    }

    /// Moves a linked color to palette `j` (unlink + link).
    pub fn move_to(&mut self, c: u32, j: u32) {
        self.unlink(c);
        self.link(j, c);
    }

    /// Sets the level of a *parked* color without linking it.
    pub fn set_parked_level(&mut self, c: u32, j: u32) {
        debug_assert!(!self.is_linked(c));
        self.word_scans += 1;
        self.level[c as usize] = j;
    }

    /// Pops the most recently linked color of palette `j` by find-last-set
    /// over the liveness words, or `None` when the palette is empty.
    pub fn pop(&mut self, j: u32) -> Option<u32> {
        self.probes += 1;
        let arena = &mut self.levels[j as usize];
        if arena.len == 0 {
            self.word_scans += 1;
            return None;
        }
        let mut w = arena.scan_top;
        loop {
            self.word_scans += 1;
            let word = arena.bits[w];
            if word != 0 {
                let bit = 63 - word.leading_zeros() as usize;
                arena.bits[w] = word & !(1u64 << bit);
                arena.scan_top = w;
                arena.len -= 1;
                let c = arena.order[w * 64 + bit];
                // Word tally: liveness write, arena slot read. No parked
                // flag to maintain — the cleared bit is the record.
                self.word_scans += 2;
                return Some(c);
            }
            debug_assert!(w > 0, "len > 0 but no set bit at or below scan_top");
            w -= 1;
        }
    }

    /// Pops the first linked color of palette `j` satisfying `pred`,
    /// iterating set bits most-significant-first (= most recent link
    /// first, the linked list's scan order). The predicate may carry
    /// mutable state.
    pub fn pop_where(&mut self, j: u32, pred: impl FnMut(u32) -> bool) -> Option<u32> {
        self.pop_scan(j, pred)
    }

    /// Pops the first linked color `c` of palette `j` (most-recent-first)
    /// with `|c - parent| >= delta1`, or any color when `parent` is
    /// `u32::MAX` or `delta1 <= 1` — the §4.2 tree-approximation
    /// extraction. Tests a precomputed `[lo, hi]` forbidden window with
    /// branchless compares instead of calling a predicate per color, and
    /// examines exactly the colors the equivalent `pop_where` would.
    pub fn pop_separated(&mut self, j: u32, parent: u32, delta1: u32) -> Option<u32> {
        if parent == NIL || delta1 <= 1 {
            return self.pop(j);
        }
        let lo = parent.saturating_sub(delta1 - 1);
        let hi = parent.saturating_add(delta1 - 1);
        self.pop_scan(j, |c| (c < lo) | (c > hi))
    }

    /// Shared most-recent-first accepted-candidate scan for
    /// [`pop_where`](Self::pop_where) / [`pop_separated`](Self::pop_separated).
    fn pop_scan(&mut self, j: u32, mut accept: impl FnMut(u32) -> bool) -> Option<u32> {
        let arena = &mut self.levels[j as usize];
        if arena.len == 0 {
            self.word_scans += 1;
            return None;
        }
        let mut w = arena.scan_top as isize;
        while w >= 0 {
            self.word_scans += 1;
            let mut word = arena.bits[w as usize];
            while word != 0 {
                let bit = 63 - word.leading_zeros() as usize;
                let c = arena.order[w as usize * 64 + bit];
                self.probes += 1;
                self.word_scans += 1;
                if accept(c) {
                    arena.bits[w as usize] &= !(1u64 << bit);
                    arena.len -= 1;
                    self.word_scans += 1;
                    return Some(c);
                }
                word &= !(1u64 << bit);
            }
            w -= 1;
        }
        None
    }

    /// Palette entries examined by `pop`/`pop_where`/`pop_separated`
    /// since creation/reset — the `palette_probes` counter.
    pub fn probe_count(&self) -> u64 {
        self.probes
    }

    /// Structure words read or written by palette operations since
    /// creation/reset — the `palette_word_scans` counter.
    pub fn word_scan_count(&self) -> u64 {
        self.word_scans
    }

    /// The linked colors of palette `j`, most-recent-first.
    pub fn collect(&self, j: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let arena = &self.levels[j as usize];
        if arena.len == 0 {
            return out;
        }
        for w in (0..=arena.scan_top.min(arena.bits.len().saturating_sub(1))).rev() {
            let mut word = arena.bits[w];
            while word != 0 {
                let bit = 63 - word.leading_zeros() as usize;
                out.push(arena.order[w * 64 + bit]);
                word &= !(1u64 << bit);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates `$body` with `$f` bound to a fresh `new($t, $pool)` of the
    /// reference lists, then of the bitset, asserts the two results are
    /// equal and returns the reference's.
    macro_rules! on_both {
        ($f:ident = ($t:expr, $pool:expr) => $body:expr) => {{
            let list = {
                let mut $f = PaletteFamily::new($t, $pool);
                $body
            };
            let bitset = {
                let mut $f = BitsetPalette::new($t, $pool);
                $body
            };
            assert_eq!(list, bitset, "reference lists and bitset diverged");
            list
        }};
    }

    #[test]
    fn grow_links_into_p0() {
        on_both!(f = (2, 3) => {
            assert_eq!(f.pool_size(), 3);
            assert_eq!(f.num_levels(), 3);
            assert_eq!(f.len(0), 3);
            assert!(f.is_empty(1));
            assert_eq!(f.grow(), 3);
            assert_eq!(f.len(0), 4);
        });
    }

    #[test]
    fn pop_is_lifo_and_empties() {
        on_both!(f = (1, 2) => {
            let a = f.pop(0).unwrap();
            let b = f.pop(0).unwrap();
            assert_eq!((a, b), (1, 0));
            assert_eq!(f.pop(0), None);
            assert!(f.is_empty(0));
        });
    }

    #[test]
    fn move_between_levels() {
        on_both!(f = (3, 1) => {
            f.move_to(0, 3);
            assert_eq!(f.level_of(0), 3);
            assert!(f.is_empty(0));
            assert_eq!(f.collect(3), vec![0]);
            f.move_to(0, 2);
            f.move_to(0, 1);
            f.move_to(0, 0);
            assert_eq!(f.collect(0), vec![0]);
        });
    }

    #[test]
    fn unlink_from_middle_keeps_order_consistent() {
        on_both!(f = (0, 5) => {
            // Recency order (front to back): [4, 3, 2, 1, 0].
            f.unlink(2);
            assert_eq!(f.collect(0), vec![4, 3, 1, 0]);
            assert!(!f.is_linked(2));
            assert_eq!(f.level_of(2), 0);
            f.unlink(4); // front removal
            assert_eq!(f.collect(0), vec![3, 1, 0]);
            f.unlink(0); // back removal
            assert_eq!(f.collect(0), vec![3, 1]);
            f.link(0, 2);
            assert_eq!(f.collect(0), vec![2, 3, 1]);
            assert_eq!(f.len(0), 3);
        });
    }

    #[test]
    fn pop_where_skips_rejected_colors() {
        on_both!(f = (0, 6) => {
            // Front to back: [5, 4, 3, 2, 1, 0]; reject anything >= 3.
            assert_eq!(f.pop_where(0, |c| c < 3), Some(2));
            assert_eq!(f.len(0), 5);
            // Nothing matches: level untouched.
            assert_eq!(f.pop_where(0, |c| c > 100), None);
            assert_eq!(f.len(0), 5);
        });
    }

    #[test]
    fn pop_where_predicate_may_be_stateful() {
        on_both!(f = (0, 4) => {
            // FnMut scratch: accept the third candidate examined.
            let mut examined = 0u32;
            let got = f.pop_where(0, |_| {
                examined += 1;
                examined == 3
            });
            assert_eq!(got, Some(1));
            assert_eq!(examined, 3);
        });
    }

    #[test]
    fn probe_count_tracks_pops_and_scans() {
        on_both!(f = (0, 6) => {
            assert_eq!(f.probe_count(), 0);
            f.pop(0); // 1 probe
            assert_eq!(f.probe_count(), 1);
            // Level is now [4, 3, 2, 1, 0]; scanning for c < 3 examines 4, 3, 2.
            f.pop_where(0, |c| c < 3);
            assert_eq!(f.probe_count(), 4);
            f.pop_where(0, |c| c > 100); // exhaustive scan of [4, 3, 1, 0]
            assert_eq!(f.probe_count(), 8);
        });
    }

    #[test]
    fn word_scans_accumulate_and_reset() {
        on_both!(f = (1, 4) => {
            let fill = f.word_scan_count();
            f.pop(0);
            f.pop_where(0, |c| c == 0);
            assert!(f.word_scan_count() > fill);
            f.reset(1, 4);
            assert_eq!(f.word_scan_count(), fill, "reset tallies differ");
        });
        // The bitset does strictly less word work than the lists on a
        // pop-heavy sequence — the E17 counter claim, in miniature.
        macro_rules! pop_heavy {
            ($f:expr) => {{
                let mut f = $f;
                for _ in 0..64 {
                    f.grow();
                }
                for _ in 0..64 {
                    let c = f.pop(0).unwrap();
                    f.link(2, c);
                }
                for c in 0..64 {
                    f.move_to(c, 0);
                }
                for _ in 0..64 {
                    f.pop(0).unwrap();
                }
                f.word_scan_count()
            }};
        }
        let list = pop_heavy!(PaletteFamily::new(2, 0));
        let bitset = pop_heavy!(BitsetPalette::new(2, 0));
        assert!(
            bitset * 10 <= list * 7,
            "bitset ({bitset}) should do at most 0.7x the word work of list ({list})"
        );
    }

    #[test]
    fn reset_matches_fresh_backend() {
        on_both!(f = (2, 3) => {
            f.pop(0);
            f.move_to(0, 2);
            f.grow();
            f.reset(1, 2);
            assert_eq!(f.num_levels(), 2);
            assert_eq!(f.pool_size(), 2);
            assert_eq!(f.collect(0), vec![1, 0]);
            assert!(f.is_empty(1));
            assert_eq!(f.probe_count(), 0);
            // Same LIFO pop order as a fresh structure.
            assert_eq!(f.pop(0), Some(1));
            assert_eq!(f.pop(0), Some(0));
            assert_eq!(f.pop(0), None);
        });
        let mut warm = BitsetPalette::new(2, 3);
        warm.pop(0);
        warm.move_to(0, 2);
        warm.reset(1, 2);
        assert_eq!(
            warm.word_scan_count(),
            BitsetPalette::new(1, 2).word_scan_count()
        );
    }

    #[test]
    fn parked_levels_track_without_linking() {
        on_both!(f = (2, 1) => {
            f.unlink(0);
            f.set_parked_level(0, 2);
            assert_eq!(f.level_of(0), 2);
            assert!(f.is_empty(2));
            f.link(2, 0);
            assert_eq!(f.len(2), 1);
        });
    }

    #[test]
    fn pop_separated_matches_predicate_form() {
        on_both!(f = (0, 12) => {
            let mut out = Vec::new();
            out.extend(f.pop_separated(0, 8, 3)); // forbid [6, 10]
            out.extend(f.pop_separated(0, 0, 4)); // forbid [0, 3] (saturated lo)
            out.extend(f.pop_separated(0, u32::MAX, 5)); // no parent: plain pop
            out.extend(f.pop_separated(0, 4, 1)); // delta1 <= 1: plain pop
            out.push(f.probe_count() as u32);
            out
        });
        // And against the explicit predicate on the bitset.
        let mut a = BitsetPalette::new(0, 12);
        let mut b = BitsetPalette::new(0, 12);
        assert_eq!(
            a.pop_separated(0, 8, 3),
            b.pop_where(0, |c| c.abs_diff(8) >= 3)
        );
        assert_eq!(a.probe_count(), b.probe_count());
    }

    /// Asserts identical full state: every level's link order, every
    /// color's level and linked-ness, and the probe tally.
    fn assert_same_state(list: &PaletteFamily, bitset: &BitsetPalette) {
        assert_eq!(list.num_levels(), bitset.num_levels());
        assert_eq!(list.pool_size(), bitset.pool_size());
        assert_eq!(list.probe_count(), bitset.probe_count());
        for j in 0..list.num_levels() as u32 {
            assert_eq!(list.len(j), bitset.len(j));
            assert_eq!(list.collect(j), bitset.collect(j), "level {j}");
        }
        for c in 0..list.pool_size() as u32 {
            assert_eq!(list.level_of(c), bitset.level_of(c), "color {c}");
            assert_eq!(list.is_linked(c), bitset.is_linked(c), "color {c}");
        }
    }

    /// Deterministic random-op differential: the bitset and the reference
    /// lists must agree on every observable (returned colors, levels,
    /// lengths, link order, probe counts) across long mixed op sequences
    /// covering every operation the solvers issue, resets included.
    #[test]
    fn backends_agree_on_random_op_sequences() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = (next() % 4) as u32;
        let pool = (next() % 80) as usize;
        let mut list = PaletteFamily::new(t, pool);
        let mut bitset = BitsetPalette::new(t, pool);
        let mut resets = 0;
        for step in 0..8000 {
            let j = (next() % (t as u64 + 1)) as u32;
            match next() % 9 {
                0 => {
                    assert_eq!(list.grow(), bitset.grow());
                }
                1 | 2 => {
                    assert_eq!(list.pop(j), bitset.pop(j), "step {step}");
                }
                3 => {
                    let m = (next() % 5) as u32 + 1;
                    let a = list.pop_where(j, |c| c % 5 >= m);
                    let b = bitset.pop_where(j, |c| c % 5 >= m);
                    assert_eq!(a, b, "step {step}");
                }
                4 => {
                    let parent = (next() % 40) as u32;
                    let d1 = (next() % 6) as u32 + 1;
                    let a = list.pop_separated(j, parent, d1);
                    let b = bitset.pop_separated(j, parent, d1);
                    assert_eq!(a, b, "step {step}");
                }
                5 => {
                    if list.pool_size() > 0 {
                        let c = (next() % list.pool_size() as u64) as u32;
                        assert_eq!(list.is_linked(c), bitset.is_linked(c));
                        if list.is_linked(c) {
                            list.move_to(c, j);
                            bitset.move_to(c, j);
                        } else {
                            list.set_parked_level(c, j);
                            bitset.set_parked_level(c, j);
                            list.link(j, c);
                            bitset.link(j, c);
                        }
                    }
                }
                6 => {
                    if list.pool_size() > 0 {
                        let c = (next() % list.pool_size() as u64) as u32;
                        if list.is_linked(c) {
                            list.unlink(c);
                            bitset.unlink(c);
                        }
                    }
                }
                7 if next() % 40 == 0 => {
                    assert_same_state(&list, &bitset);
                    t = (next() % 4) as u32;
                    let pool = (next() % 80) as usize;
                    list.reset(t, pool);
                    bitset.reset(t, pool);
                    resets += 1;
                }
                _ => assert_same_state(&list, &bitset),
            }
            assert_eq!(list.probe_count(), bitset.probe_count(), "step {step}");
        }
        assert!(
            resets >= 3,
            "the sequence must cover reset ({resets} resets)"
        );
        assert_same_state(&list, &bitset);
    }
}

//! Flat storage model for MiniF77 execution.
//!
//! All variables live in a slot arena. A slot is a typed `Vec<f64>` (column
//! -major for arrays; integers and logicals are stored exactly as small
//! floats, well inside the 2^53 exact range). COMMON members are shared
//! slots keyed by `(block, name)`; locals are stack-allocated per call and
//! reclaimed by truncating the arena; dummy arguments are *views* — slot +
//! element offset + resolved shape — which is what gives Fortran's
//! sequence-association semantics (`CALL PCINIT(T(IX(7)))` makes the formal
//! an alias into `T`).

use fir::ast::Type;
use std::collections::HashMap;

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Integer.
    I(i64),
    /// Real / double.
    F(f64),
    /// Logical.
    B(bool),
}

impl Scalar {
    /// Numeric view (logicals are 0/1).
    pub fn as_f(self) -> f64 {
        match self {
            Scalar::I(v) => v as f64,
            Scalar::F(v) => v,
            Scalar::B(b) => b as i64 as f64,
        }
    }

    /// Integer view (reals are truncated, Fortran INT()).
    pub fn as_i(self) -> i64 {
        match self {
            Scalar::I(v) => v,
            Scalar::F(v) => v as i64,
            Scalar::B(b) => b as i64,
        }
    }

    /// Logical view (nonzero is true).
    pub fn as_b(self) -> bool {
        match self {
            Scalar::I(v) => v != 0,
            Scalar::F(v) => v != 0.0,
            Scalar::B(b) => b,
        }
    }
}

/// One storage slot: a typed flat array.
#[derive(Debug)]
pub struct Slot {
    /// Element type (affects get/set conversion).
    pub ty: Type,
    /// Raw storage.
    pub data: Vec<f64>,
}

impl Clone for Slot {
    fn clone(&self) -> Slot {
        Slot {
            ty: self.ty,
            data: self.data.clone(),
        }
    }

    // Hand-written so `clone_from` reuses the existing data buffer — the
    // tree-walker's chunked executor re-seeds a scratch arena from the
    // live arena once per chunk, and the derive would reallocate every
    // slot every time.
    fn clone_from(&mut self, src: &Slot) {
        self.ty = src.ty;
        self.data.clone_from(&src.data);
    }
}

impl Slot {
    /// New zero-initialized slot.
    pub fn new(ty: Type, len: usize) -> Slot {
        Slot {
            ty,
            data: vec![0.0; len],
        }
    }

    /// Typed read.
    #[inline]
    pub fn get(&self, i: usize) -> Scalar {
        let raw = self.data[i];
        match self.ty {
            Type::Integer => Scalar::I(raw as i64),
            Type::Real | Type::Double => Scalar::F(raw),
            Type::Logical => Scalar::B(raw != 0.0),
        }
    }

    /// Typed write.
    #[inline]
    pub fn set(&mut self, i: usize, v: Scalar) {
        self.data[i] = match self.ty {
            Type::Integer => v.as_i() as f64,
            Type::Real | Type::Double => v.as_f(),
            Type::Logical => v.as_b() as i64 as f64,
        };
    }
}

/// A view of (part of) a slot: what a variable name denotes in a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// Arena slot index.
    pub slot: usize,
    /// Element offset of the view's first element.
    pub offset: usize,
    /// Resolved extents (empty for scalars). A trailing 0 means
    /// assumed-size (extent = whatever remains in the slot).
    pub dims: Vec<usize>,
}

impl View {
    /// Scalar view of one element.
    pub fn scalar(slot: usize, offset: usize) -> View {
        View {
            slot,
            offset,
            dims: vec![],
        }
    }

    /// Column-major flat offset of `subs` (1-based Fortran subscripts)
    /// relative to the slot, or `None` when out of the view's bounds.
    /// Delegates to [`flat_view`]; see there for the bounds contract.
    pub fn flat(&self, subs: &[i64], slot_len: usize) -> Option<usize> {
        flat_view(self.offset, &self.dims, subs, slot_len)
    }

    /// Number of elements the view covers inside a slot of `slot_len`.
    pub fn len(&self, slot_len: usize) -> usize {
        view_len(self.offset, &self.dims, slot_len)
    }

    /// True when the view is a bare scalar.
    pub fn is_scalar(&self) -> bool {
        self.dims.is_empty()
    }
}

/// Column-major flat offset of `subs` (1-based Fortran subscripts) for a
/// view described by its raw parts — `offset` plus resolved extents — or
/// `None` when out of bounds. This is the representation-independent form
/// of [`View::flat`]: the bytecode VM's register frames address storage
/// through bare `(slot, offset)` pairs with their shapes in a side arena,
/// so the addressing math must not require a materialized [`View`].
///
/// Every explicit extent is bounds-checked, including the final one —
/// otherwise an out-of-bounds last subscript of a view into a larger
/// slot would silently alias neighbouring storage. Two sequence
/// -association escapes remain, both deliberate:
/// * assumed-size (extent 0) dimensions are never checked;
/// * a *partial* subscript list (fewer subscripts than dimensions, the
///   linearized-addressing idiom reshape inlining produces) checks its
///   last subscript against the flattened remaining extent.
#[inline]
pub fn flat_view(offset: usize, dims: &[usize], subs: &[i64], slot_len: usize) -> Option<usize> {
    if dims.is_empty() {
        return if subs.is_empty() { Some(offset) } else { None };
    }
    // 1-D fast path: the overwhelmingly common access shape in the
    // evaluation corpus. Same semantics as one trip through the general
    // loop below (extent 0 = assumed-size, bounded only by the slot).
    if let ([d], [s]) = (dims, subs) {
        let idx = s - 1;
        if idx < 0 || (*d != 0 && idx as usize >= *d) {
            return None;
        }
        let off = offset + idx as usize;
        return if off < slot_len { Some(off) } else { None };
    }
    let mut off = 0usize;
    let mut stride = 1usize;
    for (k, &s) in subs.iter().enumerate() {
        let extent = dims.get(k).copied().unwrap_or(1);
        let idx = s - 1;
        if idx < 0 {
            return None;
        }
        if extent != 0 {
            let bound = if k + 1 == subs.len() && subs.len() < dims.len() {
                // Linearized access: the last provided subscript walks
                // the remaining (flattened) dimensions.
                dims[k..].iter().try_fold(1usize, |acc, &d| {
                    if d == 0 {
                        None // assumed-size tail: unbounded
                    } else {
                        Some(acc * d)
                    }
                })
            } else {
                Some(extent)
            };
            if let Some(b) = bound {
                if idx as usize >= b {
                    return None;
                }
            }
        }
        off += idx as usize * stride;
        stride *= if extent == 0 { 1 } else { extent };
    }
    let abs = offset + off;
    if abs >= slot_len {
        return None;
    }
    Some(abs)
}

/// Number of elements a view of `(offset, dims)` covers inside a slot of
/// `slot_len` — the representation-independent form of [`View::len`].
pub fn view_len(offset: usize, dims: &[usize], slot_len: usize) -> usize {
    if dims.is_empty() {
        return 1;
    }
    let mut n = 1usize;
    let mut assumed = false;
    for &d in dims {
        if d == 0 {
            assumed = true;
        } else {
            n *= d;
        }
    }
    if assumed {
        slot_len.saturating_sub(offset)
    } else {
        n.min(slot_len.saturating_sub(offset))
    }
}

/// Directory key of a COMMON member: `block`, a `\u{1F}` unit separator,
/// `name`. Block and member names are Fortran identifiers, so the
/// separator can never collide with identifier text.
pub fn common_key(block: &str, name: &str) -> String {
    let mut k = String::with_capacity(block.len() + name.len() + 1);
    k.push_str(block);
    k.push('\u{1F}');
    k.push_str(name);
    k
}

/// The slot arena plus the COMMON-block directory.
#[derive(Debug, Default)]
pub struct Memory {
    /// All storage.
    pub slots: Vec<Slot>,
    /// [`common_key`] → slot index for COMMON members.
    pub commons: HashMap<String, usize>,
    /// Recycled data buffers of released frame slots. Frames allocate and
    /// release in LIFO order, so steady-state calls pull same-sized
    /// buffers back out instead of hitting the allocator.
    pool: Vec<Vec<f64>>,
    /// Scratch key for allocation-free COMMON directory lookups.
    key_buf: String,
    /// While a [`Checkpoint`] is open: pre-growth lengths `(slot, len)` of
    /// the COMMON slots grown since.
    grown: Option<Vec<(usize, usize)>>,
}

/// Slot count and COMMON directory size at [`Memory::checkpoint`].
pub(crate) struct Checkpoint {
    pub(crate) slots: usize,
    commons: usize,
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            slots: self.slots.clone(),
            commons: self.commons.clone(),
            // Scratch state stays with the original arena.
            pool: Vec::new(),
            key_buf: String::new(),
            grown: None,
        }
    }

    // `Vec::clone_from` truncates/extends in place and calls the
    // element-wise `Slot::clone_from`, so re-seeding a scratch arena from
    // a same-shaped arena is pure memcpy with no allocator traffic.
    fn clone_from(&mut self, src: &Memory) {
        self.slots.clone_from(&src.slots);
        self.commons.clone_from(&src.commons);
    }
}

impl Memory {
    /// Allocate a fresh slot; returns its index. Reuses a pooled buffer
    /// from a previously released frame when one is available.
    pub fn alloc(&mut self, ty: Type, len: usize) -> usize {
        let data = match self.pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        };
        self.slots.push(Slot { ty, data });
        self.slots.len() - 1
    }

    /// Find or create the slot of a COMMON member; grows the slot when a
    /// later unit declares a larger shape. The hit path builds its
    /// directory key in a reused scratch buffer, so repeated lookups from
    /// steady-state frame builds do not allocate.
    pub fn common(&mut self, block: &str, name: &str, ty: Type, len: usize) -> usize {
        self.key_buf.clear();
        self.key_buf.push_str(block);
        self.key_buf.push('\u{1F}');
        self.key_buf.push_str(name);
        if let Some(&idx) = self.commons.get(self.key_buf.as_str()) {
            let have = self.slots[idx].data.len();
            if have < len {
                if let Some(grown) = &mut self.grown {
                    grown.push((idx, have));
                }
                self.slots[idx].data.resize(len, 0.0);
            }
            return idx;
        }
        let idx = self.alloc(ty, len);
        let key = std::mem::take(&mut self.key_buf);
        self.commons.insert(key, idx);
        idx
    }

    /// Element type of an existing COMMON member, without creating it.
    pub(crate) fn common_ty(&mut self, block: &str, name: &str) -> Option<Type> {
        self.key_buf.clear();
        self.key_buf.push_str(block);
        self.key_buf.push('\u{1F}');
        self.key_buf.push_str(name);
        let idx = *self.commons.get(self.key_buf.as_str())?;
        Some(self.slots[idx].ty)
    }

    /// Stack mark for local reclamation.
    pub fn mark(&self) -> usize {
        self.slots.len()
    }

    /// Release everything allocated after `mark` (call frames). COMMON
    /// slots created lazily *during* the frame are compacted down to start
    /// at `mark` and their directory entries rebound; the frame's locals
    /// are reclaimed. Callers built before `mark` cannot hold views of
    /// those slots (they did not exist yet), so rebinding is safe.
    pub fn release(&mut self, mark: usize) {
        if self.slots.len() <= mark {
            return;
        }
        let mut pinned: Vec<usize> = self
            .commons
            .values()
            .copied()
            .filter(|&i| i >= mark)
            .collect();
        if pinned.is_empty() {
            self.recycle_from(mark);
            return;
        }
        pinned.sort_unstable();
        pinned.dedup();
        // Move each pinned slot down to a consecutive position at `mark`.
        // Destinations hold doomed locals (earlier pinned slots land below,
        // later ones sit above), so a swap never displaces a survivor.
        let mut remap: HashMap<usize, usize> = HashMap::new();
        for (j, &src) in pinned.iter().enumerate() {
            let dst = mark + j;
            if dst != src {
                self.slots.swap(dst, src);
            }
            remap.insert(src, dst);
        }
        for idx in self.commons.values_mut() {
            if let Some(&dst) = remap.get(idx) {
                *idx = dst;
            }
        }
        self.recycle_from(mark + pinned.len());
    }

    /// Truncate the arena to `keep` slots, returning the released data
    /// buffers to the pool. Drained in reverse so the *next* frame's
    /// first `alloc` (same bytecode, same order) pops the buffer its
    /// predecessor used for the same local — capacities match and the
    /// `resize` is a pure memset.
    fn recycle_from(&mut self, keep: usize) {
        for s in self.slots.drain(keep..).rev() {
            self.pool.push(s.data);
        }
    }

    /// Open a checkpoint: remember the arena's shape so [`Memory::rollback`]
    /// can drop what is allocated, created or grown until then. Element
    /// values are not journaled here — the caller restores those.
    pub(crate) fn checkpoint(&mut self) -> Checkpoint {
        self.grown = Some(Vec::new());
        Checkpoint {
            slots: self.slots.len(),
            commons: self.commons.len(),
        }
    }

    /// Close `cp` and return the arena to its shape: shrink COMMON slots
    /// grown since, unbind COMMON members created since, and recycle
    /// every slot allocated since.
    pub(crate) fn rollback(&mut self, cp: Checkpoint) {
        for (idx, len) in self.grown.take().into_iter().flatten().rev() {
            if idx < cp.slots {
                self.slots[idx].data.truncate(len);
            }
        }
        if self.commons.len() != cp.commons {
            self.commons.retain(|_, idx| *idx < cp.slots);
        }
        self.recycle_from(cp.slots);
    }

    /// Read through a view.
    pub fn read(&self, v: &View, subs: &[i64]) -> Option<Scalar> {
        let slot = self.slots.get(v.slot)?;
        let i = v.flat(subs, slot.data.len())?;
        Some(slot.get(i))
    }

    /// Write through a view.
    pub fn write(&mut self, v: &View, subs: &[i64], val: Scalar) -> Option<usize> {
        let len = self.slots.get(v.slot)?.data.len();
        let i = v.flat(subs, len)?;
        self.slots[v.slot].set(i, val);
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_slots_round_values() {
        let mut s = Slot::new(Type::Integer, 4);
        s.set(0, Scalar::F(3.9));
        assert_eq!(s.get(0), Scalar::I(3));
        let mut s = Slot::new(Type::Double, 2);
        s.set(1, Scalar::I(7));
        assert_eq!(s.get(1), Scalar::F(7.0));
    }

    #[test]
    fn column_major_layout() {
        // A(2,3): A(i,j) at (i-1) + (j-1)*2.
        let v = View {
            slot: 0,
            offset: 0,
            dims: vec![2, 3],
        };
        assert_eq!(v.flat(&[1, 1], 6), Some(0));
        assert_eq!(v.flat(&[2, 1], 6), Some(1));
        assert_eq!(v.flat(&[1, 2], 6), Some(2));
        assert_eq!(v.flat(&[2, 3], 6), Some(5));
        assert_eq!(v.flat(&[1, 4], 6), None); // beyond slot
    }

    #[test]
    fn views_alias_with_offset() {
        let mut m = Memory::default();
        let slot = m.alloc(Type::Real, 100);
        // Formal X2(*) bound to T(41): element i of the view is T(40 + i).
        let view = View {
            slot,
            offset: 40,
            dims: vec![0],
        };
        m.write(&view, &[1], Scalar::F(5.0)).unwrap();
        let whole = View {
            slot,
            offset: 0,
            dims: vec![100],
        };
        assert_eq!(m.read(&whole, &[41]), Some(Scalar::F(5.0)));
    }

    #[test]
    fn commons_are_shared_and_grow() {
        let mut m = Memory::default();
        let a = m.common("BLK", "T", Type::Real, 10);
        let b = m.common("BLK", "T", Type::Real, 20);
        assert_eq!(a, b);
        assert_eq!(m.slots[a].data.len(), 20);
        let c = m.common("BLK", "U", Type::Real, 5);
        assert_ne!(a, c);
    }

    #[test]
    fn stack_discipline() {
        let mut m = Memory::default();
        let _g = m.common("B", "X", Type::Real, 4);
        let mark = m.mark();
        let _l1 = m.alloc(Type::Real, 8);
        let _l2 = m.alloc(Type::Integer, 8);
        assert_eq!(m.slots.len(), 3);
        m.release(mark);
        assert_eq!(m.slots.len(), 1);
    }

    #[test]
    fn assumed_size_length() {
        let v = View {
            slot: 0,
            offset: 10,
            dims: vec![0],
        };
        assert_eq!(v.len(100), 90);
        let v = View {
            slot: 0,
            offset: 0,
            dims: vec![2, 0],
        };
        assert_eq!(v.len(100), 100);
    }

    #[test]
    fn scalar_views() {
        let mut m = Memory::default();
        let s = m.alloc(Type::Integer, 1);
        let v = View::scalar(s, 0);
        m.write(&v, &[], Scalar::I(42)).unwrap();
        assert_eq!(m.read(&v, &[]), Some(Scalar::I(42)));
        assert!(v.is_scalar());
    }

    #[test]
    fn final_subscript_bounds_checked_inside_larger_slot() {
        // A(2,3) viewed inside a 100-element slot: an out-of-bounds final
        // subscript used to silently alias the neighbouring storage at
        // offset 6 — it must be rejected.
        let v = View {
            slot: 0,
            offset: 0,
            dims: vec![2, 3],
        };
        assert_eq!(v.flat(&[1, 4], 100), None);
        assert_eq!(v.flat(&[3, 3], 100), None);
        assert_eq!(v.flat(&[2, 3], 100), Some(5));
        // Assumed-size finals still pass (sequence association).
        let v = View {
            slot: 0,
            offset: 0,
            dims: vec![2, 0],
        };
        assert_eq!(v.flat(&[1, 4], 100), Some(6));
        // Linearized (partial) subscripts walk the flattened remainder…
        let v = View {
            slot: 0,
            offset: 0,
            dims: vec![2, 3],
        };
        assert_eq!(v.flat(&[5], 100), Some(4));
        assert_eq!(v.flat(&[6], 100), Some(5));
        // …but not beyond it.
        assert_eq!(v.flat(&[7], 100), None);
    }

    #[test]
    fn release_reclaims_locals_under_lazy_commons() {
        let mut m = Memory::default();
        let _g = m.common("B", "X", Type::Real, 4);
        let mark = m.mark();
        let _l1 = m.alloc(Type::Real, 8);
        let lazy = m.common("L", "Y", Type::Real, 6);
        m.slots[lazy].set(0, Scalar::F(9.5));
        let _l2 = m.alloc(Type::Integer, 8);
        m.release(mark);
        // Only the lazily created COMMON survives, compacted to the mark;
        // the frame's locals are reclaimed (they used to stay pinned).
        assert_eq!(m.slots.len(), mark + 1);
        let y = m.common("L", "Y", Type::Real, 6);
        assert_eq!(y, mark);
        assert_eq!(m.slots[y].get(0), Scalar::F(9.5));
        // The compacted slot is addressable through the directory.
        let v = View {
            slot: y,
            offset: 0,
            dims: vec![6],
        };
        assert_eq!(m.read(&v, &[1]), Some(Scalar::F(9.5)));
    }

    #[test]
    fn negative_subscript_rejected() {
        let v = View {
            slot: 0,
            offset: 0,
            dims: vec![10],
        };
        assert_eq!(v.flat(&[0], 10), None);
        assert_eq!(v.flat(&[-3], 10), None);
    }
}

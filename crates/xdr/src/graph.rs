//! Cycle-aware marshaling of object graphs with object-tracker hooks.
//!
//! C driver structures form graphs: an `e1000_adapter` points at rings that
//! point back at the adapter; linked lists may be circular; two function
//! parameters may reference the same third structure. The paper's modified
//! XDR compilers (§3.2.3) handle this by keeping a table of objects already
//! marshaled and emitting a reference to the existing copy on re-encounter,
//! and by consulting the *object tracker* before allocating during
//! unmarshaling so existing objects are updated in place (§3.1.2).
//!
//! This module models "C memory" as an [`ObjHeap`] — structures addressed
//! by [`CAddr`] whose fields are scalars or pointers — and implements that
//! exact scheme:
//!
//! * pointers encode as a discriminant: `0` null, `1` inline object
//!   (preceded by its source address for tracker association), `2`
//!   back-reference to the n-th object of this message;
//! * every inline object carries a mode word: `0` full (all masked
//!   fields follow) or `1` delta (a dirty-field bitmap follows and only
//!   the flagged fields are present — see [`DeltaHook`]);
//! * [`marshal_args`] shares the seen-table across all parameters of one
//!   call, so cross-parameter sharing transfers a structure once;
//! * [`unmarshal_graph`] consults a [`TrackerHook`] before allocating.
//!
//! There is one graph walker, [`marshal_plan`] / [`unmarshal_plan`], and
//! it runs a compiled [`MarshalPlan`]: field indices, resolved kinds,
//! interned type ids. The functions that take a spec and a mask set
//! compile a plan and run that walker; handlers read and write fields
//! through [`ObjHeap`] by a [`FieldHandle`] resolved once (or by name,
//! resolved against the object's [`Layout`] on every access).

use std::sync::Arc;

use crate::codec::{self, Cursor};
use crate::error::{XdrError, XdrResult};
use crate::intmap::IntMap;
use crate::mask::{Direction, MaskSet};
use crate::plan::{FieldHandle, FieldKind, Layout, MarshalPlan, TypeId};
use crate::schema::XdrType;
use crate::spec::XdrSpec;
use crate::value::XdrValue;

/// The address of a structure in a domain's heap (a C pointer, as an int).
pub type CAddr = u64;

/// One field of a heap structure: a scalar value or a pointer.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldVal {
    /// A non-pointer value (ints, arrays, opaques, nested value structs...).
    Scalar(XdrValue),
    /// A pointer to another heap object, or null.
    ///
    /// DriverSlicer rewrites pointers-to-arrays into pointers-to-structs
    /// (Figure 3), so in well-formed heaps every pointer targets a struct.
    Ptr(Option<CAddr>),
}

impl FieldVal {
    fn scalar(&self) -> XdrResult<&XdrValue> {
        match self {
            FieldVal::Scalar(v) => Ok(v),
            FieldVal::Ptr(_) => Err(mismatch("scalar field", "pointer field")),
        }
    }

    fn ptr(&self) -> XdrResult<Option<CAddr>> {
        match self {
            FieldVal::Ptr(p) => Ok(*p),
            FieldVal::Scalar(_) => Err(mismatch("pointer field", "scalar field")),
        }
    }

    /// Replaces the value with one of the same kind.
    fn overwrite(&mut self, with: FieldVal) -> XdrResult<()> {
        match (&*self, &with) {
            (FieldVal::Scalar(_), FieldVal::Ptr(_)) => self.ptr().map(drop)?,
            (FieldVal::Ptr(_), FieldVal::Scalar(_)) => self.scalar().map(drop)?,
            _ => *self = with,
        }
        Ok(())
    }
}

fn mismatch(expected: &str, found: &str) -> XdrError {
    XdrError::TypeMismatch {
        expected: expected.into(),
        found: found.into(),
    }
}

/// One field of a live object: its value and the heap generation of its
/// last tracked write (the object's allocation counts as one).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Slot {
    val: FieldVal,
    gen: u64,
}

impl Slot {
    pub(crate) fn new(val: FieldVal) -> Slot {
        Slot { val, gen: 0 }
    }
}

/// A structure living in an [`ObjHeap`]: the [`Layout`] of its type,
/// shared, and one slot per field in the layout's order.
#[derive(Debug, Clone, PartialEq)]
pub struct StructObj {
    layout: Arc<Layout>,
    slots: Vec<Slot>,
    /// Generation at which the object was allocated — when a field the
    /// object lacks counts as last written.
    birth: u64,
}

impl StructObj {
    /// Name of the struct type.
    pub fn type_name(&self) -> &str {
        self.layout.name()
    }

    /// The layout the object was built from.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Returns the named field.
    pub fn field(&self, name: &str) -> Option<&FieldVal> {
        Some(&self.slots[self.layout.index_of(name)?].val)
    }

    /// The slot behind index `i` of `plan_layout` (the marshal plan's
    /// layout of this object's type): slot `i` when the object was built
    /// from that layout (`same`), the slot of that name otherwise; `None`
    /// if the object lacks it.
    fn slot_index(&self, plan_layout: &Layout, same: bool, i: usize) -> Option<usize> {
        match same {
            true => Some(i),
            false => self.layout.index_of(&plan_layout.field_names()[i]),
        }
    }

    /// [`StructObj::slot_index`]'s slot.
    fn slot(&self, plan_layout: &Layout, same: bool, i: usize) -> Option<&Slot> {
        Some(&self.slots[self.slot_index(plan_layout, same, i)?])
    }

    fn unknown(&self, field: &str) -> XdrError {
        XdrError::UnknownField {
            type_name: self.type_name().into(),
            field: field.into(),
        }
    }
}

/// How a heap accessor names a field: by a [`FieldHandle`], resolved
/// once, or by name — resolved against the object's layout on every
/// access, for tests and one-off callers.
pub trait FieldKey: Copy {
    /// The index of the field among `obj`'s slots.
    fn slot_in(self, obj: &StructObj) -> XdrResult<usize>;
}

impl FieldKey for &str {
    fn slot_in(self, obj: &StructObj) -> XdrResult<usize> {
        obj.layout.index_of(self).ok_or_else(|| obj.unknown(self))
    }
}

impl FieldKey for FieldHandle {
    /// The handle's slot, if `obj` is of the handle's type.
    fn slot_in(self, obj: &StructObj) -> XdrResult<usize> {
        let (ty, slot) = (self.ty, usize::from(self.slot));
        let ours = obj.layout.id() == ty && slot < obj.slots.len();
        ours.then_some(slot)
            .ok_or_else(|| obj.unknown(&format!("#{slot} of type #{ty}")))
    }
}

/// A heap of addressable structures, modelling one domain's memory.
///
/// Addresses are never reused within a heap's lifetime, like kernel
/// addresses during a driver's lifetime: the `n`-th allocation gets
/// `base + 0x100·n`, so the heap is a slab indexed by `(addr − base) >> 8`
/// whose freed entries stay empty.
///
/// The heap also keeps **dirty-field generation counters**: a global
/// generation is bumped on every mutation, and each field remembers the
/// generation of its last write. Delta marshaling (see [`DeltaHook`])
/// uses these to transfer only the fields written since an object last
/// crossed a channel.
#[derive(Debug, Clone, Default)]
pub struct ObjHeap {
    /// The object at `base + 0x100·n` at index `n`; `None` once freed.
    objects: Vec<Option<StructObj>>,
    base: CAddr,
    /// Bumped on every mutating operation.
    generation: u64,
}

/// Address bits per object: consecutive allocations are `1 << 8` apart.
const ADDR_SHIFT: u32 = 8;

impl ObjHeap {
    /// An empty heap whose first allocation gets address `base`.
    ///
    /// Distinct domains use distinct bases so that accidentally mixing
    /// addresses across domains is detectable in tests.
    pub fn with_base(base: CAddr) -> Self {
        ObjHeap {
            objects: Vec::new(),
            base: base.max(1),
            generation: 0,
        }
    }

    /// An empty heap based at address `0x1000`.
    pub fn new() -> Self {
        ObjHeap::with_base(0x1000)
    }

    /// Allocates a structure from bare field names, returning its
    /// address — for callers without a spec; [`ObjHeap::alloc_default`]
    /// shares the spec's layout instead of building one per object.
    pub fn alloc(
        &mut self,
        type_name: impl Into<String>,
        fields: Vec<(String, FieldVal)>,
    ) -> CAddr {
        let (names, slots) = fields.into_iter().map(|(n, v)| (n, Slot::new(v))).unzip();
        self.insert(
            Arc::new(Layout::unspecified(type_name.into(), names)),
            slots,
        )
    }

    /// Allocates a structure with schema-default field values.
    pub fn alloc_default(&mut self, type_name: &str, spec: &XdrSpec) -> XdrResult<CAddr> {
        self.alloc_layout(spec.layout(type_name)?)
    }

    /// Allocates a structure of `layout`'s type with its default values.
    pub fn alloc_layout(&mut self, layout: &Arc<Layout>) -> XdrResult<CAddr> {
        let slots = layout.template()?.to_vec();
        Ok(self.insert(Arc::clone(layout), slots))
    }

    fn insert(&mut self, layout: Arc<Layout>, mut slots: Vec<Slot>) -> CAddr {
        let addr = self.base + ((self.objects.len() as CAddr) << ADDR_SHIFT);
        self.generation += 1;
        slots.iter_mut().for_each(|s| s.gen = self.generation);
        let birth = self.generation;
        let obj = StructObj {
            layout,
            slots,
            birth,
        };
        self.objects.push(Some(obj));
        addr
    }

    /// The slab index of `addr`: any address this heap could have handed
    /// out, live or freed. Peer-written addresses reach here, so anything
    /// below the base, off the stride or past the last allocation is
    /// `None`, never a panic.
    fn index(&self, addr: CAddr) -> Option<usize> {
        let offset = addr.checked_sub(self.base)?;
        let index = usize::try_from(offset >> ADDR_SHIFT).ok()?;
        (offset.trailing_zeros() >= ADDR_SHIFT && index < self.objects.len()).then_some(index)
    }

    /// Removes a structure (explicit free — the paper's drivers free shared
    /// objects explicitly; see §3.1.2).
    pub fn free(&mut self, addr: CAddr) -> Option<StructObj> {
        let index = self.index(addr)?;
        self.objects[index].take()
    }

    /// Looks up a structure.
    pub fn get(&self, addr: CAddr) -> XdrResult<&StructObj> {
        let held = self.index(addr).and_then(|i| self.objects[i].as_ref());
        held.ok_or(XdrError::DanglingAddr(addr))
    }

    /// Looks up a structure mutably.
    ///
    /// Because the caller may mutate any field through the returned
    /// reference, every field of the object is conservatively marked
    /// dirty. Prefer [`ObjHeap::set_scalar`]/[`ObjHeap::set_ptr`], which
    /// track exactly one field.
    pub fn get_mut(&mut self, addr: CAddr) -> XdrResult<&mut StructObj> {
        let held = self.index(addr).and_then(|i| self.objects[i].as_mut());
        let obj = held.ok_or(XdrError::DanglingAddr(addr))?;
        self.generation += 1;
        obj.slots.iter_mut().for_each(|s| s.gen = self.generation);
        Ok(obj)
    }

    /// Looks up a structure mutably without touching dirty tracking.
    /// Internal: used by the tracked setters and the quiet decode path.
    fn get_mut_untracked(&mut self, addr: CAddr) -> XdrResult<&mut StructObj> {
        let held = self.index(addr).and_then(|i| self.objects[i].as_mut());
        held.ok_or(XdrError::DanglingAddr(addr))
    }

    /// A tracked write of one field of the object at `addr`.
    fn write_field(&mut self, addr: CAddr, field: impl FieldKey, val: FieldVal) -> XdrResult<()> {
        let generation = self.generation + 1;
        let obj = self.get_mut_untracked(addr)?;
        let slot = field.slot_in(obj)?;
        obj.slots[slot].val.overwrite(val)?;
        obj.slots[slot].gen = generation;
        self.generation = generation;
        Ok(())
    }

    /// The current global write generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation at which `field` of `addr` was last written (the
    /// object's allocation counts as a write of every field).
    pub fn field_gen(&self, addr: CAddr, field: &str) -> u64 {
        let Ok(obj) = self.get(addr) else {
            return 0;
        };
        field.slot_in(obj).map_or(obj.birth, |i| obj.slots[i].gen)
    }

    /// Whether `addr` names a live object.
    pub fn contains(&self, addr: CAddr) -> bool {
        self.index(addr).is_some_and(|i| self.objects[i].is_some())
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.iter().flatten().count()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads a scalar field.
    pub fn scalar(&self, addr: CAddr, field: impl FieldKey) -> XdrResult<&XdrValue> {
        let obj = self.get(addr)?;
        obj.slots[field.slot_in(obj)?].val.scalar()
    }

    /// Writes a scalar field.
    pub fn set_scalar(
        &mut self,
        addr: CAddr,
        field: impl FieldKey,
        value: XdrValue,
    ) -> XdrResult<()> {
        self.write_field(addr, field, FieldVal::Scalar(value))
    }

    /// Changes a scalar field in place: `f` gets the value to change, and
    /// the write is tracked exactly as [`ObjHeap::set_scalar`] tracks one
    /// — one generation bump, recorded as that field's. Nothing is
    /// cloned, so one member of an embedded struct changes without a copy
    /// of the rest. A pointer field is a `TypeMismatch`, and nothing is
    /// bumped.
    pub fn update_scalar<R>(
        &mut self,
        addr: CAddr,
        field: impl FieldKey,
        f: impl FnOnce(&mut XdrValue) -> R,
    ) -> XdrResult<R> {
        let generation = self.generation + 1;
        let obj = self.get_mut_untracked(addr)?;
        let index = field.slot_in(obj)?;
        let slot = &mut obj.slots[index];
        let FieldVal::Scalar(value) = &mut slot.val else {
            return Err(mismatch("scalar field", "pointer field"));
        };
        let out = f(value);
        slot.gen = generation;
        self.generation = generation;
        Ok(out)
    }

    /// Reads a pointer field.
    pub fn ptr(&self, addr: CAddr, field: impl FieldKey) -> XdrResult<Option<CAddr>> {
        let obj = self.get(addr)?;
        obj.slots[field.slot_in(obj)?].val.ptr()
    }

    /// Writes a pointer field.
    pub fn set_ptr(
        &mut self,
        addr: CAddr,
        field: impl FieldKey,
        target: Option<CAddr>,
    ) -> XdrResult<()> {
        self.write_field(addr, field, FieldVal::Ptr(target))
    }

    /// Iterates over `(addr, object)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (CAddr, &StructObj)> {
        let at = |n: usize| self.base + ((n as CAddr) << ADDR_SHIFT);
        let live = self.objects.iter().enumerate();
        live.filter_map(move |(n, o)| Some((at(n), o.as_ref()?)))
    }
}

/// Object-tracker consultation during unmarshaling (paper §3.1.2).
///
/// The decoder calls [`TrackerHook::lookup`] with the sender's address and
/// the object's type before allocating; on a miss it allocates and calls
/// [`TrackerHook::associate`]. The type disambiguates embedded structures
/// that share one C address.
pub trait TrackerHook {
    /// Returns the local address already associated with `remote`, if any.
    fn lookup(&mut self, remote: CAddr, ty: &Layout) -> Option<CAddr>;
    /// Records that `remote` now corresponds to `local`.
    fn associate(&mut self, remote: CAddr, ty: &Layout, local: CAddr);
}

/// A tracker that never remembers anything: every object decodes fresh.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracker;

impl TrackerHook for NullTracker {
    fn lookup(&mut self, _remote: CAddr, _ty: &Layout) -> Option<CAddr> {
        None
    }
    fn associate(&mut self, _remote: CAddr, _ty: &Layout, _local: CAddr) {}
}

/// Delta-marshaling consultation during encoding.
///
/// The sender keeps, per channel end and direction, the heap generation at
/// which each local object last crossed. An object with a recorded
/// generation is **delta-encoded**: only fields written since then are
/// transferred (pointer fields are always walked, so dirtiness anywhere in
/// the reachable subgraph still propagates). An object never sent before
/// is encoded in full.
pub trait DeltaHook {
    /// The heap generation at which `local` was last sent in `dir`.
    fn last_sent(&mut self, local: CAddr, dir: Direction) -> Option<u64>;
    /// Records that `local` has now been sent at generation `gen`.
    fn mark_sent(&mut self, local: CAddr, dir: Direction, gen: u64);
}

/// A hook that never deltas: every object encodes in full, nothing is
/// remembered. This reproduces the paper's per-call re-marshaling.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoDelta;

impl DeltaHook for NoDelta {
    fn last_sent(&mut self, _local: CAddr, _dir: Direction) -> Option<u64> {
        None
    }
    fn mark_sent(&mut self, _local: CAddr, _dir: Direction, _gen: u64) {}
}

/// Counters describing one delta-aware marshal.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Objects encoded in full (first transfer, or too many fields).
    pub full_objects: u64,
    /// Objects encoded as dirty-field deltas.
    pub delta_objects: u64,
    /// Masked scalar fields skipped because they were clean.
    pub fields_elided: u64,
}

const PTR_NULL: u32 = 0;
const PTR_INLINE: u32 = 1;
const PTR_BACKREF: u32 = 2;

/// Object-body encoding modes following the `PTR_INLINE` address.
const ENC_FULL: u32 = 0;
const ENC_DELTA: u32 = 1;
/// Delta encoding carries a `u32` field bitmap, so types with more masked
/// fields fall back to full encoding.
const DELTA_MAX_FIELDS: usize = 32;

/// Whether masked field `k` is flagged in a delta `bitmap`.
fn flagged(bitmap: u32, k: usize) -> bool {
    k < DELTA_MAX_FIELDS && bitmap & (1 << k) != 0
}

/// The tables a marshal or an unmarshal fills while it walks a message.
/// Whoever marshals on every call keeps one and lends it to each walk,
/// which empties it first — the tables keep their capacity, not their
/// contents.
#[derive(Debug, Default)]
pub struct WalkScratch {
    /// Encoder: object → its index in this message (back-references).
    seen: IntMap<CAddr, u32>,
    /// Encoder: dirty-reachability memo shared across the whole marshal:
    /// the heap cannot change mid-marshal, and `mark_sent` only makes
    /// objects cleaner, so a cached `false` is at worst conservative (the
    /// object re-encodes as a cheap back-reference).
    clean_memo: IntMap<CAddr, bool>,
    /// Encoder: objects encoded by this marshal, committed to the delta
    /// hook only after the whole message encodes successfully.
    sent: Vec<CAddr>,
    /// Decoder: the n-th object of this message (back-references).
    table: Vec<CAddr>,
}

/// Marshals a single rooted graph; equivalent to `marshal_args` with one
/// argument.
pub fn marshal_graph(
    heap: &ObjHeap,
    root: Option<CAddr>,
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
) -> XdrResult<Vec<u8>> {
    marshal_args(heap, &[root], spec, masks, dir)
}

/// Marshals the argument list of one XPC: each root is encoded as a
/// pointer, and the seen-table is shared across roots so that "passing two
/// structures that both reference a third results in marshaling the third
/// structure just once" (paper §3.2.3).
pub fn marshal_args(
    heap: &ObjHeap,
    roots: &[Option<CAddr>],
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
) -> XdrResult<Vec<u8>> {
    marshal_args_delta(heap, roots, spec, masks, dir, &|a| a, &mut NoDelta).map(|(bytes, _)| bytes)
}

/// Like [`marshal_args`], but applies `translate` to every object address
/// written on the wire and consults `delta` so that objects the peer has
/// already seen transfer only their dirty fields: compiles `masks`
/// against `spec` and runs [`marshal_plan`].
pub fn marshal_args_delta(
    heap: &ObjHeap,
    roots: &[Option<CAddr>],
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    translate: &dyn Fn(CAddr) -> CAddr,
    delta: &mut dyn DeltaHook,
) -> XdrResult<(Vec<u8>, DeltaStats)> {
    let plan = MarshalPlan::compile(spec, masks);
    let (mut out, mut scratch) = (Vec::new(), WalkScratch::default());
    let stats = marshal_plan(
        heap,
        roots,
        &plan,
        spec,
        dir,
        translate,
        delta,
        &mut scratch,
        &mut out,
    )?;
    Ok((out, stats))
}

/// Marshals `roots` out of `heap` by `plan`, appending the wire message
/// to `out` — a buffer the caller owns, so a stub that marshals on every
/// call reuses one allocation. On error `out` holds a partial message the
/// caller must discard.
///
/// `translate` is applied to every object address written on the wire.
/// This is the sender-side half of object tracking: a stub "invokes the
/// object tracker to translate any parameters to their equivalent C
/// pointers" (paper §3.1.1 step 2). An object that originated in the peer
/// domain is announced under its *canonical* (origin-domain) address so
/// the peer recognizes it and updates it in place.
///
/// `delta` is the second layer of traffic reduction: the plan's masks
/// decide which fields *can* cross; the delta hook elides those that did
/// not change since the object's last crossing.
#[allow(clippy::too_many_arguments)]
pub fn marshal_plan(
    heap: &ObjHeap,
    roots: &[Option<CAddr>],
    plan: &MarshalPlan,
    spec: &XdrSpec,
    dir: Direction,
    translate: &dyn Fn(CAddr) -> CAddr,
    delta: &mut dyn DeltaHook,
    scratch: &mut WalkScratch,
    out: &mut Vec<u8>,
) -> XdrResult<DeltaStats> {
    scratch.seen.clear();
    scratch.clean_memo.clear();
    scratch.sent.clear();
    let mut enc = Encoder {
        heap,
        plan,
        spec,
        dir,
        translate,
        delta,
        stats: DeltaStats::default(),
        scratch,
    };
    for root in roots {
        enc.encode_ptr(*root, out)?;
    }
    // Only now that the whole message encoded does the delta map advance:
    // a mid-marshal error discards the wire, and recording sends for it
    // would make every later delta silently elide fields the peer never
    // received.
    for &addr in &enc.scratch.sent {
        enc.delta.mark_sent(addr, dir, heap.generation());
    }
    Ok(enc.stats)
}

/// Encoder state threaded through the graph walk.
struct Encoder<'a> {
    heap: &'a ObjHeap,
    plan: &'a MarshalPlan,
    spec: &'a XdrSpec,
    dir: Direction,
    translate: &'a dyn Fn(CAddr) -> CAddr,
    delta: &'a mut dyn DeltaHook,
    stats: DeltaStats,
    scratch: &'a mut WalkScratch,
}

impl Encoder<'_> {
    fn encode_ptr(&mut self, target: Option<CAddr>, out: &mut Vec<u8>) -> XdrResult<()> {
        let Some(addr) = target else {
            out.extend_from_slice(&PTR_NULL.to_be_bytes());
            return Ok(());
        };
        if let Some(&index) = self.scratch.seen.get(&addr) {
            out.extend_from_slice(&PTR_BACKREF.to_be_bytes());
            out.extend_from_slice(&index.to_be_bytes());
            return Ok(());
        }
        out.extend_from_slice(&PTR_INLINE.to_be_bytes());
        out.extend_from_slice(&(self.translate)(addr).to_be_bytes());
        let index = self.scratch.sent.len() as u32;
        self.scratch.seen.insert(addr, index);
        self.scratch.sent.push(addr);
        // `heap` and `plan` outlive the encoder borrow, so the object and
        // its program are read in place.
        let (heap, plan) = (self.heap, self.plan);
        let obj = heap.get(addr)?;
        let (layout, same) = plan.layout_of(&obj.layout, self.spec)?;
        let masked = plan.program(layout.id(), self.dir);

        let prior = self.delta.last_sent(addr, self.dir);
        let Some(since) = prior.filter(|_| masked.len() <= DELTA_MAX_FIELDS) else {
            self.stats.full_objects += 1;
            out.extend_from_slice(&ENC_FULL.to_be_bytes());
            for &i in masked {
                self.encode_field(obj, layout, same, i as usize, out)?;
            }
            return Ok(());
        };
        self.stats.delta_objects += 1;
        out.extend_from_slice(&ENC_DELTA.to_be_bytes());
        // A scalar field is present when written since `since`; a
        // pointer field when the pointer itself changed or anything
        // reachable through it did (so nested dirtiness propagates
        // while clean subgraphs cost nothing at all).
        let mut bitmap = 0u32;
        for (k, &i) in masked.iter().enumerate() {
            let is_ptr = matches!(layout.kind(i as usize)?, FieldKind::Ptr(_));
            let slot = obj.slot(layout, same, i as usize);
            let present = if slot.map_or(obj.birth, |s| s.gen) > since {
                true
            } else if let (true, Some(FieldVal::Ptr(Some(p)))) = (is_ptr, slot.map(|s| &s.val)) {
                !self.subgraph_clean(*p)?
            } else {
                false
            };
            if present {
                bitmap |= 1 << k;
            } else {
                self.stats.fields_elided += 1;
            }
        }
        out.extend_from_slice(&bitmap.to_be_bytes());
        for (k, &i) in masked.iter().enumerate() {
            if flagged(bitmap, k) {
                self.encode_field(obj, layout, same, i as usize, out)?;
            }
        }
        Ok(())
    }

    /// Whether `addr` and everything reachable from it through masked
    /// pointer fields is unchanged since its last transfer. Unsent
    /// objects count as dirty; cycles are broken by treating in-progress
    /// nodes as clean (a cycle alone cannot introduce dirtiness).
    fn subgraph_clean(&mut self, addr: CAddr) -> XdrResult<bool> {
        if let Some(&clean) = self.scratch.clean_memo.get(&addr) {
            return Ok(clean);
        }
        // In-progress sentinel: assume clean to close cycles; overwritten
        // with the real verdict as the walk unwinds.
        self.scratch.clean_memo.insert(addr, true);
        let verdict = self.subgraph_clean_uncached(addr);
        if let Ok(false) = verdict {
            self.scratch.clean_memo.insert(addr, false);
        }
        verdict
    }

    fn subgraph_clean_uncached(&mut self, addr: CAddr) -> XdrResult<bool> {
        let Some(since) = self.delta.last_sent(addr, self.dir) else {
            return Ok(false);
        };
        let (heap, plan) = (self.heap, self.plan);
        let obj = heap.get(addr)?;
        let (layout, same) = plan.layout_of(&obj.layout, self.spec)?;
        for &i in plan.program(layout.id(), self.dir) {
            let slot = obj.slot(layout, same, i as usize);
            if slot.map_or(obj.birth, |s| s.gen) > since {
                return Ok(false);
            }
            if let Some(FieldVal::Ptr(Some(p))) = slot.map(|s| &s.val) {
                if !self.subgraph_clean(*p)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn encode_field(
        &mut self,
        obj: &StructObj,
        layout: &Layout,
        same: bool,
        i: usize,
        out: &mut Vec<u8>,
    ) -> XdrResult<()> {
        let index = obj.slot_index(layout, same, i);
        let fval = &obj.slots[index.ok_or_else(|| obj.unknown(&layout.field_names()[i]))?].val;
        match (fval, layout.kind(i)?) {
            (FieldVal::Ptr(p), FieldKind::Ptr(_)) => self.encode_ptr(*p, out),
            (FieldVal::Ptr(_), FieldKind::Scalar(ty)) => Err(mismatch(&ty.idl(), "pointer")),
            (FieldVal::Scalar(_), FieldKind::Ptr(target)) => {
                let target = self.plan.layouts().get(*target);
                let target = target.map_or("an undefined struct", |t| t.name());
                Err(mismatch(&format!("pointer to {target}"), "scalar"))
            }
            (FieldVal::Scalar(v), FieldKind::Scalar(ty)) => {
                codec::encode_into(v, ty, self.spec, out)
            }
        }
    }
}

/// Unmarshals one rooted graph produced by [`marshal_graph`].
///
/// Returns the local root address (or `None` for a null root). Objects
/// found through `tracker` are updated in place; unknown objects are
/// allocated in `heap` with schema defaults for fields outside the mask.
pub fn unmarshal_graph(
    bytes: &[u8],
    root_type: &str,
    heap: &mut ObjHeap,
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    tracker: &mut dyn TrackerHook,
) -> XdrResult<Option<CAddr>> {
    let mut root = None;
    let each_root = &mut |local| root = local;
    unmarshal_named(
        bytes,
        [root_type],
        heap,
        spec,
        masks,
        dir,
        tracker,
        each_root,
    )?;
    Ok(root)
}

/// Unmarshals the argument list of one XPC produced by [`marshal_args`];
/// `root_types` names the struct type of each root, in order.
pub fn unmarshal_args<T: AsRef<str>>(
    bytes: &[u8],
    root_types: impl IntoIterator<Item = T>,
    heap: &mut ObjHeap,
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    tracker: &mut dyn TrackerHook,
) -> XdrResult<Vec<Option<CAddr>>> {
    let mut roots = Vec::new();
    let each_root = &mut |local| roots.push(local);
    unmarshal_named(
        bytes, root_types, heap, spec, masks, dir, tracker, each_root,
    )?;
    Ok(roots)
}

/// Compiles `masks` against `spec`, resolves `root_types` and runs
/// [`unmarshal_plan`].
#[allow(clippy::too_many_arguments)]
fn unmarshal_named<T: AsRef<str>>(
    bytes: &[u8],
    root_types: impl IntoIterator<Item = T>,
    heap: &mut ObjHeap,
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    tracker: &mut dyn TrackerHook,
    each_root: &mut dyn FnMut(Option<CAddr>),
) -> XdrResult<()> {
    let plan = MarshalPlan::compile(spec, masks);
    let ids = root_types
        .into_iter()
        .map(|t| Ok(spec.layout(t.as_ref())?.id()));
    let ids = ids.collect::<XdrResult<Vec<TypeId>>>()?;
    let scratch = &mut WalkScratch::default();
    unmarshal_plan(
        bytes, ids, heap, &plan, spec, dir, tracker, scratch, each_root,
    )
}

/// Unmarshals a message produced by [`marshal_plan`] into `heap` by
/// `plan`: one root per entry of `root_types`, each handed to `each_root`
/// as its local address — the stub layer unmarshals on every call and
/// collects the roots it needs where it already has room for them.
#[allow(clippy::too_many_arguments)]
pub fn unmarshal_plan(
    bytes: &[u8],
    root_types: impl IntoIterator<Item = TypeId>,
    heap: &mut ObjHeap,
    plan: &MarshalPlan,
    spec: &XdrSpec,
    dir: Direction,
    tracker: &mut dyn TrackerHook,
    scratch: &mut WalkScratch,
    each_root: &mut dyn FnMut(Option<CAddr>),
) -> XdrResult<()> {
    scratch.table.clear();
    let mut cur = Cursor::new(bytes);
    let mut dec = Decoder {
        heap,
        plan,
        spec,
        dir,
        tracker,
        table: &mut scratch.table,
    };
    for root_type in root_types {
        each_root(dec.decode_ptr(&mut cur, root_type)?);
    }
    if cur.remaining() != 0 {
        return Err(XdrError::TrailingBytes(cur.remaining()));
    }
    Ok(())
}

/// Decoder state threaded through the graph walk.
struct Decoder<'a> {
    heap: &'a mut ObjHeap,
    plan: &'a MarshalPlan,
    spec: &'a XdrSpec,
    dir: Direction,
    tracker: &'a mut dyn TrackerHook,
    table: &'a mut Vec<CAddr>,
}

impl Decoder<'_> {
    fn decode_ptr(&mut self, cur: &mut Cursor<'_>, ty: TypeId) -> XdrResult<Option<CAddr>> {
        match cur.read_u32()? {
            PTR_NULL => Ok(None),
            PTR_BACKREF => {
                let index = cur.read_u32()?;
                let known = self.table.get(index as usize).copied();
                known.map(Some).ok_or(XdrError::BadBackRef(index))
            }
            PTR_INLINE => {
                let remote = (cur.read_u32()? as u64) << 32 | cur.read_u32()? as u64;
                let plan = self.plan;
                let layout = plan.layouts().get(ty)?;
                // An object announced under an address of *this* heap is one of
                // our own coming home: update it in place. Otherwise consult
                // the object tracker before allocating (paper §3.1.2). Domain
                // heaps use disjoint address bases, so the home check is exact.
                let mut fresh_alloc = false;
                let local = if self.heap.contains(remote) {
                    remote
                } else {
                    match self.tracker.lookup(remote, layout) {
                        Some(existing) if self.heap.contains(existing) => existing,
                        _ => {
                            let fresh = self.heap.alloc_layout(layout)?;
                            self.tracker.associate(remote, layout, fresh);
                            fresh_alloc = true;
                            fresh
                        }
                    }
                };
                self.table.push(local);
                let bitmap = match cur.read_u32()? {
                    ENC_FULL => None,
                    // A delta presumes we hold the object's prior
                    // state; surfacing the desync beats silently
                    // merging onto schema defaults.
                    ENC_DELTA if fresh_alloc => return Err(XdrError::DeltaForUnknown(remote)),
                    ENC_DELTA => Some(cur.read_u32()?),
                    d => return Err(XdrError::InvalidDiscriminant(d)),
                };
                let same = Arc::ptr_eq(&self.heap.get(local)?.layout, layout);
                for (k, &i) in plan.program(ty, self.dir).iter().enumerate() {
                    if bitmap.is_some_and(|b| !flagged(b, k)) {
                        continue; // clean field: local copy is already current
                    }
                    let val = match layout.kind(i as usize)? {
                        FieldKind::Ptr(target) => FieldVal::Ptr(self.decode_ptr(cur, *target)?),
                        FieldKind::Scalar(fty) => {
                            FieldVal::Scalar(codec::decode_from(cur, fty, self.spec)?)
                        }
                    };
                    // Written without marking the field dirty: the
                    // received value matches the sender's, so it must
                    // not be echoed back by the next delta.
                    let obj = self.heap.get_mut_untracked(local)?;
                    let slot = obj.slot_index(layout, same, i as usize);
                    let slot =
                        slot.ok_or_else(|| obj.unknown(&layout.field_names()[i as usize]))?;
                    obj.slots[slot].val.overwrite(val)?;
                }
                Ok(Some(local))
            }
            d => Err(XdrError::InvalidDiscriminant(d)),
        }
    }
}

/// The schema-default value for a type (zeroes, empty strings, nulls).
pub fn default_value(ty: &XdrType, spec: &XdrSpec) -> XdrResult<XdrValue> {
    Ok(match ty {
        XdrType::Void => XdrValue::Void,
        XdrType::Int => XdrValue::Int(0),
        XdrType::UInt => XdrValue::UInt(0),
        XdrType::Hyper => XdrValue::Hyper(0),
        XdrType::UHyper => XdrValue::UHyper(0),
        XdrType::Bool => XdrValue::Bool(false),
        XdrType::Float => XdrValue::Float(0.0),
        XdrType::Double => XdrValue::Double(0.0),
        XdrType::Enum(name) => {
            let members = spec.enum_members(name)?;
            XdrValue::Enum(members.first().map_or(0, |(_, v)| *v))
        }
        XdrType::OpaqueFixed(n) => XdrValue::Opaque(vec![0; *n]),
        XdrType::OpaqueVar(_) => XdrValue::Opaque(Vec::new()),
        XdrType::Str(_) => XdrValue::Str(String::new()),
        XdrType::ArrayFixed(elem, n) => {
            let v = default_value(elem, spec)?;
            XdrValue::Array(vec![v; *n])
        }
        XdrType::ArrayVar(_, _) => XdrValue::Array(Vec::new()),
        XdrType::Struct(name) => {
            let decl = spec.struct_fields(name)?;
            let mut fields = Vec::with_capacity(decl.len());
            for (fname, fty) in decl {
                fields.push((fname.clone(), default_value(fty, spec)?));
            }
            XdrValue::Struct {
                type_name: name.clone(),
                fields,
            }
        }
        XdrType::Optional(_) => XdrValue::Optional(None),
        XdrType::Named(name) => default_value(&spec.resolve(name)?, spec)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    fn spec() -> XdrSpec {
        XdrSpec::parse(
            "struct node { int v; struct node *next; };\n\
             struct ring { int id; struct shared *owner; };\n\
             struct shared { int token; };\n\
             struct pairargs { struct ring *a; struct ring *b; };",
        )
        .unwrap()
    }

    #[test]
    fn heap_accessors() {
        let mut heap = ObjHeap::new();
        let a = heap.alloc(
            "node",
            vec![
                ("v".into(), FieldVal::Scalar(XdrValue::Int(1))),
                ("next".into(), FieldVal::Ptr(None)),
            ],
        );
        assert_eq!(heap.scalar(a, "v").unwrap(), &XdrValue::Int(1));
        heap.set_scalar(a, "v", XdrValue::Int(9)).unwrap();
        assert_eq!(heap.scalar(a, "v").unwrap(), &XdrValue::Int(9));
        assert_eq!(heap.ptr(a, "next").unwrap(), None);
        heap.set_ptr(a, "next", Some(a)).unwrap();
        assert_eq!(heap.ptr(a, "next").unwrap(), Some(a));
        assert!(heap.scalar(a, "next").is_err());
        assert!(heap.ptr(a, "v").is_err());
        assert!(heap.scalar(0xdead, "v").is_err());
    }

    #[test]
    fn acyclic_list_roundtrip() {
        let s = spec();
        let mut src = ObjHeap::new();
        let b = src.alloc(
            "node",
            vec![
                ("v".into(), FieldVal::Scalar(XdrValue::Int(2))),
                ("next".into(), FieldVal::Ptr(None)),
            ],
        );
        let a = src.alloc(
            "node",
            vec![
                ("v".into(), FieldVal::Scalar(XdrValue::Int(1))),
                ("next".into(), FieldVal::Ptr(Some(b))),
            ],
        );
        let bytes = marshal_graph(&src, Some(a), &s, &MaskSet::full(), Direction::In).unwrap();
        let mut dst = ObjHeap::with_base(0x9000_0000);
        let root = unmarshal_graph(
            &bytes,
            "node",
            &mut dst,
            &s,
            &MaskSet::full(),
            Direction::In,
            &mut NullTracker,
        )
        .unwrap()
        .unwrap();
        assert_eq!(dst.scalar(root, "v").unwrap(), &XdrValue::Int(1));
        let next = dst.ptr(root, "next").unwrap().unwrap();
        assert_eq!(dst.scalar(next, "v").unwrap(), &XdrValue::Int(2));
        assert_eq!(dst.ptr(next, "next").unwrap(), None);
    }

    #[test]
    fn circular_list_terminates_and_reconnects() {
        let s = spec();
        let mut src = ObjHeap::new();
        let a = src.alloc(
            "node",
            vec![
                ("v".into(), FieldVal::Scalar(XdrValue::Int(1))),
                ("next".into(), FieldVal::Ptr(None)),
            ],
        );
        let b = src.alloc(
            "node",
            vec![
                ("v".into(), FieldVal::Scalar(XdrValue::Int(2))),
                ("next".into(), FieldVal::Ptr(Some(a))),
            ],
        );
        src.set_ptr(a, "next", Some(b)).unwrap();

        let bytes = marshal_graph(&src, Some(a), &s, &MaskSet::full(), Direction::In).unwrap();
        let mut dst = ObjHeap::with_base(0x9000_0000);
        let root = unmarshal_graph(
            &bytes,
            "node",
            &mut dst,
            &s,
            &MaskSet::full(),
            Direction::In,
            &mut NullTracker,
        )
        .unwrap()
        .unwrap();
        let second = dst.ptr(root, "next").unwrap().unwrap();
        let back = dst.ptr(second, "next").unwrap().unwrap();
        assert_eq!(back, root, "cycle must close on the decoded side");
        assert_eq!(dst.len(), 2, "exactly two objects transferred");
    }

    #[test]
    fn cross_parameter_sharing_marshals_shared_struct_once() {
        let s = spec();
        let mut src = ObjHeap::new();
        let shared = src.alloc(
            "shared",
            vec![("token".into(), FieldVal::Scalar(XdrValue::Int(7)))],
        );
        let r1 = src.alloc(
            "ring",
            vec![
                ("id".into(), FieldVal::Scalar(XdrValue::Int(1))),
                ("owner".into(), FieldVal::Ptr(Some(shared))),
            ],
        );
        let r2 = src.alloc(
            "ring",
            vec![
                ("id".into(), FieldVal::Scalar(XdrValue::Int(2))),
                ("owner".into(), FieldVal::Ptr(Some(shared))),
            ],
        );
        let bytes = marshal_args(
            &src,
            &[Some(r1), Some(r2)],
            &s,
            &MaskSet::full(),
            Direction::In,
        )
        .unwrap();
        let mut dst = ObjHeap::with_base(0x9000_0000);
        let roots = unmarshal_args(
            &bytes,
            ["ring", "ring"],
            &mut dst,
            &s,
            &MaskSet::full(),
            Direction::In,
            &mut NullTracker,
        )
        .unwrap();
        let (d1, d2) = (roots[0].unwrap(), roots[1].unwrap());
        assert_eq!(dst.ptr(d1, "owner").unwrap(), dst.ptr(d2, "owner").unwrap());
        assert_eq!(dst.len(), 3, "shared struct transferred once");
    }

    #[test]
    fn tracker_updates_existing_object_in_place() {
        let s = spec();
        let mut src = ObjHeap::new();
        let a = src.alloc(
            "shared",
            vec![("token".into(), FieldVal::Scalar(XdrValue::Int(1)))],
        );

        // A tiny tracker remembering one association.
        #[derive(Default)]
        struct OneShot(HashMap<(CAddr, String), CAddr>);
        impl TrackerHook for OneShot {
            fn lookup(&mut self, remote: CAddr, ty: &Layout) -> Option<CAddr> {
                self.0.get(&(remote, ty.name().to_string())).copied()
            }
            fn associate(&mut self, remote: CAddr, ty: &Layout, local: CAddr) {
                self.0.insert((remote, ty.name().to_string()), local);
            }
        }

        let mut tracker = OneShot::default();
        let mut dst = ObjHeap::with_base(0x9000_0000);
        let masks = MaskSet::full();

        let bytes = marshal_graph(&src, Some(a), &s, &masks, Direction::In).unwrap();
        let first = unmarshal_graph(
            &bytes,
            "shared",
            &mut dst,
            &s,
            &masks,
            Direction::In,
            &mut tracker,
        )
        .unwrap()
        .unwrap();

        // Sender mutates and transfers again: the same local object updates.
        src.set_scalar(a, "token", XdrValue::Int(42)).unwrap();
        let bytes = marshal_graph(&src, Some(a), &s, &masks, Direction::In).unwrap();
        let second = unmarshal_graph(
            &bytes,
            "shared",
            &mut dst,
            &s,
            &masks,
            Direction::In,
            &mut tracker,
        )
        .unwrap()
        .unwrap();
        assert_eq!(first, second, "tracker hit must reuse the local object");
        assert_eq!(dst.len(), 1);
        assert_eq!(dst.scalar(first, "token").unwrap(), &XdrValue::Int(42));
    }

    #[test]
    fn field_masks_limit_what_crosses() {
        let s = spec();
        let mut src = ObjHeap::new();
        let shared = src.alloc(
            "shared",
            vec![("token".into(), FieldVal::Scalar(XdrValue::Int(9)))],
        );
        let r = src.alloc(
            "ring",
            vec![
                ("id".into(), FieldVal::Scalar(XdrValue::Int(5))),
                ("owner".into(), FieldVal::Ptr(Some(shared))),
            ],
        );

        let mut masks = MaskSet::selective();
        let mut ring_mask = crate::mask::FieldMask::new();
        ring_mask.record("id", crate::mask::Access::Read);
        // `owner` is not accessed by the target: the pointer (and the whole
        // shared struct) must not cross.
        masks.insert("ring", ring_mask);

        let selective = marshal_graph(&src, Some(r), &s, &masks, Direction::In).unwrap();
        let full = marshal_graph(&src, Some(r), &s, &MaskSet::full(), Direction::In).unwrap();
        assert!(selective.len() < full.len());

        let mut dst = ObjHeap::with_base(0x9000_0000);
        let root = unmarshal_graph(
            &selective,
            "ring",
            &mut dst,
            &s,
            &masks,
            Direction::In,
            &mut NullTracker,
        )
        .unwrap()
        .unwrap();
        assert_eq!(dst.scalar(root, "id").unwrap(), &XdrValue::Int(5));
        assert_eq!(
            dst.ptr(root, "owner").unwrap(),
            None,
            "masked pointer defaults to null"
        );
        assert_eq!(dst.len(), 1, "shared struct must not be transferred");
    }

    #[test]
    fn null_root_roundtrip() {
        let s = spec();
        let src = ObjHeap::new();
        let bytes = marshal_graph(&src, None, &s, &MaskSet::full(), Direction::In).unwrap();
        assert_eq!(bytes, vec![0, 0, 0, 0]);
        let mut dst = ObjHeap::new();
        let root = unmarshal_graph(
            &bytes,
            "node",
            &mut dst,
            &s,
            &MaskSet::full(),
            Direction::In,
            &mut NullTracker,
        )
        .unwrap();
        assert_eq!(root, None);
    }

    #[test]
    fn bad_backref_rejected() {
        let s = spec();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_be_bytes());
        bytes.extend_from_slice(&5u32.to_be_bytes());
        let mut dst = ObjHeap::new();
        let err = unmarshal_graph(
            &bytes,
            "node",
            &mut dst,
            &s,
            &MaskSet::full(),
            Direction::In,
            &mut NullTracker,
        )
        .unwrap_err();
        assert_eq!(err, XdrError::BadBackRef(5));
    }

    #[test]
    fn dangling_pointer_detected_on_marshal() {
        let s = spec();
        let mut src = ObjHeap::new();
        let a = src.alloc(
            "node",
            vec![
                ("v".into(), FieldVal::Scalar(XdrValue::Int(1))),
                ("next".into(), FieldVal::Ptr(Some(0xdead_beef))),
            ],
        );
        let err = marshal_graph(&src, Some(a), &s, &MaskSet::full(), Direction::In).unwrap_err();
        assert_eq!(err, XdrError::DanglingAddr(0xdead_beef));
    }

    /// A `node` message a peer could write: the root announced inline as
    /// `remote`, full, with value `v` and `next` as the given words.
    fn inline_node(remote: CAddr, v: i32, next: &[u32]) -> Vec<u8> {
        let words = [PTR_INLINE, (remote >> 32) as u32, remote as u32, ENC_FULL];
        let words = words
            .into_iter()
            .chain([v as u32])
            .chain(next.iter().copied());
        words.flat_map(u32::to_be_bytes).collect()
    }

    /// A heap holding a live, a freed and a last node, and the addresses
    /// a peer can write that it does not hold: off the stride, below its
    /// base, one past its last slot, the freed slot, and the top of the
    /// address space.
    fn forged_heap() -> (ObjHeap, CAddr, [CAddr; 7]) {
        let s = spec();
        let mut heap = ObjHeap::with_base(0x9000_0000);
        let live = heap.alloc_default("node", &s).unwrap();
        let freed = heap.alloc_default("node", &s).unwrap();
        let last = heap.alloc_default("node", &s).unwrap();
        assert!(heap.free(freed).is_some());
        let forged = [
            live + 0x80,
            live + 1,
            live - 0x100,
            last + 0x100,
            freed,
            u64::MAX,
            !0xff,
        ];
        (heap, live, forged)
    }

    #[test]
    fn a_forged_address_decodes_fresh_or_fails_typed() {
        let s = spec();
        let (heap, _, forged) = forged_heap();
        for addr in forged {
            let mut dst = heap.clone();
            assert_eq!(dst.get(addr).err(), Some(XdrError::DanglingAddr(addr)));
            assert!(!dst.contains(addr), "{addr:#x}");
            assert!(dst.free(addr).is_none(), "{addr:#x}");
            assert!(dst.get_mut(addr).is_err() && dst.scalar(addr, "v").is_err());
            let decode = |dst: &mut ObjHeap, bytes: &[u8]| {
                let full = MaskSet::full();
                unmarshal_graph(
                    bytes,
                    "node",
                    dst,
                    &s,
                    &full,
                    Direction::In,
                    &mut NullTracker,
                )
            };
            // A delta presumes an object the receiver holds.
            let mut delta = inline_node(addr, 0, &[]);
            delta.truncate(16);
            delta[15] = ENC_DELTA as u8;
            delta.extend_from_slice(&[0; 4]);
            let unknown = decode(&mut heap.clone(), &delta);
            assert_eq!(unknown, Err(XdrError::DeltaForUnknown(addr)));
            // Inline, full: a fresh object, never one already there.
            let root = decode(&mut dst, &inline_node(addr, 7, &[PTR_NULL]));
            let root = root.unwrap().unwrap();
            assert!(
                !heap.contains(root) && dst.contains(root),
                "{addr:#x} → {root:#x}"
            );
            assert_eq!(dst.len(), heap.len() + 1);
            assert_eq!(dst.scalar(root, "v"), Ok(&XdrValue::Int(7)));
            // A back-reference to it closes a cycle; one past it fails.
            let cycle = decode(&mut dst, &inline_node(addr, 8, &[PTR_BACKREF, 0]));
            let cycle = cycle.unwrap().unwrap();
            assert_eq!(dst.ptr(cycle, "next"), Ok(Some(cycle)));
            for index in [1, u32::MAX] {
                let past = decode(&mut dst, &inline_node(addr, 9, &[PTR_BACKREF, index]));
                assert_eq!(past, Err(XdrError::BadBackRef(index)));
            }
            // The heap's readings of the address still agree.
            assert_eq!(dst.get(addr).is_ok(), dst.contains(addr), "{addr:#x}");
        }
    }

    #[test]
    fn get_contains_and_free_agree_on_every_address_near_a_heap() {
        let (mut heap, live, _) = forged_heap();
        let near = (0..0x600).map(|d| 0x9000_0000 - 0x100 + d);
        let edges = [0, 1, 0xff, 0x8fff_ffff, u64::MAX - 0xff, u64::MAX, live];
        for addr in near.chain(edges) {
            let held = heap.get(addr).is_ok();
            assert_eq!(heap.contains(addr), held, "{addr:#x}");
            let freed = heap.clone().free(addr);
            assert_eq!(freed.is_some(), held, "{addr:#x}");
            assert_eq!(heap.iter().any(|(a, _)| a == addr), held, "{addr:#x}");
        }
        assert!(heap.free(live).is_some() && heap.free(live).is_none());
        assert!(!heap.contains(live) && heap.get(live).is_err());
    }

    #[test]
    fn default_values_match_schema() {
        let s = spec();
        let v = default_value(&XdrType::Struct("node".into()), &s).unwrap();
        assert_eq!(v.field("v"), Some(&XdrValue::Int(0)));
        assert_eq!(v.field("next"), Some(&XdrValue::Optional(None)));
    }

    /// A delta map for one sender: the generation of each object's last
    /// send, per direction.
    #[derive(Default)]
    struct Sent(BTreeMap<(CAddr, usize), u64>);

    impl DeltaHook for Sent {
        fn last_sent(&mut self, local: CAddr, dir: Direction) -> Option<u64> {
            self.0.get(&(local, dir as usize)).copied()
        }
        fn mark_sent(&mut self, local: CAddr, dir: Direction, gen: u64) {
            self.0.insert((local, dir as usize), gen);
        }
    }

    fn embedding_spec() -> XdrSpec {
        XdrSpec::parse(
            "struct hw { int mac_type; int fc_mode; };\n\
             struct adapter { int msg_enable; struct hw hw; int link_up; struct node *n; };\n\
             struct node { int v; };",
        )
        .unwrap()
    }

    /// The next delta of `adapter` out of `heap`: its wire and statistics.
    fn delta_of(heap: &ObjHeap, adapter: CAddr, sent: &mut Sent) -> (Vec<u8>, DeltaStats) {
        let (s, full) = (embedding_spec(), MaskSet::full());
        let id = &|a| a;
        marshal_args_delta(heap, &[Some(adapter)], &s, &full, Direction::In, id, sent).unwrap()
    }

    #[test]
    fn update_scalar_is_the_tracked_write_of_the_clone_and_set_form() {
        let s = embedding_spec();
        let member = |v: &mut XdrValue| v.set_field("fc_mode", XdrValue::Int(3));
        let mut crossings = Vec::new();
        for in_place in [false, true] {
            let mut heap = ObjHeap::new();
            let adapter = heap.alloc_default("adapter", &s).unwrap();
            let mut sent = Sent::default();
            delta_of(&heap, adapter, &mut sent);
            let before = heap.generation();
            if in_place {
                heap.update_scalar(adapter, "hw", member).unwrap();
            } else {
                let mut hw = heap.scalar(adapter, "hw").unwrap().clone();
                member(&mut hw);
                heap.set_scalar(adapter, "hw", hw).unwrap();
            }
            assert_eq!(heap.generation(), before + 1, "one bump");
            assert_eq!(heap.field_gen(adapter, "hw"), before + 1);
            let fc_mode = heap
                .scalar(adapter, "hw")
                .unwrap()
                .field("fc_mode")
                .cloned();
            assert_eq!(fc_mode, Some(XdrValue::Int(3)));
            crossings.push(delta_of(&heap, adapter, &mut sent));
        }
        let (wire, stats) = &crossings[1];
        assert_eq!(stats.delta_objects, 1);
        assert_eq!(stats.fields_elided, 3, "only `hw` crosses");
        assert_eq!(
            crossings[0],
            (wire.clone(), *stats),
            "same wire, same statistics"
        );
    }

    #[test]
    fn a_field_handle_names_one_field_of_one_type() {
        let s = embedding_spec();
        let mut heap = ObjHeap::new();
        let adapter = heap.alloc_default("adapter", &s).unwrap();
        let node = heap.alloc_default("node", &s).unwrap();
        let layout = s.layout("adapter").unwrap();
        let msg_enable = layout.handle("msg_enable").unwrap();
        heap.set_scalar(adapter, msg_enable, XdrValue::Int(5))
            .unwrap();
        assert_eq!(heap.scalar(adapter, "msg_enable"), Ok(&XdrValue::Int(5)));
        assert_eq!(heap.field_gen(adapter, "msg_enable"), heap.generation());
        // Slot 0 exists in a `node` too; the type refuses the handle.
        let before = heap.generation();
        let refused = heap.set_scalar(node, msg_enable, XdrValue::Int(1));
        assert!(matches!(refused, Err(XdrError::UnknownField { .. })));
        assert!(heap.scalar(node, msg_enable).is_err());
        assert_eq!(heap.generation(), before, "nothing bumped");
        assert_eq!(layout.handle("nope"), None);
    }

    #[test]
    fn update_scalar_of_a_pointer_field_is_refused_untracked() {
        let s = embedding_spec();
        let mut heap = ObjHeap::new();
        let adapter = heap.alloc_default("adapter", &s).unwrap();
        let (before, field_before) = (heap.generation(), heap.field_gen(adapter, "n"));
        let refused = heap.update_scalar(adapter, "n", |_| panic!("a pointer is not a scalar"));
        assert!(matches!(refused, Err(XdrError::TypeMismatch { .. })));
        assert_eq!(heap.generation(), before, "nothing bumped");
        assert_eq!(heap.field_gen(adapter, "n"), field_before);
        let unknown = heap.update_scalar(adapter, "nope", |_| ());
        assert!(matches!(unknown, Err(XdrError::UnknownField { .. })));
        assert_eq!(heap.generation(), before);
    }
}

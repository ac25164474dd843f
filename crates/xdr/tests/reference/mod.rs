//! The by-name graph codec as it stood at 7844cb4 — one `HashMap` of
//! write generations per object keyed by field-name `String`, a mask
//! look-up per declared field per object per crossing, a name scan per
//! field access — kept verbatim (types renamed `Ref*`) as the reference
//! model `prop.rs` checks the compiled codec against: same wire bytes,
//! same statistics, same decoded heap, same delta map. Not product code;
//! do not optimise it.
#![allow(dead_code, clippy::too_many_arguments)]

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use decaf_xdr::codec::{self, Cursor};
use decaf_xdr::graph::{default_value, CAddr, DeltaHook, DeltaStats, FieldVal, NoDelta};
use decaf_xdr::mask::{Direction, MaskSet};
use decaf_xdr::schema::XdrType;
use decaf_xdr::spec::XdrSpec;
use decaf_xdr::value::XdrValue;
use decaf_xdr::{XdrError, XdrResult};

/// The reference decoder's object tracker: `(remote, type name)` → local.
pub type RefTracker = HashMap<(CAddr, String), CAddr>;

/// A structure living in an [`RefHeap`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefObj {
    /// Name of the struct type (resolved through the spec).
    pub type_name: String,
    /// Fields in declaration order.
    pub fields: Vec<(String, FieldVal)>,
}

impl RefObj {
    /// Returns the named field.
    pub fn field(&self, name: &str) -> Option<&FieldVal> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Returns the named field mutably.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut FieldVal> {
        self.fields
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

/// A heap of addressable structures, modelling one domain's memory.
///
/// Addresses are opaque and never reused within a heap's lifetime, like
/// kernel addresses during a driver's lifetime.
///
/// The heap also keeps **dirty-field generation counters**: a global
/// generation is bumped on every mutation, and each field remembers the
/// generation of its last write. Delta marshaling (see [`DeltaHook`])
/// uses these to transfer only the fields written since an object last
/// crossed a channel.
#[derive(Debug, Clone, Default)]
pub struct RefHeap {
    objects: BTreeMap<CAddr, RefObj>,
    next_addr: CAddr,
    /// Bumped on every mutating operation.
    generation: u64,
    /// Generation at which each object was allocated.
    birth_gens: HashMap<CAddr, u64>,
    /// Generation of the last tracked write, per field. Fields absent
    /// here were last written at the object's birth generation.
    field_gens: HashMap<CAddr, HashMap<String, u64>>,
}

impl RefHeap {
    /// An empty heap whose first allocation gets address `base`.
    ///
    /// Distinct domains use distinct bases so that accidentally mixing
    /// addresses across domains is detectable in tests.
    pub fn with_base(base: CAddr) -> Self {
        RefHeap {
            objects: BTreeMap::new(),
            next_addr: base.max(1),
            generation: 0,
            birth_gens: HashMap::new(),
            field_gens: HashMap::new(),
        }
    }

    /// An empty heap based at address `0x1000`.
    pub fn new() -> Self {
        RefHeap::with_base(0x1000)
    }

    /// Allocates a structure, returning its address.
    pub fn alloc(
        &mut self,
        type_name: impl Into<String>,
        fields: Vec<(String, FieldVal)>,
    ) -> CAddr {
        let addr = self.next_addr;
        self.next_addr += 0x100;
        self.objects.insert(
            addr,
            RefObj {
                type_name: type_name.into(),
                fields,
            },
        );
        self.generation += 1;
        self.birth_gens.insert(addr, self.generation);
        addr
    }

    /// Allocates a structure with schema-default field values.
    pub fn alloc_default(&mut self, type_name: &str, spec: &XdrSpec) -> XdrResult<CAddr> {
        let fields = default_fields(type_name, spec)?;
        Ok(self.alloc(type_name, fields))
    }

    /// Removes a structure (explicit free — the paper's drivers free shared
    /// objects explicitly; see §3.1.2).
    pub fn free(&mut self, addr: CAddr) -> Option<RefObj> {
        self.birth_gens.remove(&addr);
        self.field_gens.remove(&addr);
        self.objects.remove(&addr)
    }

    /// Looks up a structure.
    pub fn get(&self, addr: CAddr) -> XdrResult<&RefObj> {
        self.objects.get(&addr).ok_or(XdrError::DanglingAddr(addr))
    }

    /// Looks up a structure mutably.
    ///
    /// Because the caller may mutate any field through the returned
    /// reference, every field of the object is conservatively marked
    /// dirty. Prefer [`RefHeap::set_scalar`]/[`RefHeap::set_ptr`], which
    /// track exactly one field.
    pub fn get_mut(&mut self, addr: CAddr) -> XdrResult<&mut RefObj> {
        if let Some(obj) = self.objects.get(&addr) {
            self.generation += 1;
            let gens = self.field_gens.entry(addr).or_default();
            for (name, _) in &obj.fields {
                gens.insert(name.clone(), self.generation);
            }
        }
        self.objects
            .get_mut(&addr)
            .ok_or(XdrError::DanglingAddr(addr))
    }

    /// Looks up a structure mutably without touching dirty tracking.
    /// Internal: used by the tracked setters and the quiet decode path.
    fn get_mut_untracked(&mut self, addr: CAddr) -> XdrResult<&mut RefObj> {
        self.objects
            .get_mut(&addr)
            .ok_or(XdrError::DanglingAddr(addr))
    }

    /// The current global write generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation at which `field` of `addr` was last written (the
    /// object's allocation counts as a write of every field).
    pub fn field_gen(&self, addr: CAddr, field: &str) -> u64 {
        self.field_gens
            .get(&addr)
            .and_then(|m| m.get(field))
            .copied()
            .unwrap_or_else(|| self.birth_gens.get(&addr).copied().unwrap_or(0))
    }

    /// Whether `field` of `addr` was written after generation `since`.
    pub fn dirty_since(&self, addr: CAddr, field: &str, since: u64) -> bool {
        self.field_gen(addr, field) > since
    }

    fn mark_field_written(&mut self, addr: CAddr, field: &str) {
        self.generation += 1;
        let gens = self.field_gens.entry(addr).or_default();
        match gens.get_mut(field) {
            Some(gen) => *gen = self.generation,
            None => {
                gens.insert(field.to_string(), self.generation);
            }
        }
    }

    /// Whether `addr` names a live object.
    pub fn contains(&self, addr: CAddr) -> bool {
        self.objects.contains_key(&addr)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Reads a scalar field.
    pub fn scalar(&self, addr: CAddr, field: &str) -> XdrResult<&XdrValue> {
        match self.get(addr)?.field(field) {
            Some(FieldVal::Scalar(v)) => Ok(v),
            Some(FieldVal::Ptr(_)) => Err(XdrError::TypeMismatch {
                expected: "scalar field".into(),
                found: "pointer field".into(),
            }),
            None => Err(XdrError::UnknownField {
                type_name: self.get(addr)?.type_name.clone(),
                field: field.into(),
            }),
        }
    }

    /// Writes a scalar field.
    pub fn set_scalar(&mut self, addr: CAddr, field: &str, value: XdrValue) -> XdrResult<()> {
        self.set_scalar_quiet(addr, field, value)?;
        self.mark_field_written(addr, field);
        Ok(())
    }

    /// Writes a scalar field without marking it dirty. Used when decoding
    /// a transfer: the received value matches the sender's, so it must not
    /// be echoed back by the next delta.
    fn set_scalar_quiet(&mut self, addr: CAddr, field: &str, value: XdrValue) -> XdrResult<()> {
        let obj = self.get_mut_untracked(addr)?;
        match obj.field_mut(field) {
            Some(FieldVal::Scalar(slot)) => {
                *slot = value;
                Ok(())
            }
            Some(FieldVal::Ptr(_)) => Err(XdrError::TypeMismatch {
                expected: "scalar field".into(),
                found: "pointer field".into(),
            }),
            None => Err(XdrError::UnknownField {
                type_name: obj.type_name.clone(),
                field: field.into(),
            }),
        }
    }

    /// Reads a pointer field.
    pub fn ptr(&self, addr: CAddr, field: &str) -> XdrResult<Option<CAddr>> {
        match self.get(addr)?.field(field) {
            Some(FieldVal::Ptr(p)) => Ok(*p),
            Some(FieldVal::Scalar(_)) => Err(XdrError::TypeMismatch {
                expected: "pointer field".into(),
                found: "scalar field".into(),
            }),
            None => Err(XdrError::UnknownField {
                type_name: self.get(addr)?.type_name.clone(),
                field: field.into(),
            }),
        }
    }

    /// Writes a pointer field.
    pub fn set_ptr(&mut self, addr: CAddr, field: &str, target: Option<CAddr>) -> XdrResult<()> {
        self.set_ptr_quiet(addr, field, target)?;
        self.mark_field_written(addr, field);
        Ok(())
    }

    /// Writes a pointer field without marking it dirty (decode path).
    fn set_ptr_quiet(&mut self, addr: CAddr, field: &str, target: Option<CAddr>) -> XdrResult<()> {
        let obj = self.get_mut_untracked(addr)?;
        match obj.field_mut(field) {
            Some(FieldVal::Ptr(slot)) => {
                *slot = target;
                Ok(())
            }
            Some(FieldVal::Scalar(_)) => Err(XdrError::TypeMismatch {
                expected: "pointer field".into(),
                found: "scalar field".into(),
            }),
            None => Err(XdrError::UnknownField {
                type_name: obj.type_name.clone(),
                field: field.into(),
            }),
        }
    }

    /// Iterates over `(addr, object)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (CAddr, &RefObj)> {
        self.objects.iter().map(|(a, o)| (*a, o))
    }
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

/// Marshals a single rooted graph; equivalent to `marshal_args` with one
/// argument.
pub fn marshal_graph(
    heap: &RefHeap,
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
    heap: &RefHeap,
    roots: &[Option<CAddr>],
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
) -> XdrResult<Vec<u8>> {
    marshal_args_translated(heap, roots, spec, masks, dir, &|a| a)
}

/// Like [`marshal_args`], but applies `translate` to every object address
/// written on the wire.
///
/// This is the sender-side half of object tracking: a stub "invokes the
/// object tracker to translate any parameters to their equivalent C
/// pointers" (paper §3.1.1 step 2). An object that originated in the peer
/// domain is announced under its *canonical* (origin-domain) address so
/// the peer recognizes it and updates it in place.
pub fn marshal_args_translated(
    heap: &RefHeap,
    roots: &[Option<CAddr>],
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    translate: &dyn Fn(CAddr) -> CAddr,
) -> XdrResult<Vec<u8>> {
    marshal_args_delta(heap, roots, spec, masks, dir, translate, &mut NoDelta)
        .map(|(bytes, _)| bytes)
}

/// Like [`marshal_args_translated`], but consults `delta` so that objects
/// the peer has already seen transfer only their dirty fields.
///
/// This is the second layer of traffic reduction: field-selective masks
/// decide which fields *can* cross; the delta hook elides those that did
/// not change since the object's last crossing.
#[allow(clippy::too_many_arguments)]
pub fn marshal_args_delta(
    heap: &RefHeap,
    roots: &[Option<CAddr>],
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    translate: &dyn Fn(CAddr) -> CAddr,
    delta: &mut dyn DeltaHook,
) -> XdrResult<(Vec<u8>, DeltaStats)> {
    let mut out = Vec::new();
    let stats = marshal_args_delta_into(heap, roots, spec, masks, dir, translate, delta, &mut out)?;
    Ok((out, stats))
}

/// [`marshal_args_delta`] appending the wire message to a buffer the
/// caller owns, so a stub that marshals on every call reuses one
/// allocation. On error `out` holds a partial message the caller must
/// discard.
#[allow(clippy::too_many_arguments)]
pub fn marshal_args_delta_into(
    heap: &RefHeap,
    roots: &[Option<CAddr>],
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    translate: &dyn Fn(CAddr) -> CAddr,
    delta: &mut dyn DeltaHook,
    out: &mut Vec<u8>,
) -> XdrResult<DeltaStats> {
    let mut seen: HashMap<CAddr, u32> = HashMap::new();
    let mut stats = DeltaStats::default();
    let mut enc = Encoder {
        heap,
        spec,
        masks,
        dir,
        translate,
        delta,
        stats: &mut stats,
        sent_gen: heap.generation(),
        clean_memo: HashMap::new(),
        sent: Vec::new(),
    };
    for root in roots {
        enc.encode_ptr(*root, &mut seen, out)?;
    }
    // Only now that the whole message encoded does the delta map advance:
    // a mid-marshal error discards the wire, and recording sends for it
    // would make every later delta silently elide fields the peer never
    // received.
    let Encoder {
        delta,
        sent,
        sent_gen,
        ..
    } = enc;
    for addr in sent {
        delta.mark_sent(addr, dir, sent_gen);
    }
    Ok(stats)
}

/// Encoder state threaded through the graph walk.
struct Encoder<'a> {
    heap: &'a RefHeap,
    spec: &'a XdrSpec,
    masks: &'a MaskSet,
    dir: Direction,
    translate: &'a dyn Fn(CAddr) -> CAddr,
    delta: &'a mut dyn DeltaHook,
    stats: &'a mut DeltaStats,
    /// Generation recorded for every object sent in this marshal.
    sent_gen: u64,
    /// Dirty-reachability memo shared across the whole marshal: the heap
    /// cannot change mid-marshal, and `mark_sent` only makes objects
    /// cleaner, so a cached `false` is at worst conservative (the object
    /// re-encodes as a cheap back-reference).
    clean_memo: HashMap<CAddr, bool>,
    /// Objects encoded by this marshal, committed to the delta hook only
    /// after the whole message encodes successfully.
    sent: Vec<CAddr>,
}

impl Encoder<'_> {
    fn encode_ptr(
        &mut self,
        target: Option<CAddr>,
        seen: &mut HashMap<CAddr, u32>,
        out: &mut Vec<u8>,
    ) -> XdrResult<()> {
        let addr = match target {
            None => {
                out.extend_from_slice(&PTR_NULL.to_be_bytes());
                return Ok(());
            }
            Some(addr) => addr,
        };
        if let Some(&index) = seen.get(&addr) {
            out.extend_from_slice(&PTR_BACKREF.to_be_bytes());
            out.extend_from_slice(&index.to_be_bytes());
            return Ok(());
        }
        out.extend_from_slice(&PTR_INLINE.to_be_bytes());
        out.extend_from_slice(&(self.translate)(addr).to_be_bytes());
        let index = seen.len() as u32;
        seen.insert(addr, index);
        // `heap` and `spec` outlive the encoder borrow, so the object and
        // its field declarations are read in place.
        let (heap, spec) = (self.heap, self.spec);
        let obj = heap.get(addr)?;
        let decl = spec.struct_fields(&obj.type_name)?;
        let masked: Vec<&(String, XdrType)> = decl
            .iter()
            .filter(|(fname, _)| self.masks.includes(&obj.type_name, fname, self.dir))
            .collect();

        let prior = self.delta.last_sent(addr, self.dir);
        let as_delta = prior.is_some() && masked.len() <= DELTA_MAX_FIELDS;
        self.sent.push(addr);

        if as_delta {
            let since = prior.unwrap_or(0);
            self.stats.delta_objects += 1;
            out.extend_from_slice(&ENC_DELTA.to_be_bytes());
            // A scalar field is present when written since `since`; a
            // pointer field when the pointer itself changed or anything
            // reachable through it did (so nested dirtiness propagates
            // while clean subgraphs cost nothing at all).
            let mut bitmap = 0u32;
            for (i, (fname, fty)) in masked.iter().enumerate() {
                let is_ptr = pointer_target(fty, self.spec)?.is_some();
                let present = if self.heap.dirty_since(addr, fname, since) {
                    true
                } else if is_ptr {
                    match obj.field(fname) {
                        Some(FieldVal::Ptr(Some(p))) => !self.subgraph_clean(*p)?,
                        _ => false,
                    }
                } else {
                    false
                };
                if present {
                    bitmap |= 1 << i;
                } else {
                    self.stats.fields_elided += 1;
                }
            }
            out.extend_from_slice(&bitmap.to_be_bytes());
            for (i, (fname, fty)) in masked.iter().enumerate() {
                if bitmap & (1 << i) != 0 {
                    self.encode_field(obj, fname, fty, seen, out)?;
                }
            }
        } else {
            self.stats.full_objects += 1;
            out.extend_from_slice(&ENC_FULL.to_be_bytes());
            for (fname, fty) in &masked {
                self.encode_field(obj, fname, fty, seen, out)?;
            }
        }
        Ok(())
    }

    /// Whether `addr` and everything reachable from it through masked
    /// pointer fields is unchanged since its last transfer. Unsent
    /// objects count as dirty; cycles are broken by treating in-progress
    /// nodes as clean (a cycle alone cannot introduce dirtiness).
    fn subgraph_clean(&mut self, addr: CAddr) -> XdrResult<bool> {
        if let Some(&clean) = self.clean_memo.get(&addr) {
            return Ok(clean);
        }
        // In-progress sentinel: assume clean to close cycles; overwritten
        // with the real verdict as the walk unwinds.
        self.clean_memo.insert(addr, true);
        let since = match self.delta.last_sent(addr, self.dir) {
            Some(g) => g,
            None => {
                self.clean_memo.insert(addr, false);
                return Ok(false);
            }
        };
        let (heap, spec) = (self.heap, self.spec);
        let obj = heap.get(addr)?;
        for (fname, _) in spec.struct_fields(&obj.type_name)? {
            if !self.masks.includes(&obj.type_name, fname, self.dir) {
                continue;
            }
            if self.heap.dirty_since(addr, fname, since) {
                self.clean_memo.insert(addr, false);
                return Ok(false);
            }
            if let Some(FieldVal::Ptr(Some(p))) = obj.field(fname) {
                if !self.subgraph_clean(*p)? {
                    self.clean_memo.insert(addr, false);
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn encode_field(
        &mut self,
        obj: &RefObj,
        fname: &str,
        fty: &XdrType,
        seen: &mut HashMap<CAddr, u32>,
        out: &mut Vec<u8>,
    ) -> XdrResult<()> {
        let fval = obj.field(fname).ok_or_else(|| XdrError::UnknownField {
            type_name: obj.type_name.clone(),
            field: fname.into(),
        })?;
        match (fval, pointer_target(fty, self.spec)?) {
            (FieldVal::Ptr(p), Some(_)) => self.encode_ptr(*p, seen, out),
            (FieldVal::Ptr(_), None) => Err(XdrError::TypeMismatch {
                expected: fty.idl(),
                found: "pointer".into(),
            }),
            (FieldVal::Scalar(_), Some(target)) => Err(XdrError::TypeMismatch {
                expected: format!("pointer to {target}"),
                found: "scalar".into(),
            }),
            (FieldVal::Scalar(v), None) => codec::encode_into(v, fty, self.spec, out),
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
    heap: &mut RefHeap,
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    tracker: &mut RefTracker,
) -> XdrResult<Option<CAddr>> {
    let roots = unmarshal_args(bytes, [root_type], heap, spec, masks, dir, tracker)?;
    Ok(roots[0])
}

/// Unmarshals the argument list of one XPC produced by [`marshal_args`].
///
/// `root_types` names the struct type of each root, in order, in
/// whatever form the caller already holds them (`&[&str]`, a registered
/// procedure's `Vec<String>`, or a chain over several) — the stub layer
/// unmarshals on every call and must not rebuild a name list to do it.
pub fn unmarshal_args<T: AsRef<str>>(
    bytes: &[u8],
    root_types: impl IntoIterator<Item = T>,
    heap: &mut RefHeap,
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    tracker: &mut RefTracker,
) -> XdrResult<Vec<Option<CAddr>>> {
    let mut cur = Cursor::new(bytes);
    let mut table: Vec<CAddr> = Vec::new();
    let root_types = root_types.into_iter();
    let mut out = Vec::with_capacity(root_types.size_hint().0);
    for root_type in root_types {
        out.push(decode_ptr(
            &mut cur,
            root_type.as_ref(),
            heap,
            spec,
            masks,
            dir,
            tracker,
            &mut table,
        )?);
    }
    if cur.remaining() != 0 {
        return Err(XdrError::TrailingBytes(cur.remaining()));
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn decode_ptr(
    cur: &mut Cursor<'_>,
    type_name: &str,
    heap: &mut RefHeap,
    spec: &XdrSpec,
    masks: &MaskSet,
    dir: Direction,
    tracker: &mut RefTracker,
    table: &mut Vec<CAddr>,
) -> XdrResult<Option<CAddr>> {
    match cur.read_u32()? {
        PTR_NULL => Ok(None),
        PTR_BACKREF => {
            let index = cur.read_u32()?;
            table
                .get(index as usize)
                .copied()
                .map(Some)
                .ok_or(XdrError::BadBackRef(index))
        }
        PTR_INLINE => {
            let remote = {
                // Manually assemble the u64 source address.
                let hi = cur.read_u32()? as u64;
                let lo = cur.read_u32()? as u64;
                (hi << 32) | lo
            };
            // An object announced under an address of *this* heap is one of
            // our own coming home: update it in place. Otherwise consult
            // the object tracker before allocating (paper §3.1.2). Domain
            // heaps use disjoint address bases, so the home check is exact.
            let mut fresh_alloc = false;
            let local = if heap.contains(remote) {
                remote
            } else {
                match tracker.get(&(remote, type_name.to_string())).copied() {
                    Some(existing) if heap.contains(existing) => existing,
                    _ => {
                        let fresh = heap.alloc_default(type_name, spec)?;
                        tracker.insert((remote, type_name.to_string()), fresh);
                        fresh_alloc = true;
                        fresh
                    }
                }
            };
            table.push(local);
            let mode = cur.read_u32()?;
            let masked: Vec<&(String, XdrType)> = spec
                .struct_fields(type_name)?
                .iter()
                .filter(|(fname, _)| masks.includes(type_name, fname, dir))
                .collect();
            let bitmap = match mode {
                ENC_FULL => u32::MAX,
                ENC_DELTA => {
                    if fresh_alloc {
                        // A delta presumes we hold the object's prior
                        // state; surfacing the desync beats silently
                        // merging onto schema defaults.
                        return Err(XdrError::DeltaForUnknown(remote));
                    }
                    cur.read_u32()?
                }
                d => return Err(XdrError::InvalidDiscriminant(d)),
            };
            for (i, (fname, fty)) in masked.iter().enumerate() {
                if mode == ENC_DELTA && bitmap & (1 << i) == 0 {
                    continue; // clean field: local copy is already current
                }
                match pointer_target(fty, spec)? {
                    Some(target_type) => {
                        let p =
                            decode_ptr(cur, &target_type, heap, spec, masks, dir, tracker, table)?;
                        heap.set_ptr_quiet(local, fname, p)?;
                    }
                    None => {
                        let v = codec::decode_from(cur, fty, spec)?;
                        heap.set_scalar_quiet(local, fname, v)?;
                    }
                }
            }
            Ok(Some(local))
        }
        d => Err(XdrError::InvalidDiscriminant(d)),
    }
}

/// Schema-default fields for a freshly allocated structure.
pub fn default_fields(type_name: &str, spec: &XdrSpec) -> XdrResult<Vec<(String, FieldVal)>> {
    let decl = spec.struct_fields(type_name)?;
    let mut fields = Vec::with_capacity(decl.len());
    for (fname, fty) in decl {
        let val = match pointer_target(fty, spec)? {
            Some(_) => FieldVal::Ptr(None),
            None => FieldVal::Scalar(default_value(fty, spec)?),
        };
        fields.push((fname.clone(), val));
    }
    Ok(fields)
}

/// If `ty` is a pointer-to-struct (possibly through aliases), returns the
/// target struct name; otherwise `None` (scalar field). The name is
/// borrowed from `ty` in the direct `struct s *` case — the marshalers ask
/// this once per field per crossing — and owned only when an alias had to
/// be resolved.
pub fn pointer_target<'a>(ty: &'a XdrType, spec: &XdrSpec) -> XdrResult<Option<Cow<'a, str>>> {
    match ty {
        XdrType::Optional(inner) => match inner.as_ref() {
            XdrType::Struct(name) => Ok(Some(Cow::Borrowed(name))),
            XdrType::Named(name) => match spec.resolve(name)? {
                XdrType::Struct(resolved) => Ok(Some(Cow::Owned(resolved))),
                _ => Ok(None),
            },
            _ => Ok(None),
        },
        XdrType::Named(name) => {
            let resolved = spec.resolve(name)?;
            if resolved == *ty {
                return Ok(None);
            }
            Ok(pointer_target(&resolved, spec)?.map(|t| Cow::Owned(t.into_owned())))
        }
        _ => Ok(None),
    }
}

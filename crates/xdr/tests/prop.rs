//! Property-based tests for the XDR codec and graph marshaler,
//! including convergence of dirty-field delta marshaling.

use std::collections::HashMap;

use decaf_xdr::codec;
use decaf_xdr::graph::{self, CAddr, DeltaHook, FieldVal, NullTracker, ObjHeap, TrackerHook};
use decaf_xdr::mask::{Direction, MaskSet};
use decaf_xdr::plan::Layout;
use decaf_xdr::schema::XdrType;
use decaf_xdr::spec::XdrSpec;
use decaf_xdr::value::XdrValue;
use proptest::prelude::*;

/// Strategy producing a matching `(XdrType, XdrValue)` pair.
fn typed_value() -> impl Strategy<Value = (XdrType, XdrValue)> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(|v| (XdrType::Int, XdrValue::Int(v))),
        any::<u32>().prop_map(|v| (XdrType::UInt, XdrValue::UInt(v))),
        any::<i64>().prop_map(|v| (XdrType::Hyper, XdrValue::Hyper(v))),
        any::<u64>().prop_map(|v| (XdrType::UHyper, XdrValue::UHyper(v))),
        any::<bool>().prop_map(|v| (XdrType::Bool, XdrValue::Bool(v))),
        any::<u32>().prop_map(|bits| (XdrType::Float, XdrValue::Float(f32::from_bits(bits)))),
        any::<u64>().prop_map(|bits| (XdrType::Double, XdrValue::Double(f64::from_bits(bits)))),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(|b| {
            let n = b.len();
            (XdrType::OpaqueFixed(n), XdrValue::Opaque(b))
        }),
        proptest::collection::vec(any::<u8>(), 0..24)
            .prop_map(|b| (XdrType::OpaqueVar(None), XdrValue::Opaque(b))),
        "[a-zA-Z0-9 _:/.-]{0,20}".prop_map(|s| (XdrType::Str(None), XdrValue::Str(s))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // Fixed array of one element type.
            (inner.clone(), 0usize..4).prop_flat_map(|((ty, proto), n)| {
                let protos = vec![proto; n];
                (Just(ty), Just(protos), Just(n)).prop_map(|(ty, items, n)| {
                    (XdrType::ArrayFixed(Box::new(ty), n), XdrValue::Array(items))
                })
            }),
            // Optional.
            (inner.clone(), any::<bool>()).prop_map(|((ty, v), some)| {
                let val = if some {
                    XdrValue::Optional(Some(Box::new(v)))
                } else {
                    XdrValue::Optional(None)
                };
                (XdrType::Optional(Box::new(ty)), val)
            }),
        ]
    })
}

fn float_eq(a: &XdrValue, b: &XdrValue) -> bool {
    // NaN-tolerant comparison: encode-decode preserves the bit pattern.
    match (a, b) {
        (XdrValue::Float(x), XdrValue::Float(y)) => x.to_bits() == y.to_bits(),
        (XdrValue::Double(x), XdrValue::Double(y)) => x.to_bits() == y.to_bits(),
        (XdrValue::Array(xs), XdrValue::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| float_eq(x, y))
        }
        (XdrValue::Optional(Some(x)), XdrValue::Optional(Some(y))) => float_eq(x, y),
        (x, y) => x == y,
    }
}

proptest! {
    /// Every generated value round-trips through the wire format.
    #[test]
    fn codec_roundtrip((ty, value) in typed_value()) {
        let spec = XdrSpec::empty();
        let bytes = codec::encode(&value, &ty, &spec).unwrap();
        prop_assert_eq!(bytes.len() % 4, 0, "wire data must be 4-byte aligned");
        let back = codec::decode(&bytes, &ty, &spec).unwrap();
        prop_assert!(float_eq(&value, &back), "{:?} != {:?}", value, back);
    }

    /// Decoding never panics on arbitrary bytes; it returns Ok or Err.
    #[test]
    fn codec_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let spec = XdrSpec::parse("struct s { int a; string n<8>; s2 p; };\
                                   typedef int s2;").unwrap();
        let _ = codec::decode(&bytes, &XdrType::Struct("s".into()), &spec);
        let _ = codec::decode(&bytes, &XdrType::Str(Some(8)), &spec);
        let _ = codec::decode(&bytes, &XdrType::ArrayVar(Box::new(XdrType::Int), None), &spec);
    }
}

/// Random directed graphs of `node` objects survive marshal/unmarshal with
/// structure preserved (isomorphism via parallel DFS).
#[derive(Debug, Clone)]
struct GraphCase {
    values: Vec<i32>,
    /// edges[i] = (left target index or none, right target index or none)
    edges: Vec<(Option<usize>, Option<usize>)>,
    root: usize,
}

fn graph_case() -> impl Strategy<Value = GraphCase> {
    (1usize..8).prop_flat_map(|n| {
        let targets = proptest::option::of(0..n);
        (
            proptest::collection::vec(any::<i32>(), n),
            proptest::collection::vec((targets.clone(), targets), n),
            0..n,
        )
            .prop_map(|(values, edges, root)| GraphCase {
                values,
                edges,
                root,
            })
    })
}

fn graph_spec() -> XdrSpec {
    XdrSpec::parse("struct gnode { int v; struct gnode *l; struct gnode *r; };").unwrap()
}

proptest! {
    #[test]
    fn graph_roundtrip_preserves_structure(case in graph_case()) {
        let spec = graph_spec();
        let mut src = ObjHeap::new();
        let addrs: Vec<_> = case
            .values
            .iter()
            .map(|v| {
                src.alloc("gnode", vec![
                    ("v".into(), FieldVal::Scalar(XdrValue::Int(*v))),
                    ("l".into(), FieldVal::Ptr(None)),
                    ("r".into(), FieldVal::Ptr(None)),
                ])
            })
            .collect();
        for (i, (l, r)) in case.edges.iter().enumerate() {
            src.set_ptr(addrs[i], "l", l.map(|t| addrs[t])).unwrap();
            src.set_ptr(addrs[i], "r", r.map(|t| addrs[t])).unwrap();
        }
        let root = addrs[case.root];
        let bytes =
            graph::marshal_graph(&src, Some(root), &spec, &MaskSet::full(), Direction::In)
                .unwrap();
        let mut dst = ObjHeap::with_base(0x7000_0000);
        let droot = graph::unmarshal_graph(
            &bytes, "gnode", &mut dst, &spec, &MaskSet::full(), Direction::In,
            &mut NullTracker,
        )
        .unwrap()
        .unwrap();

        // Parallel DFS comparing values and shape, with a visited map that
        // enforces a consistent bijection between source and destination.
        let mut mapping = std::collections::HashMap::new();
        let mut stack = vec![(root, droot)];
        while let Some((s, d)) = stack.pop() {
            match mapping.get(&s) {
                Some(&prev) => {
                    prop_assert_eq!(prev, d, "bijection must be consistent");
                    continue;
                }
                None => {
                    mapping.insert(s, d);
                }
            }
            prop_assert_eq!(src.scalar(s, "v").unwrap(), dst.scalar(d, "v").unwrap());
            for field in ["l", "r"] {
                let sp = src.ptr(s, field).unwrap();
                let dp = dst.ptr(d, field).unwrap();
                match (sp, dp) {
                    (None, None) => {}
                    (Some(sn), Some(dn)) => stack.push((sn, dn)),
                    _ => prop_assert!(false, "pointer shape differs on `{}`", field),
                }
            }
        }
    }
}

// ----------------------------------------------------- delta marshaling

/// A random mutation applied to the source heap between delta transfers.
#[derive(Debug, Clone)]
enum WriteOp {
    /// Overwrite node i's scalar `v`.
    SetV(usize, i32),
    /// Replace node i's variable array `xs` (possibly with an empty one).
    SetXs(usize, Vec<i32>),
    /// Rewire node i's `l` pointer to node j (or null).
    SetL(usize, Option<usize>),
    /// Rewire node i's `r` pointer to node j (or null).
    SetR(usize, Option<usize>),
}

#[derive(Debug, Clone)]
struct DeltaCase {
    values: Vec<i32>,
    edges: Vec<(Option<usize>, Option<usize>)>,
    root: usize,
    /// Rounds of writes; after each round the graph is delta-transferred
    /// and the destination must equal the source.
    rounds: Vec<Vec<WriteOp>>,
}

fn write_op(n: usize) -> BoxedStrategy<WriteOp> {
    prop_oneof![
        (0..n, any::<i32>()).prop_map(|(i, v)| WriteOp::SetV(i, v)),
        (0..n, proptest::collection::vec(any::<i32>(), 0..4))
            .prop_map(|(i, xs)| WriteOp::SetXs(i, xs)),
        (0..n, proptest::option::of(0..n)).prop_map(|(i, j)| WriteOp::SetL(i, j)),
        (0..n, proptest::option::of(0..n)).prop_map(|(i, j)| WriteOp::SetR(i, j)),
    ]
    .boxed()
}

fn delta_case() -> impl Strategy<Value = DeltaCase> {
    (1usize..6).prop_flat_map(|n| {
        let targets = proptest::option::of(0..n);
        (
            proptest::collection::vec(any::<i32>(), n),
            proptest::collection::vec((targets.clone(), targets), n),
            0..n,
            proptest::collection::vec(proptest::collection::vec(write_op(n), 0..6), 1..5),
        )
            .prop_map(|(values, edges, root, rounds)| DeltaCase {
                values,
                edges,
                root,
                rounds,
            })
    })
}

fn delta_spec() -> XdrSpec {
    XdrSpec::parse("struct dnode { int v; int xs<8>; struct dnode *l; struct dnode *r; };").unwrap()
}

/// The sender-side delta map, as the XPC channel keeps per end.
#[derive(Default)]
struct TestDelta(HashMap<(CAddr, Direction), u64>);

impl DeltaHook for TestDelta {
    fn last_sent(&mut self, local: CAddr, dir: Direction) -> Option<u64> {
        self.0.get(&(local, dir)).copied()
    }
    fn mark_sent(&mut self, local: CAddr, dir: Direction, gen: u64) {
        self.0.insert((local, dir), gen);
    }
}

/// A persistent receiver-side tracker, as the XPC channel keeps per end.
#[derive(Default)]
struct TestTracker(HashMap<(CAddr, String), CAddr>);

impl TrackerHook for TestTracker {
    fn lookup(&mut self, remote: CAddr, ty: &Layout) -> Option<CAddr> {
        self.0.get(&(remote, ty.name().to_string())).copied()
    }
    fn associate(&mut self, remote: CAddr, ty: &Layout, local: CAddr) {
        self.0.insert((remote, ty.name().to_string()), local);
    }
}

/// Parallel DFS asserting the destination's reachable subgraph equals the
/// source's: same `v`, same `xs` (including emptiness), same pointer
/// shape, consistent bijection (so cycles close identically).
fn assert_graphs_equal(src: &ObjHeap, sroot: CAddr, dst: &ObjHeap, droot: CAddr) {
    let mut mapping = HashMap::new();
    let mut stack = vec![(sroot, droot)];
    while let Some((s, d)) = stack.pop() {
        match mapping.get(&s) {
            Some(&prev) => {
                assert_eq!(prev, d, "bijection must be consistent");
                continue;
            }
            None => {
                mapping.insert(s, d);
            }
        }
        assert_eq!(src.scalar(s, "v").unwrap(), dst.scalar(d, "v").unwrap());
        assert_eq!(src.scalar(s, "xs").unwrap(), dst.scalar(d, "xs").unwrap());
        for field in ["l", "r"] {
            let sp = src.ptr(s, field).unwrap();
            let dp = dst.ptr(d, field).unwrap();
            match (sp, dp) {
                (None, None) => {}
                (Some(sn), Some(dn)) => stack.push((sn, dn)),
                _ => panic!("pointer shape differs on `{field}`"),
            }
        }
    }
}

proptest! {
    /// Delta-decode(delta-encode(heap)) converges to full-state equality
    /// across random write sequences — scalar overwrites, empty and
    /// non-empty array replacements, and pointer rewirings that create
    /// and break cycles.
    #[test]
    fn delta_transfers_converge_to_full_state(case in delta_case()) {
        let spec = delta_spec();
        let masks = MaskSet::full();
        let mut src = ObjHeap::new();
        let addrs: Vec<_> = case
            .values
            .iter()
            .map(|v| {
                src.alloc("dnode", vec![
                    ("v".into(), FieldVal::Scalar(XdrValue::Int(*v))),
                    ("xs".into(), FieldVal::Scalar(XdrValue::Array(Vec::new()))),
                    ("l".into(), FieldVal::Ptr(None)),
                    ("r".into(), FieldVal::Ptr(None)),
                ])
            })
            .collect();
        for (i, (l, r)) in case.edges.iter().enumerate() {
            src.set_ptr(addrs[i], "l", l.map(|t| addrs[t])).unwrap();
            src.set_ptr(addrs[i], "r", r.map(|t| addrs[t])).unwrap();
        }
        let root = addrs[case.root];

        let mut dst = ObjHeap::with_base(0x7000_0000);
        let mut delta = TestDelta::default();
        let mut tracker = TestTracker::default();
        let transfer = |src: &ObjHeap,
                            dst: &mut ObjHeap,
                            delta: &mut TestDelta,
                            tracker: &mut TestTracker| {
            let (bytes, _) = graph::marshal_args_delta(
                src, &[Some(root)], &spec, &masks, Direction::In, &|a| a, delta,
            )
            .unwrap();
            let roots = graph::unmarshal_args(
                &bytes, ["dnode"], dst, &spec, &masks, Direction::In, tracker,
            )
            .unwrap();
            (bytes.len(), roots[0].unwrap())
        };

        // Initial transfer is full; every later one is a delta.
        let (first_len, droot) = transfer(&src, &mut dst, &mut delta, &mut tracker);
        assert_graphs_equal(&src, root, &dst, droot);

        for round in &case.rounds {
            for op in round {
                match op {
                    WriteOp::SetV(i, v) => {
                        src.set_scalar(addrs[*i], "v", XdrValue::Int(*v)).unwrap();
                    }
                    WriteOp::SetXs(i, xs) => {
                        let arr = XdrValue::Array(xs.iter().map(|v| XdrValue::Int(*v)).collect());
                        src.set_scalar(addrs[*i], "xs", arr).unwrap();
                    }
                    WriteOp::SetL(i, j) => {
                        src.set_ptr(addrs[*i], "l", j.map(|t| addrs[t])).unwrap();
                    }
                    WriteOp::SetR(i, j) => {
                        src.set_ptr(addrs[*i], "r", j.map(|t| addrs[t])).unwrap();
                    }
                }
            }
            let (len, droot) = transfer(&src, &mut dst, &mut delta, &mut tracker);
            assert_graphs_equal(&src, root, &dst, droot);
            // Against a full re-marshal of the *current* graph, a delta
            // round costs at most the extra bitmap word per object.
            let full_now = graph::marshal_args(
                &src, &[Some(root)], &spec, &masks, Direction::In,
            )
            .unwrap()
            .len();
            prop_assert!(
                len <= full_now + 4 * case.values.len(),
                "delta round ({len} B) should not blow past a full re-marshal ({full_now} B)"
            );
        }

        // A quiescent repeat transfers headers only and changes nothing.
        let (quiet_len, droot) = transfer(&src, &mut dst, &mut delta, &mut tracker);
        assert_graphs_equal(&src, root, &dst, droot);
        let full_now = graph::marshal_args(&src, &[Some(root)], &spec, &masks, Direction::In)
            .unwrap()
            .len();
        prop_assert!(
            quiet_len < full_now,
            "clean repeat ({quiet_len} B) must undercut a full re-marshal ({full_now} B)"
        );
        let _ = first_len;
    }
}

// ------------------------------------- compiled codec vs the by-name walk

mod reference;

use decaf_xdr::graph::{DeltaStats, NoDelta, WalkScratch};
use decaf_xdr::mask::{Access, FieldMask};
use decaf_xdr::plan::MarshalPlan;
use decaf_xdr::XdrError;
use reference::{RefHeap, RefTracker};

/// SplitMix64: a case is one seed, and everything in it — graph, masks,
/// history — is drawn from this, so a failure replays from its seed.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True once in `n` draws.
    fn one_in(&mut self, n: u64) -> bool {
        self.next_u64().is_multiple_of(n)
    }
}

/// A leaf behind an alias-to-pointer, a node that forms arbitrary graphs,
/// and two wide types: 32 fields (the widest a delta bitmap covers) and
/// 33 (the `DELTA_MAX_FIELDS` fallback to full encoding).
fn twin_spec() -> XdrSpec {
    let ints = |n: usize| (0..n).map(|i| format!("int f{i}; ")).collect::<String>();
    XdrSpec::parse(&format!(
        "typedef struct leaf *leaf_ptr;\n\
         struct leaf {{ int v; opaque tag[4]; }};\n\
         struct node {{ int v; int xs<4>; struct node *l; struct node *r; leaf_ptr leaf; }};\n\
         struct wide32 {{ {}struct node *n; }};\n\
         struct wide33 {{ {}struct node *n; }};",
        ints(31),
        ints(32),
    ))
    .unwrap()
}

const TWIN_TYPES: [&str; 4] = ["leaf", "node", "wide32", "wide33"];

/// One domain's memory, twice: the product heap and the reference model,
/// kept in lock-step — every operation is applied to both and must agree.
struct Twin {
    real: ObjHeap,
    model: RefHeap,
}

impl Twin {
    fn with_base(base: CAddr) -> Twin {
        Twin {
            real: ObjHeap::with_base(base),
            model: RefHeap::with_base(base),
        }
    }

    /// Allocates a default `ty`. `by_name` builds the product object from
    /// bare names, in reverse field order and with a field no spec
    /// declares — the shape a caller without a spec may hand the codec —
    /// so it crosses through the name → index edge, not the shared layout.
    fn alloc(&mut self, ty: &str, spec: &XdrSpec, by_name: bool) -> CAddr {
        let fields = reference::default_fields(ty, spec).unwrap();
        let real = if by_name {
            let mut shuffled: Vec<_> = fields.iter().rev().cloned().collect();
            shuffled.push(("not_in_spec".into(), FieldVal::Scalar(XdrValue::Int(7))));
            self.real.alloc(ty, shuffled)
        } else {
            self.real.alloc_default(ty, spec).unwrap()
        };
        assert_eq!(real, self.model.alloc(ty, fields));
        real
    }

    fn set_scalar(&mut self, addr: CAddr, field: &str, v: XdrValue) {
        let real = self.real.set_scalar(addr, field, v.clone());
        assert_eq!(real, self.model.set_scalar(addr, field, v));
    }

    fn set_ptr(&mut self, addr: CAddr, field: &str, p: Option<CAddr>) {
        let real = self.real.set_ptr(addr, field, p);
        assert_eq!(real, self.model.set_ptr(addr, field, p));
    }

    /// `get_mut`: every field conservatively dirty.
    fn touch_all(&mut self, addr: CAddr) {
        let real = self.real.get_mut(addr).map(|_| ());
        assert_eq!(real, self.model.get_mut(addr).map(|_| ()));
    }

    fn addrs(&self) -> Vec<(CAddr, String)> {
        let held = self.model.iter();
        held.map(|(a, o)| (a, o.type_name.clone())).collect()
    }

    /// Same objects at the same addresses with the same fields, values and
    /// write generations (fields only the product object has are its own).
    fn assert_same(&self) {
        assert_eq!(self.real.generation(), self.model.generation());
        assert_eq!(self.real.len(), self.model.len());
        for ((ra, robj), (ma, mobj)) in self.real.iter().zip(self.model.iter()) {
            assert_eq!((ra, robj.type_name()), (ma, mobj.type_name.as_str()));
            for (name, value) in &mobj.fields {
                assert_eq!(robj.field(name), Some(value), "{ma:#x}.{name}");
                let gens = (
                    self.real.field_gen(ra, name),
                    self.model.field_gen(ma, name),
                );
                assert_eq!(gens.0, gens.1, "generation of {ma:#x}.{name}");
            }
        }
    }
}

/// The product-side tracker, keyed like the reference's so the two maps
/// compare directly.
#[derive(Default)]
struct NamedTracker(RefTracker);

impl TrackerHook for NamedTracker {
    fn lookup(&mut self, remote: CAddr, ty: &Layout) -> Option<CAddr> {
        self.0.get(&(remote, ty.name().to_string())).copied()
    }
    fn associate(&mut self, remote: CAddr, ty: &Layout, local: CAddr) {
        self.0.insert((remote, ty.name().to_string()), local);
    }
}

/// One end of a channel, twice: heap, receiver-side tracker and
/// sender-side delta map of the product codec and of the model.
struct End {
    heap: Twin,
    tracker: (NamedTracker, RefTracker),
    delta: (TestDelta, TestDelta),
}

impl End {
    fn with_base(base: CAddr) -> End {
        End {
            heap: Twin::with_base(base),
            tracker: Default::default(),
            delta: Default::default(),
        }
    }

    /// Local address → the address the peer knows the object by.
    fn canonical(&self) -> HashMap<CAddr, CAddr> {
        let known = self.tracker.1.iter();
        known
            .map(|((remote, _), local)| (*local, *remote))
            .collect()
    }
}

/// What the product side keeps across calls, as a channel does.
struct Compiled {
    plan: MarshalPlan,
    scratch: WalkScratch,
}

/// One leg of a crossing on both codecs. Marshal: same wire, same
/// statistics (or the same error), same delta maps afterwards. Unmarshal:
/// same roots (or the same error), same heap, same tracker.
#[allow(clippy::too_many_arguments)]
fn cross(
    spec: &XdrSpec,
    masks: &MaskSet,
    compiled: &mut Compiled,
    dir: Direction,
    delta_on: bool,
    src: &mut End,
    roots: &[Option<CAddr>],
    types: &[&str],
    dst: &mut End,
) -> Result<Vec<Option<CAddr>>, XdrError> {
    let canonical = src.canonical();
    let translate = |a: CAddr| canonical.get(&a).copied().unwrap_or(a);
    let before = src.delta.1 .0.clone();
    let (mut none_a, mut none_b) = (NoDelta, NoDelta);
    let (hook_real, hook_model): (&mut dyn DeltaHook, &mut dyn DeltaHook) = match delta_on {
        true => (&mut src.delta.0, &mut src.delta.1),
        false => (&mut none_a, &mut none_b),
    };
    let mut wire = Vec::new();
    let real: Result<DeltaStats, _> = graph::marshal_plan(
        &src.heap.real,
        roots,
        &compiled.plan,
        spec,
        dir,
        &translate,
        hook_real,
        &mut compiled.scratch,
        &mut wire,
    );
    let model = reference::marshal_args_delta(
        &src.heap.model,
        roots,
        spec,
        masks,
        dir,
        &translate,
        hook_model,
    );
    assert_eq!(
        src.delta.0 .0, src.delta.1 .0,
        "delta maps after the marshal"
    );
    let (model_wire, model_stats) = match model {
        Ok(sent) => sent,
        Err(e) => {
            assert_eq!(real, Err(e.clone()));

            assert_eq!(src.delta.1 .0, before, "a failed marshal advances nothing");
            return Err(e);
        }
    };
    assert_eq!(real, Ok(model_stats));
    assert_eq!(wire, model_wire);

    let ids = types.iter().map(|t| spec.layout(t).unwrap().id());
    let mut real_roots = Vec::new();
    let real = graph::unmarshal_plan(
        &wire,
        ids,
        &mut dst.heap.real,
        &compiled.plan,
        spec,
        dir,
        &mut dst.tracker.0,
        &mut compiled.scratch,
        &mut |root| real_roots.push(root),
    );
    let tracker = &mut dst.tracker.1;
    let model =
        reference::unmarshal_args(&wire, types, &mut dst.heap.model, spec, masks, dir, tracker);
    assert_eq!(real.map(|()| real_roots), model);
    dst.heap.assert_same();
    assert_eq!(dst.tracker.0 .0, dst.tracker.1);
    model
}

/// A mask set drawn from `rng`: full, or per type a random subset of the
/// fields with random access modes (a type left out transfers nothing).
fn random_masks(rng: &mut Rng, spec: &XdrSpec) -> MaskSet {
    if rng.one_in(3) {
        return MaskSet::full();
    }
    let mut masks = MaskSet::selective();
    for ty in TWIN_TYPES {
        if rng.one_in(8) {
            continue;
        }
        let mut mask = FieldMask::new();
        for (name, _) in spec.struct_fields(ty).unwrap() {
            let access = match rng.next_u64() % 8 {
                0 => continue,
                1 => Access::Read,
                2 => Access::Write,
                _ => Access::ReadWrite,
            };
            mask.record(name.as_str(), access);
        }
        masks.insert(ty, mask);
    }
    masks
}

/// Random tracked writes to the objects of `end`, the kinds a handler
/// makes: scalars, arrays, rewired pointers (cycles, sharing, nulls), a
/// `get_mut`, a freshly allocated node linked in.
fn random_writes(rng: &mut Rng, spec: &XdrSpec, end: &mut End, count: u64) {
    for _ in 0..count {
        let held = end.heap.addrs();
        let pick = |rng: &mut Rng, ty: &str| {
            let of_type: Vec<_> = held.iter().filter(|(_, t)| t == ty).collect();
            let n = of_type.len() as u64;
            (n > 0).then(|| of_type[(rng.next_u64() % n) as usize].0)
        };
        let Some(node) = pick(rng, "node") else {
            return;
        };
        let int = XdrValue::Int(rng.next_u64() as i32);
        match rng.next_u64() % 9 {
            0 => end.heap.set_scalar(node, "v", int),
            1 => {
                let len = rng.next_u64() % 5;
                let xs = (0..len).map(|i| XdrValue::Int(i as i32)).collect();
                end.heap.set_scalar(node, "xs", XdrValue::Array(xs));
            }
            2 | 3 => {
                let target = pick(rng, "node").filter(|_| !rng.one_in(4));
                let field = ["l", "r"][(rng.next_u64() % 2) as usize];
                end.heap.set_ptr(node, field, target);
            }
            4 => {
                let leaf = pick(rng, "leaf").filter(|_| !rng.one_in(4));
                end.heap.set_ptr(node, "leaf", leaf);
            }
            5 => end
                .heap
                .touch_all(held[(rng.next_u64() % held.len() as u64) as usize].0),
            6 => {
                let fresh = end.heap.alloc("node", spec, rng.one_in(2));
                end.heap.set_ptr(node, "r", Some(fresh));
            }
            7 => {
                if let Some(leaf) = pick(rng, "leaf") {
                    end.heap.set_scalar(leaf, "v", int);
                }
            }
            _ => {
                let wide = ["wide32", "wide33"][(rng.next_u64() % 2) as usize];
                if let Some(w) = pick(rng, wide) {
                    end.heap
                        .set_scalar(w, &format!("f{}", rng.next_u64() % 31), int);
                }
            }
        }
    }
}

/// Random graphs × random masks × random write/send histories in both
/// directions: the compiled codec and the by-name walk it replaced
/// agree on every wire byte, statistic, decoded heap, tracker and
/// delta map — through the shared-layout path and the name → index
/// edge alike, with and without deltas, past the scan limit of the
/// back-reference table, and through the errors a crossing can meet
/// (a dangling pointer mid-marshal, a delta for a forgotten object).
fn twin_case(seed: u64) {
    let mut rng = Rng(seed);
    let rng = &mut rng;
    let spec = twin_spec();
    let masks = random_masks(rng, &spec);
    let delta_on = !rng.one_in(4);
    let mut compiled = Compiled {
        plan: MarshalPlan::compile(&spec, &masks),
        scratch: WalkScratch::default(),
    };
    let (mut a, mut b) = (End::with_base(0x1000), End::with_base(0x7000_0000));

    // The caller's graph: nodes, shared leaves and the two wide types.
    let nodes = 1 + rng.next_u64() % 12;
    for _ in 0..nodes {
        a.heap.alloc("node", &spec, rng.one_in(3));
    }
    for ty in ["leaf", "leaf", "wide32", "wide33"] {
        let obj = a.heap.alloc(ty, &spec, rng.one_in(3));
        if ty != "leaf" {
            a.heap.set_ptr(obj, "n", Some(0x1000));
        }
    }
    // A chain through every node that closes on itself, so the first
    // root reaches all of them (past the scan limit of the
    // back-reference table when there are enough) before the random
    // rewiring adds sharing, more cycles and nulls.
    for i in 0..nodes {
        let next = 0x1000 + ((i + 1) % nodes) * 0x100;
        a.heap.set_ptr(0x1000 + i * 0x100, "l", Some(next));
    }
    random_writes(rng, &spec, &mut a, nodes);
    let held = a.heap.addrs();
    let args: Vec<_> = (0..1 + rng.next_u64() % 3)
        .map(|i| held[(i.wrapping_mul(rng.next_u64()) % held.len() as u64) as usize].clone())
        .collect();
    let mut roots: Vec<_> = args.iter().map(|(addr, _)| Some(*addr)).collect();
    let types: Vec<_> = args.iter().map(|(_, ty)| ty.as_str()).collect();
    if rng.one_in(5) {
        roots[0] = None;
    }

    for _round in 0..3 + rng.next_u64() % 6 {
        let fault = rng.next_u64() % 12;
        if fault == 0 {
            // A pointer to nowhere: unless the mask keeps `l` at home,
            // the marshal fails on both sides and (checked in `cross`)
            // leaves the delta map alone.
            a.heap.set_ptr(0x1000, "l", Some(0xdead_0000));
            let sent = cross(
                &spec,
                &masks,
                &mut compiled,
                Direction::In,
                delta_on,
                &mut a,
                &[Some(0x1000)],
                &["node"],
                &mut b,
            );
            if masks.includes("node", "l", Direction::In) {
                assert_eq!(sent, Err(XdrError::DanglingAddr(0xdead_0000)));
            }
            a.heap.set_ptr(0x1000, "l", None);
        } else if fault == 1 {
            // The receiver restarts; the sender's delta map does not
            // hear of it. Whatever that meets — a delta for an object
            // the receiver no longer holds, or a clean full transfer —
            // both codecs meet the same.
            b = End::with_base(0x7000_0000);
        }
        let Ok(locals) = cross(
            &spec,
            &masks,
            &mut compiled,
            Direction::In,
            delta_on,
            &mut a,
            &roots,
            &types,
            &mut b,
        ) else {
            return;
        };
        let writes = rng.next_u64() % 4;
        random_writes(rng, &spec, &mut b, writes);
        let back = cross(
            &spec,
            &masks,
            &mut compiled,
            Direction::Out,
            delta_on,
            &mut b,
            &locals,
            &types,
            &mut a,
        );
        if back.is_err() {
            return;
        }
        let writes = rng.next_u64() % 4;
        random_writes(rng, &spec, &mut a, writes);
    }
}

proptest! {
    #[test]
    fn compiled_codec_is_the_by_name_codec(seed in any::<u64>()) {
        twin_case(seed);
    }
}

/// The two decoders refuse a back-reference to an object the message
/// never carried, and a delta for an object the receiver does not hold,
/// with the same error.
#[test]
fn decoders_refuse_malformed_messages_alike() {
    let spec = twin_spec();
    let masks = MaskSet::full();
    let mut compiled = Compiled {
        plan: MarshalPlan::compile(&spec, &masks),
        scratch: WalkScratch::default(),
    };
    let word = |w: u32| w.to_be_bytes();
    let backref = [word(2), word(9)].concat();
    // An inline leaf at a foreign address in delta mode: nothing to patch.
    let delta = [word(1), word(0), word(0x5000), word(1), word(0)].concat();
    for (wire, want) in [
        (backref, XdrError::BadBackRef(9)),
        (delta, XdrError::DeltaForUnknown(0x5000)),
    ] {
        let mut end = End::with_base(0x1000);
        let real = graph::unmarshal_plan(
            &wire,
            [spec.layout("leaf").unwrap().id()],
            &mut end.heap.real,
            &compiled.plan,
            &spec,
            Direction::In,
            &mut end.tracker.0,
            &mut compiled.scratch,
            &mut |_| (),
        );
        let (heap, tracker) = (&mut end.heap.model, &mut end.tracker.1);
        let model =
            reference::unmarshal_args(&wire, ["leaf"], heap, &spec, &masks, Direction::In, tracker);
        assert_eq!(real, Err(want.clone()));
        assert_eq!(model, Err(want));
    }
}

/// Exactly 32 masked fields still delta-encode; 33 fall back to full
/// encoding on every transfer — on both codecs (the equality is checked
/// inside `cross`), and with the statistics to show which happened.
#[test]
fn delta_bitmap_covers_32_fields_and_33_fall_back() {
    let spec = twin_spec();
    let masks = MaskSet::full();
    for (ty, want_delta) in [("wide32", 1), ("wide33", 0)] {
        let mut compiled = Compiled {
            plan: MarshalPlan::compile(&spec, &masks),
            scratch: WalkScratch::default(),
        };
        let (mut a, mut b) = (End::with_base(0x1000), End::with_base(0x7000_0000));
        let w = a.heap.alloc(ty, &spec, false);
        let sends = |a: &mut End, b: &mut End, compiled: &mut Compiled| {
            let before = a.delta.0 .0.len();
            cross(
                &spec,
                &masks,
                compiled,
                Direction::In,
                true,
                a,
                &[Some(w)],
                &[ty],
                b,
            )
            .unwrap();
            assert_eq!(a.delta.0 .0.len(), before.max(1));
        };
        sends(&mut a, &mut b, &mut compiled);
        a.heap.set_scalar(w, "f30", XdrValue::Int(5));
        let full_before =
            graph::marshal_args(&a.heap.real, &[Some(w)], &spec, &masks, Direction::In);
        let mut hook = TestDelta(a.delta.0 .0.clone());
        let (wire, stats) = graph::marshal_args_delta(
            &a.heap.real,
            &[Some(w)],
            &spec,
            &masks,
            Direction::In,
            &|a| a,
            &mut hook,
        )
        .unwrap();
        assert_eq!(stats.delta_objects, want_delta, "{ty}");
        assert_eq!(stats.full_objects, 1 - want_delta, "{ty}");
        assert_eq!(
            wire.len() < full_before.unwrap().len(),
            want_delta == 1,
            "{ty}"
        );
        sends(&mut a, &mut b, &mut compiled);
        assert_eq!(
            b.heap.real.scalar(0x7000_0000, "f30").unwrap(),
            &XdrValue::Int(5)
        );
    }
}

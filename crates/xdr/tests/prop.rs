//! Property-based tests for the XDR codec and graph marshaler,
//! including convergence of dirty-field delta marshaling.

use std::collections::HashMap;

use decaf_xdr::codec;
use decaf_xdr::graph::{self, CAddr, DeltaHook, FieldVal, NullTracker, ObjHeap, TrackerHook};
use decaf_xdr::mask::{Direction, MaskSet};
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
    fn lookup(&mut self, remote: CAddr, type_name: &str) -> Option<CAddr> {
        self.0.get(&(remote, type_name.to_string())).copied()
    }
    fn associate(&mut self, remote: CAddr, type_name: &str, local: CAddr) {
        self.0.insert((remote, type_name.to_string()), local);
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

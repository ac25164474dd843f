//! XDR marshaling for Decaf Drivers.
//!
//! This crate reimplements the marshaling layer of *Decaf: Moving Device
//! Drivers to a Modern Language* (Renzelmann & Swift, USENIX ATC 2009).
//! The paper marshals driver data structures between the kernel-mode
//! *driver nucleus* (C) and the user-mode *decaf driver* (Java) using the
//! XDR external data representation standard (RFC 4506), extended in three
//! ways (paper §3.2.3):
//!
//! 1. **Object tracking** — unmarshaling code consults an object tracker
//!    before allocating a structure, so a structure that already exists in
//!    the target domain is updated in place rather than duplicated.
//! 2. **Recursive data structures** — marshaling keeps a table of objects
//!    already serialized and emits a back-reference when an object is seen
//!    again, so circular linked lists terminate and a structure referenced
//!    by two parameters is transferred exactly once.
//! 3. **Field-selective copies** — only the fields actually accessed by the
//!    target domain are transferred (paper §2.3), directed by per-entry-point
//!    field masks derived from DriverSlicer's access analysis.
//!
//! The crate provides:
//!
//! * [`value::XdrValue`] — a dynamic value model.
//! * [`schema::XdrType`] / [`spec::XdrSpec`] — type descriptions and an XDR
//!   IDL front end (the language emitted by DriverSlicer, Figure 3).
//! * [`codec`] — the RFC 4506 wire format (big-endian, 4-byte alignment).
//! * [`graph`] — cycle-aware marshaling of object heaps with tracker hooks.
//! * [`intmap`] — address-keyed tables without SipHash.
//! * [`mask`] — field-selective marshaling masks with R/W/RW directions.
//! * [`plan`] — compiled marshaling: per-type layouts and, per mask set,
//!   the field indices that cross in each direction — what the graph
//!   walker runs.
//!
//! # Examples
//!
//! ```
//! use decaf_xdr::spec::XdrSpec;
//! use decaf_xdr::value::XdrValue;
//! use decaf_xdr::codec;
//!
//! let spec = XdrSpec::parse("struct pair { int a; unsigned hyper b; };").unwrap();
//! let ty = spec.named_type("pair").unwrap();
//! let v = XdrValue::structure("pair", vec![
//!     ("a", XdrValue::Int(-7)),
//!     ("b", XdrValue::UHyper(42)),
//! ]);
//! let bytes = codec::encode(&v, &ty, &spec).unwrap();
//! assert_eq!(bytes.len(), 12);
//! let back = codec::decode(&bytes, &ty, &spec).unwrap();
//! assert_eq!(v, back);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod graph;
pub mod intmap;
pub mod mask;
pub mod plan;
pub mod schema;
pub mod spec;
pub mod value;

pub use error::{XdrError, XdrResult};
pub use graph::{DeltaHook, DeltaStats, FieldVal, NoDelta, ObjHeap, StructObj, TrackerHook};
pub use mask::{Access, FieldMask};
pub use schema::XdrType;
pub use spec::XdrSpec;
pub use value::XdrValue;

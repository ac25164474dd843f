//! The object tracker as it stood before its tables hashed through
//! `decaf_xdr::intmap::IntMap`: two std `HashMap`s under SipHash, kept
//! verbatim (type renamed `RefTracker`, its tests left out) as the
//! reference model `tracker_prop.rs` checks `ObjectTracker` against.
//! Not product code; do not simplify it.
#![allow(dead_code)]

use std::collections::HashMap;

use decaf_xdr::graph::CAddr;
use decaf_xdr::plan::{Layout, TypeId};
use decaf_xdr::TrackerHook;

/// A per-domain object tracker mapping peer (canonical) addresses to local
/// objects, disambiguated by type tag.
#[derive(Debug, Default)]
pub struct RefTracker {
    by_remote: HashMap<(CAddr, TypeId), CAddr>,
    by_local: HashMap<CAddr, (CAddr, TypeId)>,
}

impl RefTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        RefTracker::default()
    }

    /// Number of live associations.
    pub fn len(&self) -> usize {
        self.by_remote.len()
    }

    /// Whether the tracker holds no associations.
    pub fn is_empty(&self) -> bool {
        self.by_remote.is_empty()
    }

    /// The canonical (peer) address a local object corresponds to, if the
    /// object originated elsewhere.
    ///
    /// Used by the sending stub to "translate any parameters to their
    /// equivalent C pointers" (paper §3.1.1).
    pub fn canonical_for(&self, local: CAddr) -> Option<CAddr> {
        self.by_local.get(&local).map(|(remote, _)| *remote)
    }

    /// Removes the association for a local object (explicit free; the
    /// paper's decaf drivers release shared objects explicitly, §3.1.2).
    ///
    /// Returns the canonical address that was associated, if any.
    pub fn release_local(&mut self, local: CAddr) -> Option<CAddr> {
        let (remote, tag) = self.by_local.remove(&local)?;
        self.by_remote.remove(&(remote, tag));
        Some(remote)
    }

    /// All associations as `(remote, type, local)` triples (test helper).
    pub fn associations(&self) -> Vec<(CAddr, TypeId, CAddr)> {
        let mut v: Vec<_> = self
            .by_remote
            .iter()
            .map(|((r, t), l)| (*r, *t, *l))
            .collect();
        v.sort();
        v
    }
}

impl TrackerHook for RefTracker {
    fn lookup(&mut self, remote: CAddr, ty: &Layout) -> Option<CAddr> {
        self.by_remote.get(&(remote, ty.id())).copied()
    }

    fn associate(&mut self, remote: CAddr, ty: &Layout, local: CAddr) {
        self.by_remote.insert((remote, ty.id()), local);
        self.by_local.insert(local, (remote, ty.id()));
    }
}

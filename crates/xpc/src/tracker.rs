//! The object tracker: shared-object identity across domains.
//!
//! "Decaf Drivers XPC uses an object tracker that records each shared
//! object, extended to support two user-level domains. When transferring
//! objects into a domain, XPC consults the object tracker to find whether
//! the object already exists" (paper §2.3). Two C-vs-Java representation
//! problems drive the design (§3.1.2):
//!
//! * Java objects have no address, so the user-level tracker keys objects
//!   by reference — here, by the local heap address standing in for one.
//! * One C pointer may correspond to several objects (a struct embedded
//!   first in another shares its address), so every association carries a
//!   *type tag*; the paper uses the address of the type's XDR marshaling
//!   function, we use the id of the type's compiled layout.
//!
//! Both tables are consulted on every crossing that carries an object, so
//! they hash through [`IntMap`]'s one integer mix, not SipHash.

use decaf_xdr::graph::CAddr;
use decaf_xdr::intmap::IntMap;
use decaf_xdr::plan::{Layout, TypeId};
use decaf_xdr::TrackerHook;

/// A per-domain object tracker mapping peer (canonical) addresses to local
/// objects, disambiguated by type tag.
#[derive(Debug, Default)]
pub struct ObjectTracker {
    by_remote: IntMap<(CAddr, TypeId), CAddr>,
    by_local: IntMap<CAddr, (CAddr, TypeId)>,
}

impl ObjectTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ObjectTracker::default()
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

impl TrackerHook for ObjectTracker {
    fn lookup(&mut self, remote: CAddr, ty: &Layout) -> Option<CAddr> {
        self.by_remote.get(&(remote, ty.id())).copied()
    }

    fn associate(&mut self, remote: CAddr, ty: &Layout, local: CAddr) {
        self.by_remote.insert((remote, ty.id()), local);
        self.by_local.insert(local, (remote, ty.id()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_xdr::XdrSpec;

    /// The four struct types the cases below tag associations with.
    fn spec() -> XdrSpec {
        XdrSpec::parse(
            "struct e1000_adapter { int a; }; struct outer { int a; };\n\
             struct inner { int a; }; struct ring { int a; };",
        )
        .unwrap()
    }

    #[test]
    fn lookup_miss_then_hit() {
        let (s, mut t) = (spec(), ObjectTracker::new());
        assert_eq!(t.lookup(0x1000, s.layout("e1000_adapter").unwrap()), None);
        t.associate(0x1000, s.layout("e1000_adapter").unwrap(), 0x8000_0000);
        assert_eq!(
            t.lookup(0x1000, s.layout("e1000_adapter").unwrap()),
            Some(0x8000_0000)
        );
        let id = s.layout("e1000_adapter").unwrap().id();
        assert_eq!(t.associations(), [(0x1000, id, 0x8000_0000)]);
    }

    #[test]
    fn embedded_structs_disambiguated_by_type_tag() {
        // A struct embedded first in another shares its C address; the
        // type tag keeps the two associations apart (paper §3.1.2).
        let (s, mut t) = (spec(), ObjectTracker::new());
        t.associate(0x2000, s.layout("outer").unwrap(), 0x8000_0000);
        t.associate(0x2000, s.layout("inner").unwrap(), 0x8000_0100);
        assert_eq!(
            t.lookup(0x2000, s.layout("outer").unwrap()),
            Some(0x8000_0000)
        );
        assert_eq!(
            t.lookup(0x2000, s.layout("inner").unwrap()),
            Some(0x8000_0100)
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn canonical_reverse_lookup() {
        let (s, mut t) = (spec(), ObjectTracker::new());
        t.associate(0x3000, s.layout("ring").unwrap(), 0x8000_0000);
        assert_eq!(t.canonical_for(0x8000_0000), Some(0x3000));
        assert_eq!(t.canonical_for(0x9999), None);
    }

    #[test]
    fn release_removes_both_directions() {
        let (s, mut t) = (spec(), ObjectTracker::new());
        t.associate(0x3000, s.layout("ring").unwrap(), 0x8000_0000);
        assert_eq!(t.release_local(0x8000_0000), Some(0x3000));
        assert_eq!(t.lookup(0x3000, s.layout("ring").unwrap()), None);
        assert_eq!(t.canonical_for(0x8000_0000), None);
        assert!(t.is_empty());
        assert_eq!(t.release_local(0x8000_0000), None, "released once");
    }
}

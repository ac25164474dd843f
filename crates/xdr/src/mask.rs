//! Field-selective marshaling masks.
//!
//! XPC "provides customized marshaling of data structures to copy only
//! those fields actually accessed at the target" (paper §2.3). DriverSlicer
//! derives, for every structure type crossing the boundary, the set of
//! fields the other domain reads and/or writes — from static access
//! analysis plus explicit `DECAF_XVAR` annotations (§3.2.4). Both sides of
//! an XPC consult the *same* mask, so the encoder may omit fields and the
//! decoder knows to skip them.

use std::collections::{BTreeMap, HashMap};

/// How the target domain accesses a field (the `X` in `DECAF_XVAR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Target only reads the field: copied on the way in.
    Read,
    /// Target only writes the field: copied back on the way out.
    Write,
    /// Target reads and writes: copied both ways.
    ReadWrite,
}

/// Transfer direction relative to the *target* domain of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Arguments travelling into the target domain (target will read).
    In,
    /// Results travelling back out of the target domain (target wrote).
    Out,
}

impl Access {
    /// Whether a field with this access is transferred in `dir`.
    pub fn transferred(self, dir: Direction) -> bool {
        matches!(
            (self, dir),
            (Access::Read, Direction::In)
                | (Access::Write, Direction::Out)
                | (Access::ReadWrite, _)
        )
    }
}

/// Per-structure field mask: field name → access mode.
///
/// Fields absent from the mask are never transferred. This mirrors the
/// paper's behaviour where "structures defined for the kernel's internal
/// use but shared with drivers are passed with only the driver-accessed
/// fields".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldMask {
    entries: BTreeMap<String, Access>,
}

impl FieldMask {
    /// An empty mask (no fields transferred).
    pub fn new() -> Self {
        FieldMask::default()
    }

    /// Marks a field with an access mode, widening if already present.
    ///
    /// Widening means `Read` + `Write` → `ReadWrite`, matching repeated
    /// `DECAF_RVAR`/`DECAF_WVAR` annotations on the same variable.
    pub fn record(&mut self, field: impl Into<String>, access: Access) {
        let field = field.into();
        let widened = match (self.entries.get(&field), access) {
            (None, a) => a,
            (Some(existing), a) if *existing == a => a,
            _ => Access::ReadWrite,
        };
        self.entries.insert(field, widened);
    }

    /// Whether `field` is transferred in `dir`.
    pub fn includes(&self, field: &str, dir: Direction) -> bool {
        self.entries.get(field).is_some_and(|a| a.transferred(dir))
    }

    /// The recorded access for `field`, if any.
    pub fn access(&self, field: &str) -> Option<Access> {
        self.entries.get(field).copied()
    }

    /// Number of fields in the mask.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the mask transfers nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(field, access)` in field-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Access)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// The mask policy for a whole interface: per-type masks, or full copies.
///
/// `Full` reproduces naive RPC marshaling (every declared field both ways)
/// and exists so the field-selectivity ablation bench can compare the two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaskSet {
    masks: HashMap<String, FieldMask>,
    /// When true, types without an explicit mask transfer all fields.
    full_by_default: bool,
}

impl MaskSet {
    /// A mask set that transfers every field of every type (no selectivity).
    pub fn full() -> Self {
        MaskSet {
            masks: HashMap::new(),
            full_by_default: true,
        }
    }

    /// A selective mask set: unlisted types transfer nothing.
    pub fn selective() -> Self {
        MaskSet {
            masks: HashMap::new(),
            full_by_default: false,
        }
    }

    /// Installs the mask for a structure type.
    pub fn insert(&mut self, type_name: impl Into<String>, mask: FieldMask) {
        self.masks.insert(type_name.into(), mask);
    }

    /// The mask registered for `type_name`, if any.
    pub fn mask(&self, type_name: &str) -> Option<&FieldMask> {
        self.masks.get(type_name)
    }

    /// Whether a type without a mask of its own transfers every field.
    pub fn transfers_unlisted(&self) -> bool {
        self.full_by_default
    }

    /// Whether `field` of `type_name` is transferred in `dir`.
    pub fn includes(&self, type_name: &str, field: &str, dir: Direction) -> bool {
        match self.masks.get(type_name) {
            Some(mask) => mask.includes(field, dir),
            None => self.full_by_default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_direction_matrix() {
        assert!(Access::Read.transferred(Direction::In));
        assert!(!Access::Read.transferred(Direction::Out));
        assert!(!Access::Write.transferred(Direction::In));
        assert!(Access::Write.transferred(Direction::Out));
        assert!(Access::ReadWrite.transferred(Direction::In));
        assert!(Access::ReadWrite.transferred(Direction::Out));
    }

    #[test]
    fn record_widens_access() {
        let mut m = FieldMask::new();
        m.record("x", Access::Read);
        assert_eq!(m.access("x"), Some(Access::Read));
        m.record("x", Access::Write);
        assert_eq!(m.access("x"), Some(Access::ReadWrite));
        m.record("y", Access::Write);
        m.record("y", Access::Write);
        assert_eq!(m.access("y"), Some(Access::Write));
    }

    #[test]
    fn full_and_selective_defaults() {
        let full = MaskSet::full();
        assert!(full.includes("anything", "field", Direction::In));
        let sel = MaskSet::selective();
        assert!(!sel.includes("anything", "field", Direction::In));
    }

    #[test]
    fn selective_lookup() {
        let mut set = MaskSet::selective();
        let mut m = FieldMask::new();
        m.record("msg_enable", Access::Read);
        m.record("stats", Access::Write);
        set.insert("e1000_adapter", m);
        assert!(set.includes("e1000_adapter", "msg_enable", Direction::In));
        assert!(!set.includes("e1000_adapter", "msg_enable", Direction::Out));
        assert!(set.includes("e1000_adapter", "stats", Direction::Out));
        assert!(!set.includes("e1000_adapter", "unlisted", Direction::In));
    }
}

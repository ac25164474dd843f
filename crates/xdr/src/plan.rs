//! Compiled marshaling: layouts and programs.
//!
//! The paper's DriverSlicer *generates* the XDR marshaling code and
//! `rpcgen`/`jrpcgen` compile it (§3.2.2) — marshaling is a build
//! artefact of the driver, not something worked out again on every
//! crossing. Here that artefact has two halves:
//!
//! * a [`Layout`] per struct type, built once per [`XdrSpec`]: the field
//!   names, each field's [`FieldKind`] (a scalar with its alias-resolved
//!   type, or a pointer with its target's [`TypeId`]) and the default
//!   field values a fresh object starts from;
//! * a [`MarshalPlan`] per (spec, mask set): for every type and
//!   direction, the *indices* of the fields the mask lets cross, in
//!   declaration order.
//!
//! Names are resolved at the edge — when a spec is built, a mask set is
//! compiled, a handler reads a field — and a crossing runs indices.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{XdrError, XdrResult};
use crate::graph::{default_value, FieldVal, Slot};
use crate::mask::{Direction, MaskSet};
use crate::schema::XdrType;
use crate::spec::XdrSpec;

/// A struct type of one spec, interned: its index among the spec's
/// [`Layouts`]. Means nothing against another spec.
pub type TypeId = u32;

/// The struct types of a procedure's object arguments, resolved against
/// one spec and held inline: whoever keeps them — a registered procedure,
/// a driver image's entry point — allocates nothing for them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeIds {
    len: u8,
    ids: [TypeId; TypeIds::CAPACITY],
}

impl TypeIds {
    /// The most object arguments one procedure takes.
    pub const CAPACITY: usize = 4;

    /// Resolves each struct type `names` lists against `spec`. A name
    /// `spec` does not define as a struct, or a list longer than
    /// [`TypeIds::CAPACITY`], is an error.
    pub fn resolve<S: AsRef<str>>(
        spec: &XdrSpec,
        names: impl IntoIterator<Item = S>,
    ) -> XdrResult<TypeIds> {
        let mut resolved = TypeIds::default();
        for (i, name) in names.into_iter().enumerate() {
            let max = TypeIds::CAPACITY;
            let slot = resolved.ids.get_mut(i);
            *slot.ok_or(XdrError::MaxExceeded { max, found: i + 1 })? =
                spec.layout(name.as_ref())?.id();
            resolved.len += 1;
        }
        Ok(resolved)
    }

    /// The ids, one per object argument, in order.
    pub fn as_slice(&self) -> &[TypeId] {
        &self.ids[..self.len as usize]
    }
}

/// One field of one struct type, resolved against one spec
/// ([`Layout::handle`]): the type's id and the field's index in its
/// layout — what a handler reads or writes a field by, with no name
/// compared per access. Means nothing against another spec, and an
/// object of another type refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldHandle {
    pub(crate) ty: TypeId,
    pub(crate) slot: u16,
}

/// What a declared field holds, resolved once.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldKind {
    /// A non-pointer value of this type (a top-level alias is resolved).
    Scalar(XdrType),
    /// A pointer to a struct of this type.
    Ptr(TypeId),
}

/// The shape of one struct type, shared by every object of that type.
#[derive(Debug, PartialEq)]
pub struct Layout {
    id: TypeId,
    name: String,
    /// Field names in declaration order.
    names: Vec<String>,
    /// Per field; an ill-formed declaration surfaces when it is reached.
    kinds: Vec<XdrResult<FieldKind>>,
    /// Schema-default fields of a fresh object.
    template: XdrResult<Vec<Slot>>,
}

impl Layout {
    /// The layout of an object built from bare names, outside any spec.
    pub(crate) fn unspecified(name: String, names: Vec<String>) -> Layout {
        Layout {
            id: TypeId::MAX,
            template: Err(XdrError::UnknownType(name.clone())),
            name,
            names,
            kinds: Vec::new(),
        }
    }

    /// The type's id within its spec.
    pub fn id(&self) -> TypeId {
        self.id
    }

    /// The struct type's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field names in declaration order.
    pub fn field_names(&self) -> &[String] {
        &self.names
    }

    /// The index of the field called `name` — the name → index step.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The handle of the field called `name`, resolved once.
    pub fn handle(&self, name: &str) -> Option<FieldHandle> {
        let slot = u16::try_from(self.index_of(name)?).ok()?;
        Some(FieldHandle { ty: self.id, slot })
    }

    pub(crate) fn kind(&self, index: usize) -> XdrResult<&FieldKind> {
        self.kinds[index].as_ref().map_err(Clone::clone)
    }

    pub(crate) fn template(&self) -> XdrResult<&[Slot]> {
        self.template.as_deref().map_err(Clone::clone)
    }
}

/// Every struct layout of one spec, by [`TypeId`] and by name.
#[derive(Debug, PartialEq)]
pub struct Layouts {
    by_name: HashMap<String, TypeId>,
    /// Defined structs in declaration order, then one error per struct
    /// name a pointer field mentions that the spec never defines.
    all: Vec<XdrResult<Arc<Layout>>>,
}

/// The error `spec` gives for `name`, which it does not define as a struct.
fn not_a_struct(spec: &XdrSpec, name: &str) -> XdrError {
    let unknown = XdrError::UnknownType(name.to_string());
    spec.struct_fields(name).err().unwrap_or(unknown)
}

/// What a field declared as `ty` holds: a pointer if `ty` is `struct s *`
/// or an alias of that (`target` interns `s`), else a scalar of `ty` with
/// a top-level alias resolved.
fn kind_of(
    ty: &XdrType,
    spec: &XdrSpec,
    target: &mut dyn FnMut(String) -> TypeId,
) -> XdrResult<FieldKind> {
    let resolved = |ty: &XdrType| match ty {
        XdrType::Named(alias) => spec.resolve(alias),
        concrete => Ok(concrete.clone()),
    };
    let ty = resolved(ty)?;
    if let XdrType::Optional(inner) = &ty {
        if let XdrType::Struct(name) = resolved(inner)? {
            return Ok(FieldKind::Ptr(target(name)));
        }
    }
    Ok(FieldKind::Scalar(ty))
}

impl Layouts {
    pub(crate) fn build(spec: &XdrSpec) -> Layouts {
        let defined = spec.type_names();
        let structs: Vec<_> = defined
            .filter_map(|n| Some((n, spec.struct_fields(n).ok()?)))
            .collect();
        let ids = structs.iter().enumerate();
        let mut by_name: HashMap<String, TypeId> = ids
            .map(|(id, (n, _))| (n.to_string(), id as TypeId))
            .collect();
        let mut undefined = Vec::new();
        let mut all = Vec::with_capacity(structs.len());
        for (name, decl) in &structs {
            let mut target = |name: String| {
                let next = (structs.len() + undefined.len()) as TypeId;
                *by_name.entry(name).or_insert_with_key(|name| {
                    undefined.push(Err(not_a_struct(spec, name)));
                    next
                })
            };
            let kinds = decl.iter().map(|(_, ty)| kind_of(ty, spec, &mut target));
            let kinds: Vec<XdrResult<FieldKind>> = kinds.collect();
            let default = |kind: &XdrResult<FieldKind>| {
                Ok(Slot::new(match kind.as_ref().map_err(Clone::clone)? {
                    FieldKind::Ptr(_) => FieldVal::Ptr(None),
                    FieldKind::Scalar(ty) => FieldVal::Scalar(default_value(ty, spec)?),
                }))
            };
            all.push(Ok(Arc::new(Layout {
                id: all.len() as TypeId,
                name: name.to_string(),
                names: decl.iter().map(|(n, _)| n.clone()).collect(),
                template: kinds.iter().map(default).collect(),
                kinds,
            })));
        }
        all.extend(undefined);
        Layouts { by_name, all }
    }

    /// The layout with this id.
    pub fn get(&self, id: TypeId) -> XdrResult<&Arc<Layout>> {
        match self.all.get(id as usize) {
            Some(layout) => layout.as_ref().map_err(Clone::clone),
            None => Err(XdrError::UnknownType(format!("type #{id}"))),
        }
    }

    /// The layout of the struct called `name`; `spec` (the one these
    /// layouts were built from) words the error for a name it lacks.
    pub fn named(&self, name: &str, spec: &XdrSpec) -> XdrResult<&Arc<Layout>> {
        match self.by_name.get(name) {
            Some(&id) => self.get(id),
            None => Err(not_a_struct(spec, name)),
        }
    }
}

/// The marshaling of one interface, compiled: the spec's layouts plus,
/// for every (type, direction), which fields cross.
#[derive(Debug, PartialEq)]
pub struct MarshalPlan {
    layouts: Arc<Layouts>,
    /// The masked field indices of every (type, direction), back to back.
    indices: Vec<u32>,
    /// `indices` range of (type, direction) at `2 * id + direction`.
    spans: Vec<(u32, u32)>,
}

impl MarshalPlan {
    /// Compiles `masks` against `spec`'s layouts.
    pub fn compile(spec: &XdrSpec, masks: &MaskSet) -> MarshalPlan {
        let layouts = Arc::clone(spec.layouts());
        let defined = || layouts.all.iter().flatten();
        let fields: usize = defined().map(|layout| layout.names.len()).sum();
        let mut indices = Vec::with_capacity(2 * fields);
        let mut spans = Vec::with_capacity(2 * layouts.all.len());
        // Undefined types sit after every defined one and have no
        // program: reaching one is an error before a program is asked for.
        for layout in defined() {
            let mask = masks.mask(&layout.name);
            for dir in [Direction::In, Direction::Out] {
                let start = indices.len() as u32;
                indices.extend((0..layout.names.len() as u32).filter(|&i| match mask {
                    Some(mask) => mask.includes(&layout.names[i as usize], dir),
                    None => masks.transfers_unlisted(),
                }));
                spans.push((start, indices.len() as u32));
            }
        }
        MarshalPlan {
            layouts,
            indices,
            spans,
        }
    }

    /// The layouts this plan was compiled against.
    pub fn layouts(&self) -> &Arc<Layouts> {
        &self.layouts
    }

    /// The fields of type `id` that cross in `dir`, as indices into its
    /// layout, in declaration order.
    pub(crate) fn program(&self, id: TypeId, dir: Direction) -> &[u32] {
        let (start, end) = self.spans[2 * id as usize + dir as usize];
        &self.indices[start as usize..end as usize]
    }

    /// The plan's layout for `obj_layout`'s type, and whether the object
    /// was built from that very layout (its slots are then the plan's
    /// indices; otherwise they are found by field name).
    pub(crate) fn layout_of(
        &self,
        obj_layout: &Arc<Layout>,
        spec: &XdrSpec,
    ) -> XdrResult<(&Arc<Layout>, bool)> {
        if let Some(Ok(own)) = self.layouts.all.get(obj_layout.id as usize) {
            if Arc::ptr_eq(own, obj_layout) {
                return Ok((own, true));
            }
        }
        Ok((self.layouts.named(&obj_layout.name, spec)?, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::{Access, FieldMask};

    fn spec() -> XdrSpec {
        XdrSpec::parse(
            "typedef struct ring *ring_ptr;\n\
             typedef int counter;\n\
             struct ring { int head; };\n\
             struct adapter { counter irqs; ring_ptr rx; struct ring *tx; struct ghost *g; };",
        )
        .unwrap()
    }

    #[test]
    fn kinds_are_resolved_once_aliases_included() {
        let spec = spec();
        let ring = spec.layout("ring").unwrap().id();
        let adapter = spec.layout("adapter").unwrap();
        assert_eq!(adapter.field_names(), ["irqs", "rx", "tx", "g"]);
        assert_eq!(adapter.kind(0), Ok(&FieldKind::Scalar(XdrType::Int)));
        assert_eq!(
            adapter.kind(1),
            Ok(&FieldKind::Ptr(ring)),
            "alias to pointer"
        );
        assert_eq!(adapter.kind(2), Ok(&FieldKind::Ptr(ring)));
        assert_eq!(adapter.index_of("tx"), Some(2));
        assert_eq!(adapter.index_of("nope"), None);
    }

    #[test]
    fn an_undefined_pointer_target_is_an_error_only_when_reached() {
        let spec = spec();
        let adapter = spec.layout("adapter").unwrap();
        let Ok(&FieldKind::Ptr(ghost)) = adapter.kind(3) else {
            panic!("a pointer to an undefined struct is still a pointer");
        };
        let unknown = Err(XdrError::UnknownType("ghost".into()));
        assert_eq!(spec.layouts().get(ghost).map(|_| ()), unknown);
        assert_eq!(spec.layout("ghost").map(|_| ()), unknown);
        assert!(adapter.template().is_ok(), "a null `g` needs no ghost");
    }

    #[test]
    fn type_ids_resolve_inline_up_to_capacity() {
        let spec = spec();
        let (ring, adapter) = (
            spec.layout("ring").unwrap().id(),
            spec.layout("adapter").unwrap().id(),
        );
        let ids = TypeIds::resolve(&spec, ["adapter", "ring"]).unwrap();
        assert_eq!(ids.as_slice(), [adapter, ring]);
        assert!(TypeIds::resolve(&spec, [""; 0])
            .unwrap()
            .as_slice()
            .is_empty());
        assert_eq!(
            TypeIds::resolve(&spec, ["ring", "ghost"]),
            Err(XdrError::UnknownType("ghost".into()))
        );
        assert_eq!(
            TypeIds::resolve(&spec, ["ring"; TypeIds::CAPACITY + 1]),
            Err(XdrError::MaxExceeded {
                max: TypeIds::CAPACITY,
                found: TypeIds::CAPACITY + 1
            })
        );
    }

    #[test]
    fn programs_hold_the_masked_indices_in_declaration_order() {
        let spec = spec();
        let adapter = spec.layout("adapter").unwrap().id();
        let full = MarshalPlan::compile(&spec, &MaskSet::full());
        assert_eq!(full.program(adapter, Direction::In), [0, 1, 2, 3]);

        let mut masks = MaskSet::selective();
        let mut mask = FieldMask::new();
        mask.record("tx", Access::Read);
        mask.record("irqs", Access::Write);
        masks.insert("adapter", mask);
        let plan = MarshalPlan::compile(&spec, &masks);
        assert_eq!(plan.program(adapter, Direction::In), [2]);
        assert_eq!(plan.program(adapter, Direction::Out), [0]);
        let ring = spec.layout("ring").unwrap().id();
        assert!(
            plan.program(ring, Direction::In).is_empty(),
            "unlisted type"
        );
        assert!(Arc::ptr_eq(plan.layouts(), spec.layouts()));
    }
}

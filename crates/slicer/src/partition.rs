//! Partitioning: splitting a driver into nucleus and user-level halves.
//!
//! "As input, it takes an existing driver and type signatures for critical
//! root functions ... DriverSlicer outputs the set of functions reachable
//! from critical root functions, all of which must remain in the kernel.
//! The remaining functions can be moved to user level. In addition,
//! DriverSlicer outputs the set of entry-point functions, where control
//! transfers between kernel mode and user mode" (paper §2.4).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use decaf_xdr::mask::MaskSet;
use decaf_xdr::plan::{MarshalPlan, TypeIds};
use decaf_xdr::spec::XdrSpec;

use crate::access;
use crate::ast::{Attr, CType, FuncDef, Program};
use crate::callgraph::CallGraph;
use crate::error::SliceResult;
use crate::xdrgen;

/// Where a function ends up after slicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Kernel mode: the driver nucleus.
    Nucleus,
    /// User mode, still C: the driver library.
    Library,
    /// User mode, managed language: the decaf driver.
    Decaf,
}

/// Slicer configuration beyond in-source attributes.
#[derive(Debug, Clone, Default)]
pub struct SliceConfig {
    /// Additional critical-root function names (the paper supplies these
    /// as type signatures in a config file).
    pub extra_roots: Vec<String>,
}

/// An entry point: a function invoked from the other partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryPoint {
    /// Function name. Shared, like the struct types below: the stub an
    /// install registers for this entry point holds the image's copy.
    pub name: Arc<str>,
    /// Struct-pointer parameters: `(param name, struct type)`.
    pub object_params: Vec<(String, Arc<str>)>,
    /// The struct types of `object_params`, in order, resolved against
    /// the image's spec — once per image, so a stub registers with no
    /// type looked up by name. [`partition`] fills them in after it has
    /// built the spec from the entry points; [`EntryPoint::from_func`]
    /// leaves them empty.
    pub object_ids: TypeIds,
    /// Scalar parameters: `(param name, type)`.
    pub scalar_params: Vec<(String, CType)>,
    /// Return type.
    pub ret: CType,
}

impl EntryPoint {
    /// Builds the entry-point description of a function.
    pub fn from_func(f: &FuncDef) -> Self {
        let mut object_params = Vec::new();
        let mut scalar_params = Vec::new();
        for (ty, name) in &f.params {
            match ty {
                CType::StructPtr(s) => object_params.push((name.clone(), s.as_str().into())),
                other => scalar_params.push((name.clone(), other.clone())),
            }
        }
        EntryPoint {
            name: f.name.as_str().into(),
            object_params,
            object_ids: TypeIds::default(),
            scalar_params,
            ret: f.ret.clone(),
        }
    }
}

/// Line counts per partition (Table 2 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionLoc {
    /// Lines in nucleus functions.
    pub kernel: usize,
    /// Lines in driver-library functions.
    pub library: usize,
    /// Lines in decaf-driver functions.
    pub decaf: usize,
    /// Lines in the whole source file.
    pub total: usize,
}

/// The complete output of one slicing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicePlan {
    /// Functions that stay in the kernel, sorted.
    pub kernel_fns: Vec<String>,
    /// User-level functions kept in C (the driver library), sorted.
    pub library_fns: Vec<String>,
    /// User-level functions converted to the managed language, sorted.
    pub decaf_fns: Vec<String>,
    /// All user-level functions (library + decaf), sorted.
    pub user_fns: Vec<String>,
    /// Upcall entry points: user functions invoked from the kernel.
    pub user_entry_points: Vec<EntryPoint>,
    /// Downcall entry points: kernel driver functions invoked from user
    /// level.
    pub kernel_entry_points: Vec<EntryPoint>,
    /// Kernel API imports (undefined functions) called from user level;
    /// each needs a downcall stub in the nuclear runtime.
    pub kernel_imports_from_user: Vec<String>,
    /// Field-selective marshaling masks for boundary structures. Behind
    /// a shared pointer, like [`SlicePlan::spec`]: every channel built
    /// from this plan marshals against the one copy.
    pub masks: Arc<MaskSet>,
    /// Generated XDR interface specification.
    pub spec: Arc<XdrSpec>,
    /// The generated marshaling code: `masks` compiled against `spec`.
    /// Every channel built from this plan runs it and compiles nothing.
    pub marshal: Arc<MarshalPlan>,
    /// Number of annotations in the source (Table 2 column).
    pub annotations: usize,
    /// Placement of every function.
    pub placement: HashMap<String, Placement>,
    /// Line counts per partition.
    pub loc: PartitionLoc,
    /// Struct types that cross the boundary, sorted.
    pub boundary_structs: Vec<String>,
}

impl SlicePlan {
    /// Fraction of functions that moved to user level.
    pub fn user_fraction(&self) -> f64 {
        let total = self.kernel_fns.len() + self.user_fns.len();
        if total == 0 {
            return 0.0;
        }
        self.user_fns.len() as f64 / total as f64
    }

    /// The placement of one function, if known.
    pub fn placement_of(&self, name: &str) -> Option<Placement> {
        self.placement.get(name).copied()
    }

    /// The upcall entry point called `name`, if the image lists one
    /// ([`SlicePlan::user_entry_points`] is sorted by name).
    pub fn user_entry_point(&self, name: &str) -> Option<&EntryPoint> {
        let at = self
            .user_entry_points
            .binary_search_by(|ep| (*ep.name).cmp(name));
        at.ok().map(|i| &self.user_entry_points[i])
    }
}

/// Partitions `program` and derives all boundary artifacts.
pub fn partition(program: &Program, config: &SliceConfig) -> SliceResult<SlicePlan> {
    let graph = CallGraph::build(program);

    // 1. Critical roots: attribute-marked functions plus configured extras.
    let mut roots: Vec<String> = program
        .functions
        .iter()
        .filter(|f| f.attrs.iter().any(|a| a.is_critical_root()) || f.has_attr(Attr::KernelOnly))
        .map(|f| f.name.clone())
        .collect();
    roots.extend(config.extra_roots.iter().cloned());

    // 2. Everything reachable from a critical root stays in the kernel.
    let kernel_set = graph.reachable_from(&roots, program);

    // 3. The rest moves to user level; `@library` functions stay C.
    let mut kernel_fns = Vec::new();
    let mut library_fns = Vec::new();
    let mut decaf_fns = Vec::new();
    let mut placement = HashMap::new();
    let mut loc = PartitionLoc {
        total: program.total_loc,
        ..PartitionLoc::default()
    };
    for f in &program.functions {
        if kernel_set.contains(&f.name) {
            kernel_fns.push(f.name.clone());
            placement.insert(f.name.clone(), Placement::Nucleus);
            loc.kernel += f.loc;
        } else if f.has_attr(Attr::Library) {
            library_fns.push(f.name.clone());
            placement.insert(f.name.clone(), Placement::Library);
            loc.library += f.loc;
        } else {
            decaf_fns.push(f.name.clone());
            placement.insert(f.name.clone(), Placement::Decaf);
            loc.decaf += f.loc;
        }
    }
    kernel_fns.sort();
    library_fns.sort();
    decaf_fns.sort();
    let mut user_fns: Vec<String> = library_fns
        .iter()
        .chain(decaf_fns.iter())
        .cloned()
        .collect();
    user_fns.sort();
    let user_set: HashSet<&str> = user_fns.iter().map(String::as_str).collect();

    // 4. Upcall entry points: user functions that the kernel invokes —
    //    either exported driver-interface functions or callees of nucleus
    //    code.
    let mut user_entry_names: HashSet<String> = program
        .functions
        .iter()
        .filter(|f| user_set.contains(f.name.as_str()) && f.has_attr(Attr::Export))
        .map(|f| f.name.clone())
        .collect();
    for kfn in &kernel_fns {
        if let Some(callees) = graph.calls.get(kfn) {
            for c in callees {
                if user_set.contains(c.as_str()) {
                    user_entry_names.insert(c.clone());
                }
            }
        }
    }

    // 5. Downcall entry points: kernel driver functions called from user
    //    code, plus kernel API imports.
    let mut kernel_entry_names: HashSet<String> = HashSet::new();
    let mut kernel_imports: HashSet<String> = HashSet::new();
    for ufn in &user_fns {
        if let Some(callees) = graph.calls.get(ufn) {
            for c in callees {
                if kernel_set.contains(c) {
                    kernel_entry_names.insert(c.clone());
                }
            }
        }
        for import in graph.undefined_callees(ufn, program) {
            kernel_imports.insert(import);
        }
    }

    let mut user_entry_points: Vec<EntryPoint> = user_entry_names
        .iter()
        .filter_map(|n| program.find_function(n).map(EntryPoint::from_func))
        .collect();
    user_entry_points.sort_by(|a, b| a.name.cmp(&b.name));
    let mut kernel_entry_points: Vec<EntryPoint> = kernel_entry_names
        .iter()
        .filter_map(|n| program.find_function(n).map(EntryPoint::from_func))
        .collect();
    kernel_entry_points.sort_by(|a, b| a.name.cmp(&b.name));
    let mut kernel_imports_from_user: Vec<String> = kernel_imports.into_iter().collect();
    kernel_imports_from_user.sort();

    // 6. Boundary structures: everything passed at an entry point.
    let mut boundary: HashSet<String> = HashSet::new();
    for ep in user_entry_points.iter().chain(kernel_entry_points.iter()) {
        for (_, s) in &ep.object_params {
            boundary.insert(s.to_string());
        }
    }
    let mut boundary_structs: Vec<String> = boundary.into_iter().collect();
    boundary_structs.sort();

    // 7. Masks from access analysis + annotations; XDR spec for the
    //    boundary closure.
    let masks = access::build_masks(program, &user_fns);
    let spec = xdrgen::generate_spec(program, &boundary_structs)?;
    for ep in user_entry_points.iter_mut().chain(&mut kernel_entry_points) {
        ep.object_ids = TypeIds::resolve(&spec, ep.object_params.iter().map(|(_, ty)| ty))?;
    }

    Ok(SlicePlan {
        kernel_fns,
        library_fns,
        decaf_fns,
        user_fns,
        user_entry_points,
        kernel_entry_points,
        kernel_imports_from_user,
        marshal: Arc::new(MarshalPlan::compile(&spec, &masks)),
        masks: Arc::new(masks),
        spec: Arc::new(spec),
        annotations: program.annotation_count(),
        placement,
        loc,
        boundary_structs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const SRC: &str = r"
struct adapter { int msg_enable; int irqs; };

int drv_intr(struct adapter *a) @irq {
    a->irqs += 1;
    drv_clean(a);
    return 0;
}
int drv_clean(struct adapter *a) @datapath { return 0; }
int drv_refill(struct adapter *a) { return 0; }
int drv_xmit(struct adapter *a) @datapath { drv_refill(a); return 0; }

int drv_open(struct adapter *a) @export {
    drv_reset_hw(a);
    pci_enable_device(a);
    return 0;
}
int drv_reset_hw(struct adapter *a) {
    a->msg_enable = 1;
    return 0;
}
int drv_helper_c(struct adapter *a) @library { return 0; }
int drv_ethtool_race(struct adapter *a) @kernel_only { return 0; }
";

    fn plan() -> SlicePlan {
        let p = parse(SRC).unwrap();
        partition(&p, &SliceConfig::default()).unwrap()
    }

    #[test]
    fn critical_roots_and_reachability_stay_kernel() {
        let plan = plan();
        for f in [
            "drv_intr",
            "drv_clean",
            "drv_xmit",
            "drv_refill",
            "drv_ethtool_race",
        ] {
            assert_eq!(plan.placement_of(f), Some(Placement::Nucleus), "{f}");
        }
    }

    #[test]
    fn remaining_functions_move_to_user() {
        let plan = plan();
        assert_eq!(plan.placement_of("drv_open"), Some(Placement::Decaf));
        assert_eq!(plan.placement_of("drv_reset_hw"), Some(Placement::Decaf));
        assert_eq!(plan.placement_of("drv_helper_c"), Some(Placement::Library));
        assert_eq!(plan.user_fns.len(), 3);
    }

    #[test]
    fn entry_points_both_directions() {
        let plan = plan();
        let ups: Vec<_> = plan.user_entry_points.iter().map(|e| &*e.name).collect();
        assert_eq!(ups, vec!["drv_open"]);
        assert_eq!(
            plan.user_entry_points[0].object_params,
            vec![("a".to_string(), "adapter".into())]
        );
        let adapter = plan.spec.layout("adapter").unwrap().id();
        assert_eq!(plan.user_entry_points[0].object_ids.as_slice(), [adapter]);
        // drv_open calls no kernel driver function, but it calls the
        // kernel import pci_enable_device.
        assert!(plan.kernel_entry_points.is_empty());
        assert_eq!(plan.kernel_imports_from_user, vec!["pci_enable_device"]);
        // By name: every entry point is found, a kernel function is not.
        for ep in &plan.user_entry_points {
            assert_eq!(plan.user_entry_point(&ep.name), Some(ep));
        }
        assert_eq!(plan.user_entry_point("drv_intr"), None);
    }

    #[test]
    fn boundary_structs_and_spec_generated() {
        let plan = plan();
        assert_eq!(plan.boundary_structs, vec!["adapter"]);
        assert!(plan.spec.struct_fields("adapter").is_ok());
    }

    #[test]
    fn masks_reflect_user_accesses_only() {
        use decaf_xdr::mask::Direction;
        let plan = plan();
        assert!(plan.masks.includes("adapter", "msg_enable", Direction::Out));
        assert!(!plan.masks.includes("adapter", "irqs", Direction::In));
    }

    #[test]
    fn user_fraction_counts() {
        let plan = plan();
        // 5 kernel, 3 user.
        assert!((plan.user_fraction() - 3.0 / 8.0).abs() < 1e-9);
        assert!(plan.loc.kernel > 0 && plan.loc.decaf > 0 && plan.loc.library > 0);
    }

    #[test]
    fn extra_roots_pull_functions_into_kernel() {
        let p = parse(SRC).unwrap();
        let plan = partition(
            &p,
            &SliceConfig {
                extra_roots: vec!["drv_reset_hw".to_string()],
            },
        )
        .unwrap();
        assert_eq!(plan.placement_of("drv_reset_hw"), Some(Placement::Nucleus));
    }
}

//! Driver evolution support (paper §3.2.4 and §5.2, Table 4).
//!
//! The paper applies all 320 patches between kernels 2.6.18.1 and 2.6.27
//! to the split E1000 driver and classifies where the changes land:
//! overwhelmingly in the decaf driver (4,690 lines) versus the nucleus
//! (381 lines), with only 23 changes touching the user/kernel interface.
//! New structure fields referenced by the decaf driver need a
//! `DECAF_XVAR` annotation so re-running DriverSlicer regenerates
//! marshaling code for them.

use crate::access::RawAccess;
use crate::ast::CType;
use crate::error::{SliceError, SliceResult};
use crate::partition::{Placement, SlicePlan};

/// One upstream patch, reduced to what the classifier needs.
#[derive(Debug, Clone)]
pub struct Patch {
    /// Patch identifier (sequence number).
    pub id: u32,
    /// Function whose body the patch modifies.
    pub target_fn: String,
    /// Lines added + removed in that function.
    pub lines_changed: usize,
    /// A structure field the patch adds, if any — an interface change
    /// when the field must cross the boundary.
    pub new_field: Option<NewField>,
}

/// A structure field added by a patch.
#[derive(Debug, Clone)]
pub struct NewField {
    /// Structure the field is added to.
    pub struct_name: String,
    /// Field name.
    pub field_name: String,
    /// Field type (mini-C).
    pub ty: CType,
    /// Whether the decaf driver accesses the field (requires annotation
    /// and marshaling regeneration).
    pub decaf_accessed: bool,
    /// Access direction if decaf-accessed.
    pub access: RawAccess,
}

/// Where patched lines landed (Table 4 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvolveReport {
    /// Lines changed in nucleus functions.
    pub nucleus_lines: usize,
    /// Lines changed in decaf-driver functions.
    pub decaf_lines: usize,
    /// Lines changed in driver-library functions.
    pub library_lines: usize,
    /// Changes to the user/kernel interface (new marshaled fields).
    pub interface_changes: usize,
    /// Patches whose target function is unknown (e.g. brand-new
    /// functions; counted as decaf per the paper's observation that new
    /// development lands at user level).
    pub new_function_patches: usize,
    /// Total patches processed.
    pub patches_applied: usize,
}

/// Classifies a patch stream against a slicing plan.
pub fn classify(plan: &SlicePlan, patches: &[Patch]) -> EvolveReport {
    let mut report = EvolveReport::default();
    for p in patches {
        report.patches_applied += 1;
        match plan.placement_of(&p.target_fn) {
            Some(Placement::Nucleus) => report.nucleus_lines += p.lines_changed,
            Some(Placement::Decaf) => report.decaf_lines += p.lines_changed,
            Some(Placement::Library) => report.library_lines += p.lines_changed,
            None => {
                // A new function: new development happens in Java/user
                // level (paper §5.2).
                report.new_function_patches += 1;
                report.decaf_lines += p.lines_changed;
            }
        }
        if let Some(nf) = &p.new_field {
            if nf.decaf_accessed {
                report.interface_changes += 1;
            }
        }
    }
    report
}

/// Applies a new-field patch to mini-C source: inserts the field into the
/// struct and, when the decaf driver accesses it, adds the `DECAF_XVAR`
/// annotation to the first upcall entry point (paper §3.2.4: "These
/// annotations must be placed in entry-point functions through which new
/// fields are referenced").
pub fn apply_new_field(source: &str, plan: &SlicePlan, field: &NewField) -> SliceResult<String> {
    let marker = format!("struct {} {{", field.struct_name);
    let pos = source
        .find(&marker)
        .ok_or_else(|| SliceError::Unknown(format!("struct {}", field.struct_name)))?;
    let insert_at = pos + marker.len();
    let decl = format!("\n    {} {};", field.ty.c_syntax(), field.field_name);
    let mut out = String::with_capacity(source.len() + 64);
    out.push_str(&source[..insert_at]);
    out.push_str(&decl);
    out.push_str(&source[insert_at..]);

    if field.decaf_accessed {
        let entry = plan
            .user_entry_points
            .first()
            .ok_or_else(|| SliceError::Unknown("no upcall entry point".into()))?;
        // Find the entry function's body opening brace and inject the
        // annotation as its first statement.
        let fn_pos = out
            .find(&format!(" {}(", entry.name))
            .or_else(|| out.find(&format!("{}(", entry.name)))
            .ok_or_else(|| SliceError::Unknown(entry.name.to_string()))?;
        let brace = out[fn_pos..]
            .find('{')
            .map(|o| fn_pos + o + 1)
            .ok_or_else(|| SliceError::Unknown(format!("{} body", entry.name)))?;
        let var = entry
            .object_params
            .iter()
            .find(|(_, s)| **s == *field.struct_name)
            .map(|(p, _)| p.clone())
            .ok_or_else(|| {
                SliceError::Unknown(format!(
                    "entry `{}` has no parameter of struct {}",
                    entry.name, field.struct_name
                ))
            })?;
        let ann = match field.access {
            RawAccess::R => "DECAF_RVAR",
            RawAccess::W => "DECAF_WVAR",
            RawAccess::RW => "DECAF_RWVAR",
        };
        let inject = format!("\n    {ann}({var}->{});", field.field_name);
        let mut final_out = String::with_capacity(out.len() + inject.len());
        final_out.push_str(&out[..brace]);
        final_out.push_str(&inject);
        final_out.push_str(&out[brace..]);
        return Ok(final_out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::partition::{partition, SliceConfig};
    use decaf_xdr::mask::Direction;

    const SRC: &str = r"
struct adapter { int msg_enable; };
int isr(struct adapter *a) @irq { return 0; }
int open_dev(struct adapter *a) @export { a->msg_enable = 1; return 0; }
";

    #[test]
    fn classification_by_placement() {
        let p = parse(SRC).unwrap();
        let plan = partition(&p, &SliceConfig::default()).unwrap();
        let patches = vec![
            Patch {
                id: 1,
                target_fn: "isr".into(),
                lines_changed: 10,
                new_field: None,
            },
            Patch {
                id: 2,
                target_fn: "open_dev".into(),
                lines_changed: 50,
                new_field: None,
            },
            Patch {
                id: 3,
                target_fn: "brand_new_feature".into(),
                lines_changed: 30,
                new_field: None,
            },
        ];
        let report = classify(&plan, &patches);
        assert_eq!(report.nucleus_lines, 10);
        assert_eq!(report.decaf_lines, 80);
        assert_eq!(report.new_function_patches, 1);
        assert_eq!(report.patches_applied, 3);
        assert_eq!(report.interface_changes, 0);
    }

    #[test]
    fn new_field_patch_reslices_with_annotation() {
        let p = parse(SRC).unwrap();
        let plan = partition(&p, &SliceConfig::default()).unwrap();
        let nf = NewField {
            struct_name: "adapter".into(),
            field_name: "wol_enabled".into(),
            ty: CType::Int,
            decaf_accessed: true,
            access: RawAccess::RW,
        };
        let patched = apply_new_field(SRC, &plan, &nf).unwrap();
        assert!(patched.contains("int wol_enabled;"));
        assert!(patched.contains("DECAF_RWVAR(a->wol_enabled);"));

        // Re-running DriverSlicer regenerates marshaling for the field.
        let p2 = parse(&patched).unwrap();
        let plan2 = partition(&p2, &SliceConfig::default()).unwrap();
        assert!(plan2
            .masks
            .includes("adapter", "wol_enabled", Direction::In));
        assert!(plan2
            .masks
            .includes("adapter", "wol_enabled", Direction::Out));
        let fields = plan2.spec.struct_fields("adapter").unwrap();
        assert!(fields.iter().any(|(n, _)| n == "wol_enabled"));
        // One more annotation than before.
        assert_eq!(plan2.annotations, plan.annotations + 1);
    }

    #[test]
    fn interface_changes_counted() {
        let p = parse(SRC).unwrap();
        let plan = partition(&p, &SliceConfig::default()).unwrap();
        let patches = vec![Patch {
            id: 1,
            target_fn: "open_dev".into(),
            lines_changed: 5,
            new_field: Some(NewField {
                struct_name: "adapter".into(),
                field_name: "x".into(),
                ty: CType::Int,
                decaf_accessed: true,
                access: RawAccess::R,
            }),
        }];
        assert_eq!(classify(&plan, &patches).interface_changes, 1);
    }

    #[test]
    fn kernel_private_field_is_not_interface_change() {
        let p = parse(SRC).unwrap();
        let plan = partition(&p, &SliceConfig::default()).unwrap();
        let patches = vec![Patch {
            id: 1,
            target_fn: "isr".into(),
            lines_changed: 2,
            new_field: Some(NewField {
                struct_name: "adapter".into(),
                field_name: "irq_budget".into(),
                ty: CType::Int,
                decaf_accessed: false,
                access: RawAccess::R,
            }),
        }];
        assert_eq!(classify(&plan, &patches).interface_changes, 0);
    }
}

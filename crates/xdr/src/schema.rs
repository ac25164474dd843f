//! XDR type descriptions and value validation.

use crate::error::{XdrError, XdrResult};
use crate::spec::XdrSpec;
use crate::value::XdrValue;

/// A description of an XDR type (RFC 4506 §4).
///
/// Named struct and enum types are resolved through an
/// [`XdrSpec`]; everything else is structural.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrType {
    /// `void` — zero bytes.
    Void,
    /// 32-bit signed integer.
    Int,
    /// 32-bit unsigned integer.
    UInt,
    /// 64-bit signed integer.
    Hyper,
    /// 64-bit unsigned integer.
    UHyper,
    /// Boolean.
    Bool,
    /// Single-precision float.
    Float,
    /// Double-precision float.
    Double,
    /// Named enum type; members live in the spec.
    Enum(String),
    /// Fixed-length opaque data of exactly `n` bytes.
    OpaqueFixed(usize),
    /// Variable-length opaque data with optional maximum.
    OpaqueVar(Option<usize>),
    /// String with optional maximum byte length.
    Str(Option<usize>),
    /// Fixed-length array of `n` elements.
    ArrayFixed(Box<XdrType>, usize),
    /// Variable-length array with optional maximum element count.
    ArrayVar(Box<XdrType>, Option<usize>),
    /// Named struct type; fields live in the spec.
    Struct(String),
    /// Optional datum (`*` declarator).
    Optional(Box<XdrType>),
    /// A named type to be resolved through the spec (typedef alias).
    Named(String),
}

impl XdrType {
    /// Renders the type in XDR IDL syntax (field name supplied by caller).
    pub fn idl(&self) -> String {
        match self {
            XdrType::Void => "void".into(),
            XdrType::Int => "int".into(),
            XdrType::UInt => "unsigned int".into(),
            XdrType::Hyper => "hyper".into(),
            XdrType::UHyper => "unsigned hyper".into(),
            XdrType::Bool => "bool".into(),
            XdrType::Float => "float".into(),
            XdrType::Double => "double".into(),
            XdrType::Enum(n) => format!("enum {n}"),
            XdrType::OpaqueFixed(n) => format!("opaque[{n}]"),
            XdrType::OpaqueVar(Some(m)) => format!("opaque<{m}>"),
            XdrType::OpaqueVar(None) => "opaque<>".into(),
            XdrType::Str(Some(m)) => format!("string<{m}>"),
            XdrType::Str(None) => "string<>".into(),
            XdrType::ArrayFixed(t, n) => format!("{}[{n}]", t.idl()),
            XdrType::ArrayVar(t, Some(m)) => format!("{}<{m}>", t.idl()),
            XdrType::ArrayVar(t, None) => format!("{}<>", t.idl()),
            XdrType::Struct(n) => format!("struct {n}"),
            XdrType::Optional(t) => format!("{} *", t.idl()),
            XdrType::Named(n) => n.clone(),
        }
    }

    /// Validates `value` against this type, resolving names via `spec`.
    ///
    /// Returns the first mismatch found, or `Ok(())` if the value conforms.
    pub fn validate(&self, value: &XdrValue, spec: &XdrSpec) -> XdrResult<()> {
        let mismatch = |found: &XdrValue| {
            Err(XdrError::TypeMismatch {
                expected: self.idl(),
                found: found.kind().to_string(),
            })
        };
        match (self, value) {
            (XdrType::Void, XdrValue::Void) => Ok(()),
            (XdrType::Int, XdrValue::Int(_)) => Ok(()),
            (XdrType::UInt, XdrValue::UInt(_)) => Ok(()),
            (XdrType::Hyper, XdrValue::Hyper(_)) => Ok(()),
            (XdrType::UHyper, XdrValue::UHyper(_)) => Ok(()),
            (XdrType::Bool, XdrValue::Bool(_)) => Ok(()),
            (XdrType::Float, XdrValue::Float(_)) => Ok(()),
            (XdrType::Double, XdrValue::Double(_)) => Ok(()),
            (XdrType::Enum(name), XdrValue::Enum(v)) => {
                if spec.enum_members(name)?.iter().any(|(_, m)| m == v) {
                    Ok(())
                } else {
                    Err(XdrError::InvalidEnumValue {
                        type_name: name.clone(),
                        value: *v,
                    })
                }
            }
            (XdrType::OpaqueFixed(n), XdrValue::Opaque(b)) => {
                if b.len() == *n {
                    Ok(())
                } else {
                    Err(XdrError::LengthMismatch {
                        expected: *n,
                        found: b.len(),
                    })
                }
            }
            (XdrType::OpaqueVar(max), XdrValue::Opaque(b)) => check_max(*max, b.len()),
            (XdrType::Str(max), XdrValue::Str(s)) => check_max(*max, s.len()),
            (XdrType::ArrayFixed(elem, n), XdrValue::Array(items)) => {
                if items.len() != *n {
                    return Err(XdrError::LengthMismatch {
                        expected: *n,
                        found: items.len(),
                    });
                }
                items.iter().try_for_each(|i| elem.validate(i, spec))
            }
            (XdrType::ArrayVar(elem, max), XdrValue::Array(items)) => {
                check_max(*max, items.len())?;
                items.iter().try_for_each(|i| elem.validate(i, spec))
            }
            (XdrType::Struct(name), XdrValue::Struct { type_name, fields }) => {
                if name != type_name {
                    return Err(XdrError::TypeMismatch {
                        expected: self.idl(),
                        found: format!("struct {type_name}"),
                    });
                }
                let decl = spec.struct_fields(name)?;
                if decl.len() != fields.len() {
                    return Err(XdrError::LengthMismatch {
                        expected: decl.len(),
                        found: fields.len(),
                    });
                }
                for ((dn, dt), (fname, fval)) in decl.iter().zip(fields.iter()) {
                    if dn != fname {
                        return Err(XdrError::UnknownField {
                            type_name: name.clone(),
                            field: fname.clone(),
                        });
                    }
                    dt.validate(fval, spec)?;
                }
                Ok(())
            }
            (XdrType::Optional(_), XdrValue::Optional(None)) => Ok(()),
            (XdrType::Optional(inner), XdrValue::Optional(Some(v))) => inner.validate(v, spec),
            (XdrType::Named(name), v) => spec.resolved(name)?.validate(v, spec),
            (_, found) => mismatch(found),
        }
    }

    /// Returns the size in bytes of a value of this type on the wire, if the
    /// type has a fixed size independent of the value.
    pub fn fixed_wire_size(&self, spec: &XdrSpec) -> Option<usize> {
        match self {
            XdrType::Void => Some(0),
            XdrType::Int | XdrType::UInt | XdrType::Bool | XdrType::Float | XdrType::Enum(_) => {
                Some(4)
            }
            XdrType::Hyper | XdrType::UHyper | XdrType::Double => Some(8),
            XdrType::OpaqueFixed(n) => Some(n.div_ceil(4) * 4),
            XdrType::ArrayFixed(elem, n) => elem.fixed_wire_size(spec).map(|s| s * n),
            XdrType::Struct(name) => {
                let fields = spec.struct_fields(name).ok()?;
                let mut total = 0;
                for (_, t) in fields {
                    total += t.fixed_wire_size(spec)?;
                }
                Some(total)
            }
            XdrType::Named(name) => spec.resolved(name).ok()?.fixed_wire_size(spec),
            _ => None,
        }
    }
}

fn check_max(max: Option<usize>, found: usize) -> XdrResult<()> {
    match max {
        Some(m) if found > m => Err(XdrError::MaxExceeded { max: m, found }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> XdrSpec {
        XdrSpec::parse(
            "enum color { RED = 0, BLUE = 1 };\n\
             struct point { int x; int y; };\n\
             struct node { int v; struct node *next; };",
        )
        .unwrap()
    }

    #[test]
    fn scalar_validation() {
        let s = spec();
        assert!(XdrType::Int.validate(&XdrValue::Int(1), &s).is_ok());
        assert!(XdrType::Int.validate(&XdrValue::UInt(1), &s).is_err());
        assert!(XdrType::Bool.validate(&XdrValue::Bool(false), &s).is_ok());
    }

    #[test]
    fn enum_membership_checked() {
        let s = spec();
        let t = XdrType::Enum("color".into());
        assert!(t.validate(&XdrValue::Enum(1), &s).is_ok());
        assert_eq!(
            t.validate(&XdrValue::Enum(9), &s),
            Err(XdrError::InvalidEnumValue {
                type_name: "color".into(),
                value: 9
            })
        );
    }

    #[test]
    fn struct_field_order_and_names_enforced() {
        let s = spec();
        let t = XdrType::Struct("point".into());
        let ok = XdrValue::structure(
            "point",
            vec![("x", XdrValue::Int(1)), ("y", XdrValue::Int(2))],
        );
        assert!(t.validate(&ok, &s).is_ok());
        let bad = XdrValue::structure(
            "point",
            vec![("y", XdrValue::Int(2)), ("x", XdrValue::Int(1))],
        );
        assert!(t.validate(&bad, &s).is_err());
    }

    #[test]
    fn optional_and_recursive_types() {
        let s = spec();
        let t = XdrType::Struct("node".into());
        let v = XdrValue::structure(
            "node",
            vec![
                ("v", XdrValue::Int(1)),
                (
                    "next",
                    XdrValue::Optional(Some(Box::new(XdrValue::structure(
                        "node",
                        vec![("v", XdrValue::Int(2)), ("next", XdrValue::Optional(None))],
                    )))),
                ),
            ],
        );
        assert!(t.validate(&v, &s).is_ok());
    }

    #[test]
    fn fixed_wire_sizes() {
        let s = spec();
        assert_eq!(XdrType::Struct("point".into()).fixed_wire_size(&s), Some(8));
        assert_eq!(XdrType::OpaqueFixed(5).fixed_wire_size(&s), Some(8));
        assert_eq!(XdrType::Str(None).fixed_wire_size(&s), None);
        // Recursive struct has no fixed size (contains an optional).
        assert_eq!(XdrType::Struct("node".into()).fixed_wire_size(&s), None);
    }

    #[test]
    fn length_limits() {
        let s = spec();
        assert!(XdrType::OpaqueVar(Some(2))
            .validate(&XdrValue::Opaque(vec![0; 3]), &s)
            .is_err());
        assert!(XdrType::Str(Some(3))
            .validate(&XdrValue::Str("abcd".into()), &s)
            .is_err());
        assert!(XdrType::OpaqueFixed(4)
            .validate(&XdrValue::Opaque(vec![0; 4]), &s)
            .is_ok());
    }
}

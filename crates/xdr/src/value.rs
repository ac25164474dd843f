//! Dynamic XDR value model.

use std::fmt;

/// A dynamically typed XDR value.
///
/// Values are produced by decoding a byte stream against an
/// [`XdrType`](crate::schema::XdrType) and consumed by encoding. Driver
/// structures cross the kernel/user and C/Java (here: nucleus/decaf)
/// boundaries as trees of `XdrValue`s; graph-shaped data (cycles, sharing)
/// uses the [`graph`](crate::graph) module instead.
#[derive(Debug, Clone, PartialEq)]
pub enum XdrValue {
    /// The XDR `void` value (zero bytes on the wire).
    Void,
    /// 32-bit signed integer.
    Int(i32),
    /// 32-bit unsigned integer.
    UInt(u32),
    /// 64-bit signed integer (`hyper`).
    Hyper(i64),
    /// 64-bit unsigned integer (`unsigned hyper`).
    UHyper(u64),
    /// Boolean, encoded as a 32-bit 0 or 1.
    Bool(bool),
    /// IEEE 754 single-precision float.
    Float(f32),
    /// IEEE 754 double-precision float.
    Double(f64),
    /// Enum member, encoded as a 32-bit signed integer.
    Enum(i32),
    /// Opaque byte data (fixed- or variable-length per the schema).
    Opaque(Vec<u8>),
    /// ASCII/UTF-8 string.
    Str(String),
    /// Array of homogeneous values (fixed- or variable-length per schema).
    Array(Vec<XdrValue>),
    /// Structure: ordered `(field name, value)` pairs.
    Struct {
        /// Name of the struct type (matches the spec).
        type_name: String,
        /// Field values in declaration order.
        fields: Vec<(String, XdrValue)>,
    },
    /// Optional datum (`*` in XDR IDL); `None` encodes as discriminant 0.
    Optional(Option<Box<XdrValue>>),
}

impl XdrValue {
    /// Builds a struct value from `(name, value)` pairs.
    ///
    /// # Examples
    ///
    /// ```
    /// use decaf_xdr::value::XdrValue;
    /// let v = XdrValue::structure("point", vec![("x", XdrValue::Int(1))]);
    /// assert_eq!(v.field("x"), Some(&XdrValue::Int(1)));
    /// ```
    pub fn structure(
        type_name: impl Into<String>,
        fields: Vec<(impl Into<String>, XdrValue)>,
    ) -> Self {
        XdrValue::Struct {
            type_name: type_name.into(),
            fields: fields.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// Returns the named field of a struct value, if present.
    pub fn field(&self, name: &str) -> Option<&XdrValue> {
        match self {
            XdrValue::Struct { fields, .. } => {
                fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Returns a mutable reference to the named field of a struct value.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut XdrValue> {
        match self {
            XdrValue::Struct { fields, .. } => {
                fields.iter_mut().find(|(n, _)| n == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Replaces the named field, returning the previous value.
    ///
    /// Returns `None` (and does nothing) if `self` is not a struct or the
    /// field does not exist.
    pub fn set_field(&mut self, name: &str, value: XdrValue) -> Option<XdrValue> {
        self.field_mut(name)
            .map(|slot| std::mem::replace(slot, value))
    }

    /// A short, human-readable description of the value's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            XdrValue::Void => "void",
            XdrValue::Int(_) => "int",
            XdrValue::UInt(_) => "unsigned int",
            XdrValue::Hyper(_) => "hyper",
            XdrValue::UHyper(_) => "unsigned hyper",
            XdrValue::Bool(_) => "bool",
            XdrValue::Float(_) => "float",
            XdrValue::Double(_) => "double",
            XdrValue::Enum(_) => "enum",
            XdrValue::Opaque(_) => "opaque",
            XdrValue::Str(_) => "string",
            XdrValue::Array(_) => "array",
            XdrValue::Struct { .. } => "struct",
            XdrValue::Optional(_) => "optional",
        }
    }

    /// Extracts an `i32`, accepting `Int` and `Enum` values.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            XdrValue::Int(v) | XdrValue::Enum(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a `u32` from a `UInt` value.
    pub fn as_uint(&self) -> Option<u32> {
        match self {
            XdrValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a `bool` from a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            XdrValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts the string slice from a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            XdrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts the bytes of an `Opaque` value.
    pub fn as_opaque(&self) -> Option<&[u8]> {
        match self {
            XdrValue::Opaque(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for XdrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrValue::Void => write!(f, "void"),
            XdrValue::Int(v) => write!(f, "{v}"),
            XdrValue::UInt(v) => write!(f, "{v}u"),
            XdrValue::Hyper(v) => write!(f, "{v}h"),
            XdrValue::UHyper(v) => write!(f, "{v}uh"),
            XdrValue::Bool(v) => write!(f, "{v}"),
            XdrValue::Float(v) => write!(f, "{v}f"),
            XdrValue::Double(v) => write!(f, "{v}"),
            XdrValue::Enum(v) => write!(f, "enum({v})"),
            XdrValue::Opaque(b) => write!(f, "opaque[{}]", b.len()),
            XdrValue::Str(s) => write!(f, "{s:?}"),
            XdrValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            XdrValue::Struct { type_name, fields } => {
                write!(f, "{type_name} {{ ")?;
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {value}")?;
                }
                write!(f, " }}")
            }
            XdrValue::Optional(None) => write!(f, "null"),
            XdrValue::Optional(Some(v)) => write!(f, "&{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_builder_and_field_access() {
        let mut v = XdrValue::structure(
            "adapter",
            vec![
                ("msg_enable", XdrValue::Int(3)),
                ("mac", XdrValue::Opaque(vec![1, 2])),
            ],
        );
        assert_eq!(v.field("msg_enable"), Some(&XdrValue::Int(3)));
        assert_eq!(v.field("missing"), None);
        let old = v.set_field("msg_enable", XdrValue::Int(7)).unwrap();
        assert_eq!(old, XdrValue::Int(3));
        assert_eq!(v.field("msg_enable"), Some(&XdrValue::Int(7)));
    }

    #[test]
    fn accessors_reject_wrong_kinds() {
        assert_eq!(XdrValue::Int(1).as_uint(), None);
        assert_eq!(XdrValue::UInt(1).as_int(), None);
        assert_eq!(XdrValue::Bool(true).as_bool(), Some(true));
        assert_eq!(XdrValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(XdrValue::Enum(4).as_int(), Some(4));
    }

    #[test]
    fn display_is_readable() {
        let v = XdrValue::structure("p", vec![("x", XdrValue::Int(1))]);
        assert_eq!(v.to_string(), "p { x: 1 }");
        assert_eq!(XdrValue::Optional(None).to_string(), "null");
        assert_eq!(
            XdrValue::Array(vec![XdrValue::Int(1), XdrValue::Int(2)]).to_string(),
            "[1, 2]"
        );
    }

    #[test]
    fn kind_names() {
        assert_eq!(XdrValue::Void.kind(), "void");
        assert_eq!(XdrValue::Hyper(0).kind(), "hyper");
        assert_eq!(XdrValue::Optional(None).kind(), "optional");
    }
}

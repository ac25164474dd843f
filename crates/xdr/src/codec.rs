//! RFC 4506 wire format: schema-directed encoding and decoding.
//!
//! All quantities are big-endian; every item occupies a multiple of four
//! bytes, with zero padding (RFC 4506 §3). Encoding and decoding are
//! directed by an [`XdrType`] resolved against an [`XdrSpec`], exactly as
//! the stub code generated by `rpcgen`/`jrpcgen` is in the paper.

use crate::error::{XdrError, XdrResult};
use crate::schema::XdrType;
use crate::spec::XdrSpec;
use crate::value::XdrValue;

/// Encodes `value` as `ty` into a fresh byte vector.
///
/// # Examples
///
/// ```
/// use decaf_xdr::{codec, spec::XdrSpec, schema::XdrType, value::XdrValue};
/// let spec = XdrSpec::empty();
/// let bytes = codec::encode(&XdrValue::Str("hi".into()), &XdrType::Str(None), &spec).unwrap();
/// // 4-byte length + "hi" + 2 bytes padding.
/// assert_eq!(bytes, vec![0, 0, 0, 2, b'h', b'i', 0, 0]);
/// ```
pub fn encode(value: &XdrValue, ty: &XdrType, spec: &XdrSpec) -> XdrResult<Vec<u8>> {
    let mut out = Vec::new();
    encode_into(value, ty, spec, &mut out)?;
    Ok(out)
}

/// Encodes `value` as `ty`, appending to `out`.
pub fn encode_into(
    value: &XdrValue,
    ty: &XdrType,
    spec: &XdrSpec,
    out: &mut Vec<u8>,
) -> XdrResult<()> {
    ty.validate(value, spec)?;
    encode_unchecked(value, ty, spec, out)
}

/// Encodes without re-validating; callers must have validated already.
fn encode_unchecked(
    value: &XdrValue,
    ty: &XdrType,
    spec: &XdrSpec,
    out: &mut Vec<u8>,
) -> XdrResult<()> {
    match (ty, value) {
        (XdrType::Void, XdrValue::Void) => Ok(()),
        (XdrType::Int, XdrValue::Int(v)) => {
            out.extend_from_slice(&v.to_be_bytes());
            Ok(())
        }
        (XdrType::UInt, XdrValue::UInt(v)) => {
            out.extend_from_slice(&v.to_be_bytes());
            Ok(())
        }
        (XdrType::Hyper, XdrValue::Hyper(v)) => {
            out.extend_from_slice(&v.to_be_bytes());
            Ok(())
        }
        (XdrType::UHyper, XdrValue::UHyper(v)) => {
            out.extend_from_slice(&v.to_be_bytes());
            Ok(())
        }
        (XdrType::Bool, XdrValue::Bool(v)) => {
            out.extend_from_slice(&(*v as u32).to_be_bytes());
            Ok(())
        }
        (XdrType::Float, XdrValue::Float(v)) => {
            out.extend_from_slice(&v.to_bits().to_be_bytes());
            Ok(())
        }
        (XdrType::Double, XdrValue::Double(v)) => {
            out.extend_from_slice(&v.to_bits().to_be_bytes());
            Ok(())
        }
        (XdrType::Enum(_), XdrValue::Enum(v)) => {
            out.extend_from_slice(&v.to_be_bytes());
            Ok(())
        }
        (XdrType::OpaqueFixed(_), XdrValue::Opaque(b)) => {
            out.extend_from_slice(b);
            pad(out, b.len());
            Ok(())
        }
        (XdrType::OpaqueVar(_), XdrValue::Opaque(b)) => {
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(b);
            pad(out, b.len());
            Ok(())
        }
        (XdrType::Str(_), XdrValue::Str(s)) => {
            out.extend_from_slice(&(s.len() as u32).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
            pad(out, s.len());
            Ok(())
        }
        (XdrType::ArrayFixed(elem, _), XdrValue::Array(items)) => {
            for item in items {
                encode_unchecked(item, elem, spec, out)?;
            }
            Ok(())
        }
        (XdrType::ArrayVar(elem, _), XdrValue::Array(items)) => {
            out.extend_from_slice(&(items.len() as u32).to_be_bytes());
            for item in items {
                encode_unchecked(item, elem, spec, out)?;
            }
            Ok(())
        }
        (XdrType::Struct(name), XdrValue::Struct { fields, .. }) => {
            let decl = spec.struct_fields(name)?;
            for ((_, ft), (_, fv)) in decl.iter().zip(fields.iter()) {
                encode_unchecked(fv, ft, spec, out)?;
            }
            Ok(())
        }
        (XdrType::Optional(_), XdrValue::Optional(None)) => {
            out.extend_from_slice(&0u32.to_be_bytes());
            Ok(())
        }
        (XdrType::Optional(inner), XdrValue::Optional(Some(v))) => {
            out.extend_from_slice(&1u32.to_be_bytes());
            encode_unchecked(v, inner, spec, out)
        }
        (XdrType::Named(name), v) => encode_unchecked(v, &*spec.resolved(name)?, spec, out),
        (ty, v) => Err(XdrError::TypeMismatch {
            expected: ty.idl(),
            found: v.kind().into(),
        }),
    }
}

/// Decodes one complete value of type `ty`; rejects trailing bytes.
pub fn decode(bytes: &[u8], ty: &XdrType, spec: &XdrSpec) -> XdrResult<XdrValue> {
    let mut cur = Cursor::new(bytes);
    let v = decode_from(&mut cur, ty, spec)?;
    if cur.remaining() != 0 {
        return Err(XdrError::TrailingBytes(cur.remaining()));
    }
    Ok(v)
}

/// A read cursor over a byte slice, tracking position.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> XdrResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a big-endian `u32`.
    pub fn read_u32(&mut self) -> XdrResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn read_u64(&mut self) -> XdrResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn read_padded(&mut self, n: usize) -> XdrResult<&'a [u8]> {
        let data = self.take(n)?;
        let padding = (4 - n % 4) % 4;
        let pad_bytes = self.take(padding)?;
        if pad_bytes.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(data)
    }
}

/// Decodes a value of type `ty` from the cursor, leaving it positioned after
/// the value (used by the graph marshaler to decode streams of objects).
pub fn decode_from(cur: &mut Cursor<'_>, ty: &XdrType, spec: &XdrSpec) -> XdrResult<XdrValue> {
    match ty {
        XdrType::Void => Ok(XdrValue::Void),
        XdrType::Int => Ok(XdrValue::Int(cur.read_u32()? as i32)),
        XdrType::UInt => Ok(XdrValue::UInt(cur.read_u32()?)),
        XdrType::Hyper => Ok(XdrValue::Hyper(cur.read_u64()? as i64)),
        XdrType::UHyper => Ok(XdrValue::UHyper(cur.read_u64()?)),
        XdrType::Bool => match cur.read_u32()? {
            0 => Ok(XdrValue::Bool(false)),
            1 => Ok(XdrValue::Bool(true)),
            d => Err(XdrError::InvalidDiscriminant(d)),
        },
        XdrType::Float => Ok(XdrValue::Float(f32::from_bits(cur.read_u32()?))),
        XdrType::Double => Ok(XdrValue::Double(f64::from_bits(cur.read_u64()?))),
        XdrType::Enum(name) => {
            let v = cur.read_u32()? as i32;
            if !spec.enum_members(name)?.iter().any(|(_, m)| *m == v) {
                return Err(XdrError::InvalidEnumValue {
                    type_name: name.clone(),
                    value: v,
                });
            }
            Ok(XdrValue::Enum(v))
        }
        XdrType::OpaqueFixed(n) => Ok(XdrValue::Opaque(cur.read_padded(*n)?.to_vec())),
        XdrType::OpaqueVar(max) => {
            let n = cur.read_u32()? as usize;
            check_max(*max, n)?;
            Ok(XdrValue::Opaque(cur.read_padded(n)?.to_vec()))
        }
        XdrType::Str(max) => {
            let n = cur.read_u32()? as usize;
            check_max(*max, n)?;
            let raw = cur.read_padded(n)?;
            String::from_utf8(raw.to_vec())
                .map(XdrValue::Str)
                .map_err(|_| XdrError::InvalidUtf8)
        }
        XdrType::ArrayFixed(elem, n) => {
            let mut items = Vec::with_capacity(*n);
            for _ in 0..*n {
                items.push(decode_from(cur, elem, spec)?);
            }
            Ok(XdrValue::Array(items))
        }
        XdrType::ArrayVar(elem, max) => {
            let n = cur.read_u32()? as usize;
            check_max(*max, n)?;
            // Guard against absurd counts before reserving memory.
            if n > cur.remaining() {
                return Err(XdrError::UnexpectedEof {
                    needed: n,
                    remaining: cur.remaining(),
                });
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_from(cur, elem, spec)?);
            }
            Ok(XdrValue::Array(items))
        }
        XdrType::Struct(name) => {
            let decl = spec.struct_fields(name)?;
            let mut fields = Vec::with_capacity(decl.len());
            for (fname, fty) in decl {
                fields.push((fname.clone(), decode_from(cur, fty, spec)?));
            }
            Ok(XdrValue::Struct {
                type_name: name.clone(),
                fields,
            })
        }
        XdrType::Optional(inner) => match cur.read_u32()? {
            0 => Ok(XdrValue::Optional(None)),
            1 => Ok(XdrValue::Optional(Some(Box::new(decode_from(
                cur, inner, spec,
            )?)))),
            d => Err(XdrError::InvalidDiscriminant(d)),
        },
        XdrType::Named(name) => decode_from(cur, &*spec.resolved(name)?, spec),
    }
}

fn pad(out: &mut Vec<u8>, data_len: usize) {
    let padding = (4 - data_len % 4) % 4;
    out.extend(std::iter::repeat_n(0u8, padding));
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
            "enum state { DOWN = 0, UP = 1 };\n\
             struct inner { unsigned int a; };\n\
             struct outer { struct inner i; hyper h; bool b; opaque mac[6]; string name<16>; };",
        )
        .unwrap()
    }

    fn roundtrip(v: &XdrValue, t: &XdrType) {
        let s = spec();
        let bytes = encode(v, t, &s).unwrap();
        assert_eq!(bytes.len() % 4, 0, "wire size must be 4-aligned");
        let back = decode(&bytes, t, &s).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&XdrValue::Int(-123), &XdrType::Int);
        roundtrip(&XdrValue::UInt(u32::MAX), &XdrType::UInt);
        roundtrip(&XdrValue::Hyper(i64::MIN), &XdrType::Hyper);
        roundtrip(&XdrValue::UHyper(u64::MAX), &XdrType::UHyper);
        roundtrip(&XdrValue::Bool(true), &XdrType::Bool);
        roundtrip(&XdrValue::Float(1.5), &XdrType::Float);
        roundtrip(&XdrValue::Double(-2.25), &XdrType::Double);
    }

    #[test]
    fn known_encodings() {
        let s = spec();
        assert_eq!(
            encode(&XdrValue::Int(259), &XdrType::Int, &s).unwrap(),
            vec![0, 0, 1, 3]
        );
        assert_eq!(
            encode(&XdrValue::Bool(true), &XdrType::Bool, &s).unwrap(),
            vec![0, 0, 0, 1]
        );
        // RFC 4506 §4.11 example: "(quadruple)" skipped; string pads to 4.
        assert_eq!(
            encode(&XdrValue::Str("abc".into()), &XdrType::Str(None), &s).unwrap(),
            vec![0, 0, 0, 3, b'a', b'b', b'c', 0]
        );
    }

    #[test]
    fn opaque_padding_roundtrip() {
        roundtrip(
            &XdrValue::Opaque(vec![1, 2, 3, 4, 5]),
            &XdrType::OpaqueFixed(5),
        );
        roundtrip(&XdrValue::Opaque(vec![9; 7]), &XdrType::OpaqueVar(None));
        roundtrip(&XdrValue::Opaque(vec![]), &XdrType::OpaqueVar(Some(4)));
    }

    #[test]
    fn nonzero_padding_rejected() {
        let s = spec();
        // "a" + padding [1, 0, 0] is invalid.
        let bytes = vec![0, 0, 0, 1, b'a', 1, 0, 0];
        assert_eq!(
            decode(&bytes, &XdrType::Str(None), &s),
            Err(XdrError::NonZeroPadding)
        );
    }

    #[test]
    fn nested_struct_roundtrip() {
        let v = XdrValue::structure(
            "outer",
            vec![
                (
                    "i",
                    XdrValue::structure("inner", vec![("a", XdrValue::UInt(7))]),
                ),
                ("h", XdrValue::Hyper(-1)),
                ("b", XdrValue::Bool(false)),
                (
                    "mac",
                    XdrValue::Opaque(vec![0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]),
                ),
                ("name", XdrValue::Str("eth0".into())),
            ],
        );
        roundtrip(&v, &XdrType::Struct("outer".into()));
    }

    #[test]
    fn arrays_roundtrip() {
        let t = XdrType::ArrayFixed(Box::new(XdrType::Int), 3);
        roundtrip(
            &XdrValue::Array(vec![XdrValue::Int(1), XdrValue::Int(2), XdrValue::Int(3)]),
            &t,
        );
        let t = XdrType::ArrayVar(Box::new(XdrType::Bool), Some(8));
        roundtrip(
            &XdrValue::Array(vec![XdrValue::Bool(true), XdrValue::Bool(false)]),
            &t,
        );
    }

    #[test]
    fn optional_roundtrip() {
        let t = XdrType::Optional(Box::new(XdrType::Int));
        roundtrip(&XdrValue::Optional(None), &t);
        roundtrip(&XdrValue::Optional(Some(Box::new(XdrValue::Int(5)))), &t);
    }

    #[test]
    fn enum_decoding_checks_membership() {
        let s = spec();
        let t = XdrType::Enum("state".into());
        let bytes = encode(&XdrValue::Enum(1), &t, &s).unwrap();
        assert_eq!(decode(&bytes, &t, &s).unwrap(), XdrValue::Enum(1));
        let bad = 5i32.to_be_bytes().to_vec();
        assert!(matches!(
            decode(&bad, &t, &s),
            Err(XdrError::InvalidEnumValue { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let s = spec();
        let mut bytes = encode(&XdrValue::Int(1), &XdrType::Int, &s).unwrap();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(
            decode(&bytes, &XdrType::Int, &s),
            Err(XdrError::TrailingBytes(4))
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let s = spec();
        assert!(matches!(
            decode(&[0, 0], &XdrType::Int, &s),
            Err(XdrError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bogus_bool_rejected() {
        let s = spec();
        let bytes = 2u32.to_be_bytes().to_vec();
        assert_eq!(
            decode(&bytes, &XdrType::Bool, &s),
            Err(XdrError::InvalidDiscriminant(2))
        );
    }

    #[test]
    fn absurd_array_count_rejected_without_allocation() {
        let s = spec();
        let bytes = u32::MAX.to_be_bytes().to_vec();
        let t = XdrType::ArrayVar(Box::new(XdrType::Int), None);
        assert!(matches!(
            decode(&bytes, &t, &s),
            Err(XdrError::UnexpectedEof { .. })
        ));
    }
}

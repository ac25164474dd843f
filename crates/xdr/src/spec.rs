//! XDR IDL front end: the specification language emitted by DriverSlicer.
//!
//! DriverSlicer generates an XDR interface specification for every data type
//! crossing the nucleus/decaf boundary (paper §3.2.2, Figure 3). This module
//! parses that language — a subset of RFC 4506 §6 grammar covering consts,
//! typedefs, enums and structs with pointer, fixed-array and
//! variable-array declarators — into an [`XdrSpec`] usable by the codec.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::error::{XdrError, XdrResult};
use crate::plan::{Layout, Layouts};
use crate::schema::XdrType;

/// A named type definition inside a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDef {
    /// Struct with ordered fields.
    Struct(Vec<(String, XdrType)>),
    /// Enum with named members.
    Enum(Vec<(String, i32)>),
    /// Typedef alias.
    Alias(XdrType),
}

/// A parsed XDR interface specification: consts plus named types.
#[derive(Debug, Clone, Default)]
pub struct XdrSpec {
    consts: HashMap<String, u64>,
    types: HashMap<String, TypeDef>,
    /// Declaration order, for faithful re-rendering.
    order: Vec<String>,
    /// The struct layouts, derived from the three fields above on first
    /// use. Clones share the cell — whichever builds first builds for
    /// all, so an object allocated against one clone is recognised by a
    /// plan compiled from another — and a `define_*` takes a fresh one.
    layouts: Arc<OnceLock<Arc<Layouts>>>,
}

impl PartialEq for XdrSpec {
    fn eq(&self, other: &XdrSpec) -> bool {
        (&self.consts, &self.types, &self.order) == (&other.consts, &other.types, &other.order)
    }
}

impl XdrSpec {
    /// An empty spec (no named types).
    pub fn empty() -> Self {
        XdrSpec::default()
    }

    /// Parses XDR IDL source.
    ///
    /// # Examples
    ///
    /// ```
    /// use decaf_xdr::spec::XdrSpec;
    /// let spec = XdrSpec::parse(
    ///     "const LEN = 4; struct s { int a[LEN]; struct s *next; };",
    /// ).unwrap();
    /// assert!(spec.struct_fields("s").is_ok());
    /// ```
    pub fn parse(src: &str) -> XdrResult<Self> {
        Parser::new(src)?.parse_spec()
    }

    /// The layout of every struct this spec defines.
    pub fn layouts(&self) -> &Arc<Layouts> {
        self.layouts.get_or_init(|| Arc::new(Layouts::build(self)))
    }

    /// The layout of the struct called `name`.
    pub fn layout(&self, name: &str) -> XdrResult<&Arc<Layout>> {
        self.layouts().named(name, self)
    }

    /// Number of named types defined.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the spec defines no types.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Names of defined types, in declaration order.
    pub fn type_names(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }

    /// Looks up a constant.
    pub fn constant(&self, name: &str) -> Option<u64> {
        self.consts.get(name).copied()
    }

    /// Defines a constant programmatically.
    pub fn define_const(&mut self, name: impl Into<String>, value: u64) {
        self.consts.insert(name.into(), value);
    }

    /// Defines a struct programmatically (used by the slicer's generator).
    pub fn define_struct(&mut self, name: impl Into<String>, fields: Vec<(String, XdrType)>) {
        self.define(name.into(), TypeDef::Struct(fields));
    }

    /// Defines an enum programmatically.
    pub fn define_enum(&mut self, name: impl Into<String>, members: Vec<(String, i32)>) {
        self.define(name.into(), TypeDef::Enum(members));
    }

    /// Defines a typedef alias programmatically.
    pub fn define_alias(&mut self, name: impl Into<String>, ty: XdrType) {
        self.define(name.into(), TypeDef::Alias(ty));
    }

    /// Defines (or redefines) a named type; layouts built from what the
    /// spec declared before are dropped — in place, or by leaving the
    /// cell to the clones that still share it.
    fn define(&mut self, name: String, def: TypeDef) {
        if !self.types.contains_key(&name) {
            self.order.push(name.clone());
        }
        self.types.insert(name, def);
        match Arc::get_mut(&mut self.layouts) {
            Some(cell) => drop(cell.take()),
            None => self.layouts = Arc::default(),
        }
    }

    /// Returns the `XdrType` denoted by a type name.
    ///
    /// Structs resolve to [`XdrType::Struct`], enums to [`XdrType::Enum`],
    /// aliases to their (recursively resolved) target.
    pub fn named_type(&self, name: &str) -> XdrResult<XdrType> {
        match self.types.get(name) {
            Some(TypeDef::Struct(_)) => Ok(XdrType::Struct(name.to_string())),
            Some(TypeDef::Enum(_)) => Ok(XdrType::Enum(name.to_string())),
            Some(TypeDef::Alias(_)) => self.resolve(name),
            None => Err(XdrError::UnknownType(name.to_string())),
        }
    }

    /// Resolves a name to a concrete type, following alias chains.
    pub fn resolve(&self, name: &str) -> XdrResult<XdrType> {
        self.resolved(name).map(Cow::into_owned)
    }

    /// [`XdrSpec::resolve`], borrowing an alias's target from the spec:
    /// only a struct or an enum name builds a type.
    pub(crate) fn resolved(&self, name: &str) -> XdrResult<Cow<'_, XdrType>> {
        let mut current = name;
        // Alias chains are finite in well-formed specs; cap to be safe.
        for _ in 0..64 {
            match self.types.get(current) {
                Some(TypeDef::Struct(_)) => return Ok(Cow::Owned(XdrType::Struct(current.into()))),
                Some(TypeDef::Enum(_)) => return Ok(Cow::Owned(XdrType::Enum(current.into()))),
                Some(TypeDef::Alias(XdrType::Named(next))) => current = next,
                Some(TypeDef::Alias(t)) => return Ok(Cow::Borrowed(t)),
                None => return Err(XdrError::UnknownType(current.into())),
            }
        }
        Err(XdrError::UnknownType(format!("{name} (alias cycle)")))
    }

    /// The ordered fields of a named struct.
    pub fn struct_fields(&self, name: &str) -> XdrResult<&[(String, XdrType)]> {
        match self.types.get(name) {
            Some(TypeDef::Struct(fields)) => Ok(fields),
            Some(_) => Err(XdrError::TypeMismatch {
                expected: format!("struct {name}"),
                found: "non-struct type".into(),
            }),
            None => Err(XdrError::UnknownType(name.to_string())),
        }
    }

    /// The members of a named enum.
    pub fn enum_members(&self, name: &str) -> XdrResult<&[(String, i32)]> {
        match self.types.get(name) {
            Some(TypeDef::Enum(members)) => Ok(members),
            Some(_) => Err(XdrError::TypeMismatch {
                expected: format!("enum {name}"),
                found: "non-enum type".into(),
            }),
            None => Err(XdrError::UnknownType(name.to_string())),
        }
    }

    /// Renders the whole spec back to XDR IDL text (declaration order).
    pub fn to_idl(&self) -> String {
        let mut out = String::new();
        for name in &self.order {
            match &self.types[name] {
                TypeDef::Struct(fields) => {
                    out.push_str(&format!("struct {name} {{\n"));
                    for (fname, fty) in fields {
                        out.push_str(&format!("    {};\n", field_idl(fname, fty)));
                    }
                    out.push_str("};\n");
                }
                TypeDef::Enum(members) => {
                    out.push_str(&format!("enum {name} {{\n"));
                    for (i, (mname, mval)) in members.iter().enumerate() {
                        let sep = if i + 1 == members.len() { "" } else { "," };
                        out.push_str(&format!("    {mname} = {mval}{sep}\n"));
                    }
                    out.push_str("};\n");
                }
                TypeDef::Alias(ty) => {
                    out.push_str(&format!("typedef {};\n", field_idl(name, ty)));
                }
            }
        }
        out
    }
}

/// Renders a single field declaration in IDL syntax.
fn field_idl(name: &str, ty: &XdrType) -> String {
    match ty {
        XdrType::Optional(inner) => format!("{} *{name}", base_idl(inner)),
        XdrType::OpaqueFixed(n) => format!("opaque {name}[{n}]"),
        XdrType::OpaqueVar(Some(m)) => format!("opaque {name}<{m}>"),
        XdrType::OpaqueVar(None) => format!("opaque {name}<>"),
        XdrType::Str(Some(m)) => format!("string {name}<{m}>"),
        XdrType::Str(None) => format!("string {name}<>"),
        XdrType::ArrayFixed(elem, n) => format!("{} {name}[{n}]", base_idl(elem)),
        XdrType::ArrayVar(elem, Some(m)) => format!("{} {name}<{m}>", base_idl(elem)),
        XdrType::ArrayVar(elem, None) => format!("{} {name}<>", base_idl(elem)),
        other => format!("{} {name}", base_idl(other)),
    }
}

fn base_idl(ty: &XdrType) -> String {
    match ty {
        XdrType::Named(n) => n.clone(),
        other => other.idl(),
    }
}

// ---------------------------------------------------------------------------
// Lexer and parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(i64),
    Punct(char),
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    spec: XdrSpec,
}

impl Parser {
    fn new(src: &str) -> XdrResult<Self> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            spec: XdrSpec::empty(),
        })
    }

    fn err(&self, message: impl Into<String>) -> XdrError {
        let line = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(1, |t| t.1);
        XdrError::SpecParse {
            line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> XdrResult<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.err("unexpected end"))?;
        self.pos += 1;
        Ok(t.0)
    }

    fn eat_punct(&mut self, c: char) -> XdrResult<()> {
        match self.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn eat_ident(&mut self) -> XdrResult<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn try_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_spec(mut self) -> XdrResult<XdrSpec> {
        while self.peek().is_some() {
            let kw = self.eat_ident()?;
            match kw.as_str() {
                "const" => self.parse_const()?,
                "typedef" => self.parse_typedef()?,
                "struct" => self.parse_struct()?,
                "enum" => self.parse_enum()?,
                other => return Err(self.err(format!("unexpected top-level `{other}`"))),
            }
        }
        Ok(self.spec)
    }

    fn parse_const(&mut self) -> XdrResult<()> {
        let name = self.eat_ident()?;
        self.eat_punct('=')?;
        let value = self.parse_number()?;
        self.eat_punct(';')?;
        self.spec.define_const(name, value as u64);
        Ok(())
    }

    fn parse_number(&mut self) -> XdrResult<i64> {
        match self.next()? {
            Tok::Num(n) => Ok(n),
            Tok::Punct('-') => match self.next()? {
                Tok::Num(n) => Ok(-n),
                other => Err(self.err(format!("expected number, found {other:?}"))),
            },
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn parse_len(&mut self) -> XdrResult<usize> {
        match self.next()? {
            Tok::Num(n) if n >= 0 => Ok(n as usize),
            Tok::Ident(name) => self
                .spec
                .constant(&name)
                .map(|v| v as usize)
                .ok_or_else(|| self.err(format!("unknown constant `{name}`"))),
            other => Err(self.err(format!("expected length, found {other:?}"))),
        }
    }

    fn parse_typedef(&mut self) -> XdrResult<()> {
        let base = self.parse_type_spec()?;
        let (name, ty) = self.parse_declarator(base)?;
        self.eat_punct(';')?;
        self.spec.define_alias(name, ty);
        Ok(())
    }

    fn parse_struct(&mut self) -> XdrResult<()> {
        let name = self.eat_ident()?;
        self.eat_punct('{')?;
        let mut fields = Vec::new();
        while !self.try_punct('}') {
            let base = self.parse_type_spec()?;
            let (fname, fty) = self.parse_declarator(base)?;
            self.eat_punct(';')?;
            fields.push((fname, fty));
        }
        self.eat_punct(';')?;
        self.spec.define_struct(name, fields);
        Ok(())
    }

    fn parse_enum(&mut self) -> XdrResult<()> {
        let name = self.eat_ident()?;
        self.eat_punct('{')?;
        let mut members = Vec::new();
        loop {
            let mname = self.eat_ident()?;
            self.eat_punct('=')?;
            let mval = self.parse_number()? as i32;
            members.push((mname, mval));
            if !self.try_punct(',') {
                break;
            }
        }
        self.eat_punct('}')?;
        self.eat_punct(';')?;
        self.spec.define_enum(name, members);
        Ok(())
    }

    /// Parses a type specifier. `opaque` and `string` return placeholder
    /// types refined by the declarator's `[n]`/`<n>` suffix.
    fn parse_type_spec(&mut self) -> XdrResult<XdrType> {
        let kw = self.eat_ident()?;
        Ok(match kw.as_str() {
            "void" => XdrType::Void,
            "int" => XdrType::Int,
            "hyper" => XdrType::Hyper,
            "bool" => XdrType::Bool,
            "float" => XdrType::Float,
            "double" => XdrType::Double,
            "opaque" => XdrType::OpaqueVar(None), // refined by declarator
            "string" => XdrType::Str(None),       // refined by declarator
            "unsigned" => match self.peek() {
                Some(Tok::Ident(w)) if w == "int" => {
                    self.pos += 1;
                    XdrType::UInt
                }
                Some(Tok::Ident(w)) if w == "hyper" => {
                    self.pos += 1;
                    XdrType::UHyper
                }
                _ => XdrType::UInt,
            },
            "struct" => XdrType::Struct(self.eat_ident()?),
            "enum" => XdrType::Enum(self.eat_ident()?),
            other => XdrType::Named(other.to_string()),
        })
    }

    fn parse_declarator(&mut self, base: XdrType) -> XdrResult<(String, XdrType)> {
        let pointer = self.try_punct('*');
        let name = self.eat_ident()?;
        let mut ty = if self.try_punct('[') {
            let n = self.parse_len()?;
            self.eat_punct(']')?;
            match base {
                XdrType::OpaqueVar(_) => XdrType::OpaqueFixed(n),
                XdrType::Str(_) => {
                    return Err(self.err("string cannot have a fixed-length declarator"))
                }
                elem => XdrType::ArrayFixed(Box::new(elem), n),
            }
        } else if self.try_punct('<') {
            let max = if self.peek() == Some(&Tok::Punct('>')) {
                None
            } else {
                Some(self.parse_len()?)
            };
            self.eat_punct('>')?;
            match base {
                XdrType::OpaqueVar(_) => XdrType::OpaqueVar(max),
                XdrType::Str(_) => XdrType::Str(max),
                elem => XdrType::ArrayVar(Box::new(elem), max),
            }
        } else {
            base
        };
        if pointer {
            ty = XdrType::Optional(Box::new(ty));
        }
        Ok((name, ty))
    }
}

fn lex(src: &str) -> XdrResult<Vec<(Tok, usize)>> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                toks.push((Tok::Ident(bytes[start..i].iter().collect()), line));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let hex = c == '0' && bytes.get(i + 1).is_some_and(|&n| n == 'x' || n == 'X');
                if hex {
                    i += 2;
                }
                while i < bytes.len() {
                    let digit = if hex {
                        bytes[i].is_ascii_hexdigit()
                    } else {
                        bytes[i].is_ascii_digit()
                    };
                    if !digit {
                        break;
                    }
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let value = if hex {
                    i64::from_str_radix(&text[2..], 16)
                } else {
                    text.parse::<i64>()
                }
                .map_err(|_| XdrError::SpecParse {
                    line,
                    message: format!("bad number `{text}`"),
                })?;
                toks.push((Tok::Num(value), line));
            }
            '{' | '}' | ';' | '*' | '[' | ']' | '<' | '>' | '=' | ',' | '-' => {
                toks.push((Tok::Punct(c), line));
                i += 1;
            }
            other => {
                return Err(XdrError::SpecParse {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_consts_and_arrays() {
        let spec =
            XdrSpec::parse("const PCI_LEN = 256; struct cfg { unsigned int space[PCI_LEN]; };")
                .unwrap();
        assert_eq!(spec.constant("PCI_LEN"), Some(256));
        let fields = spec.struct_fields("cfg").unwrap();
        assert_eq!(
            fields[0].1,
            XdrType::ArrayFixed(Box::new(XdrType::UInt), 256)
        );
    }

    #[test]
    fn parses_figure3_style_input() {
        // The structure DriverSlicer generates for e1000_adapter (Figure 3).
        let src = "
            struct array256_uint32_t { unsigned int array[256]; };
            typedef struct array256_uint32_t *array256_uint32_ptr;
            struct e1000_adapter_autoxdr_c {
                array256_uint32_ptr config_space;
                int msg_enable;
            };
        ";
        let spec = XdrSpec::parse(src).unwrap();
        let fields = spec.struct_fields("e1000_adapter_autoxdr_c").unwrap();
        assert_eq!(fields[0].0, "config_space");
        // The alias resolves to an optional pointer to the wrapper struct.
        let resolved = spec.resolve("array256_uint32_ptr").unwrap();
        assert_eq!(
            resolved,
            XdrType::Optional(Box::new(XdrType::Struct("array256_uint32_t".into())))
        );
        assert_eq!(fields[1].1, XdrType::Int);
    }

    #[test]
    fn parses_hyper_and_unsigned_variants() {
        let spec = XdrSpec::parse("struct t { hyper a; unsigned hyper b; unsigned c; };").unwrap();
        let f = spec.struct_fields("t").unwrap();
        assert_eq!(f[0].1, XdrType::Hyper);
        assert_eq!(f[1].1, XdrType::UHyper);
        assert_eq!(f[2].1, XdrType::UInt);
    }

    #[test]
    fn parses_strings_opaque_and_pointers() {
        let spec = XdrSpec::parse(
            "struct s { opaque mac[6]; opaque buf<1500>; string name<>; struct s *next; };",
        )
        .unwrap();
        let f = spec.struct_fields("s").unwrap();
        assert_eq!(f[0].1, XdrType::OpaqueFixed(6));
        assert_eq!(f[1].1, XdrType::OpaqueVar(Some(1500)));
        assert_eq!(f[2].1, XdrType::Str(None));
        assert_eq!(
            f[3].1,
            XdrType::Optional(Box::new(XdrType::Struct("s".into())))
        );
    }

    #[test]
    fn comments_and_hex_numbers() {
        let spec = XdrSpec::parse(
            "// line comment\n/* block\ncomment */ const MASK = 0xff; struct a { int x; };",
        )
        .unwrap();
        assert_eq!(spec.constant("MASK"), Some(255));
        assert!(spec.struct_fields("a").is_ok());
    }

    #[test]
    fn enums_parse_and_render() {
        let spec = XdrSpec::parse("enum speed { S10 = 10, S100 = 100, S1000 = 1000 };").unwrap();
        assert_eq!(spec.enum_members("speed").unwrap().len(), 3);
        let idl = spec.to_idl();
        assert!(idl.contains("S1000 = 1000"));
        // Round-trip: rendered IDL parses to the same spec.
        let again = XdrSpec::parse(&idl).unwrap();
        assert_eq!(
            again.enum_members("speed").unwrap(),
            spec.enum_members("speed").unwrap()
        );
    }

    #[test]
    fn to_idl_roundtrips_structs() {
        let src = "struct node { int v; struct node *next; opaque raw<16>; };";
        let spec = XdrSpec::parse(src).unwrap();
        let rendered = spec.to_idl();
        let reparsed = XdrSpec::parse(&rendered).unwrap();
        assert_eq!(
            reparsed.struct_fields("node").unwrap(),
            spec.struct_fields("node").unwrap()
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = XdrSpec::parse("struct s {\n int 5bad;\n};").unwrap_err();
        match err {
            XdrError::SpecParse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn string_with_fixed_len_rejected() {
        assert!(XdrSpec::parse("struct s { string name[4]; };").is_err());
    }

    #[test]
    fn clones_share_layouts_until_one_is_redefined() {
        let spec = XdrSpec::parse("struct a { int x; };").unwrap();
        // Cloned before either built its layouts: whoever builds first
        // builds for both.
        let clone = spec.clone();
        assert!(Arc::ptr_eq(clone.layouts(), spec.layouts()));
        assert!(Arc::ptr_eq(
            clone.layout("a").unwrap(),
            spec.layout("a").unwrap()
        ));
        let mut changed = spec.clone();
        changed.define_struct("b", vec![("y".into(), XdrType::Int)]);
        assert_eq!(changed.layout("b").unwrap().field_names(), ["y"]);
        assert_eq!(
            spec.layout("b").map(|_| ()),
            Err(XdrError::UnknownType("b".into())),
            "the original keeps the layouts of what it declares"
        );
        assert_eq!(spec, clone, "layouts are derived state, not content");
    }

    #[test]
    fn unknown_type_reported() {
        let spec = XdrSpec::parse("struct s { int a; };").unwrap();
        assert_eq!(
            spec.resolve("nope"),
            Err(XdrError::UnknownType("nope".into()))
        );
    }
}

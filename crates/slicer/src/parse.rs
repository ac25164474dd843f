//! Mini-C parser: structs, functions, constants.

use crate::access::RawAccess;
use crate::ast::{Attr, CType, DecafVar, Field, FuncDef, Program, StructDef};
use crate::error::{SliceError, SliceResult};
use crate::lex::{lex, Tok, Token};

/// Parses a mini-C translation unit.
pub fn parse(src: &str) -> SliceResult<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        src,
        toks,
        pos: 0,
        program: Program::default(),
    };
    p.program.total_loc = src.lines().filter(|l| !l.trim().is_empty()).count();
    p.parse_program()?;
    Ok(p.program)
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
    program: Program,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> SliceError {
        let line = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(1, |t| t.line);
        SliceError::Parse {
            line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, n: usize) -> Option<&Tok> {
        self.toks.get(self.pos + n).map(|t| &t.tok)
    }

    fn next(&mut self) -> SliceResult<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t.tok)
    }

    fn eat_punct(&mut self, c: char) -> SliceResult<()> {
        match self.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn eat_ident(&mut self) -> SliceResult<String> {
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

    fn parse_program(&mut self) -> SliceResult<()> {
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Ident(kw) if kw == "const" => self.parse_const()?,
                Tok::Ident(kw) if kw == "struct" && self.is_struct_def() => self.parse_struct()?,
                Tok::Ident(_) => self.parse_function()?,
                other => return Err(self.err(format!("unexpected top-level {other:?}"))),
            }
        }
        Ok(())
    }

    /// Distinguishes `struct X { ... };` from `struct X *f(...) { ... }`.
    fn is_struct_def(&self) -> bool {
        matches!(self.peek_at(2), Some(Tok::Punct('{')))
    }

    fn parse_const(&mut self) -> SliceResult<()> {
        self.pos += 1; // const
        let name = self.eat_ident()?;
        self.eat_punct('=')?;
        let value = match self.next()? {
            Tok::Num(n) if n >= 0 => n as usize,
            other => return Err(self.err(format!("expected number, found {other:?}"))),
        };
        self.eat_punct(';')?;
        self.program.consts.insert(name, value);
        Ok(())
    }

    /// Parses a base type (no array suffix). `None` if the tokens at the
    /// cursor do not start a type.
    fn parse_type(&mut self) -> SliceResult<CType> {
        let base = match self.next()? {
            Tok::Ident(w) => match w.as_str() {
                "void" => CType::Void,
                "int" | "s32" | "i32" | "short" | "s16" => CType::Int,
                "unsigned" => match self.peek() {
                    Some(Tok::Ident(n)) if n == "int" => {
                        self.pos += 1;
                        CType::UInt
                    }
                    Some(Tok::Ident(n)) if n == "long" => {
                        self.pos += 1;
                        if matches!(self.peek(), Some(Tok::Ident(n2)) if n2 == "long") {
                            self.pos += 1;
                        }
                        CType::ULongLong
                    }
                    Some(Tok::Ident(n)) if n == "char" => {
                        self.pos += 1;
                        CType::Byte
                    }
                    _ => CType::UInt,
                },
                "long" => {
                    if matches!(self.peek(), Some(Tok::Ident(n)) if n == "long") {
                        self.pos += 1;
                    }
                    CType::LongLong
                }
                "u8" | "char" => CType::Byte,
                "u16" | "u32" | "uint32_t" | "uint16_t" | "uint8_t" => CType::UInt,
                "u64" | "uint64_t" => CType::ULongLong,
                "s64" | "i64" => CType::LongLong,
                "struct" => {
                    let name = self.eat_ident()?;
                    if self.try_punct('*') {
                        return Ok(CType::StructPtr(name));
                    }
                    return Ok(CType::Struct(name));
                }
                other => return Err(self.err(format!("unknown type `{other}`"))),
            },
            other => return Err(self.err(format!("expected type, found {other:?}"))),
        };
        if self.try_punct('*') {
            if base == CType::Void {
                // `void *` is marshaled as an opaque scalar pointer.
                return Ok(CType::ScalarPtr(Box::new(CType::Byte)));
            }
            return Ok(CType::ScalarPtr(Box::new(base)));
        }
        Ok(base)
    }

    fn resolve_len(&self, tok: Tok) -> SliceResult<usize> {
        match tok {
            Tok::Num(n) if n >= 0 => Ok(n as usize),
            Tok::Ident(name) => self
                .program
                .consts
                .get(&name)
                .copied()
                .ok_or_else(|| self.err(format!("unknown constant `{name}`"))),
            other => Err(self.err(format!("expected length, found {other:?}"))),
        }
    }

    fn parse_struct(&mut self) -> SliceResult<()> {
        let start_off = self.toks[self.pos].offset;
        self.pos += 1; // struct
        let name = self.eat_ident()?;
        self.eat_punct('{')?;
        let mut fields = Vec::new();
        let mut annotation_count = 0;
        while !self.try_punct('}') {
            let ty = self.parse_type()?;
            let fname = self.eat_ident()?;
            let mut ty = ty;
            if self.try_punct('[') {
                let len = {
                    let t = self.next()?;
                    self.resolve_len(t)?
                };
                self.eat_punct(']')?;
                ty = CType::Array(Box::new(ty), len);
            }
            let mut exp_len = None;
            if let Some(Tok::AttrMark(a)) = self.peek() {
                if a == "exp" {
                    self.pos += 1;
                    self.eat_punct('(')?;
                    let t = self.next()?;
                    exp_len = Some(self.resolve_len(t)?);
                    self.eat_punct(')')?;
                    annotation_count += 1;
                } else {
                    return Err(self.err(format!("unknown field attribute `@{a}`")));
                }
            }
            self.eat_punct(';')?;
            fields.push(Field {
                name: fname,
                ty,
                exp_len,
            });
        }
        self.eat_punct(';')?;
        let end_off = self.end_offset();
        let _source = &self.src[start_off..end_off];
        self.program.structs.push(StructDef {
            name,
            fields,
            annotation_count,
        });
        Ok(())
    }

    /// Byte offset just past the most recently consumed token.
    fn end_offset(&self) -> usize {
        match self.toks.get(self.pos) {
            Some(t) => t.offset,
            None => self.src.len(),
        }
    }

    fn parse_function(&mut self) -> SliceResult<()> {
        let sig_start_tok = self.pos;
        let line = self.toks[self.pos].line;
        let ret = self.parse_type()?;
        let name = self.eat_ident()?;
        self.eat_punct('(')?;
        let mut params = Vec::new();
        if !self.try_punct(')') {
            // `(void)` means no parameters.
            if self.peek() == Some(&Tok::Ident("void".into()))
                && self.peek_at(1) == Some(&Tok::Punct(')'))
            {
                self.pos += 2;
            } else {
                loop {
                    let pty = self.parse_type()?;
                    let pname = self.eat_ident()?;
                    params.push((pty, pname));
                    if !self.try_punct(',') {
                        break;
                    }
                }
                self.eat_punct(')')?;
            }
        }
        let mut attrs = Vec::new();
        while let Some(Tok::AttrMark(a)) = self.peek() {
            let attr =
                Attr::from_name(a).ok_or_else(|| self.err(format!("unknown attribute `@{a}`")))?;
            attrs.push(attr);
            self.pos += 1;
        }
        self.eat_punct('{')?;
        let body_start = self.pos;
        let mut depth = 1usize;
        while depth > 0 {
            match self.next()? {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ => {}
            }
        }
        let body: Vec<Token> = self.toks[body_start..self.pos - 1].to_vec();

        // Source span: from the signature (including a directly preceding
        // comment block) to the closing brace.
        let sig_off = self.toks[sig_start_tok].offset;
        let start_off = extend_to_leading_comment(self.src, sig_off);
        let end_off = self.end_offset_of_prev();
        let source = self.src[start_off..end_off].to_string();
        let loc = source.lines().filter(|l| !l.trim().is_empty()).count();

        let decaf_vars = extract_decaf_vars(&body);
        self.program.functions.push(FuncDef {
            name,
            ret,
            params,
            attrs,
            body,
            source,
            loc,
            line,
            decaf_vars,
        });
        Ok(())
    }

    /// Byte offset just past the previous token (the closing brace).
    fn end_offset_of_prev(&self) -> usize {
        match self.toks.get(self.pos - 1) {
            Some(t) => t.offset + 1,
            None => self.src.len(),
        }
    }
}

/// Walks backwards from `offset` over whitespace and one attached comment
/// block, returning the extended start offset.
fn extend_to_leading_comment(src: &str, offset: usize) -> usize {
    let bytes = src.as_bytes();
    let mut i = offset;
    // Skip whitespace backwards, but remember where the non-space content
    // would start.
    let mut probe = i;
    while probe > 0 && (bytes[probe - 1] as char).is_whitespace() {
        probe -= 1;
    }
    if probe >= 2 && &src[probe - 2..probe] == "*/" {
        // Find the matching `/*`.
        if let Some(open) = src[..probe - 2].rfind("/*") {
            i = open;
        }
    } else {
        // Possibly a run of `//` lines directly above.
        let mut line_start = probe;
        loop {
            let upto = src[..line_start].rfind('\n').map(|p| p + 1).unwrap_or(0);
            let line = &src[upto..line_start];
            if line.trim_start().starts_with("//") {
                i = upto;
                if upto == 0 {
                    break;
                }
                line_start = upto - 1;
                while line_start > 0 && bytes[line_start - 1] as char != '\n' {
                    line_start -= 1;
                }
                // `line_start` now begins the previous line; loop continues
                // via recomputing `upto` from it.
                line_start = upto.saturating_sub(1);
                if line_start == 0 {
                    break;
                }
            } else {
                break;
            }
        }
    }
    i
}

/// Extracts `DECAF_RVAR/WVAR/RWVAR(var->field);` annotations from a body.
fn extract_decaf_vars(body: &[Token]) -> Vec<DecafVar> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if let Tok::Ident(name) = &body[i].tok {
            let access = match name.as_str() {
                "DECAF_RVAR" => Some(RawAccess::R),
                "DECAF_WVAR" => Some(RawAccess::W),
                "DECAF_RWVAR" => Some(RawAccess::RW),
                _ => None,
            };
            if let Some(access) = access {
                // Expect: ( var -> field )
                if let (
                    Some(Tok::Punct('(')),
                    Some(Tok::Ident(var)),
                    Some(Tok::Arrow),
                    Some(Tok::Ident(field)),
                    Some(Tok::Punct(')')),
                ) = (
                    body.get(i + 1).map(|t| &t.tok),
                    body.get(i + 2).map(|t| &t.tok),
                    body.get(i + 3).map(|t| &t.tok),
                    body.get(i + 4).map(|t| &t.tok),
                    body.get(i + 5).map(|t| &t.tok),
                ) {
                    out.push(DecafVar {
                        access,
                        var: var.clone(),
                        field: field.clone(),
                    });
                    i += 6;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r"
const RING = 256;

/* The per-adapter state. */
struct e1000_ring { int count; u8 buf[64]; };

struct e1000_adapter {
    int msg_enable;
    struct e1000_ring tx;
    struct e1000_ring *rx;
    u32 *config_space @exp(RING);
    unsigned long long stats_bytes;
};

/* Interrupt handler: must stay in the kernel. */
int e1000_intr(struct e1000_adapter *adapter) @irq {
    adapter->stats_bytes += 1;
    e1000_clean(adapter);
    return 0;
}

int e1000_clean(struct e1000_adapter *adapter) @datapath {
    return 0;
}

// Configuration path: moves to user level.
int e1000_check_options(struct e1000_adapter *adapter, int speed) @export {
    DECAF_RWVAR(adapter->msg_enable);
    adapter->msg_enable = speed;
    return 0;
}
";

    #[test]
    fn parses_consts_structs_functions() {
        let p = parse(SRC).unwrap();
        assert_eq!(p.consts["RING"], 256);
        assert_eq!(p.structs.len(), 2);
        assert_eq!(p.functions.len(), 3);
        let adapter = p.find_struct("e1000_adapter").unwrap();
        assert_eq!(adapter.fields.len(), 5);
        assert_eq!(adapter.fields[1].ty, CType::Struct("e1000_ring".into()));
        assert_eq!(adapter.fields[2].ty, CType::StructPtr("e1000_ring".into()));
        assert_eq!(adapter.fields[3].exp_len, Some(256));
        assert_eq!(adapter.fields[4].ty, CType::ULongLong);
        assert_eq!(adapter.annotation_count, 1);
    }

    #[test]
    fn function_attributes_and_params() {
        let p = parse(SRC).unwrap();
        let intr = p.find_function("e1000_intr").unwrap();
        assert!(intr.has_attr(Attr::Irq));
        assert_eq!(intr.params.len(), 1);
        assert_eq!(intr.param_struct("adapter"), Some("e1000_adapter"));
        let check = p.find_function("e1000_check_options").unwrap();
        assert!(check.has_attr(Attr::Export));
        assert_eq!(check.params[1].0, CType::Int);
    }

    #[test]
    fn decaf_var_annotations_extracted() {
        let p = parse(SRC).unwrap();
        let check = p.find_function("e1000_check_options").unwrap();
        assert_eq!(check.decaf_vars.len(), 1);
        assert_eq!(check.decaf_vars[0].var, "adapter");
        assert_eq!(check.decaf_vars[0].field, "msg_enable");
        assert_eq!(check.decaf_vars[0].access, RawAccess::RW);
    }

    #[test]
    fn function_source_includes_leading_comment() {
        let p = parse(SRC).unwrap();
        let intr = p.find_function("e1000_intr").unwrap();
        assert!(intr.source.starts_with("/* Interrupt handler"));
        assert!(intr.source.trim_end().ends_with('}'));
        assert!(intr.loc >= 5);
        let check = p.find_function("e1000_check_options").unwrap();
        assert!(check.source.starts_with("// Configuration path"));
    }

    #[test]
    fn annotation_count_sums_everything() {
        let p = parse(SRC).unwrap();
        // 1 @exp + 3 function attrs + 1 DECAF_RWVAR.
        assert_eq!(p.annotation_count(), 5);
    }

    #[test]
    fn bad_source_reports_line() {
        let err = parse("struct s {\n  $bad\n};").unwrap_err();
        match err {
            SliceError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn void_params_and_pointers() {
        let p = parse(
            "int probe(void) @export { return 0; }\nvoid f(struct s *x) { }\nstruct s { int a; };",
        )
        .unwrap();
        assert!(p.find_function("probe").unwrap().params.is_empty());
        assert_eq!(
            p.find_function("f").unwrap().params[0].0,
            CType::StructPtr("s".into())
        );
    }
}

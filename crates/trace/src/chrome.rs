//! Chrome `trace_event` JSON export and a self-contained validator.
//!
//! [`chrome_trace_json`] serializes an event buffer into the JSON Array
//! Format understood by `chrome://tracing` and Perfetto. Everything is
//! rendered by hand (no serde in this workspace) with fixed formatting —
//! timestamps become `"<µs>.<3-digit-frac>"` decimal strings — so equal
//! event buffers serialize to byte-identical files, which is what the
//! determinism test diffs.
//!
//! [`validate_chrome_json`] is the matching checker the CI
//! `trace-validate` job runs: a minimal recursive-descent JSON parser
//! that confirms the file parses and that every event object carries
//! `ts`, `ph`, `pid` and `tid`.

use std::fmt::Write as _;

use crate::tracer::{Phase, TraceEvent};

/// The `pid` every event carries (the simulation is one process).
pub const TRACE_PID: u32 = 1;

fn phase_code(p: Phase) -> &'static str {
    match p {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
        Phase::ReqBegin => "b",
        Phase::ReqEnd => "e",
    }
}

/// Escapes a string for a JSON literal. Names here are ASCII
/// identifiers, but escape defensively anyway.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats virtual nanoseconds as the microsecond decimal string Chrome
/// expects in `ts`, with a fixed three-digit fraction for byte-stable
/// output.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Serializes events into Chrome trace-event JSON (array format, one
/// event per line). `tid` is the event's track; request spans carry
/// their id; instant events get thread scope (`"s":"t"`).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 16);
    out.push_str("[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str("  {");
        let _ = write!(
            out,
            "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            json_escape(ev.name),
            json_escape(ev.cat),
            phase_code(ev.phase),
            ts_us(ev.ts),
            TRACE_PID,
            ev.track,
        );
        match ev.phase {
            Phase::Instant => out.push_str(",\"s\":\"t\""),
            Phase::ReqBegin | Phase::ReqEnd => {
                let _ = write!(out, ",\"id\":{}", ev.id);
            }
            _ => {}
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(k), v);
            }
            out.push('}');
        }
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// A parsed JSON value — just enough structure for validation.
enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool),
            Some(b'f') => self.literal("false", Json::Bool),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {s:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Copy the full UTF-8 sequence starting at b.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or("truncated utf8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
}

/// Parses a Chrome trace JSON document and checks every event: the
/// top level must be an array of objects, and each object must carry
/// `ts` (number), `ph` (string), `pid` (number) and `tid` (number).
/// Returns the number of validated events.
pub fn validate_chrome_json(s: &str) -> Result<usize, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    let Json::Arr(events) = v else {
        return Err("top level is not an array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        let Json::Obj(fields) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        for (key, want_num) in [("ts", true), ("ph", false), ("pid", true), ("tid", true)] {
            match fields.iter().find(|(k, _)| k == key) {
                None => return Err(format!("event {i} missing {key:?}")),
                Some((_, Json::Num(n))) if want_num => {
                    if !n.is_finite() || *n < 0.0 {
                        return Err(format!("event {i} field {key:?} is not a finite time"));
                    }
                }
                Some((_, Json::Str(s))) if !want_num => {
                    if s.is_empty() {
                        return Err(format!("event {i} has an empty {key:?}"));
                    }
                }
                Some(_) => return Err(format!("event {i} field {key:?} has wrong type")),
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    #[test]
    fn export_roundtrips_through_validator() {
        let t = Tracer::new();
        t.begin_span(1_500, "xpc", "call.batched", 0);
        t.instant(1_600, "ring", "post", 1, &[("slot", 3), ("bytes", 1500)]);
        t.end_span(2_000);
        t.req_begin(2_100, "net.pkt_ns", 42, 1);
        t.req_end(3_100, "net.pkt_ns", 42, 1);
        let json = chrome_trace_json(&t.events());
        let n = validate_chrome_json(&json).expect("valid trace");
        assert_eq!(n, 5);
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"id\":42"));
        assert!(json.contains("\"args\":{\"slot\":3,\"bytes\":1500}"));
    }

    #[test]
    fn identical_buffers_serialize_identically() {
        let mk = || {
            let t = Tracer::new();
            t.begin_span(0, "k", "run", 0);
            t.instant(10, "k", "tick", 0, &[("n", 1)]);
            t.end_span(20);
            chrome_trace_json(&t.events())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("{\"not\":\"array\"}").is_err());
        assert!(
            validate_chrome_json("[{\"ph\":\"B\"}]").is_err(),
            "missing ts"
        );
        assert!(validate_chrome_json("[{\"ts\":1,\"ph\":2,\"pid\":1,\"tid\":0}]").is_err());
        assert!(validate_chrome_json("[").is_err());
        assert_eq!(validate_chrome_json("[]").unwrap(), 0);
    }
}

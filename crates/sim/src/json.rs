//! The workspace's JSON wire format: one reader, one set of writer rules.
//!
//! Every document ccsim reads or writes — scenarios, fault plans,
//! topologies, campaign specs and ledgers, run manifests, profiles, crash
//! bundles, trace and timeline JSONL — is hand-rolled against this module.
//! It lives in `ccsim-sim` because that crate is the one dependency every
//! other workspace crate already has.
//!
//! Reading: [`Json::parse`] is a recursive-descent parser covering the full
//! JSON grammar minus only surrogate-pair `\u` escapes. Numbers are kept as
//! their raw source text ([`Json::Num`]) and converted on access: parsing
//! through `f64` would silently corrupt 64-bit seeds (`u64` values above
//! 2^53 are not representable), and seeds are exactly what crash-bundle
//! replay must preserve bit-for-bit. Nesting is capped at [`MAX_DEPTH`] so
//! hostile input gets a [`JsonError`] instead of a stack overflow.
//!
//! Writing: the helpers below are the single definition of the format's
//! escaping and number rules, and [`Json::render`] applies them to a
//! parsed value.
//!
//! * [`escape`] emits exactly the escapes the parser understands: `\"`,
//!   `\\`, and `\uXXXX` for control characters; everything else is copied
//!   verbatim.
//! * [`json_f64`] prints finite floats with Rust's shortest-round-trip
//!   `Debug` form (scientific notation when shorter),
//!   so a write → parse → write cycle is a byte-level fixpoint and the
//!   parsed value is bit-exact; non-finite values degrade to `0` so the
//!   document stays strictly JSON. `Display` is deliberately *not* used:
//!   it expands extreme magnitudes positionally (`1e300` becomes a
//!   301-digit integer, the smallest subnormal a 324-decimal-place
//!   fraction), which bloats ledgers and defeats the "shortest" claim.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// committed document (a ledger line embedding a manifest with a profile)
/// nests five levels; the cap keeps recursion far from any thread's stack
/// limit.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Raw number text, converted lazily by [`Json::as_u64`] /
    /// [`Json::as_f64`] so integers round-trip exactly.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Key–value pairs in document order (no hashing needed at this size).
    Obj(Vec<(String, Json)>),
}

/// Parse or decode failure with the byte offset where it happened (`0`
/// for decoder-level errors that concern a whole value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize back to compact JSON text. The writing counterpart of
    /// [`Json::parse`]: numbers keep their raw source text (so u64 seeds
    /// survive), strings use [`escape`]. `render` → `parse` is the
    /// identity on the value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` to `out` with JSON string escaping.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Escape a string for embedding in hand-rolled JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Render a finite float with shortest-round-trip precision (the `Debug`
/// form: `1e300`, `5e-324`, `-0.0` — never a positional expansion);
/// non-finite values (a 0-wall-clock ratio, say) degrade to `0` so the
/// document stays strictly JSON.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Render an optional float: `null` when absent, [`json_f64`] otherwise.
pub fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

/// `num / den` with a degenerate-denominator guard: `0.0` when `den` is
/// zero, negative, or non-finite (a zero-event run, a sub-microsecond
/// dispatch span), and `0.0` when the quotient itself is non-finite.
///
/// Rates written to ledgers and manifests must go through this rather
/// than relying on [`json_f64`]'s non-finite fallback: that fallback
/// keeps the *document* parseable but the in-memory value would still be
/// `inf`/NaN, poisoning comparisons, histograms, and rollup arithmetic
/// before serialization ever happens.
pub fn safe_rate(num: f64, den: f64) -> f64 {
    if den <= 0.0 || !den.is_finite() {
        return 0.0;
    }
    let q = num / den;
    if q.is_finite() {
        q
    } else {
        0.0
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Run one container production one nesting level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let v = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(v)
                                    .ok_or_else(|| self.err("bad \\u escape (surrogate)"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (content bytes are
                    // copied verbatim).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if raw.is_empty() || raw == "-" || raw.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\ny"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert!(v.get("b").unwrap().get("c").unwrap().is_null());
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        // 2^63 + 1 is not representable in f64; the raw-text path must
        // preserve it.
        let v = Json::parse("{\"seed\": 9223372036854775809}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(9223372036854775809));
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        let x = 0.123_456_789_012_345_68_f64;
        let v = Json::parse(&format!("{{\"x\": {x}}}")).unwrap();
        assert_eq!(v.get("x").unwrap().as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn escape_round_trips() {
        let s = "a \"b\" \\ c \u{0007}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn render_parse_is_identity() {
        let doc = r#"{"a":[1,2.5,-3e2,9223372036854775809],"b":{"c":null,"d":true},"e":"x\"y\\z"}"#;
        let v = Json::parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Raw number text survives verbatim (u64 seeds stay exact).
        assert!(rendered.contains("9223372036854775809"));
        assert!(rendered.contains("-3e2"));
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" \n\t{ \"a\" : [ ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 0);
        assert!(v.get("b").is_some());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let objs = "{\"k\":".repeat(MAX_DEPTH - 1) + "{}" + &"}".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&objs).is_ok());
        let objs = "{\"k\":".repeat(MAX_DEPTH) + "{}" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objs).is_err());
        // Far past the cap (a stack overflow before it existed) is an
        // ordinary error too.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
        assert_eq!(escape("plain ✓"), "plain ✓");
    }

    #[test]
    fn floats_print_shortest_round_trip() {
        let x = 0.123_456_789_012_345_68_f64;
        assert_eq!(json_f64(x).parse::<f64>().unwrap().to_bits(), x.to_bits());
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(f64::NAN), "0");
    }

    #[test]
    fn extreme_floats_stay_short_and_bit_exact() {
        // Positional expansion of these is 300+ characters; the Debug
        // form is shortest-round-trip scientific notation.
        assert_eq!(json_f64(1e300), "1e300");
        assert_eq!(json_f64(5e-324), "5e-324"); // smallest subnormal
        assert_eq!(json_f64(-0.0), "-0.0");
        assert_eq!(
            json_f64(-0.0).parse::<f64>().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(json_f64(1e16), "1e16");
        for v in [1e300, 5e-324, -0.0, f64::MIN_POSITIVE, 1e16, -2.5e-11] {
            let s = json_f64(v);
            assert!(s.len() <= 25, "{s} not shortest");
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits());
            // Byte-level fixpoint: format(parse(format(v))) == format(v).
            assert_eq!(json_f64(s.parse::<f64>().unwrap()), s);
        }
    }

    #[test]
    fn optional_floats_use_null() {
        assert_eq!(json_opt_f64(None), "null");
        assert_eq!(json_opt_f64(Some(2.5)), "2.5");
    }

    #[test]
    fn safe_rate_is_finite_for_every_degenerate_denominator() {
        assert_eq!(safe_rate(100.0, 0.0), 0.0);
        assert_eq!(safe_rate(100.0, -1.0), 0.0);
        assert_eq!(safe_rate(100.0, f64::NAN), 0.0);
        assert_eq!(safe_rate(100.0, f64::INFINITY), 0.0);
        assert_eq!(safe_rate(0.0, 0.0), 0.0);
        // Overflowing quotients degrade to zero rather than inf.
        assert_eq!(safe_rate(f64::MAX, f64::MIN_POSITIVE), 0.0);
        assert_eq!(safe_rate(9.0, 2.0), 4.5);
    }
}

//! A minimal JSON value, serializer and parser.
//!
//! The observability layer exports traces as JSONL (one JSON object per
//! line) and the workspace has a zero-external-dependency policy, so
//! this module implements the small JSON subset the exporters need:
//! objects, arrays, strings, booleans, null, and numbers split into
//! integer ([`Value::Int`]) and floating ([`Value::Float`]) variants so
//! that `u64` counters and nanosecond timestamps round-trip exactly.
//!
//! Numbers are written by [`write_i64`] and [`write_f64`], which emit
//! the bytes of `format!("{x}")` and `format!("{x:?}")` without going
//! through `core::fmt` for the values the workspace writes. `{:?}` is
//! the shortest representation that round-trips, so
//! `parse(render(v)) == v` for every finite `f64`. Non-finite floats
//! are not representable in JSON and are rejected at serialization time
//! by debug assertion (the recorder never produces them).
//!
//! Parsing runs on [`Lexer`], a pull lexer that reads a document in one
//! forward pass. [`Value::parse`] builds a tree on it, at most
//! `MAX_DEPTH` containers deep; a reader that wants only a few fields
//! (the decision server's request decoder) drives it directly and
//! builds none.

use std::borrow::Cow;
use std::io::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent part.
    Int(i64),
    /// A number carrying a fraction or exponent part.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value as an `f64`, accepting both numeric variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a `u64` (an [`Value::Int`] that is non-negative).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.render_into(&mut out);
        // Every byte written is ASCII or comes whole from a `str`, so the
        // lossy branch never runs.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Appends the bytes [`Value::render`] returns to `out`.
    pub fn render_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Value::Int(i) => write_i64(out, *i),
            Value::Float(f) => {
                debug_assert!(f.is_finite(), "non-finite float {f} is not JSON");
                // Always carries a '.' or 'e', so the parser keeps the
                // Float variant.
                write_f64(out, *f);
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.render_into(out);
                }
                out.push(b']');
            }
            Value::Obj(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    render_string(k, out);
                    out.push(b':');
                    v.render_into(out);
                }
                out.push(b'}');
            }
        }
    }

    /// Parses a complete JSON document. Trailing non-whitespace is an
    /// error, and so is nesting deeper than `MAX_DEPTH`: the error
    /// points at the bracket that opens the container one level too
    /// deep.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut lx = Lexer::new(text);
        let value = parse_value(&mut lx, 0)?;
        lx.finish()?;
        Ok(value)
    }
}

fn render_string(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    // Runs without an escape are copied whole; every byte that needs
    // one is ASCII, so a run never splits a character.
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => &[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ],
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Appends `x` in decimal: the bytes of `format!("{x}")`.
pub fn write_i64(out: &mut Vec<u8>, x: i64) {
    if x < 0 {
        out.push(b'-');
    }
    let mut buf = [0; 20];
    let start = write_digits(&mut buf, x.unsigned_abs());
    out.extend_from_slice(&buf[start..]);
}

/// "00" ..= "99": two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes the decimal digits of `n` at the end of `buf` and returns
/// where they start.
fn write_digits(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut i = buf.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    // The last odd digit, or the one digit of 0.
    if n > 0 || i == buf.len() {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

/// Appends `x` as `format!("{x:?}")` writes it: the shortest decimal
/// that reads back as `x`, in positional form with at least one
/// fractional digit for ±0 and for 1e-4 ≤ |x| < 1e16.
///
/// That range is written here, digits found with exact integer
/// arithmetic; every other value, non-finite ones included, goes
/// through `{:?}` itself.
pub fn write_f64(out: &mut Vec<u8>, x: f64) {
    let abs = x.abs();
    if abs != 0.0 && !(1e-4..1e16).contains(&abs) {
        let _ = write!(out, "{x:?}");
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    if abs == 0.0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let (c, q) = shortest(abs);
    let mut buf = [0; 20];
    let start = write_digits(&mut buf, c);
    let digits = &buf[start..];
    // `x` = 0.digits × 10^point.
    let point = digits.len() as i32 + q;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - digits.len(), b'0');
        out.extend_from_slice(b".0");
    }
}

/// 5^0 ..= 5^22, the scales [`shortest`] uses.
const POW5: [u64; 23] = {
    let mut t = [1; 23];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 5;
        i += 1;
    }
    t
};

/// The shortest decimal `c`·10^`q` that reads back as `x`, for
/// 1e-4 ≤ `x` < 1e16; among several of the shortest length, the one
/// nearest `x`, and the larger of two equally near.
///
/// `x` = m·2^e with a 53-bit m, and its rounding interval runs from
/// (4m−2)·2^(e−2) (4m−1 at a power of two, whose lower neighbour is
/// nearer) to (4m+2)·2^(e−2), closed when m is even. Scaled by 10^d,
/// d = 17 − ⌊log10 2^(e+52)⌋ ∈ [2, 22], `x` lies in [10^17, 2·10^18)
/// and the interval is more than 8 wide. Each bound is the exact
/// product (4m+δ)·5^d·2^(e−2+d): below 2^108, so a `u128` holds it,
/// with a binary point 2−e−d bits up when that is positive. Then the
/// answer is the multiple of the largest power of ten the interval
/// holds that lies nearest `x`. An exact tie between two goes to the
/// larger, as `{:?}` does (rounding it to even, as Ryū does, would not
/// match).
fn shortest(x: f64) -> (u64, i32) {
    let bits = x.to_bits();
    let frac = bits & ((1 << 52) - 1);
    let m = frac | (1 << 52);
    let e = (bits >> 52) as i32 - 1075;
    // ⌊log10 2^(e+52)⌋, exact on this range.
    let d = 17 - (((e + 52) * 78_913) >> 18);
    let shift = e - 2 + d;
    let point = (-shift).max(0) as u32;
    let scale = |n: u64| (u128::from(n) * u128::from(POW5[d as usize])) << shift.max(0);
    let floor = |n: u128| (n >> point) as u64;
    let exact = |n: u128| n & ((1 << point) - 1) == 0;
    let lo = scale(4 * m - if frac == 0 { 1 } else { 2 });
    let hi = scale(4 * m + 2);
    let v = scale(4 * m);
    let closed = m.is_multiple_of(2);
    // Integers in the interval: (below, top].
    let mut below = floor(lo) - u64::from(closed && exact(lo));
    let mut top = floor(hi) - u64::from(!closed && exact(hi));
    let mut kept = floor(v);
    // The first digit cut from `v`; 5 stands for a fraction of ½ or
    // more, which is all the rounding needs: ties go up.
    let mut cut = if point > 0 && (v >> (point - 1)) & 1 == 1 {
        5
    } else {
        0
    };
    let mut q = -d;
    while top / 10 > below / 10 {
        cut = kept % 10;
        kept /= 10;
        top /= 10;
        below /= 10;
        q += 1;
    }
    // The nearer of `kept` and `kept + 1`, or the one in the interval.
    let c = (kept + u64::from(cut >= 5)).max(below + 1).min(top);
    (c, q)
}

/// A parse failure with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line number in the original input, or 0 when the error
    /// is not tied to a line (single-document parses; synthetic
    /// errors). Line-oriented parsers such as
    /// [`parse_jsonl`](crate::export::parse_jsonl) fill this in so a
    /// bad line in a multi-megabyte trace is findable.
    pub line: usize,
    /// Byte offset in the input. For line-oriented parsers this is the
    /// absolute offset into the whole input, not into the line.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        Self {
            line: 0,
            offset,
            message: message.into(),
        }
    }

    /// Rebases this error into a larger input: attributes it to the
    /// 1-based `line` whose content starts at absolute byte offset
    /// `line_start`.
    pub(crate) fn on_line(self, line: usize, line_start: usize) -> Self {
        Self {
            line,
            offset: line_start + self.offset,
            message: self.message,
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "json error at line {}, byte {}: {}",
                self.line, self.offset, self.message
            )
        } else {
            write!(f, "json error at byte {}: {}", self.offset, self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// A JSON number as the [`Lexer`] reads it: the payload of a
/// [`Value::Int`] or a [`Value::Float`], without the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A number without fraction or exponent part.
    Int(i64),
    /// A number carrying a fraction or exponent part.
    Float(f64),
}

impl Number {
    /// The number as an `f64`, as [`Value::as_f64`] reads it.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The number as a `u64`, as [`Value::as_u64`] reads it: a
    /// non-negative [`Number::Int`].
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }
}

/// The start of a JSON value, as [`Lexer::value`] reads it: a whole
/// scalar, or the opening bracket of a container whose [`Items`]
/// follow.
#[derive(Debug)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string, borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    /// `{`: key/value items follow (read each key with [`Lexer::key`]).
    Obj(Items),
    /// `[`: value items follow.
    Arr(Items),
}

/// The items of an object or array whose opening bracket was read.
#[derive(Debug)]
pub struct Items {
    close: u8,
    started: bool,
}

impl Items {
    /// Steps to the next item: `true` when one follows, with the `,`
    /// before it consumed; `false` once the closing bracket is.
    pub fn next(&mut self, lx: &mut Lexer<'_>) -> Result<bool, JsonError> {
        lx.skip_ws();
        let first = !std::mem::replace(&mut self.started, true);
        match lx.bytes().get(lx.pos) {
            Some(&c) if c == self.close => {
                lx.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                lx.pos += 1;
                Ok(true)
            }
            _ => Err(JsonError::at(
                lx.pos,
                format!("expected ',' or '{}'", self.close as char),
            )),
        }
    }

    fn is_object(&self) -> bool {
        self.close == b'}'
    }
}

/// A pull lexer over one JSON document: each call reads the next token
/// in a single forward pass, and strings come back borrowed from the
/// input unless they hold an escape.
///
/// [`Value::parse`] builds its tree on it; a caller that wants a few
/// fields can drive it directly and build nothing. Errors carry the
/// byte offset into the document.
#[derive(Debug)]
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, c: u8) -> Result<(), JsonError> {
        if self.bytes().get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected {:?}", c as char)))
        }
    }

    /// Reads the start of the next value: a whole scalar, or the
    /// opening bracket of an object or array.
    pub fn value(&mut self) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        match self.bytes().get(self.pos) {
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::Obj(Items {
                    close: b'}',
                    started: false,
                }))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::Arr(Items {
                    close: b']',
                    started: false,
                }))
            }
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.keyword("true", Token::Bool(true)),
            Some(b'f') => self.keyword("false", Token::Bool(false)),
            Some(b'n') => self.keyword("null", Token::Null),
            Some(_) => self.number().map(Token::Num),
        }
    }

    /// Reads an object key and the `:` after it.
    pub fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect_byte(b':')?;
        Ok(key)
    }

    /// Finishes a value whose start `token` was read: skips a
    /// container's items, checking their syntax; a scalar is already
    /// whole. Nesting is tracked on the heap, not the call stack.
    pub fn skip_rest(&mut self, token: Token<'a>) -> Result<(), JsonError> {
        let mut open = Vec::new();
        let mut token = token;
        loop {
            if let Token::Obj(items) | Token::Arr(items) = token {
                open.push(items);
            }
            loop {
                let Some(items) = open.last_mut() else {
                    return Ok(());
                };
                if items.next(self)? {
                    if items.is_object() {
                        self.key()?;
                    }
                    break;
                }
                open.pop();
            }
            token = self.value()?;
        }
    }

    /// Skips one whole value, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        let token = self.value()?;
        self.skip_rest(token)
    }

    /// Reads one whole value: the number it is, or `None` once a value
    /// of another type has been skipped.
    pub fn number_or_skip(&mut self) -> Result<Option<Number>, JsonError> {
        match self.value()? {
            Token::Num(n) => Ok(Some(n)),
            token => self.skip_rest(token).map(|()| None),
        }
    }

    /// Ends the document: only whitespace may follow.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(JsonError::at(self.pos, "trailing characters"))
        }
    }

    fn keyword(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(JsonError::at(self.pos, format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Number, JsonError> {
        let bytes = self.bytes();
        let start = self.pos;
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        let parsed = if is_float {
            text.parse::<f64>().map(Number::Float).ok()
        } else {
            text.parse::<i64>().map(Number::Int).ok()
        };
        parsed.ok_or_else(|| JsonError::at(start, format!("invalid number {text:?}")))
    }

    /// Reads a string. Each run up to the next `"` or `\` is copied
    /// whole: both delimiters are ASCII, so a run of a `&str` is valid
    /// UTF-8 and needs no decoding. A string without escapes is
    /// borrowed and copies nothing.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect_byte(b'"')?;
        let bytes = self.bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(len) = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = bytes.len();
                return Err(JsonError::at(self.pos, "unterminated string"));
            };
            self.pos += len;
            let run = &self.text[start..self.pos];
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            self.pos += 1;
            match bytes.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let at = self.pos;
                    let hex = bytes
                        .get(at + 1..at + 5)
                        .ok_or_else(|| JsonError::at(at, "truncated \\u escape"))?;
                    let hex = std::str::from_utf8(hex)
                        .map_err(|_| JsonError::at(at, "invalid \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| JsonError::at(at, "invalid \\u escape"))?;
                    // The exporters only emit BMP control escapes;
                    // surrogate pairs are out of scope.
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| JsonError::at(at, "invalid codepoint"))?,
                    );
                    self.pos += 4;
                }
                _ => return Err(JsonError::at(self.pos, "invalid escape")),
            }
            self.pos += 1;
        }
    }
}

/// The deepest container nesting [`Value::parse`] accepts. The tree
/// builder (and the tree's drop) recurse once per level, so an
/// unbounded depth would let one small document overflow the stack and
/// abort the process; every document the workspace writes stays a few
/// levels deep.
const MAX_DEPTH: usize = 128;

/// Builds the [`Value`] tree of the value starting at the lexer, whose
/// enclosing containers are `depth` levels deep.
fn parse_value(lx: &mut Lexer<'_>, depth: usize) -> Result<Value, JsonError> {
    let token = lx.value()?;
    if matches!(token, Token::Arr(_) | Token::Obj(_)) && depth == MAX_DEPTH {
        return Err(JsonError::at(
            lx.pos - 1,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    Ok(match token {
        Token::Null => Value::Null,
        Token::Bool(b) => Value::Bool(b),
        Token::Num(Number::Int(i)) => Value::Int(i),
        Token::Num(Number::Float(f)) => Value::Float(f),
        Token::Str(s) => Value::Str(s.into_owned()),
        Token::Arr(mut items) => {
            let mut out = Vec::new();
            while items.next(lx)? {
                out.push(parse_value(lx, depth + 1)?);
            }
            Value::Arr(out)
        }
        Token::Obj(mut items) => {
            let mut out = Vec::new();
            while items.next(lx)? {
                let key = lx.key()?.into_owned();
                out.push((key, parse_value(lx, depth + 1)?));
            }
            Value::Obj(out)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(1.5),
            Value::Float(-0.001),
            Value::Float(1e300),
            Value::Str("hello".into()),
            Value::Str("with \"quotes\" and \\ and \n".into()),
        ] {
            assert_eq!(Value::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, 2.0_f64.powi(-40), 123456.789012345] {
            let v = Value::Float(f);
            match Value::parse(&v.render()).unwrap() {
                Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn nested_structures() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("sim.hour".into())),
            (
                "fields".into(),
                Value::Obj(vec![
                    ("hour".into(), Value::Int(12)),
                    ("cost".into(), Value::Float(1234.5)),
                ]),
            ),
            (
                "arr".into(),
                Value::Arr(vec![Value::Int(1), Value::Int(2), Value::Null]),
            ),
        ]);
        let text = v.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("name").unwrap().as_str(), Some("sim.hour"));
        assert_eq!(
            back.get("fields").unwrap().get("cost").unwrap().as_f64(),
            Some(1234.5)
        );
    }

    #[test]
    fn accepts_whitespace() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("{\"a\":1} trailing").is_err());
        assert!(Value::parse("nul").is_err());
    }

    fn parse_err(text: &str) -> (usize, String) {
        let e = Value::parse(text).unwrap_err();
        (e.offset, e.message)
    }

    #[test]
    fn multi_byte_runs_copy_whole() {
        for s in ["é", "日本", "🦀", "aé日本🦀z", r"日本\n🦀\u00e9é"] {
            let decoded = s.replace("\\n", "\n").replace("\\u00e9", "é");
            assert_eq!(
                Value::parse(&format!("\"{s}\"")).unwrap(),
                Value::Str(decoded),
                "{s:?}"
            );
        }
        // Keys and nested strings take the same scan.
        let v = Value::parse(r#"{"日本":["🦀","é"]}"#).unwrap();
        assert_eq!(
            v.get("日本").unwrap().as_arr().unwrap()[0].as_str(),
            Some("🦀")
        );
    }

    #[test]
    fn every_escape_kind_decodes() {
        assert_eq!(
            Value::parse(r#""q\"b\\s\/n\nr\rt\tu\u0041\u00e9\u65e5\u001f+\u+041""#).unwrap(),
            Value::Str("q\"b\\s/n\nr\rt\tuAé日\u{1f}+A".into())
        );
        // Escapes back to back, and at both ends of a run.
        assert_eq!(
            Value::parse(r#""\n\t""#).unwrap(),
            Value::Str("\n\t".into())
        );
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_one_pass() {
        let body = "é日本🦀x".repeat((1 << 20) / 11);
        assert_eq!(
            Value::parse(&format!("\"{body}\"")).unwrap(),
            Value::Str(body.clone())
        );
        assert_eq!(
            Value::parse(&format!("[\"{body}\\n\"]")).unwrap(),
            Value::Arr(vec![Value::Str(format!("{body}\n"))])
        );
        let open = format!("\"{body}");
        assert_eq!(parse_err(&open), (open.len(), "unterminated string".into()));
    }

    #[test]
    fn bad_strings_keep_their_offsets_and_messages() {
        for (text, offset, message) in [
            (r#""abc"#, 4, "unterminated string"),
            (r#""日本"#, 7, "unterminated string"),
            (r#""a\"#, 3, "invalid escape"),
            (r#""a\x""#, 3, "invalid escape"),
            (r#""\"#, 2, "invalid escape"),
            (r#""\u12"#, 2, "truncated \\u escape"),
            (r#""\u12g4""#, 2, "invalid \\u escape"),
            (r#""\u-041""#, 2, "invalid \\u escape"),
            (r#""\u12é""#, 2, "invalid \\u escape"),
            (r#""\ud800""#, 2, "invalid codepoint"),
            (r#""\u0041"#, 7, "unterminated string"),
            (r#"{"a\x":1}"#, 4, "invalid escape"),
            (r#"{"a":"b}"#, 8, "unterminated string"),
            (r#"{1:2}"#, 1, "expected '\"'"),
        ] {
            assert_eq!(parse_err(text), (offset, message.to_string()), "{text:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_the_offending_bracket() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        let deepest = nested("[", "]", MAX_DEPTH);
        assert!(Value::parse(&deepest).is_ok());
        let message = format!("nesting deeper than {MAX_DEPTH} levels");
        assert_eq!(
            parse_err(&nested("[", "]", MAX_DEPTH + 1)),
            (MAX_DEPTH, message.clone())
        );
        // 1 MiB of nesting fails at the same bracket, without recursing
        // past it; objects count like arrays.
        assert_eq!(
            parse_err(&nested("[", "]", 1 << 19)),
            (MAX_DEPTH, message.clone())
        );
        let objects = nested("{\"a\":", "}", MAX_DEPTH + 1);
        assert_eq!(parse_err(&objects), (5 * MAX_DEPTH, message));
    }

    #[test]
    fn integer_vs_float_distinction() {
        assert_eq!(Value::parse("7").unwrap(), Value::Int(7));
        assert_eq!(Value::parse("7.0").unwrap(), Value::Float(7.0));
        assert_eq!(Value::parse("7e0").unwrap(), Value::Float(7.0));
    }
}

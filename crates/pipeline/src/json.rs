//! A hand-rolled JSON subset — parser and writer — and the request codec
//! built on it.
//!
//! The build environment has an empty registry, so scenario-grid files and
//! structured result artifacts use this ~300-line implementation instead of
//! `serde`. Supported grammar: objects, arrays, strings (with the common
//! escapes and `\uXXXX`), finite numbers, booleans and `null`, plus two
//! conveniences for human-edited grid files: `//`- and `#`-style comments
//! and trailing commas. Object key order is preserved, so written artifacts
//! are stable and diffable.
//!
//! The codec is the one place that decides what a request may contain:
//!
//! * `Obj` reads one object. Any key outside its allowed list is
//!   [`PipelineError::UnknownKey`] with the nearest valid name, and a value
//!   of the wrong type is an error naming the field that owns it
//!   (`Owner`), never a silent default;
//! * `Tagged` normalizes the three wire forms of a tagged type — a bare
//!   kind name, `{"kind": k, …}` and the nested `{k: {…}}` — into a kind
//!   and an `Obj` over its parameters, checked against the type's table
//!   of kinds and parameter names, and writes the normal form back;
//!   `backend`, the distribution knobs, `redundancy` and `searcher` are
//!   its four tables (modelled on serde's `#[serde(tag = "kind")]` enums).

use crate::{PipelineError, Result};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a document (one value, optionally surrounded by whitespace and
    /// comments).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] with a 1-based line number on malformed
    /// input, including arrays and objects nested deeper than
    /// [`MAX_NESTING_DEPTH`].
    pub fn parse(src: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after the document"));
        }
        Ok(value)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Encode a `u64` exactly: as a number while f64-safe (≤ 2⁵³), as a
    /// decimal string above that. JSON numbers travel as doubles, which
    /// would corrupt the low bits of full-range values like split seeds.
    pub fn from_u64(n: u64) -> Json {
        const F64_EXACT: u64 = 1 << 53;
        if n <= F64_EXACT {
            Json::Num(n as f64)
        } else {
            Json::Str(n.to_string())
        }
    }

    /// Decode a `u64` written by [`Json::from_u64`] (also accepts any
    /// non-negative integral number or decimal string).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object (ordered key/value pairs).
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize onto one line with no extra whitespace — the JSON-lines
    /// form the `repro serve` daemon speaks (one value per line, so
    /// embedded newlines are never emitted).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one line of `[`s
/// overflow the stack and abort the process; every document this crate
/// reads nests fewer than ten levels.
pub const MAX_NESTING_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn line(&self) -> usize {
        1 + self.bytes[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    fn err(&self, msg: impl Into<String>) -> PipelineError {
        PipelineError::Parse {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skip whitespace and `//` / `#` line comments.
    fn skip_ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
            let comment = match self.peek() {
                Some(b'#') => true,
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'/') => true,
                _ => false,
            };
            if !comment {
                return;
            }
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                byte as char,
                match self.peek() {
                    Some(b) => format!("`{}`", b as char),
                    None => "end of input".to_string(),
                }
            )))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_NESTING_DEPTH => {
                Err(self.err(format!("nesting deeper than {MAX_NESTING_DEPTH} levels")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("invalid number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err(format!("non-finite number `{text}`")));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash as one slice, so the UTF-8 check stays
                    // linear in the string's length.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {}
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        // Past `SCAN_KEYS` keys, a hash set of the keys so far keeps the
        // duplicate check linear in the object's size; below it a scan is
        // cheaper than building the set.
        const SCAN_KEYS: usize = 16;
        let mut seen: Option<std::collections::HashSet<String>> = None;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            let key = self.string()?;
            let duplicate = if fields.len() < SCAN_KEYS {
                fields.iter().any(|(k, _)| *k == key)
            } else {
                let seen =
                    seen.get_or_insert_with(|| fields.iter().map(|(k, _)| k.clone()).collect());
                !seen.insert(key.clone())
            };
            if duplicate {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {}
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

/// Levenshtein edit distance (iterative two-row form).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            curr[j + 1] = subst.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// The closest candidate to `key` by edit distance, if it is close enough
/// to plausibly be a typo (distance ≤ max(2, len/3), ties broken by
/// candidate order).
pub(crate) fn suggest(key: &str, candidates: &[&'static str]) -> Option<&'static str> {
    let budget = (key.chars().count() / 3).max(2);
    candidates
        .iter()
        .map(|c| (edit_distance(key, c), *c))
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= budget)
        .map(|(_, c)| c)
}

/// Build an [`PipelineError::UnknownKey`] with the nearest valid key by
/// edit distance (suggested when the typo is within max(2, len/3) edits),
/// so every parser reports typos with the same structure and rule.
pub(crate) fn unknown_key(
    context: &'static str,
    key: &str,
    candidates: &[&'static str],
) -> PipelineError {
    PipelineError::UnknownKey {
        context,
        key: key.to_string(),
        suggestion: suggest(key, candidates).map(str::to_string),
    }
}

/// Who answers for a value the codec reads: the error a value of the wrong
/// type, a missing key or an unknown key becomes. Each variant's label
/// names the object in unknown-key messages.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Owner {
    /// One scenario field owns every value (`bad_spec` naming it): a
    /// tagged type's parameters, a custom corner, an `objective`.
    Field(&'static str),
    /// Each key owns its own value (`bad_spec` naming the key): the fields
    /// of a scenario and the sections of a wafer, co_opt or grid document.
    Doc(&'static str),
    /// The request envelope (`bad_request`).
    Envelope(&'static str),
}

impl Owner {
    fn label(self) -> &'static str {
        match self {
            Owner::Field(label) | Owner::Doc(label) | Owner::Envelope(label) => label,
        }
    }

    /// The error for a bad value under `key`.
    pub(crate) fn error(self, key: &'static str, msg: impl Into<String>) -> PipelineError {
        let msg = msg.into();
        match self {
            Owner::Field(field) => PipelineError::InvalidSpec { field, msg },
            Owner::Doc(_) => PipelineError::InvalidSpec { field: key, msg },
            Owner::Envelope(_) => PipelineError::BadRequest(msg),
        }
    }

    /// `v` as a number.
    pub(crate) fn num(self, key: &'static str, v: &Json) -> Result<f64> {
        v.as_f64()
            .ok_or_else(|| self.error(key, format!("`{key}` must be a number")))
    }

    /// `v` as an integral number in `[lo, hi]`; a fraction or an
    /// out-of-range value is an error, never truncated.
    pub(crate) fn int(self, key: &'static str, v: &Json, lo: u64, hi: u64) -> Result<u64> {
        match v {
            Json::Num(n) if n.fract() == 0.0 && *n >= lo as f64 && *n <= hi as f64 => Ok(*n as u64),
            _ => Err(self.error(key, format!("`{key}` must be an integer in [{lo}, {hi}]"))),
        }
    }

    /// `v` as a `u64` in the exact wire encoding of [`Json::from_u64`].
    pub(crate) fn u64(self, key: &'static str, v: &Json) -> Result<u64> {
        v.as_u64().ok_or_else(|| {
            self.error(
                key,
                format!("`{key}` must be a non-negative integer (or decimal string)"),
            )
        })
    }

    /// `v` as a string.
    pub(crate) fn str<'a>(self, key: &'static str, v: &'a Json) -> Result<&'a str> {
        v.as_str()
            .ok_or_else(|| self.error(key, format!("`{key}` must be a string")))
    }

    /// `v` as a boolean.
    pub(crate) fn bool(self, key: &'static str, v: &Json) -> Result<bool> {
        v.as_bool()
            .ok_or_else(|| self.error(key, format!("`{key}` must be a boolean")))
    }
}

/// Reject the first key of `fields` outside `keys` (and outside `kind`, the
/// tag of a `kind` object, when `tagged`).
fn check_keys(
    fields: &[(String, Json)],
    owner: Owner,
    keys: &[&'static str],
    tagged: bool,
) -> Result<()> {
    match fields
        .iter()
        .find(|(k, _)| !(keys.contains(&k.as_str()) || tagged && k == "kind"))
    {
        Some((k, _)) => Err(unknown_key(owner.label(), k, keys)),
        None => Ok(()),
    }
}

/// A checked view of one JSON object: every key is allowed, and typed
/// reads report a bad value through the object's [`Owner`]. Reads borrow
/// the document; nothing is copied.
#[derive(Debug)]
pub(crate) struct Obj<'a> {
    fields: &'a [(String, Json)],
    owner: Owner,
}

impl<'a> Obj<'a> {
    /// Open `v` as an object whose keys all appear in `keys`.
    pub(crate) fn new(v: &'a Json, owner: Owner, keys: &[&'static str]) -> Result<Self> {
        let label = owner.label();
        let fields = v
            .as_object()
            .ok_or_else(|| owner.error(label, format!("`{label}` must be an object")))?;
        check_keys(fields, owner, keys, false)?;
        Ok(Self { fields, owner })
    }

    /// The error for a bad value under `key`.
    pub(crate) fn error(&self, key: &'static str, msg: impl Into<String>) -> PipelineError {
        self.owner.error(key, msg)
    }

    /// The raw value under `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The raw value under `key`, which must be present.
    pub(crate) fn need(&self, key: &'static str) -> Result<&'a Json> {
        self.get(key)
            .ok_or_else(|| self.error(key, format!("missing `{key}`")))
    }

    /// A typed value under `key` (read with one of the readers below),
    /// which must be present.
    pub(crate) fn req<T>(
        &self,
        key: &'static str,
        read: impl FnOnce(&Self, &'static str) -> Result<Option<T>>,
    ) -> Result<T> {
        read(self, key)?.ok_or_else(|| self.error(key, format!("missing `{key}`")))
    }

    /// An optional number.
    pub(crate) fn num(&self, key: &'static str) -> Result<Option<f64>> {
        self.get(key).map(|v| self.owner.num(key, v)).transpose()
    }

    /// An optional integer in `[lo, hi]`.
    pub(crate) fn int(&self, key: &'static str, lo: u64, hi: u64) -> Result<Option<u64>> {
        self.get(key)
            .map(|v| self.owner.int(key, v, lo, hi))
            .transpose()
    }

    /// An optional `u64` in the [`Json::from_u64`] encoding.
    pub(crate) fn u64(&self, key: &'static str) -> Result<Option<u64>> {
        self.get(key).map(|v| self.owner.u64(key, v)).transpose()
    }

    /// An optional string.
    pub(crate) fn str(&self, key: &'static str) -> Result<Option<&'a str>> {
        self.get(key).map(|v| self.owner.str(key, v)).transpose()
    }
}

/// The wire table of one tagged type: its kinds in canonical order and,
/// aligned with them, each kind's parameter names.
pub(crate) struct Tagged {
    /// The kind names.
    pub kinds: &'static [&'static str],
    /// The parameter names of `kinds[i]`.
    pub params: &'static [&'static [&'static str]],
}

impl Tagged {
    /// Normalize a bare kind name, `{"kind": k, …}` or `{k: {…}}` into the
    /// kind and a reader over its parameters (none for a bare name, so a
    /// kind with required parameters needs an object form). Every error
    /// names `field`; an unknown kind or parameter name is
    /// [`PipelineError::UnknownKey`] with the nearest valid name.
    pub(crate) fn read<'a>(
        &self,
        field: &'static str,
        v: &'a Json,
    ) -> Result<(&'static str, Obj<'a>)> {
        let owner = Owner::Field(field);
        let kind = |name: &str| {
            self.kinds
                .iter()
                .position(|k| *k == name)
                .ok_or_else(|| unknown_key(field, name, self.kinds))
        };
        let (i, fields, tagged) = match v {
            Json::Str(name) => (kind(name)?, &[][..], false),
            Json::Obj(fields) => match (v.get("kind"), &fields[..]) {
                (Some(Json::Str(name)), _) => (kind(name)?, &fields[..], true),
                (Some(_), _) => return Err(owner.error(field, "`kind` must be a string")),
                (None, [(name, params)]) => {
                    let params = params.as_object().ok_or_else(|| {
                        owner.error(field, format!("`{name}` parameters must be an object"))
                    })?;
                    (kind(name)?, params, false)
                }
                (None, _) => {
                    return Err(owner.error(
                        field,
                        "object form needs a `kind` string or a single kind key",
                    ))
                }
            },
            _ => return Err(owner.error(field, "must be a string or an object")),
        };
        check_keys(fields, owner, self.params[i], tagged)?;
        Ok((self.kinds[i], Obj { fields, owner }))
    }

    /// The normal form of a value: its bare kind name when it has no
    /// parameters, the `kind` object otherwise.
    pub(crate) fn write(&self, kind: &'static str, params: Vec<(&'static str, Json)>) -> Json {
        debug_assert!(self.kinds.contains(&kind), "`{kind}` is not in the table");
        if params.is_empty() {
            return Json::Str(kind.into());
        }
        let mut fields = Vec::with_capacity(params.len() + 1);
        fields.push(("kind".to_string(), Json::Str(kind.into())));
        fields.extend(params.into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"
        // a grid file
        {
          "name": "sweep",        # with a comment
          "nodes": [45, 32, 22, 16],
          "nested": { "ok": true, "none": null, "pi": 3.25 },
        }
        "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("sweep"));
        assert_eq!(v.get("nodes").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            v.get("nested").unwrap().get("pi").unwrap().as_f64(),
            Some(3.25)
        );
        assert_eq!(v.get("nested").unwrap().get("none"), Some(&Json::Null));
    }

    #[test]
    fn round_trips_through_the_writer() {
        let doc = r#"{"a": [1, 2.5, -3e-2], "b": {"s": "x \"y\"\nz", "t": false}}"#;
        let v = Json::parse(doc).unwrap();
        let printed = v.to_string_pretty();
        let reparsed = Json::parse(&printed).unwrap();
        assert_eq!(v, reparsed, "pretty output must reparse to the same value");
    }

    #[test]
    fn compact_form_is_one_line_and_reparses() {
        let doc = r#"{"a": [1, 2.5, -3e-2], "b": {"s": "x \"y\"\nz", "t": false}, "c": null}"#;
        let v = Json::parse(doc).unwrap();
        let compact = v.to_string_compact();
        assert!(!compact.contains('\n'), "compact output must be one line");
        assert!(!compact.contains(": "), "no decorative whitespace");
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn preserves_key_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let bad = "{\n  \"a\": 1,\n  \"b\": oops\n}";
        match Json::parse(bad) {
            Err(PipelineError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert!(
            Json::parse("{\"a\": 1, \"a\": 2}").is_err(),
            "duplicate key"
        );
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err(), "trailing content");
        assert!(Json::parse("1e999").is_err(), "non-finite number");
    }

    #[test]
    fn nesting_depth_is_limited() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nested = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(Json::parse(&nested(MAX_NESTING_DEPTH)).is_ok(), "{open}");
            assert!(matches!(
                Json::parse(&nested(MAX_NESTING_DEPTH + 1)),
                Err(PipelineError::Parse { line: 1, .. })
            ));
        }
        // Far past the limit: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn u64_encoding_is_exact_across_the_full_range() {
        for n in [
            0,
            7,
            (1u64 << 53) - 1,
            1u64 << 53,
            (1u64 << 53) + 1,
            10_451_216_379_200_822_466,
            u64::MAX,
        ] {
            let encoded = Json::from_u64(n);
            let reparsed = Json::parse(&encoded.to_string_pretty()).unwrap();
            assert_eq!(reparsed.as_u64(), Some(n), "n = {n}");
        }
        // Small values stay plain numbers (human-friendly wire format).
        assert!(matches!(Json::from_u64(42), Json::Num(_)));
        // Values that would round in an f64 travel as strings.
        assert!(matches!(Json::from_u64(u64::MAX), Json::Str(_)));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
        assert_eq!(Json::Str("not a number".into()).as_u64(), None);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(suggest("nodenm", &crate::SCENARIO_KEYS), Some("node_nm"));
        assert_eq!(suggest("backened", &crate::SCENARIO_KEYS), Some("backend"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 8 MiB in one string, and 2 MiB of short strings: the old
        // per-character scan took 85 ms for 64 KiB and grew quadratically.
        let big = format!(r#"{{"pad": "{}", "id": "x"}}"#, "é".repeat(4 << 20));
        let many = format!("[{}\"\"]", "\"short\", ".repeat(1 << 18));
        let start = std::time::Instant::now();
        let v = Json::parse(&big).unwrap();
        assert_eq!(
            v.get("pad").and_then(Json::as_str).map(str::len),
            Some(8 << 20)
        );
        assert_eq!(
            Json::parse(&many).unwrap().as_array().map(<[Json]>::len),
            Some((1 << 18) + 1)
        );
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 20, "took {elapsed:?}");
    }

    #[test]
    fn wide_objects_parse_in_linear_time() {
        // One object of 200 000 keys: checking each key against every
        // earlier one took about 65 s in release.
        let keys = 200_000;
        let wide = |last: &str| {
            let mut doc = String::from("{");
            for i in 0..keys - 1 {
                doc.push_str(&format!("\"k{i}\":{i},"));
            }
            doc.push_str(&format!("\"{last}\":0}}"));
            doc
        };
        let start = std::time::Instant::now();
        let v = Json::parse(&wide("last")).unwrap();
        assert_eq!(v.as_object().map(<[_]>::len), Some(keys));
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 20, "took {elapsed:?}");
        // A duplicate as the very last key is still caught, and reported
        // on the line of the key.
        let err = Json::parse(&wide("k123")).unwrap_err();
        assert!(err.to_string().contains("duplicate key `k123`"), "{err}");
        assert!(
            Json::parse("{\"a\": 1,\n \"a\": 2}")
                .unwrap_err()
                .to_string()
                .contains("line 2"),
            "the error names the duplicate's line"
        );
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""café""#).unwrap();
        assert_eq!(v.as_str(), Some("café"));
    }
}

//! Self-contained JSON interchange for recorded traces.
//!
//! The paper's tools exchange traces as plain text so they can be piped
//! between processes; this module is the modern JSON equivalent,
//! implemented directly (a writer and a schema-directed reader) so the
//! trace crate stays free of external dependencies. The schema is flat
//! and stable:
//!
//! ```json
//! {
//!   "net_name": "bus",
//!   "place_names": ["Bus_free"],
//!   "transition_names": ["seize"],
//!   "initial_marking": [1],
//!   "initial_env": {"vars": {"x": 1}, "tables": {"ops": [0, 1]}},
//!   "start_time": 0,
//!   "end_time": 100,
//!   "deltas": [
//!     {"time": 1, "step": 0, "kind": {"type": "start", "transition": 0, "firing": 0}},
//!     {"time": 1, "step": 0, "kind": {"type": "place", "place": 0, "delta": -1}},
//!     {"time": 2, "step": 1, "kind": {"type": "var", "name": "x", "value": true}}
//!   ]
//! }
//! ```
//!
//! # Writing
//!
//! The writer lays every trace out one way: keys in the order above,
//! no whitespace, integers in plain decimal, and only `"`, `\` and
//! control characters escaped in strings. Each header field and each
//! delta is built from fixed byte runs and one decimal formatter in a
//! small reused buffer, which never holds more than one of them, and
//! handed to the output with one `write_all`.
//!
//! # Reading
//!
//! The reader makes one pass, linear in the input. It validates UTF-8
//! once over the whole buffer, then a byte cursor decodes the header
//! fields and each delta straight into the trace types. Strings without
//! escapes are borrowed from the input: keys and kind tags are never
//! copied, and names only once, into the trace.
//!
//! Two decoders read a delta. The canonical one takes only the layout
//! the writer emits, matching the writer's own byte runs (integers of
//! at most 18 digits), and declines anything else without an error.
//! The general one then reads the declined delta from its first byte.
//! It alone defines the accepted language and every error: wherever
//! the canonical decoder reads a delta, it reads exactly what the
//! general one would. Which of the two reads a delta depends on its
//! bytes alone. The accepted language:
//!
//! * keys come in any order; a field given twice keeps its first
//!   value, but a variable or table named twice inside `initial_env`
//!   keeps its last;
//! * unknown fields are skipped, but still syntax-checked, nesting
//!   included (at most 128 levels);
//! * integers are checked for type and range, and delta place and
//!   transition indices against the header once the pass is done;
//! * delta times never decrease and lie within `start_time..=end_time`,
//!   and delta steps never decrease;
//! * place counts are replayed from `initial_marking`, one add per
//!   place delta, and must stay within `0..=u32::MAX` (a `finish` with
//!   no `start` is fine: a continued run's header does not list the
//!   firings already in flight);
//! * a `\u` escape takes exactly four hex digits;
//! * nothing but whitespace may follow the trace.
//!
//! Input that is not UTF-8 is [`JsonError::Parse`] at its first bad
//! byte. Other input that is not well-formed JSON is `Parse` at its
//! first syntax error, even when a schema error comes before it.
//! Well-formed input that is not a trace is [`JsonError::Schema`].

use crate::{Delta, DeltaKind, RecordedTrace, TraceHeader};
use pnut_core::expr::{Env, Value};
use pnut_core::{PlaceId, Time, TransitionId};
use std::borrow::Cow;
use std::fmt;
use std::io::{Read, Write};

/// Why encoding or decoding a trace failed.
#[derive(Debug)]
pub enum JsonError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The input is not well-formed JSON.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset in the input.
        offset: usize,
    },
    /// The input is valid JSON but not a valid trace.
    Schema(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Io(e) => write!(f, "i/o: {e}"),
            JsonError::Parse { message, offset } => {
                write!(f, "malformed JSON at byte {offset}: {message}")
            }
            JsonError::Schema(m) => write!(f, "not a trace: {m}"),
        }
    }
}

impl std::error::Error for JsonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JsonError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JsonError {
    fn from(e: std::io::Error) -> Self {
        JsonError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

// The fixed bytes of a delta in the one layout `write_delta` writes,
// `{"time":T,"step":S,"kind":{"type":…}}`, in order; the canonical
// decoder matches the same runs.
const TIME: &[u8] = br#"{"time":"#;
const STEP: &[u8] = br#","step":"#;
const KIND: &[u8] = br#","kind":{"type":"#;
const START: &[u8] = br#""start","transition":"#;
const FINISH: &[u8] = br#""finish","transition":"#;
const FIRING: &[u8] = br#","firing":"#;
const PLACE: &[u8] = br#""place","place":"#;
const DELTA: &[u8] = br#","delta":"#;
const VAR: &[u8] = br#""var","name":"#;
const VALUE: &[u8] = br#","value":"#;
const END: &[u8] = b"}}";

/// `n` in decimal: the one number formatter of the writer.
fn decimal(out: &mut Vec<u8>, n: u64) {
    if n >= 10 {
        decimal(out, n / 10);
    }
    out.push(b'0' + (n % 10) as u8);
}

fn signed(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    decimal(out, n.unsigned_abs());
}

/// A string, escaped byte by byte: every byte that needs an escape is
/// ASCII, so the others are copied as they are.
fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(br#"\""#),
            b'\\' => out.extend_from_slice(br"\\"),
            b'\n' => out.extend_from_slice(br"\n"),
            b'\r' => out.extend_from_slice(br"\r"),
            b'\t' => out.extend_from_slice(br"\t"),
            0..0x20 => {
                let hex = b"0123456789abcdef";
                out.extend_from_slice(br"\u00");
                out.extend_from_slice(&[hex[usize::from(b >> 4)], hex[usize::from(b & 15)]]);
            }
            _ => out.push(b),
        }
    }
    out.push(b'"');
}

/// `items` between the two `brackets`, comma-separated.
fn write_seq<T>(
    out: &mut Vec<u8>,
    [open, close]: [u8; 2],
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut Vec<u8>, T),
) {
    out.push(open);
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        item(out, x);
    }
    out.push(close);
}

fn write_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(i) => signed(out, i),
        Value::Bool(b) => out.extend_from_slice(if b { b"true" } else { b"false" }),
    }
}

fn write_env(out: &mut Vec<u8>, env: &Env) {
    out.extend_from_slice(br#"{"vars":"#);
    write_seq(out, *b"{}", env.vars(), |out, (name, v)| {
        write_str(out, name);
        out.push(b':');
        write_value(out, v);
    });
    out.extend_from_slice(br#","tables":"#);
    write_seq(out, *b"{}", env.tables(), |out, (name, vals)| {
        write_str(out, name);
        out.push(b':');
        write_seq(out, *b"[]", vals, |out, &v| signed(out, v));
    });
    out.push(b'}');
}

fn write_delta(out: &mut Vec<u8>, d: &Delta) {
    out.extend_from_slice(TIME);
    decimal(out, d.time.ticks());
    out.extend_from_slice(STEP);
    decimal(out, d.step);
    out.extend_from_slice(KIND);
    match &d.kind {
        DeltaKind::Start { transition, firing } | DeltaKind::Finish { transition, firing } => {
            let start = matches!(d.kind, DeltaKind::Start { .. });
            out.extend_from_slice(if start { START } else { FINISH });
            decimal(out, transition.index() as u64);
            out.extend_from_slice(FIRING);
            decimal(out, *firing);
        }
        DeltaKind::PlaceDelta { place, delta } => {
            out.extend_from_slice(PLACE);
            decimal(out, place.index() as u64);
            out.extend_from_slice(DELTA);
            signed(out, *delta);
        }
        DeltaKind::VarSet { name, value } => {
            out.extend_from_slice(VAR);
            write_str(out, name);
            out.extend_from_slice(VALUE);
            write_value(out, *value);
        }
    }
    out.extend_from_slice(END);
}

/// Hand what `buf` holds to `out` with one `write_all`, and empty it.
fn hand(out: &mut impl Write, buf: &mut Vec<u8>) -> Result<(), JsonError> {
    out.write_all(buf)?;
    buf.clear();
    Ok(())
}

pub(crate) fn write_trace(trace: &RecordedTrace, mut out: impl Write) -> Result<(), JsonError> {
    let h = trace.header();
    let mut buf = Vec::new();
    buf.extend_from_slice(br#"{"net_name":"#);
    write_str(&mut buf, &h.net_name);
    hand(&mut out, &mut buf)?;
    buf.extend_from_slice(br#","place_names":"#);
    write_seq(&mut buf, *b"[]", &h.place_names, |out, s| write_str(out, s));
    hand(&mut out, &mut buf)?;
    buf.extend_from_slice(br#","transition_names":"#);
    write_seq(&mut buf, *b"[]", &h.transition_names, |out, s| {
        write_str(out, s)
    });
    hand(&mut out, &mut buf)?;
    buf.extend_from_slice(br#","initial_marking":"#);
    write_seq(&mut buf, *b"[]", &h.initial_marking, |out, &m| {
        decimal(out, m.into())
    });
    hand(&mut out, &mut buf)?;
    buf.extend_from_slice(br#","initial_env":"#);
    write_env(&mut buf, &h.initial_env);
    hand(&mut out, &mut buf)?;
    buf.extend_from_slice(br#","start_time":"#);
    decimal(&mut buf, h.start_time.ticks());
    buf.extend_from_slice(br#","end_time":"#);
    decimal(&mut buf, trace.end_time().ticks());
    buf.extend_from_slice(br#","deltas":["#);
    hand(&mut out, &mut buf)?;
    for (i, d) in trace.deltas().iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        write_delta(&mut buf, d);
        hand(&mut out, &mut buf)?;
    }
    buf.extend_from_slice(b"]}");
    hand(&mut out, &mut buf)?;
    out.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Nesting ceiling: traces nest four levels, so anything deeper is
/// garbage — reject it as a parse error instead of overflowing the stack
/// while skipping it.
const MAX_DEPTH: u32 = 128;

/// A byte cursor over input already validated as UTF-8, decoding the
/// trace schema as it goes. `depth` is the nesting level of the value at
/// `pos` (the document itself is level 0).
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    depth: u32,
}

/// Where the first occurrence of each known delta-kind field's value
/// starts.
#[derive(Default)]
struct KindOffsets {
    ty: Option<usize>,
    transition: Option<usize>,
    firing: Option<usize>,
    place: Option<usize>,
    delta: Option<usize>,
    name: Option<usize>,
    value: Option<usize>,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Parse {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// A schema error — unless the input is not well-formed JSON at all.
    /// A syntax error anywhere wins, so which of the two an input gets
    /// does not depend on how far the decoder read before failing.
    fn schema(&self, message: impl Into<String>) -> JsonError {
        match Cursor::new(self.text).document(Cursor::skip) {
            Err(e) => e,
            Ok(()) => JsonError::Schema(message.into()),
        }
    }

    /// The JSON type of the value at the cursor, for schema messages
    /// (only a well-formed value reaches one; see `schema`).
    fn found(&self) -> &'static str {
        match self.peek() {
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            _ => "number",
        }
    }

    fn required<T>(&self, slot: Option<T>, name: &str) -> Result<T, JsonError> {
        slot.ok_or_else(|| self.schema(format!("missing field `{name}`")))
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        let hit = self.bytes()[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// The whole input: one value, then nothing but whitespace.
    fn document<T>(
        &mut self,
        value: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.ws();
        let v = value(self)?;
        self.ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing input"));
        }
        Ok(v)
    }

    /// Syntax-check and step over one value of any type.
    fn skip(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'{') => self.object("", |c, _| c.skip()),
            Some(b'[') => self.array("", Cursor::skip),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ if self.eat(b"true") || self.eat(b"false") || self.eat(b"null") => Ok(()),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The comma-separated members of an array or object, from its
    /// opening bracket through `close`; `item` consumes one member.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.depth += 1;
        self.ws();
        if self.peek() != Some(close) {
            loop {
                self.ws();
                item(self)?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.err(format!("expected `,` or `{}`", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Step through an object, handing `member` each key with the cursor
    /// on its value, which `member` must consume.
    fn object(
        &mut self,
        what: &str,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() != Some(b'{') {
            return Err(self.schema(format!("{what}: expected object, found {}", self.found())));
        }
        self.items(b'}', |c| {
            let key = c.string()?;
            c.ws();
            c.expect(b':')?;
            c.ws();
            member(c, &key)
        })
    }

    fn array(
        &mut self,
        what: &str,
        item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() != Some(b'[') {
            return Err(self.schema(format!("{what}: expected array, found {}", self.found())));
        }
        self.items(b']', item)
    }

    fn list<T>(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut items = Vec::new();
        self.array(what, |c| {
            items.push(item(c)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// Decode a field's first occurrence into `slot`; later duplicates are
    /// only syntax-checked.
    fn first<T>(
        &mut self,
        slot: &mut Option<T>,
        decode: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<(), JsonError> {
        if slot.is_some() {
            return self.skip();
        }
        *slot = Some(decode(self)?);
        Ok(())
    }

    /// One string, borrowed from the input unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(len) = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += len;
            // `"` and `\` are ASCII, so both ends of the run are char
            // boundaries.
            let run = &text[start..self.pos];
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(s) => Cow::Owned(s + run),
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            self.pos += 1;
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.err("bad escape")),
            });
            self.pos += 1;
        }
    }

    /// The character of a `\u` escape, which takes exactly four hex
    /// digits; the cursor is on the `u` and ends on the last digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex = self
            .bytes()
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = hex
            .iter()
            .try_fold(0, |code, &h| Some(code * 16 + char::from(h).to_digit(16)?))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        // Traces only emit BMP characters; surrogate pairs decode to the
        // replacement character.
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// One number: `Some` if integral, `None` if it has a fraction or an
    /// exponent. As JSON has it, the integer part is `0` or starts with
    /// another digit, and a `.` or an exponent needs a digit after it.
    /// Integers beyond `i128` are malformed.
    fn number(&mut self) -> Result<Option<i128>, JsonError> {
        /// The number of digits passed.
        fn digits(c: &mut Cursor<'_>) -> usize {
            let start = c.pos;
            while matches!(c.peek(), Some(b'0'..=b'9')) {
                c.pos += 1;
            }
            c.pos - start
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let mut valid = match digits(self) {
            0 => false,
            1 => true,
            _ => !leading_zero,
        };
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            valid &= digits(self) > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= digits(self) > 0;
        }
        if !valid {
            return Err(self.err("invalid number"));
        }
        let text = &self.text[start..self.pos];
        let number = if integral {
            text.parse().ok().map(Some)
        } else {
            text.parse::<f64>().ok().map(|_| None)
        };
        number.ok_or_else(|| self.err("invalid number"))
    }

    /// An integer converted to `T`; `expected` names what the field
    /// accepts, for the type-mismatch message.
    fn int_or<T: TryFrom<i128>>(&mut self, what: &str, expected: &str) -> Result<T, JsonError> {
        let found = self.found();
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            if let Some(i) = self.number()? {
                return T::try_from(i)
                    .map_err(|_| self.schema(format!("{what}: {i} out of range")));
            }
        }
        Err(self.schema(format!("{what}: expected {expected}, found {found}")))
    }

    fn int<T: TryFrom<i128>>(&mut self, what: &str) -> Result<T, JsonError> {
        self.int_or(what, "integer")
    }

    fn value(&mut self, what: &str) -> Result<Value, JsonError> {
        if self.eat(b"true") {
            Ok(Value::Bool(true))
        } else if self.eat(b"false") {
            Ok(Value::Bool(false))
        } else {
            self.int_or(what, "integer or bool").map(Value::Int)
        }
    }

    fn str(&mut self, what: &str) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.schema(format!("{what}: expected string, found {}", self.found())));
        }
        self.string()
    }

    fn env(&mut self) -> Result<Env, JsonError> {
        let mut env = Env::new();
        let (mut vars, mut tables) = (None, None);
        self.object("initial_env", |c, key| match key {
            "vars" => c.first(&mut vars, |c| {
                c.object("env vars", |c, name| {
                    env.set_var(name, c.value("env var")?);
                    Ok(())
                })
            }),
            "tables" => c.first(&mut tables, |c| {
                c.object("env tables", |c, name| {
                    env.define_table(name, c.list("env table", |c| c.int("table element"))?);
                    Ok(())
                })
            }),
            _ => c.skip(),
        })?;
        self.required(vars, "vars")?;
        self.required(tables, "tables")?;
        Ok(env)
    }

    /// One delta: by the canonical decoder if it is in the layout
    /// `write_delta` writes, or else by the general one, from its first
    /// byte.
    fn delta(&mut self) -> Result<Delta, JsonError> {
        let start = self.pos;
        if let Some(delta) = self.canonical_delta() {
            return Ok(delta);
        }
        self.pos = start;
        self.general_delta()
    }

    /// A delta in exactly the layout `write_delta` writes: its byte runs
    /// in order, integers of at most 18 digits. Anything else is `None`,
    /// never an error, with the cursor anywhere inside the delta.
    fn canonical_delta(&mut self) -> Option<Delta> {
        let time = Time::from_ticks(self.after(TIME)?.canonical_int(false)?);
        let step = self.after(STEP)?.canonical_int(false)?;
        let kind = if self.after(KIND)?.eat(PLACE) {
            let place = PlaceId::new(self.canonical_int(false)?);
            let delta = self.after(DELTA)?.canonical_int(true)?;
            DeltaKind::PlaceDelta { place, delta }
        } else if self.eat(VAR) {
            let name = self.string().ok()?.into_owned();
            let value = if self.after(VALUE)?.eat(b"true") {
                Value::Bool(true)
            } else if self.eat(b"false") {
                Value::Bool(false)
            } else {
                Value::Int(self.canonical_int(true)?)
            };
            DeltaKind::VarSet { name, value }
        } else if self.eat(START) {
            let (transition, firing) = self.canonical_firing()?;
            DeltaKind::Start { transition, firing }
        } else {
            let (transition, firing) = self.after(FINISH)?.canonical_firing()?;
            DeltaKind::Finish { transition, firing }
        };
        self.after(END)?;
        Some(Delta { time, step, kind })
    }

    /// A transition index and firing number, as `write_delta` writes
    /// them.
    fn canonical_firing(&mut self) -> Option<(TransitionId, u64)> {
        let transition = TransitionId::new(self.canonical_int(false)?);
        Some((transition, self.after(FIRING)?.canonical_int(false)?))
    }

    /// The cursor past `run`, which must come next.
    fn after(&mut self, run: &[u8]) -> Option<&mut Self> {
        self.eat(run).then_some(self)
    }

    /// An integer as `decimal` writes it, after a `-` only if `signed`:
    /// at most 18 digits, so it cannot overflow an `i64`, and no leading
    /// `0` unless it is the only digit.
    fn canonical_int<T: TryFrom<i64>>(&mut self, signed: bool) -> Option<T> {
        let negative = signed && self.eat(b"-");
        let digits = &self.bytes()[self.pos..];
        let len = digits.iter().take(19).position(|b| !b.is_ascii_digit());
        let len = len.filter(|&len| len == 1 || (len > 1 && digits[0] != b'0'))?;
        self.pos += len;
        let n = digits[..len]
            .iter()
            .fold(0, |n, &d| n * 10 + i64::from(d - b'0'));
        T::try_from(if negative { -n } else { n }).ok()
    }

    /// One delta, keys in any order: the general decoder, which defines
    /// the language and every error.
    fn general_delta(&mut self) -> Result<Delta, JsonError> {
        let (mut time, mut step, mut kind) = (None, None, None);
        self.object("delta", |c, key| match key {
            "time" => c.first(&mut time, |c| c.int("delta time")),
            "step" => c.first(&mut step, |c| c.int("delta step")),
            "kind" => c.first(&mut kind, Cursor::kind),
            _ => c.skip(),
        })?;
        Ok(Delta {
            time: Time::from_ticks(self.required(time, "time")?),
            step: self.required(step, "step")?,
            kind: self.required(kind, "kind")?,
        })
    }

    /// One delta kind. `type` decides which fields matter and may come
    /// after them, so the pass over the object only notes where each
    /// known field starts; the ones `type` needs are decoded afterwards.
    fn kind(&mut self) -> Result<DeltaKind, JsonError> {
        let mut at = KindOffsets::default();
        self.object("delta kind", |c, key| {
            let slot = match key {
                "type" => &mut at.ty,
                "transition" => &mut at.transition,
                "firing" => &mut at.firing,
                "place" => &mut at.place,
                "delta" => &mut at.delta,
                "name" => &mut at.name,
                "value" => &mut at.value,
                _ => return c.skip(),
            };
            slot.get_or_insert(c.pos);
            c.skip()
        })?;
        let end = self.pos;
        let ty = self.seek(at.ty, "type")?.str("delta kind")?;
        let kind = match &*ty {
            "start" | "finish" => {
                let transition =
                    TransitionId::new(self.seek(at.transition, "transition")?.int("transition")?);
                let firing = self.seek(at.firing, "firing")?.int("firing")?;
                if ty == "start" {
                    DeltaKind::Start { transition, firing }
                } else {
                    DeltaKind::Finish { transition, firing }
                }
            }
            "place" => DeltaKind::PlaceDelta {
                place: PlaceId::new(self.seek(at.place, "place")?.int("place")?),
                delta: self.seek(at.delta, "delta")?.int("delta")?,
            },
            "var" => DeltaKind::VarSet {
                name: self.seek(at.name, "name")?.str("var name")?.into_owned(),
                value: self.seek(at.value, "value")?.value("var value")?,
            },
            other => return Err(self.schema(format!("unknown delta kind `{other}`"))),
        };
        self.pos = end;
        Ok(kind)
    }

    /// Move to a noted kind field, which must be present.
    fn seek(&mut self, start: Option<usize>, name: &str) -> Result<&mut Self, JsonError> {
        self.pos = self.required(start, name)?;
        Ok(self)
    }
}

pub(crate) fn read_trace(mut reader: impl Read) -> Result<RecordedTrace, JsonError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let text = std::str::from_utf8(&bytes).map_err(|e| JsonError::Parse {
        message: "invalid UTF-8".into(),
        offset: e.valid_up_to(),
    })?;
    let mut c = Cursor::new(text);
    let (mut net_name, mut place_names, mut transition_names) = (None, None, None);
    let (mut initial_marking, mut initial_env) = (None, None);
    let (mut start_time, mut end_time, mut deltas) = (None, None, None);
    c.document(|c| {
        c.object("top level", |c, key| match key {
            "net_name" => c.first(&mut net_name, |c| c.str("net_name")),
            "place_names" => c.first(&mut place_names, |c| {
                c.list("place_names", |c| Ok(c.str("place name")?.into_owned()))
            }),
            "transition_names" => c.first(&mut transition_names, |c| {
                c.list("transition_names", |c| {
                    Ok(c.str("transition name")?.into_owned())
                })
            }),
            "initial_marking" => c.first(&mut initial_marking, |c| {
                c.list("initial_marking", |c| c.int("marking entry"))
            }),
            "initial_env" => c.first(&mut initial_env, Cursor::env),
            "start_time" => c.first(&mut start_time, |c| c.int("start_time")),
            "end_time" => c.first(&mut end_time, |c| c.int("end_time")),
            "deltas" => c.first(&mut deltas, |c| c.list("deltas", Cursor::delta)),
            _ => c.skip(),
        })
    })?;

    let place_names = c.required(place_names, "place_names")?;
    let transition_names = c.required(transition_names, "transition_names")?;
    let initial_marking: Vec<u32> = c.required(initial_marking, "initial_marking")?;
    if initial_marking.len() != place_names.len() {
        return Err(JsonError::Schema(
            "initial_marking length differs from place_names".into(),
        ));
    }
    // Indices, times, steps and place counts are checked once the
    // header is in hand (keys come in any order), so a malformed trace
    // fails here instead of panicking, or being clamped or split into
    // wrong states, downstream in `StateIter` or the statistics.
    let deltas = c.required(deltas, "deltas")?;
    let start_time = Time::from_ticks(c.required(start_time, "start_time")?);
    let end_time = Time::from_ticks(c.required(end_time, "end_time")?);
    let (mut clock, mut step) = (start_time, 0);
    let mut tokens: Vec<i64> = initial_marking.iter().map(|&m| i64::from(m)).collect();
    for d in &deltas {
        if d.time < clock {
            return Err(JsonError::Schema(format!(
                "delta at time {} precedes time {clock}",
                d.time
            )));
        }
        if d.step < step {
            return Err(JsonError::Schema(format!(
                "delta step {} precedes step {step}",
                d.step
            )));
        }
        (clock, step) = (d.time, d.step);
        let (what, index, count) = match d.kind {
            DeltaKind::Start { transition, .. } | DeltaKind::Finish { transition, .. } => {
                ("transition", transition.index(), transition_names.len())
            }
            DeltaKind::PlaceDelta { place, .. } => ("place", place.index(), place_names.len()),
            DeltaKind::VarSet { .. } => continue,
        };
        if index >= count {
            return Err(JsonError::Schema(format!(
                "{what} index {index} out of range ({count} {what}s)"
            )));
        }
        if let DeltaKind::PlaceDelta { delta, .. } = d.kind {
            let held = tokens[index].saturating_add(delta);
            if !(0..=i64::from(u32::MAX)).contains(&held) {
                return Err(JsonError::Schema(format!(
                    "place `{}` would hold {held} tokens at time {}",
                    place_names[index], d.time
                )));
            }
            tokens[index] = held;
        }
    }
    if end_time < clock {
        return Err(JsonError::Schema(format!(
            "end_time {end_time} precedes time {clock}"
        )));
    }
    let header = TraceHeader {
        net_name: c.required(net_name, "net_name")?.into_owned(),
        place_names,
        transition_names,
        initial_marking,
        initial_env: c.required(initial_env, "initial_env")?,
        start_time,
    };
    Ok(RecordedTrace::new(header, deltas, end_time))
}

/// The index of the first delta of `trace` that the canonical decoder
/// does not read back exactly as `write_trace` writes it. Test-only: it
/// lets a test show that every delta of a run takes the canonical path.
#[doc(hidden)]
pub fn first_noncanonical_delta(trace: &RecordedTrace) -> Option<usize> {
    let mut buf = Vec::new();
    trace.deltas().iter().position(|d| {
        buf.clear();
        write_delta(&mut buf, d);
        let mut c = Cursor::new(std::str::from_utf8(&buf).expect("the writer writes UTF-8"));
        c.canonical_delta().as_ref() != Some(d) || c.pos != buf.len()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid trace with `extra` spliced in as an unknown field
    /// and `net_name` as given, both raw JSON.
    fn trace_with(extra: &str, net_name: &str) -> Vec<u8> {
        format!(
            r#"{{"extra": {extra}, "net_name": {net_name}, "place_names": ["p"],
            "transition_names": ["t"], "initial_marking": [0],
            "initial_env": {{"vars": {{}}, "tables": {{}}}}, "start_time": 0,
            "end_time": 0, "deltas": []}}"#
        )
        .into_bytes()
    }

    /// A trace whose names need every string path: plain ASCII, bare
    /// non-ASCII (borrowed on read) and characters the writer escapes.
    fn odd_names_trace() -> RecordedTrace {
        let odd = ["q\"", "b\\", "n\n", "t\t", "c\u{1}", "é", "日本", "plain"];
        let names = |prefix: &str| odd.iter().map(|s| format!("{prefix}{s}")).collect();
        let mut env = Env::new();
        for (i, name) in odd.iter().enumerate() {
            env.set_var(format!("v{name}"), Value::Int(i as i64 - 3));
        }
        env.define_table("tab\"é", vec![-1, 0, i64::MAX]);
        let header = TraceHeader::new(odd.concat(), names("p"), names("t"))
            .with_initial_marking((0..odd.len() as u32).collect())
            .with_initial_env(env);
        let mut deltas = Vec::new();
        for (i, name) in odd.iter().enumerate() {
            let time = Time::from_ticks(i as u64);
            let transition = TransitionId::new(i);
            deltas.extend([
                Delta::new(
                    time,
                    2 * i as u64,
                    DeltaKind::Start {
                        transition,
                        firing: i as u64,
                    },
                ),
                Delta::new(
                    time,
                    2 * i as u64,
                    DeltaKind::PlaceDelta {
                        place: PlaceId::new(i),
                        delta: -(i as i64),
                    },
                ),
                Delta::new(
                    time,
                    2 * i as u64 + 1,
                    DeltaKind::VarSet {
                        name: format!("v{name}"),
                        value: Value::Bool(i % 2 == 0),
                    },
                ),
                Delta::new(
                    time,
                    2 * i as u64 + 1,
                    DeltaKind::Finish {
                        transition,
                        firing: i as u64,
                    },
                ),
            ]);
        }
        RecordedTrace::new(header, deltas, Time::from_ticks(99))
    }

    fn written(trace: &RecordedTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(trace, &mut buf).unwrap();
        buf
    }

    #[test]
    fn parser_handles_scalars_and_nesting() {
        for extra in [
            "null",
            " true ",
            "-42",
            "1.5",
            r#""a\nbA""#,
            r#"{"a": [1, {"b": []}], "c": "x"}"#,
        ] {
            let doc = trace_with(extra, r#""n""#);
            assert!(read_trace(doc.as_slice()).is_ok(), "should accept: {extra}");
        }
        for (net_name, decoded) in [(r#""a\nbA""#, "a\nbA"), (r#""\u0041""#, "A")] {
            let trace = read_trace(trace_with("0", net_name).as_slice()).unwrap();
            assert_eq!(trace.header().net_name, decoded);
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        let is_parse = |doc: &[u8]| matches!(read_trace(doc), Err(JsonError::Parse { .. }));
        for bad in ["{", "[1,", "\"unterminated", "12 34", "{\"a\" 1}", "nulll"] {
            assert!(is_parse(bad.as_bytes()), "should fail to parse: {bad}");
            assert!(
                is_parse(&trace_with(bad, r#""n""#)),
                "should fail spliced: {bad}"
            );
        }
        // A syntax error anywhere outranks an earlier schema error.
        let mut doc = trace_with("0", "5");
        assert!(matches!(
            read_trace(doc.as_slice()),
            Err(JsonError::Schema(_))
        ));
        doc.pop();
        assert!(is_parse(&doc), "truncated after a schema error");
        // `\u` takes exactly four hex digits: no sign, no short form.
        for net_name in [r#""x\u+041""#, r#""x\u041""#] {
            let e = read_trace(trace_with("0", net_name).as_slice()).unwrap_err();
            assert!(e.to_string().contains("bad \\u escape"), "{e}");
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_crash() {
        let bomb = trace_with(&"[".repeat(100_000), r#""n""#);
        let e = read_trace(bomb.as_slice()).unwrap_err();
        assert!(matches!(e, JsonError::Parse { .. }), "{e}");
        assert!(e.to_string().contains("nesting"), "{e}");
    }

    #[test]
    fn every_strict_prefix_is_an_error() {
        let buf = written(&odd_names_trace());
        for n in 0..buf.len() {
            assert!(
                read_trace(&buf[..n]).is_err(),
                "prefix of {n} bytes accepted"
            );
        }
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_at_the_bad_byte() {
        let mut buf = written(&odd_names_trace());
        let at = buf.windows(5).position(|w| w == b"plain").unwrap() + 2;
        buf[at] = 0xff;
        match read_trace(buf.as_slice()) {
            Err(JsonError::Parse { offset, .. }) => assert_eq!(offset, at),
            other => panic!("expected a parse error at byte {at}, got {other:?}"),
        }
    }

    #[test]
    fn odd_names_round_trip() {
        let trace = odd_names_trace();
        assert_eq!(read_trace(written(&trace).as_slice()).unwrap(), trace);
    }

    #[test]
    fn keys_come_in_any_order_and_the_first_duplicate_wins() {
        let t = br#"{"deltas":[{"kind":{"delta":-1,"transition":"x","place":0,"type":"place",
            "place":"dup"},"step":0,"time":2,"time":"dup"}],"end_time":5,"start_time":1,
            "initial_env":{"tables":{"tab":[3]},"vars":{"x":1,"x":true},"vars":7},
            "initial_marking":[1],"transition_names":["t"],"place_names":["p"],
            "net_name":"n","net_name":7}"#;
        let trace = read_trace(&t[..]).unwrap();
        let mut env = Env::new();
        env.set_var("x", Value::Bool(true));
        env.define_table("tab", vec![3]);
        let header = TraceHeader::new("n", vec!["p".into()], vec!["t".into()])
            .with_initial_marking(vec![1])
            .with_initial_env(env);
        let header = TraceHeader {
            start_time: Time::from_ticks(1),
            ..header
        };
        let delta = Delta::new(
            Time::from_ticks(2),
            0,
            DeltaKind::PlaceDelta {
                place: PlaceId::new(0),
                delta: -1,
            },
        );
        assert_eq!(
            trace,
            RecordedTrace::new(header, vec![delta], Time::from_ticks(5))
        );
    }

    /// One delta of each kind as `write_trace` writes it: start, finish,
    /// place, var.
    const WRITTEN: [&str; 4] = [
        r#"{"time":15,"step":12,"kind":{"type":"start","transition":1,"firing":13}}"#,
        r#"{"time":15,"step":12,"kind":{"type":"finish","transition":1,"firing":13}}"#,
        r#"{"time":15,"step":12,"kind":{"type":"place","place":1,"delta":-1}}"#,
        r#"{"time":15,"step":12,"kind":{"type":"var","name":"x","value":7}}"#,
    ];

    /// The header fields of the documents `delta_document` builds, in
    /// the order `write_trace` writes them.
    const HEADER: &str = concat!(
        r#""net_name":"n","place_names":["p","q"],"transition_names":["t","u"],"#,
        r#""initial_marking":[0,1],"initial_env":{"vars":{},"tables":{}},"#,
        r#""start_time":0,"end_time":18446744073709551615"#
    );

    /// A trace whose one delta, `delta`, comes before the header, so
    /// byte `N` of the delta is byte `N + 11` of the document.
    fn delta_document(delta: &str) -> String {
        format!(r#"{{"deltas":[{delta}],{HEADER}}}"#)
    }

    /// What reading `doc` gives: its one delta as `Delta` displays it
    /// (the rest must be `HEADER`'s), or the error text.
    fn outcome(doc: &str) -> String {
        let empty = read_trace(delta_document("").as_bytes()).unwrap();
        match read_trace(doc.as_bytes()) {
            Ok(trace) => {
                assert_eq!(trace.header(), empty.header(), "{doc}");
                assert_eq!(trace.end_time(), empty.end_time(), "{doc}");
                let [delta] = trace.deltas() else {
                    panic!("{doc}: {} deltas", trace.deltas().len())
                };
                delta.to_string()
            }
            Err(e) => e.to_string(),
        }
    }

    /// Where the value of `delta`'s member `key` starts and ends.
    fn value_span(delta: &str, key: &str) -> (usize, usize) {
        let member = format!("\"{key}\":");
        let at = delta.find(&member).unwrap() + member.len();
        let end = match key {
            "kind" => delta.len() - 1,
            _ => at + delta[at..].find([',', '}']).unwrap(),
        };
        (at, end)
    }

    /// The reader's answers on one written delta of each kind and on
    /// variants `write_trace` never writes. A row of `VARIANTS` is a
    /// whole delta, or `KIND KEY=VALUE` (that kind's written delta with
    /// one member's value replaced), or `KIND cut KEY` (its document cut
    /// before the last byte of that member's value).
    #[test]
    fn delta_variants_read_as_pinned() {
        const VARIANTS: &str = r#"
{ "time":15,"step":12,"kind":{ "type":"start","transition":1,"firing":13}} => @15 #12 start t1 (firing 13)
{"time": 15,"step": 12,"kind": {"type": "finish","transition": 1,"firing": 13}} => @15 #12 finish t1 (firing 13)
{"time":15, "step":12, "kind":{"type":"place", "place":1, "delta":-1}} => @15 #12 p1 -1
{"kind":{"type":"start","transition":1,"firing":13},"time":15,"step":12} => @15 #12 start t1 (firing 13)
{"time":15,"step":12,"kind":{"place":1,"delta":-1,"type":"place"}} => @15 #12 p1 -1
{"time":15,"time":16,"step":12,"kind":{"type":"start","transition":1,"firing":13}} => @15 #12 start t1 (firing 13)
{"time":15,"step":12,"kind":{"type":"start","type":"finish","transition":1,"firing":13}} => @15 #12 start t1 (firing 13)
{"time":15,"step":"x","step":12,"kind":{"type":"start","transition":1,"firing":13}} => not a trace: delta step: expected integer, found string
{"time":15,"x":[1,{"y":null}],"step":12,"kind":{"type":"finish","transition":1,"firing":13}} => @15 #12 finish t1 (firing 13)
{"time":15,"x":1.,"step":12,"kind":{"type":"start","transition":1,"firing":13}} => malformed JSON at byte 28: invalid number
{"time":15,"x":-01,"step":12,"kind":{"type":"start","transition":1,"firing":13}} => malformed JSON at byte 29: invalid number
{"time":15,"x":1.e5,"step":12,"kind":{"type":"start","transition":1,"firing":13}} => malformed JSON at byte 30: invalid number
{"time":15,"x":01.5,"step":12,"kind":{"type":"start","transition":1,"firing":13}} => malformed JSON at byte 30: invalid number
{"time":15,"step":12,"kind":{"type":"var","note":"hi","name":"x","value":7}} => @15 #12 x = 7
var name="a\"b" => @15 #12 a"b = 7
var name="\u0041" => @15 #12 A = 7
var value=-5 => @15 #12 x = -5
var value=1.5 => not a trace: var value: expected integer or bool, found number
var value="x" => not a trace: var value: expected integer or bool, found string
var value=true => @15 #12 x = true
start time=007 => malformed JSON at byte 22: invalid number
start time=-0 => @0 #12 start t1 (firing 13)
start time=999999999999999999 => @999999999999999999 #12 start t1 (firing 13)
start time=9999999999999999999 => @9999999999999999999 #12 start t1 (firing 13)
start time=99999999999999999999 => not a trace: delta time: 99999999999999999999 out of range
start time=1.0 => not a trace: delta time: expected integer, found number
start time=1e0 => not a trace: delta time: expected integer, found number
finish step=007 => malformed JSON at byte 32: invalid number
finish step=-0 => @15 #0 finish t1 (firing 13)
finish step=999999999999999999 => @15 #999999999999999999 finish t1 (firing 13)
finish step=9999999999999999999 => @15 #9999999999999999999 finish t1 (firing 13)
finish step=99999999999999999999 => not a trace: delta step: 99999999999999999999 out of range
finish step=1.0 => not a trace: delta step: expected integer, found number
finish step=1e0 => not a trace: delta step: expected integer, found number
start transition=007 => malformed JSON at byte 71: invalid number
start transition=-0 => @15 #12 start t0 (firing 13)
start transition=999999999999999999 => not a trace: transition index 999999999999999999 out of range (2 transitions)
start transition=9999999999999999999 => not a trace: transition index 9999999999999999999 out of range (2 transitions)
start transition=99999999999999999999 => not a trace: transition: 99999999999999999999 out of range
start transition=1.0 => not a trace: transition: expected integer, found number
start transition=1e0 => not a trace: transition: expected integer, found number
finish firing=007 => malformed JSON at byte 83: invalid number
finish firing=-0 => @15 #12 finish t1 (firing 0)
finish firing=999999999999999999 => @15 #12 finish t1 (firing 999999999999999999)
finish firing=9999999999999999999 => @15 #12 finish t1 (firing 9999999999999999999)
finish firing=99999999999999999999 => not a trace: firing: 99999999999999999999 out of range
finish firing=1.0 => not a trace: firing: expected integer, found number
finish firing=1e0 => not a trace: firing: expected integer, found number
place place=007 => malformed JSON at byte 66: invalid number
place place=-0 => not a trace: place `p` would hold -1 tokens at time 15
place place=999999999999999999 => not a trace: place index 999999999999999999 out of range (2 places)
place place=9999999999999999999 => not a trace: place index 9999999999999999999 out of range (2 places)
place place=99999999999999999999 => not a trace: place: 99999999999999999999 out of range
place place=1.0 => not a trace: place: expected integer, found number
place place=1e0 => not a trace: place: expected integer, found number
place delta=007 => malformed JSON at byte 76: invalid number
place delta=-0 => @15 #12 p1 +0
place delta=999999999999999999 => not a trace: place `q` would hold 1000000000000000000 tokens at time 15
place delta=9999999999999999999 => not a trace: delta: 9999999999999999999 out of range
place delta=99999999999999999999 => not a trace: delta: 99999999999999999999 out of range
place delta=1.0 => not a trace: delta: expected integer, found number
place delta=1e0 => not a trace: delta: expected integer, found number
var value=007 => malformed JSON at byte 75: invalid number
var value=-0 => @15 #12 x = 0
var value=999999999999999999 => @15 #12 x = 999999999999999999
var value=9999999999999999999 => not a trace: var value: 9999999999999999999 out of range
var value=99999999999999999999 => not a trace: var value: 99999999999999999999 out of range
var value=1.0 => not a trace: var value: expected integer or bool, found number
var value=1e0 => not a trace: var value: expected integer or bool, found number
start cut time => malformed JSON at byte 20: expected `,` or `}`
start cut step => malformed JSON at byte 30: expected `,` or `}`
start cut type => malformed JSON at byte 53: unterminated string
start cut transition => malformed JSON at byte 68: expected a JSON value
start cut firing => malformed JSON at byte 80: expected `,` or `}`
start cut kind => malformed JSON at byte 81: expected `,` or `}`
finish cut time => malformed JSON at byte 20: expected `,` or `}`
finish cut step => malformed JSON at byte 30: expected `,` or `}`
finish cut type => malformed JSON at byte 54: unterminated string
finish cut transition => malformed JSON at byte 69: expected a JSON value
finish cut firing => malformed JSON at byte 81: expected `,` or `}`
finish cut kind => malformed JSON at byte 82: expected `,` or `}`
place cut time => malformed JSON at byte 20: expected `,` or `}`
place cut step => malformed JSON at byte 30: expected `,` or `}`
place cut type => malformed JSON at byte 53: unterminated string
place cut place => malformed JSON at byte 63: expected a JSON value
place cut delta => malformed JSON at byte 74: invalid number
place cut kind => malformed JSON at byte 75: expected `,` or `}`
var cut time => malformed JSON at byte 20: expected `,` or `}`
var cut step => malformed JSON at byte 30: expected `,` or `}`
var cut type => malformed JSON at byte 51: unterminated string
var cut name => malformed JSON at byte 62: unterminated string
var cut value => malformed JSON at byte 72: expected a JSON value
var cut kind => malformed JSON at byte 73: expected `,` or `}`
"#;
        for (i, delta) in WRITTEN.iter().enumerate() {
            let trace = read_trace(delta_document(delta).as_bytes()).unwrap();
            let canonical = format!(r#"{{{HEADER},"deltas":[{delta}]}}"#);
            assert_eq!(written(&trace), canonical.as_bytes(), "WRITTEN[{i}]");
        }
        let kinds = ["start", "finish", "place", "var"];
        // Whitespace of every kind, before `}` too.
        let spaced = "{\"time\":15,\n\t\"step\":12,\r\"kind\":{\"type\":\"var\",\"name\":\"x\",\"value\":7 } }";
        let mut rows = vec![(spaced.to_owned(), delta_document(spaced), "@15 #12 x = 7")];
        for row in VARIANTS.trim().lines() {
            let (variant, pinned) = row.split_once(" => ").unwrap();
            let doc = match variant.split_once(' ') {
                Some((kind, edit)) if !variant.starts_with('{') => {
                    let delta = WRITTEN[kinds.iter().position(|&k| k == kind).unwrap()];
                    match edit.split_once('=') {
                        Some((key, value)) => {
                            let (at, end) = value_span(delta, key);
                            delta_document(&format!("{}{value}{}", &delta[..at], &delta[end..]))
                        }
                        None => {
                            let (_, end) = value_span(delta, &edit["cut ".len()..]);
                            delta_document(delta)[..end + 10].to_owned()
                        }
                    }
                }
                _ => delta_document(variant),
            };
            rows.push((variant.to_owned(), doc, pinned));
        }
        let wrong: Vec<String> = rows
            .iter()
            .filter_map(|(variant, doc, pinned)| {
                let got = outcome(doc);
                (got != *pinned).then(|| format!("{variant}\n  pinned {pinned}\n  got    {got}"))
            })
            .collect();
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    /// The canonical decoder declines a delta, or reads exactly what the
    /// general one reads and stops at the same byte: on every `WRITTEN`
    /// delta with a space inserted before any byte (or at the end), any
    /// byte deleted, or any byte replaced by one of ten that JSON gives
    /// a meaning to. It reads every delta `write_trace` writes.
    #[test]
    fn the_canonical_decoder_declines_or_agrees() {
        let mut variants = Vec::new();
        for delta in WRITTEN.map(str::as_bytes) {
            for i in 0..=delta.len() {
                variants.push([&delta[..i], b" ", &delta[i..]].concat());
            }
            for i in 0..delta.len() {
                variants.push([&delta[..i], &delta[i + 1..]].concat());
                for b in b"0-9\"\\x.e},".iter().filter(|&&b| b != delta[i]) {
                    variants.push([&delta[..i], &[*b], &delta[i + 1..]].concat());
                }
            }
        }
        let mut read = 0;
        for variant in &variants {
            let text = std::str::from_utf8(variant).unwrap();
            let (mut canonical, mut general) = (Cursor::new(text), Cursor::new(text));
            let want = general.general_delta();
            if let Some(delta) = canonical.canonical_delta() {
                assert_eq!(Some(&delta), want.as_ref().ok(), "{text}");
                assert_eq!(canonical.pos, general.pos, "{text}");
                read += 1;
            }
        }
        // Some variants, such as another digit in a number, are read.
        assert!(read > WRITTEN.len(), "read {read} of {}", variants.len());
        for delta in WRITTEN {
            let mut c = Cursor::new(delta);
            assert!(
                c.canonical_delta().is_some() && c.pos == delta.len(),
                "{delta}"
            );
        }
        assert_eq!(first_noncanonical_delta(&odd_names_trace()), None);
    }

    #[test]
    fn out_of_range_delta_indices_are_schema_errors() {
        let t = br#"{"net_name":"n","place_names":["p"],"transition_names":["t"],
            "initial_marking":[0],"initial_env":{"vars":{},"tables":{}},"start_time":0,
            "deltas":[{"time":0,"step":0,"kind":{"type":"place","place":99,"delta":1}}],
            "end_time":0}"#;
        let e = read_trace(&t[..]).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        let t = br#"{"net_name":"n","place_names":["p"],"transition_names":["t"],
            "initial_marking":[0],"initial_env":{"vars":{},"tables":{}},"start_time":0,
            "deltas":[{"time":0,"step":0,"kind":{"type":"start","transition":7,"firing":1}}],
            "end_time":0}"#;
        let e = read_trace(&t[..]).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
    }

    #[test]
    fn time_reversed_traces_are_schema_errors() {
        let trace = |start: u64, times: [u64; 2], end: u64| {
            format!(
                r#"{{"net_name":"n","place_names":["p"],"transition_names":["t"],
                "initial_marking":[0],"initial_env":{{"vars":{{}},"tables":{{}}}},
                "start_time":{start},"end_time":{end},"deltas":[
                {{"time":{},"step":1,"kind":{{"type":"place","place":0,"delta":1}}}},
                {{"time":{},"step":2,"kind":{{"type":"place","place":0,"delta":-1}}}}]}}"#,
                times[0], times[1]
            )
        };
        assert!(read_trace(trace(2, [2, 5], 5).as_bytes()).is_ok());
        for (bad, why) in [
            (trace(2, [5, 3], 9), "a delta before the previous one"),
            (trace(4, [3, 5], 9), "a delta before start_time"),
            (trace(2, [2, 5], 4), "end_time before the last delta"),
            (
                trace(2, [5, 5], 9).replace(r#""step":2"#, r#""step":0"#),
                "a step before the previous one",
            ),
        ] {
            let e = read_trace(bad.as_bytes()).unwrap_err();
            assert!(matches!(e, JsonError::Schema(_)), "{why}: {e}");
            assert!(e.to_string().contains("precedes"), "{why}: {e}");
        }
    }

    #[test]
    fn place_counts_outside_u32_are_schema_errors() {
        let trace = |initial: u64, delta: i64| {
            format!(
                r#"{{"net_name":"n","place_names":["p"],"transition_names":["t"],
                "initial_marking":[{initial}],"initial_env":{{"vars":{{}},"tables":{{}}}},
                "start_time":0,"end_time":9,"deltas":[
                {{"time":3,"step":1,"kind":{{"type":"place","place":0,"delta":{delta}}}}}]}}"#
            )
        };
        let max = u64::from(u32::MAX);
        assert!(read_trace(trace(2, -2).as_bytes()).is_ok());
        assert!(read_trace(trace(max - 1, 1).as_bytes()).is_ok());
        for (bad, why) in [
            (trace(2, -3), "a negative count"),
            (trace(max, 1), "a count above u32::MAX"),
            (trace(0, i64::MIN), "a delta that would overflow the replay"),
        ] {
            let e = read_trace(bad.as_bytes()).unwrap_err();
            assert!(matches!(e, JsonError::Schema(_)), "{why}: {e}");
            let msg = e.to_string();
            assert!(
                msg.contains("place `p`") && msg.contains("time 3"),
                "{why}: {e}"
            );
        }
    }

    #[test]
    fn schema_errors_are_descriptive() {
        let e = read_trace(&b"{}"[..]).unwrap_err();
        assert!(e.to_string().contains("missing field"), "{e}");
        let e = read_trace(&b"[1]"[..]).unwrap_err();
        assert!(e.to_string().contains("object"), "{e}");
    }

    #[test]
    fn huge_tick_counts_round_trip() {
        let header = TraceHeader::new("t", vec![], vec![]);
        let trace = RecordedTrace::new(header, vec![], Time::from_ticks(u64::MAX));
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.end_time(), Time::from_ticks(u64::MAX));
    }
}

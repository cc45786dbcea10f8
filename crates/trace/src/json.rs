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
//! # Reading
//!
//! The reader makes one pass, linear in the input. It validates UTF-8
//! once over the whole buffer, then a byte cursor decodes the header
//! fields and each delta straight into the trace types. Strings without
//! escapes are borrowed from the input: keys and kind tags are never
//! copied, and names only once, into the trace. The accepted language:
//!
//! * keys come in any order, and the first occurrence of a duplicate
//!   key wins;
//! * unknown fields are skipped, but still syntax-checked, nesting
//!   included (at most 128 levels);
//! * integers are checked for type and range, and delta place and
//!   transition indices against the header once the pass is done;
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

fn write_str(out: &mut impl Write, s: &str) -> Result<(), JsonError> {
    out.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_all(b"\"")?;
    Ok(())
}

fn write_str_list(out: &mut impl Write, items: &[String]) -> Result<(), JsonError> {
    out.write_all(b"[")?;
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_str(out, s)?;
    }
    out.write_all(b"]")?;
    Ok(())
}

fn write_value(out: &mut impl Write, v: Value) -> Result<(), JsonError> {
    match v {
        Value::Int(i) => write!(out, "{i}")?,
        Value::Bool(b) => write!(out, "{b}")?,
    }
    Ok(())
}

fn write_env(out: &mut impl Write, env: &Env) -> Result<(), JsonError> {
    out.write_all(b"{\"vars\":{")?;
    for (i, (name, v)) in env.vars().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_str(out, name)?;
        out.write_all(b":")?;
        write_value(out, v)?;
    }
    out.write_all(b"},\"tables\":{")?;
    for (i, (name, vals)) in env.tables().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_str(out, name)?;
        out.write_all(b":[")?;
        for (j, v) in vals.iter().enumerate() {
            if j > 0 {
                out.write_all(b",")?;
            }
            write!(out, "{v}")?;
        }
        out.write_all(b"]")?;
    }
    out.write_all(b"}}")?;
    Ok(())
}

fn write_delta(out: &mut impl Write, d: &Delta) -> Result<(), JsonError> {
    write!(
        out,
        "{{\"time\":{},\"step\":{},\"kind\":",
        d.time.ticks(),
        d.step
    )?;
    match &d.kind {
        DeltaKind::Start { transition, firing } => write!(
            out,
            "{{\"type\":\"start\",\"transition\":{},\"firing\":{firing}}}",
            transition.index()
        )?,
        DeltaKind::Finish { transition, firing } => write!(
            out,
            "{{\"type\":\"finish\",\"transition\":{},\"firing\":{firing}}}",
            transition.index()
        )?,
        DeltaKind::PlaceDelta { place, delta } => write!(
            out,
            "{{\"type\":\"place\",\"place\":{},\"delta\":{delta}}}",
            place.index()
        )?,
        DeltaKind::VarSet { name, value } => {
            out.write_all(b"{\"type\":\"var\",\"name\":")?;
            write_str(out, name)?;
            out.write_all(b",\"value\":")?;
            write_value(out, *value)?;
            out.write_all(b"}")?;
        }
    }
    out.write_all(b"}")?;
    Ok(())
}

pub(crate) fn write_trace(trace: &RecordedTrace, mut out: impl Write) -> Result<(), JsonError> {
    let h = trace.header();
    out.write_all(b"{\"net_name\":")?;
    write_str(&mut out, &h.net_name)?;
    out.write_all(b",\"place_names\":")?;
    write_str_list(&mut out, &h.place_names)?;
    out.write_all(b",\"transition_names\":")?;
    write_str_list(&mut out, &h.transition_names)?;
    out.write_all(b",\"initial_marking\":[")?;
    for (i, t) in h.initial_marking.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "{t}")?;
    }
    out.write_all(b"],\"initial_env\":")?;
    write_env(&mut out, &h.initial_env)?;
    write!(out, ",\"start_time\":{}", h.start_time.ticks())?;
    write!(out, ",\"end_time\":{}", trace.end_time().ticks())?;
    out.write_all(b",\"deltas\":[")?;
    for (i, d) in trace.deltas().iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_delta(&mut out, d)?;
    }
    out.write_all(b"]}")?;
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

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes()[self.pos..].starts_with(lit.as_bytes());
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
            _ if self.eat("true") || self.eat("false") || self.eat("null") => Ok(()),
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
    /// exponent. Integers beyond `i128` are malformed.
    fn number(&mut self) -> Result<Option<i128>, JsonError> {
        fn digits(c: &mut Cursor<'_>) {
            while matches!(c.peek(), Some(b'0'..=b'9')) {
                c.pos += 1;
            }
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
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
        if self.eat("true") {
            Ok(Value::Bool(true))
        } else if self.eat("false") {
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

    fn delta(&mut self) -> Result<Delta, JsonError> {
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
    // Indices and times are checked once the header is in hand (keys
    // come in any order), so a malformed trace fails here instead of
    // panicking downstream in `StateIter` or the statistics.
    let deltas = c.required(deltas, "deltas")?;
    let start_time = Time::from_ticks(c.required(start_time, "start_time")?);
    let end_time = Time::from_ticks(c.required(end_time, "end_time")?);
    let mut clock = start_time;
    for d in &deltas {
        if d.time < clock {
            return Err(JsonError::Schema(format!(
                "delta at time {} precedes time {clock}",
                d.time
            )));
        }
        clock = d.time;
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
        ] {
            let e = read_trace(bad.as_bytes()).unwrap_err();
            assert!(matches!(e, JsonError::Schema(_)), "{why}: {e}");
            assert!(e.to_string().contains("precedes"), "{why}: {e}");
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

#![forbid(unsafe_code)]

//! # pnut-lang — the textual net description language
//!
//! The paper notes that the complete pipelined-processor model "can be
//! expressed ... textually (for some of our textually based tools) in
//! roughly 25 lines". This crate provides that textual format: a
//! line-oriented language for describing extended timed Petri nets, a
//! parser producing [`pnut_core::Net`], and a pretty-printer whose
//! output parses back to an equivalent net (round-trip tested).
//!
//! # Format
//!
//! ```text
//! net prefetch
//! var max_type = 5
//! table operands = 0 1 2 2 3
//! place Bus_free = 1
//! place Empty_I_buffers = 6
//! place pre_fetching = 0
//! place Operand_fetch_pending = 0
//! trans Start_prefetch
//!   in Bus_free Empty_I_buffers*2
//!   inhibit Operand_fetch_pending
//!   out pre_fetching
//!   firing 0
//!   freq 1
//! end
//! ```
//!
//! Directives inside a `trans` block:
//!
//! | line | meaning |
//! |---|---|
//! | `in P` / `in P*w` | input arc (weight `w`, default 1) |
//! | `out P` / `out P*w` | output arc |
//! | `inhibit P` / `inhibit P@t` | inhibitor arc (threshold `t`, default 1) |
//! | `firing N` / `firing expr E` | firing time (ticks or expression) |
//! | `enabling N` / `enabling expr E` | enabling time |
//! | `freq F` | relative firing frequency: finite and positive, and the net's frequencies must sum to a finite number |
//! | `maxconc N` | concurrent-firing cap |
//! | `pred E` | predicate (rest of line is the expression) |
//! | `act A` | action (rest of line; `;`-separated assignments) |
//!
//! `#` starts a comment; blank lines are ignored.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), pnut_lang::LangError> {
//! let src = "
//! net tiny
//! place a = 1
//! place b = 0
//! trans go
//!   in a
//!   out b
//!   firing 2
//! end
//! ";
//! let net = pnut_lang::parse(src)?;
//! assert_eq!(net.name(), "tiny");
//! let printed = pnut_lang::print(&net);
//! let again = pnut_lang::parse(&printed)?;
//! assert_eq!(net, again);
//! # Ok(())
//! # }
//! ```

use pnut_core::{Delay, Expr, Net, NetBuilder, NetError, TransitionBuilder};
use std::fmt;

/// Error from parsing net description text.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// 1-based line number of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LangError {}

fn err(line: usize, message: impl Into<String>) -> LangError {
    LangError {
        line,
        message: message.into(),
    }
}

/// Parse a net description.
///
/// # Errors
///
/// Returns [`LangError`] with the offending line number for syntax
/// errors, and for net-level inconsistencies (duplicate names, unknown
/// places) detected at build time.
pub fn parse(src: &str) -> Result<Net, LangError> {
    let mut builder: Option<NetBuilder> = None;
    let mut lines = src.lines().enumerate().peekable();

    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let (word, rest) = split_word(line);
        match word {
            "net" => {
                if builder.is_some() {
                    return Err(err(line_no, "duplicate `net` directive"));
                }
                if rest.is_empty() {
                    return Err(err(line_no, "expected a net name"));
                }
                builder = Some(NetBuilder::new(rest));
            }
            "place" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "`place` before `net`"))?;
                let (name, tokens) = parse_assign(rest, line_no)?;
                let tokens: u32 = tokens
                    .trim()
                    .parse()
                    .map_err(|_| err(line_no, "expected an integer token count"))?;
                b.place(name, tokens);
            }
            "var" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "`var` before `net`"))?;
                let (name, value) = parse_assign(rest, line_no)?;
                let value: i64 = value
                    .trim()
                    .parse()
                    .map_err(|_| err(line_no, "expected an integer value"))?;
                b.var(name, value);
            }
            "table" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "`table` before `net`"))?;
                let (name, values) = parse_assign(rest, line_no)?;
                let values: Result<Vec<i64>, _> =
                    values.split_whitespace().map(str::parse).collect();
                let values =
                    values.map_err(|_| err(line_no, "expected whitespace-separated integers"))?;
                b.table(name, values);
            }
            "trans" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "`trans` before `net`"))?;
                if rest.is_empty() {
                    return Err(err(line_no, "expected a transition name"));
                }
                let mut t = b.transition(rest);
                let mut closed = false;
                for (tidx, traw) in lines.by_ref() {
                    let tline_no = tidx + 1;
                    let tline = strip_comment(traw);
                    if tline.is_empty() {
                        continue;
                    }
                    if tline == "end" {
                        closed = true;
                        break;
                    }
                    t = transition_directive(t, tline, tline_no)?;
                }
                if !closed {
                    return Err(err(line_no, "unterminated `trans` block (missing `end`)"));
                }
                t.add();
            }
            other => {
                return Err(err(line_no, format!("unknown directive `{other}`")));
            }
        }
    }

    let builder = builder.ok_or_else(|| err(1, "missing `net` directive"))?;
    builder
        .build()
        .map_err(|e| err(build_error_line(src, &e), e.to_string()))
}

/// The line a failed [`NetBuilder::build`] points at, found by a second
/// pass over the text, so a net that builds pays nothing for it: the
/// second declaration of a duplicate name; else, in the first block of
/// the transition at fault, the arc line naming the bad place or its
/// `freq` or `maxconc` line, and failing those its `trans` line. The
/// last line if the text holds none of them.
fn build_error_line(src: &str, e: &NetError) -> usize {
    let lines = (src.lines().enumerate()).map(|(i, raw)| (i + 1, split_word(strip_comment(raw))));
    let found = match e {
        NetError::DuplicatePlace(name) => lines
            .filter(|&(_, (word, rest))| {
                word == "place" && parse_assign(rest, 0).is_ok_and(|(n, _)| n == name)
            })
            .nth(1)
            .map(|(line, _)| line),
        NetError::DuplicateTransition(name) => lines
            .filter(|&(_, (word, rest))| word == "trans" && rest == name)
            .nth(1)
            .map(|(line, _)| line),
        NetError::UnknownPlace { transition, place }
        | NetError::ZeroWeight { transition, place } => {
            let zero = matches!(e, NetError::ZeroWeight { .. });
            block_line(lines, transition, |word, rest| {
                let sep = match word {
                    "in" | "out" => '*',
                    "inhibit" => '@',
                    _ => return false,
                };
                rest.split_whitespace().any(|spec| {
                    parse_weighted(spec, sep, 0).is_ok_and(|(p, w)| p == place && (w == 0 || !zero))
                })
            })
        }
        NetError::InvalidFrequency { transition, .. }
        | NetError::FrequencyOverflow { transition } => {
            block_line(lines, transition, |word, _| word == "freq")
        }
        NetError::ZeroConcurrency { transition } => {
            block_line(lines, transition, |word, _| word == "maxconc")
        }
        NetError::BadExpression { transition, .. } => block_line(lines, transition, |_, _| false),
    };
    found.unwrap_or(src.lines().count().max(1))
}

/// In the first block of `transition`, the last line whose directive
/// `hit` picks (the builder keeps a repeated `freq` or `maxconc`'s last
/// value), else the block's `trans` line.
fn block_line<'a>(
    lines: impl Iterator<Item = (usize, (&'a str, &'a str))>,
    transition: &str,
    hit: impl Fn(&str, &str) -> bool,
) -> Option<usize> {
    let mut block = lines.skip_while(|&(_, (word, rest))| word != "trans" || rest != transition);
    let (head, _) = block.next()?;
    let body = block.take_while(|&(_, (word, _))| word != "end");
    let last = body.filter(|&(_, (word, rest))| hit(word, rest)).last();
    Some(last.map_or(head, |(line, _)| line))
}

fn transition_directive<'a>(
    t: TransitionBuilder<'a>,
    line: &str,
    line_no: usize,
) -> Result<TransitionBuilder<'a>, LangError> {
    let (word, rest) = split_word(line);
    match word {
        "in" | "out" => {
            let mut t = t;
            if rest.is_empty() {
                return Err(err(line_no, format!("`{word}` needs at least one place")));
            }
            for spec in rest.split_whitespace() {
                let (place, weight) = parse_weighted(spec, '*', line_no)?;
                t = if word == "in" {
                    t.input_weighted(place, weight)
                } else {
                    t.output_weighted(place, weight)
                };
            }
            Ok(t)
        }
        "inhibit" => {
            let mut t = t;
            if rest.is_empty() {
                return Err(err(line_no, "`inhibit` needs at least one place"));
            }
            for spec in rest.split_whitespace() {
                let (place, threshold) = parse_weighted(spec, '@', line_no)?;
                t = t.inhibitor_at(place, threshold);
            }
            Ok(t)
        }
        "firing" | "enabling" => {
            let delay = parse_delay(rest, line_no)?;
            Ok(match (word, delay) {
                ("firing", Delay::Fixed(n)) => t.firing(n),
                ("firing", Delay::Expr(e)) => t.firing_expr(e),
                (_, Delay::Fixed(n)) => t.enabling(n),
                (_, Delay::Expr(e)) => t.enabling_expr(e),
            })
        }
        "freq" => {
            let f: f64 = rest
                .trim()
                .parse()
                .map_err(|_| err(line_no, "expected a number after `freq`"))?;
            Ok(t.frequency(f))
        }
        "maxconc" => {
            let n: u32 = rest
                .trim()
                .parse()
                .map_err(|_| err(line_no, "expected an integer after `maxconc`"))?;
            Ok(t.max_concurrent(n))
        }
        "pred" => t
            .predicate_str(rest)
            .map_err(|e| err(line_no, e.to_string())),
        "act" => t.action_str(rest).map_err(|e| err(line_no, e.to_string())),
        other => Err(err(
            line_no,
            format!("unknown transition directive `{other}`"),
        )),
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => line[..i].trim(),
        None => line.trim(),
    }
}

fn split_word(line: &str) -> (&str, &str) {
    match line.split_once(char::is_whitespace) {
        Some((w, rest)) => (w, rest.trim()),
        None => (line, ""),
    }
}

fn parse_assign(rest: &str, line_no: usize) -> Result<(&str, &str), LangError> {
    rest.split_once('=')
        .map(|(n, v)| (n.trim(), v.trim()))
        .filter(|(n, _)| !n.is_empty())
        .ok_or_else(|| err(line_no, "expected `name = value`"))
}

fn parse_weighted(spec: &str, sep: char, line_no: usize) -> Result<(&str, u32), LangError> {
    match spec.split_once(sep) {
        Some((place, w)) => {
            let w = w
                .parse()
                .map_err(|_| err(line_no, format!("bad weight in `{spec}`")))?;
            Ok((place, w))
        }
        None => Ok((spec, 1)),
    }
}

fn parse_delay(rest: &str, line_no: usize) -> Result<Delay, LangError> {
    let rest = rest.trim();
    if let Some(expr_src) = rest.strip_prefix("expr ") {
        let e = Expr::parse(expr_src).map_err(|e| err(line_no, e.to_string()))?;
        Ok(Delay::Expr(e))
    } else {
        let n: u64 = rest
            .parse()
            .map_err(|_| err(line_no, "expected ticks or `expr <expression>`"))?;
        Ok(Delay::Fixed(n))
    }
}

/// Pretty-print a net in the textual format; the output parses back to
/// an equal net.
pub fn print(net: &Net) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "net {}", net.name());
    for (name, value) in net.initial_env().vars() {
        let _ = writeln!(out, "var {name} = {value}");
    }
    for (name, values) in net.initial_env().tables() {
        let _ = write!(out, "table {name} =");
        for v in values {
            let _ = write!(out, " {v}");
        }
        let _ = writeln!(out);
    }
    for (_, p) in net.places() {
        let _ = writeln!(out, "place {} = {}", p.name(), p.initial_tokens());
    }
    for (_, t) in net.transitions() {
        let _ = writeln!(out, "trans {}", t.name());
        let arcs = |out: &mut String, kw: &str, list: &[(pnut_core::PlaceId, u32)], sep: char| {
            if !list.is_empty() {
                let _ = write!(out, "  {kw}");
                for &(p, w) in list {
                    let pname = net.place(p).name();
                    if w == 1 {
                        let _ = write!(out, " {pname}");
                    } else {
                        let _ = write!(out, " {pname}{sep}{w}");
                    }
                }
                let _ = writeln!(out);
            }
        };
        arcs(&mut out, "in", t.inputs(), '*');
        arcs(&mut out, "out", t.outputs(), '*');
        arcs(&mut out, "inhibit", t.inhibitors(), '@');
        let delay = |out: &mut String, kw: &str, d: &Delay| match d {
            Delay::Fixed(0) => {}
            Delay::Fixed(n) => {
                let _ = writeln!(out, "  {kw} {n}");
            }
            Delay::Expr(e) => {
                let _ = writeln!(out, "  {kw} expr {e}");
            }
        };
        delay(&mut out, "firing", t.firing_time());
        delay(&mut out, "enabling", t.enabling_time());
        if (t.frequency() - 1.0).abs() > f64::EPSILON {
            let _ = writeln!(out, "  freq {}", t.frequency());
        }
        if let Some(cap) = t.max_concurrent() {
            let _ = writeln!(out, "  maxconc {cap}");
        }
        if let Some(p) = t.predicate() {
            let _ = writeln!(out, "  pred {p}");
        }
        if let Some(a) = t.action() {
            let _ = writeln!(out, "  act {a}");
        }
        let _ = writeln!(out, "end");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
# The Figure 1 prefetch fragment.
net prefetch
place Bus_free = 1
place Empty_I_buffers = 6
place pre_fetching = 0
place Operand_fetch_pending = 0
trans Start_prefetch
  in Bus_free Empty_I_buffers*2
  inhibit Operand_fetch_pending
  out pre_fetching
end
trans End_prefetch
  in pre_fetching
  out Bus_free
  enabling 5
  freq 2.5
end
";

    #[test]
    fn parses_sample() {
        let net = parse(SAMPLE).unwrap();
        assert_eq!(net.name(), "prefetch");
        assert_eq!(net.place_count(), 4);
        assert_eq!(net.transition_count(), 2);
        let sp = net.transition(net.transition_id("Start_prefetch").unwrap());
        assert_eq!(sp.inputs().len(), 2);
        assert_eq!(sp.inputs()[1].1, 2, "weighted arc parsed");
        assert_eq!(sp.inhibitors().len(), 1);
        let ep = net.transition(net.transition_id("End_prefetch").unwrap());
        assert_eq!(*ep.enabling_time(), Delay::Fixed(5));
        assert!((ep.frequency() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_sample() {
        let net = parse(SAMPLE).unwrap();
        let printed = print(&net);
        let again = parse(&printed).unwrap();
        assert_eq!(net, again);
    }

    #[test]
    fn roundtrip_with_predicates_actions_tables() {
        let src = "
net interp
var max_type = 3
table operands = 0 1 2 2
place p = 1
trans Decode
  in p
  out p
  firing expr operands[ty]
  pred ops_needed == 0
  act ty = irand(1, max_type); ops_needed = operands[ty];
  maxconc 1
end
";
        let net = parse(src).unwrap();
        let printed = print(&net);
        let again = parse(&printed).unwrap();
        assert_eq!(net, again);
    }

    #[test]
    fn roundtrip_the_paper_pipeline_model() {
        let net =
            pnut_pipeline::three_stage::build(&pnut_pipeline::ThreeStageConfig::default()).unwrap();
        let printed = print(&net);
        let again = parse(&printed).unwrap();
        assert_eq!(net, again);
    }

    #[test]
    fn inhibitor_thresholds_roundtrip() {
        let src = "
net n
place p = 5
place q = 1
trans t
  in q
  out q
  inhibit p@3
end
";
        let net = parse(src).unwrap();
        let t = net.transition(net.transition_id("t").unwrap());
        assert_eq!(t.inhibitors()[0].1, 3);
        let again = parse(&print(&net)).unwrap();
        assert_eq!(net, again);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("place a = 1").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("before `net`"));

        let e = parse("net n\nplace a = x").unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse("net n\ntrans t\n  in").unwrap_err();
        assert_eq!(e.line, 3);

        let e = parse("net n\ntrans t\n  in a").unwrap_err();
        assert!(e.message.contains("unterminated"));

        let e = parse("net n\nbogus x").unwrap_err();
        assert!(e.message.contains("unknown directive"));

        let e = parse("net n\ntrans t\n  sideways a\nend").unwrap_err();
        assert!(e.message.contains("unknown transition directive"));

        // Build errors point at the declaration at fault, not at the
        // file's last line.
        let build_line = |src: &str, message: &str| {
            let e = parse(src).unwrap_err();
            assert!(e.message.contains(message), "{e} in {src:?}");
            e.line
        };
        let dup = "net n\nplace a = 1\nplace a = 2\ntrans t\n  in a\nend\n\n# trailing comment\n";
        assert_eq!(build_line(dup, "duplicate place `a`"), 3);
        let dup = "net n\nplace a = 1\ntrans t\nend\ntrans u\nend\ntrans t # again\n  in a\nend\n";
        assert_eq!(build_line(dup, "duplicate transition `t`"), 7);
        let arcs = "net n\nplace a = 1\ntrans t\n  in a\n  out a b\nend\n\n";
        assert_eq!(build_line(arcs, "unknown place `b`"), 5);
        let arcs = "net n\nplace a = 1\ntrans u\n  in a\nend\ntrans t\n  in a\n  inhibit a@0\n  out a\nend\n";
        assert_eq!(build_line(arcs, "zero-weight arc to `a`"), 8);
        let freq = "net n\nplace a = 1\ntrans t\n  in a\n  freq 0\n  out a\nend\n# end\n";
        assert_eq!(build_line(freq, "invalid firing frequency"), 5);
        let overflow = "net n\nplace p = 1\nplace q = 0\n\ntrans fa\n  in p\n  out q\n  freq 1e308\nend\n\
                        trans fb\n  in p\n  out q\n  firing 2\n  freq 1e308\nend\n\n# two competitors\n\n";
        assert_eq!(build_line(overflow, "overflows at transition `fb`"), 14);
        let cap = "net n\nplace a = 1\ntrans t\n  in a\n  maxconc 0\nend\n\n";
        assert_eq!(build_line(cap, "max_concurrent = 0"), 5);
    }

    #[test]
    fn build_errors_surface() {
        let e = parse("net n\ntrans t\n  in ghost\nend").unwrap_err();
        assert!(e.message.contains("unknown place"));
    }

    #[test]
    fn comments_and_blank_lines_ignored_everywhere() {
        let src = "
net n  # trailing comment is part of the name? no: comments strip first
place a = 1
trans t
  # full-line comment inside a block
  in a
end
";
        // Note: `#` strips before parsing, so the net name is `n`.
        let net = parse(src).unwrap();
        assert_eq!(net.name(), "n");
    }
}

/// Render a net as a Graphviz `dot` digraph — the modern substitute for
/// the paper's graphical editor views (Figures 1–4): places as circles
/// (labelled with their initial tokens), transitions as boxes (labelled
/// with delays/frequencies), inhibitor arcs with dot arrowheads.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), pnut_lang::LangError> {
/// let net = pnut_lang::parse("net n\nplace p = 1\ntrans t\n  in p\nend")?;
/// let dot = pnut_lang::to_dot(&net);
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("p [shape=circle"));
/// # Ok(())
/// # }
/// ```
pub fn to_dot(net: &Net) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", net.name());
    let _ = writeln!(out, "  rankdir=LR;");
    for (_, p) in net.places() {
        let label = if p.initial_tokens() > 0 {
            format!("{}\\n●×{}", p.name(), p.initial_tokens())
        } else {
            p.name().to_string()
        };
        let _ = writeln!(out, "  {} [shape=circle label=\"{label}\"];", p.name());
    }
    for (_, t) in net.transitions() {
        let mut label = t.name().to_string();
        if !t.firing_time().is_zero_constant() {
            label.push_str(&format!("\\nfiring {}", t.firing_time()));
        }
        if !t.enabling_time().is_zero_constant() {
            label.push_str(&format!("\\nenabling {}", t.enabling_time()));
        }
        if (t.frequency() - 1.0).abs() > f64::EPSILON {
            label.push_str(&format!("\\nfreq {}", t.frequency()));
        }
        if t.predicate().is_some() {
            label.push_str("\\n[pred]");
        }
        if t.action().is_some() {
            label.push_str("\\n[act]");
        }
        let _ = writeln!(out, "  {} [shape=box label=\"{label}\"];", t.name());
        for &(p, w) in t.inputs() {
            let attr = if w > 1 {
                format!(" [label=\"{w}\"]")
            } else {
                String::new()
            };
            let _ = writeln!(out, "  {} -> {}{attr};", net.place(p).name(), t.name());
        }
        for &(p, w) in t.outputs() {
            let attr = if w > 1 {
                format!(" [label=\"{w}\"]")
            } else {
                String::new()
            };
            let _ = writeln!(out, "  {} -> {}{attr};", t.name(), net.place(p).name());
        }
        for &(p, th) in t.inhibitors() {
            let attr = if th > 1 {
                format!(" [arrowhead=dot style=dashed label=\"≥{th}\"]")
            } else {
                " [arrowhead=dot style=dashed]".to_string()
            };
            let _ = writeln!(out, "  {} -> {}{attr};", net.place(p).name(), t.name());
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod dot_tests {
    #[test]
    fn dot_contains_all_elements() {
        let net =
            pnut_pipeline::three_stage::build(&pnut_pipeline::ThreeStageConfig::default()).unwrap();
        let dot = super::to_dot(&net);
        assert!(dot.starts_with("digraph \"three_stage_pipeline\""));
        assert!(dot.contains("Bus_free [shape=circle"));
        assert!(dot.contains("Start_prefetch [shape=box"));
        assert!(dot.contains("arrowhead=dot"), "inhibitor arcs rendered");
        assert!(dot.contains("[label=\"2\"]"), "weighted arcs labelled");
        assert!(dot.contains("enabling 5"), "memory delay shown");
        assert!(dot.contains("freq 0.7"), "frequencies shown");
        assert!(dot.ends_with("}\n"));
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn interpreted_net_marks_predicates_and_actions() {
        let net = pnut_pipeline::interpreted::build(
            &pnut_pipeline::interpreted::InterpretedConfig::default(),
        )
        .unwrap();
        let dot = super::to_dot(&net);
        assert!(dot.contains("[pred]"));
        assert!(dot.contains("[act]"));
    }
}

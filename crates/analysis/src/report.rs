//! Lint findings and their human/JSON renderings.

use std::fmt;

use pnut_core::invariant::PInvariant;
use pnut_core::TransitionId;

/// How bad a finding is.
///
/// `Error` findings are defects the dynamic engine will surface as a
/// failure or a provably useless run (a dead transition, a guaranteed
/// `EvalError`); `Warn` findings mean a guarantee is missing (an
/// unbounded place, a read of a variable that may not exist yet);
/// `Info` findings are structural observations worth knowing before a
/// `markov` or `sim` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Provable defect.
    Error,
    /// Missing guarantee.
    Warn,
    /// Structural observation.
    Info,
}

impl Severity {
    /// The lowercase label used in both text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One lint finding: a severity, a stable machine-readable code, the
/// place/transition/variable it is about, and a one-line "why" naming
/// the proving invariant or folded constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Stable kebab-case code (part of the JSON schema).
    pub code: &'static str,
    /// The place, transition, variable, or net the finding is about.
    pub subject: String,
    /// One-line justification.
    pub why: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.subject, self.why
        )
    }
}

/// The result of [`lint`](crate::lint()): findings plus the structural
/// place bounds the analysis derived along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Net name, as declared in the model.
    pub net_name: String,
    /// Place names in place-id order (parallel to `bounds`).
    pub place_names: Vec<String>,
    /// Number of transitions in the net.
    pub transition_count: usize,
    /// Structural bound per place: `Some(b)` when a semi-positive
    /// P-invariant proves the place never exceeds `b` tokens, `None`
    /// when no such invariant covers it (bound unknown, **not** proven
    /// unbounded).
    pub bounds: Vec<Option<i64>>,
    /// Transitions proven statically dead (every `dead-transition`
    /// finding's subject, as an id).
    pub dead_transitions: Vec<TransitionId>,
    /// All findings, errors first, stable order within a severity.
    pub findings: Vec<Finding>,
    /// The P-invariant basis (see [`pnut_core::invariant::p_invariants`]),
    /// each vector with its token sum at the initial marking.
    pub p_invariants: Vec<(PInvariant, i64)>,
    /// Size of the T-invariant basis.
    pub t_invariants: usize,
}

impl LintReport {
    /// Number of `error` findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `warn` findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of `info` findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).count()
    }

    /// Render the human-readable report for a model loaded from `path`.
    pub fn render_text(&self, path: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "model `{}` ({}): {} places, {} transitions\n",
            self.net_name,
            path,
            self.place_names.len(),
            self.transition_count
        ));
        for f in &self.findings {
            out.push_str(&format!("  {f}\n"));
        }
        out.push_str("structural bounds:\n");
        for (name, b) in self.place_names.iter().zip(&self.bounds) {
            match b {
                Some(b) => out.push_str(&format!("  bound({name}) = {b}\n")),
                None => out.push_str(&format!("  bound({name}) = unknown\n")),
            }
        }
        out.push_str(&format!("P-invariants ({}):\n", self.p_invariants.len()));
        for (inv, sum) in &self.p_invariants {
            let terms: Vec<String> = inv
                .weights
                .iter()
                .zip(&self.place_names)
                .filter(|(&w, _)| w != 0)
                .map(|(&w, name)| match w {
                    1 => name.clone(),
                    w => format!("{w}·{name}"),
                })
                .collect();
            out.push_str(&format!("  {} = {sum}\n", terms.join(" + ")));
        }
        out.push_str(&format!("T-invariants ({})\n", self.t_invariants));
        out.push_str(&format!(
            "summary: {} error(s), {} warning(s), {} info(s)\n",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        out
    }

    /// Append the NDJSON body lines for this model to `out` (the
    /// caller emits the shared [`json_meta_line`] header once).
    ///
    /// Schema (one JSON object per line, `version` 1):
    /// - `{"type":"model","path":…,"net":…,"places":N,"transitions":N}`
    /// - `{"type":"finding","path":…,"severity":…,"code":…,"subject":…,"why":…}`
    /// - `{"type":"bound","path":…,"place":…,"bound":N}` or
    ///   `{"type":"bound","path":…,"place":…,"known":false}`
    /// - `{"type":"summary","path":…,"errors":N,"warnings":N,"infos":N}`
    pub fn render_json(&self, path: &str, out: &mut String) {
        let path = json_escape(path);
        out.push_str(&format!(
            "{{\"type\":\"model\",\"path\":\"{}\",\"net\":\"{}\",\"places\":{},\"transitions\":{}}}\n",
            path,
            json_escape(&self.net_name),
            self.place_names.len(),
            self.transition_count
        ));
        for f in &self.findings {
            out.push_str(&format!(
                "{{\"type\":\"finding\",\"path\":\"{}\",\"severity\":\"{}\",\"code\":\"{}\",\"subject\":\"{}\",\"why\":\"{}\"}}\n",
                path,
                f.severity,
                f.code,
                json_escape(&f.subject),
                json_escape(&f.why)
            ));
        }
        for (name, b) in self.place_names.iter().zip(&self.bounds) {
            match b {
                Some(b) => out.push_str(&format!(
                    "{{\"type\":\"bound\",\"path\":\"{}\",\"place\":\"{}\",\"bound\":{}}}\n",
                    path,
                    json_escape(name),
                    b
                )),
                None => out.push_str(&format!(
                    "{{\"type\":\"bound\",\"path\":\"{}\",\"place\":\"{}\",\"known\":false}}\n",
                    path,
                    json_escape(name)
                )),
            }
        }
        out.push_str(&format!(
            "{{\"type\":\"summary\",\"path\":\"{}\",\"errors\":{},\"warnings\":{},\"infos\":{}}}\n",
            path,
            self.errors(),
            self.warnings(),
            self.infos()
        ));
    }
}

/// The NDJSON meta header: the first line of every `pnut lint --json`
/// stream.
pub fn json_meta_line() -> &'static str {
    "{\"type\":\"meta\",\"version\":1,\"tool\":\"lint\"}"
}

/// Minimal JSON string escaping (the only special characters our
/// identifiers and messages can contain).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

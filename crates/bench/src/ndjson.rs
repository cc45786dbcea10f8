//! Field readers for the machine-written NDJSON the CLI emits
//! (`--metrics-json` snapshots, `pnut lint --json` reports): one flat
//! JSON object per line. The format is ours, so a tolerant hand reader
//! beats dragging in a JSON dependency.

/// The raw string value of `"key":"..."` in one line. The scan steps
/// over escaped characters, so a value holding `\"` comes back whole;
/// escapes are left as-is (validators only compare values that never
/// contain them: types, names, severities, codes).
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let bytes = line.as_bytes();
    let mut end = start;
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => return Some(&line[start..end]),
            _ => end += 1,
        }
    }
    None
}

/// The integer value of `"key":N` in one line.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let num: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    num.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::field_str;

    #[test]
    fn string_fields_skip_escaped_quotes() {
        let line = r#"{"type":"finding","why":"says \"hi\" twice","code":"x"}"#;
        assert_eq!(field_str(line, "type"), Some("finding"));
        assert_eq!(field_str(line, "why"), Some(r#"says \"hi\" twice"#));
        assert_eq!(field_str(line, "code"), Some("x"));
        assert_eq!(field_str(r#"{"open":"never closed"#, "open"), None);
    }
}

//! Structured CLI warnings.
//!
//! Runtime warnings (degradation steps, fault summaries, slow served
//! queries) used to be ad-hoc `println!`/`eprintln!` lines scattered
//! through the commands; they now route through [`warn`], which renders
//! them in the format picked by `--log-format`:
//!
//! * `text` (the default) keeps the historical one-line form, on stderr
//!   so machine-readable stdout (tables, checksums) stays clean;
//! * `json` emits one JSON object per event — `{"level":"warn",
//!   "event":"degradation","msg":"…",…}` — with every structured field
//!   the caller supplied, so log shippers need no regex scraping.
//!
//! The format lives in a process-global so helpers and callbacks (the
//! daemon's slow-query hook) can warn without threading a logger value
//! through every signature.

use std::sync::atomic::{AtomicU8, Ordering};

/// Output shape for CLI warnings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// Historical one-line text form.
    Text,
    /// One JSON object per event.
    Json,
}

static FORMAT: AtomicU8 = AtomicU8::new(0);

/// Parse a `--log-format` value.
pub fn parse(s: &str) -> Result<LogFormat, String> {
    match s {
        "text" => Ok(LogFormat::Text),
        "json" => Ok(LogFormat::Json),
        other => Err(format!("--log-format must be text or json, got `{other}`")),
    }
}

/// Install the process-wide warning format (called once from `main`).
pub fn init(format: LogFormat) {
    FORMAT.store(format as u8, Ordering::Relaxed);
}

fn format() -> LogFormat {
    match FORMAT.load(Ordering::Relaxed) {
        1 => LogFormat::Json,
        _ => LogFormat::Text,
    }
}

/// Emit one warning. `line` is the human text form; `fields` are the
/// structured key/value pairs the JSON form carries alongside it.
/// Values are rendered as JSON strings (numbers stay parseable; this is
/// a log line, not a schema).
pub fn warn(event: &str, line: &str, fields: &[(&str, String)]) {
    match format() {
        LogFormat::Text => eprintln!("{line}"),
        LogFormat::Json => {
            let mut out = String::from("{\"level\":\"warn\",\"event\":\"");
            push_escaped(&mut out, event);
            out.push_str("\",\"msg\":\"");
            push_escaped(&mut out, line);
            out.push('"');
            for (k, v) in fields {
                out.push_str(",\"");
                push_escaped(&mut out, k);
                out.push_str("\":\"");
                push_escaped(&mut out, v);
                out.push('"');
            }
            out.push('}');
            eprintln!("{out}");
        }
    }
}

fn push_escaped(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_formats() {
        assert_eq!(parse("text").unwrap(), LogFormat::Text);
        assert_eq!(parse("json").unwrap(), LogFormat::Json);
        assert!(parse("yaml").is_err());
    }

    #[test]
    fn escaping_produces_valid_json_strings() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}

//! Crash postmortems: dump every ring into one ordered JSON timeline.
//!
//! The dump path must work when everything else is going wrong — mid
//! panic, inside a SIGTERM handler, after a typed error unwound the
//! stack — so it is deliberately primitive: no allocator tricks, no
//! serde, poisoned locks ignored, and the JSON writer lives in this
//! file. The schema is versioned and validated by
//! `phj_obs::postmortem::parse` (and by CI's python smoke).
//!
//! Schema (v1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "cause": {"kind": "typed_error", "message": "..."},
//!   "mode": "phase",
//!   "capacity": 4096,
//!   "threads": [{"tid": 0, "written": 45, "recovered": 45, "dropped": 0}],
//!   "counts": {"phase_enter": 12, "fault": 3},
//!   "timeline": [{"t_ns": 120, "tid": 0, "kind": "fault", "code": 4, "a": 12, "b": 0}],
//!   "context": {"degradation_depth": 1}
//! }
//! ```
//!
//! `mode` is always `"phase"`, the recorder's one granularity; schema
//! v1 keeps the key. `counts` holds only nonzero kinds; `context` is
//! whatever the host binary's provider returns (pre-rendered JSON
//! values — the CLI puts a live-metrics snapshot and the degradation
//! state there) and is omitted when no provider is installed.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::event::{Event, EventKind};
use crate::recorder::global;

/// Why a postmortem was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A thread panicked (the installed panic hook fired).
    Panic,
    /// The process is exiting with a typed error (`PhjError` chain).
    TypedError,
    /// SIGTERM arrived.
    Sigterm,
    /// Explicit request (tests, `--dump-postmortem`-style tooling).
    Manual,
}

impl Cause {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Cause::Panic => "panic",
            Cause::TypedError => "typed_error",
            Cause::Sigterm => "sigterm",
            Cause::Manual => "manual",
        }
    }
}

/// Context provider: returns `(key, json_value)` pairs appended under
/// `"context"`. Values are embedded verbatim, so they must already be
/// valid JSON (`"1"`, `"\"probe\""`, `"{...}"`).
pub type ContextFn = Box<dyn Fn() -> Vec<(String, String)> + Send + Sync>;

struct DumpConfig {
    path: Option<PathBuf>,
    context: Option<ContextFn>,
}

static CONFIG: Mutex<DumpConfig> = Mutex::new(DumpConfig { path: None, context: None });

/// Where crash dumps go. Until set, [`dump`] has nowhere to write and
/// returns `Ok(None)`.
pub fn set_postmortem_path(path: impl Into<PathBuf>) {
    CONFIG.lock().unwrap_or_else(|e| e.into_inner()).path = Some(path.into());
}

/// Install (replace) the context provider — extra host-side state for
/// the `"context"` object (metrics snapshot, degradation depth…).
pub fn set_context_provider(f: ContextFn) {
    CONFIG.lock().unwrap_or_else(|e| e.into_inner()).context = Some(f);
}

/// Write a postmortem to the configured path. `Ok(None)` when no path
/// is configured or the recorder is off — a dump is best-effort by
/// design; callers on the crash path ignore the result entirely.
pub fn dump(cause: Cause, message: &str) -> std::io::Result<Option<PathBuf>> {
    let Some(path) = CONFIG.lock().unwrap_or_else(|e| e.into_inner()).path.clone() else {
        return Ok(None);
    };
    dump_to(&path, cause, message).map(|_| Some(path))
}

/// Write a postmortem for the current recorder state to `path`.
pub fn dump_to(path: &Path, cause: Cause, message: &str) -> std::io::Result<()> {
    let Some(rec) = global() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "flight recorder not installed",
        ));
    };
    let summary = rec.summary();
    let timeline = rec.timeline();
    let context = {
        let cfg = CONFIG.lock().unwrap_or_else(|e| e.into_inner());
        cfg.context.as_ref().map(|f| f())
    };

    let mut out = String::with_capacity(4096 + 96 * timeline.len());
    out.push_str("{\n  \"schema_version\": 1,\n");
    out.push_str(&format!(
        "  \"cause\": {{\"kind\": \"{}\", \"message\": \"{}\"}},\n",
        cause.name(),
        escape(message)
    ));
    out.push_str("  \"mode\": \"phase\",\n");
    out.push_str(&format!("  \"capacity\": {},\n", summary.capacity));
    out.push_str("  \"threads\": [");
    for (i, t) in summary.threads.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"tid\": {}, \"written\": {}, \"recovered\": {}, \"dropped\": {}}}",
            t.tid,
            t.written,
            t.recovered,
            t.written - t.recovered
        ));
    }
    out.push_str("],\n  \"counts\": {");
    let mut first = true;
    for kind in EventKind::ALL {
        let n = summary.counts[kind as usize];
        if n == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{}\": {n}", kind.name()));
    }
    out.push_str("},\n  \"timeline\": [");
    for (i, ev) in timeline.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&event_json(ev));
    }
    out.push_str("\n  ]");
    if let Some(pairs) = context {
        out.push_str(",\n  \"context\": {");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {v}", escape(k)));
        }
        out.push('}');
    }
    out.push_str("\n}\n");

    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.flush()
}

/// Write a postmortem carrying a caller-filtered event slice instead of
/// the whole recorder state — the slow-query capture path hands in just
/// one query's events. The per-thread accounting is rebuilt from the
/// slice (`written == recovered`, `dropped == 0`: nothing in a filtered
/// dump was lost to ring wrap, it was excluded on purpose), `counts`
/// tallies only the slice, and `context` pairs are embedded verbatim
/// like the provider's. The result is a valid schema-v1 dump — `phj
/// blackbox` renders it with no special casing.
pub fn dump_events_to(
    path: &Path,
    cause: Cause,
    message: &str,
    events: &[Event],
    context: &[(String, String)],
) -> std::io::Result<()> {
    let capacity = global().map_or(0, |rec| rec.capacity());
    let mut events: Vec<Event> = events.to_vec();
    events.sort_by_key(|e| e.ts_ns);

    let mut per_tid: Vec<(u16, u64)> = Vec::new();
    let mut counts = [0u64; crate::event::KIND_COUNT];
    for ev in &events {
        counts[ev.kind as usize] += 1;
        match per_tid.iter_mut().find(|(tid, _)| *tid == ev.tid) {
            Some((_, n)) => *n += 1,
            None => per_tid.push((ev.tid, 1)),
        }
    }
    per_tid.sort_by_key(|(tid, _)| *tid);

    let mut out = String::with_capacity(1024 + 96 * events.len());
    out.push_str("{\n  \"schema_version\": 1,\n");
    out.push_str(&format!(
        "  \"cause\": {{\"kind\": \"{}\", \"message\": \"{}\"}},\n",
        cause.name(),
        escape(message)
    ));
    out.push_str("  \"mode\": \"phase\",\n");
    out.push_str(&format!("  \"capacity\": {capacity},\n"));
    out.push_str("  \"threads\": [");
    for (i, (tid, n)) in per_tid.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"tid\": {tid}, \"written\": {n}, \"recovered\": {n}, \"dropped\": 0}}"
        ));
    }
    out.push_str("],\n  \"counts\": {");
    let mut first = true;
    for kind in EventKind::ALL {
        let n = counts[kind as usize];
        if n == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{}\": {n}", kind.name()));
    }
    out.push_str("},\n  \"timeline\": [");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&event_json(ev));
    }
    out.push_str("\n  ]");
    if !context.is_empty() {
        out.push_str(",\n  \"context\": {");
        for (i, (k, v)) in context.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {v}", escape(k)));
        }
        out.push('}');
    }
    out.push_str("\n}\n");

    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.flush()
}

fn event_json(ev: &Event) -> String {
    format!(
        "{{\"t_ns\": {}, \"tid\": {}, \"kind\": \"{}\", \"code\": {}, \"a\": {}, \"b\": {}}}",
        ev.ts_ns,
        ev.tid,
        ev.kind.name(),
        ev.code,
        ev.a,
        ev.b
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Install the crash hooks: a panic hook (chained in front of the
/// existing one) and, on unix, a SIGTERM handler. Either dumps a
/// postmortem with the appropriate [`Cause`] before the process dies.
/// Call once from the binary's main, after [`crate::install`] and
/// [`set_postmortem_path`].
pub fn install_crash_hooks() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        let msg = match info.location() {
            Some(loc) => format!("{msg} at {}:{}", loc.file(), loc.line()),
            None => msg,
        };
        let _ = dump(Cause::Panic, &msg);
        prev(info);
    }));
    #[cfg(unix)]
    install_sigterm_hook();
}

#[cfg(unix)]
fn install_sigterm_hook() {
    // std links the platform libc; declaring the two symbols we need
    // avoids a libc crate dependency. SIG_ERR (-1) from signal() is
    // ignored — the hook is best-effort.
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigterm(_sig: i32) {
        // Not strictly async-signal-safe (allocates, takes locks), but
        // this fires on the way to process death: a wedged dump loses
        // nothing we would otherwise have kept.
        let _ = dump(Cause::Sigterm, "terminated by SIGTERM");
        std::process::exit(143);
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::recorder::{event, install_with};

    #[test]
    fn dump_without_path_is_none_and_manual_dump_writes_schema() {
        let _guard = crate::test_serial();
        // No path configured yet: dump is a no-op.
        assert!(dump(Cause::Manual, "x").unwrap().is_none());

        install_with(64);
        event(EventKind::Fault, 4, 12, 0);
        event(EventKind::Degrade, 0, 1, 8);

        let dir = std::env::temp_dir().join(format!("phj-fr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("postmortem.json");
        dump_to(&path, Cause::Manual, "quote \" and \\ and\nnewline").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema_version\": 1"));
        assert!(text.contains("\"kind\": \"manual\""));
        assert!(text.contains("quote \\\" and \\\\ and\\nnewline"));
        assert!(text.contains("\"fault\": 1"));
        assert!(text.contains("\"degrade\": 1"));
        assert!(text.contains("\"kind\": \"fault\", \"code\": 4, \"a\": 12"));
        assert!(!text.contains("\"context\""), "no provider installed yet");

        set_context_provider(Box::new(|| {
            vec![("degradation_depth".to_string(), "2".to_string())]
        }));
        set_postmortem_path(&path);
        let written = dump(Cause::TypedError, "disk: boom").unwrap();
        assert_eq!(written.as_deref(), Some(path.as_path()));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kind\": \"typed_error\""));
        assert!(text.contains("\"context\": {\"degradation_depth\": 2}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filtered_event_dump_balances_accounting_and_sorts() {
        let _guard = crate::test_serial();
        install_with(64);
        // Out of order on purpose: the writer must sort before emitting,
        // or the obs-side validator rejects the timeline.
        let events = vec![
            Event { ts_ns: 900, kind: EventKind::Grant, code: 2, tid: 1, a: 42, b: 4096 },
            Event { ts_ns: 100, kind: EventKind::Grant, code: 1, tid: 0, a: 42, b: 4096 },
            Event { ts_ns: 500, kind: EventKind::PhaseEnter, code: 18, tid: 1, a: 42, b: 0 },
        ];
        let dir = std::env::temp_dir().join(format!("phj-fr-slice-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow-query.json");
        let ctx = vec![("queue_wait_ns".to_string(), "1500".to_string())];
        dump_events_to(&path, Cause::Manual, "slow query 42", &events, &ctx).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema_version\": 1"));
        assert!(text.contains("\"kind\": \"manual\""));
        assert!(text.contains("{\"tid\": 0, \"written\": 1, \"recovered\": 1, \"dropped\": 0}"));
        assert!(text.contains("{\"tid\": 1, \"written\": 2, \"recovered\": 2, \"dropped\": 0}"));
        assert!(text.contains("\"grant\": 2"));
        assert!(text.contains("\"phase_enter\": 1"));
        assert!(text.contains("\"context\": {\"queue_wait_ns\": 1500}"));
        let acquire = text.find("\"t_ns\": 100").unwrap();
        let enter = text.find("\"t_ns\": 500").unwrap();
        let release = text.find("\"t_ns\": 900").unwrap();
        assert!(acquire < enter && enter < release, "timeline sorted by timestamp");
        std::fs::remove_dir_all(&dir).ok();
    }
}

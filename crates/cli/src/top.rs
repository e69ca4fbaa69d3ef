//! `phj top`: live view of a daemon's query table.
//!
//! Polls the daemon's `Status` request and renders the rows as a
//! fixed-width table — in-flight queries first (oldest at the top),
//! then the recently-completed tail the registry retains. One snapshot
//! by default; `--iters N --interval-ms M` refreshes like `top(1)`
//! (`--iters 0` = until interrupted), clearing the screen between
//! frames. Kind names come from [`phj_server::query::kind_name`].

use std::time::Duration;

use phj_obs::QUERY_STATES;
use phj_server::proto::{Request, Response, StatusRow};
use phj_server::query::kind_name;
use phj_server::Connection;

use crate::args::Args;

fn state_name(state: u8) -> &'static str {
    QUERY_STATES.get(state as usize).copied().unwrap_or("?")
}

/// Render one status snapshot as a table.
fn render(rows: &[StatusRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6}  {:>18}  {:<4}  {:<10}  {:>9}  {:>9}  {:>4}  {:>9}  {:>9}  {:>9}\n",
        "QID", "TRACE", "KIND", "STATE", "AGE_MS", "GRANT_MB", "SHED", "QWAIT_US", "GWAIT_US",
        "EXEC_US"
    ));
    for r in rows {
        let trace = if r.trace_id == 0 {
            "-".to_string()
        } else {
            format!("{:#018x}", r.trace_id)
        };
        out.push_str(&format!(
            "{:>6}  {:>18}  {:<4}  {:<10}  {:>9.1}  {:>9.1}  {:>4}  {:>9}  {:>9}  {:>9}\n",
            r.query_id,
            trace,
            kind_name(r.kind),
            state_name(r.state),
            r.age_us as f64 / 1e3,
            r.grant_bytes as f64 / (1u64 << 20) as f64,
            r.shed_count,
            r.queue_wait_us,
            r.grant_wait_us,
            r.exec_us,
        ));
    }
    if rows.is_empty() {
        out.push_str("(no queries yet)\n");
    }
    out
}

/// `phj top`: poll a daemon's live query table.
pub fn cmd_top(args: &Args) -> Result<(), String> {
    args.allow(&[
        "addr", "interval-ms", "iters", "log-format", "flightrec", "postmortem",
    ])?;
    let addr = args.get_str("addr", "");
    if addr.is_empty() {
        return Err("top needs --addr HOST:PORT (the daemon's `serving on` line)".to_string());
    }
    let interval = Duration::from_millis(args.get_usize("interval-ms", 1_000)?.max(10) as u64);
    let iters = args.get_usize("iters", 1)?;
    let mut frame = 0usize;
    loop {
        // One connection per frame: the daemon's idle-timeout reaper
        // must never kill a long-lived watcher mid-run.
        let mut conn =
            Connection::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
        let rows = match conn.request(&Request::Status) {
            Ok(Response::Status(rows)) => rows,
            Ok(other) => return Err(format!("unexpected response to Status: {other:?}")),
            Err(e) => return Err(format!("{addr}: {e}")),
        };
        frame += 1;
        if frame > 1 {
            // ANSI clear + home between refreshes, top(1)-style.
            out!("\x1b[2J\x1b[H");
        }
        let live = rows.iter().filter(|r| r.state < 5).count();
        outln!("phj top — {addr}: {live} in flight, {} shown", rows.len());
        out!("{}", render(&rows));
        // A closed stdout ends an unbounded watch: nobody reads it.
        if iters != 0 && frame >= iters || crate::stdout_closed() {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(state: u8) -> StatusRow {
        StatusRow {
            query_id: 7,
            trace_id: 0xABCD,
            kind: 1,
            state,
            age_us: 1_500,
            grant_bytes: 2 << 20,
            shed_count: 1,
            queue_wait_us: 10,
            grant_wait_us: 20,
            exec_us: 30,
        }
    }

    #[test]
    fn renders_rows_and_placeholder() {
        let s = render(&[row(3)]);
        assert!(s.contains("executing"), "{s}");
        assert!(s.contains("join"), "{s}");
        assert!(s.contains("0x000000000000abcd"), "{s}");
        assert!(render(&[]).contains("(no queries yet)"));
    }

    #[test]
    fn untraced_rows_render_a_dash() {
        let mut r = row(5);
        r.trace_id = 0;
        let s = render(&[r]);
        assert!(s.contains("done"), "{s}");
        // The TRACE column shows `-` rather than a zero id.
        assert!(s.contains("  -  ") || s.contains(" -  "), "{s}");
    }
}

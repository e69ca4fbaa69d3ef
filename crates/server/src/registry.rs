//! The live query table: every in-flight query's lifecycle state, plus
//! a bounded ring of recently-completed ones.
//!
//! The daemon registers each query the moment its frame decodes and
//! walks it through a typed state machine (DESIGN.md §17):
//!
//! ```text
//! received → queued → admitted → executing → responding → done
//!     └──────────────┴──────────────┴────────────┴─────→ failed
//! ```
//!
//! `queued` is skipped when admission grants without waiting, and any
//! state can fall through to `failed` (rejection, typed error, panic).
//! Every transition records its wall-clock offset from arrival, which
//! is what the `query_trace` report section, the `Status` protocol
//! response, the `/queries` HTTP endpoint, and `phj top` all render —
//! one registry, four views.
//!
//! The registry never extends a query's life: it holds a [`Weak`] to
//! the grant (live size readable until release, then 0) and plain
//! copies of everything else. Completed entries age out of a bounded
//! ring, so a long-running daemon's table stays O(live + recent).

use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::admission::MemGrant;
use crate::proto::StatusRow;
use phj_obs::{Json, QUERY_STATES};

/// How many completed queries the registry remembers.
const RECENT_CAP: usize = 32;

/// Lifecycle states, in machine order. The discriminant is the wire
/// state code in [`StatusRow`] and the index into
/// [`phj_obs::QUERY_STATES`] — the three must stay aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum QueryState {
    /// Frame decoded, nothing else yet.
    Received = 0,
    /// Waiting in the admission FIFO.
    Queued = 1,
    /// Grant acquired, not yet running.
    Admitted = 2,
    /// The query kernel is running.
    Executing = 3,
    /// Result produced, serializing the response.
    Responding = 4,
    /// Response sent.
    Done = 5,
    /// Rejected, errored, or panicked.
    Failed = 6,
}

impl QueryState {
    /// Stable name (the `QUERY_STATES` entry this code indexes).
    pub fn name(self) -> &'static str {
        QUERY_STATES[self as usize]
    }
}

/// One query's full lifecycle record, cloned out of the registry when
/// the server builds a `query_trace` report section or a slow-query
/// dump. Offsets are nanoseconds since the request was received.
#[derive(Debug, Clone, Default)]
pub struct Lifecycle {
    /// Client-minted trace id (0 = untraced).
    pub trace_id: u64,
    /// 1 = join, 2 = agg, 3 = disk join.
    pub kind: u8,
    /// `(state, t_ns)` transitions in order.
    pub transitions: Vec<(QueryState, u64)>,
    /// Time queued behind earlier arrivals, ns.
    pub queue_wait_ns: u64,
    /// Time at the queue head waiting for budget, ns.
    pub grant_wait_ns: u64,
    /// Execution wall time, ns (running: elapsed so far).
    pub exec_ns: u64,
    /// Shed requests this query absorbed.
    pub shed_count: u32,
}

struct Entry {
    query_id: u64,
    trace_id: u64,
    kind: u8,
    state: QueryState,
    received: Instant,
    transitions: Vec<(QueryState, u64)>,
    grant: Weak<MemGrant>,
    queue_wait: Duration,
    grant_wait: Duration,
    exec_start: Option<Instant>,
    exec: Duration,
    sheds: u32,
}

impl Entry {
    fn exec_ns(&self, now: Instant) -> u64 {
        if self.exec != Duration::ZERO {
            return self.exec.as_nanos() as u64;
        }
        match self.exec_start {
            Some(start) => now.duration_since(start).as_nanos() as u64,
            None => 0,
        }
    }

    fn row(&self, now: Instant) -> StatusRow {
        StatusRow {
            query_id: self.query_id,
            trace_id: self.trace_id,
            kind: self.kind,
            state: self.state as u8,
            age_us: now.duration_since(self.received).as_micros() as u64,
            grant_bytes: self.grant.upgrade().map_or(0, |g| g.bytes()),
            shed_count: self.sheds,
            queue_wait_us: self.queue_wait.as_micros() as u64,
            grant_wait_us: self.grant_wait.as_micros() as u64,
            exec_us: self.exec_ns(now) / 1_000,
        }
    }
}

struct Inner {
    live: Vec<Entry>,
    recent: std::collections::VecDeque<Entry>,
}

/// The registry. One per server; clone the `Arc` freely.
pub struct QueryRegistry {
    inner: Mutex<Inner>,
}

impl Default for QueryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryRegistry {
    /// An empty registry.
    pub fn new() -> QueryRegistry {
        QueryRegistry {
            inner: Mutex::new(Inner { live: Vec::new(), recent: std::collections::VecDeque::new() }),
        }
    }

    /// Register a freshly-decoded query in state `received`.
    pub fn register(&self, query_id: u64, trace_id: u64, kind: u8) {
        let mut inner = self.inner.lock().unwrap();
        inner.live.push(Entry {
            query_id,
            trace_id,
            kind,
            state: QueryState::Received,
            received: Instant::now(),
            transitions: vec![(QueryState::Received, 0)],
            grant: Weak::new(),
            queue_wait: Duration::ZERO,
            grant_wait: Duration::ZERO,
            exec_start: None,
            exec: Duration::ZERO,
            sheds: 0,
        });
    }

    /// Advance a live query's state, recording the transition offset.
    /// Entering `executing` starts the exec clock; leaving it (to
    /// `responding` or `failed`) stops it.
    pub fn set_state(&self, query_id: u64, state: QueryState) {
        let mut inner = self.inner.lock().unwrap();
        let Some(e) = inner.live.iter_mut().find(|e| e.query_id == query_id) else {
            return;
        };
        let now = Instant::now();
        if state == QueryState::Executing {
            e.exec_start = Some(now);
        } else if e.exec_start.is_some() && e.exec == Duration::ZERO {
            e.exec = now.duration_since(e.exec_start.unwrap());
        }
        e.state = state;
        let t_ns = now.duration_since(e.received).as_nanos() as u64;
        e.transitions.push((state, t_ns));
    }

    /// Attach the admitted grant: the registry reads its live size
    /// through a `Weak` and copies its queue/grant wait split.
    pub fn set_grant(&self, query_id: u64, grant: &Arc<MemGrant>) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.live.iter_mut().find(|e| e.query_id == query_id) {
            e.grant = Arc::downgrade(grant);
            e.queue_wait = grant.queue_wait();
            e.grant_wait = grant.grant_wait();
        }
    }

    /// Record that a query was asked to shed memory (the admission
    /// table's shed observer lands here).
    pub fn note_shed(&self, query_id: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.live.iter_mut().find(|e| e.query_id == query_id) {
            e.sheds += 1;
        }
    }

    /// Retire a live query into the recent ring in its final state.
    pub fn finish(&self, query_id: u64, state: QueryState) {
        debug_assert!(matches!(state, QueryState::Done | QueryState::Failed));
        self.set_state(query_id, state);
        let mut inner = self.inner.lock().unwrap();
        let Some(pos) = inner.live.iter().position(|e| e.query_id == query_id) else {
            return;
        };
        let entry = inner.live.remove(pos);
        inner.recent.push_back(entry);
        while inner.recent.len() > RECENT_CAP {
            inner.recent.pop_front();
        }
    }

    /// A live query's lifecycle record so far (`None` once retired —
    /// the caller builds report sections *before* finishing).
    pub fn lifecycle(&self, query_id: u64) -> Option<Lifecycle> {
        let inner = self.inner.lock().unwrap();
        let e = inner.live.iter().find(|e| e.query_id == query_id)?;
        Some(Lifecycle {
            trace_id: e.trace_id,
            kind: e.kind,
            transitions: e.transitions.clone(),
            queue_wait_ns: e.queue_wait.as_nanos() as u64,
            grant_wait_ns: e.grant_wait.as_nanos() as u64,
            exec_ns: e.exec_ns(Instant::now()),
            shed_count: e.sheds,
        })
    }

    /// Snapshot the table as wire rows: live queries first (oldest
    /// first), then recently-completed (newest first), capped at
    /// [`crate::proto::MAX_STATUS_ROWS`].
    pub fn snapshot(&self) -> Vec<StatusRow> {
        let now = Instant::now();
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<StatusRow> = inner.live.iter().map(|e| e.row(now)).collect();
        rows.extend(inner.recent.iter().rev().map(|e| e.row(now)));
        rows.truncate(crate::proto::MAX_STATUS_ROWS as usize);
        rows
    }

    /// Live queries right now.
    pub fn live_count(&self) -> usize {
        self.inner.lock().unwrap().live.len()
    }

    /// The table as a JSON document for the `/queries` HTTP endpoint:
    /// `{"queries": [{...}, ...]}` with states and kinds as names.
    pub fn to_json(&self) -> String {
        let row = |r: StatusRow| {
            let kind = match r.kind {
                1 => "join",
                2 => "agg",
                _ => "disk_join",
            };
            Json::obj(vec![
                ("query_id", Json::U64(r.query_id)),
                ("trace_id", Json::U64(r.trace_id)),
                ("kind", Json::Str(kind.to_string())),
                ("state", Json::Str(QUERY_STATES[r.state as usize].to_string())),
                ("age_us", Json::U64(r.age_us)),
                ("grant_bytes", Json::U64(r.grant_bytes)),
                ("shed_count", Json::U64(r.shed_count as u64)),
                ("queue_wait_us", Json::U64(r.queue_wait_us)),
                ("grant_wait_us", Json::U64(r.grant_wait_us)),
                ("exec_us", Json::U64(r.exec_us)),
            ])
        };
        let queries = self.snapshot().into_iter().map(row).collect();
        Json::obj(vec![("queries", Json::Arr(queries))]).render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{Admission, AdmissionConfig};

    #[test]
    fn state_codes_match_the_canonical_name_table() {
        let states = [
            QueryState::Received,
            QueryState::Queued,
            QueryState::Admitted,
            QueryState::Executing,
            QueryState::Responding,
            QueryState::Done,
            QueryState::Failed,
        ];
        assert_eq!(states.len(), QUERY_STATES.len());
        for s in states {
            assert_eq!(s.name(), QUERY_STATES[s as usize]);
        }
    }

    #[test]
    fn lifecycle_walks_the_machine_and_retires_into_recent() {
        let reg = QueryRegistry::new();
        reg.register(1, 0x7AC3, 1);
        reg.set_state(1, QueryState::Admitted);
        reg.set_state(1, QueryState::Executing);
        std::thread::sleep(Duration::from_millis(2));
        reg.set_state(1, QueryState::Responding);
        let lc = reg.lifecycle(1).expect("still live");
        assert_eq!(lc.kind, 1);
        assert!(lc.exec_ns >= 1_000_000, "exec clock ran: {}", lc.exec_ns);
        let names: Vec<&str> = lc.transitions.iter().map(|(s, _)| s.name()).collect();
        assert_eq!(names, ["received", "admitted", "executing", "responding"]);
        assert!(lc.transitions.windows(2).all(|w| w[0].1 <= w[1].1));

        reg.finish(1, QueryState::Done);
        assert_eq!(reg.live_count(), 0);
        assert!(reg.lifecycle(1).is_none(), "retired queries are snapshot-only");
        let rows = reg.snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].state, QueryState::Done as u8);
        // The JSON view carries names, not codes.
        let json = reg.to_json();
        assert!(json.contains("\"state\": \"done\""));
        assert!(json.contains("\"kind\": \"join\""));
    }

    #[test]
    fn grant_size_reads_live_and_zeroes_after_release() {
        let adm = Admission::new(AdmissionConfig { budget: 100, min_grant: 1, max_queue: 4 });
        let reg = QueryRegistry::new();
        reg.register(9, 0, 3);
        let grant = Arc::new(adm.admit(9, 64).unwrap());
        reg.set_grant(9, &grant);
        reg.note_shed(9);
        let rows = reg.snapshot();
        assert_eq!(rows[0].grant_bytes, 64);
        assert_eq!(rows[0].shed_count, 1);
        drop(grant);
        assert_eq!(reg.snapshot()[0].grant_bytes, 0, "weak grant is gone after release");
    }

    #[test]
    fn recent_ring_is_bounded() {
        let reg = QueryRegistry::new();
        for qid in 0..(RECENT_CAP as u64 + 10) {
            reg.register(qid, 0, 2);
            reg.finish(qid, QueryState::Done);
        }
        let rows = reg.snapshot();
        assert_eq!(rows.len(), RECENT_CAP);
        // Newest completion first.
        assert_eq!(rows[0].query_id, RECENT_CAP as u64 + 9);
    }
}

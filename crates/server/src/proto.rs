//! The wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +---------+-------------+----------------------+
//! | version | body length | body                 |
//! | u8 = 1  | u32 LE      | `body length` bytes  |
//! +---------+-------------+----------------------+
//! ```
//!
//! The body's first byte is a tag (requests `0x01..`, responses
//! `0x81..`); the rest is fixed-width little-endian fields plus
//! length-prefixed strings. Everything decodes with bounds checks into
//! typed [`ProtoError`]s — arbitrary garbage bytes must produce an
//! error, never a panic (property-tested in `tests/proto_props.rs`).
//!
//! Frames are capped at [`MAX_FRAME`]: a hostile or corrupt length
//! prefix is rejected *before* any allocation, so a 4 GB length cannot
//! OOM the daemon.

use std::io::{Read, Write};

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Upper bound on a frame body, checked before allocating.
pub const MAX_FRAME: u32 = 1 << 20;

/// Typed decode failures. Every way a frame can be malformed maps to
/// one of these — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Header version byte was not [`VERSION`].
    BadVersion(u8),
    /// The buffer ended before a fixed-width field or prefixed blob.
    Truncated,
    /// Declared body length exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// Unknown request/response tag byte.
    BadTag(u8),
    /// A length-prefixed string was not UTF-8.
    BadUtf8,
    /// Bytes left over after a complete message was decoded.
    Trailing(usize),
    /// A field value outside its domain (e.g. pct > 100).
    BadValue(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadVersion(v) => write!(f, "bad protocol version {v} (want {VERSION})"),
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::Oversized(n) => write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME}"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::BadValue(what) => write!(f, "field out of range: {what}"),
        }
    }
}

/// Frame-level read failures: transport errors wrap `std::io::Error`,
/// malformed bytes wrap [`ProtoError`].
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket/file failed (includes timeouts).
    Io(std::io::Error),
    /// The bytes arrived but do not form a valid frame.
    Proto(ProtoError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<ProtoError> for FrameError {
    fn from(e: ProtoError) -> Self {
        FrameError::Proto(e)
    }
}

/// Hash-join scheme selector on the wire (mirrors the CLI `--scheme`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireScheme {
    /// No prefetching.
    Baseline,
    /// Simple prefetching.
    Simple,
    /// Group prefetching with group size `g`.
    Group {
        /// Tuples per prefetch group.
        g: u32,
    },
    /// Software-pipelined prefetching with distance `d`.
    Swp {
        /// Pipeline prefetch distance.
        d: u32,
    },
}

impl WireScheme {
    fn code(self) -> u8 {
        match self {
            WireScheme::Baseline => 0,
            WireScheme::Simple => 1,
            WireScheme::Group { .. } => 2,
            WireScheme::Swp { .. } => 3,
        }
    }

    fn params(self) -> (u32, u32) {
        match self {
            WireScheme::Group { g } => (g, 0),
            WireScheme::Swp { d } => (0, d),
            _ => (0, 0),
        }
    }

    /// Inverse of `code()` + `params()`. Unused parameters must be
    /// zero, so every scheme has exactly one wire form — decode∘encode
    /// is the identity and encode∘decode is too (the round-trip
    /// property in `tests/proto_props.rs` relies on it).
    fn from_parts(code: u8, g: u32, d: u32) -> Result<WireScheme, ProtoError> {
        match (code, g, d) {
            (0, 0, 0) => Ok(WireScheme::Baseline),
            (1, 0, 0) => Ok(WireScheme::Simple),
            (2, g, 0) => Ok(WireScheme::Group { g }),
            (3, 0, d) => Ok(WireScheme::Swp { d }),
            (0..=3, ..) => Err(ProtoError::BadValue("non-canonical scheme params")),
            _ => Err(ProtoError::BadValue("scheme code")),
        }
    }

    /// Human label matching the CLI's `--scheme` values.
    pub fn label(&self) -> &'static str {
        match self {
            WireScheme::Baseline => "baseline",
            WireScheme::Simple => "simple",
            WireScheme::Group { .. } => "group",
            WireScheme::Swp { .. } => "swp",
        }
    }
}

/// A join query: the same knobs as `phj join`, one request per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinRequest {
    /// Build-side cardinality.
    pub build_tuples: u64,
    /// Bytes per tuple (4-byte key + payload).
    pub tuple_size: u32,
    /// Probe tuples matching each build tuple.
    pub matches_per_build: u32,
    /// Percentage of build tuples with matches (0–100).
    pub pct_match: u8,
    /// Join-phase algorithm.
    pub scheme: WireScheme,
    /// Join-phase memory budget in bytes.
    pub mem_budget: u64,
    /// Workload generator seed (determines the checksum).
    pub seed: u64,
    /// Client-minted distributed trace id (0 = untraced). Travels as an
    /// optional frame tail: omitted entirely when zero, so untraced
    /// frames are byte-identical to the pre-tracing wire format.
    pub trace_id: u64,
}

/// An aggregation query: the same knobs as `phj agg`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggRequest {
    /// Input rows.
    pub rows: u64,
    /// Distinct group keys.
    pub keys: u64,
    /// Aggregation algorithm.
    pub scheme: WireScheme,
    /// Memory the query asks a grant for, in bytes (0 = estimate).
    pub mem_budget: u64,
    /// Client-minted distributed trace id (0 = untraced; optional tail,
    /// same convention as [`JoinRequest::trace_id`]).
    pub trace_id: u64,
}

/// An on-disk join query: runs the `phj-disk` engine (GRACE, hybrid,
/// or dynamic hybrid) against generated file relations in a per-query
/// scratch directory. The memory grant maps 1:1 to the join's live
/// budget, which is what makes these queries *revocable*: admission
/// can ask a running dynamic disk join to shed memory mid-flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskJoinRequest {
    /// Build-side cardinality.
    pub build_tuples: u64,
    /// Bytes per tuple (4-byte key + payload).
    pub tuple_size: u32,
    /// Probe tuples matching each build tuple.
    pub matches_per_build: u32,
    /// Percentage of build tuples with matches (0–100).
    pub pct_match: u8,
    /// Join memory budget in bytes — also the grant size.
    pub mem_budget: u64,
    /// Workload generator seed (determines the checksum).
    pub seed: u64,
    /// Execution strategy: 0 = grace, 1 = hybrid, 2 = dynamic.
    pub mode: u8,
    /// Client-minted distributed trace id (0 = untraced; optional tail,
    /// same convention as [`JoinRequest::trace_id`]).
    pub trace_id: u64,
}

/// A decoded request frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a hash join.
    Join(JoinRequest),
    /// Run an aggregation.
    Agg(AggRequest),
    /// Run an on-disk join.
    DiskJoin(DiskJoinRequest),
    /// Liveness probe; the server answers [`Response::Pong`].
    Ping,
    /// Introspection: ask for the live query table; the server answers
    /// [`Response::Status`].
    Status,
}

const TAG_JOIN: u8 = 0x01;
const TAG_AGG: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_DISK: u8 = 0x04;
const TAG_STATUS: u8 = 0x05;
const TAG_RESULT: u8 = 0x81;
const TAG_ERROR: u8 = 0x82;
const TAG_PONG: u8 = 0x83;
const TAG_STATUS_RESP: u8 = 0x84;

/// Upper bound on rows in a [`Response::Status`] frame, checked before
/// any allocation — a hostile row count cannot OOM the decoder.
pub const MAX_STATUS_ROWS: u32 = 1024;

/// Typed error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame was malformed.
    BadRequest = 1,
    /// The query's memory request exceeds the server's whole budget.
    TooLarge = 2,
    /// The admission queue is full; retry later.
    QueueFull = 3,
    /// The query failed while executing.
    Internal = 4,
    /// The server is shutting down.
    ShuttingDown = 5,
    /// The server is at its connection cap; retry later.
    Busy = 6,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Result<ErrorCode, ProtoError> {
        match v {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::TooLarge),
            3 => Ok(ErrorCode::QueueFull),
            4 => Ok(ErrorCode::Internal),
            5 => Ok(ErrorCode::ShuttingDown),
            6 => Ok(ErrorCode::Busy),
            _ => Err(ProtoError::BadValue("error code")),
        }
    }
}

/// One query's result: identity, checksum, and the embedded RunReport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Server-assigned query id (also tagged into the RunReport and
    /// flight-recorder events).
    pub query_id: u64,
    /// 1 = join, 2 = agg, 3 = disk join.
    pub kind: u8,
    /// Join matches, or aggregation groups.
    pub matches: u64,
    /// Order-independent result checksum: word-wise pair digest, additive
    /// fold (join: over matched pairs; agg: over groups). Equal inputs must produce equal checksums
    /// regardless of concurrency.
    pub checksum: u64,
    /// Partitions the join produced (0 for agg).
    pub partitions: u64,
    /// Server-side wall time for the query, microseconds.
    pub elapsed_us: u64,
    /// The per-query RunReport, rendered as JSON.
    pub report_json: String,
    /// The trace id the request carried, echoed back (0 = untraced;
    /// optional tail, same convention as [`JoinRequest::trace_id`]).
    pub trace_id: u64,
}

/// One row of the live query table carried by [`Response::Status`]:
/// a fixed-width snapshot of one in-flight or recently-completed query.
/// State codes index `phj_obs::QUERY_STATES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusRow {
    /// Server-assigned query id.
    pub query_id: u64,
    /// Client-minted trace id (0 = untraced).
    pub trace_id: u64,
    /// 1 = join, 2 = agg, 3 = disk join.
    pub kind: u8,
    /// Lifecycle state code (0–6: received, queued, admitted,
    /// executing, responding, done, failed).
    pub state: u8,
    /// Microseconds since the request was received.
    pub age_us: u64,
    /// Current grant size in bytes (0 once released).
    pub grant_bytes: u64,
    /// Shed requests this query has absorbed.
    pub shed_count: u32,
    /// Time spent queued behind earlier arrivals, microseconds.
    pub queue_wait_us: u64,
    /// Time spent at the queue head waiting for budget, microseconds.
    pub grant_wait_us: u64,
    /// Execution wall time so far (or final), microseconds.
    pub exec_us: u64,
}

/// A decoded response frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The query ran; here is its result.
    Result(QueryResult),
    /// The query was rejected or failed.
    Error {
        /// What went wrong, as a stable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Status`]: the live query table.
    Status(Vec<StatusRow>),
}

// ---------------------------------------------------------------- codec

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    /// The optional 8-byte trace-id tail: present iff exactly 8 bytes
    /// remain after the message's fixed part. An *explicit* zero is
    /// rejected — zero means "untraced" and untraced frames omit the
    /// tail entirely, so every message keeps exactly one wire form
    /// (the decode∘encode identity in `tests/proto_props.rs`).
    fn trace_tail(&mut self) -> Result<u64, ProtoError> {
        if self.buf.len() - self.pos != 8 {
            return Ok(0);
        }
        let id = self.u64()?;
        if id == 0 {
            return Err(ProtoError::BadValue("explicit zero trace id"));
        }
        Ok(id)
    }

    fn finish(self) -> Result<(), ProtoError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(ProtoError::Trailing(left))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_trace_tail(out: &mut Vec<u8>, trace_id: u64) {
    if trace_id != 0 {
        out.extend_from_slice(&trace_id.to_le_bytes());
    }
}

impl Request {
    /// Encode this request as a frame body (no header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode this request as a complete frame (header + body), ready
    /// for one `write_all`. Same bytes as [`write_frame`] of
    /// [`encode`](Self::encode), without the intermediate body buffer.
    pub fn encode_frame(&self) -> Result<Vec<u8>, ProtoError> {
        encode_framed(|out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Join(j) => {
                let (g, d) = j.scheme.params();
                out.push(TAG_JOIN);
                out.extend_from_slice(&j.build_tuples.to_le_bytes());
                out.extend_from_slice(&j.tuple_size.to_le_bytes());
                out.extend_from_slice(&j.matches_per_build.to_le_bytes());
                out.push(j.pct_match);
                out.push(j.scheme.code());
                out.extend_from_slice(&g.to_le_bytes());
                out.extend_from_slice(&d.to_le_bytes());
                out.extend_from_slice(&j.mem_budget.to_le_bytes());
                out.extend_from_slice(&j.seed.to_le_bytes());
                put_trace_tail(out, j.trace_id);
            }
            Request::Agg(a) => {
                let (g, d) = a.scheme.params();
                out.push(TAG_AGG);
                out.extend_from_slice(&a.rows.to_le_bytes());
                out.extend_from_slice(&a.keys.to_le_bytes());
                out.push(a.scheme.code());
                out.extend_from_slice(&g.to_le_bytes());
                out.extend_from_slice(&d.to_le_bytes());
                out.extend_from_slice(&a.mem_budget.to_le_bytes());
                put_trace_tail(out, a.trace_id);
            }
            Request::DiskJoin(dj) => {
                out.push(TAG_DISK);
                out.extend_from_slice(&dj.build_tuples.to_le_bytes());
                out.extend_from_slice(&dj.tuple_size.to_le_bytes());
                out.extend_from_slice(&dj.matches_per_build.to_le_bytes());
                out.push(dj.pct_match);
                out.extend_from_slice(&dj.mem_budget.to_le_bytes());
                out.extend_from_slice(&dj.seed.to_le_bytes());
                out.push(dj.mode);
                put_trace_tail(out, dj.trace_id);
            }
            Request::Ping => out.push(TAG_PING),
            Request::Status => out.push(TAG_STATUS),
        }
    }

    /// Decode a frame body into a request. Total: every byte is
    /// consumed or the decode fails typed.
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            TAG_JOIN => {
                let build_tuples = c.u64()?;
                let tuple_size = c.u32()?;
                let matches_per_build = c.u32()?;
                let pct_match = c.u8()?;
                if pct_match > 100 {
                    return Err(ProtoError::BadValue("pct_match > 100"));
                }
                let code = c.u8()?;
                let g = c.u32()?;
                let d = c.u32()?;
                let scheme = WireScheme::from_parts(code, g, d)?;
                let mem_budget = c.u64()?;
                let seed = c.u64()?;
                let trace_id = c.trace_tail()?;
                if tuple_size < 8 {
                    return Err(ProtoError::BadValue("tuple_size < 8"));
                }
                Request::Join(JoinRequest {
                    build_tuples,
                    tuple_size,
                    matches_per_build,
                    pct_match,
                    scheme,
                    mem_budget,
                    seed,
                    trace_id,
                })
            }
            TAG_AGG => {
                let rows = c.u64()?;
                let keys = c.u64()?;
                let code = c.u8()?;
                let g = c.u32()?;
                let d = c.u32()?;
                let scheme = WireScheme::from_parts(code, g, d)?;
                let mem_budget = c.u64()?;
                let trace_id = c.trace_tail()?;
                if keys == 0 {
                    return Err(ProtoError::BadValue("keys == 0"));
                }
                Request::Agg(AggRequest { rows, keys, scheme, mem_budget, trace_id })
            }
            TAG_DISK => {
                let build_tuples = c.u64()?;
                let tuple_size = c.u32()?;
                let matches_per_build = c.u32()?;
                let pct_match = c.u8()?;
                if pct_match > 100 {
                    return Err(ProtoError::BadValue("pct_match > 100"));
                }
                let mem_budget = c.u64()?;
                let seed = c.u64()?;
                let mode = c.u8()?;
                let trace_id = c.trace_tail()?;
                if mode > 2 {
                    return Err(ProtoError::BadValue("disk join mode > 2"));
                }
                if tuple_size < 8 {
                    return Err(ProtoError::BadValue("tuple_size < 8"));
                }
                Request::DiskJoin(DiskJoinRequest {
                    build_tuples,
                    tuple_size,
                    matches_per_build,
                    pct_match,
                    mem_budget,
                    seed,
                    mode,
                    trace_id,
                })
            }
            TAG_PING => Request::Ping,
            TAG_STATUS => Request::Status,
            t => return Err(ProtoError::BadTag(t)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode this response as a frame body (no header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode this response as a complete frame (header + body); see
    /// [`Request::encode_frame`]. The ~6 KB embedded report is copied
    /// once, into the buffer the socket write reads from.
    pub fn encode_frame(&self) -> Result<Vec<u8>, ProtoError> {
        encode_framed(|out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Result(r) => {
                // Tag, id, kind, four u64s, string prefix, trace tail:
                // size the buffer once so the report is copied once.
                out.reserve(1 + 8 + 1 + 4 * 8 + 4 + r.report_json.len() + 8);
                out.push(TAG_RESULT);
                out.extend_from_slice(&r.query_id.to_le_bytes());
                out.push(r.kind);
                out.extend_from_slice(&r.matches.to_le_bytes());
                out.extend_from_slice(&r.checksum.to_le_bytes());
                out.extend_from_slice(&r.partitions.to_le_bytes());
                out.extend_from_slice(&r.elapsed_us.to_le_bytes());
                put_string(out, &r.report_json);
                put_trace_tail(out, r.trace_id);
            }
            Response::Error { code, message } => {
                out.push(TAG_ERROR);
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                put_string(out, message);
            }
            Response::Pong => out.push(TAG_PONG),
            Response::Status(rows) => {
                out.push(TAG_STATUS_RESP);
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    out.extend_from_slice(&row.query_id.to_le_bytes());
                    out.extend_from_slice(&row.trace_id.to_le_bytes());
                    out.push(row.kind);
                    out.push(row.state);
                    out.extend_from_slice(&row.age_us.to_le_bytes());
                    out.extend_from_slice(&row.grant_bytes.to_le_bytes());
                    out.extend_from_slice(&row.shed_count.to_le_bytes());
                    out.extend_from_slice(&row.queue_wait_us.to_le_bytes());
                    out.extend_from_slice(&row.grant_wait_us.to_le_bytes());
                    out.extend_from_slice(&row.exec_us.to_le_bytes());
                }
            }
        }
    }

    /// Decode a frame body into a response.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            TAG_RESULT => Response::Result(QueryResult {
                query_id: c.u64()?,
                kind: c.u8()?,
                matches: c.u64()?,
                checksum: c.u64()?,
                partitions: c.u64()?,
                elapsed_us: c.u64()?,
                report_json: c.string()?,
                trace_id: c.trace_tail()?,
            }),
            TAG_ERROR => Response::Error {
                code: ErrorCode::from_u16(c.u16()?)?,
                message: c.string()?,
            },
            TAG_PONG => Response::Pong,
            TAG_STATUS_RESP => {
                let count = c.u32()?;
                if count > MAX_STATUS_ROWS {
                    return Err(ProtoError::BadValue("status row count"));
                }
                let mut rows = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let query_id = c.u64()?;
                    let trace_id = c.u64()?;
                    let kind = c.u8()?;
                    let state = c.u8()?;
                    if kind == 0 || kind > 3 {
                        return Err(ProtoError::BadValue("status row kind"));
                    }
                    if state > 6 {
                        return Err(ProtoError::BadValue("query state code"));
                    }
                    rows.push(StatusRow {
                        query_id,
                        trace_id,
                        kind,
                        state,
                        age_us: c.u64()?,
                        grant_bytes: c.u64()?,
                        shed_count: c.u32()?,
                        queue_wait_us: c.u64()?,
                        grant_wait_us: c.u64()?,
                        exec_us: c.u64()?,
                    });
                }
                Response::Status(rows)
            }
            t => return Err(ProtoError::BadTag(t)),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Frame header bytes: [`VERSION`] + `u32` LE body length.
const HEADER_LEN: usize = 5;

/// A body length as the header carries it, or [`ProtoError::Oversized`]
/// past [`MAX_FRAME`] — never send a frame the peer is guaranteed to
/// reject.
fn frame_len(body_len: usize) -> Result<u32, ProtoError> {
    match u32::try_from(body_len) {
        Ok(len) if len <= MAX_FRAME => Ok(len),
        Ok(len) => Err(ProtoError::Oversized(len)),
        Err(_) => Err(ProtoError::Oversized(u32::MAX)),
    }
}

/// Build a complete frame in one buffer: reserve the header, let
/// `encode_body` append the body, then patch the length in.
fn encode_framed(encode_body: impl FnOnce(&mut Vec<u8>)) -> Result<Vec<u8>, ProtoError> {
    // Every request and most replies fit the initial capacity; a
    // result frame reserves for its report itself.
    let mut frame = Vec::with_capacity(64);
    frame.extend_from_slice(&[VERSION, 0, 0, 0, 0]);
    encode_body(&mut frame);
    let len = frame_len(frame.len() - HEADER_LEN)?;
    frame[1..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    Ok(frame)
}

/// Write one frame: header ([`VERSION`], body length) and body, in a
/// single `write_all`. Two writes would let Nagle hold the body until
/// the peer's delayed ACK of the 5-byte header — a ~40 ms stall per
/// direction on a persistent connection. Fails with
/// [`FrameError::Proto`] before any byte is written if the body
/// exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    let len = frame_len(body.len())?;
    let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
    frame.push(VERSION);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame body. `Ok(None)` means the peer closed cleanly
/// *between* frames; a close mid-frame is [`ProtoError::Truncated`].
/// The declared length is validated against [`MAX_FRAME`] before any
/// allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    // First byte by hand so clean EOF (zero bytes) is distinguishable
    // from a mid-header close.
    let mut first = [0u8; 1];
    match r.read(&mut first) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    read_frame_rest(first[0], r).map(Some)
}

/// Read the remainder of a frame whose first header byte (`version`)
/// has already been consumed. The split exists for pollers that probe
/// for the first byte under a short read timeout and then finish the
/// frame under a longer one: a timeout before the first byte is an
/// idle poll, a timeout after it is a broken frame — `read_exact`
/// discards mid-frame progress, so callers must treat an [`FrameError::Io`]
/// from this function as fatal for the stream (the framing can no
/// longer be trusted).
pub fn read_frame_rest(version: u8, r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    if version != VERSION {
        return Err(ProtoError::BadVersion(version).into());
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes).map_err(eof_as_truncated)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized(len).into());
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(eof_as_truncated)?;
    Ok(body)
}

fn eof_as_truncated(e: std::io::Error) -> FrameError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ProtoError::Truncated.into()
    } else {
        e.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let req = Request::Join(JoinRequest {
            build_tuples: 10_000,
            tuple_size: 100,
            matches_per_build: 2,
            pct_match: 100,
            scheme: WireScheme::Group { g: 16 },
            mem_budget: 1 << 20,
            seed: 0x11D0,
            trace_id: 0,
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let body = read_frame(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(Request::decode(&body).unwrap(), req);
        // And nothing follows: the next read sees clean EOF.
        let mut rest = &wire[wire.len()..];
        assert!(read_frame(&mut rest).unwrap().is_none());
    }

    /// Counts `write` calls: on a socket each one is a segment Nagle
    /// can hold back behind the peer's delayed ACK.
    struct CountingWriter {
        wire: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_exactly_one_write() {
        for len in [0usize, 17, 100 << 10] {
            let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut w = CountingWriter { wire: Vec::new(), writes: 0 };
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.writes, 1, "{len}-byte body must go out in one write");
            assert_eq!(read_frame(&mut w.wire.as_slice()).unwrap().unwrap(), body);
        }

        // The frame encoders produce write_frame's bytes, ready for one
        // write_all: same check, from a Pong up to a 100 KB report.
        let result = |report_len: usize| {
            Response::Result(QueryResult {
                query_id: 9,
                kind: 1,
                matches: 4_000,
                checksum: 0xC0FFEE,
                partitions: 2,
                elapsed_us: 2_500,
                report_json: "r".repeat(report_len),
                trace_id: 0,
            })
        };
        for resp in [Response::Pong, result(0), result(100 << 10)] {
            let mut w = CountingWriter { wire: Vec::new(), writes: 0 };
            w.write_all(&resp.encode_frame().unwrap()).unwrap();
            assert_eq!(w.writes, 1);
            let mut via_body = Vec::new();
            write_frame(&mut via_body, &resp.encode()).unwrap();
            assert_eq!(w.wire, via_body, "encode_frame must not change the wire bytes");
            let body = read_frame(&mut w.wire.as_slice()).unwrap().unwrap();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
        for req in [Request::Ping, Request::Status] {
            let frame = req.encode_frame().unwrap();
            let mut via_body = Vec::new();
            write_frame(&mut via_body, &req.encode()).unwrap();
            assert_eq!(frame, via_body);
        }
    }

    #[test]
    fn oversized_bodies_are_refused_before_any_byte_is_written() {
        let body = vec![0u8; MAX_FRAME as usize + 1];
        let mut w = CountingWriter { wire: Vec::new(), writes: 0 };
        match write_frame(&mut w, &body) {
            Err(FrameError::Proto(ProtoError::Oversized(n))) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("want Oversized, got {other:?}"),
        }
        assert_eq!(w.writes, 0);
        let resp = Response::Error {
            code: ErrorCode::Internal,
            message: "m".repeat(MAX_FRAME as usize),
        };
        assert!(matches!(resp.encode_frame(), Err(ProtoError::Oversized(_))));
        // Exactly at the cap is still a legal frame.
        let mut at_cap = CountingWriter { wire: Vec::new(), writes: 0 };
        write_frame(&mut at_cap, &body[..MAX_FRAME as usize]).unwrap();
        assert_eq!(at_cap.writes, 1);
    }

    #[test]
    fn disk_join_round_trips_and_mode_is_validated() {
        let req = Request::DiskJoin(DiskJoinRequest {
            build_tuples: 5_000,
            tuple_size: 48,
            matches_per_build: 2,
            pct_match: 80,
            mem_budget: 1 << 16,
            seed: 0xD15C,
            mode: 2,
            trace_id: 0,
        });
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);

        // mode is the last byte of the body; 3 is out of range.
        let mut bad = body.clone();
        *bad.last_mut().unwrap() = 3;
        assert_eq!(
            Request::decode(&bad),
            Err(ProtoError::BadValue("disk join mode > 2"))
        );
    }

    #[test]
    fn bad_version_and_oversized_are_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        wire[0] = 9;
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Proto(ProtoError::BadVersion(9))) => {}
            other => panic!("want BadVersion, got {other:?}"),
        }

        let mut huge = vec![VERSION];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut huge.as_slice()) {
            Err(FrameError::Proto(ProtoError::Oversized(n))) => assert_eq!(n, u32::MAX),
            other => panic!("want Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        wire.pop(); // lose the last body byte
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Proto(ProtoError::Truncated)) => {}
            other => panic!("want Truncated, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Request::Ping.encode();
        body.push(0xFF);
        assert_eq!(Request::decode(&body), Err(ProtoError::Trailing(1)));
    }

    #[test]
    fn trace_id_tail_round_trips_and_zero_is_canonical() {
        let mut req = JoinRequest {
            build_tuples: 1_000,
            tuple_size: 64,
            matches_per_build: 1,
            pct_match: 100,
            scheme: WireScheme::Simple,
            mem_budget: 1 << 20,
            seed: 1,
            trace_id: 0,
        };
        let untraced = Request::Join(req.clone()).encode();
        req.trace_id = 0xFEED_BEEF_CAFE_0001;
        let traced = Request::Join(req.clone()).encode();
        // The tail is the only difference: untraced frames keep the
        // pre-tracing wire format byte for byte.
        assert_eq!(traced.len(), untraced.len() + 8);
        assert_eq!(&traced[..untraced.len()], &untraced[..]);
        assert_eq!(Request::decode(&traced).unwrap(), Request::Join(req));

        // An explicit zero tail is non-canonical (zero means "omit").
        let mut zeroed = untraced.clone();
        zeroed.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            Request::decode(&zeroed),
            Err(ProtoError::BadValue("explicit zero trace id"))
        );
        // A partial tail is just trailing garbage.
        let mut partial = untraced;
        partial.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Request::decode(&partial), Err(ProtoError::Trailing(3)));
    }

    fn status_row(query_id: u64) -> StatusRow {
        StatusRow {
            query_id,
            trace_id: 0xABCD,
            kind: 3,
            state: 3,
            age_us: 12_000,
            grant_bytes: 1 << 20,
            shed_count: 1,
            queue_wait_us: 900,
            grant_wait_us: 2_100,
            exec_us: 9_000,
        }
    }

    #[test]
    fn status_frames_round_trip() {
        let body = Request::Status.encode();
        assert_eq!(Request::decode(&body).unwrap(), Request::Status);

        let resp = Response::Status(vec![status_row(1), status_row(2)]);
        let body = resp.encode();
        assert_eq!(Response::decode(&body).unwrap(), resp);
        let empty = Response::Status(Vec::new());
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn hostile_status_frames_are_typed_not_panics() {
        // Unknown state code.
        let mut body = Response::Status(vec![status_row(1)]).encode();
        body[1 + 4 + 8 + 8 + 1] = 7;
        assert_eq!(Response::decode(&body), Err(ProtoError::BadValue("query state code")));
        // Unknown kind.
        let mut body = Response::Status(vec![status_row(1)]).encode();
        body[1 + 4 + 8 + 8] = 9;
        assert_eq!(Response::decode(&body), Err(ProtoError::BadValue("status row kind")));
        // An oversized row count is rejected before any allocation.
        let mut huge = vec![0x84];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Response::decode(&huge), Err(ProtoError::BadValue("status row count")));
        // A plausible count with a truncated payload: cut a valid
        // two-row frame mid-second-row.
        let full = Response::Status(vec![status_row(1), status_row(2)]).encode();
        let short = &full[..full.len() - 10];
        assert_eq!(Response::decode(short), Err(ProtoError::Truncated));
    }
}

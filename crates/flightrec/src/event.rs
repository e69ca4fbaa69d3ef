//! The fixed-size event record and its binary encoding.
//!
//! An [`Event`] packs into four 64-bit words (timestamp, metadata,
//! two payload words); the ring prepends a sequence word, making each
//! slot five words (40 bytes). The metadata word keeps its low 24 bits
//! reserved-zero so decode can reject garbage — the proptest round-trip
//! and the torn-record hammer test both lean on that.

/// One past the largest [`EventKind`] discriminant: the length of
/// per-kind arrays indexed by `kind as usize`.
pub const KIND_COUNT: usize = 13;

/// What an event records. The discriminant is the wire value; renames
/// are fine, renumbers are not (postmortems written by one build should
/// decode under the next). Retired values (2, 8, 9) are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A pipeline phase opened. `code` = phase id ([`phase_code`]),
    /// `a`/`b` unused.
    PhaseEnter = 0,
    /// A pipeline phase closed. Payload mirrors [`Self::PhaseEnter`].
    PhaseExit = 1,
    /// An output/partition buffer flushed. `code` = partition, `a` =
    /// flush count, `b` = bytes.
    Flush = 3,
    /// A degradation-ladder step. `code` = 0 recursive repartition,
    /// 1 block-NLJ fallback; `a` = recursion depth, `b` = fanout or
    /// chunk count.
    Degrade = 4,
    /// A fault was injected by the seeded plan. `code` = fault
    /// discriminant, `a` = page index, `b` unused.
    Fault = 5,
    /// An I/O retry after a transient fault. `code` = 0 read, 1 write;
    /// `a` = page index, `b` = attempt number.
    Retry = 6,
    /// A successful work steal. `code` = 1, `a` = thief worker, `b` =
    /// victim worker.
    Steal = 7,
    /// A memsim telemetry epoch flushed. `a` = epoch ordinal, `b` =
    /// simulated cycle now.
    MemEpoch = 10,
    /// A memory-grant change. `code` = operation ([`grant_op`]), `a` =
    /// full u64 query id (0 for standalone runs), `b` = bytes. The id
    /// rides in a payload word on purpose: `code` is only 16 bits and
    /// a long-running daemon's query ids overflow it, which would alias
    /// unrelated queries in postmortems.
    Grant = 11,
    /// Free-form marker (tests, external harnesses). `code`/`a`/`b`
    /// caller-defined.
    Mark = 12,
}

/// `code` values for [`EventKind::Grant`] events: what happened to the
/// grant. The query id itself travels in payload `a` (full u64).
pub mod grant_op {
    /// A run's whole memory budget was installed (disk grace path).
    pub const BUDGET: u16 = 0;
    /// An admission grant was acquired from the global budget.
    pub const ACQUIRE: u16 = 1;
    /// An admission grant was released back to the global budget.
    pub const RELEASE: u16 = 2;
    /// A live grant changed size (`b` = the new byte total). Shrinks
    /// come from pressure revocation, grows from between-phase
    /// re-absorption requests.
    pub const RESIZE: u16 = 3;
    /// Admission asked a running query to shed memory down to `b`
    /// bytes instead of making an arrival wait for a full release.
    pub const SHED: u16 = 4;
    /// The dynamic hybrid join evicted a victim partition to disk
    /// under pressure. Unlike the other ops, `a` = the partition and
    /// `b` = the bytes it held (the live budget at event time travels
    /// in the join report's `MemTransition` record).
    pub const SPILL_VICTIM: u16 = 5;
    /// The dynamic hybrid join pulled a spilled partition back into
    /// memory at a phase boundary. `a` = partition, `b` = bytes.
    pub const ABSORB: u16 = 6;
    /// A client-minted trace id was bound to a server query id:
    /// `a` = trace id, `b` = query id. Emitted once per traced query at
    /// admission — every other event keys by query id, so this single
    /// record is what lets a postmortem be joined back to the client's
    /// distributed trace.
    pub const TRACE: u16 = 7;
}

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; 10] = [
        EventKind::PhaseEnter,
        EventKind::PhaseExit,
        EventKind::Flush,
        EventKind::Degrade,
        EventKind::Fault,
        EventKind::Retry,
        EventKind::Steal,
        EventKind::MemEpoch,
        EventKind::Grant,
        EventKind::Mark,
    ];

    /// Wire value → kind; `None` for unknown or retired bytes.
    pub fn from_u8(b: u8) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| *k as u8 == b)
    }

    /// Stable snake-case name (postmortem JSON).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseEnter => "phase_enter",
            EventKind::PhaseExit => "phase_exit",
            EventKind::Flush => "flush",
            EventKind::Degrade => "degrade",
            EventKind::Fault => "fault",
            EventKind::Retry => "retry",
            EventKind::Steal => "steal",
            EventKind::MemEpoch => "mem_epoch",
            EventKind::Grant => "grant",
            EventKind::Mark => "mark",
        }
    }

    /// Name → kind (postmortem parsing).
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One-character glyph for lane rendering (`phj blackbox`).
    pub fn glyph(self) -> char {
        match self {
            EventKind::PhaseEnter => '[',
            EventKind::PhaseExit => ']',
            EventKind::Flush => 'f',
            EventKind::Degrade => 'D',
            EventKind::Fault => 'F',
            EventKind::Retry => 'r',
            EventKind::Steal => 'w',
            EventKind::MemEpoch => 'e',
            EventKind::Grant => 'G',
            EventKind::Mark => 'M',
        }
    }
}

/// One journal entry: what happened (`kind`, `code`), where (`tid`),
/// when (`ts_ns`, monotonic since recorder install), plus two payload
/// words whose meaning is per-kind (see [`EventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the recorder's origin (monotonic clock).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Small per-kind discriminant (phase id, fault kind, worker…).
    pub code: u16,
    /// Recording thread (ring registration order, dense from 0).
    pub tid: u16,
    /// First payload word (per-kind meaning).
    pub a: u64,
    /// Second payload word (per-kind meaning).
    pub b: u64,
}

/// Bits 0..24 of the metadata word are reserved and must decode as
/// zero.
const META_RESERVED: u64 = (1 << 24) - 1;

impl Event {
    /// Pack into the four-word wire form `[ts, meta, a, b]`.
    pub fn encode(&self) -> [u64; 4] {
        let meta = ((self.kind as u64) << 56) | ((self.code as u64) << 40) | ((self.tid as u64) << 24);
        [self.ts_ns, meta, self.a, self.b]
    }

    /// Unpack the wire form; `None` if the kind byte is unknown or a
    /// reserved bit is set (a torn or foreign record).
    pub fn decode(words: [u64; 4]) -> Option<Event> {
        let meta = words[1];
        if meta & META_RESERVED != 0 {
            return None;
        }
        let kind = EventKind::from_u8((meta >> 56) as u8)?;
        Some(Event {
            ts_ns: words[0],
            kind,
            code: (meta >> 40) as u16,
            tid: (meta >> 24) as u16,
            a: words[2],
            b: words[3],
        })
    }
}

/// Known phase names, indexed by phase code. Code 0 is the catch-all
/// for names not in this table — renderers print `phase` for it.
/// Append-only: codes are written into postmortems on disk.
pub const PHASES: &[&str] = &[
    "phase",
    "run",
    "grace_join",
    "partition",
    "partition_pass",
    "pair",
    "build",
    "probe",
    "join",
    "join_pass",
    "hybrid_join",
    "hybrid_build_pass",
    "hybrid_probe_pass",
    "repartition",
    "nlj_fallback",
    "aggregate",
    "agg_morsel",
    "execute",
    "query",
    "queue_wait",
    "grant_wait",
    "serialize",
];

/// Phase name → code (0 when unknown: the generic `phase`).
pub fn phase_code(name: &str) -> u16 {
    PHASES.iter().position(|p| *p == name).unwrap_or(0) as u16
}

/// Phase code → name (`"phase"` when out of table).
pub fn phase_name(code: u16) -> &'static str {
    PHASES.get(code as usize).copied().unwrap_or("phase")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_discriminants() {
        assert!(EventKind::ALL.windows(2).all(|w| w[0] < w[1]), "discriminant order");
        for k in EventKind::ALL {
            assert!((k as usize) < KIND_COUNT);
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        // Retired wire values (spill, task, batch) stay unknown.
        for retired in [2u8, 8, 9, KIND_COUNT as u8] {
            assert_eq!(EventKind::from_u8(retired), None);
        }
        assert_eq!(EventKind::from_name("task"), None);
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn encode_decode_round_trips() {
        let ev = Event {
            ts_ns: 123_456_789,
            kind: EventKind::Fault,
            code: 4,
            tid: 3,
            a: u64::MAX,
            b: 0,
        };
        assert_eq!(Event::decode(ev.encode()), Some(ev));
    }

    #[test]
    fn decode_rejects_reserved_bits_and_unknown_kinds() {
        let ev = Event { ts_ns: 1, kind: EventKind::Mark, code: 0, tid: 0, a: 0, b: 0 };
        let mut words = ev.encode();
        words[1] |= 1; // reserved bit
        assert_eq!(Event::decode(words), None);
        let mut words = ev.encode();
        words[1] |= (KIND_COUNT as u64) << 56; // unknown kind byte
        assert_eq!(Event::decode(words), None);
    }

    #[test]
    fn phase_table_round_trips_and_defaults() {
        assert_eq!(phase_code("build"), 6);
        assert_eq!(phase_name(6), "build");
        assert_eq!(phase_code("definitely_not_a_phase"), 0);
        assert_eq!(phase_name(9999), "phase");
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(phase_code(p) as usize, i, "duplicate phase name {p}");
        }
    }
}

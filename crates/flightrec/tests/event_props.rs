//! Property tests for the event wire format: encode/decode must
//! round-trip every representable event, and decode must be a partial
//! inverse of encode on arbitrary words.

use proptest::prelude::*;

use phj_flightrec::{phase_code, phase_name, Event, EventKind, PHASES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_round_trips(
        ts_ns in any::<u64>(),
        kind_ix in 0usize..EventKind::ALL.len(),
        code in any::<u16>(),
        tid in any::<u16>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let ev = Event { ts_ns, kind: EventKind::ALL[kind_ix], code, tid, a, b };
        let words = ev.encode();
        prop_assert_eq!(Event::decode(words), Some(ev));
        // Encoding is canonical: decode→encode reproduces the words.
        prop_assert_eq!(Event::decode(words).unwrap().encode(), words);
    }

    #[test]
    fn decode_accepts_only_canonical_words(
        ts in any::<u64>(),
        meta in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        // Arbitrary metadata words: decode must either reject, or
        // return an event that re-encodes to exactly the input —
        // i.e. garbage never silently normalizes.
        match Event::decode([ts, meta, a, b]) {
            Some(ev) => prop_assert_eq!(ev.encode(), [ts, meta, a, b]),
            None => {
                let reserved = meta & ((1u64 << 24) - 1);
                let kind = (meta >> 56) as u8;
                prop_assert!(
                    reserved != 0 || EventKind::from_u8(kind).is_none(),
                    "rejected a canonical word: meta={meta:#x}"
                );
            }
        }
    }

    #[test]
    fn phase_codes_round_trip(ix in 0usize..PHASES.len()) {
        let name = PHASES[ix];
        prop_assert_eq!(phase_name(phase_code(name)), name);
    }
}

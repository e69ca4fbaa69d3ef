//! Software-pipelined prefetching for the join phase (§5 of the paper).
//!
//! Where group prefetching processes stages group-by-group with a barrier
//! between groups, software pipelining runs one iteration of a single loop
//! per element *slot*: iteration `it` executes stage 0 for element `it`,
//! stage 1 for element `it - D`, stage 2 for `it - 2D`, and stage 3 for
//! `it - 3D` (Figure 7). The pipeline never drains between groups, hiding
//! the intermittent stalls group prefetching can suffer at transitions.
//!
//! The stages are the [`super::program`] build and probe programs; the
//! [`crate::stage::Pipelined`] scheduler keeps their state in a circular
//! array of at least `kD + 1` slots and parks a build tuple that finds its
//! bucket busy on the in-flight inserter's waiting queue (§5.3).

#[cfg(test)]
mod tests {
    use crate::join::{join_pair, JoinParams, JoinScheme};
    use crate::sink::{CountSink, JoinSink};
    use phj_memsim::{NativeModel, SimEngine};
    use phj_storage::{Relation, RelationBuilder, Schema};

    fn rel(keys: &[u32]) -> Relation {
        let schema = Schema::key_payload(24);
        let mut b = RelationBuilder::new(schema);
        let mut t = [0u8; 24];
        for &k in keys {
            t[..4].copy_from_slice(&k.to_le_bytes());
            b.push_hashed(&t, crate::hash::hash_key(&k.to_le_bytes()));
        }
        b.finish()
    }

    fn run(scheme: JoinScheme, build_keys: &[u32], probe_keys: &[u32]) -> CountSink {
        let build_rel = rel(build_keys);
        let probe_rel = rel(probe_keys);
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme, use_stored_hash: true },
            &build_rel,
            &probe_rel,
            1,
            &mut sink,
            None,
        );
        sink
    }

    fn reference(build_keys: &[u32], probe_keys: &[u32]) -> CountSink {
        crate::join::tests::reference(&rel(build_keys), &rel(probe_keys))
    }

    #[test]
    fn swp_equals_baseline() {
        let build_keys: Vec<u32> = (0..1000).collect();
        let probe_keys: Vec<u32> = (500..1500).map(|k| k % 1200).collect();
        let base = reference(&build_keys, &probe_keys);
        for d in [1, 2, 3, 5, 8] {
            let got = run(JoinScheme::Swp { d }, &build_keys, &probe_keys);
            assert_eq!(got, base, "D={d}");
        }
    }

    #[test]
    fn swp_handles_heavy_duplicates() {
        // Everything in one bucket: every insert conflicts, exercising
        // the waiting-queue protocol heavily.
        let build_keys = vec![7u32; 200];
        let probe_keys = vec![7u32; 3];
        let base = reference(&build_keys, &probe_keys);
        for d in [1, 2, 4] {
            let got = run(JoinScheme::Swp { d }, &build_keys, &probe_keys);
            assert_eq!(got, base, "D={d}");
            assert_eq!(got.matches(), 600);
        }
    }

    #[test]
    fn swp_empty_and_tiny_relations() {
        let empty: Vec<u32> = vec![];
        let got = run(JoinScheme::Swp { d: 2 }, &empty, &[1, 2, 3]);
        assert_eq!(got.matches(), 0);
        let got = run(JoinScheme::Swp { d: 2 }, &[1, 2, 3], &empty);
        assert_eq!(got.matches(), 0);
        let got = run(JoinScheme::Swp { d: 3 }, &[1], &[1]);
        assert_eq!(got.matches(), 1);
    }

    #[test]
    fn swp_beats_baseline_in_sim() {
        let build_keys: Vec<u32> = (0..4000).collect();
        let probe_keys: Vec<u32> = (0..8000).map(|k| k % 4000).collect();
        let build_rel = rel(&build_keys);
        let probe_rel = rel(&probe_keys);
        let time = |scheme| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            join_pair(
                &mut mem,
                &JoinParams { scheme, use_stored_hash: true },
                &build_rel,
                &probe_rel,
                1,
                &mut sink,
                None,
            );
            assert_eq!(sink.matches(), 8000);
            mem.breakdown()
        };
        let base = time(JoinScheme::Baseline);
        // With a counting sink C_k is small, so Theorem 2 needs D = 2.
        // This workload half-fits in L2, capping the speedup; the full
        // Fig-10-scale runs in the bench harness show the paper's 2-3x.
        let swp = time(JoinScheme::Swp { d: 2 });
        assert!(
            swp.total() * 3 < base.total() * 2,
            "swp {} vs baseline {}",
            swp.total(),
            base.total()
        );
    }
}

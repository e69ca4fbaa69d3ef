//! Group prefetching for the partition phase.
//!
//! `k = 1`: the single dependent reference of a tuple is its output-buffer
//! location, whose exact addresses are known at stage 0 via the
//! reservation protocol. A buffer-full event is the phase's read-write
//! conflict (§6): the tuple is deferred to the group boundary, where all
//! in-flight copies have committed and the buffer can be written out
//! safely — "in group prefetching, we wait until the end of the loop body
//! to write out the buffer and process the second tuple." The loop is the
//! [`super::program`] run by [`crate::stage::Group`].

#[cfg(test)]
mod tests {
    use super::super::tests::reference_multisets;
    use super::super::{partition_relation, PartitionScheme};
    use phj_memsim::{NativeModel, SimEngine};
    use phj_storage::{Relation, RelationBuilder, Schema};

    fn input_rel(n: usize, size: usize) -> Relation {
        let schema = Schema::key_payload(size);
        let mut b = RelationBuilder::new(schema);
        let mut t = vec![0u8; size];
        for i in 0..n {
            t[..4].copy_from_slice(&(i as u32).to_le_bytes());
            b.push(&t);
        }
        b.finish()
    }

    fn tuple_multisets(parts: &[Relation]) -> Vec<Vec<Vec<u8>>> {
        parts
            .iter()
            .map(|r| {
                let mut v = r.to_tuple_vec();
                v.sort();
                v
            })
            .collect()
    }

    #[test]
    fn group_matches_baseline_partitioning() {
        let input = input_rel(4000, 100);
        let mut mem = NativeModel;
        let base = reference_multisets(&input, 11);
        for g in [2, 5, 12, 40] {
            let got =
                partition_relation(&mut mem, PartitionScheme::Group { g }, &input, 11, false);
            assert_eq!(tuple_multisets(&got), base, "G={g}");
        }
    }

    #[test]
    fn group_single_partition_exercises_conflicts() {
        // One partition: every page-full event defers tuples within the
        // group (heaviest possible conflict pressure).
        let input = input_rel(2000, 100);
        let mut mem = NativeModel;
        let base = reference_multisets(&input, 1);
        let got = partition_relation(&mut mem, PartitionScheme::Group { g: 16 }, &input, 1, false);
        assert_eq!(tuple_multisets(&got), base);
        assert_eq!(got[0].num_tuples(), 2000);
    }

    #[test]
    fn group_beats_baseline_with_many_partitions_in_sim() {
        // 400 partitions blow out the 1 MB L2 (Fig 14 right region).
        let input = input_rel(20_000, 100);
        let time = |scheme| {
            let mut mem = SimEngine::paper();
            let parts = partition_relation(&mut mem, scheme, &input, 400, false);
            assert_eq!(
                parts.iter().map(|r| r.num_tuples()).sum::<usize>(),
                20_000
            );
            mem.breakdown().total()
        };
        let base = time(PartitionScheme::Baseline);
        let grp = time(PartitionScheme::Group { g: 12 });
        assert!(grp < base, "group {grp} vs baseline {base}");
    }
}

//! Software-pipelined prefetching for the partition phase.
//!
//! `k = 1`, so the pipeline has two stages: stage 0 hashes the tuple,
//! reserves its output location, and prefetches it; stage 1 (D iterations
//! later) performs the copy. Buffer-full events use **waiting queues**
//! (§6: "In software-pipelined prefetching, we use waiting queues similar
//! to those for hash table building in the join phase"): a tuple that
//! finds its buffer full while copies are still in flight parks on the
//! partition's queue; the commit that drains the last in-flight copy
//! writes the buffer out and processes the queue. With nothing in flight
//! the buffer is written out at once. The loop is the
//! [`super::program`] run by [`crate::stage::Pipelined`], which owns both
//! rules.

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
    fn swp_matches_baseline_partitioning() {
        let input = input_rel(4000, 100);
        let mut mem = NativeModel;
        let base = reference_multisets(&input, 11);
        for d in [1, 2, 4, 9] {
            let got =
                partition_relation(&mut mem, PartitionScheme::Swp { d }, &input, 11, false);
            assert_eq!(tuple_multisets(&got), base, "D={d}");
        }
    }

    #[test]
    fn swp_single_partition_exercises_waiting_queue() {
        let input = input_rel(2000, 100);
        let mut mem = NativeModel;
        let base = reference_multisets(&input, 1);
        for d in [1, 3, 8] {
            let got =
                partition_relation(&mut mem, PartitionScheme::Swp { d }, &input, 1, false);
            assert_eq!(tuple_multisets(&got), base, "D={d}");
        }
    }

    #[test]
    fn swp_large_tuples_flush_often() {
        // 2000-byte tuples: only 4 per page, so buffer-full conflicts are
        // constant and the waiting-queue path dominates.
        let input = input_rel(500, 2000);
        let mut mem = NativeModel;
        let base = reference_multisets(&input, 3);
        let got = partition_relation(&mut mem, PartitionScheme::Swp { d: 4 }, &input, 3, false);
        assert_eq!(tuple_multisets(&got), base);
    }

    #[test]
    fn swp_beats_baseline_with_many_partitions_in_sim() {
        let input = input_rel(20_000, 100);
        let time = |scheme| {
            let mut mem = SimEngine::paper();
            let parts = partition_relation(&mut mem, scheme, &input, 400, false);
            assert_eq!(parts.iter().map(|r| r.num_tuples()).sum::<usize>(), 20_000);
            mem.breakdown().total()
        };
        let base = time(PartitionScheme::Baseline);
        let swp = time(PartitionScheme::Swp { d: 1 });
        assert!(swp < base, "swp {swp} vs baseline {base}");
    }
}

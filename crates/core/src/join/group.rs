//! Group prefetching for the join phase (§4 of the paper).
//!
//! The loop over tuples is strip-mined into groups of `G`; within a group,
//! the work is loop-distributed into stages separated by the dependent
//! memory references (Figure 3(b)/(d)). Each stage performs one critical-
//! path step for *all* tuples of the group and issues prefetches for the
//! next stage's addresses, so the miss latency of one tuple overlaps the
//! computation and misses of the `G-1` others.
//!
//! The stages are the [`super::program`] build and probe programs; the
//! [`Group`] scheduler runs them and delays a build tuple that finds its
//! bucket busy to the end of the group body (§4.4). This module adds the
//! resumable probe of §5.4.

use phj_memsim::MemoryModel;
use phj_storage::Relation;

use crate::sink::JoinSink;
use crate::stage::Group;
use crate::table::HashTable;

use super::program::{Probe, ProbeState};
use super::{JoinParams, Scan};

/// A **resumable** group-prefetching probe.
///
/// §5.4: "the join phase can pause at group boundaries and send outputs
/// to the parent operator to support pipelined query processing." Each
/// [`GroupProbe::run_group`] call processes exactly one group of up to
/// `G` probe tuples through all four stages and returns; the caller (a
/// parent operator) can consume the sink's output between calls without
/// paying any pipeline restart cost — the group boundary is a natural
/// pause point, which is one of the paper's arguments for preferring
/// group prefetching over software pipelining in an engine.
pub struct GroupProbe<'a> {
    params: &'a JoinParams,
    table: &'a HashTable,
    build_rel: &'a Relation,
    probe_rel: &'a Relation,
    group: Group<ProbeState>,
    scan: Scan<'a>,
}

impl<'a> GroupProbe<'a> {
    /// Set up a probe of `probe_rel` against `table` over `build_rel`.
    pub fn new(
        params: &'a JoinParams,
        table: &'a HashTable,
        build_rel: &'a Relation,
        probe_rel: &'a Relation,
        g: usize,
    ) -> Self {
        GroupProbe {
            params,
            table,
            build_rel,
            probe_rel,
            group: Group::new(g),
            scan: Scan::new(probe_rel, true),
        }
    }

    /// Process one group; returns `false` once the probe input is
    /// exhausted (no further matches will be emitted).
    pub fn run_group<M: MemoryModel, S: JoinSink>(&mut self, mem: &mut M, sink: &mut S) -> bool {
        let use_stored = self.params.use_stored_hash;
        let mut prog = Probe::new(self.table, self.build_rel, self.probe_rel, use_stored, sink);
        self.group.step(mem, &mut prog, &mut self.scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{dispatch_build, dispatch_probe, join_pair, JoinParams, JoinScheme};
    use crate::sink::CountSink;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_storage::{RelationBuilder, Schema};

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
    fn group_equals_baseline() {
        let build_keys: Vec<u32> = (0..1000).collect();
        let probe_keys: Vec<u32> = (500..1500).map(|k| k % 1200).collect();
        let base = reference(&build_keys, &probe_keys);
        for g in [2, 3, 16, 19, 64] {
            let got = run(JoinScheme::Group { g }, &build_keys, &probe_keys);
            assert_eq!(got, base, "G={g}");
        }
    }

    #[test]
    fn group_handles_heavy_duplicates() {
        // All build tuples in one bucket: forces busy-flag conflicts in
        // every group and exercises the delayed-tuple path.
        let build_keys = vec![7u32; 200];
        let probe_keys = vec![7u32; 3];
        let base = reference(&build_keys, &probe_keys);
        let got = run(JoinScheme::Group { g: 16 }, &build_keys, &probe_keys);
        assert_eq!(got, base);
        assert_eq!(got.matches(), 600);
    }

    #[test]
    fn group_non_multiple_sizes() {
        // Relation size not a multiple of G exercises the tail group.
        let build_keys: Vec<u32> = (0..97).collect();
        let probe_keys: Vec<u32> = (0..101).collect();
        let base = reference(&build_keys, &probe_keys);
        let got = run(JoinScheme::Group { g: 16 }, &build_keys, &probe_keys);
        assert_eq!(got, base);
        assert_eq!(got.matches(), 97);
    }

    #[test]
    fn resumable_probe_pauses_at_group_boundaries() {
        // §5.4 pipelined processing: run_group yields after every group,
        // the per-group match count is bounded, and the concatenation of
        // per-group outputs equals the one-shot probe's output.
        let build_keys: Vec<u32> = (0..500).collect();
        let probe_keys: Vec<u32> = (0..500).map(|k| 499 - k).collect();
        let build_rel = rel(&build_keys);
        let probe_rel = rel(&probe_keys);
        let params = JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true };
        let mut mem = NativeModel;
        let mut table = crate::table::HashTable::new(503, 500);
        dispatch_build(&mut mem, &params, &mut table, &build_rel);
        let mut gp = GroupProbe::new(&params, &table, &build_rel, &probe_rel, 16);
        let mut sink = CountSink::new();
        let mut groups = 0;
        let mut last = 0;
        while gp.run_group(&mut mem, &mut sink) {
            groups += 1;
            let emitted = sink.matches() - last;
            assert!(emitted <= 16 * 2, "bounded output per group");
            last = sink.matches();
        }
        assert_eq!(groups, 500usize.div_ceil(16));
        assert_eq!(sink.matches(), 500);
        // Resuming after exhaustion stays exhausted.
        assert!(!gp.run_group(&mut mem, &mut sink));
        // One-shot probe agrees.
        let mut oneshot = CountSink::new();
        dispatch_probe(&mut mem, &params, &table, &build_rel, &probe_rel, &mut oneshot);
        assert_eq!(oneshot, sink);
    }

    #[test]
    fn group_beats_baseline_in_sim() {
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
        // This workload half-fits in L2, capping the speedup; the full
        // Fig-10-scale runs in the bench harness show the paper's 2-3x.
        let grp = time(JoinScheme::Group { g: 16 });
        assert!(
            grp.total() * 3 < base.total() * 2,
            "group {} vs baseline {}",
            grp.total(),
            base.total()
        );
        assert!(
            grp.dcache_stall * 3 < base.dcache_stall,
            "group hides most dcache stalls: {} vs {}",
            grp.dcache_stall,
            base.dcache_stall
        );
    }
}

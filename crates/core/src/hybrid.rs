//! Hybrid hash join under any schedule of [`crate::stage`].
//!
//! §2 of the paper: "many refinements of \[GRACE\] have been proposed for
//! the sake of avoiding I/O by keeping as many intermediate partitions in
//! memory as possible [10, 16, 23, 27, 29]. All of these hash join
//! algorithms, however, share two common building blocks: (1)
//! partitioning and (2) joining with in-memory hash tables. [...] our
//! techniques should be directly applicable to the other hash join
//! algorithms." This module demonstrates that claim on the classic
//! *hybrid* hash join: partition 0 is never written out — its build
//! tuples go straight into an in-memory hash table during the build-side
//! partition pass, and its probe tuples are joined on the fly during the
//! probe-side pass.
//!
//! The interesting part is the **mixed code paths inside one loop**: a
//! tuple either takes the hash-table path (`k = 2` for insert, `k = 3`
//! for probe) or the output-buffer path (`k = 1`). That is precisely the
//! multiple-code-path situation §4.4 describes — per-tuple state records
//! the path, and each stage dispatches on it. Each fused pass is one stage
//! program that sends partition 0 to the join's table program and every
//! other partition to the partition program, so both conflict protocols
//! coexist in one loop: busy buckets and full output buffers, delayed to
//! the group boundary under group prefetching or parked on waiting queues
//! under software pipelining (§5.3). The sequential schedule runs the same
//! passes one tuple at a time, as the baseline and simple schemes.

use phj_memsim::{MemoryModel, RegionKind};
use phj_obs::{self as obs, Recorder};
use phj_storage::Relation;

use crate::join::program::{Build, Probe, TableProgram};
use crate::join::{self, JoinParams};
use crate::partition::program::{PartState, Partition};
use crate::partition::OutputBuffers;
use crate::plan;
use crate::profile;
use crate::sink::JoinSink;
use crate::stage::{self, Schedule, StageProgram, Step};
use crate::table::HashTable;

/// Hybrid hash join configuration.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Memory for the join phase; also bounds partition 0 + its table.
    pub mem_budget: usize,
    /// Schedule of the fused partition/build and partition/probe passes
    /// and of the join of every spilled partition pair.
    pub schedule: Schedule,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { mem_budget: 50 * 1024 * 1024, schedule: Schedule::Group { g: 16 } }
    }
}

/// One fused pass: partition 0 goes to `table`, the rest to `part`.
struct Fused<'a, T> {
    table: T,
    part: Partition<'a, Vec<Relation>>,
}

#[derive(Default)]
struct FusedState<S> {
    resident: bool,
    table: S,
    part: PartState,
}

impl<T: TableProgram> StageProgram for Fused<'_, T> {
    type State = FusedState<T::State>;
    const K: usize = T::K;

    #[inline]
    fn load<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        s: &mut Self::State,
        pi: usize,
        slot: u16,
        bk: u64,
    ) {
        self.part.load(mem, &mut s.part, pi, slot, bk);
        s.resident = s.part.p == 0;
        if s.resident {
            self.table.enter(&mut s.table, pi, slot, s.part.hash);
        }
    }

    #[inline]
    fn stage<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        k: usize,
        s: &mut Self::State,
        me: u32,
        bk: u64,
    ) -> Step {
        if s.resident {
            self.table.stage(mem, k, &mut s.table, me, bk)
        } else {
            self.part.stage(mem, k, &mut s.part, me, bk)
        }
    }

    fn resolve<M: MemoryModel>(&mut self, mem: &mut M, s: &mut Self::State) {
        if s.resident {
            self.table.resolve(mem, &mut s.table)
        } else {
            self.part.resolve(mem, &mut s.part)
        }
    }

    fn try_release(&mut self, p: usize) -> bool {
        self.part.try_release(p)
    }
}

/// Run the hybrid hash join: returns the number of partitions used
/// (including the in-memory partition 0). With a span recorder, the fused
/// partition+build pass, the fused partition+probe pass, and each spilled
/// pair get their own spans under a `"hybrid_join"` root.
pub fn hybrid_join<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &HybridConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
    mut rec: Option<&mut Recorder>,
) -> usize {
    let p = plan::num_partitions(build.size_bytes(), cfg.mem_budget).max(1);
    let whole = obs::span_begin(&mut rec, mem, "hybrid_join");
    obs::span_meta(&mut rec, "partitions", p);
    obs::span_meta(&mut rec, "schedule", cfg.schedule.join_scheme().label());

    // ---- Pass 1: partition the build side, building partition 0's hash
    // table on the fly. ----
    let pass1 = obs::span_begin(&mut rec, mem, "hybrid_build_pass");
    obs::span_meta(&mut rec, "tuples", build.num_tuples());
    let expected_p0 = build.num_tuples() / p + 1;
    let buckets = plan::hash_table_buckets(expected_p0.max(1), p);
    let mut table = HashTable::new(buckets, expected_p0 * 2 + 16);
    let mut build_out = OutputBuffers::new(build, p);
    profile::register_table(mem, &table);
    profile::register_relation(mem, RegionKind::BuildTuples, build);
    build_out.register_regions(mem);
    let mut pass = Fused {
        table: Build::new(&mut table, build, false),
        part: Partition::new(build, &mut build_out, false),
    };
    stage::run(cfg.schedule, mem, &mut pass, build, 0..build.num_pages());
    let build_parts = build_out.finish();
    table.assert_quiescent();
    obs::span_end(&mut rec, mem, pass1);
    mem.region_clear(RegionKind::PartitionBuffers);

    // ---- Pass 2: partition the probe side, probing partition 0 on the
    // fly. ----
    let pass2 = obs::span_begin(&mut rec, mem, "hybrid_probe_pass");
    obs::span_meta(&mut rec, "tuples", probe.num_tuples());
    let mut probe_out = OutputBuffers::new(probe, p);
    profile::register_relation(mem, RegionKind::ProbeTuples, probe);
    probe_out.register_regions(mem);
    let mut pass = Fused {
        table: Probe::new(&table, build, probe, false, sink),
        part: Partition::new(probe, &mut probe_out, false),
    };
    stage::run(cfg.schedule, mem, &mut pass, probe, 0..probe.num_pages());
    let probe_parts = probe_out.finish();
    obs::span_end(&mut rec, mem, pass2);
    mem.region_clear(RegionKind::PartitionBuffers);
    profile::clear_join_regions(mem);

    // ---- Join the spilled pairs (partitions 1..p) under the same
    // schedule. ----
    let params = JoinParams { scheme: cfg.schedule.join_scheme(), use_stored_hash: true };
    for part in 1..p {
        let span = obs::span_begin(&mut rec, mem, "pair");
        obs::span_meta(&mut rec, "index", part);
        join::join_pair(
            mem,
            &params,
            &build_parts[part],
            &probe_parts[part],
            p,
            sink,
            rec.as_deref_mut(),
        );
        obs::span_end(&mut rec, mem, span);
    }
    obs::span_end(&mut rec, mem, whole);
    p
}

/// GRACE with the same parameters, for comparisons: partition both
/// relations fully, then join every pair.
pub fn grace_equivalent<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &HybridConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
) -> usize {
    let grace = crate::grace::GraceConfig {
        mem_budget: cfg.mem_budget,
        partition_scheme: cfg.schedule.partition_scheme(),
        join_scheme: cfg.schedule.join_scheme(),
        ..Default::default()
    };
    crate::grace::grace_join_with_sink(mem, &grace, build, probe, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountSink;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_workload::JoinSpec;

    fn spec(n: usize) -> JoinSpec {
        JoinSpec {
            build_tuples: n,
            tuple_size: 40,
            matches_per_build: 2,
            pct_match: 75,
            seed: 321,
        }
    }

    #[test]
    fn hybrid_matches_grace() {
        let gen = spec(4000).generate();
        for schedule in [Schedule::Group { g: 16 }, Schedule::Sequential { prefetch_input: false }] {
            let cfg = HybridConfig { mem_budget: 64 * 1024, schedule };
            let mut mem = NativeModel;
            let mut hybrid_sink = CountSink::new();
            let p = hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut hybrid_sink, None);
            assert!(p > 1, "expected spill partitions, got {p}");
            assert_eq!(hybrid_sink.matches(), gen.expected_matches);
            let mut grace_sink = CountSink::new();
            grace_equivalent(&mut mem, &cfg, &gen.build, &gen.probe, &mut grace_sink);
            assert_eq!(hybrid_sink, grace_sink);
        }
    }

    #[test]
    fn hybrid_all_in_memory() {
        // Budget big enough that p == 1: everything joins on the fly.
        let gen = spec(1000).generate();
        let cfg = HybridConfig { mem_budget: 1 << 30, schedule: Schedule::Group { g: 8 } };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        let p = hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
        assert_eq!(p, 1);
        assert_eq!(sink.matches(), gen.expected_matches);
    }

    #[test]
    fn hybrid_heavy_duplicates() {
        use phj_storage::{RelationBuilder, Schema};
        let schema = Schema::key_payload(24);
        let mut b = RelationBuilder::new(schema.clone());
        let mut pr = RelationBuilder::new(schema);
        let mut t = [0u8; 24];
        for _ in 0..300 {
            t[..4].copy_from_slice(&5u32.to_le_bytes());
            b.push(&t);
            pr.push(&t);
            t[..4].copy_from_slice(&9u32.to_le_bytes());
            pr.push(&t);
        }
        let (build, probe) = (b.finish(), pr.finish());
        let cfg = HybridConfig { mem_budget: 8 * 1024, schedule: Schedule::Group { g: 4 } };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &build, &probe, &mut sink, None);
        assert_eq!(sink.matches(), 300 * 300);
    }

    #[test]
    fn hybrid_with_swp_spill_join_matches() {
        let gen = spec(3000).generate();
        let cfg = HybridConfig { mem_budget: 64 * 1024, schedule: Schedule::Pipelined { d: 2 } };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
        assert_eq!(sink.matches(), gen.expected_matches);
    }

    #[test]
    fn hybrid_saves_cycles_over_grace_in_sim() {
        // Partition 0 skips one write+read round trip per tuple, so the
        // hybrid spends fewer CPU cycles end to end.
        let gen = spec(20_000).generate();
        let cfg = HybridConfig { mem_budget: 256 * 1024, schedule: Schedule::Group { g: 16 } };
        let run = |hybrid: bool| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            if hybrid {
                hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
            } else {
                grace_equivalent(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
            }
            assert_eq!(sink.matches(), gen.expected_matches);
            mem.breakdown().total()
        };
        let grace = run(false);
        let hybrid = run(true);
        assert!(hybrid < grace, "hybrid {hybrid} vs grace {grace}");
    }

    fn swp_spec(n: usize) -> JoinSpec {
        JoinSpec {
            build_tuples: n,
            tuple_size: 40,
            matches_per_build: 2,
            pct_match: 75,
            seed: 654,
        }
    }

    #[test]
    fn swp_hybrid_matches_group_hybrid_and_grace() {
        let gen = swp_spec(4000).generate();
        let cfg = HybridConfig { mem_budget: 64 * 1024, schedule: Schedule::Group { g: 16 } };
        let mut mem = NativeModel;
        let mut swp_sink = CountSink::new();
        let swp = HybridConfig { schedule: Schedule::Pipelined { d: 2 }, ..cfg };
        let p = hybrid_join(&mut mem, &swp, &gen.build, &gen.probe, &mut swp_sink, None);
        assert!(p > 1);
        assert_eq!(swp_sink.matches(), gen.expected_matches);
        let mut grp_sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut grp_sink, None);
        assert_eq!(swp_sink, grp_sink);
        let mut grace_sink = CountSink::new();
        grace_equivalent(&mut mem, &cfg, &gen.build, &gen.probe, &mut grace_sink);
        assert_eq!(swp_sink, grace_sink);
    }

    #[test]
    fn swp_hybrid_various_distances() {
        let gen = swp_spec(1500).generate();
        let cfg = HybridConfig { mem_budget: 32 * 1024, schedule: Schedule::Group { g: 8 } };
        let mut reference: Option<CountSink> = None;
        for d in [1usize, 2, 4, 7] {
            let mut mem = NativeModel;
            let mut sink = CountSink::new();
            let swp = HybridConfig { schedule: Schedule::Pipelined { d }, ..cfg };
            hybrid_join(&mut mem, &swp, &gen.build, &gen.probe, &mut sink, None);
            assert_eq!(sink.matches(), gen.expected_matches, "D={d}");
            match &reference {
                None => reference = Some(sink),
                Some(r) => assert_eq!(&sink, r, "D={d}"),
            }
        }
    }

    #[test]
    fn swp_hybrid_heavy_duplicates_and_tiny_buffers() {
        use phj_storage::{RelationBuilder, Schema};
        // Duplicate keys force bucket queues; large tuples force constant
        // buffer-full parking: both protocols at once.
        let schema = Schema::key_payload(1500);
        let mut b = RelationBuilder::new(schema.clone());
        let mut pr = RelationBuilder::new(schema);
        let mut t = vec![0u8; 1500];
        for i in 0..200u32 {
            t[..4].copy_from_slice(&(i % 3).to_le_bytes());
            b.push(&t);
            pr.push(&t);
        }
        let (build, probe) = (b.finish(), pr.finish());
        let cfg = HybridConfig { mem_budget: 16 * 1024, schedule: Schedule::Pipelined { d: 3 } };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &build, &probe, &mut sink, None);
        // Each key appears ~67 times on both sides within its class.
        let mut want = 0u64;
        let mut counts = std::collections::HashMap::new();
        for i in 0..200u32 {
            *counts.entry(i % 3).or_insert(0u64) += 1;
        }
        for i in 0..200u32 {
            want += counts[&(i % 3)];
        }
        assert_eq!(sink.matches(), want);
    }

    #[test]
    fn swp_hybrid_beats_grace_in_sim() {
        let gen = swp_spec(20_000).generate();
        let cfg = HybridConfig { mem_budget: 256 * 1024, schedule: Schedule::Group { g: 16 } };
        let run = |swp: bool| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            if swp {
                let swp = HybridConfig { schedule: Schedule::Pipelined { d: 2 }, ..cfg };
                hybrid_join(&mut mem, &swp, &gen.build, &gen.probe, &mut sink, None);
            } else {
                grace_equivalent(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
            }
            assert_eq!(sink.matches(), gen.expected_matches);
            mem.breakdown().total()
        };
        let grace = run(false);
        let swp = run(true);
        assert!(swp < grace, "swp hybrid {swp} vs grace {grace}");
    }
}

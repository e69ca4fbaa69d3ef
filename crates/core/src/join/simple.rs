//! Simple prefetching: the enhanced baseline of §7.1.
//!
//! "Simple prefetching tries straightforward ways to employ prefetching,
//! such as prefetching an entire input page after a disk read." The hash
//! table visits themselves stay un-prefetched — the dependent references
//! within a single tuple's hash table visit generate their addresses too
//! late (§3), which is why the paper measures only a 1.1–1.2× speedup for
//! this scheme and why group/software-pipelined prefetching exist.

use phj_memsim::MemoryModel;
use phj_storage::Relation;

use crate::sink::JoinSink;
use crate::table::{HashCell, HashTable};

use super::baseline::{insert_one, probe_one};
use super::{charge_code0, tuple_hash, JoinParams, Scan};

/// Build with input-page prefetching.
pub fn build<M: MemoryModel>(
    mem: &mut M,
    params: &JoinParams,
    table: &mut HashTable,
    build: &Relation,
) {
    let mut scan = Scan::new(build, true);
    while let Some((pi, slot)) = scan.next(mem) {
        charge_code0(mem, params.use_stored_hash);
        let hash = tuple_hash(build, pi, slot, params.use_stored_hash);
        let t = build.page(pi).tuple(slot);
        insert_one(mem, table, HashCell::new(hash, t.as_ptr() as usize, t.len() as u32));
    }
}

/// Probe with input-page prefetching.
pub fn probe<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    params: &JoinParams,
    table: &HashTable,
    build_rel: &Relation,
    probe_rel: &Relation,
    sink: &mut S,
) {
    let mut scan = Scan::new(probe_rel, true);
    while let Some((pi, slot)) = scan.next(mem) {
        charge_code0(mem, params.use_stored_hash);
        let hash = tuple_hash(probe_rel, pi, slot, params.use_stored_hash);
        probe_one(mem, table, build_rel, probe_rel, pi, slot, hash, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{join_pair, JoinParams, JoinScheme};
    use crate::sink::CountSink;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_storage::{RelationBuilder, Schema};

    fn rel(keys: &[u32]) -> Relation {
        let schema = Schema::key_payload(32);
        let mut b = RelationBuilder::new(schema);
        let mut t = [0u8; 32];
        for &k in keys {
            t[..4].copy_from_slice(&k.to_le_bytes());
            b.push_hashed(&t, crate::hash::hash_key(&k.to_le_bytes()));
        }
        b.finish()
    }

    #[test]
    fn simple_matches_baseline_results() {
        let build_rel = rel(&(0..500).collect::<Vec<_>>());
        let probe_rel = rel(&(250..750).collect::<Vec<_>>());
        let mut mem = NativeModel;
        let mut s1 = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme: JoinScheme::Baseline, use_stored_hash: true },
            &build_rel,
            &probe_rel,
            1,
            &mut s1,
            None,
        );
        let mut s2 = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme: JoinScheme::Simple, use_stored_hash: true },
            &build_rel,
            &probe_rel,
            1,
            &mut s2,
            None,
        );
        assert_eq!(s1, s2);
        assert_eq!(s1.matches(), 250);
    }

    #[test]
    fn simple_prefetch_reduces_input_stalls_in_sim() {
        let build_rel = rel(&(0..2000).collect::<Vec<_>>());
        let probe_rel = rel(&(0..2000).collect::<Vec<_>>());
        let run = |scheme| {
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
            (mem.breakdown().total(), sink.matches())
        };
        let (t_base, m1) = run(JoinScheme::Baseline);
        let (t_simple, m2) = run(JoinScheme::Simple);
        assert_eq!(m1, m2);
        assert!(
            t_simple < t_base,
            "simple ({t_simple}) should beat baseline ({t_base})"
        );
    }
}

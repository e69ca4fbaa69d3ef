//! Per-stage computation costs (`C_i`) charged to the memory model.
//!
//! The paper's analytical model (§4.2, Table 1) characterizes each code
//! stage by its execution time `C_i`. Under the simulator these are charged
//! explicitly via [`MemoryModel::busy`]; under the native model the charges
//! compile to nothing and the real instructions cost what they cost.
//!
//! Calibration (documented so the Theorem-1/2 predictions line up with the
//! simulated sweeps, cf. Fig 12):
//!
//! * the hash function is a few dozen ALU ops (`HASH_FN` = 30) and the
//!   bucket/partition modulo is an integer divide — the paper substitutes
//!   the Pentium 4 integer-divide latency into its Alpha-based simulator
//!   (§7.1), hence the large `MOD` = 68;
//! * header and cell-array examinations are short compare-and-branch
//!   sequences (8 cycles), deliberately *below* `T_next` = 10, so the
//!   binding constraint of Theorem 1 is `(G-1)·T_next ≥ T`, giving
//!   `G* = 16` at `T = 150` — the same regime as the paper's `G = 19`;
//! * tuple copies cost [`copy_cost`] ≈ 15 + len/2 cycles (a 1 GHz 4-wide
//!   2003-class core sustains ~2 B/cycle through the slotted-page copy
//!   path).
//!
//! With these constants Theorem 2 predicts `D = 1` for 100 B tuples —
//! exactly the paper's optimal prefetch distance (§7.3).
//!
//! [`MemoryModel::busy`]: phj_memsim::MemoryModel::busy

use crate::join::program::{Build, Probe};
use crate::partition::program::Partition;

/// Hash-function evaluation over a short key (cycles).
pub const HASH_FN: u64 = 30;

/// Integer modulo by a non-power-of-two (bucket or partition number):
/// the paper substitutes the Pentium 4 integer-divide latency (§7.1),
/// which is 60-80 cycles for 32-bit operands.
pub const MOD: u64 = 68;

/// Reading the stashed hash code from the page slot area instead of
/// recomputing (the §7.1 optimization): load + loop overhead.
pub const HASH_REUSE: u64 = 10;

/// Examining a bucket header: null/empty tests, inline-cell hash compare.
pub const HEADER_CHECK: u64 = 8;

/// Examining one step of a hash-cell array scan (hash-code compare).
pub const CELL_CHECK: u64 = 8;

/// Writing one hash cell during build (stores + count update).
pub const CELL_WRITE: u64 = 15;

/// Full join-key comparison on a hash-code match.
pub const KEY_COMPARE: u64 = 15;

/// Per-tuple loop overhead of reading the next input tuple (slot decode,
/// bounds checks, iterator advance).
pub const TUPLE_FETCH: u64 = 12;

/// Group/software-pipeline bookkeeping per element per stage (state reads
/// and writes, circular-index masking). Software pipelining pays it with a
/// small premium (`SWP_EXTRA`) for modular indexing and queue upkeep
/// (§5.4: "software-pipelined prefetching has larger bookkeeping
/// overhead").
pub const STAGE_BOOKKEEPING: u64 = 3;

/// Additional software-pipelining bookkeeping per element per stage.
pub const SWP_EXTRA: u64 = 2;

/// Evaluating the aggregated expression for one tuple (hash group-by).
pub const AGG_EXTRACT: u64 = 8;

/// Average branch-misprediction cost charged (as an "other stall") at the
/// data-dependent match/no-match and code-path-dispatch branches. The
/// prefetching schemes execute more dispatch branches, which is why the
/// paper's Fig 11 shows their "other stalls" slightly increasing.
pub const BRANCH_MISS: u64 = 2;

/// Cost of copying `len` bytes between cached buffers (slot decode,
/// length checks, and ~2 B/cycle of sustained copy on a 2003-class core).
#[inline]
pub const fn copy_cost(len: usize) -> u64 {
    15 + (len as u64) / 2
}

/// Cost of code-0 (address generation) when the hash is computed from the
/// key vs reused from the slot area.
#[inline]
pub const fn code0_cost(reuse_stored_hash: bool) -> u64 {
    if reuse_stored_hash {
        HASH_REUSE + MOD + TUPLE_FETCH
    } else {
        HASH_FN + MOD + TUPLE_FETCH
    }
}

/// The probe loop's stage costs `[C_0, C_1, C_2, C_3]` for Theorem
/// predictions: hash+bucket, header check, cell scan, key compare + output
/// materialization of `out_len` bytes.
pub fn probe_stage_costs(reuse_stored_hash: bool, out_len: usize) -> [u64; 4] {
    CostModel::default().probe_stage_costs(reuse_stored_hash, out_len)
}

/// The build loop's stage costs `[C_0, C_1, C_2]`: hash+bucket, header
/// examination, cell write.
pub fn build_stage_costs(reuse_stored_hash: bool) -> [u64; 3] {
    CostModel::default().build_stage_costs(reuse_stored_hash)
}

/// The partition loop's stage costs `[C_0, C_1]`: hash+partition number,
/// tuple copy into the output buffer.
pub fn partition_stage_costs(reuse_stored_hash: bool, tuple_len: usize) -> [u64; 2] {
    CostModel::default().partition_stage_costs(reuse_stored_hash, tuple_len)
}

/// The calibration constants as one overridable value set.
///
/// The module-level constants are the calibrated defaults; the analyzer
/// (`phj-analyze`) and the CLI's `--cost-model k=v,...` flag need to
/// perturb them — e.g. to sanity-check that Theorem-1/2 residuals move
/// when the assumed stage costs are wrong — without recompiling. All
/// stage-cost vectors are derivable from this struct; the free functions
/// above evaluate it at its defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// [`HASH_FN`].
    pub hash_fn: u64,
    /// [`MOD`].
    pub mod_op: u64,
    /// [`HASH_REUSE`].
    pub hash_reuse: u64,
    /// [`HEADER_CHECK`].
    pub header_check: u64,
    /// [`CELL_CHECK`].
    pub cell_check: u64,
    /// [`CELL_WRITE`].
    pub cell_write: u64,
    /// [`KEY_COMPARE`].
    pub key_compare: u64,
    /// [`TUPLE_FETCH`].
    pub tuple_fetch: u64,
    /// Fixed part of [`copy_cost`].
    pub copy_base: u64,
    /// Sustained copy bandwidth in bytes per cycle (the `/2` of
    /// [`copy_cost`]); must stay nonzero.
    pub copy_bytes_per_cycle: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            hash_fn: HASH_FN,
            mod_op: MOD,
            hash_reuse: HASH_REUSE,
            header_check: HEADER_CHECK,
            cell_check: CELL_CHECK,
            cell_write: CELL_WRITE,
            key_compare: KEY_COMPARE,
            tuple_fetch: TUPLE_FETCH,
            copy_base: 15,
            copy_bytes_per_cycle: 2,
        }
    }
}

impl CostModel {
    /// The overridable keys, in `entries` order.
    pub const KEYS: [&'static str; 10] = [
        "hash_fn",
        "mod",
        "hash_reuse",
        "header_check",
        "cell_check",
        "cell_write",
        "key_compare",
        "tuple_fetch",
        "copy_base",
        "copy_bpc",
    ];

    /// The model as `(key, value)` pairs, for config fingerprints and the
    /// analyzer's provenance lines.
    pub fn entries(&self) -> [(&'static str, u64); 10] {
        [
            ("hash_fn", self.hash_fn),
            ("mod", self.mod_op),
            ("hash_reuse", self.hash_reuse),
            ("header_check", self.header_check),
            ("cell_check", self.cell_check),
            ("cell_write", self.cell_write),
            ("key_compare", self.key_compare),
            ("tuple_fetch", self.tuple_fetch),
            ("copy_base", self.copy_base),
            ("copy_bpc", self.copy_bytes_per_cycle),
        ]
    }

    /// Parse a `key=value,key=value` override spec on top of the
    /// defaults. Unknown keys, non-numeric values, and a zero copy
    /// bandwidth are rejected with the offending token in the message.
    pub fn parse_overrides(spec: &str) -> Result<CostModel, String> {
        let mut m = CostModel::default();
        for tok in spec.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{tok}`"))?;
            let v: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("`{key}` expects an integer cycle count, got `{value}`"))?;
            match key.trim() {
                "hash_fn" => m.hash_fn = v,
                "mod" => m.mod_op = v,
                "hash_reuse" => m.hash_reuse = v,
                "header_check" => m.header_check = v,
                "cell_check" => m.cell_check = v,
                "cell_write" => m.cell_write = v,
                "key_compare" => m.key_compare = v,
                "tuple_fetch" => m.tuple_fetch = v,
                "copy_base" => m.copy_base = v,
                "copy_bpc" => m.copy_bytes_per_cycle = v,
                other => {
                    return Err(format!(
                        "unknown cost-model key `{other}` (known: {})",
                        Self::KEYS.join(", ")
                    ))
                }
            }
        }
        if m.copy_bytes_per_cycle == 0 {
            return Err("copy_bpc must be at least 1 byte/cycle".to_string());
        }
        Ok(m)
    }

    /// [`copy_cost`] under this model.
    pub fn copy_cost(&self, len: usize) -> u64 {
        self.copy_base + (len as u64) / self.copy_bytes_per_cycle
    }

    /// [`code0_cost`] under this model.
    pub fn code0_cost(&self, reuse_stored_hash: bool) -> u64 {
        if reuse_stored_hash {
            self.hash_reuse + self.mod_op + self.tuple_fetch
        } else {
            self.hash_fn + self.mod_op + self.tuple_fetch
        }
    }

    /// [`probe_stage_costs`] under this model: the probe program's
    /// declared stage costs.
    pub fn probe_stage_costs(&self, reuse_stored_hash: bool, out_len: usize) -> [u64; 4] {
        Probe::<()>::stage_costs(self, reuse_stored_hash, out_len)
    }

    /// [`build_stage_costs`] under this model: the build program's
    /// declared stage costs.
    pub fn build_stage_costs(&self, reuse_stored_hash: bool) -> [u64; 3] {
        Build::stage_costs(self, reuse_stored_hash)
    }

    /// [`partition_stage_costs`] under this model: the partition
    /// program's declared stage costs.
    pub fn partition_stage_costs(&self, reuse_stored_hash: bool, tuple_len: usize) -> [u64; 2] {
        Partition::stage_costs(self, reuse_stored_hash, tuple_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales() {
        assert_eq!(copy_cost(0), 15);
        assert_eq!(copy_cost(100), 65);
        assert!(copy_cost(1400) > copy_cost(100));
    }

    #[test]
    fn code0_reuse_is_cheaper() {
        assert!(code0_cost(true) < code0_cost(false));
    }

    #[test]
    fn stage_cost_vectors() {
        let p = probe_stage_costs(true, 200);
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], code0_cost(true));
        assert_eq!(p[3], KEY_COMPARE + copy_cost(200));
        let b = build_stage_costs(false);
        assert_eq!(b[0], code0_cost(false));
        let q = partition_stage_costs(false, 100);
        assert_eq!(q[1], copy_cost(100));
    }

    #[test]
    fn default_model_matches_constants() {
        let m = CostModel::default();
        assert_eq!(m.probe_stage_costs(true, 200), probe_stage_costs(true, 200));
        assert_eq!(m.build_stage_costs(false), build_stage_costs(false));
        assert_eq!(m.partition_stage_costs(false, 100), partition_stage_costs(false, 100));
        assert_eq!(m.copy_cost(100), copy_cost(100));
        assert_eq!(m.code0_cost(true), code0_cost(true));
        // Every key appears exactly once in both listings.
        assert_eq!(m.entries().map(|(k, _)| k), CostModel::KEYS);
    }

    #[test]
    fn overrides_parse_and_perturb() {
        let m = CostModel::parse_overrides("header_check=20, cell_check=20").unwrap();
        assert_eq!(m.header_check, 20);
        assert_eq!(m.cell_check, 20);
        assert_eq!(m.hash_fn, HASH_FN); // untouched keys keep defaults
        assert_eq!(m.probe_stage_costs(true, 200)[1], 20);
        // Empty spec is the default model.
        assert_eq!(CostModel::parse_overrides("").unwrap(), CostModel::default());
        // Bad specs name the offending token.
        assert!(CostModel::parse_overrides("nope=3").unwrap_err().contains("nope"));
        assert!(CostModel::parse_overrides("hash_fn").unwrap_err().contains("key=value"));
        assert!(CostModel::parse_overrides("hash_fn=abc").unwrap_err().contains("abc"));
        assert!(CostModel::parse_overrides("copy_bpc=0").unwrap_err().contains("copy_bpc"));
    }
}

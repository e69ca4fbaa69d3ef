//! Well-known metric family names.
//!
//! Every instrumentation point in the workspace and every consumer of a
//! scrape — the `/metrics` endpoint, the tests that read the registry
//! and the benchmark's per-layer meters — must agree on these strings.
//! Centralizing them here makes the plumbing a compile-time contract
//! instead of a grep: a reader of [`EXEC_STEALS`] cannot drift from the
//! counter the worker pool increments.

/// `phj_exec_tasks_total` — tasks run by the worker pool.
pub const EXEC_TASKS: &str = "phj_exec_tasks_total";
/// `phj_exec_steals_total` — tasks obtained by work stealing.
pub const EXEC_STEALS: &str = "phj_exec_steals_total";
/// `phj_exec_busy_ns_total` — worker wall time inside task bodies (ns).
pub const EXEC_BUSY_NS: &str = "phj_exec_busy_ns_total";
/// `phj_exec_idle_ns_total` — worker wall time hunting for work (ns).
pub const EXEC_IDLE_NS: &str = "phj_exec_idle_ns_total";
/// `phj_exec_queue_depth` — unclaimed tasks in the active execute region.
pub const EXEC_QUEUE_DEPTH: &str = "phj_exec_queue_depth";
/// `phj_exec_workers` — workers in the active execute region.
pub const EXEC_WORKERS: &str = "phj_exec_workers";
/// `phj_exec_task_ns` — per-task wall-time distribution (log2 buckets).
pub const EXEC_TASK_NS: &str = "phj_exec_task_ns";

/// `phj_disk_faults_injected_total` — injected disk faults, all kinds.
pub const DISK_FAULTS: &str = "phj_disk_faults_injected_total";
/// `phj_disk_read_retries_total` — repeated page read attempts.
pub const DISK_READ_RETRIES: &str = "phj_disk_read_retries_total";
/// `phj_disk_write_retries_total` — repeated page write attempts.
pub const DISK_WRITE_RETRIES: &str = "phj_disk_write_retries_total";
/// `phj_disk_stall_ns_total` — main-thread ns blocked on disk.
pub const DISK_STALL_NS: &str = "phj_disk_stall_ns_total";
/// `phj_disk_bytes_read_total` — bytes read from stripe files.
pub const DISK_BYTES_READ: &str = "phj_disk_bytes_read_total";
/// `phj_disk_bytes_written_total` — bytes written to stripe files.
pub const DISK_BYTES_WRITTEN: &str = "phj_disk_bytes_written_total";
/// `phj_disk_degradation_depth` — deepest degradation-ladder step.
pub const DISK_DEGRADATION_DEPTH: &str = "phj_disk_degradation_depth";

/// `phj_memsim_accesses_total` — simulated demand accesses.
pub const MEMSIM_ACCESSES: &str = "phj_memsim_accesses_total";
/// `phj_memsim_l1_misses_total` — demand lines missing L1.
pub const MEMSIM_L1_MISSES: &str = "phj_memsim_l1_misses_total";
/// `phj_memsim_l2_misses_total` — demand lines missing L2.
pub const MEMSIM_L2_MISSES: &str = "phj_memsim_l2_misses_total";
/// `phj_memsim_tlb_misses_total` — demand TLB page walks.
pub const MEMSIM_TLB_MISSES: &str = "phj_memsim_tlb_misses_total";
/// `phj_memsim_prefetches_total` — software prefetches issued.
pub const MEMSIM_PREFETCHES: &str = "phj_memsim_prefetches_total";
/// `phj_memsim_pf_hidden_cycles_total` — miss cycles hidden by prefetching.
pub const MEMSIM_PF_HIDDEN_CYCLES: &str = "phj_memsim_pf_hidden_cycles_total";

/// `phj_server_queries_admitted_total` — queries granted memory and run.
pub const SERVER_QUERIES_ADMITTED: &str = "phj_server_queries_admitted_total";
/// `phj_server_queries_rejected_total` — queries bounced by admission.
pub const SERVER_QUERIES_REJECTED: &str = "phj_server_queries_rejected_total";
/// `phj_server_queries_queued` — queries waiting for a memory grant.
pub const SERVER_QUERIES_QUEUED: &str = "phj_server_queries_queued";
/// `phj_server_queries_inflight` — queries currently executing.
pub const SERVER_QUERIES_INFLIGHT: &str = "phj_server_queries_inflight";
/// `phj_server_grant_bytes` — memory bytes currently granted out.
pub const SERVER_GRANT_BYTES: &str = "phj_server_grant_bytes";
/// `phj_server_grant_peak_bytes` — high-water mark of granted bytes.
pub const SERVER_GRANT_PEAK_BYTES: &str = "phj_server_grant_peak_bytes";
/// `phj_server_query_latency_us` — per-query wall latency (log2 buckets).
pub const SERVER_QUERY_LATENCY_US: &str = "phj_server_query_latency_us";
/// `phj_server_query_queue_wait_us` — admission FIFO wait behind
/// earlier arrivals (the query was not yet at the queue head).
pub const SERVER_QUERY_QUEUE_WAIT_US: &str = "phj_server_query_queue_wait_us";
/// `phj_server_query_grant_wait_us` — wait at the queue head for
/// budget to free up.
pub const SERVER_QUERY_GRANT_WAIT_US: &str = "phj_server_query_grant_wait_us";
/// `phj_server_query_exec_us` — kernel execution time per query.
pub const SERVER_QUERY_EXEC_US: &str = "phj_server_query_exec_us";
/// `phj_server_query_generate_us` — input generation, part of exec.
pub const SERVER_QUERY_GENERATE_US: &str = "phj_server_query_generate_us";
/// `phj_server_query_stage_us` — staging both relations to striped
/// files, part of exec (0 unless a disk join).
pub const SERVER_QUERY_STAGE_US: &str = "phj_server_query_stage_us";
/// `phj_server_query_kernel_us` — the join/aggregate call itself, part
/// of exec.
pub const SERVER_QUERY_KERNEL_US: &str = "phj_server_query_kernel_us";
/// `phj_server_query_serialize_us` — response serialization time
/// (report re-render with the `query_trace` section attached).
pub const SERVER_QUERY_SERIALIZE_US: &str = "phj_server_query_serialize_us";
/// `phj_server_slow_queries_total` — slow-query captures written.
pub const SERVER_SLOW_QUERIES: &str = "phj_server_slow_queries_total";
/// `phj_server_grant_resizes_total` — live-grant resize operations.
pub const SERVER_GRANT_RESIZES: &str = "phj_server_grant_resizes_total";
/// `phj_server_shed_requests_total` — pressure callbacks asking a
/// running query to shed memory for a queued arrival.
pub const SERVER_SHED_REQUESTS: &str = "phj_server_shed_requests_total";

/// `phj_storage_pages_sealed_total` — page images sealed for disk.
pub const STORAGE_PAGES_SEALED: &str = "phj_storage_pages_sealed_total";
/// `phj_storage_pages_verified_total` — disk page images verified OK.
pub const STORAGE_PAGES_VERIFIED: &str = "phj_storage_pages_verified_total";
/// `phj_storage_checksum_failures_total` — disk images rejected.
pub const STORAGE_CHECKSUM_FAILURES: &str = "phj_storage_checksum_failures_total";

//! `disk_join_tight` and `disk_join_roomy`: the on-disk join over
//! striped files, with a budget that spills everything and one that
//! spills nothing.

use std::path::Path;
use std::time::{Duration, Instant};

use phj_disk::{
    grace_join_files, BackgroundWriter, DiskGraceConfig, DiskGraceReport, DiskJoinMode,
    FileRelation, SequentialReader, StripeSet,
};
use phj_metrics::names;
use phj_storage::{Page, Relation, PAGE_SIZE};
use phj_workload::JoinSpec;

use crate::harness::{overhead_pct, repeat_setup, timed_loop, Outcome, RunArgs, Scratch};
use crate::mem_join;
use crate::stats::{self, tail_percentile};
use crate::trace::Tracer;

/// Stripe files per relation and stripe unit in pages (the paper's six
/// disks, 256 KB units).
const STRIPES: usize = 6;
const STRIPE_PAGES: u64 = 32;

/// Pages in the stripe-layer micro-benchmark's stripe set (64 MB).
const MICRO_PAGES: u64 = (64 << 20) / PAGE_SIZE as u64;

const MB: f64 = (1 << 20) as f64;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tight,
    Roomy,
}

impl Kind {
    /// A sixth of the 24 MB build side, or more than all of it.
    fn mem_budget(self) -> usize {
        match self {
            Kind::Tight => 4 << 20,
            Kind::Roomy => 40 << 20,
        }
    }
}

/// Both relations staged as striped files, and the in-memory oracle.
struct Staged {
    input: mem_join::Input,
    build: FileRelation,
    probe: FileRelation,
    stage_s: f64,
}

impl Staged {
    fn input_bytes(&self) -> f64 {
        (self.build.size_bytes() + self.probe.size_bytes()) as f64
    }
}

fn setup(seed: u64, dir: &Path) -> Staged {
    let input = mem_join::setup(JoinSpec {
        seed,
        ..JoinSpec::pivot(24 << 20)
    });
    let t0 = Instant::now();
    let stage = |name: &str, rel: &Relation| {
        FileRelation::create(dir, name, rel, STRIPES, STRIPE_PAGES).expect("stage input relation")
    };
    let build = stage("build", &input.gen.build);
    let probe = stage("probe", &input.gen.probe);
    Staged {
        input,
        build,
        probe,
        stage_s: t0.elapsed().as_secs_f64(),
    }
}

/// One join into a fresh working directory. Returns how long the join
/// itself took and its report if the answer matched the oracle.
fn join_once(
    staged: &Staged,
    scratch: &Scratch,
    mode: DiskJoinMode,
    mem_budget: usize,
) -> (Duration, Option<DiskGraceReport>) {
    let work = scratch.fresh("work");
    let cfg = DiskGraceConfig {
        mem_budget,
        mode,
        ..DiskGraceConfig::new(&work)
    };
    let t0 = Instant::now();
    let result = grace_join_files(&cfg, &staged.build, &staged.probe);
    let took = t0.elapsed();
    let report = match result {
        Ok(r) if (r.matches, r.checksum) == staged.input.oracle => Some(r),
        Ok(r) => {
            eprintln!(
                "{}: answer {:#x}/{} differs from the oracle",
                mode.label(),
                r.checksum,
                r.matches
            );
            None
        }
        Err(e) => {
            eprintln!("{}: {e}", mode.label());
            None
        }
    };
    (took, report)
}

pub fn run(kind: Kind, args: &RunArgs) -> Outcome {
    let min_ops = (0.5 * args.seconds).ceil() as usize;
    let mut out = Outcome::new(tail_percentile(min_ops));
    let scratch = Scratch::create(args);
    let (staged, setup_s) = repeat_setup(|| setup(args.seed, &scratch.fresh("input")));
    out.record_setup(setup_s, staged.input.oracle_ok);
    let budget = kind.mem_budget();

    if !args.trace {
        let samples = timed_loop(args.seconds, min_ops, |t| {
            let (took, report) = join_once(&staged, &scratch, DiskJoinMode::Dynamic, budget);
            t.add(took);
            report.is_some()
        });
        out.set_window(samples, staged.input.tuples() as f64);
        out.notes.push(format!(
            "disk_join_mb_per_s = {:.3} MB/s (input bytes over the median join)",
            staged.input_bytes() / MB / (out.samples.median_ms() / 1e3)
        ));
        return out;
    }

    let reference = timed_loop(args.seconds / 4.0, 3, |t| {
        let (took, report) = join_once(&staged, &scratch, DiskJoinMode::Dynamic, budget);
        t.add(took);
        report.is_some()
    });
    out.count(&reference);

    // The registry goes in after the reference window so its cost is
    // part of what `trace.overhead_pct` reports.
    let reg = phj_metrics::install();
    let counters = [
        names::DISK_BYTES_WRITTEN,
        names::DISK_BYTES_READ,
        names::STORAGE_PAGES_SEALED,
        names::STORAGE_PAGES_VERIFIED,
    ]
    .map(|n| reg.counter(n, ""));
    let read = || counters.each_ref().map(|c| c.value() as f64);

    let mut tr = Tracer::new(Instant::now(), 0);
    let mut reports: Vec<[f64; 6]> = Vec::new();
    let mut deltas: Vec<[f64; 4]> = Vec::new();
    let mut iteration = 0u64;
    let traced = timed_loop(args.seconds / 4.0, 3, |t| {
        iteration += 1;
        tr.set_request(iteration);
        let before = read();
        let op = tr.begin("op");
        let call_span = tr.begin("disk.grace_join_files");
        let (took, r) = join_once(&staged, &scratch, DiskJoinMode::Dynamic, budget);
        t.add(took);
        tr.end(call_span);
        tr.end(op);
        let after = read();
        let Some(r) = r else { return false };
        // The phases the callee reports become children of the call.
        let start = tr.start_of(call_span);
        let part = tr.attach(
            call_span,
            "disk.join.partition",
            start,
            (r.partition_s * 1e9) as u64,
        );
        tr.attach(
            call_span,
            "disk.join.join",
            tr.end_of(part),
            (r.join_s * 1e9) as u64,
        );
        reports.push([
            r.partition_s,
            r.join_s,
            r.input_stall_s,
            (r.num_partitions - r.resident_partitions) as f64,
            r.resident_partitions as f64,
            (r.read_retries + r.write_retries) as f64,
        ]);
        deltas.push(std::array::from_fn(|i| after[i] - before[i]));
        true
    });
    out.count(&traced);

    let dcol = |i: usize| stats::column_median(&deltas, i);
    let l = &mut out.layers;
    l.set(
        "trace.overhead_pct",
        overhead_pct(reference.median_ms(), traced.median_ms()),
    );
    l.set(
        "workload.generate.ns_per_tuple",
        staged.input.generate_ns / staged.input.tuples() as f64,
    );
    l.set(
        "disk.stage.mb_per_s",
        staged.input_bytes() / MB / staged.stage_s,
    );
    for (i, name) in [
        "disk.join.partition_s",
        "disk.join.join_s",
        "disk.join.input_stall_s",
        "disk.join.spilled_partitions",
        "disk.join.resident_partitions",
        "disk.join.retries",
    ]
    .iter()
    .enumerate()
    {
        l.set(name, stats::column_median(&reports, i));
    }
    l.set("disk.bytes_written", dcol(0));
    l.set("disk.bytes_read", dcol(1));
    l.set("disk.write_amp", dcol(0) / staged.input_bytes());
    l.set("storage.pages_sealed", dcol(2));
    l.set("storage.pages_verified", dcol(3));

    // The other points of the GRACE..dynamic continuum, same inputs.
    for (mode, metric) in [
        (DiskJoinMode::Grace, "disk.join.grace.mb_per_s"),
        (DiskJoinMode::Hybrid, "disk.join.hybrid.mb_per_s"),
    ] {
        let mut secs = Vec::new();
        for _ in 0..3 {
            let (took, report) = tr
                .span(&format!("disk.grace_join_files.{}", mode.label()), || {
                    join_once(&staged, &scratch, mode, budget)
                });
            secs.push(took.as_secs_f64());
            out.verify(report.is_some());
        }
        out.layers
            .set(metric, staged.input_bytes() / MB / stats::median(&secs));
    }

    page_micro(&mut tr, &staged.input.gen.probe, &mut out);
    stripe_micro(&mut tr, &staged.input.gen.probe, &scratch, &mut out);
    out.finish_trace(&tr, args);
    out
}

/// `Page::seal` and `Page::try_from_image` on full pages.
fn page_micro(tr: &mut Tracer, rel: &Relation, out: &mut Outcome) {
    const SEALS: usize = 20_000;
    const IMAGES: usize = 2_000;
    let mut page = Page::new();
    for (_, tuple, hash) in rel.iter() {
        if page.insert(tuple, hash).is_none() {
            break;
        }
    }
    let t0 = Instant::now();
    tr.span("storage.page.seal", || {
        for _ in 0..SEALS {
            page.seal();
            std::hint::black_box(page.checksum());
        }
    });
    out.layers.set(
        "storage.page.seal_ns",
        t0.elapsed().as_nanos() as f64 / SEALS as f64,
    );

    let images: Vec<_> = (0..IMAGES).map(|_| page.sealed_image()).collect();
    let t0 = Instant::now();
    let verified = tr.span("storage.page.try_from_image", || {
        images
            .into_iter()
            .filter_map(|img| Page::try_from_image(img).ok())
            .count()
    });
    out.layers.set(
        "storage.page.verify_ns",
        t0.elapsed().as_nanos() as f64 / IMAGES as f64,
    );
    out.verify(verified == IMAGES);
}

/// The stripe layer alone on a 64 MB stripe set: checked writes,
/// verified and raw reads, the background writer, the sequential reader.
fn stripe_micro(tr: &mut Tracer, rel: &Relation, scratch: &Scratch, out: &mut Outcome) {
    let dir = scratch.fresh("stripes");
    let pages = rel.pages();
    let page_of = |i: u64| &pages[i as usize % pages.len()];
    let mb = MICRO_PAGES as f64 * PAGE_SIZE as f64 / MB;
    let mut ok = true;
    let mut rate = |tr: &mut Tracer, name: &str, metric: &str, f: &mut dyn FnMut() -> bool| {
        let t0 = Instant::now();
        ok &= tr.span(name, f);
        out.layers.set(metric, mb / t0.elapsed().as_secs_f64());
    };

    let set = StripeSet::create(&dir, "micro", STRIPES, STRIPE_PAGES).expect("create stripe set");
    rate(
        tr,
        "disk.stripe.write_page_sealed",
        "disk.stripe.write_mb_per_s",
        &mut || (0..MICRO_PAGES).all(|i| set.write_page_sealed(i, page_of(i)).is_ok()),
    );
    rate(
        tr,
        "disk.stripe.read_page_verified",
        "disk.stripe.read_verified_mb_per_s",
        &mut || (0..MICRO_PAGES).all(|i| set.read_page_verified(i).is_ok()),
    );
    rate(
        tr,
        "disk.stripe.read_page",
        "disk.stripe.read_raw_mb_per_s",
        &mut || (0..MICRO_PAGES).all(|i| set.read_page(i).is_ok()),
    );
    let mut stall_s = 0.0;
    rate(
        tr,
        "disk.reader.sequential",
        "disk.reader.seq_mb_per_s",
        &mut || {
            let mut reader = SequentialReader::start(set.clone(), 0, MICRO_PAGES, 256);
            let mut n = 0;
            while let Ok(Some(_)) = reader.next_page() {
                n += 1;
            }
            stall_s = reader.stall_seconds();
            n == MICRO_PAGES
        },
    );
    let bg = StripeSet::create(&dir, "bg", STRIPES, STRIPE_PAGES).expect("create stripe set");
    rate(tr, "disk.bgwriter", "disk.bgwriter.mb_per_s", &mut || {
        let writer = BackgroundWriter::start(bg.clone(), 256);
        (0..MICRO_PAGES).all(|i| writer.write(i, page_of(i).sealed_image()).is_ok())
            && writer.finish().is_ok()
    });
    out.layers.set("disk.reader.stall_s", stall_s);
    out.verify(ok);
}

//! # e2e-bench
//!
//! Wall-clock end-to-end benchmark of the two unmodified images the
//! paper compares: the legacy setuid image and Protego. One run boots
//! both with `userland::boot`, drives each from one closed-loop client
//! per worker, and alternates the images in short fixed-length slices
//! so machine noise hits both alike. Within a slice every
//! [`WINDOW_OPS`] operations form a window with its own throughput, p50
//! and p99. Each end-to-end metric is the median over the windows that
//! ran at the machine's full speed: those within 15% of the throughput
//! of the image's fastest windows. On a shared host other tenants slow
//! single operations by up to 1.7×, a few operations at a time, and the
//! share of operations so slowed changes from moment to moment and from
//! run to run; the full-speed windows track the code's own speed far
//! more steadily than all windows or the single best one.
//!
//! [`run`] without `traced` yields the end-to-end metrics; with `traced`
//! it turns kernel span timing on in every other slice and yields the
//! per-layer metrics instead, read only from public surfaces: the span
//! registry, `Kernel::metrics_snapshot`, and
//! `/proc/thread-self/schedstat`. The benchmark's own `Instant` pair
//! around each operation is the request root, so userland time is
//! request time minus kernel root-span time.

pub mod hist;
pub mod images;

use hist::LatencyHist;
use images::{setup, Image};
use sim_kernel::trace::span::{self, Pathway, TimingSnapshot};
use sim_kernel::SharedKernel;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use userland::SystemMode;
use Pathway::*;

/// Measured slices per image; the images alternate slice by slice.
pub const SLICES_PER_IMAGE: usize = 50;
/// Unmeasured operations per image before the first slice, rounded up
/// to a whole window.
pub const WARMUP_OPS: u64 = 2000;
/// Operations per window: 1,024 leaves ten samples beyond a window's
/// p99. A multiple of the housekeeping period, so slices, which end on a
/// whole window, end on a whole period too.
pub const WINDOW_OPS: u64 = 1024;
/// The share of an image's windows (or of a run's set-ups) whose speed
/// stands for the machine's full speed. Not the single fastest window:
/// in `shared_mix` about 1% of windows run while the mutator is
/// descheduled, faster than the workload itself.
const FAST_SHARE: f64 = 0.05;
/// A window or set-up ran at full speed when its speed times this
/// factor reaches that of the [`FAST_SHARE`] fastest ones.
const FAST_WITHIN: f64 = 1.15;

/// A traffic mix the benchmark can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ApacheBench-style requests against `httpd`: read-only VFS.
    Web,
    /// Postal-style deliveries through `exim4`: the VFS write path.
    Mail,
    /// The paper's privileged utilities: fork/exec, setuid-on-exec,
    /// authentication, mount.
    Privops,
    /// `web` and `privops` on two threads sharing one kernel.
    SharedMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Web,
        Workload::Mail,
        Workload::Privops,
        Workload::SharedMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Web => "web",
            Workload::Mail => "mail",
            Workload::Privops => "privops",
            Workload::SharedMix => "shared_mix",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload drives concurrently.
    pub fn workers(self) -> usize {
        match self {
            Workload::SharedMix => 2,
            _ => 1,
        }
    }
}

/// Refuses to run more worker threads than there are CPUs: above the
/// core count, workers measure oversubscription, not sharing.
pub fn check_parallelism(workload: Workload, cpus: usize) -> Result<(), String> {
    if workload.workers() > cpus {
        return Err(format!(
            "{} needs {} worker threads but only {} CPU(s) are available",
            workload.name(),
            workload.workers(),
            cpus
        ));
    }
    Ok(())
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Stable name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `us` or `ops/s`.
    pub unit: &'static str,
}

/// What one run measured and whether every output was correct.
#[derive(Debug, Default)]
pub struct Report {
    /// The declared metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Derived or workload-specific values printed beside the metrics
    /// but not declared (and so not gated).
    pub notes: Vec<Metric>,
    /// Operations attempted, warm-up included, over both images.
    pub attempted: u64,
    /// Operations with a wrong or missing output, plus failed
    /// housekeeping checks.
    pub failed: u64,
    /// Escalation artifacts and VFS namespace violations found after the
    /// run.
    pub problems: Vec<String>,
}

impl Report {
    /// True when no operation failed and both images are sound.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The value of metric or note `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.notes)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Operation totals over one stretch of a closed loop.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    ops: u64,
    failed: u64,
    /// Time inside operations and housekeeping.
    busy_ns: u64,
    /// Time from the first operation's start to the last one's end.
    wall_ns: u64,
}

/// [`WINDOW_OPS`] consecutive operations of one worker on one image.
#[derive(Clone, Copy, Debug)]
struct Window {
    p50_ns: f64,
    p99_ns: f64,
    /// Operations per second of wall time, housekeeping included.
    ops_per_s: f64,
}

/// One worker's record of one slice.
struct Slice {
    image: usize,
    spans: bool,
    tally: Tally,
    windows: Vec<Window>,
    /// Span timing, for spans-on slices only.
    timing: Option<TimingSnapshot>,
    /// On-CPU and run-queue nanoseconds of the worker thread.
    sched: [u64; 2],
}

impl Slice {
    fn ops_per_s(&self) -> f64 {
        self.tally.ops as f64 * 1e9 / self.tally.wall_ns.max(1) as f64
    }
}

/// Which image slice `k` runs (0 Protego, 1 legacy), and whether its
/// spans are on (every other pair of slices in a traced run).
fn plan(k: usize, traced: bool) -> (usize, bool) {
    (k % 2, traced && (k / 2).is_multiple_of(2))
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs whole windows of `img` until `stop(ops, now)` holds at a
/// window's end, and appends each window to `windows`. Each operation
/// is timed by its own `Instant` pair into `hist`, which holds one
/// window at a time.
fn run_ops(
    img: &mut Image,
    hist: &mut LatencyHist,
    windows: &mut Vec<Window>,
    stop: impl Fn(u64, Instant) -> bool,
) -> Tally {
    hist.clear();
    let period = img.period();
    let start = Instant::now();
    let mut window_start = start;
    let mut t = Tally::default();
    loop {
        let t0 = Instant::now();
        let ok = std::hint::black_box(img.op());
        let mut t1 = Instant::now();
        let ns = nanos(t1 - t0);
        hist.record(ns);
        t.busy_ns += ns;
        t.ops += 1;
        t.failed += !ok as u64;
        img.done += 1;
        if period > 1 && img.done.is_multiple_of(period) {
            t.failed += img.housekeep();
            let t2 = Instant::now();
            t.busy_ns += nanos(t2 - t1);
            t1 = t2;
        }
        if t.ops.is_multiple_of(WINDOW_OPS) {
            windows.push(Window {
                p50_ns: hist.quantile(0.50),
                p99_ns: hist.quantile(0.99),
                ops_per_s: WINDOW_OPS as f64 * 1e9 / nanos(t1 - window_start).max(1) as f64,
            });
            if stop(t.ops, t1) {
                t.wall_ns = nanos(t1 - start);
                return t;
            }
            hist.clear();
            // The window's own bookkeeping is not part of the next one.
            window_start = Instant::now();
        }
    }
}

/// On-CPU and run-queue nanoseconds of the calling thread.
fn schedstat() -> [u64; 2] {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text.split_whitespace().map(|f| f.parse().unwrap_or(0));
    [fields.next().unwrap_or(0), fields.next().unwrap_or(0)]
}

/// One worker thread: warms both of its images up, then runs its half
/// of every slice between the main thread's `start` and `end` barriers.
/// An extra `end` after the warm-up keeps the main thread from timing
/// set-up or reading counters while any worker is still warming up.
fn worker(
    images: &mut [Image; 2],
    slice_len: Duration,
    traced: bool,
    start: &Barrier,
    end: &Barrier,
) -> (Tally, Vec<Slice>) {
    let mut hist = LatencyHist::new();
    let mut warm = Tally::default();
    for img in images.iter_mut() {
        let t = run_ops(img, &mut hist, &mut Vec::new(), |ops, _| ops >= WARMUP_OPS);
        warm.ops += t.ops;
        warm.failed += t.failed;
    }
    end.wait();
    let mut slices = Vec::with_capacity(2 * SLICES_PER_IMAGE);
    for k in 0..2 * SLICES_PER_IMAGE {
        let (image, spans) = plan(k, traced);
        start.wait();
        if spans {
            span::reset();
            span::set_enabled(true);
        }
        let sched0 = schedstat();
        let deadline = Instant::now() + slice_len;
        let mut windows = Vec::new();
        let tally = run_ops(&mut images[image], &mut hist, &mut windows, |_, now| {
            now >= deadline
        });
        span::set_enabled(false);
        let sched1 = schedstat();
        slices.push(Slice {
            image,
            spans,
            tally,
            windows,
            timing: spans.then(span::snapshot),
            sched: [
                sched1[0].saturating_sub(sched0[0]),
                sched1[1].saturating_sub(sched0[1]),
            ],
        });
        end.wait();
    }
    (warm, slices)
}

/// Kernel counters the traced run differences over each spans-on slice.
#[derive(Clone, Copy, Default)]
struct Counters([u64; 9]);

const EVENTS: usize = 0;
const DENIALS: usize = 1;
const DCACHE: usize = 2; // hits, misses, invalidations
const INTERN: usize = 5; // hits, misses
const POLICY: usize = 7; // hits, misses over the module's caches

impl Counters {
    fn of(kernel: &SharedKernel) -> Counters {
        let m = kernel.metrics_snapshot();
        let mut c = [0; 9];
        c[EVENTS] = m.events;
        c[DENIALS] = m.total_denials();
        for (name, s) in &m.caches {
            match *name {
                "dcache" => {
                    c[DCACHE..DCACHE + 3].copy_from_slice(&[s.hits, s.misses, s.invalidations])
                }
                "intern" => c[INTERN..INTERN + 2].copy_from_slice(&[s.hits, s.misses]),
                _ => {
                    c[POLICY] += s.hits;
                    c[POLICY + 1] += s.misses;
                }
            }
        }
        Counters(c)
    }

    fn add_delta(&mut self, after: Counters, before: Counters) {
        for i in 0..self.0.len() {
            self.0[i] += after.0[i] - before.0[i];
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `workload` for `seconds` of measured slices, both images.
///
/// Set-up, warm-up and the post-run soundness checks come on top of
/// `seconds`. Returns an error when the workload cannot run at all
/// (too few CPUs, or an image failing to come up).
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    check_parallelism(workload, cpus)?;

    let t = Instant::now();
    let protego = setup(workload, SystemMode::Protego, seed)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut setup_errors = Vec::new();
    let legacy = setup(workload, SystemMode::Legacy, seed)?;
    let kernels = [protego[0].sys.kernel.clone(), legacy[0].sys.kernel.clone()];
    let mut pairs: Vec<[Image; 2]> = protego
        .into_iter()
        .zip(legacy)
        .map(|(p, l)| [p, l])
        .collect();

    let slice_len = Duration::from_secs_f64(seconds / (2 * SLICES_PER_IMAGE) as f64);
    let start = Barrier::new(pairs.len() + 1);
    let end = Barrier::new(pairs.len() + 1);
    let mut counters = [Counters::default(); 2];
    let results: Vec<(Tally, Vec<Slice>)> = std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .iter_mut()
            .map(|pair| s.spawn(|| worker(pair, slice_len, traced, &start, &end)))
            .collect();
        // Between the barriers every worker is idle: this thread times a
        // cold set-up of the Protego image there (spread over the run, so
        // the median is not one moment's machine state) and differences
        // kernel counters exactly.
        end.wait();
        for k in 0..2 * SLICES_PER_IMAGE {
            if !traced {
                let t = Instant::now();
                let booted = setup(workload, SystemMode::Protego, seed);
                setup_s.push(t.elapsed().as_secs_f64());
                if let Err(e) = booted {
                    setup_errors.push(e);
                }
            }
            let (image, spans) = plan(k, traced);
            let before = spans.then(|| Counters::of(&kernels[image]));
            start.wait();
            end.wait();
            if let Some(before) = before {
                counters[image].add_delta(Counters::of(&kernels[image]), before);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });

    let mut report = Report {
        problems: setup_errors,
        ..Report::default()
    };
    for (warm, slices) in &results {
        report.attempted += warm.ops;
        report.failed += warm.failed;
        for s in slices {
            report.attempted += s.tally.ops;
            report.failed += s.tally.failed;
        }
    }
    // Worker 0 holds a view of every kernel the run booted.
    for img in pairs[0].iter_mut() {
        report.problems.extend(img.problems());
    }
    if traced {
        for (image, prefix) in [(0, ""), (1, "legacy.")] {
            per_layer(&mut report, &results, image, prefix, counters[image]);
        }
    } else {
        // Interference slows set-ups in bursts, as it slows windows.
        let setup_s = median(full_speed(setup_s, |t| 1.0 / t));
        end_to_end(&mut report, workload, &results, setup_s);
    }
    for m in report.metrics.iter_mut().chain(report.notes.iter_mut()) {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    Ok(report)
}

fn push(into: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    into.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// The `items` that ran at the machine's full speed: those whose `rate`,
/// times [`FAST_WITHIN`], reaches that of the slowest of the
/// [`FAST_SHARE`] fastest items.
fn full_speed<T: Copy>(items: Vec<T>, rate: impl Fn(&T) -> f64) -> Vec<T> {
    let mut rates: Vec<f64> = items.iter().map(&rate).collect();
    rates.sort_by(|a, b| b.total_cmp(a));
    let rank = (FAST_SHARE * rates.len() as f64).ceil() as usize;
    let Some(&base) = rates.get(rank.saturating_sub(1)) else {
        return items;
    };
    items
        .into_iter()
        .filter(|x| rate(x) * FAST_WITHIN >= base)
        .collect()
}

/// Worker `w`'s full-speed windows on `image`.
fn fast_windows(results: &[(Tally, Vec<Slice>)], w: usize, image: usize) -> Vec<Window> {
    let windows = results[w]
        .1
        .iter()
        .filter(|s| s.image == image)
        .flat_map(|s| s.windows.iter().copied())
        .collect();
    full_speed(windows, |w| w.ops_per_s)
}

fn end_to_end(
    report: &mut Report,
    workload: Workload,
    results: &[(Tally, Vec<Slice>)],
    setup_s: f64,
) {
    // Each metric is its median over the full-speed windows of the
    // server worker (worker 0).
    let fast = [fast_windows(results, 0, 0), fast_windows(results, 0, 1)];
    let med = |ws: &[Window], value: fn(&Window) -> f64| median(ws.iter().map(value).collect());
    let ops = |w: &Window| w.ops_per_s;
    let p50_us = |w: &Window| w.p50_ns / 1e3;
    let p99_us = |w: &Window| w.p99_ns / 1e3;
    let m = &mut report.metrics;
    push(m, "ops_per_s", med(&fast[0], ops), "ops/s");
    push(m, "p50_us", med(&fast[0], p50_us), "us");
    push(m, "legacy_ops_per_s", med(&fast[1], ops), "ops/s");
    push(m, "setup_s", setup_s, "s");
    push(m, "peak_rss_mb", peak_rss_mb(), "MB");

    // The tail is printed but not gated: on a shared host it follows the
    // other tenants more than the code (see the README).
    let n = &mut report.notes;
    push(n, "p99_us", med(&fast[0], p99_us), "us");
    push(n, "legacy_p99_us", med(&fast[1], p99_us), "us");
    let legacy_p50 = med(&fast[1], p50_us);
    push(n, "legacy_p50_us", legacy_p50, "us");
    let overhead = (med(&fast[0], p50_us) / legacy_p50 - 1.0) * 100.0;
    push(n, "protego_overhead_pct", overhead, "%");
    push(
        n,
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    push(n, "fast_windows", fast[0].len() as f64, "count");
    push(n, "legacy_fast_windows", fast[1].len() as f64, "count");
    if workload == Workload::SharedMix {
        let mutator = fast_windows(results, 1, 0);
        push(n, "mutator_ops_per_s", med(&mutator, ops), "ops/s");
    }
}

const LSM_HOOKS: [Pathway; 12] = [
    LsmCapable,
    LsmSbMount,
    LsmSbUmount,
    LsmSocketCreate,
    LsmSocketBind,
    LsmTaskSetuid,
    LsmTaskSetgid,
    LsmBprmCheck,
    LsmIoctl,
    LsmFileOpen,
    LsmConfig,
    LsmNetfilter,
];

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

fn per_layer(
    report: &mut Report,
    results: &[(Tally, Vec<Slice>)],
    image: usize,
    prefix: &str,
    c: Counters,
) {
    let on = |s: &&Slice| s.image == image && s.spans;
    let mut timing = TimingSnapshot::new();
    let (mut ops, mut busy, mut wall) = (0, 0, 0);
    let mut sched = [[0u64; 3]; 2];
    for (w, (_, slices)) in results.iter().enumerate() {
        for s in slices.iter().filter(on) {
            timing.merge(s.timing.as_ref().expect("spans-on slices carry timing"));
            ops += s.tally.ops;
            busy += s.tally.busy_ns;
            wall += s.tally.wall_ns;
            sched[w][0] += s.sched[0];
            sched[w][1] += s.sched[1];
            sched[w][2] += s.tally.wall_ns;
        }
    }
    let n = ops.max(1) as f64;
    let self_ns = |ps: &[Pathway]| ps.iter().map(|&p| timing.self_ns(p)).sum::<u64>();
    // Layers every workload enters are reported in microseconds per op.
    // Layers only some workloads enter (the privileged paths) are
    // reported as their share of request time, so a workload that never
    // enters one reads 0% instead of a time that is always zero.
    let us = |ps: &[Pathway]| self_ns(ps) as f64 / 1e3 / n;
    let pct = |ps: &[Pathway]| 100.0 * ratio(self_ns(ps), busy);
    let per_op = |ps: &[Pathway]| ps.iter().map(|&p| timing.hist(p).count).sum::<u64>() as f64 / n;
    let k = &c.0;
    let userland_ns = busy.saturating_sub(timing.root_ns);

    let mut rows: Vec<(&str, f64, &'static str)> = vec![
        (
            "userland.self_us_per_op",
            userland_ns as f64 / 1e3 / n,
            "us/op",
        ),
        (
            "userland.kernel_entries_per_op",
            per_op(&[Dispatch]),
            "count/op",
        ),
        ("syscall.dispatch_self_us_per_op", us(&[Dispatch]), "us/op"),
        (
            "syscall.intercept_us_per_op",
            us(&[InterceptBefore, InterceptAfter]),
            "us/op",
        ),
        ("syscall.fs_calls_per_op", per_op(&[SysFs]), "count/op"),
        ("syscall.net_calls_per_op", per_op(&[SysNet]), "count/op"),
        ("syscall.id_calls_per_op", per_op(&[SysId]), "count/op"),
        (
            "syscall.process_calls_per_op",
            per_op(&[SysProcess]),
            "count/op",
        ),
        (
            "syscall.mount_calls_per_op",
            per_op(&[SysMount]),
            "count/op",
        ),
        ("syscall.fs_self_us_per_op", us(&[SysFs]), "us/op"),
        ("syscall.net_self_us_per_op", us(&[SysNet]), "us/op"),
        ("syscall.id_self_pct", pct(&[SysId]), "%"),
        ("syscall.process_self_pct", pct(&[SysProcess]), "%"),
        ("syscall.mount_self_pct", pct(&[SysMount]), "%"),
        ("vfs.resolves_per_op", per_op(&[VfsResolve]), "count/op"),
        ("vfs.resolve_self_us_per_op", us(&[VfsResolve]), "us/op"),
        ("vfs.dcache_probe_us_per_op", us(&[DcacheProbe]), "us/op"),
        (
            "vfs.dcache_hit_ratio",
            ratio(k[DCACHE], k[DCACHE] + k[DCACHE + 1]),
            "ratio",
        ),
        (
            "vfs.dcache_invalidations_per_op",
            k[DCACHE + 2] as f64 / n,
            "count/op",
        ),
        (
            "vfs.intern_hit_ratio",
            ratio(k[INTERN], k[INTERN] + k[INTERN + 1]),
            "ratio",
        ),
        ("lsm.hook_self_us_per_op", us(&LSM_HOOKS), "us/op"),
        ("lsm.hooks_per_op", per_op(&LSM_HOOKS), "count/op"),
        ("lsm.deny_per_op", k[DENIALS] as f64 / n, "count/op"),
        ("lsm.file_open_us_per_op", us(&[LsmFileOpen]), "us/op"),
        (
            "lsm.socket_us_per_op",
            us(&[LsmSocketCreate, LsmSocketBind]),
            "us/op",
        ),
        (
            "lsm.exec_setid_pct",
            pct(&[LsmBprmCheck, LsmTaskSetuid, LsmTaskSetgid]),
            "%",
        ),
        ("lsm.mount_pct", pct(&[LsmSbMount, LsmSbUmount]), "%"),
        ("policy.cache_pct", pct(&[PolicyCache]), "%"),
        (
            "policy.cache_hit_ratio",
            ratio(k[POLICY], k[POLICY] + k[POLICY + 1]),
            "ratio",
        ),
        ("audit.emit_pct", pct(&[AuditEmit]), "%"),
        ("audit.events_per_op", k[EVENTS] as f64 / n, "count/op"),
    ];
    for (w, [cpu_ns, runq_ns, wall_ns]) in sched.into_iter().enumerate() {
        // All zero for a worker the workload does not have.
        let oncpu = ratio(cpu_ns, wall_ns);
        let runq = ratio(runq_ns, wall_ns);
        let blocked = if wall_ns == 0 {
            0.0
        } else {
            (1.0 - oncpu - runq).max(0.0)
        };
        let names = match w {
            0 => ["sched.oncpu_frac", "sched.runq_frac", "sched.blocked_frac"],
            _ => [
                "sched.mutator_oncpu_frac",
                "sched.mutator_runq_frac",
                "sched.mutator_blocked_frac",
            ],
        };
        for (name, v) in names.into_iter().zip([oncpu, runq, blocked]) {
            rows.push((name, v, "ratio"));
        }
    }
    // Span timing's own cost: the server worker's best throughput with
    // spans off against spans on, over this image's slices.
    let rate = |spans: bool| {
        results[0]
            .1
            .iter()
            .filter(|s| s.image == image && s.spans == spans)
            .map(Slice::ops_per_s)
            .fold(0.0, f64::max)
    };
    rows.push((
        "trace.overhead_pct",
        (1.0 - rate(true) / rate(false)) * 100.0,
        "%",
    ));
    let attributed = userland_ns + timing.attributed_ns();
    rows.push(("trace.attributed_pct", ratio(attributed, wall) * 100.0, "%"));

    for (name, value, unit) in rows {
        push(&mut report.metrics, &format!("{prefix}{name}"), value, unit);
    }
}

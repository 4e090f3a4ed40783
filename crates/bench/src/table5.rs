//! The Table 5 generator: measures every micro and macro row on both
//! systems, the hot-path before/after rows (compiled vs interpreted
//! policy, dcache-hit vs cold resolution) and the seccomp dispatch row,
//! each with the one paired estimator [`paired_median`], and renders the
//! paper-style table plus the machine-readable `BENCH_table5.json`
//! document.

use crate::json::{self, Value};
use crate::micro::all_micro_ops;
use crate::{both, fixture, overhead_pct, paired_median, quick_time_ns, Paired, MICRO_RUNS};
use apparmor_lsm::{glob_match, AppArmorLsm, CompiledGlob};
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::lsm::{FileOpenCtx, SecurityModule};
use sim_kernel::trace::{CacheStats, Metrics};
use sim_kernel::vfs::{Access, Ino, Mode};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use userland::{boot, workload, SystemMode};

/// One measured Table 5 row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row name.
    pub name: String,
    /// Reported value for the legacy system (ns/op): the median round.
    pub linux_ns: f64,
    /// Reported value for Protego (ns/op): the median round.
    pub protego_ns: f64,
    /// Measured overhead percent (from the medians).
    pub overhead_pct: f64,
    /// The paper's overhead percent for the same row, when comparable.
    pub paper_overhead_pct: Option<f64>,
    /// Every measured legacy round (ns/op), in run order. Empty on macro
    /// rows, whose document entries carry the medians only.
    pub linux_runs_ns: Vec<f64>,
    /// Every measured Protego round (ns/op), in run order.
    pub protego_runs_ns: Vec<f64>,
}

impl Row {
    fn new(name: String, p: Paired, paper: Option<f64>) -> Row {
        Row {
            name,
            linux_ns: p.base_ns(),
            protego_ns: p.variant_ns(),
            overhead_pct: p.overhead_pct(),
            paper_overhead_pct: paper,
            linux_runs_ns: p.base_runs_ns,
            protego_runs_ns: p.variant_runs_ns,
        }
    }

    fn summary(name: String, p: Paired, paper: Option<f64>) -> Row {
        Row {
            linux_runs_ns: Vec::new(),
            protego_runs_ns: Vec::new(),
            ..Row::new(name, p, paper)
        }
    }
}

/// Measures all micro rows with the given iteration budget: each row is
/// one [`paired_median`] of legacy (baseline) against Protego.
pub fn measure_micro(warmup: u32, iters: u32) -> Vec<Row> {
    let mut fx = both();
    let mut rows = Vec::new();
    for op in all_micro_ops() {
        let prepared = [(op.prepare)(&mut fx[0]), (op.prepare)(&mut fx[1])];
        let p = paired_median(|protego| {
            let (f, prep) = (&mut fx[protego as usize], &prepared[protego as usize]);
            quick_time_ns(warmup, iters, || (op.run)(f, prep))
        });
        let paper = match (op.paper_linux_us, op.paper_protego_us) {
            (Some(a), Some(b)) => Some(overhead_pct(a, b)),
            _ => None,
        };
        rows.push(Row::new(op.name.to_string(), p, paper));
    }
    rows
}

/// Measures the macro rows (Postal, kernel compile, ApacheBench sweeps),
/// each a [`paired_median`] of legacy against Protego whose rounds run
/// the whole workload batch.
pub fn measure_macro(postal_msgs: u64, compile_units: u64, ab_requests: u64) -> Vec<Row> {
    let mut rows = Vec::new();

    // Postal: SMTP deliveries through the MTA, the same driver the
    // end-to-end benchmark runs. Each round starts from drained spools,
    // so a delivery's read-append-rename costs the same in every round.
    let mut mail = [SystemMode::Legacy, SystemMode::Protego].map(|mode| {
        let mut sys = boot(mode);
        let srv = workload::start_mail_service(&mut sys).expect("spawn mta");
        let client = workload::client_session(&mut sys).expect("client login");
        (sys, srv, client)
    });
    let p = paired_median(|protego| {
        let (sys, srv, client) = &mut mail[protego as usize];
        workload::drain_spools(sys, *srv);
        let start = Instant::now();
        for i in 0..postal_msgs {
            let rcpt = if i % 2 == 0 { "alice" } else { "bob" };
            workload::mail_delivery(sys, *client, *srv, rcpt, "postal benchmark body")
                .expect("postal delivery");
        }
        start.elapsed().as_nanos() as f64 / postal_msgs as f64
    });
    // paper: 258.64 -> 258.75 msgs/min
    rows.push(Row::summary("Postal (msg)".into(), p, Some(-0.04)));

    let mut fx = both();
    let p = paired_median(|protego| {
        let f = &mut fx[protego as usize];
        let build = workload::compile(&mut f.sys, f.user, compile_units).expect("compile");
        build.as_nanos() as f64 / compile_units as f64
    });
    rows.push(Row::summary("Kernel compile (unit)".into(), p, Some(1.44)));

    // ApacheBench at the paper's four concurrency levels.
    for (conc, paper) in [(25u64, 3.57), (50, 3.85), (100, 4.00), (200, 2.65)] {
        let mut fx = both();
        let web = fx
            .each_mut()
            .map(|f| workload::start_web_service(&mut f.sys).expect("spawn httpd"));
        let p = paired_median(|protego| {
            let (f, web) = (&mut fx[protego as usize], web[protego as usize]);
            let start = Instant::now();
            let served = workload::apache_bench(&mut f.sys, f.user, web, ab_requests, conc);
            assert_eq!(served, ab_requests, "every ApacheBench request is answered");
            start.elapsed().as_nanos() as f64 / ab_requests as f64
        });
        rows.push(Row::summary(
            format!("ApacheBench c={}", conc),
            p,
            Some(paper),
        ));
    }
    rows
}

/// Renders rows in the paper's format.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>8} {:>10}\n",
        "Test", "Linux(ns)", "Protego(ns)", "%OH", "paper %OH"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<24} {:>12.0} {:>12.0} {:>8.2} {:>10}\n",
            r.name,
            r.linux_ns,
            r.protego_ns,
            r.overhead_pct,
            r.paper_overhead_pct
                .map(|p| format!("{:.2}", p))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    s
}

/// The worst-case measured overhead across rows (Table 1's headline).
pub fn max_overhead(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.overhead_pct).fold(f64::MIN, f64::max)
}

/// One hot-path comparison row: the same operation with the fast path
/// disabled (the pre-caching interpreted/cold code, kept as the oracle)
/// and enabled (compiled globs, decision LRUs, dcache hits).
#[derive(Clone, Debug)]
pub struct HotpathRow {
    /// Row name (`glob_match`, `path_resolution`, `file_open`).
    pub name: &'static str,
    /// ns/op with the fast path disabled.
    pub before_ns: f64,
    /// ns/op with the fast path enabled.
    pub after_ns: f64,
    /// `before_ns / after_ns`.
    pub speedup: f64,
}

fn hotpath_row(name: &'static str, p: Paired) -> HotpathRow {
    let (before_ns, after_ns) = (p.base_ns(), p.variant_ns());
    HotpathRow {
        name,
        before_ns,
        after_ns,
        speedup: if after_ns > 0.0 {
            before_ns / after_ns
        } else {
            0.0
        },
    }
}

/// Measures the three hot-path rows, each a [`paired_median`] of the
/// fast path disabled (baseline) against enabled.
pub fn measure_hotpath(warmup: u32, iters: u32) -> Vec<HotpathRow> {
    let mut rows = Vec::new();

    // Glob matching: profile-shaped patterns evaluated by the recursive
    // interpreter vs the compiled engine with its literal/prefix fast
    // paths and reusable DP scratch.
    {
        const PAIRS: [(&str, &str); 4] = [
            ("/dev/**", "/dev/ttyS0"),
            ("/{bin,sbin}/mount", "/sbin/mount"),
            ("/etc/mtab", "/etc/mtab"),
            ("/usr/{lib,lib64,share}/**", "/usr/lib64/protego/policy.bin"),
        ];
        let compiled: Vec<CompiledGlob> = PAIRS.iter().map(|(p, _)| CompiledGlob::new(p)).collect();
        let p = paired_median(|compiled_engine| {
            if compiled_engine {
                quick_time_ns(warmup, iters, || {
                    for (g, (_, path)) in compiled.iter().zip(PAIRS) {
                        black_box(g.matches(path));
                    }
                })
            } else {
                quick_time_ns(warmup, iters, || {
                    for (pattern, path) in PAIRS {
                        black_box(glob_match(pattern, path));
                    }
                })
            }
        });
        rows.push(hotpath_row("glob_match", p));
    }

    // Path resolution on the VFS: a deep component walk vs a
    // generation-valid dcache hit. The cwd argument is irrelevant for an
    // absolute path.
    {
        let f = fixture(SystemMode::Protego);
        const DEEP: &str = "/srv/bench/a/b/c/d/e/f/g/h/i/j/leaf.conf";
        f.sys
            .kernel
            .vfs
            .install_file(DEEP, b"x", Mode(0o644), Uid::ROOT, Gid::ROOT)
            .expect("bench file installs");
        let vfs = &f.sys.kernel.vfs;
        let p = paired_median(|dcache| {
            vfs.set_dcache_enabled(dcache);
            quick_time_ns(warmup, iters, || {
                black_box(vfs.resolve(Ino(0), DEEP).expect("resolves"));
            })
        });
        vfs.set_dcache_enabled(true);
        rows.push(hotpath_row("path_resolution", p));
    }

    // The full AppArmor file_open hook round-trip: interpreted profile
    // lookup + rule walk vs binary→profile cache + decision LRU.
    {
        let a = AppArmorLsm::with_ubuntu_defaults();
        let root_cred = Credentials::root();
        let ctx = FileOpenCtx {
            cred: &root_cred,
            path: "/etc/fstab",
            binary: "/bin/mount",
            access: Access::READ,
            dac_allows: true,
            file_owner: Uid::ROOT,
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        let p = paired_median(|caching| {
            a.set_caching(caching);
            quick_time_ns(warmup, iters, || {
                black_box(a.file_open(&ctx));
            })
        });
        rows.push(hotpath_row("file_open", p));
    }

    rows
}

/// Extra iteration factor for [`measure_dispatch_seccomp`] over the
/// shared micro sizes: the budgeted signal is ~1% of a single-dispatch
/// row, so this row needs far more samples per round than the 5–10%
/// micro rows to resolve it; the op is one syscall, so the rounds stay
/// cheap even at 40×.
const SECCOMP_ITER_SCALE: u32 = 40;

/// The seccomp hot-path evidence row: the same `stat` dispatch on the
/// same booted image, with the registered
/// [`SeccompInterceptor`](sim_kernel::seccomp::SeccompInterceptor) in
/// mode `off` (the baseline: one mode load, then pass-through) versus
/// mode `enforce` under a profile that allows the call — so the measured
/// delta is exactly the per-dispatch cost of the profile selection memo
/// plus the packed allow-mask test.
///
/// A [`paired_median`] on a *single* Protego image, flipping the seccomp
/// mode each round: one image (same heap, same caches, same interceptor
/// chain) removes fixture-layout bias that would swamp the sub-1%
/// signal; the mode flip is one atomic store. The acceptance budget
/// ([`json::DISPATCH_SECCOMP_BUDGET_PCT`]) is <1% on full runs.
pub fn measure_dispatch_seccomp(warmup: u32, iters: u32) -> Paired {
    use sim_kernel::seccomp::{ProfileSpec, SeccompMode};
    use sim_kernel::syscall::Syscall;

    let warmup = warmup.saturating_mul(SECCOMP_ITER_SCALE);
    let iters = iters.saturating_mul(SECCOMP_ITER_SCALE);
    let mut f = fixture(SystemMode::Protego);
    let binary = f
        .sys
        .kernel
        .task_identity(f.user)
        .binary
        .as_str()
        .to_string();
    f.sys
        .kernel
        .seccomp
        .load_profiles(&[ProfileSpec::allowing(&binary, &["stat"])])
        .expect("bench profile compiles");
    f.sys.attach_seccomp();

    let (sys, user) = (&mut f.sys, f.user);
    paired_median(|enforce| {
        sys.kernel.seccomp.set_mode(if enforce {
            SeccompMode::Enforce
        } else {
            SeccompMode::Off
        });
        quick_time_ns(warmup, iters, || {
            let _ = sys
                .kernel
                .dispatch(user, Syscall::Stat { path: "/etc/motd" });
        })
    })
}

/// Runs a short cache-exercising workload on both systems and merges
/// their kernels' metrics snapshots, so the caches both share (like the
/// dcache) are summed across modes. Keyed by cache name.
pub fn collect_cache_metrics() -> BTreeMap<&'static str, CacheStats> {
    let mut merged = Metrics::default();

    // Legacy: AppArmor confines tcpdump, so repeated opens by that binary
    // exercise the binary→profile cache, the decision LRU and the dcache.
    {
        let f = fixture(SystemMode::Legacy);
        let k = &f.sys.kernel;
        k.write_file(f.root, "/etc/hosts", b"127.0.0.1 localhost\n", Mode(0o644))
            .expect("hosts file");
        k.task_mut(f.root).expect("root task").binary = "/usr/sbin/tcpdump".to_string();
        for _ in 0..8 {
            let _ = k.read_to_string(f.root, "/etc/hosts");
        }
        merged.merge(&k.metrics_snapshot());
    }

    // Protego: every file_open consults the keyfile-rule cache, so plain
    // repeated reads exercise it together with the dcache.
    {
        let f = fixture(SystemMode::Protego);
        let k = &f.sys.kernel;
        k.write_file(f.root, "/etc/hosts", b"127.0.0.1 localhost\n", Mode(0o644))
            .expect("hosts file");
        for _ in 0..8 {
            let _ = k.read_to_string(f.user, "/etc/hosts");
        }
        merged.merge(&k.metrics_snapshot());
    }

    merged.caches
}

fn row_to_value(r: &Row) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str(r.name.clone())),
        ("linux_ns".into(), Value::Num(r.linux_ns)),
        ("protego_ns".into(), Value::Num(r.protego_ns)),
        ("overhead_pct".into(), Value::Num(r.overhead_pct)),
        (
            "paper_overhead_pct".into(),
            r.paper_overhead_pct.map(Value::Num).unwrap_or(Value::Null),
        ),
    ];
    if !r.linux_runs_ns.is_empty() {
        let arr = |xs: &[f64]| Value::Arr(xs.iter().map(|&n| Value::Num(n)).collect());
        fields.push(("linux_runs_ns".into(), arr(&r.linux_runs_ns)));
        fields.push(("protego_runs_ns".into(), arr(&r.protego_runs_ns)));
    }
    Value::Obj(fields)
}

/// Builds the machine-readable `BENCH_table5.json` document: micro and
/// macro Table 5 rows, the hot-path before/after rows, and the cache
/// counters from both kernels' metrics snapshots.
pub fn table5_json(
    quick: bool,
    warmup: u32,
    iters: u32,
    postal_msgs: u64,
    compile_units: u64,
    ab_requests: u64,
) -> String {
    let micro = measure_micro(warmup, iters);
    let macro_rows = measure_macro(postal_msgs, compile_units, ab_requests);
    let hotpath = measure_hotpath(warmup, iters);
    let seccomp = measure_dispatch_seccomp(warmup, iters);
    let caches = collect_cache_metrics();
    let runs_arr = |xs: &[f64]| Value::Arr(xs.iter().map(|&n| Value::Num(n)).collect());

    let doc = Value::Obj(vec![
        ("schema".into(), Value::Str(json::TABLE5_SCHEMA_V2.into())),
        ("quick".into(), Value::Bool(quick)),
        ("runs_per_mode".into(), Value::Num(MICRO_RUNS as f64)),
        (
            "micro".into(),
            Value::Arr(micro.iter().map(row_to_value).collect()),
        ),
        (
            "macro".into(),
            Value::Arr(macro_rows.iter().map(row_to_value).collect()),
        ),
        (
            "hotpath".into(),
            Value::Arr(
                hotpath
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(r.name.into())),
                            ("before_ns".into(), Value::Num(r.before_ns)),
                            ("after_ns".into(), Value::Num(r.after_ns)),
                            ("speedup".into(), Value::Num(r.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "dispatch_seccomp".into(),
            Value::Obj(vec![
                ("base_ns".into(), Value::Num(seccomp.base_ns())),
                ("seccomp_ns".into(), Value::Num(seccomp.variant_ns())),
                ("overhead_pct".into(), Value::Num(seccomp.overhead_pct())),
                ("base_runs_ns".into(), runs_arr(&seccomp.base_runs_ns)),
                ("seccomp_runs_ns".into(), runs_arr(&seccomp.variant_runs_ns)),
            ]),
        ),
        (
            "cache_metrics".into(),
            Value::Obj(
                caches
                    .iter()
                    .map(|(name, c)| {
                        (
                            name.to_string(),
                            Value::Obj(vec![
                                ("hits".into(), Value::Num(c.hits as f64)),
                                ("misses".into(), Value::Num(c.misses as f64)),
                                ("invalidations".into(), Value::Num(c.invalidations as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_micro_measurement_completes() {
        let rows = measure_micro(2, 5);
        assert!(rows.len() >= 20);
        for r in &rows {
            assert!(r.linux_ns > 0.0, "{}", r.name);
            assert!(r.protego_ns > 0.0, "{}", r.name);
        }
        let text = render(&rows);
        assert!(text.contains("mount/umnt"));
    }

    #[test]
    fn quick_macro_measurement_completes() {
        let rows = measure_macro(5, 3, 10);
        assert_eq!(rows.len(), 6);
        assert!(render(&rows).contains("ApacheBench c=200"));
    }

    #[test]
    fn hotpath_rows_measure_all_three_paths() {
        let rows = measure_hotpath(5, 50);
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["glob_match", "path_resolution", "file_open"]);
        for r in &rows {
            assert!(r.before_ns > 0.0 && r.after_ns > 0.0, "{:?}", r);
            assert!(r.speedup > 0.0, "{:?}", r);
        }
    }

    #[test]
    fn cache_metrics_report_hits_on_every_layer() {
        let caches = collect_cache_metrics();
        let hits = |name: &str| caches.get(name).map_or(0, |c| c.hits);
        assert!(hits("dcache") > 0, "dcache: {:?}", caches);
        assert!(hits("apparmor_binary_lookup") > 0, "{:?}", caches);
        assert!(hits("apparmor_decision_lru") > 0, "{:?}", caches);
        assert!(hits("protego_keyfile_lookup") > 0, "{:?}", caches);
    }

    #[test]
    fn dispatch_seccomp_row_measures_both_variants() {
        let row = measure_dispatch_seccomp(2, 20);
        assert!(row.base_ns() > 0.0 && row.variant_ns() > 0.0, "{:?}", row);
        assert_eq!(row.base_runs_ns.len(), MICRO_RUNS);
        assert_eq!(row.variant_runs_ns.len(), MICRO_RUNS);
        assert!(row.overhead_pct().is_finite());
    }

    #[test]
    fn json_document_is_well_formed() {
        let text = table5_json(true, 2, 5, 5, 3, 10);
        let doc = json::parse(&text).expect("emitted JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(json::TABLE5_SCHEMA_V2)
        );
        assert_eq!(
            doc.get("runs_per_mode").and_then(Value::as_f64),
            Some(MICRO_RUNS as f64)
        );
        let micro = doc.get("micro").unwrap().as_arr().unwrap();
        let runs = micro[0].get("linux_runs_ns").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), MICRO_RUNS);
        assert!(!doc.get("micro").unwrap().as_arr().unwrap().is_empty());
        assert!(!doc.get("macro").unwrap().as_arr().unwrap().is_empty());
        assert_eq!(doc.get("hotpath").unwrap().as_arr().unwrap().len(), 3);
        let dcache = doc.get("cache_metrics").unwrap().get("dcache").unwrap();
        assert!(dcache.get("hits").unwrap().as_f64().unwrap() > 0.0);
        let seccomp = doc.get("dispatch_seccomp").unwrap();
        assert_eq!(
            seccomp.get("base_runs_ns").unwrap().as_arr().unwrap().len(),
            MICRO_RUNS
        );
        assert!(seccomp.get("seccomp_ns").unwrap().as_f64().unwrap() > 0.0);
    }
}

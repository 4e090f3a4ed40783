//! The Table 5 generator: measures every micro and macro row on both
//! systems, the hot-path before/after rows (compiled vs interpreted
//! policy, dcache-hit vs cold resolution) and the seccomp dispatch row,
//! each with the one paired estimator [`paired_median`], into one typed
//! [`Table5Doc`]: the paper-style table is printed from it, and it is
//! written, read back and judged as the committed `BENCH_table5.json`.

use crate::json::{self, Value};
use crate::micro::all_micro_ops;
use crate::{both, fixture, overhead_pct, paired_median, quick_time_ns, Paired, MICRO_RUNS};
use apparmor_lsm::{glob_match, AppArmorLsm, CompiledGlob};
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::lsm::{FileOpenCtx, SecurityModule};
use sim_kernel::trace::{CacheStats, Metrics};
use sim_kernel::vfs::{AbsPath, Access, Ino, Mode};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use userland::{boot, workload, SystemMode};

/// The schema tag of Table 5 documents: the document carries
/// `runs_per_mode` and every micro row carries its per-run samples.
pub const TABLE5_SCHEMA_V2: &str = "bench_table5/v2";

/// The per-row overhead budget enforced on every micro row of a full
/// (non-quick) Table 5 document, in percent.
pub const MICRO_BUDGET_PCT: f64 = 10.0;

/// The overhead budget for the `dispatch_seccomp` section of a full
/// (non-quick) Table 5 document, in percent: an enforcing
/// seccomp profile's flat array lookup must stay within 1% of the bare
/// dispatch row.
pub const DISPATCH_SECCOMP_BUDGET_PCT: f64 = 1.0;

/// The iteration budget of one [`Table5Doc::measure`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Marks the document quick: its rows carry the evidence, but the
    /// overhead budgets are not enforced on it.
    pub quick: bool,
    /// Unmeasured iterations before each micro/hot-path round.
    pub warmup: u32,
    /// Measured iterations per micro/hot-path round.
    pub iters: u32,
    /// SMTP deliveries per Postal round.
    pub postal_msgs: u64,
    /// Translation units per kernel-compile round.
    pub compile_units: u64,
    /// Requests per ApacheBench round.
    pub ab_requests: u64,
}

impl Sizes {
    /// The `tables` presets: the low-iteration `--quick` run or the full
    /// one the committed document comes from.
    pub fn new(quick: bool) -> Sizes {
        let (warmup, iters, postal_msgs, compile_units, ab_requests) = if quick {
            (10, 200, 50, 20, 100)
        } else {
            (100, 5_000, 500, 200, 1_000)
        };
        Sizes {
            quick,
            warmup,
            iters,
            postal_msgs,
            compile_units,
            ab_requests,
        }
    }
}

/// One measured Table 5 row.
#[derive(Clone, Debug, PartialEq)]
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
fn measure_micro(warmup: u32, iters: u32) -> Vec<Row> {
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
fn measure_macro(postal_msgs: u64, compile_units: u64, ab_requests: u64) -> Vec<Row> {
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
pub fn render<'a>(rows: impl IntoIterator<Item = &'a Row>) -> String {
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
pub fn max_overhead<'a>(rows: impl IntoIterator<Item = &'a Row>) -> f64 {
    rows.into_iter()
        .map(|r| r.overhead_pct)
        .fold(f64::MIN, f64::max)
}

/// One hot-path comparison row: the same operation with the fast path
/// disabled (the pre-caching interpreted/cold code, kept as the oracle)
/// and enabled (compiled globs, decision LRUs, dcache hits).
#[derive(Clone, Debug, PartialEq)]
pub struct HotpathRow {
    /// Row name (`glob_match`, `path_resolution`, `file_open`).
    pub name: String,
    /// ns/op with the fast path disabled.
    pub before_ns: f64,
    /// ns/op with the fast path enabled.
    pub after_ns: f64,
    /// `before_ns / after_ns`.
    pub speedup: f64,
}

fn hotpath_row(name: &str, p: Paired) -> HotpathRow {
    let (before_ns, after_ns) = (p.base_ns(), p.variant_ns());
    HotpathRow {
        name: name.to_string(),
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
fn measure_hotpath(warmup: u32, iters: u32) -> Vec<HotpathRow> {
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
            auth: None,
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

/// The `dispatch_seccomp` section: the medians and every round of the
/// seccomp hot-path row, the same `stat` dispatch with seccomp off and
/// under an enforcing profile that allows it.
#[derive(Clone, Debug, PartialEq)]
pub struct SeccompRow {
    /// ns/op with seccomp off (the median round).
    pub base_ns: f64,
    /// ns/op under an enforcing profile that allows the call.
    pub seccomp_ns: f64,
    /// Measured overhead percent (from the medians).
    pub overhead_pct: f64,
    /// Every seccomp-off round (ns/op), in run order.
    pub base_runs_ns: Vec<f64>,
    /// Every enforcing round (ns/op), in run order.
    pub seccomp_runs_ns: Vec<f64>,
}

impl From<Paired> for SeccompRow {
    fn from(p: Paired) -> SeccompRow {
        SeccompRow {
            base_ns: p.base_ns(),
            seccomp_ns: p.variant_ns(),
            overhead_pct: p.overhead_pct(),
            base_runs_ns: p.base_runs_ns,
            seccomp_runs_ns: p.variant_runs_ns,
        }
    }
}

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
/// ([`DISPATCH_SECCOMP_BUDGET_PCT`]) is <1% on full runs.
fn measure_dispatch_seccomp(warmup: u32, iters: u32) -> Paired {
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
fn collect_cache_metrics() -> BTreeMap<&'static str, CacheStats> {
    let mut merged = Metrics::default();

    // Legacy: AppArmor confines tcpdump, so repeated opens by that binary
    // exercise the binary→profile cache, the decision LRU and the dcache.
    {
        let f = fixture(SystemMode::Legacy);
        let k = &f.sys.kernel;
        k.write_file(f.root, "/etc/hosts", b"127.0.0.1 localhost\n", Mode(0o644))
            .expect("hosts file");
        k.task_mut(f.root).expect("root task").binary = AbsPath::intern("/usr/sbin/tcpdump");
        for _ in 0..8 {
            let _ = k.read_to_string(f.root, "/etc/hosts");
        }
        merged.merge(&k.metrics_snapshot());
    }

    // Protego: plain repeated reads exercise the dcache.
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

/// The committed `BENCH_table5.json` document as one typed value:
/// measured by [`Table5Doc::measure`], written by [`Table5Doc::to_json`],
/// read back by [`Table5Doc::from_json`] and judged by
/// [`Table5Doc::check`].
#[derive(Clone, Debug, PartialEq)]
pub struct Table5Doc {
    /// Measured with the low-iteration sizes; budgets are not enforced.
    pub quick: bool,
    /// Measured rounds per side of every paired row ([`MICRO_RUNS`]).
    pub runs_per_mode: u64,
    /// The micro rows, each with its per-run samples.
    pub micro: Vec<Row>,
    /// The macro rows (Postal, kernel compile, ApacheBench), medians only.
    pub macro_rows: Vec<Row>,
    /// The hot-path before/after rows.
    pub hotpath: Vec<HotpathRow>,
    /// The seccomp hot-path row.
    pub dispatch_seccomp: SeccompRow,
    /// Cache counters from both kernels' metrics snapshots, by cache name.
    pub caches: BTreeMap<String, CacheStats>,
}

impl Table5Doc {
    /// Measures every section of the document with the given sizes.
    pub fn measure(sizes: Sizes) -> Table5Doc {
        let (warmup, iters) = (sizes.warmup, sizes.iters);
        Table5Doc {
            quick: sizes.quick,
            runs_per_mode: MICRO_RUNS as u64,
            micro: measure_micro(warmup, iters),
            macro_rows: measure_macro(sizes.postal_msgs, sizes.compile_units, sizes.ab_requests),
            hotpath: measure_hotpath(warmup, iters),
            dispatch_seccomp: measure_dispatch_seccomp(warmup, iters).into(),
            caches: collect_cache_metrics()
                .into_iter()
                .map(|(name, c)| (name.to_string(), c))
                .collect(),
        }
    }

    /// The `bench_table5/v2` JSON text (compact, no trailing newline).
    pub fn to_json(&self) -> String {
        let nums = |xs: &[f64]| Value::Arr(xs.iter().map(|&n| Value::Num(n)).collect());
        let row = |r: &Row| {
            let mut fields = vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("linux_ns".into(), Value::Num(r.linux_ns)),
                ("protego_ns".into(), Value::Num(r.protego_ns)),
                ("overhead_pct".into(), Value::Num(r.overhead_pct)),
                (
                    "paper_overhead_pct".into(),
                    r.paper_overhead_pct.map_or(Value::Null, Value::Num),
                ),
            ];
            if !r.linux_runs_ns.is_empty() {
                fields.push(("linux_runs_ns".into(), nums(&r.linux_runs_ns)));
                fields.push(("protego_runs_ns".into(), nums(&r.protego_runs_ns)));
            }
            Value::Obj(fields)
        };
        let hotpath = |r: &HotpathRow| {
            Value::Obj(vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("before_ns".into(), Value::Num(r.before_ns)),
                ("after_ns".into(), Value::Num(r.after_ns)),
                ("speedup".into(), Value::Num(r.speedup)),
            ])
        };
        let cache = |(name, c): (&String, &CacheStats)| {
            let stats = Value::Obj(vec![
                ("hits".into(), Value::Num(c.hits as f64)),
                ("misses".into(), Value::Num(c.misses as f64)),
                ("invalidations".into(), Value::Num(c.invalidations as f64)),
            ]);
            (name.clone(), stats)
        };
        let rows = |rs: &[Row]| Value::Arr(rs.iter().map(row).collect());
        let s = &self.dispatch_seccomp;
        Value::Obj(vec![
            ("schema".into(), Value::Str(TABLE5_SCHEMA_V2.into())),
            ("quick".into(), Value::Bool(self.quick)),
            (
                "runs_per_mode".into(),
                Value::Num(self.runs_per_mode as f64),
            ),
            ("micro".into(), rows(&self.micro)),
            ("macro".into(), rows(&self.macro_rows)),
            (
                "hotpath".into(),
                Value::Arr(self.hotpath.iter().map(hotpath).collect()),
            ),
            (
                "dispatch_seccomp".into(),
                Value::Obj(vec![
                    ("base_ns".into(), Value::Num(s.base_ns)),
                    ("seccomp_ns".into(), Value::Num(s.seccomp_ns)),
                    ("overhead_pct".into(), Value::Num(s.overhead_pct)),
                    ("base_runs_ns".into(), nums(&s.base_runs_ns)),
                    ("seccomp_runs_ns".into(), nums(&s.seccomp_runs_ns)),
                ]),
            ),
            (
                "cache_metrics".into(),
                Value::Obj(self.caches.iter().map(cache).collect()),
            ),
        ])
        .render()
    }

    /// Decodes a `bench_table5/v2` document: the schema tag, then every
    /// field, each present and of its type. Bounds are [`Table5Doc::check`]'s.
    pub fn from_json(text: &str) -> Result<Table5Doc, String> {
        let doc = json::parse(text).map_err(|e| format!("not valid JSON: {}", e))?;
        let schema = doc.field("schema", Value::as_str)?;
        if schema != TABLE5_SCHEMA_V2 {
            return Err(format!(
                "schema {:?}, expected {:?}",
                schema, TABLE5_SCHEMA_V2
            ));
        }
        // A number array; `None` if any element is not a number.
        let nums =
            |v: &Value| -> Option<Vec<f64>> { v.as_arr()?.iter().map(Value::as_f64).collect() };
        let row = |v: &Value| -> Result<Row, String> {
            // Macro rows carry no per-run samples.
            let runs = |key: &str| match v.get(key) {
                None => Ok(Vec::new()),
                Some(_) => v.field(key, nums),
            };
            Ok(Row {
                name: v.field("name", Value::as_str)?.to_string(),
                linux_ns: v.field("linux_ns", Value::as_f64)?,
                protego_ns: v.field("protego_ns", Value::as_f64)?,
                overhead_pct: v.field("overhead_pct", Value::as_f64)?,
                paper_overhead_pct: v.field("paper_overhead_pct", |p| match p {
                    Value::Null => Some(None),
                    p => p.as_f64().map(Some),
                })?,
                linux_runs_ns: runs("linux_runs_ns")?,
                protego_runs_ns: runs("protego_runs_ns")?,
            })
        };
        let hotpath = |v: &Value| -> Result<HotpathRow, String> {
            Ok(HotpathRow {
                name: v.field("name", Value::as_str)?.to_string(),
                before_ns: v.field("before_ns", Value::as_f64)?,
                after_ns: v.field("after_ns", Value::as_f64)?,
                speedup: v.field("speedup", Value::as_f64)?,
            })
        };
        let cache = |v: &Value| -> Result<CacheStats, String> {
            Ok(CacheStats {
                hits: v.field("hits", Value::as_u64)?,
                misses: v.field("misses", Value::as_u64)?,
                invalidations: v.field("invalidations", Value::as_u64)?,
            })
        };
        let seccomp = |v: &Value| -> Result<SeccompRow, String> {
            Ok(SeccompRow {
                base_ns: v.field("base_ns", Value::as_f64)?,
                seccomp_ns: v.field("seccomp_ns", Value::as_f64)?,
                overhead_pct: v.field("overhead_pct", Value::as_f64)?,
                base_runs_ns: v.field("base_runs_ns", nums)?,
                seccomp_runs_ns: v.field("seccomp_runs_ns", nums)?,
            })
        };
        Ok(Table5Doc {
            quick: doc.field("quick", Value::as_bool)?,
            runs_per_mode: doc.field("runs_per_mode", Value::as_u64)?,
            micro: doc.items("micro", row)?,
            macro_rows: doc.items("macro", row)?,
            hotpath: doc.items("hotpath", hotpath)?,
            dispatch_seccomp: doc
                .field("dispatch_seccomp", Some)
                .and_then(seccomp)
                .map_err(|e| format!("dispatch_seccomp: {}", e))?,
            caches: doc
                .field("cache_metrics", Value::as_obj)?
                .iter()
                .map(|(name, c)| {
                    let stats = cache(c).map_err(|e| format!("cache_metrics.{}: {}", name, e))?;
                    Ok((name.clone(), stats))
                })
                .collect::<Result<_, String>>()?,
        })
    }

    /// Judges the document against every bound and returns every failure,
    /// each naming its row: `runs_per_mode` >= 3; non-empty micro and
    /// macro rows with positive finite medians; on every micro row and on
    /// `dispatch_seccomp`, exactly `runs_per_mode` finite positive samples
    /// per side with the reported median inside them; the
    /// `path_resolution` and `file_open` hot-path rows at >= 2x; nonzero
    /// dcache and AppArmor binary-lookup hits. A full (non-quick) document must
    /// also keep every micro row within [`MICRO_BUDGET_PCT`] and the
    /// seccomp row within [`DISPATCH_SECCOMP_BUDGET_PCT`].
    pub fn check(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let runs = self.runs_per_mode;
        if runs < 3 {
            failures.push(format!(
                "runs_per_mode {} below the minimum 3 for a median to discard outliers",
                runs
            ));
        }
        for (key, rows) in [("micro", &self.micro), ("macro", &self.macro_rows)] {
            if rows.is_empty() {
                failures.push(format!("{:?} array is empty", key));
            }
            for r in rows {
                let positive = |n: f64| n.is_finite() && n > 0.0;
                if !(positive(r.linux_ns) && positive(r.protego_ns) && r.overhead_pct.is_finite()) {
                    failures.push(format!(
                        "{} row {:?}: non-positive or non-finite measurement",
                        key, r.name
                    ));
                }
            }
        }
        for r in &self.micro {
            let ctx = format!("micro row {:?}", r.name);
            let linux = ("linux_runs_ns", "linux_ns", r.linux_ns);
            let protego = ("protego_runs_ns", "protego_ns", r.protego_ns);
            check_samples(&mut failures, &ctx, linux, &r.linux_runs_ns, runs);
            check_samples(&mut failures, &ctx, protego, &r.protego_runs_ns, runs);
            if !self.quick && r.overhead_pct > MICRO_BUDGET_PCT {
                failures.push(format!(
                    "{}: overhead {:.2}% exceeds the {:.0}% micro budget",
                    ctx, r.overhead_pct, MICRO_BUDGET_PCT
                ));
            }
        }

        let s = &self.dispatch_seccomp;
        let ctx = "dispatch_seccomp";
        let base = ("base_runs_ns", "base_ns", s.base_ns);
        let seccomp = ("seccomp_runs_ns", "seccomp_ns", s.seccomp_ns);
        check_samples(&mut failures, ctx, base, &s.base_runs_ns, runs);
        check_samples(&mut failures, ctx, seccomp, &s.seccomp_runs_ns, runs);
        if !s.overhead_pct.is_finite()
            || !self.quick && s.overhead_pct > DISPATCH_SECCOMP_BUDGET_PCT
        {
            failures.push(format!(
                "{}: overhead {:.2}% exceeds the {:.0}% seccomp hot-path budget",
                ctx, s.overhead_pct, DISPATCH_SECCOMP_BUDGET_PCT
            ));
        }

        for required in ["path_resolution", "file_open"] {
            match self.hotpath.iter().find(|r| r.name == required) {
                None => failures.push(format!("hotpath missing required row {:?}", required)),
                Some(r) if r.speedup.is_nan() || r.speedup < 2.0 => failures.push(format!(
                    "hotpath row {:?}: speedup {:.2}x below the required 2x",
                    required, r.speedup
                )),
                Some(_) => {}
            }
        }

        let hits = |name: &str| self.caches.get(name).map_or(0, |c| c.hits);
        if hits("dcache") == 0 {
            failures.push("cache_metrics: dcache reported zero hits".into());
        }
        if hits("apparmor_binary_lookup") == 0 {
            failures.push("cache_metrics: apparmor_binary_lookup reported zero hits".into());
        }
        failures
    }
}

/// Checks one per-run sample array of a row (`(field, median_field,
/// median)` names it): exactly `runs` finite positive samples, with the
/// reported median inside their range.
fn check_samples(
    failures: &mut Vec<String>,
    ctx: &str,
    (field, median_field, median): (&str, &str, f64),
    samples: &[f64],
    runs: u64,
) {
    let mut fail = |problem: String| failures.push(format!("{}: {}", ctx, problem));
    let n = samples.len();
    if n as u64 != runs {
        fail(format!(
            "{} has {} samples, document says runs_per_mode={}",
            field, n, runs
        ));
    }
    let (lo, hi) = (samples.iter()).fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &n| {
        (lo.min(n), hi.max(n))
    });
    if samples.iter().any(|n| !n.is_finite() || *n <= 0.0) {
        fail(format!("{} sample is not a finite positive number", field));
    } else if n > 0 && !(lo..=hi).contains(&median) {
        let range = format!("[{}, {}]", lo, hi);
        fail(format!(
            "{} {} outside its own sample range {}",
            median_field, median, range
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A low-iteration measurement fills every section, and its document
    /// round-trips through the JSON text.
    #[test]
    fn quick_measurement_fills_every_section_and_round_trips() {
        let doc = Table5Doc::measure(Sizes {
            quick: true,
            warmup: 2,
            iters: 5,
            postal_msgs: 5,
            compile_units: 3,
            ab_requests: 10,
        });
        let rows = || doc.micro.iter().chain(&doc.macro_rows);
        assert!(rows().all(|r| r.linux_ns > 0.0 && r.protego_ns > 0.0));
        assert!(doc.micro.len() >= 20 && doc.macro_rows.len() == 6);
        assert!(doc
            .micro
            .iter()
            .all(|r| r.linux_runs_ns.len() == MICRO_RUNS));
        assert!(doc.macro_rows.iter().all(|r| r.linux_runs_ns.is_empty()));
        let text = render(rows());
        assert!(text.contains("mount/umnt") && text.contains("ApacheBench c=200"));
        let names: Vec<_> = doc.hotpath.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["glob_match", "path_resolution", "file_open"]);
        for r in &doc.hotpath {
            assert!(
                r.before_ns > 0.0 && r.after_ns > 0.0 && r.speedup > 0.0,
                "{:?}",
                r
            );
        }
        let s = &doc.dispatch_seccomp;
        assert!(s.base_ns > 0.0 && s.seccomp_ns > 0.0 && s.overhead_pct.is_finite());
        assert_eq!(s.seccomp_runs_ns.len(), MICRO_RUNS);
        let hits = |name: &str| doc.caches.get(name).map_or(0, |c| c.hits);
        for layer in ["dcache", "apparmor_binary_lookup", "apparmor_decision_lru"] {
            assert!(hits(layer) > 0, "{}: {:?}", layer, doc.caches);
        }
        assert_eq!(Table5Doc::from_json(&doc.to_json()), Ok(doc));
    }

    /// The committed document decodes, re-renders byte for byte (so the
    /// model drops no field) and passes every bound.
    #[test]
    fn committed_document_round_trips_and_passes_check() {
        let text = include_str!("../../../BENCH_table5.json");
        let doc = Table5Doc::from_json(text).expect("committed document decodes");
        assert_eq!(doc.to_json() + "\n", text);
        assert_eq!(doc.check(), Vec::<String>::new());
    }

    fn valid_doc() -> String {
        r#"{
          "schema": "bench_table5/v2",
          "quick": false,
          "runs_per_mode": 3,
          "micro": [
            {"name":"read","linux_ns":90.0,"protego_ns":91.0,"linux_runs_ns":[89.0,90.0,92.0],"protego_runs_ns":[90.5,91.0,93.0],"overhead_pct":1.1,"paper_overhead_pct":0.0},
            {"name":"write","linux_ns":190.0,"protego_ns":192.0,"linux_runs_ns":[189.0,190.0,191.0],"protego_runs_ns":[191.0,192.0,194.0],"overhead_pct":1.05,"paper_overhead_pct":null}
          ],
          "macro": [{"name":"Postal (msg)","linux_ns":900.0,"protego_ns":910.0,"overhead_pct":1.1,"paper_overhead_pct":null}],
          "hotpath": [
            {"name":"glob_match","before_ns":100.0,"after_ns":10.0,"speedup":10.0},
            {"name":"path_resolution","before_ns":100.0,"after_ns":20.0,"speedup":5.0},
            {"name":"file_open","before_ns":100.0,"after_ns":25.0,"speedup":4.0}
          ],
          "dispatch_seccomp": {"base_ns":200.0,"seccomp_ns":201.0,"overhead_pct":0.5,
            "base_runs_ns":[199.0,200.0,202.0],"seccomp_runs_ns":[200.0,201.0,203.0]},
          "cache_metrics": {
            "dcache": {"hits":10,"misses":2,"invalidations":1},
            "apparmor_binary_lookup": {"hits":5,"misses":1,"invalidations":0}
          }
        }"#
        .to_string()
    }

    /// The failures `check` reports on a document that decodes.
    fn failures(text: &str) -> Vec<String> {
        Table5Doc::from_json(text).expect("decodes").check()
    }

    /// The one failure `check` reports on the valid document with `from`
    /// replaced by `to`.
    fn only_failure(from: &str, to: &str) -> String {
        let failures = failures(&valid_doc().replace(from, to));
        assert_eq!(failures.len(), 1, "{:?}", failures);
        failures[0].clone()
    }

    /// Asserts that a failure message names each of `parts`.
    fn names(failure: &str, parts: &[&str]) {
        let named = parts.iter().all(|p| failure.contains(p));
        assert!(named, "{:?} does not name all of {:?}", failure, parts);
    }

    #[test]
    fn check_rejects_slow_hotpath_cold_caches_and_bad_samples() {
        assert_eq!(failures(&valid_doc()), Vec::<String>::new());
        let slow = only_failure("\"speedup\":5.0", "\"speedup\":1.4");
        names(&slow, &["path_resolution", "below the required 2x"]);
        let cold = only_failure("\"hits\":10", "\"hits\":0");
        names(&cold, &["dcache", "zero hits"]);
        let short = only_failure("[89.0,90.0,92.0]", "[89.0,90.0]");
        names(&short, &["\"read\"", "linux_runs_ns has 2 samples"]);
        let skewed = only_failure("\"seccomp_ns\":201.0", "\"seccomp_ns\":250.0");
        names(
            &skewed,
            &["dispatch_seccomp", "seccomp_ns 250", "sample range"],
        );
    }

    #[test]
    fn from_json_rejects_wrong_schemas_and_missing_fields() {
        let err = |from: &str, to: &str| Table5Doc::from_json(&valid_doc().replace(from, to));
        let err = |from, to| err(from, to).unwrap_err();
        names(&err("bench_table5/v2", "v0"), &["schema \"v0\""]);
        // The best-of-two v1 format is no longer accepted.
        let v1 = err("bench_table5/v2", "bench_table5/v1");
        names(&v1, &["expected \"bench_table5/v2\""]);
        names(
            &Table5Doc::from_json("not json").unwrap_err(),
            &["not valid JSON"],
        );
        names(&err("\"macro\"", "\"macros\""), &["\"macro\""]);
        names(&err("\"runs_per_mode\": 3,", ""), &["runs_per_mode"]);
        let missing = err("\"dispatch_seccomp\"", "\"dispatch_secomp\"");
        names(&missing, &["dispatch_seccomp"]);
    }

    /// A full document with two micro rows over the 10% budget and the
    /// seccomp row at 1.7% fails exactly those three rows; marked quick,
    /// it carries the evidence but no budget applies.
    #[test]
    fn check_names_every_over_budget_row_on_full_documents_only() {
        let over = valid_doc()
            .replace(
                "\"overhead_pct\":1.1,\"paper_overhead_pct\":0.0",
                "\"overhead_pct\":12.0,\"paper_overhead_pct\":0.0",
            )
            .replace("\"overhead_pct\":1.05", "\"overhead_pct\":15.0")
            .replace("\"overhead_pct\":0.5", "\"overhead_pct\":1.7");
        let found = failures(&over);
        assert_eq!(found.len(), 3, "{:?}", found);
        names(&found[0], &["\"read\"", "12.00%", "micro budget"]);
        names(&found[1], &["\"write\"", "15.00%", "micro budget"]);
        names(
            &found[2],
            &["dispatch_seccomp", "1.70%", "seccomp hot-path budget"],
        );
        let quick = over.replace("\"quick\": false", "\"quick\": true");
        assert_eq!(failures(&quick), Vec::<String>::new());
    }
}

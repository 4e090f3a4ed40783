//! Regenerates every table of the paper from the reproduction:
//!
//! ```text
//! tables [table1|table2|table3|table4|table5|table6|table7|table8|ablations|all] [--quick]
//! tables bench-json [--quick] [--out PATH]   # write BENCH_table5.json
//! tables bench-verify PATH                   # validate a results file (schema-dispatched)
//! tables replay-smoke                        # record + replay determinism check
//! tables seccomp-derive [--smoke] [--check] [--out PATH]  # derive per-binary allowlists -> SECCOMP_PROFILES.json
//! tables seccomp-report [PATH]               # KASR-style attack-surface report from a profiles file
//! tables fuzz [--seed N] [--mins M] [--smoke]  # adversarial differential fuzzing (legacy vs Protego)
//! ```

use bench::{json, seccomp_derive, table5};
use setuid_study::render;
use setuid_study::summary::{table1, MeasuredInputs};
use userland::suite::{run_divergence_suite, run_functional_suite, run_service_suite};
use userland::{boot, SystemMode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    if which == "bench-json" {
        run_bench_json(quick, &args);
        return;
    }
    if which == "bench-verify" {
        run_bench_verify(&args);
        return;
    }
    if which == "replay-smoke" {
        run_replay_smoke();
        return;
    }
    if which == "seccomp-derive" {
        run_seccomp_derive(&args);
        return;
    }
    if which == "seccomp-report" {
        run_seccomp_report(&args);
        return;
    }
    if which == "fuzz" {
        run_fuzz(&args);
        return;
    }

    let all = which == "all";
    if all || which == "table5" {
        print_table5(quick);
    }
    if all || which == "table6" {
        print_table6();
    }
    if all || which == "table7" {
        print_table7();
    }
    if all || which == "table1" {
        print_table1(quick);
    }
    if all || which == "table2" {
        println!("{}", render::render_table2(setuid_study::loc::TABLE2));
    }
    if all || which == "table3" {
        println!(
            "{}",
            render::render_table3(setuid_study::popularity::TABLE3)
        );
        println!(
            "  Systems able to adopt Protego with no loss of functionality: {:.1}% (paper: 89.5%)\n",
            setuid_study::popularity::adoption_coverage_pct()
        );
    }
    if all || which == "table4" {
        println!("{}", render::render_table4());
    }
    if all || which == "table8" {
        println!(
            "{}",
            render::render_table8(setuid_study::interfaces::TABLE8)
        );
    }
    if all || which == "ablations" {
        print_ablations(quick);
    }
}

fn bench_sizes(quick: bool) -> (u32, u32, u64, u64, u64) {
    if quick {
        (10, 200, 50, 20, 100)
    } else {
        (100, 5_000, 500, 200, 1_000)
    }
}

fn print_table5(quick: bool) {
    let (warm, iters, postal, compile, ab) = bench_sizes(quick);
    println!("== Table 5: Protego overheads vs Linux(+AppArmor) ==");
    println!("(simulated-kernel operation costs; the comparable quantity is %OH)\n");
    let mut rows = table5::measure_micro(warm, iters);
    rows.extend(table5::measure_macro(postal, compile, ab));
    println!("{}", table5::render(&rows));
    println!(
        "  max measured overhead: {:.2}%  (paper: <= 7.4%)\n",
        table5::max_overhead(&rows)
    );
    let mut f = bench::fixture(SystemMode::Protego);
    let abi = bench::micro::dispatch_overhead(&mut f, warm, iters);
    println!(
        "  syscall ABI dispatch: direct {:.0} ns, dispatched {:.0} ns ({:+.2}%)",
        abi.base_ns(),
        abi.variant_ns(),
        abi.overhead_pct(),
    );
    let seccomp = table5::measure_dispatch_seccomp(warm, iters);
    println!(
        "  seccomp hot path: dispatch off {:.0} ns, enforcing profile {:.0} ns ({:+.2}%, budget <{:.0}%)\n",
        seccomp.base_ns(),
        seccomp.variant_ns(),
        seccomp.overhead_pct(),
        json::DISPATCH_SECCOMP_BUDGET_PCT,
    );
}

/// The ci smoke test for deterministic record/replay: record the full
/// functional battery, replay a fresh boot against the recorded trace,
/// and fail loudly on any divergence.
fn run_replay_smoke() {
    use sim_kernel::trace::{Trace, TraceReplayer};

    let mut sys = boot(SystemMode::Protego);
    let (_rec_slot, trace) = sys.attach_recorder();
    let outcomes = run_functional_suite(&mut sys);
    let serialized = trace.lock().unwrap().render();
    let recorded = trace.lock().unwrap().len();

    let expected = match Trace::parse(&serialized) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: recorded trace does not parse: {}", e);
            std::process::exit(1);
        }
    };
    let replayer = TraceReplayer::new(expected);
    let divergences = replayer.divergences();
    let mut sys2 = boot(SystemMode::Protego);
    sys2.kernel.push_interceptor(Box::new(replayer));
    let outcomes2 = run_functional_suite(&mut sys2);

    let divs = divergences.lock().unwrap();
    if !divs.is_empty() {
        eprintln!("error: replay diverged at {} point(s):", divs.len());
        for d in divs.iter().take(5) {
            eprintln!("  {}", d);
        }
        std::process::exit(1);
    }
    if outcomes != outcomes2 {
        eprintln!("error: step outcomes differ between record and replay runs");
        std::process::exit(1);
    }
    println!(
        "replay-smoke: OK ({} dispatched syscalls, {} battery steps, 0 divergences)",
        recorded,
        outcomes.len()
    );
}

fn print_table6() {
    println!("== Table 6: historical privilege-escalation CVEs ==");
    let s = exploits::replay_corpus();
    println!(
        "  {:<24} {:>6} {:>10} {:>16} {:>16}",
        "Utilities", "Total", "Priv.Esc.", "escalate(Linux)", "escalate(Protego)"
    );
    for row in exploits::TABLE6_ROWS {
        let ids: Vec<&str> = exploits::CVES
            .iter()
            .filter(|c| c.utility == row.utilities)
            .map(|c| c.id)
            .collect();
        let legacy = s
            .per_cve
            .iter()
            .filter(|c| ids.contains(&c.id) && c.legacy_escalated)
            .count();
        let protego = s
            .per_cve
            .iter()
            .filter(|c| ids.contains(&c.id) && c.protego_escalated)
            .count();
        println!(
            "  {:<24} {:>6} {:>10} {:>16} {:>16}",
            row.utilities,
            row.total_cves
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            row.priv_esc,
            legacy,
            protego
        );
    }
    println!(
        "\n  corpus: {} CVEs; escalate on Linux: {}; escalate on Protego: {}  (paper: 40/40 deprivileged)\n",
        s.per_cve.len(),
        s.escalated_legacy,
        s.escalated_protego
    );

    println!("  Protego decision counts per LSM hook (aggregated over all replays):");
    println!(
        "  {:<16} {:>8} {:>8} {:>12} {:>8} {:>8}",
        "hook", "allow", "deny", "use_default", "defer", "info"
    );
    for (hook, c) in &s.protego_metrics.per_hook {
        println!(
            "  {:<16} {:>8} {:>8} {:>12} {:>8} {:>8}",
            hook, c.allow, c.deny, c.use_default, c.defer, c.info
        );
    }
    let audited = s.per_cve.iter().filter(|c| c.protego_denials > 0).count();
    println!(
        "  denial provenance: {}/{} blocked CVEs emitted >=1 denial audit event\n",
        audited,
        s.per_cve.len()
    );
}

fn print_table7() {
    println!("== Table 7: functional-test coverage of the setuid binaries ==");
    let mut merged = userland::coverage::Coverage::new();
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let mut sys = boot(mode);
        run_functional_suite(&mut sys);
        run_service_suite(&mut sys);
        run_divergence_suite(&mut sys);
        merged.merge_from(&sys.coverage);
    }
    println!("  {:<36} {:>10}", "Binary", "Coverage %");
    for row in merged.report() {
        if row.declared >= 4 {
            println!("  {:<36} {:>10.1}", row.binary, row.percent);
        }
    }
    println!();
}

fn print_table1(quick: bool) {
    println!("== Table 1: summary ==");
    let s = exploits::replay_corpus();
    let (warm, iters, ..) = bench_sizes(quick);
    let rows = table5::measure_micro(warm, iters);
    let t = table1(MeasuredInputs {
        exploits_escalated_legacy: s.escalated_legacy,
        exploits_escalated_protego: s.escalated_protego,
        exploits_total: s.per_cve.len() as u32,
        max_overhead_pct: table5::max_overhead(&rows),
    });
    println!("{}", render::render_table1(&t));
}

fn run_bench_json(quick: bool, args: &[String]) {
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_table5.json".to_string());
    let (warm, iters, postal, compile, ab) = bench_sizes(quick);
    eprintln!(
        "generating {} ({} mode)...",
        out,
        if quick { "quick" } else { "full" }
    );
    let mut text = table5::table5_json(quick, warm, iters, postal, compile, ab);
    text.push('\n');
    if let Err(e) = json::validate_table5(&text) {
        eprintln!("error: generated document fails validation: {}", e);
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("error: cannot write {}: {}", out, e);
        std::process::exit(1);
    }
    // Human summary of the machine-readable file.
    let doc = json::parse(&text).expect("self-emitted JSON parses");
    if let Some(rows) = doc.get("hotpath").and_then(json::Value::as_arr) {
        for r in rows {
            println!(
                "  hotpath {:<16} {:>10.0} ns -> {:>8.0} ns  ({:.1}x)",
                r.get("name").and_then(json::Value::as_str).unwrap_or("?"),
                r.get("before_ns")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0),
                r.get("after_ns")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0),
                r.get("speedup")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0),
            );
        }
    }
    if let Some(caches) = doc.get("cache_metrics").and_then(json::Value::as_obj) {
        for (name, stats) in caches {
            println!(
                "  cache {:<24} hits={} misses={} invalidations={}",
                name,
                stats
                    .get("hits")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0),
                stats
                    .get("misses")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0),
                stats
                    .get("invalidations")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0),
            );
        }
    }
    println!("wrote {}", out);
}

/// Derives the per-binary syscall allowlists from a full battery +
/// workload run on both images, proves the batteries still pass with the
/// profiles enforced, and writes (or, with `--check`, diffs against) the
/// committed `SECCOMP_PROFILES.json`.
fn run_seccomp_derive(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "SECCOMP_PROFILES.json".to_string());
    eprintln!(
        "deriving syscall allowlists (batteries + web/mail/compile workloads, both images)..."
    );
    let specs = seccomp_derive::derive_profiles();
    let mut text = seccomp_derive::profiles_json(&specs);
    text.push('\n');
    if let Err(e) = json::validate_seccomp_profiles(&text) {
        eprintln!("error: derived document fails validation: {}", e);
        std::process::exit(1);
    }
    eprintln!(
        "verifying enforcement ({} mode): batteries must reproduce baseline outcomes with zero violations...",
        if smoke { "smoke" } else { "full" }
    );
    match seccomp_derive::enforcement_check(&specs, smoke) {
        Ok(summary) => eprintln!(
            "enforcement OK: {} battery steps identical across {} image(s), 0 violations",
            summary.steps, summary.modes
        ),
        Err(e) => {
            eprintln!("error: enforcement check failed: {}", e);
            std::process::exit(1);
        }
    }
    if check {
        let committed = match std::fs::read_to_string(&out) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "error: cannot read {}: {} (run `tables seccomp-derive` to create it)",
                    out, e
                );
                std::process::exit(1);
            }
        };
        if committed != text {
            eprintln!(
                "error: {} is stale: a fresh derivation disagrees; re-run `tables seccomp-derive`",
                out
            );
            std::process::exit(1);
        }
        println!("{}: up to date ({} profiles)", out, specs.len());
    } else {
        if let Err(e) = std::fs::write(&out, &text) {
            eprintln!("error: cannot write {}: {}", out, e);
            std::process::exit(1);
        }
        println!("wrote {} ({} profiles)", out, specs.len());
    }
    print!("{}", seccomp_derive::render_report(&specs));
}

/// Prints the KASR-style attack-surface report from a committed (or
/// freshly written) `seccomp_profiles/v1` document.
fn run_seccomp_report(args: &[String]) {
    let path = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .nth(1)
        .cloned()
        .unwrap_or_else(|| "SECCOMP_PROFILES.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: cannot read {}: {} (run `tables seccomp-derive` first)",
                path, e
            );
            std::process::exit(1);
        }
    };
    let specs = match seccomp_derive::parse_profiles(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {} is invalid: {}", path, e);
            std::process::exit(1);
        }
    };
    print!("{}", seccomp_derive::render_report(&specs));
}

fn run_bench_verify(args: &[String]) {
    let path = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .nth(1)
        .cloned()
        .unwrap_or_else(|| "BENCH_table5.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {}", path, e);
            std::process::exit(1);
        }
    };
    // Dispatch on the document's own schema tag.
    let schema = json::parse(&text)
        .ok()
        .and_then(|d| {
            d.get("schema")
                .and_then(json::Value::as_str)
                .map(String::from)
        })
        .unwrap_or_default();
    let checked = if schema == json::SECCOMP_SCHEMA {
        json::validate_seccomp_profiles(&text)
    } else {
        json::validate_table5(&text)
    };
    match checked {
        Ok(()) => println!("{}: OK", path),
        Err(e) => {
            eprintln!("error: {} is invalid: {}", path, e);
            std::process::exit(1);
        }
    }
}

fn print_ablations(quick: bool) {
    use bench::ablations;
    let n = if quick { 200 } else { 2_000 };
    println!("== Ablations ==");

    // 1. Netfilter rules on the packet path.
    let mut f = bench::fixture(SystemMode::Protego);
    let with_rules = ablations::udp_burst(&mut f, n);
    ablations::flush_netfilter(&mut f);
    let without = ablations::udp_burst(&mut f, n);
    println!(
        "  netfilter: {} rules -> {:.0} ns/pkt; flushed -> {:.0} ns/pkt  ({:+.2}%)",
        5,
        with_rules as f64 / n as f64,
        without as f64 / n as f64,
        bench::overhead_pct(without as f64, with_rules as f64)
    );

    // 2. Authentication recency window.
    for spacing in [10u64, 100, 299, 301, 400] {
        let prompts = ablations::prompts_for_window(spacing);
        println!(
            "  auth window 300s, sudo every {:>3}s: {} prompts in 6 invocations",
            spacing, prompts
        );
    }

    // 3. Mount whitelist scaling.
    for rules in [10usize, 100, 1000] {
        let t = ablations::mount_lookup_cost(rules, if quick { 20 } else { 200 });
        println!(
            "  mount whitelist {} rules: {:.0} ns/mount-umount",
            rules,
            t as f64 / if quick { 20.0 } else { 200.0 }
        );
    }
    println!();
}

/// Adversarial differential fuzzing: generate seeded scenarios across
/// the five families, run each under legacy and Protego, and fail with
/// a shrunk reproducer on the first oracle violation. `--smoke` runs a
/// small fixed-seed tier (the ci gate) including the byte-identical
/// double-generation determinism check.
fn run_fuzz(args: &[String]) {
    let seed = match args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
    {
        Some(s) => {
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse::<u64>(),
            };
            match parsed {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("error: --seed {} is not a u64 (decimal or 0x-hex)", s);
                    std::process::exit(2);
                }
            }
        }
        None => 0xF0CC,
    };
    let mins = args
        .iter()
        .position(|a| a == "--mins")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0);
    let smoke = args.iter().any(|a| a == "--smoke");

    let opts = bench::fuzz::FuzzOptions { seed, mins, smoke };
    eprintln!(
        "fuzzing: seed {:#x}, {} (families: {})",
        seed,
        if smoke {
            "smoke tier (fixed seeds)".to_string()
        } else {
            format!("{} min budget", mins)
        },
        bench::fuzz::Family::ALL
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let result = bench::fuzz::run_campaign(opts);
    println!(
        "fuzz: {} scenarios, {} ops, generation deterministic: {}",
        result.scenarios, result.ops, result.generation_deterministic
    );
    if !result.generation_deterministic {
        eprintln!("error: double-generation produced different bytes for the same seed");
        std::process::exit(1);
    }
    if let Some((original, failure, minimized)) = result.failure {
        eprintln!("\nFAILURE in scenario `{}`:", original.name);
        eprintln!("{}", failure);
        eprintln!(
            "\nminimized to {} ops (from {}):\n{}",
            minimized.ops.len(),
            original.ops.len(),
            minimized.render()
        );
        eprintln!("regression snippet for tests/fuzz_regressions.rs:\n");
        eprintln!("{}", bench::fuzz::regression_snippet(&minimized, &failure));
        std::process::exit(1);
    }
    println!("fuzz: no oracle violations");
}

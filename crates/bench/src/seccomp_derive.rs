//! The auto-seccomp derivation pipeline (`tables seccomp-derive`).
//!
//! Runs the full functional + service batteries and the web/mail/compile
//! workloads on both images under a
//! [`ProfileRecorder`], attributing
//! every dispatched call to the calling task's binary, and unions the
//! observed reach sets into per-binary allowlist
//! [`ProfileSpec`]s — the approach of
//! Canella et al.'s trace-based seccomp filter generation, applied to the
//! simulated 46-variant ABI.
//!
//! The derived profiles are exchanged as the committed
//! `SECCOMP_PROFILES.json` (schema [`json::SECCOMP_SCHEMA`]) and verified
//! by [`enforcement_check`]: the same batteries re-run with the profiles
//! loaded and the kernel in enforce mode must reproduce the baseline
//! outcomes with zero recorded violations.
//!
//! Every workload here uses *fixed* operation counts — derivation is a
//! coverage question, not a timing one — so a re-derivation reproduces the
//! committed JSON byte-for-byte and `ci.sh` can use plain text equality as
//! its staleness check.

use crate::json::{self, Value};
use crate::workloads;
use crate::{fixture, Fixture};
use sim_kernel::error::KResult;
use sim_kernel::seccomp::{
    render_profile_line, ProfileRecorder, ProfileSpec, Seccomp, SeccompMode,
};
use sim_kernel::syscall::Syscall;
use userland::suite::{run_functional_suite, run_service_suite, StepOutcome};
use userland::workload;
use userland::SystemMode;

/// SMTP deliveries in the profiled mail workload.
pub const MAIL_DELIVERIES: u64 = 16;
/// HTTP round trips in the profiled web workload.
pub const WEB_REQUESTS: u64 = 16;
/// Translation units in the profiled compile workload.
pub const COMPILE_UNITS: u64 = 4;

/// The web/mail/compile slice of the derivation run (fixed counts): the
/// `userland::workload` mail and web drivers — the ones the end-to-end
/// benchmark and the Table 5 Postal row run — then the compile stand-in.
/// Fails on the first delivery or request that does not complete.
fn run_profiled_workloads(f: &mut Fixture) -> KResult<()> {
    let mta = workload::start_mail_service(&mut f.sys)?;
    let web = workload::start_web_service(&mut f.sys)?;
    let client = workload::client_session(&mut f.sys)?;
    for i in 0..MAIL_DELIVERIES {
        let rcpt = if i % 2 == 0 { "alice" } else { "bob" };
        workload::mail_delivery(&mut f.sys, client, mta, rcpt, "derivation body")?;
    }
    workload::drain_spools(&mut f.sys, mta);
    for _ in 0..WEB_REQUESTS {
        workload::web_request(&mut f.sys, client, web)?;
    }
    workloads::compile(f, COMPILE_UNITS);
    Ok(())
}

/// Runs the full derivation matrix — functional battery, service battery,
/// and the web/mail/compile workloads, on both images — and returns the
/// per-binary allowlists, sorted by binary path. The workloads get a
/// fresh boot per image: the service battery already binds the
/// well-known mail/web ports, so the two slices cannot share one.
pub fn derive_profiles() -> Vec<ProfileSpec> {
    let recorder = ProfileRecorder::new();
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let mut f = fixture(mode);
        f.sys
            .kernel
            .register_interceptor(Box::new(recorder.clone()));
        let _ = run_functional_suite(&mut f.sys);
        let _ = run_service_suite(&mut f.sys);
        let mut w = fixture(mode);
        w.sys
            .kernel
            .register_interceptor(Box::new(recorder.clone()));
        run_profiled_workloads(&mut w).expect("profiled workloads run unconfined");
    }
    recorder.specs()
}

/// Percent of the ABI's [`Syscall::COUNT`] variants a profile reaches.
pub fn reachable_pct(spec: &ProfileSpec) -> f64 {
    spec.allow.len() as f64 / Syscall::COUNT as f64 * 100.0
}

/// Mean reachable percentage across profiles (empty -> 0).
pub fn average_pct(specs: &[ProfileSpec]) -> f64 {
    if specs.is_empty() {
        return 0.0;
    }
    specs.iter().map(reachable_pct).sum::<f64>() / specs.len() as f64
}

/// Renders the derived profiles as a `seccomp_profiles/v1` document
/// (hand-rolled JSON, one `binaries` entry per profile in ABI-name order,
/// plus the aggregate attack-surface number the acceptance gate checks).
pub fn profiles_json(specs: &[ProfileSpec]) -> String {
    let binaries = specs
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("binary".into(), Value::Str(s.binary.clone())),
                ("default".into(), Value::Str(s.deny_action.render())),
                (
                    "syscalls".into(),
                    Value::Arr(s.allow.iter().map(|n| Value::Str(n.clone())).collect()),
                ),
                ("count".into(), Value::Num(s.allow.len() as f64)),
                ("pct".into(), Value::Num(reachable_pct(s))),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str(json::SECCOMP_SCHEMA.into())),
        ("abi_count".into(), Value::Num(Syscall::COUNT as f64)),
        ("binaries".into(), Value::Arr(binaries)),
        ("average_pct".into(), Value::Num(average_pct(specs))),
    ])
    .render()
}

/// Parses a `seccomp_profiles/v1` document back into loadable specs, via
/// the kernel's own profile-line grammar so both exchange forms agree on
/// what a valid profile is.
pub fn parse_profiles(text: &str) -> Result<Vec<ProfileSpec>, String> {
    json::validate_seccomp_profiles(text)?;
    let doc = json::parse(text)?;
    let mut lines = String::new();
    for b in doc
        .get("binaries")
        .and_then(Value::as_arr)
        .unwrap_or_default()
    {
        let binary = b.get("binary").and_then(Value::as_str).unwrap_or_default();
        let default = b.get("default").and_then(Value::as_str).unwrap_or_default();
        let allow: Vec<&str> = b
            .get("syscalls")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        lines.push_str(&format!(
            "profile {} default={} allow={}\n",
            binary,
            default,
            allow.join(",")
        ));
    }
    Seccomp::parse_profiles_text(&lines)
}

/// Renders the KASR-style attack-surface report: per binary, how much of
/// the 46-variant ABI stays reachable under its derived allowlist (an
/// unconfined binary reaches 100%), plus the average the acceptance
/// criterion bounds below 50%.
pub fn render_report(specs: &[ProfileSpec]) -> String {
    let mut s = String::new();
    s.push_str("== Attack-surface reduction (trace-derived seccomp allowlists) ==\n");
    s.push_str(&format!(
        "  ABI surface: {} typed syscall variants; an unconfined binary reaches 100%\n\n",
        Syscall::COUNT
    ));
    s.push_str(&format!(
        "  {:<36} {:>10} {:>12}\n",
        "Binary",
        format!("allowed/{}", Syscall::COUNT),
        "reachable %"
    ));
    for spec in specs {
        s.push_str(&format!(
            "  {:<36} {:>10} {:>12.1}\n",
            spec.binary,
            spec.allow.len(),
            reachable_pct(spec)
        ));
    }
    s.push_str(&format!(
        "\n  average reachable: {:.1}% of the ABI across {} profiled binaries (target <50%)\n",
        average_pct(specs),
        specs.len()
    ));
    s
}

/// What [`enforcement_check`] verified.
#[derive(Clone, Copy, Debug)]
pub struct EnforceSummary {
    /// Images the batteries ran on (1 in smoke mode, 2 in full).
    pub modes: usize,
    /// Battery steps compared against the unconfined baseline.
    pub steps: usize,
}

fn first_outcome_divergence(base: &[StepOutcome], enforced: &[StepOutcome]) -> String {
    for (i, (b, e)) in base.iter().zip(enforced.iter()).enumerate() {
        if b != e {
            return format!(
                "step {} ({}): baseline {:?}, enforced {:?}",
                i, b.name, b, e
            );
        }
    }
    format!(
        "step count changed: baseline {}, enforced {}",
        base.len(),
        enforced.len()
    )
}

/// Re-runs the derivation batteries with `specs` loaded and the kernel in
/// enforce mode, and fails if any step outcome diverges from an
/// unconfined baseline boot or if enforcement records a single violation
/// (zero violations proves the allowlists cover everything the workloads
/// dispatch, so enforcement cannot have perturbed them).
///
/// Smoke mode covers the functional battery on the Protego image only;
/// full mode covers both images and every profiled workload.
pub fn enforcement_check(specs: &[ProfileSpec], smoke: bool) -> Result<EnforceSummary, String> {
    let modes: &[SystemMode] = if smoke {
        &[SystemMode::Protego]
    } else {
        &[SystemMode::Legacy, SystemMode::Protego]
    };
    let enforced_fixture = |mode: SystemMode| -> Result<Fixture, String> {
        let mut f = fixture(mode);
        f.sys
            .kernel
            .seccomp
            .load_profiles(specs)
            .map_err(|e| format!("profiles failed to load: {}", e))?;
        f.sys.kernel.seccomp.set_mode(SeccompMode::Enforce);
        f.sys.attach_seccomp();
        Ok(f)
    };
    let mut steps = 0;
    for &mode in modes {
        let mut base = fixture(mode);
        let mut base_outcomes = run_functional_suite(&mut base.sys);
        if !smoke {
            base_outcomes.extend(run_service_suite(&mut base.sys));
        }

        let mut enf = enforced_fixture(mode)?;
        let mut enf_outcomes = run_functional_suite(&mut enf.sys);
        if !smoke {
            enf_outcomes.extend(run_service_suite(&mut enf.sys));
            // The workloads mirror the derivation's fresh-boot split;
            // their observable gate is the violation counter below.
            let mut w = enforced_fixture(mode)?;
            run_profiled_workloads(&mut w)
                .map_err(|e| format!("{:?} workload run failed under enforcement: {}", mode, e))?;
            let violations = w.sys.kernel.seccomp.total_violations();
            if violations > 0 {
                return Err(format!(
                    "{:?} workload run recorded {} violation(s) under enforcement",
                    mode, violations
                ));
            }
        }

        if base_outcomes != enf_outcomes {
            return Err(format!(
                "{:?} battery regressed under enforcement: {}",
                mode,
                first_outcome_divergence(&base_outcomes, &enf_outcomes)
            ));
        }
        let violations = enf.sys.kernel.seccomp.total_violations();
        if violations > 0 {
            let first: Vec<String> = enf
                .sys
                .kernel
                .seccomp
                .violations()
                .iter()
                .take(5)
                .map(|v| format!("{} by {}", v.syscall, v.binary.as_str()))
                .collect();
            return Err(format!(
                "{:?} run recorded {} violation(s) under enforcement; first: {}",
                mode,
                violations,
                first.join(", ")
            ));
        }
        steps += enf_outcomes.len();
    }
    Ok(EnforceSummary {
        modes: modes.len(),
        steps,
    })
}

/// The derived profiles in the kernel's own line grammar — what an admin
/// would write to `/proc/seccomp/profiles` to load them by hand.
pub fn profiles_proc_text(specs: &[ProfileSpec]) -> String {
    let mut s = String::new();
    for spec in specs {
        s.push_str(&render_profile_line(spec));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ProfileSpec> {
        vec![
            ProfileSpec::allowing("/bin/ping", &["socket", "sendto", "close", "getuid"]),
            ProfileSpec::allowing("/bin/sh", &["open", "read", "write", "close", "fork"]),
        ]
    }

    #[test]
    fn json_roundtrips_through_the_kernel_grammar() {
        let specs = sample();
        let text = profiles_json(&specs);
        let parsed = parse_profiles(&text).expect("self-emitted document parses");
        assert_eq!(parsed.len(), specs.len());
        for (a, b) in parsed.iter().zip(specs.iter()) {
            assert_eq!(a.binary, b.binary);
            assert_eq!(a.allow, b.allow);
            assert_eq!(a.deny_action, b.deny_action);
        }
    }

    #[test]
    fn report_carries_the_aggregate_number() {
        let specs = sample();
        let report = render_report(&specs);
        assert!(report.contains("/bin/ping"));
        assert!(report.contains("average reachable"));
        let avg = average_pct(&specs);
        assert!(avg > 0.0 && avg < 50.0, "avg {}", avg);
    }

    #[test]
    fn proc_text_loads_into_a_fresh_kernel() {
        let specs = sample();
        let text = profiles_proc_text(&specs);
        let parsed = Seccomp::parse_profiles_text(&text).expect("grammar roundtrip");
        assert_eq!(parsed.len(), specs.len());
    }

    // The committed allowlists must cover the web and mail drivers the
    // end-to-end benchmark and the shared-kernel stress test run: a
    // filter derived from any other workload fails them with EPERM.
    #[test]
    fn committed_profiles_enforce_cleanly_over_web_and_mail() {
        let specs = parse_profiles(include_str!("../../../SECCOMP_PROFILES.json"))
            .expect("committed profiles parse");
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut sys = userland::boot(mode);
            sys.kernel.seccomp.load_profiles(&specs).unwrap();
            sys.kernel.seccomp.set_mode(SeccompMode::Enforce);
            sys.attach_seccomp();
            let web = workload::start_web_service(&mut sys).expect("httpd starts");
            let mta = workload::start_mail_service(&mut sys).expect("exim4 starts");
            let client = workload::client_session(&mut sys).expect("client login");
            for i in 0..4 {
                let rcpt = if i % 2 == 0 { "alice" } else { "bob" };
                let mail = workload::mail_delivery(&mut sys, client, mta, rcpt, "body");
                assert_eq!(mail, Ok(()), "{:?} mail delivery {}", mode, i);
                let web = workload::web_request(&mut sys, client, web);
                assert_eq!(web, Ok(()), "{:?} web request {}", mode, i);
            }
            workload::drain_spools(&mut sys, mta);
            let violations: Vec<String> = sys
                .kernel
                .seccomp
                .violations()
                .iter()
                .map(|v| format!("{} by {}", v.syscall, v.binary.as_str()))
                .collect();
            assert!(violations.is_empty(), "{:?}: {:?}", mode, violations);
        }
    }

    // The full derivation + enforcement matrix is exercised by
    // `tables seccomp-derive` in ci.sh; here a trimmed single-mode pass
    // proves the pipeline wiring (record -> specs -> enforce) end to end.
    #[test]
    fn functional_battery_derives_and_enforces_on_protego() {
        let recorder = ProfileRecorder::new();
        let mut f = fixture(SystemMode::Protego);
        f.sys
            .kernel
            .register_interceptor(Box::new(recorder.clone()));
        let baseline = run_functional_suite(&mut f.sys);
        let specs = recorder.specs();
        assert!(!specs.is_empty(), "battery must profile some binaries");

        let mut enf = fixture(SystemMode::Protego);
        enf.sys.kernel.seccomp.load_profiles(&specs).unwrap();
        enf.sys.kernel.seccomp.set_mode(SeccompMode::Enforce);
        enf.sys.attach_seccomp();
        let outcomes = run_functional_suite(&mut enf.sys);
        assert_eq!(baseline, outcomes, "battery must pass under enforcement");
        assert_eq!(enf.sys.kernel.seccomp.total_violations(), 0);
    }
}

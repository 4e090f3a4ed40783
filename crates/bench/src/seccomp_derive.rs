//! The auto-seccomp derivation pipeline (`tables seccomp-derive`).
//!
//! Runs the full functional + service batteries and the web/mail/compile
//! workloads on both images under a
//! [`ProfileRecorder`], attributing
//! every dispatched call to the calling task's binary, and unions the
//! observed reach sets into per-binary allowlist
//! [`ProfileSpec`]s — the approach of
//! Canella et al.'s trace-based seccomp filter generation, applied to the
//! simulated typed ABI ([`Syscall::COUNT`] variants).
//!
//! The derived profiles are exchanged as the committed
//! `SECCOMP_PROFILES.json` (schema [`SECCOMP_SCHEMA`]): written by
//! [`to_json`], read straight back into specs by [`from_json`], judged by
//! [`check`], and verified by [`enforcement_check`]: the same batteries
//! re-run with the profiles loaded and the kernel in enforce mode must
//! reproduce the baseline outcomes with zero recorded violations.
//!
//! Every workload here uses *fixed* operation counts — derivation is a
//! coverage question, not a timing one — so a re-derivation reproduces the
//! committed JSON byte-for-byte and `ci.sh` can use plain text equality as
//! its staleness check.

use crate::json::{self, Value};
use crate::{fixture, Fixture};
use sim_kernel::error::KResult;
use sim_kernel::seccomp::{Action, ProfileRecorder, ProfileSpec, SeccompMode};
use sim_kernel::syscall::Syscall;
use std::collections::BTreeSet;
use userland::suite::{run_functional_suite, run_service_suite, StepOutcome};
use userland::workload;
use userland::SystemMode;

/// The schema tag of committed `SECCOMP_PROFILES.json` documents.
pub const SECCOMP_SCHEMA: &str = "seccomp_profiles/v1";

/// The acceptance ceiling on the average per-binary ABI reachability of
/// a profile set, in percent.
pub const SECCOMP_AVG_REACHABLE_PCT: f64 = 50.0;

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
    workload::compile(&mut f.sys, f.user, COMPILE_UNITS)?;
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

/// Renders profiles as a `seccomp_profiles/v1` document (compact, no
/// trailing newline): one `binaries` entry per profile, each with its
/// `count` and `pct` of the ABI, plus the `average_pct` that [`check`]
/// bounds.
pub fn to_json(specs: &[ProfileSpec]) -> String {
    let binary = |s: &ProfileSpec| {
        Value::Obj(vec![
            ("binary".into(), Value::Str(s.binary.clone())),
            ("default".into(), Value::Str(s.deny_action.render())),
            (
                "syscalls".into(),
                Value::Arr(s.allow.iter().cloned().map(Value::Str).collect()),
            ),
            ("count".into(), Value::Num(s.allow.len() as f64)),
            ("pct".into(), Value::Num(reachable_pct(s))),
        ])
    };
    Value::Obj(vec![
        ("schema".into(), Value::Str(SECCOMP_SCHEMA.into())),
        ("abi_count".into(), Value::Num(Syscall::COUNT as f64)),
        (
            "binaries".into(),
            Value::Arr(specs.iter().map(binary).collect()),
        ),
        ("average_pct".into(), Value::Num(average_pct(specs))),
    ])
    .render()
}

/// Decodes a `seccomp_profiles/v1` document straight into specs: the
/// schema tag, `abi_count` matching the typed ABI, then per entry the
/// `binary`, the `default` action ([`Action::parse`]) and
/// the `syscalls` list, with `count` and `pct` consistent with that list
/// and `average_pct` with the per-binary percentages (to 0.05 points).
/// Names, duplicates and the ceiling are [`check`]'s.
pub fn from_json(text: &str) -> Result<Vec<ProfileSpec>, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {}", e))?;
    let schema = doc.field("schema", Value::as_str)?;
    if schema != SECCOMP_SCHEMA {
        return Err(format!(
            "schema {:?}, expected {:?}",
            schema, SECCOMP_SCHEMA
        ));
    }
    let abi = doc.field("abi_count", Value::as_u64)?;
    if abi != Syscall::COUNT as u64 {
        return Err(format!(
            "abi_count {} does not match the {}-variant typed ABI",
            abi,
            Syscall::COUNT
        ));
    }
    let names = |v: &Value| -> Option<Vec<String>> {
        let names = v.as_arr()?.iter().map(|n| n.as_str().map(String::from));
        names.collect()
    };
    // One `binaries` entry, with the `pct` it reports.
    let entry = |b: &Value| -> Result<(ProfileSpec, f64), String> {
        let spec = ProfileSpec {
            binary: b.field("binary", Value::as_str)?.to_string(),
            allow: b.field("syscalls", names)?,
            deny_action: b.field("default", Value::as_str).and_then(Action::parse)?,
        };
        let (count, listed) = (b.field("count", Value::as_u64)?, spec.allow.len());
        let fail = |e: String| Err(format!("profile {:?}: {}", spec.binary, e));
        if count != listed as u64 {
            return fail(format!(
                "count {} disagrees with {} listed syscalls",
                count, listed
            ));
        }
        let (pct, expected) = (b.field("pct", Value::as_f64)?, reachable_pct(&spec));
        if (pct - expected).abs() > 0.05 {
            return fail(format!(
                "pct {:.3} inconsistent with count {} of {} ({:.3})",
                pct, count, abi, expected
            ));
        }
        Ok((spec, pct))
    };
    let entries = doc.items("binaries", entry)?;
    let average = doc.field("average_pct", Value::as_f64)?;
    let expected = entries.iter().map(|(_, pct)| pct).sum::<f64>() / entries.len() as f64;
    if (average - expected).abs() > 0.05 {
        return Err(format!(
            "average_pct {:.3} inconsistent with the per-binary percentages ({:.3})",
            average, expected
        ));
    }
    Ok(entries.into_iter().map(|(spec, _)| spec).collect())
}

/// Judges a profile set and returns every failure, each naming its
/// profile: at least one profile, non-empty and unique binary paths, a
/// default action other than `allow`, duplicate-free allowlists of real
/// ABI syscall names, and an average reachability under
/// [`SECCOMP_AVG_REACHABLE_PCT`] — the measured attack-surface-reduction
/// acceptance gate.
pub fn check(specs: &[ProfileSpec]) -> Vec<String> {
    let mut failures = Vec::new();
    if specs.is_empty() {
        failures.push("\"binaries\" array is empty (nothing was profiled)".to_string());
    }
    let mut binaries = BTreeSet::new();
    for spec in specs {
        let ctx = format!("profile {:?}", spec.binary);
        if spec.binary.is_empty() {
            failures.push(format!("{}: empty binary path", ctx));
        }
        if !binaries.insert(&spec.binary) {
            failures.push(format!("{}: duplicate binary entry", ctx));
        }
        if spec.deny_action == Action::Allow {
            failures.push(format!("{}: default action allow confines nothing", ctx));
        }
        let mut calls = BTreeSet::new();
        for name in &spec.allow {
            if Syscall::name_index(name).is_none() {
                failures.push(format!("{}: unknown syscall name {:?}", ctx, name));
            }
            if !calls.insert(name) {
                failures.push(format!("{}: duplicate syscall {:?}", ctx, name));
            }
        }
    }
    let average = average_pct(specs);
    if average >= SECCOMP_AVG_REACHABLE_PCT {
        failures.push(format!(
            "average_pct {:.1} is not under the {:.0}% attack-surface ceiling",
            average, SECCOMP_AVG_REACHABLE_PCT
        ));
    }
    failures
}

/// Renders the KASR-style attack-surface report: per binary, how much of
/// the typed ABI ([`Syscall::COUNT`] variants) stays reachable under its derived allowlist (an
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

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::seccomp::Seccomp;

    /// The committed document decodes, re-renders byte for byte (so the
    /// specs drop no field), passes every check, and its report carries
    /// the aggregate number.
    #[test]
    fn committed_document_round_trips_and_passes_check() {
        let text = include_str!("../../../SECCOMP_PROFILES.json");
        let specs = from_json(text).expect("committed document decodes");
        assert_eq!(to_json(&specs) + "\n", text);
        assert_eq!(check(&specs), Vec::<String>::new());
        let report = render_report(&specs);
        let average = format!("average reachable: {:.1}%", average_pct(&specs));
        assert!(report.contains("/bin/ping") && report.contains(&average));
    }

    fn valid_doc() -> String {
        r#"{
          "schema": "seccomp_profiles/v1",
          "abi_count": 45,
          "binaries": [
            {"binary":"/bin/ping","default":"deny(EPERM)",
             "syscalls":["socket","sendto","close","getuid"],"count":4,"pct":8.88888888888889},
            {"binary":"/bin/sh","default":"deny(EPERM)",
             "syscalls":["open","read","write","close","fork"],"count":5,"pct":11.11111111111111}
          ],
          "average_pct": 10.0
        }"#
        .to_string()
    }

    /// The one failure `check` reports on a document that decodes.
    fn only_failure(text: &str) -> String {
        let failures = check(&from_json(text).expect("decodes"));
        assert_eq!(failures.len(), 1, "{:?}", failures);
        failures[0].clone()
    }

    #[test]
    fn check_rejects_bad_names_duplicates_and_the_ceiling() {
        let good = check(&from_json(&valid_doc()).unwrap());
        assert_eq!(good, Vec::<String>::new());
        let bad_name = only_failure(&valid_doc().replace("\"sendto\"", "\"frobnicate\""));
        assert!(bad_name.contains("/bin/ping") && bad_name.contains("frobnicate"));
        let dup_call = only_failure(&valid_doc().replace("\"sendto\"", "\"socket\""));
        assert!(dup_call.contains("duplicate syscall \"socket\""));
        let allow_default = valid_doc().replacen("\"deny(EPERM)\"", "\"allow\"", 1);
        assert!(only_failure(&allow_default).contains("default action allow"));
        let dup_bin = only_failure(&valid_doc().replace("/bin/sh", "/bin/ping"));
        assert!(dup_bin.contains("duplicate binary"), "{}", dup_bin);
        // A consistent document whose single profile reaches 30 of the 45
        // calls of the ABI averages 67% — over the 50% attack-surface
        // ceiling.
        let wide_open = to_json(&[ProfileSpec::allowing("/bin/wide", &Syscall::NAMES[..30])]);
        assert!(only_failure(&wide_open).contains("ceiling"));
    }

    #[test]
    fn from_json_rejects_inconsistent_counts() {
        let err = |text: &str| from_json(text).unwrap_err();
        let wrong_count = err(&valid_doc().replace("\"count\":4", "\"count\":6"));
        assert!(wrong_count.contains("/bin/ping") && wrong_count.contains("disagrees"));
        let wrong_abi = err(&valid_doc().replace("\"abi_count\": 45", "\"abi_count\": 64"));
        assert!(wrong_abi.contains("typed ABI"), "{}", wrong_abi);
        let wrong_avg = err(&valid_doc().replace("\"average_pct\": 10.0", "\"average_pct\": 20.0"));
        assert!(wrong_avg.contains("average_pct") && wrong_avg.contains("inconsistent"));
        assert!(err(&valid_doc().replace("\"deny(EPERM)\"", "\"deny\"")).contains("bad action"));
        assert!(err("not json").contains("not valid JSON"));
        assert!(err(&valid_doc().replace("seccomp_profiles/v1", "v0")).contains("schema"));
    }

    // The committed allowlists must cover the web and mail drivers the
    // end-to-end benchmark and the shared-kernel stress test run: a
    // filter derived from any other workload fails them with EPERM.
    #[test]
    fn committed_profiles_enforce_cleanly_over_web_and_mail() {
        let specs = from_json(include_str!("../../../SECCOMP_PROFILES.json"))
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

    /// One call per ABI variant, in [`Syscall::index`] order.
    fn one_call_per_index() -> Vec<Syscall<'static>> {
        use sim_kernel::cred::{Gid, Uid};
        use sim_kernel::net::{Domain, Ipv4, Packet, SockType};
        use sim_kernel::syscall::{IoctlCmd, NetfilterOp, OpenFlags, RouteOp, Whence};
        use sim_kernel::task::NsKind;
        use sim_kernel::vfs::Mode;
        let path = || "/tmp/x";
        let calls = vec![
            Syscall::Open {
                path: path(),
                flags: OpenFlags::read_only(),
            },
            Syscall::Close { fd: 3 },
            Syscall::Read { fd: 3, count: 1 },
            Syscall::Write { fd: 3, data: &[] },
            Syscall::Lseek {
                fd: 3,
                offset: 0,
                whence: Whence::Set,
            },
            Syscall::Stat { path: path() },
            Syscall::Chmod {
                path: path(),
                mode: Mode(0o644),
            },
            Syscall::Chown {
                path: path(),
                uid: None,
                gid: None,
            },
            Syscall::Mkdir {
                path: path(),
                mode: Mode(0o755),
            },
            Syscall::Unlink { path: path() },
            Syscall::Rmdir { path: path() },
            Syscall::Rename {
                from: path(),
                to: path(),
            },
            Syscall::Symlink {
                target: path(),
                linkpath: path(),
            },
            Syscall::Chdir { path: path() },
            Syscall::Readdir { path: path() },
            Syscall::Pipe,
            Syscall::Setuid { uid: Uid(0) },
            Syscall::Seteuid { uid: Uid(0) },
            Syscall::Setgid { gid: Gid(0) },
            Syscall::Setgroups { groups: &[] },
            Syscall::Getuid,
            Syscall::Geteuid,
            Syscall::Getgid,
            Syscall::Ioctl {
                fd: 3,
                cmd: IoctlCmd::Eject,
            },
            Syscall::Mount {
                source: path(),
                target: path(),
                fstype: "tmpfs",
                options: "",
            },
            Syscall::Umount { target: path() },
            Syscall::Socket {
                domain: Domain::Inet,
                stype: SockType::Stream,
                protocol: 0,
            },
            Syscall::Bind {
                fd: 3,
                addr: Ipv4::ANY,
                port: 80,
            },
            Syscall::Listen { fd: 3 },
            Syscall::Connect {
                fd: 3,
                addr: Ipv4::LOOPBACK,
                port: 80,
            },
            Syscall::Accept { fd: 3 },
            Syscall::Send { fd: 3, data: &[] },
            Syscall::Recv { fd: 3, max: 1 },
            Syscall::RecvPacket { fd: 3 },
            Syscall::Sendto {
                fd: 3,
                addr: Ipv4::LOOPBACK,
                port: 53,
                data: &[],
            },
            Syscall::SendPacket {
                fd: 3,
                pkt: Packet::echo_request(Ipv4::LOOPBACK, Ipv4::LOOPBACK, 1, 1, Uid(0)),
            },
            Syscall::Socketpair,
            Syscall::Netfilter {
                op: NetfilterOp::Flush,
            },
            Syscall::NetfilterList,
            Syscall::IoctlRoute {
                op: RouteOp::Del {
                    dest: Ipv4::ANY,
                    prefix: 0,
                },
            },
            Syscall::Fork,
            Syscall::Execve { path: path() },
            Syscall::Unshare {
                kind: NsKind::Mount,
            },
            Syscall::Exit { status: 0 },
            Syscall::Wait {
                child: sim_kernel::Pid(2),
            },
        ];
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(c.index(), i, "{:?}", c);
        }
        assert_eq!(calls.len(), Syscall::COUNT);
        calls
    }

    // Differential oracle for the thread-local selection memo against the
    // allow lists themselves: every committed profile plus one unprofiled
    // binary, one call per ABI variant, in enforce mode. Each binary's turn checks two
    // calls, so the memo alternates a miss (the binary changed) and a hit.
    // Midway the profiles reload with every allow list complemented,
    // between the two calls of one turn, so a memo entry that survived the
    // reload would answer the second call wrongly.
    #[test]
    fn memo_denies_exactly_the_calls_outside_each_committed_allow_list() {
        use sim_kernel::cred::Uid;
        use sim_kernel::syscall::Verdict;
        use sim_kernel::task::TaskIdentity;
        use sim_kernel::vfs::Name;
        let committed = from_json(include_str!("../../../SECCOMP_PROFILES.json"))
            .expect("committed profiles parse");
        let complemented: Vec<ProfileSpec> = committed
            .iter()
            .map(|p| ProfileSpec {
                allow: Syscall::NAMES
                    .iter()
                    .filter(|n| !p.allow.iter().any(|a| a == *n))
                    .map(|n| n.to_string())
                    .collect(),
                ..p.clone()
            })
            .collect();
        let unprofiled = "/usr/bin/unprofiled";
        let mut binaries: Vec<&str> = committed.iter().map(|p| p.binary.as_str()).collect();
        assert!(!binaries.contains(&unprofiled));
        binaries.push(unprofiled);
        let calls = one_call_per_index();
        let s = Seccomp::new();
        s.set_mode(SeccompMode::Enforce);
        let mut loaded = &committed;
        s.load_profiles(loaded).unwrap();
        for i in 0..Syscall::COUNT {
            for (n, &binary) in binaries.iter().enumerate() {
                let task = TaskIdentity {
                    pid: sim_kernel::Pid(100 + n as u32),
                    uid: Uid(1000),
                    euid: Uid(1000),
                    binary: Name::intern(binary),
                    alive: true,
                };
                for (j, call) in [&calls[i], &calls[(i + 1) % Syscall::COUNT]]
                    .into_iter()
                    .enumerate()
                {
                    if (i, n, j) == (Syscall::COUNT / 2, 0, 1) {
                        loaded = &complemented;
                        s.load_profiles(loaded).unwrap();
                    }
                    let want = match loaded.iter().find(|p| p.binary == binary) {
                        Some(p) if !p.allow.iter().any(|a| a == call.name()) => {
                            Verdict::Deny(p.deny_action.errno().expect("a deny action"))
                        }
                        _ => Verdict::Continue,
                    };
                    assert_eq!(s.check(&task, call, 0), want, "{} {}", binary, call.name());
                }
            }
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

//! System-level interceptor properties over the full functional battery:
//! a seeded 1% errno storm never panics and never produces a privileged
//! side effect, and a recorded syscall trace replays byte-identically on
//! a fresh boot.

use protego::kernel::syscall::FaultConfig;
use protego::kernel::trace::{Trace, TraceReplayer};
use protego::userland::suite::run_functional_suite;
use protego::userland::{boot, System, SystemMode};

/// Escalation artifacts that only an exploit payload (or a corrupted
/// kernel) would produce — the functional battery never creates these.
fn assert_no_privileged_effects(sys: &mut System) {
    let root = sys.init_pid();
    let shadow = sys
        .kernel
        .read_to_string(root, "/etc/shadow")
        .expect("shadow must survive the storm");
    assert!(
        !shadow.contains("haxor"),
        "rogue account appeared in /etc/shadow under fault injection"
    );
    if let Ok(st) = sys.kernel.sys_stat(root, "/tmp/rootshell") {
        assert_eq!(
            st.mode.0 & 0o4000,
            0,
            "setuid-root shell planted under fault injection"
        );
    }
    assert!(
        sys.kernel.sys_stat(root, "/lib/modules/evil.ko").is_err(),
        "rootkit module appeared under fault injection"
    );
}

/// A seeded 1-in-100 errno storm across the whole functional battery:
/// the run completes (no panic anywhere in kernel or userland), faults
/// demonstrably fired, no privileged artifact appears, and the same seed
/// reproduces the exact same step outcomes.
#[test]
fn errno_storm_over_functional_battery_is_safe_and_deterministic() {
    let storm_run = |seed: u64| {
        let mut sys = boot(SystemMode::Protego);
        let stats = sys.attach_fault_injector(FaultConfig::storm(seed, 100));
        let outcomes = run_functional_suite(&mut sys);
        let s = stats.lock().unwrap();
        assert!(s.seen > 0, "the battery must route through dispatch");
        assert!(
            s.injected > 0,
            "a 1% storm over the whole battery must fire at least once"
        );
        let (seen, injected) = (s.seen, s.injected);
        drop(s);
        assert_no_privileged_effects(&mut sys);
        (outcomes, seen, injected)
    };

    let (a, seen_a, injected_a) = storm_run(0xBADF00D);
    let (b, seen_b, injected_b) = storm_run(0xBADF00D);
    assert_eq!(a, b, "same seed must reproduce the same step outcomes");
    assert_eq!((seen_a, injected_a), (seen_b, injected_b));

    // A clean (stormless) run still passes the same artifact audit, and
    // differs from the stormy one only in outcomes, never in safety.
    let mut clean = boot(SystemMode::Protego);
    let clean_outcomes = run_functional_suite(&mut clean);
    assert_no_privileged_effects(&mut clean);
    assert_eq!(clean_outcomes.len(), a.len(), "same battery shape");
}

/// Record the dispatched syscall stream of a full functional-suite run,
/// serialize it, then replay a fresh boot against it: zero divergences,
/// and the re-recorded stream is byte-identical.
#[test]
fn functional_battery_trace_replays_deterministically() {
    // Pass 1: record.
    let mut sys = boot(SystemMode::Protego);
    let trace = sys.attach_recorder();
    let outcomes1 = run_functional_suite(&mut sys);
    let serialized = trace.lock().unwrap().render();
    assert!(
        trace.lock().unwrap().len() > 100,
        "the battery should dispatch plenty of syscalls, got {}",
        trace.lock().unwrap().len()
    );

    // Pass 2: replay a fresh boot against the recorded stream.
    let expected = Trace::parse(&serialized).expect("recorded trace must parse");
    let replayer = TraceReplayer::new(expected);
    let divergences = replayer.divergences();
    let mut sys2 = boot(SystemMode::Protego);
    sys2.kernel.register_interceptor(Box::new(replayer));
    let trace2 = sys2.attach_recorder();
    let outcomes2 = run_functional_suite(&mut sys2);

    assert_eq!(
        outcomes1, outcomes2,
        "step outcomes must replay identically"
    );
    let divs = divergences.lock().unwrap();
    assert!(
        divs.is_empty(),
        "replay diverged at {} point(s); first: {}",
        divs.len(),
        divs[0]
    );
    assert_eq!(
        serialized,
        trace2.lock().unwrap().render(),
        "re-recorded stream must be byte-identical"
    );
}

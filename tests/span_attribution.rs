//! Span attribution over the functional battery: with span timing on,
//! Σ self time over the named kernel pathways must cover at least 95% of
//! dispatched wall time on both images, and the battery plus one web and
//! one mail request must reach the pathways the attribution names.
//!
//! The end-to-end benchmark's traced run checks the same floor over its
//! workloads, rooted at the request; it does not run the battery.

use sim_kernel::trace::span;
use sim_kernel::trace::Pathway;
use userland::suite::run_functional_suite;
use userland::workload;
use userland::{boot, SystemMode};

/// Share of root-span wall time that must land in named pathways.
const MIN_ATTRIBUTED_PCT: f64 = 95.0;

#[test]
fn battery_and_workloads_attribute_dispatched_time_on_both_images() {
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let mut sys = boot(mode);
        let web = workload::start_web_service(&mut sys).expect("web service");
        let mta = workload::start_mail_service(&mut sys).expect("mail service");
        let client = workload::client_session(&mut sys).expect("client login");

        // Timing brackets exactly the measured work: boot, service start
        // and the login stay out of the histograms.
        span::reset();
        span::set_enabled(true);
        run_functional_suite(&mut sys);
        let web_op = workload::web_request(&mut sys, client, web);
        let mail_op = workload::mail_delivery(&mut sys, client, mta, "bob", "span body");
        span::set_enabled(false);
        let timing = span::snapshot();
        span::reset();

        assert_eq!(web_op, Ok(()), "{:?}", mode);
        assert_eq!(mail_op, Ok(()), "{:?}", mode);
        assert!(timing.root_spans > 0, "{:?}: no root spans", mode);
        let pct = timing.attributed_pct();
        assert!(
            pct >= MIN_ATTRIBUTED_PCT,
            "{:?}: only {:.2}% of dispatched time attributed",
            mode,
            pct
        );
        // The mix exercises fs + net bodies and VFS resolution on both
        // images.
        for p in [
            Pathway::Dispatch,
            Pathway::SysFs,
            Pathway::SysNet,
            Pathway::VfsResolve,
        ] {
            assert!(
                timing.hist(p).count > 0,
                "{:?}: no {} spans",
                mode,
                p.name()
            );
        }
        // Protego runs its LSM hooks; the attribution must see them.
        if mode == SystemMode::Protego {
            assert!(timing.hist(Pathway::LsmFileOpen).count > 0);
        }
    }
}

//! Each workload exercises the mechanism it was chosen for.

use e2e_bench::{check_parallelism, run, Workload};

#[test]
fn web_hits_the_dcache_and_shared_mix_invalidates_it() {
    let web = run(Workload::Web, 1, 0.2, true).expect("web runs");
    assert_eq!(web.get("vfs.dcache_hit_ratio"), Some(1.0));
    assert_eq!(web.get("vfs.dcache_invalidations_per_op"), Some(0.0));

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if check_parallelism(Workload::SharedMix, cpus).is_err() {
        return;
    }
    let mix = run(Workload::SharedMix, 1, 0.2, true).expect("shared_mix runs");
    for image in ["", "legacy."] {
        let ratio = mix.get(&format!("{image}vfs.dcache_hit_ratio")).unwrap();
        assert!(ratio < 1.0, "{image}: {ratio}");
        let inval = mix
            .get(&format!("{image}vfs.dcache_invalidations_per_op"))
            .unwrap();
        assert!(inval > 0.0, "{image}: {inval}");
    }
}

#[test]
fn shared_mix_refuses_to_oversubscribe() {
    let err = check_parallelism(Workload::SharedMix, 1).unwrap_err();
    assert!(err.contains("2 worker threads"), "{err}");
    assert!(check_parallelism(Workload::SharedMix, 2).is_ok());
    for w in [Workload::Web, Workload::Mail, Workload::Privops] {
        assert!(check_parallelism(w, 1).is_ok());
    }
}

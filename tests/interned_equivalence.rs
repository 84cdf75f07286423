//! The 100×-scale tentpole's correctness contract: the interned-ID +
//! streaming-fold pipeline must stay **byte-identical** — by
//! `canonical_dump()` — across thread counts and fault plans, and the
//! `FlowFold` traffic passes must be thread-count invariant under a
//! faulted NetFlow export.
//!
//! Matrix: small preset × threads {1, 4} × faults {none, heavy}, plus a
//! `#[ignore]`d paper-preset variant at threads {1, 2, 4, 8} for the
//! full acceptance sweep.

use iotmap::faults::FaultPlan;
use iotmap::prelude::*;

fn dump(config: &WorldConfig, faults: &FaultPlan, threads: usize) -> Vec<u8> {
    Pipeline::new(config.clone())
        .faults(faults.clone())
        .threads(threads)
        .run()
        .expect("pipeline")
        .canonical_dump()
}

#[test]
fn small_dump_is_thread_invariant_under_faults() {
    let config = WorldConfig::small(42);
    for faults in [FaultPlan::none(), FaultPlan::heavy()] {
        let serial = dump(&config, &faults, 1);
        let parallel = dump(&config, &faults, 4);
        assert_eq!(
            serial, parallel,
            "interned/streaming pipeline diverges at threads=4 (faults {faults:?})"
        );
    }
}

/// Both facade traffic passes under heavy NetFlow faults: threads 1 is
/// the serial export order, and the sharded folds at threads 4 must
/// reproduce it exactly.
#[test]
fn traffic_passes_are_thread_invariant_under_faults() {
    let artifacts = Pipeline::new(WorldConfig::small(42))
        .faults(FaultPlan::heavy())
        .run()
        .expect("pipeline");
    let period = artifacts.world.config.study_period;
    let passes = |threads| {
        with_threads(threads, || {
            let contacts = artifacts.contact_pass(period);
            let excluded = artifacts.excluded_lines(&contacts);
            let report = artifacts.analysis_pass(period, &excluded);
            (contacts, excluded, report)
        })
    };
    let (serial_contacts, serial_excluded, serial_report) = passes(1);
    assert!(!serial_contacts.is_empty());
    let (contacts, excluded, report) = passes(4);
    assert_eq!(
        contacts, serial_contacts,
        "contact pass diverges at threads=4"
    );
    assert_eq!(
        excluded, serial_excluded,
        "scanner exclusion diverges at threads=4"
    );
    assert_eq!(report, serial_report, "analysis pass diverges at threads=4");
}

#[test]
fn scaled_analysis_at_one_replica_matches_the_plain_pass() {
    let artifacts = Pipeline::new(WorldConfig::small(42))
        .run()
        .expect("pipeline");
    let period = artifacts.world.config.study_period;
    let contacts = artifacts.contact_pass(period);
    let excluded = artifacts.excluded_lines(&contacts);
    assert_eq!(
        artifacts.scaled_analysis_pass(period, 1, &excluded),
        artifacts.analysis_pass(period, &excluded),
        "replicas=1 must be byte-identical to the unreplicated pass"
    );
}

/// The full acceptance sweep: paper preset, threads 1/2/4/8. Run with
/// `cargo test --release -- --ignored interned_paper` (minutes).
#[test]
#[ignore = "paper preset: minutes of wall clock; run explicitly"]
fn interned_paper_dump_is_thread_invariant() {
    let config = WorldConfig::paper(42);
    let faults = FaultPlan::none();
    let serial = dump(&config, &faults, 1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            dump(&config, &faults, threads),
            "paper preset diverges at threads={threads}"
        );
    }
}

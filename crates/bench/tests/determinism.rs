//! Determinism of the paper artifacts whose trials fan out: the same seed
//! must produce byte-identical output at any thread count, on every run.
//!
//! This is the contract that lets `results/` be regenerated reproducibly
//! and lets CI diff the regenerated artifacts against the committed ones.

use lis_bench::paper::{self, ARTIFACTS};
use lis_bench::ExpOptions;

/// The artifacts whose trial loops run through `par_map`, with a small
/// trial count each. Every count is above `par_map`'s serial cutoff of two
/// items, so the four-thread render really fans out.
const FAN_OUT: [(&str, usize); 4] = [("table2", 6), ("fig16", 3), ("fig17", 3), ("crossval", 3)];

#[test]
fn fanned_out_artifacts_are_identical_at_one_and_four_threads() {
    for (name, trials) in FAN_OUT {
        let (_, render) = ARTIFACTS
            .iter()
            .find(|(artifact, _)| *artifact == name)
            .expect("a committed artifact");
        let opts = ExpOptions {
            trials,
            ..ExpOptions::default()
        };
        let serial = render(&opts, 1);
        assert_eq!(
            serial,
            render(&opts, 4),
            "{name}: the 4-thread run diverged from the serial run"
        );
        assert_eq!(serial, render(&opts, 4), "{name}: two 4-thread runs differ");
    }
}

/// The ablation fans out both of its trial loops; a small census cap keeps
/// its raw cycle enumeration cheap in a debug build.
#[test]
fn the_ablation_is_identical_at_one_and_four_threads() {
    let opts = ExpOptions {
        trials: 3,
        ..ExpOptions::default()
    };
    let serial = paper::ablation_capped(&opts, 1, 20_000);
    assert_eq!(serial, paper::ablation_capped(&opts, 4, 20_000));
    assert_eq!(serial, paper::ablation_capped(&opts, 4, 20_000));
    assert!(
        serial.contains("3 trials (raw census capped at 20000)"),
        "{serial}"
    );
}

#[test]
fn the_seed_reaches_the_sampled_systems() {
    // Different seeds must actually change the measurements (guards against
    // a derivation bug that ignores `opts.seed`).
    let a = paper::fig16(
        &ExpOptions {
            trials: 3,
            seed: 1,
            ..ExpOptions::default()
        },
        2,
    );
    let b = paper::fig16(
        &ExpOptions {
            trials: 3,
            seed: 99,
            ..ExpOptions::default()
        },
        2,
    );
    assert_ne!(a, b);
    assert_eq!(a.lines().count(), b.lines().count());
}

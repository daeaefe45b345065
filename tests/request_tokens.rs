//! Request tokens are durable identities: `RequestKind::token` is hashed
//! into the request half of every cache key, so it addresses the durable
//! store's entries and the gateway's replicas. The tokens below were
//! recorded from the decoder before the request options moved onto one
//! table; every envelope must keep decoding to the same token.

use lis_server::wire::{obj, Json};
use lis_server::RequestKind;
use lis_sweep::{CapacityAxis, SweepSpec};

/// `(route, options JSON, token)`: each route's defaults, each option set
/// alone, and the combinations the `lis` command tests lower to.
const PINS: &[(&str, &str, &str)] = &[
    // /analyze
    ("analyze", "null", "analyze:engine=howard"),
    ("analyze", "{}", "analyze:engine=howard"),
    ("analyze", r#"{"engine":"howard"}"#, "analyze:engine=howard"),
    ("analyze", r#"{"engine":"karp"}"#, "analyze:engine=karp"),
    ("analyze", r#"{"engine":"lawler"}"#, "analyze:engine=lawler"),
    ("analyze", r#"{"schedule":false}"#, "analyze:engine=howard"),
    (
        "analyze",
        r#"{"schedule":true}"#,
        "analyze:engine=howard:schedule=true",
    ),
    (
        "analyze",
        r#"{"burst":{}}"#,
        "analyze:engine=howard:burst=off100:on300:trials256:cycles4096:seed0",
    ),
    (
        "analyze",
        r#"{"burst":{"off_per_mille":150}}"#,
        "analyze:engine=howard:burst=off150:on300:trials256:cycles4096:seed0",
    ),
    (
        "analyze",
        r#"{"burst":{"on_per_mille":400}}"#,
        "analyze:engine=howard:burst=off100:on400:trials256:cycles4096:seed0",
    ),
    (
        "analyze",
        r#"{"burst":{"trials":96}}"#,
        "analyze:engine=howard:burst=off100:on300:trials96:cycles4096:seed0",
    ),
    (
        "analyze",
        r#"{"burst":{"cycles":2048}}"#,
        "analyze:engine=howard:burst=off100:on300:trials256:cycles2048:seed0",
    ),
    (
        "analyze",
        r#"{"burst":{"seed":11}}"#,
        "analyze:engine=howard:burst=off100:on300:trials256:cycles4096:seed11",
    ),
    (
        "analyze",
        r#"{"schedule":true,"burst":{"off_per_mille":100,"on_per_mille":300,"trials":16,"cycles":200,"seed":3}}"#,
        "analyze:engine=howard:schedule=true:burst=off100:on300:trials16:cycles200:seed3",
    ),
    (
        "analyze",
        r#"{"schedule":true,"burst":{"off_per_mille":100,"on_per_mille":300,"trials":16}}"#,
        "analyze:engine=howard:schedule=true:burst=off100:on300:trials16:cycles4096:seed0",
    ),
    (
        "analyze",
        r#"{"engine":"karp","schedule":true,"burst":{"off_per_mille":0,"on_per_mille":1000,"trials":4096,"cycles":1000000,"seed":9007199254740991}}"#,
        "analyze:engine=karp:schedule=true:burst=off0:on1000:trials4096:cycles1000000:seed9007199254740991",
    ),
    // /qs
    ("qs", "null", "qs:exact=false:engine=howard"),
    ("qs", r#"{"exact":false}"#, "qs:exact=false:engine=howard"),
    ("qs", r#"{"exact":true}"#, "qs:exact=true:engine=howard"),
    ("qs", r#"{"engine":"karp"}"#, "qs:exact=false:engine=karp"),
    ("qs", r#"{"engine":"lawler"}"#, "qs:exact=false:engine=lawler"),
    (
        "qs",
        r#"{"exact":true,"engine":"karp"}"#,
        "qs:exact=true:engine=karp",
    ),
    // /insert
    ("insert", "null", "insert:budget=2"),
    ("insert", r#"{"budget":0}"#, "insert:budget=0"),
    ("insert", r#"{"budget":1}"#, "insert:budget=1"),
    ("insert", r#"{"budget":16}"#, "insert:budget=16"),
    // /dot
    ("dot", "null", "dot:doubled=false"),
    ("dot", r#"{"doubled":false}"#, "dot:doubled=false"),
    ("dot", r#"{"doubled":true}"#, "dot:doubled=true"),
    // /sweep
    ("sweep", "null", "sweep:mode=analyze:engine=howard"),
    (
        "sweep",
        r#"{"mode":"analyze"}"#,
        "sweep:mode=analyze:engine=howard",
    ),
    (
        "sweep",
        r#"{"exact":true}"#,
        "sweep:mode=analyze:engine=howard",
    ),
    (
        "sweep",
        r#"{"mode":"qs"}"#,
        "sweep:mode=qs:exact=false:engine=howard",
    ),
    (
        "sweep",
        r#"{"mode":"qs","exact":true}"#,
        "sweep:mode=qs:exact=true:engine=howard",
    ),
    (
        "sweep",
        r#"{"engine":"karp"}"#,
        "sweep:mode=analyze:engine=karp",
    ),
    (
        "sweep",
        r#"{"capacities":[{"channel":1,"values":[1,2,3]}]}"#,
        "sweep:mode=analyze:engine=howard:cap[1]=1,2,3",
    ),
    (
        "sweep",
        r#"{"capacities":[{"channel":0,"values":[1,2]},{"channel":1,"values":[4]}]}"#,
        "sweep:mode=analyze:engine=howard:cap[0]=1,2:cap[1]=4",
    ),
    (
        "sweep",
        r#"{"budget":0}"#,
        "sweep:mode=analyze:engine=howard:budget=0",
    ),
    (
        "sweep",
        r#"{"budget":2}"#,
        "sweep:mode=analyze:engine=howard:budget=2",
    ),
    (
        "sweep",
        r#"{"stations":[[{"channel":0,"add":1}],[]]}"#,
        "sweep:mode=analyze:engine=howard:rs[0]=0x1:rs[1]=",
    ),
    (
        "sweep",
        r#"{"stations":[[{"channel":0,"add":1},{"channel":1,"add":2}]]}"#,
        "sweep:mode=analyze:engine=howard:rs[0]=0x1,1x2",
    ),
    (
        "sweep",
        r#"{"stalls":{"per_mille":[0,100]}}"#,
        "sweep:mode=analyze:engine=howard:stalls=trials=64:cycles=10000:seed=0:p=0,100",
    ),
    (
        "sweep",
        r#"{"stalls":{"per_mille":[50],"trials":32}}"#,
        "sweep:mode=analyze:engine=howard:stalls=trials=32:cycles=10000:seed=0:p=50",
    ),
    (
        "sweep",
        r#"{"stalls":{"per_mille":[50],"cycles":500}}"#,
        "sweep:mode=analyze:engine=howard:stalls=trials=64:cycles=500:seed=0:p=50",
    ),
    (
        "sweep",
        r#"{"stalls":{"per_mille":[50],"seed":7}}"#,
        "sweep:mode=analyze:engine=howard:stalls=trials=64:cycles=10000:seed=7:p=50",
    ),
    (
        "sweep",
        r#"{"bursts":{"off_per_mille":[0,150]}}"#,
        "sweep:mode=analyze:engine=howard:bursts=on=300:trials=64:cycles=10000:seed=0:off=0,150",
    ),
    (
        "sweep",
        r#"{"bursts":{"off_per_mille":[150],"on_per_mille":500}}"#,
        "sweep:mode=analyze:engine=howard:bursts=on=500:trials=64:cycles=10000:seed=0:off=150",
    ),
    (
        "sweep",
        r#"{"bursts":{"off_per_mille":[150],"trials":32}}"#,
        "sweep:mode=analyze:engine=howard:bursts=on=300:trials=32:cycles=10000:seed=0:off=150",
    ),
    (
        "sweep",
        r#"{"bursts":{"off_per_mille":[150],"cycles":400}}"#,
        "sweep:mode=analyze:engine=howard:bursts=on=300:trials=64:cycles=400:seed=0:off=150",
    ),
    (
        "sweep",
        r#"{"bursts":{"off_per_mille":[150],"seed":9}}"#,
        "sweep:mode=analyze:engine=howard:bursts=on=300:trials=64:cycles=10000:seed=9:off=150",
    ),
    // The `lis sweep` flag combinations of the command tests.
    (
        "sweep",
        r#"{"capacities":[{"channel":1,"values":[1,2,3]}],"budget":1}"#,
        "sweep:mode=analyze:engine=howard:cap[1]=1,2,3:budget=1",
    ),
    (
        "sweep",
        r#"{"mode":"qs","exact":true,"capacities":[{"channel":1,"values":[1,2]}]}"#,
        "sweep:mode=qs:exact=true:engine=howard:cap[1]=1,2",
    ),
    (
        "sweep",
        r#"{"stalls":{"per_mille":[0,100],"trials":64,"cycles":200}}"#,
        "sweep:mode=analyze:engine=howard:stalls=trials=64:cycles=200:seed=0:p=0,100",
    ),
    (
        "sweep",
        r#"{"capacities":[{"channel":1,"values":[1,2]}],"bursts":{"off_per_mille":[0,150],"on_per_mille":300,"trials":64,"cycles":200}}"#,
        "sweep:mode=analyze:engine=howard:cap[1]=1,2:bursts=on=300:trials=64:cycles=200:seed=0:off=0,150",
    ),
    (
        "sweep",
        r#"{"engine":"karp","mode":"qs","exact":true,"capacities":[{"channel":0,"values":[1,2]},{"channel":1,"values":[4]}],"budget":2}"#,
        "sweep:mode=qs:exact=true:engine=karp:cap[0]=1,2:cap[1]=4:budget=2",
    ),
    (
        "sweep",
        r#"{"bursts":{"off_per_mille":[0,100,250],"on_per_mille":500,"trials":32,"cycles":400,"seed":9}}"#,
        "sweep:mode=analyze:engine=howard:bursts=on=500:trials=32:cycles=400:seed=9:off=0,100,250",
    ),
    (
        "sweep",
        r#"{"capacities":[{"channel":1,"values":[1,2]}],"stalls":{"per_mille":[0,50],"trials":8,"cycles":100,"seed":1},"bursts":{"off_per_mille":[10],"on_per_mille":200,"trials":8,"cycles":100,"seed":1}}"#,
        "sweep:mode=analyze:engine=howard:cap[1]=1,2:stalls=trials=8:cycles=100:seed=1:p=0,50:bursts=on=200:trials=8:cycles=100:seed=1:off=10",
    ),
];

#[test]
fn every_pinned_envelope_decodes_to_its_recorded_token() {
    let mut wrong = Vec::new();
    for &(route, options, token) in PINS {
        let envelope = obj([
            ("netlist", Json::str("block A\n")),
            (
                "options",
                Json::parse(options).expect("pinned options parse"),
            ),
        ]);
        let got = match RequestKind::decode(route, &envelope) {
            Ok((_, kind)) => kind.token(),
            Err(e) => format!("<{e}>"),
        };
        if got != token {
            wrong.push(format!("({route:?}, {options:?}, {got:?})"));
        }
    }
    assert!(wrong.is_empty(), "tokens drifted:\n{}", wrong.join("\n"));
}

/// A sweep's cache key separates two netlists, and two specs over one
/// netlist.
#[test]
fn sweep_keys_separate_netlists_and_specs() {
    let (a, _, lower) = lis_core::figures::fig1();
    let (b, _, _) = lis_core::figures::fig6();
    let spec = SweepSpec::analyze();
    let mut spec2 = spec.clone();
    spec2.capacities.push(CapacityAxis {
        channel: lower.index(),
        values: vec![1, 2],
    });
    let key = |spec: &SweepSpec, sys| RequestKind::Sweep { spec: spec.clone() }.cache_key(sys);
    assert_ne!(key(&spec, &a), key(&spec, &b));
    assert_ne!(key(&spec, &a), key(&spec2, &a));
}

//! The in-process answer path against a live daemon.
//!
//! [`lis_server::answer`] is what the local `lis analyze|qs|insert|sweep`
//! commands print. For every netlist in `examples/netlists/` and every
//! route and option set below, error answers included, it must give the
//! status and body bytes a `lis-server` answers over TCP (for `/sweep`,
//! the whole NDJSON stream).

use std::path::Path;

use lis_server::wire::{obj, Json};
use lis_server::{answer, Client, Route, Server, ServerConfig};

/// `(route, options JSON)` pairs; `null` sends no options.
const CASES: [(Route, &str); 17] = [
    (Route::Analyze, "null"),
    (Route::Analyze, r#"{"schedule":true}"#),
    (
        Route::Analyze,
        r#"{"burst":{"off_per_mille":100,"on_per_mille":300,"trials":16,"cycles":200}}"#,
    ),
    (
        Route::Analyze,
        r#"{"burst":{"off_per_mille":100,"on_per_mille":300,"trials":5000}}"#,
    ),
    (Route::Analyze, r#"{"engine":"karp"}"#),
    (Route::Analyze, r#"{"engine":"dijkstra"}"#),
    (Route::Qs, "null"),
    (Route::Qs, r#"{"exact":true}"#),
    (Route::Insert, r#"{"budget":1}"#),
    (Route::Insert, r#"{"budget":2}"#),
    (Route::Insert, r#"{"budget":20}"#),
    (Route::Dot, r#"{"doubled":true}"#),
    (
        Route::Sweep,
        r#"{"capacities":[{"channel":1,"values":[1,2]}],"budget":1}"#,
    ),
    (
        Route::Sweep,
        r#"{"capacities":[{"channel":1,"values":[1,2]}],"mode":"qs"}"#,
    ),
    (
        Route::Sweep,
        r#"{"stalls":{"per_mille":[0,100],"trials":64,"cycles":200}}"#,
    ),
    (
        Route::Sweep,
        r#"{"capacities":[{"channel":99,"values":[1,2]}]}"#,
    ),
    (Route::Sweep, r#"{"budget":1,"stations":[[]]}"#),
];

const BAD_NETLIST: &str = "block A\nblock B\nchannel A => B\n";

fn netlists() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/netlists");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "lis"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("read netlist");
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect();
    out.sort();
    assert!(
        out.len() >= 5,
        "examples/netlists holds {} netlists",
        out.len()
    );
    out.push(("bad-line".into(), BAD_NETLIST.into()));
    out
}

/// Asks the daemon and the in-process path the same request; both answers
/// must agree byte for byte. Returns the status.
fn compare(client: &mut Client, route: Route, envelope: &Json, what: &str) -> u16 {
    let live = client
        .request(
            "POST",
            &format!("/{}", route.name()),
            envelope.to_string().as_bytes(),
        )
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let (status, body) = answer(route, envelope);
    assert_eq!(
        (status, String::from_utf8_lossy(&body)),
        (live.status, String::from_utf8_lossy(&live.body)),
        "{what}"
    );
    status
}

#[test]
fn in_process_answers_match_the_daemon_byte_for_byte() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let addr = server.local_addr().expect("server addr");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");

    let mut statuses = Vec::new();
    for (name, netlist) in netlists() {
        for (route, options) in CASES {
            let options = Json::parse(options).expect("case options");
            let envelope = obj([
                ("netlist", Json::str(netlist.as_str())),
                ("options", options),
            ]);
            let what = format!(
                "{name} {} {}",
                route.name(),
                envelope.get("options").unwrap()
            );
            statuses.push(compare(&mut client, route, &envelope, &what));
        }
    }
    // Envelopes the decoder refuses before any netlist is read.
    for route in [
        Route::Analyze,
        Route::Qs,
        Route::Insert,
        Route::Dot,
        Route::Sweep,
    ] {
        let no_netlist = obj([("options", Json::Null)]);
        statuses.push(compare(&mut client, route, &no_netlist, "no netlist"));
    }
    // Both the answers and the refusals were exercised.
    assert!(statuses.contains(&200), "{statuses:?}");
    assert!(statuses.contains(&400), "{statuses:?}");

    assert_eq!(client.shutdown().expect("shutdown"), 200);
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// JSON numbers are `f64`, which rounds integer literals of 2^53 and
/// above. Such an option is refused with a typed 400 naming it instead of
/// running as a different integer; 2^53 − 1 still round-trips exactly.
#[test]
fn an_integer_option_beyond_f64_precision_is_refused() {
    let fig1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/netlists/fig1.lis");
    let netlist = std::fs::read_to_string(fig1).expect("read fig1.lis");
    let burst = |seed: &str| {
        let options = format!(
            r#"{{"burst":{{"off_per_mille":100,"on_per_mille":300,"trials":4,"cycles":10,"seed":{seed}}}}}"#
        );
        answer(
            Route::Analyze,
            &obj([
                ("netlist", Json::str(netlist.as_str())),
                ("options", Json::parse(&options).expect("options")),
            ]),
        )
    };
    for seed in ["9007199254740993", "9007199254740992"] {
        let (status, body) = burst(seed);
        let body = String::from_utf8_lossy(&body);
        assert_eq!(status, 400, "seed {seed}: {body}");
        assert!(body.contains(r#"burst \"seed\""#), "seed {seed}: {body}");
    }
    let (status, body) = burst("9007199254740991");
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""seed":9007199254740991"#), "{body}");
}

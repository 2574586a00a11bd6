//! End-to-end service tests over real TCP sockets: cold/warm typechecks,
//! batches, concurrent single-flight, protocol errors, oversized request
//! lines, shutdown.

use std::sync::Arc;
use std::thread::JoinHandle;
use xmltc_obs::{Json, PipelineReport};
use xmltc_service::server::final_report;
use xmltc_service::{Client, ServeConfig, Server, ServiceState};

const INPUT_DTD: &str = "root := a*\na := @eps";
const STYLESHEET: &str = "root -> out(@apply)\na -> b";
const OUTPUT_DTD: &str = "out := b*\nb := @eps";
const BAD_OUTPUT_DTD: &str = "out := b.b\nb := @eps";

/// Starts a server on an ephemeral port; returns its address, the run
/// thread (yielding the final report), and the shared state.
fn start(oneshot: bool) -> (String, JoinHandle<PipelineReport>, Arc<ServiceState>) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        oneshot,
        ..ServeConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let state = server.state();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, state)
}

fn typecheck_request(output_dtd: &str, id: u64) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("typecheck".into())),
        ("id", Json::U64(id)),
        ("input_dtd", Json::Str(INPUT_DTD.into())),
        ("stylesheet", Json::Str(STYLESHEET.into())),
        ("output_dtd", Json::Str(output_dtd.into())),
    ])
}

fn field<'a>(resp: &'a Json, path: &str) -> &'a Json {
    resp.at(path)
        .unwrap_or_else(|| panic!("missing `{path}` in {}", resp.encode()))
}

#[test]
fn cold_then_warm_typecheck_is_byte_identical_with_zero_construction() {
    let (addr, handle, state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");

    let cold = client.roundtrip(&typecheck_request(OUTPUT_DTD, 1)).unwrap();
    assert_eq!(field(&cold, "ok"), &Json::Bool(true));
    assert_eq!(field(&cold, "id"), &Json::U64(1));
    assert_eq!(field(&cold, "result.verdict").as_str(), Some("typechecks"));
    assert_eq!(field(&cold, "cache.verdict").as_str(), Some("miss"));
    // The cold run built the violation automaton: walk metrics present.
    // (Metric names contain dots, so index with `get`, not `at`.)
    assert!(
        field(&cold, "metrics").get("walk.pairs").is_some(),
        "cold response should carry walk metrics: {}",
        cold.encode()
    );

    let warm = client.roundtrip(&typecheck_request(OUTPUT_DTD, 2)).unwrap();
    assert_eq!(field(&warm, "cache.verdict").as_str(), Some("hit"));
    assert!(field(&warm, "cache.hits").as_u64().unwrap() >= 1);
    // Byte-identical deterministic payload.
    assert_eq!(
        field(&cold, "result").encode(),
        field(&warm, "result").encode()
    );
    // Zero construction work: no walk (or mso) metrics at all.
    let Json::Object(metrics) = field(&warm, "metrics") else {
        panic!("metrics not an object");
    };
    assert!(
        !metrics
            .iter()
            .any(|(k, _)| k.starts_with("walk.") || k.starts_with("mso.")),
        "warm response must not carry construction metrics: {}",
        warm.encode()
    );
    // The untouched layers are absent from the warm cache object.
    assert!(warm.at("cache.violations").is_none());

    let down = client
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    assert_eq!(field(&down, "ok"), &Json::Bool(true));
    let report = handle.join().expect("server thread");
    let metric = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("final report lacks {name}"))
    };
    assert!(metric("cache.hits") >= 1);
    assert_eq!(metric("serve.requests.typecheck"), 2);
    assert_eq!(metric("serve.requests.shutdown"), 1);
    assert_eq!(metric("serve.connections"), 1);
    assert!(state.shutdown_requested());
}

#[test]
fn counterexample_verdicts_cache_and_replay_identically() {
    let (addr, handle, _state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");
    let cold = client
        .roundtrip(&typecheck_request(BAD_OUTPUT_DTD, 1))
        .unwrap();
    assert_eq!(
        field(&cold, "result.verdict").as_str(),
        Some("counterexample")
    );
    assert!(field(&cold, "result.input").as_str().is_some());
    let warm = client
        .roundtrip(&typecheck_request(BAD_OUTPUT_DTD, 2))
        .unwrap();
    assert_eq!(field(&warm, "cache.verdict").as_str(), Some("hit"));
    assert_eq!(
        field(&cold, "result").encode(),
        field(&warm, "result").encode()
    );
    client
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().unwrap();
}

#[test]
fn typecheck_layers_are_shared_across_specs() {
    let (addr, handle, _state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");
    client.roundtrip(&typecheck_request(OUTPUT_DTD, 1)).unwrap();
    // Different output DTD, same stylesheet: pipeline layer is warm.
    let other = client
        .roundtrip(&typecheck_request(BAD_OUTPUT_DTD, 2))
        .unwrap();
    assert_eq!(field(&other, "cache.pipeline").as_str(), Some("hit"));
    assert_eq!(field(&other, "cache.tau2").as_str(), Some("miss"));
    client
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().unwrap();
}

/// `engine` and `route` are retired: a request that still sends one, with
/// a once-valid or an unknown value, gets the answer of the same request
/// without it, from the same cached verdict.
#[test]
fn retired_fields_are_ignored() {
    let (addr, handle, _state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");
    for spec in [OUTPUT_DTD, BAD_OUTPUT_DTD] {
        let plain = client.roundtrip(&typecheck_request(spec, 1)).unwrap();
        assert_eq!(field(&plain, "cache.verdict").as_str(), Some("miss"));
        for (name, value) in [
            ("engine", "eager"),
            ("engine", "sideways"),
            ("route", "mso"),
            ("route", "walk"),
            ("route", "sideways"),
        ] {
            let mut req = typecheck_request(spec, 2);
            if let Json::Object(fields) = &mut req {
                fields.push((name.into(), Json::Str(value.into())));
            }
            for _ in 0..2 {
                let resp = client.roundtrip(&req).unwrap();
                assert_eq!(field(&resp, "ok"), &Json::Bool(true), "{name}={value}");
                assert_eq!(
                    field(&resp, "result").encode(),
                    field(&plain, "result").encode(),
                    "{name}={value}"
                );
                assert_eq!(field(&resp, "cache.verdict").as_str(), Some("hit"));
            }
        }
    }
    client
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().unwrap();
}

#[test]
fn validate_transform_and_batch_roundtrip() {
    let (addr, handle, _state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");

    let valid = client
        .roundtrip(&Json::obj(vec![
            ("cmd", Json::Str("validate".into())),
            ("input_dtd", Json::Str(INPUT_DTD.into())),
            ("document", Json::Str("<root><a/><a/></root>".into())),
        ]))
        .unwrap();
    assert_eq!(field(&valid, "result.verdict").as_str(), Some("valid"));
    assert_eq!(field(&valid, "cache.dtd").as_str(), Some("miss"));

    let invalid = client
        .roundtrip(&Json::obj(vec![
            ("cmd", Json::Str("validate".into())),
            ("input_dtd", Json::Str(INPUT_DTD.into())),
            ("document", Json::Str("<a><root/></a>".into())),
        ]))
        .unwrap();
    assert_eq!(field(&invalid, "ok"), &Json::Bool(true));
    assert_eq!(field(&invalid, "result.verdict").as_str(), Some("invalid"));
    assert_eq!(field(&invalid, "cache.dtd").as_str(), Some("hit"));

    let transform = client
        .roundtrip(&Json::obj(vec![
            ("cmd", Json::Str("transform".into())),
            ("input_dtd", Json::Str(INPUT_DTD.into())),
            ("stylesheet", Json::Str(STYLESHEET.into())),
            ("document", Json::Str("<root><a/><a/></root>".into())),
        ]))
        .unwrap();
    assert_eq!(
        field(&transform, "result.output").as_str(),
        Some("<out><b/><b/></out>")
    );

    let batch = client
        .roundtrip(&Json::obj(vec![
            ("cmd", Json::Str("batch".into())),
            ("id", Json::U64(9)),
            (
                "requests",
                Json::Array(vec![
                    typecheck_request(OUTPUT_DTD, 10),
                    Json::obj(vec![
                        ("cmd", Json::Str("validate".into())),
                        ("id", Json::U64(11)),
                        ("input_dtd", Json::Str(INPUT_DTD.into())),
                        ("document", Json::Str("<root/>".into())),
                    ]),
                    Json::obj(vec![("cmd", Json::Str("stats".into()))]),
                ]),
            ),
        ]))
        .unwrap();
    assert_eq!(field(&batch, "id"), &Json::U64(9));
    let Json::Array(results) = field(&batch, "results") else {
        panic!("results not an array");
    };
    assert_eq!(results.len(), 3);
    assert_eq!(field(&results[0], "id"), &Json::U64(10));
    assert_eq!(
        field(&results[0], "result.verdict").as_str(),
        Some("typechecks")
    );
    assert_eq!(field(&results[1], "id"), &Json::U64(11));
    assert_eq!(field(&results[2], "cmd").as_str(), Some("stats"));
    assert!(field(&results[2], "cache.hits").as_u64().unwrap() >= 1);

    client
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_identical_typechecks_build_once() {
    const CLIENTS: usize = 6;
    let (addr, handle, state) = start(false);
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let results: Vec<String> = (0..CLIENTS)
        .map(|i| {
            let (addr, barrier) = (addr.clone(), barrier.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                let resp = client
                    .roundtrip(&typecheck_request(OUTPUT_DTD, i as u64))
                    .unwrap();
                assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
                field(&resp, "result").encode()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    // Every client saw the same deterministic payload...
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    // ...and the verdict was built exactly once: the other N-1 accesses
    // were hits or coalesced onto the in-progress flight.
    let snap = state.cache.snapshot();
    let verdict_kind = xmltc_service::ArtifactKind::Verdict.index();
    let (v_hits, v_misses) = snap.per_kind[verdict_kind];
    assert_eq!(v_misses, 1, "verdict built more than once");
    assert_eq!(v_hits + snap.coalesces, (CLIENTS - 1) as u64);
    state.request_shutdown();
    handle.join().unwrap();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let (addr, handle, _state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");
    let bad = client.roundtrip_line("this is not json").unwrap();
    let bad = Json::parse(&bad).unwrap();
    assert_eq!(field(&bad, "ok"), &Json::Bool(false));
    assert!(field(&bad, "error").as_str().unwrap().contains("malformed"));
    let unknown = client
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("frobnicate".into()))]))
        .unwrap();
    assert_eq!(field(&unknown, "ok"), &Json::Bool(false));
    // The connection is still usable afterwards.
    let stats = client
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("stats".into()))]))
        .unwrap();
    assert_eq!(field(&stats, "ok"), &Json::Bool(true));
    assert_eq!(
        field(&stats, "protocol").as_str(),
        Some(xmltc_service::PROTOCOL)
    );
    assert_eq!(field(&stats, "errors").as_u64(), Some(2));
    // A line that is not UTF-8 is answered and counted like any other bad
    // line, and the request after it on the same connection is answered.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
        raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        raw.write_all(b"\xff\xfe{\"cmd\":\"stats\"}\n{\"cmd\":\"stats\"}\n")
            .unwrap();
        let mut reader = BufReader::new(raw);
        let mut read_json = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(line.trim()).unwrap()
        };
        let bad = read_json();
        assert_eq!(field(&bad, "ok"), &Json::Bool(false));
        assert!(field(&bad, "error").as_str().unwrap().contains("UTF-8"));
        let stats = read_json();
        assert_eq!(field(&stats, "ok"), &Json::Bool(true));
        assert_eq!(field(&stats, "errors").as_u64(), Some(3));
    }
    client
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().unwrap();
}

/// One request line of 300 000 `[` used to overflow the parser's stack and
/// abort the whole server. It must now be an ordinary protocol error, and
/// the server must keep answering other connections.
#[test]
fn deeply_nested_request_line_is_rejected_not_fatal() {
    let (addr, handle, _state) = start(false);
    let mut hostile = Client::connect(&addr).expect("connect");
    let resp = hostile.roundtrip_line(&"[".repeat(300_000)).unwrap();
    let resp = Json::parse(&resp).unwrap();
    assert_eq!(field(&resp, "ok"), &Json::Bool(false));
    let error = field(&resp, "error").as_str().unwrap();
    assert!(error.contains("nesting"), "{error}");
    let mut other = Client::connect(&addr).expect("server still accepts");
    let stats = other
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("stats".into()))]))
        .unwrap();
    assert_eq!(field(&stats, "ok"), &Json::Bool(true));
    other
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().unwrap();
}

/// A client streaming one request line past the cap used to grow a single
/// buffer without bound and never get an answer. It now gets an error
/// naming the cap, and the server keeps answering other connections.
#[test]
fn oversized_request_line_is_rejected_not_buffered() {
    use std::io::{BufRead, BufReader, Write};
    use xmltc_service::proto::MAX_REQUEST_BYTES;
    let (addr, handle, _state) = start(false);
    let mut hostile = std::net::TcpStream::connect(&addr).expect("connect");
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    hostile
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("the server reads up to the cap");
    let mut resp = String::new();
    BufReader::new(&hostile)
        .read_line(&mut resp)
        .expect("an answer, not a timeout");
    let resp = Json::parse(&resp).unwrap();
    assert_eq!(field(&resp, "ok"), &Json::Bool(false));
    let error = field(&resp, "error").as_str().unwrap();
    assert!(error.contains(&MAX_REQUEST_BYTES.to_string()), "{error}");
    let mut other = Client::connect(&addr).expect("server still accepts");
    let stats = other
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("stats".into()))]))
        .unwrap();
    assert_eq!(field(&stats, "ok"), &Json::Bool(true));
    other
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().unwrap();
}

#[test]
fn oneshot_serves_one_connection_then_exits_with_report() {
    let (addr, handle, state) = start(true);
    {
        let mut client = Client::connect(&addr).expect("connect");
        let resp = client.roundtrip(&typecheck_request(OUTPUT_DTD, 1)).unwrap();
        assert_eq!(field(&resp, "result.verdict").as_str(), Some("typechecks"));
    } // dropping the client closes the connection; the server exits
    let report = handle.join().expect("server thread");
    assert!(report
        .metrics
        .iter()
        .any(|(k, v)| k == "serve.requests.typecheck" && *v == 1));
    // final_report is re-derivable from the state after shutdown.
    let again = final_report(&state);
    assert!(again
        .metrics
        .iter()
        .any(|(k, v)| k == "serve.requests.typecheck" && *v == 1));
}

/// A flat document of 20 000 children transforms on a connection thread,
/// whose stack is 8 MiB, and the server goes on answering other clients:
/// evaluation and the encoding of siblings keep no stack frame per child.
#[test]
fn flat_document_transform_leaves_the_server_up() {
    const Q2: &str = "root -> result(b, @apply, b, @apply, b, @apply)\na -> a";
    let n = 20_000;
    let (addr, handle, _state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");
    let transform = client
        .roundtrip(&Json::obj(vec![
            ("cmd", Json::Str("transform".into())),
            ("input_dtd", Json::Str(INPUT_DTD.into())),
            ("stylesheet", Json::Str(Q2.into())),
            (
                "document",
                Json::Str(format!("<root>{}</root>", "<a/>".repeat(n))),
            ),
        ]))
        .unwrap();
    let third = format!("<b/>{}", "<a/>".repeat(n));
    let expected = format!("<result>{}</result>", third.repeat(3));
    assert_eq!(
        field(&transform, "result.output").as_str(),
        Some(expected.as_str())
    );

    let mut second = Client::connect(&addr).expect("second connection");
    let valid = second
        .roundtrip(&Json::obj(vec![
            ("cmd", Json::Str("validate".into())),
            ("input_dtd", Json::Str(INPUT_DTD.into())),
            ("document", Json::Str("<root><a/></root>".into())),
        ]))
        .unwrap();
    assert_eq!(field(&valid, "result.verdict").as_str(), Some("valid"));
    second
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().expect("server thread");
}

/// A `validate` request for a chain 100 000 deep is answered on a
/// connection thread, whose stack is 8 MiB, and the server goes on
/// answering other clients: parsing, the tree and validation keep no
/// stack frame per level.
#[test]
fn deep_document_validate_leaves_the_server_up() {
    const CHAIN_DTD: &str = "doc := node*\nnode := (node|leaf)*\nleaf := @eps";
    let depth = 100_000;
    let validate = |document: String| {
        Json::obj(vec![
            ("cmd", Json::Str("validate".into())),
            ("input_dtd", Json::Str(CHAIN_DTD.into())),
            ("document", Json::Str(document)),
        ])
    };
    let (addr, handle, _state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");
    let chain = format!(
        "<doc>{}<leaf/>{}</doc>",
        "<node>".repeat(depth),
        "</node>".repeat(depth)
    );
    let deep = client.roundtrip(&validate(chain)).unwrap();
    assert_eq!(field(&deep, "result.verdict").as_str(), Some("valid"));

    let mut second = Client::connect(&addr).expect("second connection");
    let small = second
        .roundtrip(&validate("<doc><node/></doc>".into()))
        .unwrap();
    assert_eq!(field(&small, "result.verdict").as_str(), Some("valid"));
    second
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().expect("server thread");
}

/// A `transform` of an identity chain deep enough to overflow a 2 MiB
/// stack is answered on a connection thread, which gets the 8 MiB a CLI
/// main thread has, and the server goes on answering other clients. The
/// output side still recurses once per level, so the depth depends on the
/// build profile's frame sizes: on x86-64 a 2 MiB connection thread
/// overflowed at 2 000 levels in a debug build and at 12 000 in a release
/// build, while 8 MiB answered 4 000 and 20 000.
#[test]
fn deep_document_transform_leaves_the_server_up() {
    const CHAIN_DTD: &str = "doc := node*\nnode := (node|leaf)*\nleaf := @eps";
    const IDENTITY: &str = "doc -> doc(@apply)\nnode -> node(@apply)\nleaf -> leaf";
    let depth = if cfg!(debug_assertions) {
        3_000
    } else {
        12_000
    };
    let (addr, handle, _state) = start(false);
    let mut client = Client::connect(&addr).expect("connect");
    let chain = format!(
        "<doc>{}<leaf/>{}</doc>",
        "<node>".repeat(depth),
        "</node>".repeat(depth)
    );
    let transform = client
        .roundtrip(&Json::obj(vec![
            ("cmd", Json::Str("transform".into())),
            ("input_dtd", Json::Str(CHAIN_DTD.into())),
            ("stylesheet", Json::Str(IDENTITY.into())),
            ("document", Json::Str(chain.clone())),
        ]))
        .unwrap();
    assert_eq!(
        field(&transform, "result.output").as_str(),
        Some(chain.as_str())
    );

    let mut second = Client::connect(&addr).expect("second connection");
    let stats = second
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("stats".into()))]))
        .unwrap();
    assert_eq!(field(&stats, "ok"), &Json::Bool(true));
    second
        .roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    handle.join().expect("server thread");
}

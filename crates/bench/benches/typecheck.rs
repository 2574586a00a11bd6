//! E6/E7 — Theorem 4.4 in practice: end-to-end typechecking cost for the
//! Example 4.3 pipeline, exact (behaviour route) vs the forward-inference
//! baseline, on passing and failing specs — with the final emptiness check
//! run by both the eager (materializing) and the lazy (on-the-fly) engine.
//!
//! Besides the timing table, this bench dumps a machine-readable comparison
//! to `BENCH_typecheck.json` at the workspace root (schema 7): one
//! instrumented [`PipelineReport`](xmltc_obs::PipelineReport) per engine
//! (the same shape `xmltc typecheck --json` emits), a side-by-side summary
//! of wall times and state counts, a `route_walk` breakdown of the
//! Theorem 4.7 walk construction — wall time, pairs explored, memo hit
//! rate, fixpoint steps and kernel counters — and a `service` section
//! timing the same instance through `xmltc serve`: a cold request that
//! builds every artifact vs a warm repeat answered from the verdict cache
//! (asserted byte-identical). On a typechecks-OK instance the lazy engine
//! must materialize strictly fewer states than the eager product.
//!
//! `XMLTC_BENCH_QUICK=1` skips the calibrated timing loops and runs only
//! the instrumented comparisons and their assertions (the CI smoke mode).
//! `XMLTC_BENCH_OUT=path` redirects the JSON dump — and emits it even in
//! quick mode, producing a candidate file for `xmltc bench-diff`.

use xmltc_bench::harness::Group;
use xmltc_bench::q2_fixture;
use xmltc_obs::{self as obs, Json};
use xmltc_service::{Client, ServeConfig, Server};
use xmltc_typecheck::{typecheck, Engine, TypecheckOptions};

fn main() {
    let quick = std::env::var("XMLTC_BENCH_QUICK").is_ok();
    let fx = q2_fixture();
    let eager = TypecheckOptions {
        engine: Engine::Eager,
        ..Default::default()
    };
    let lazy = TypecheckOptions {
        engine: Engine::Lazy,
        ..Default::default()
    };

    if !quick {
        let mut group = Group::new("E7_typecheck_q2");
        group.bench("eager_mod3_pass", || {
            let out = typecheck(&fx.transducer, &fx.tau1, &fx.tau2_mod3, &eager).unwrap();
            assert!(out.is_ok());
        });
        group.bench("lazy_mod3_pass", || {
            let out = typecheck(&fx.transducer, &fx.tau1, &fx.tau2_mod3, &lazy).unwrap();
            assert!(out.is_ok());
        });
        group.bench("eager_coarse_pass", || {
            let out = typecheck(&fx.transducer, &fx.tau1, &fx.tau2_coarse, &eager).unwrap();
            assert!(out.is_ok());
        });
        group.bench("lazy_coarse_pass", || {
            let out = typecheck(&fx.transducer, &fx.tau1, &fx.tau2_coarse, &lazy).unwrap();
            assert!(out.is_ok());
        });
        group.bench("forward_coarse_pass", || {
            assert!(fx.forward_image.subset_of(&fx.tau2_coarse));
        });
        group.bench("forward_mod3_spurious_reject", || {
            assert!(!fx.forward_image.subset_of(&fx.tau2_mod3));
        });
        group.finish();
    }

    // One instrumented run per configuration, dumped side by side.
    let run = |opts: &TypecheckOptions| {
        let (outcome, report) = obs::with_report(|| {
            let out = typecheck(&fx.transducer, &fx.tau1, &fx.tau2_mod3, opts).unwrap();
            obs::record("verdict.ok", out.is_ok() as u64);
            out
        });
        assert!(outcome.is_ok());
        report
    };
    let eager_report = run(&eager);
    let lazy_report = run(&lazy);

    let eager_states = eager_report
        .span_metric("typecheck.emptiness", "intersection.states")
        .expect("eager run reports the materialized product size");
    let lazy_states = lazy_report
        .span_metric("typecheck.emptiness", "lazy.states_materialized")
        .expect("lazy run reports the configurations it materialized");
    let lazy_bound = lazy_report
        .span_metric("typecheck.emptiness", "lazy.states_eager")
        .expect("lazy run reports the eager product bound");
    assert!(
        lazy_states < eager_states,
        "lazy must materialize strictly fewer states than the eager product \
         on a typechecks-OK instance ({lazy_states} vs {eager_states})"
    );

    // The walk-route breakdown, from the lazy run (the second walk of the
    // process, so its wall time is not a cold start).
    let walk_metric = |m: &str| {
        lazy_report
            .span_metric("route.walk", m)
            .unwrap_or_else(|| panic!("walk run reports {m}"))
    };
    let walk_ms = lazy_report
        .span("route.walk")
        .map(|s| s.wall_ms())
        .unwrap_or(0.0);
    let pairs = walk_metric("walk.pairs");
    let compositions = walk_metric("walk.compositions");
    let memo_hits = walk_metric("walk.memo_hits");
    let memo_misses = walk_metric("walk.memo_misses");
    assert_eq!(
        memo_hits + memo_misses,
        compositions,
        "memo hits + misses must account for every composition (leaves + pairs)"
    );
    assert!(
        memo_hits > 0,
        "the flagship's repeating structure must produce memo hits"
    );
    let memo_hit_rate = if memo_hits + memo_misses > 0 {
        memo_hits as f64 / (memo_hits + memo_misses) as f64
    } else {
        0.0
    };

    // The service rows: the same instance through `xmltc serve`, cold then
    // warm over one TCP connection. The cold request builds every artifact
    // layer (verdict miss); the warm repeat must be answered entirely from
    // the verdict cache with a byte-identical result payload.
    let fixture_text = |name: &str| {
        let path = format!("{}/../../fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let request = Json::obj(vec![
        ("cmd", Json::Str("typecheck".into())),
        ("input_dtd", Json::Str(fixture_text("q2.dtd"))),
        ("stylesheet", Json::Str(fixture_text("q2.xsl"))),
        ("output_dtd", Json::Str(fixture_text("q2_mod3_out.dtd"))),
    ]);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    })
    .expect("bind service on an ephemeral port");
    let addr = server.local_addr().expect("service address").to_string();
    let server = std::thread::spawn(move || server.run());
    let mut conn = Client::connect(&addr).expect("connect to service");
    let cold = conn.roundtrip(&request).expect("cold response");
    let warm = conn.roundtrip(&request).expect("warm response");
    let verdict_outcome = |r: &Json| {
        r.at("cache.verdict")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    assert_eq!(verdict_outcome(&cold), "miss", "cold run must build");
    assert_eq!(verdict_outcome(&warm), "hit", "warm run must hit the cache");
    assert_eq!(
        cold.get("result").map(Json::encode),
        warm.get("result").map(Json::encode),
        "warm verdict must be byte-identical to the cold one"
    );
    let wall = |r: &Json| r.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let cache_count = |r: &Json, k: &str| {
        r.get("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    conn.roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .expect("shutdown response");
    server.join().expect("service thread exits");

    let emptiness_ms = |r: &obs::PipelineReport| {
        r.span("typecheck.emptiness")
            .map(|s| s.wall_ms())
            .unwrap_or(0.0)
    };
    let json = Json::obj(vec![
        ("schema", Json::Str("xmltc.bench-typecheck/7".into())),
        (
            "comparison",
            Json::obj(vec![
                ("instance", Json::Str("Q2 vs mod-3 (typechecks)".into())),
                ("eager_wall_ms", Json::F64(eager_report.total_ms())),
                ("lazy_wall_ms", Json::F64(lazy_report.total_ms())),
                ("eager_emptiness_ms", Json::F64(emptiness_ms(&eager_report))),
                ("lazy_emptiness_ms", Json::F64(emptiness_ms(&lazy_report))),
                ("eager_states", Json::U64(eager_states)),
                ("lazy_states_materialized", Json::U64(lazy_states)),
                ("lazy_states_eager_bound", Json::U64(lazy_bound)),
            ]),
        ),
        (
            "route_walk",
            Json::obj(vec![
                ("instance", Json::Str("Q2 vs mod-3 (typechecks)".into())),
                ("sequential_wall_ms", Json::F64(walk_ms)),
                ("pairs", Json::U64(pairs)),
                ("compositions", Json::U64(compositions)),
                ("memo_hits", Json::U64(memo_hits)),
                ("memo_misses", Json::U64(memo_misses)),
                ("memo_hit_rate", Json::F64(memo_hit_rate)),
                (
                    "fixpoint_steps",
                    Json::U64(walk_metric("walk.fixpoint_steps")),
                ),
                ("dbta_states", Json::U64(walk_metric("walk.dbta_states"))),
                ("kernel_words", Json::U64(walk_metric("walk.kernel.words"))),
                ("kernel_rows", Json::U64(walk_metric("walk.kernel.rows"))),
                (
                    "projections_interned",
                    Json::U64(walk_metric("walk.kernel.projections")),
                ),
            ]),
        ),
        (
            "service",
            Json::obj(vec![
                (
                    "instance",
                    Json::Str("Q2 vs mod-3 via xmltc serve (verdict cache)".into()),
                ),
                ("cold_wall_ms", Json::F64(wall(&cold))),
                ("warm_wall_ms", Json::F64(wall(&warm))),
                ("cold_misses", Json::U64(cache_count(&cold, "misses"))),
                ("warm_hits", Json::U64(cache_count(&warm, "hits"))),
                ("warm_misses", Json::U64(cache_count(&warm, "misses"))),
            ]),
        ),
        (
            "engines",
            Json::obj(vec![
                ("eager", eager_report.to_json()),
                ("lazy", lazy_report.to_json()),
            ]),
        ),
    ]);
    // `XMLTC_BENCH_OUT=path` redirects the dump — and forces it even in
    // quick mode, so CI can produce a candidate file for `bench-diff`
    // without paying for the calibrated timing loops.
    let out_override = std::env::var("XMLTC_BENCH_OUT")
        .ok()
        .filter(|p| !p.is_empty());
    if quick && out_override.is_none() {
        println!("quick mode: instrumented comparisons passed");
        return;
    }
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_typecheck.json");
    let path = out_override.unwrap_or_else(|| default_path.to_string());
    match std::fs::write(&path, json.encode_pretty()) {
        Ok(()) => println!("\n(engine comparison written to {path})"),
        Err(e) => eprintln!("\n(could not write {path}: {e})"),
    }
}

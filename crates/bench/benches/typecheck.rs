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
//! rate, fixpoint steps, bisimulation classes and kernel counters — and a
//! `service` section timing the same instance through `xmltc serve`: a
//! cold request that builds every artifact vs a warm repeat answered from
//! the verdict cache (asserted byte-identical). On a typechecks-OK instance
//! the lazy engine must materialize strictly fewer states than the eager
//! product.
//!
//! Every wall row is the median of [`SAMPLES`] timed runs after one
//! untimed warm-up, each run scaled by how fast a fixed reference kernel
//! ran next to it ([`reference_ms`]): a single sample moved by a third
//! between two regenerations of unchanged code, as much as `bench-diff`
//! tolerates, and medians alone still moved with the host's speed.
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

/// Timed runs behind every wall row, after one warm-up.
const SAMPLES: usize = 9;

/// What [`reference_ms`] takes on the host the wall rows are expressed
/// for: each sample is scaled by `REFERENCE_MS / reference_ms()` measured
/// next to it.
const REFERENCE_MS: f64 = 1.8;

/// A fixed workload that uses nothing of the library: sort 50 000
/// pseudo-random words and index every seventh in a hash map. Timed next
/// to each sample, it tells how fast the host runs at that moment.
fn reference_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut words: Vec<u64> = (0..50_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    let index: std::collections::HashMap<u64, usize> =
        words.iter().copied().step_by(7).zip(0..).collect();
    std::hint::black_box(index);
    start.elapsed().as_secs_f64() * 1e3
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

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

    // Instrumented runs per configuration, alternating, dumped side by
    // side: each engine's median run, and the median of each wall row.
    let run = |opts: &TypecheckOptions| {
        let (outcome, report) = obs::with_report(|| {
            let out = typecheck(&fx.transducer, &fx.tau1, &fx.tau2_mod3, opts).unwrap();
            obs::record("verdict.ok", out.is_ok() as u64);
            out
        });
        assert!(outcome.is_ok());
        report
    };
    let (mut eager_runs, mut lazy_runs, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..=SAMPLES {
        let scale = REFERENCE_MS / reference_ms();
        let (e, l) = (run(&eager), run(&lazy));
        if i > 0 {
            eager_runs.push(e);
            lazy_runs.push(l);
            scales.push(scale);
        }
    }
    let span_ms = |name: &'static str| {
        move |r: &obs::PipelineReport| r.span(name).map(|s| s.wall_ms()).unwrap_or(0.0)
    };
    let median_of = |runs: &[obs::PipelineReport], row: &dyn Fn(&obs::PipelineReport) -> f64| {
        median(runs.iter().zip(&scales).map(|(r, s)| row(r) * s).collect())
    };
    let eager_wall_ms = median_of(&eager_runs, &|r| r.total_ms());
    let lazy_wall_ms = median_of(&lazy_runs, &|r| r.total_ms());
    let eager_emptiness_ms = median_of(&eager_runs, &span_ms("typecheck.emptiness"));
    let lazy_emptiness_ms = median_of(&lazy_runs, &span_ms("typecheck.emptiness"));
    // The walk route's wall time, from the lazy runs.
    let walk_ms = median_of(&lazy_runs, &span_ms("route.walk"));
    let median_run = |mut runs: Vec<obs::PipelineReport>| {
        runs.sort_by(|a, b| a.total_ms().total_cmp(&b.total_ms()));
        runs.swap_remove(runs.len() / 2)
    };
    let eager_report = median_run(eager_runs);
    let lazy_report = median_run(lazy_runs);

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

    // The walk-route counters, from a lazy run.
    let walk_metric = |m: &str| {
        lazy_report
            .span_metric("route.walk", m)
            .unwrap_or_else(|| panic!("walk run reports {m}"))
    };
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
    // warm over one TCP connection, on a fresh server per sample. The cold
    // request builds every artifact layer (verdict miss); the warm repeat
    // must be answered entirely from the verdict cache with a
    // byte-identical result payload.
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
    let verdict_outcome = |r: &Json| {
        r.at("cache.verdict")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let wall = |r: &Json| r.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let cache_count = |r: &Json, k: &str| {
        r.get("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let serve_once = || {
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
        assert_eq!(verdict_outcome(&cold), "miss", "cold run must build");
        assert_eq!(verdict_outcome(&warm), "hit", "warm run must hit the cache");
        assert_eq!(
            cold.get("result").map(Json::encode),
            warm.get("result").map(Json::encode),
            "warm verdict must be byte-identical to the cold one"
        );
        conn.roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))
            .expect("shutdown response");
        server.join().expect("service thread exits");
        (cold, warm)
    };
    serve_once();
    let runs: Vec<(f64, Json, Json)> = (0..SAMPLES)
        .map(|_| {
            let scale = REFERENCE_MS / reference_ms();
            let (cold, warm) = serve_once();
            (scale, cold, warm)
        })
        .collect();
    let cold_ms = median(runs.iter().map(|(s, c, _)| wall(c) * s).collect());
    let warm_ms = median(runs.iter().map(|(s, _, w)| wall(w) * s).collect());
    let (_, cold, warm) = &runs[0];

    let json = Json::obj(vec![
        ("schema", Json::Str("xmltc.bench-typecheck/7".into())),
        (
            "comparison",
            Json::obj(vec![
                ("instance", Json::Str("Q2 vs mod-3 (typechecks)".into())),
                ("eager_wall_ms", Json::F64(eager_wall_ms)),
                ("lazy_wall_ms", Json::F64(lazy_wall_ms)),
                ("eager_emptiness_ms", Json::F64(eager_emptiness_ms)),
                ("lazy_emptiness_ms", Json::F64(lazy_emptiness_ms)),
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
                ("classes", Json::U64(walk_metric("walk.classes"))),
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
                ("cold_wall_ms", Json::F64(cold_ms)),
                ("warm_wall_ms", Json::F64(warm_ms)),
                ("cold_misses", Json::U64(cache_count(cold, "misses"))),
                ("warm_hits", Json::U64(cache_count(warm, "hits"))),
                ("warm_misses", Json::U64(cache_count(warm, "misses"))),
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

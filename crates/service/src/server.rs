//! The `xmltc serve` TCP server.
//!
//! A std-only accept loop: nonblocking listener polled every few
//! milliseconds, one thread per connection, line-delimited JSON requests
//! ([`crate::proto`]) answered from the shared
//! [`ArtifactCache`].
//!
//! Every non-trivial request runs under [`obs::with_report`], so the
//! response carries the same per-phase metrics a local `xmltc typecheck
//! --json` run would print — and when the event journal is recording
//! (`xmltc serve --trace-out`), every request's spans and cache counters
//! land on the Chrome-trace timeline. On shutdown — a `shutdown` request,
//! SIGINT, or end of a `--oneshot` connection — the server drains its
//! connection threads and assembles a final [`PipelineReport`] totalling
//! requests served and cache behaviour.

use crate::cache::{Artifact, ArtifactCache, CacheOutcome, VerdictArtifact};
use crate::key;
use crate::proto::{self, Envelope, Request, TypecheckParams};
use std::cell::Cell;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmltc_automata::Nta;
use xmltc_dtd::Dtd;
use xmltc_obs::{self as obs, Json, PipelineReport, SpanRecord};
use xmltc_typecheck::inverse::violation_nta;
use xmltc_xml::{parse_document, raw_to_xml};
use xmltc_xmlql::pipeline::{DocumentPipeline, DocumentVerdict};
use xmltc_xmlql::Stylesheet;

/// SIGINT interception for graceful shutdown.
///
/// The handler does the only async-signal-safe thing possible — one
/// relaxed store into a process-global flag — and the accept loop and
/// every connection thread poll that flag between reads. This is the one
/// place in the workspace that needs `unsafe`: registering the handler
/// crosses the C ABI. On non-Unix targets installation is a no-op (the
/// `shutdown` request still works everywhere).
pub mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    /// True once SIGINT has been received (after [`install`]).
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::Relaxed)
    }

    /// Installs the SIGINT handler. Idempotent.
    #[cfg(unix)]
    #[allow(unsafe_code)]
    pub fn install() {
        extern "C" fn on_sigint(_signum: i32) {
            INTERRUPTED.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            let _ = signal(SIGINT, on_sigint);
        }
    }

    /// Installs the SIGINT handler (no-op off Unix).
    #[cfg(not(unix))]
    pub fn install() {}
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7407` (`:0` for an ephemeral port).
    pub addr: String,
    /// Artifact-cache byte budget.
    pub cache_bytes: usize,
    /// Serve exactly one connection, then shut down (for tests/smoke).
    pub oneshot: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7407".into(),
            cache_bytes: ArtifactCache::DEFAULT_BUDGET,
            oneshot: false,
        }
    }
}

/// Shared server state: the cache plus request counters.
pub struct ServiceState {
    /// The content-addressed artifact cache.
    pub cache: ArtifactCache,
    started: Instant,
    shutdown: AtomicBool,
    connections: AtomicU64,
    errors: AtomicU64,
    /// Per-command request counts, indexed like [`CMD_NAMES`].
    requests: [AtomicU64; CMD_NAMES.len()],
}

/// Stack of each connection thread: the 8 MiB a CLI process's main thread
/// gets, so a document the CLI transforms does not overflow a connection
/// (Rust's default for spawned threads is 2 MiB). Only the pages a request
/// touches become resident.
const CONNECTION_STACK_BYTES: usize = 8 << 20;

/// Command names, in counter order.
pub const CMD_NAMES: [&str; 6] = [
    "validate",
    "transform",
    "typecheck",
    "batch",
    "stats",
    "shutdown",
];

impl ServiceState {
    /// Fresh state with a cache of the given byte budget.
    pub fn new(cache_bytes: usize) -> ServiceState {
        ServiceState {
            cache: ArtifactCache::new(cache_bytes),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            requests: Default::default(),
        }
    }

    /// Asks the accept loop and all connection threads to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// True when a `shutdown` request or SIGINT has been observed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || sigint::interrupted()
    }

    fn count_request(&self, cmd: &str) {
        if let Some(i) = CMD_NAMES.iter().position(|n| *n == cmd) {
            self.requests[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// The bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    oneshot: bool,
}

impl Server {
    /// Binds the listen socket and allocates the cache.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            state: Arc::new(ServiceState::new(cfg.cache_bytes)),
            oneshot: cfg.oneshot,
        })
    }

    /// The actual bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (for embedding: request shutdown, read stats).
    pub fn state(&self) -> Arc<ServiceState> {
        self.state.clone()
    }

    /// Runs the accept loop until shutdown, then drains connection
    /// threads and returns the final whole-run report.
    pub fn run(self) -> PipelineReport {
        let state = self.state;
        // Nonblocking accept + short sleeps keeps the loop responsive to
        // the shutdown flag without platform-specific select machinery.
        let _ = self.listener.set_nonblocking(true);
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut conn_seq = 0u64;
        while !state.shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    conn_seq += 1;
                    state.connections.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nonblocking(false);
                    let st = state.clone();
                    let spawned = std::thread::Builder::new()
                        .name(format!("xmltc-serve-{conn_seq}"))
                        .stack_size(CONNECTION_STACK_BYTES)
                        .spawn(move || handle_connection(&st, stream));
                    match spawned {
                        Ok(h) => handles.push(h),
                        Err(_) => state.count_error(),
                    }
                    if self.oneshot {
                        if let Some(h) = handles.pop() {
                            let _ = h.join();
                        }
                        state.request_shutdown();
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
            handles.retain(|h| !h.is_finished());
        }
        state.request_shutdown();
        for h in handles {
            let _ = h.join();
        }
        final_report(&state)
    }
}

/// One connection: read request lines, answer each, until EOF, error,
/// a closing command, or server shutdown. Read timeouts bound how long a
/// idle connection can delay shutdown; a partially-read line survives the
/// timeout because `read_until` appends to the buffer. A line that is not
/// UTF-8 is answered with an error like any other malformed line, and the
/// next line is read. A line longer than [`proto::MAX_REQUEST_BYTES`] is
/// answered with an error, and then the connection is closed; reads stop
/// at the cap, so it is never buffered whole.
fn handle_connection(state: &Arc<ServiceState>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(150)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line: Vec<u8> = Vec::new();
    loop {
        let room = (proto::MAX_REQUEST_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > proto::MAX_REQUEST_BYTES && line.last() != Some(&b'\n') => {
                state.count_error();
                let msg = format!(
                    "request line exceeds {} bytes; closing the connection",
                    proto::MAX_REQUEST_BYTES
                );
                send(&mut writer, &error_response(None, None, &msg));
                break;
            }
            Ok(_) => {
                let text = std::str::from_utf8(&line).map(str::trim);
                let mut close = false;
                if !matches!(text, Ok("")) {
                    let parsed = text
                        .map_err(|_| "request line is not valid UTF-8".to_string())
                        .and_then(proto::parse_line);
                    let (response, c) = match parsed {
                        Ok(env) => answer(state, &env),
                        Err(msg) => {
                            state.count_error();
                            (error_response(None, None, &msg), false)
                        }
                    };
                    close = c;
                    if !send(&mut writer, &response) {
                        break;
                    }
                }
                line.clear();
                if close {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if state.shutdown_requested() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Writes one response line; false when the client is gone.
fn send(writer: &mut TcpStream, response: &Json) -> bool {
    let mut out = response.encode();
    out.push('\n');
    let sent = writer.write_all(out.as_bytes()).is_ok();
    let _ = writer.flush();
    sent
}

/// The deterministic payload plus which cache layers the request touched.
struct Served {
    result: Json,
    layers: Vec<(&'static str, CacheOutcome)>,
}

/// Answers one envelope. The bool asks the connection to close (after a
/// `shutdown`, or a batch containing one).
fn answer(state: &Arc<ServiceState>, env: &Envelope) -> (Json, bool) {
    let cmd = env.request.cmd();
    state.count_request(cmd);
    match &env.request {
        Request::Stats => (stats_response(state, env.id), false),
        Request::Shutdown => {
            state.request_shutdown();
            let fields = base_fields(env.id, cmd, true);
            (Json::obj(fields), true)
        }
        Request::Batch(items) => {
            let mut close = false;
            let results: Vec<Json> = items
                .iter()
                .map(|e| {
                    let (r, c) = answer(state, e);
                    close |= c;
                    r
                })
                .collect();
            let mut fields = base_fields(env.id, cmd, true);
            fields.push(("results", Json::Array(results)));
            (Json::obj(fields), close)
        }
        _ => {
            let (outcome, report) = obs::with_report(|| {
                let _s = obs::span("serve.request");
                exec(state, &env.request)
            });
            journal_cache_counters(state);
            match outcome {
                Ok(served) => {
                    let mut fields = base_fields(env.id, cmd, true);
                    fields.push(("result", served.result));
                    fields.push(("cache", cache_json(&served.layers)));
                    fields.push(("wall_ms", Json::F64(report.total_ms())));
                    fields.push(("metrics", metrics_json(&report)));
                    (Json::obj(fields), false)
                }
                Err(msg) => {
                    state.count_error();
                    (error_response(env.id, Some(cmd), &msg), false)
                }
            }
        }
    }
}

/// Runs one validate/transform/typecheck request against the cache.
fn exec(state: &ServiceState, request: &Request) -> Result<Served, String> {
    match request {
        Request::Validate {
            input_dtd,
            document,
        } => exec_validate(state, input_dtd, document),
        Request::Transform {
            input_dtd,
            stylesheet,
            document,
        } => exec_transform(state, input_dtd, stylesheet, document),
        Request::Typecheck(p) => exec_typecheck(state, p),
        _ => Err("internal: non-executable request".into()),
    }
}

fn as_dtd(a: Artifact) -> Result<Arc<Dtd>, String> {
    match a {
        Artifact::Dtd(d) => Ok(d),
        _ => Err("cache kind mismatch (dtd)".into()),
    }
}

fn as_pipeline(a: Artifact) -> Result<Arc<DocumentPipeline>, String> {
    match a {
        Artifact::Pipeline(p) => Ok(p),
        _ => Err("cache kind mismatch (pipeline)".into()),
    }
}

fn as_nta(a: Artifact) -> Result<Arc<Nta>, String> {
    match a {
        Artifact::Nta(n) => Ok(n),
        _ => Err("cache kind mismatch (nta)".into()),
    }
}

fn as_verdict(a: Artifact) -> Result<Arc<VerdictArtifact>, String> {
    match a {
        Artifact::Verdict(v) => Ok(v),
        _ => Err("cache kind mismatch (verdict)".into()),
    }
}

fn cached_pipeline(
    state: &ServiceState,
    input_dtd: &str,
    stylesheet: &str,
) -> (Result<Arc<DocumentPipeline>, String>, CacheOutcome) {
    let (res, out) = state
        .cache
        .get_or_build(key::pipeline_key(input_dtd, stylesheet), || {
            let dtd = Dtd::parse_text(input_dtd).map_err(|e| e.to_string())?;
            let sheet = Stylesheet::parse_text(stylesheet).map_err(|e| e.to_string())?;
            DocumentPipeline::new(sheet, dtd)
                .map(|p| Artifact::Pipeline(Arc::new(p)))
                .map_err(|e| e.to_string())
        });
    (res.and_then(as_pipeline), out)
}

fn exec_validate(state: &ServiceState, input_dtd: &str, document: &str) -> Result<Served, String> {
    let (res, dout) = state.cache.get_or_build(key::dtd_key(input_dtd), || {
        Dtd::parse_text(input_dtd)
            .map(|d| Artifact::Dtd(Arc::new(d)))
            .map_err(|e| e.to_string())
    });
    let dtd = as_dtd(res?)?;
    let doc = {
        let _s = obs::span("xml.parse");
        parse_document(document, dtd.alphabet()).map_err(|e| e.to_string())?
    };
    let verdict = {
        let _s = obs::span("dtd.validate");
        dtd.validate(&doc)
    };
    obs::record("verdict.ok", verdict.is_ok() as u64);
    let result = match verdict {
        Ok(()) => Json::obj(vec![("verdict", Json::Str("valid".into()))]),
        Err(e) => Json::obj(vec![
            ("verdict", Json::Str("invalid".into())),
            ("reason", Json::Str(e.to_string())),
        ]),
    };
    Ok(Served {
        result,
        layers: vec![("dtd", dout)],
    })
}

fn exec_transform(
    state: &ServiceState,
    input_dtd: &str,
    stylesheet: &str,
    document: &str,
) -> Result<Served, String> {
    let (pipeline, pout) = cached_pipeline(state, input_dtd, stylesheet);
    let pipeline = pipeline?;
    let doc = {
        let _s = obs::span("xml.parse");
        parse_document(document, pipeline.input_dtd().alphabet()).map_err(|e| e.to_string())?
    };
    let out = pipeline.transform(&doc).map_err(|e| e.to_string())?;
    Ok(Served {
        result: Json::obj(vec![("output", Json::Str(raw_to_xml(&out)))]),
        layers: vec![("pipeline", pout)],
    })
}

/// The cached typecheck: verdict artifact first (a warm hit does **zero**
/// construction work — no pipeline compile, no τ₂, no Theorem 4.7); on a
/// miss, each constituent artifact comes from its own cache layer, so a
/// new output DTD against a known stylesheet only pays τ₂ + violations.
/// The violations key is the verdict key without the explain flag, so
/// that layer hits only when the verdict under the same key was evicted
/// or failed to build.
fn exec_typecheck(state: &ServiceState, p: &TypecheckParams) -> Result<Served, String> {
    let opts = &p.opts;
    let vkey = key::verdict_key(
        &p.input_dtd,
        &p.stylesheet,
        &p.output_dtd,
        opts.route.name(),
        opts.state_limit,
        p.explain,
    );
    // Layer outcomes escape the single-flight closure through cells: when
    // this thread leads the build they are set; when the verdict comes
    // from cache (or another thread's flight) they stay unset and the
    // response only names the layers actually touched.
    let pipe_out = Cell::new(None);
    let tau2_out = Cell::new(None);
    let viol_out = Cell::new(None);
    let (vres, vout) = state.cache.get_or_build(vkey, || {
        let (pipeline, pout) = cached_pipeline(state, &p.input_dtd, &p.stylesheet);
        pipe_out.set(Some(pout));
        let pipeline = pipeline?;
        if p.explain {
            // Provenance runs the full decision uncached (the report
            // replays the counterexample against the live automata), but
            // the finished report is itself cached under the verdict key.
            let (verdict, report) = pipeline
                .explain_against_with(&p.output_dtd, opts)
                .map_err(|e| e.to_string())?;
            return Ok(Artifact::Verdict(Arc::new(VerdictArtifact {
                verdict,
                explain_json: Some(report.to_json_string()),
            })));
        }
        let (tres, tout) = state.cache.get_or_build(
            key::tau2_key(&p.input_dtd, &p.stylesheet, &p.output_dtd),
            || {
                pipeline
                    .compile_output_dtd(&p.output_dtd)
                    .map(|n| Artifact::Nta(Arc::new(n)))
                    .map_err(|e| e.to_string())
            },
        );
        tau2_out.set(Some(tout));
        let tau2 = as_nta(tres?)?;
        let (rres, rout) = state.cache.get_or_build(
            key::violations_key(
                &p.input_dtd,
                &p.stylesheet,
                &p.output_dtd,
                opts.route.name(),
                opts.state_limit,
            ),
            || {
                violation_nta(pipeline.transducer(), &tau2, opts)
                    .map(|n| Artifact::Nta(Arc::new(n)))
                    .map_err(|e| e.to_string())
            },
        );
        viol_out.set(Some(rout));
        let violations = as_nta(rres?)?;
        let verdict = pipeline
            .typecheck_with_violations_nta(&tau2, &violations, opts)
            .map_err(|e| e.to_string())?;
        Ok(Artifact::Verdict(Arc::new(VerdictArtifact {
            verdict,
            explain_json: None,
        })))
    });
    let verdict = as_verdict(vres?)?;
    obs::record("verdict.ok", verdict.verdict.is_ok() as u64);
    let mut layers = Vec::new();
    if let Some(o) = pipe_out.get() {
        layers.push(("pipeline", o));
    }
    if let Some(o) = tau2_out.get() {
        layers.push(("tau2", o));
    }
    if let Some(o) = viol_out.get() {
        layers.push(("violations", o));
    }
    layers.push(("verdict", vout));
    Ok(Served {
        result: verdict_result_json(&verdict),
        layers,
    })
}

/// The deterministic `"result"` object of a typecheck response:
/// byte-identical whether the verdict was computed or served warm.
fn verdict_result_json(v: &VerdictArtifact) -> Json {
    let mut fields = Vec::new();
    match &v.verdict {
        DocumentVerdict::Ok => fields.push(("verdict", Json::Str("typechecks".into()))),
        DocumentVerdict::CounterExample { input, bad_output } => {
            fields.push(("verdict", Json::Str("counterexample".into())));
            fields.push(("input", Json::Str(raw_to_xml(input))));
            fields.push((
                "bad_output",
                match bad_output {
                    Some(b) => Json::Str(raw_to_xml(b)),
                    None => Json::Null,
                },
            ));
        }
    }
    if let Some(text) = &v.explain_json {
        let parsed = Json::parse(text).unwrap_or(Json::Str(text.clone()));
        fields.push(("explain", parsed));
    }
    Json::obj(fields)
}

fn base_fields(id: Option<u64>, cmd: &str, ok: bool) -> Vec<(&'static str, Json)> {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", Json::U64(id)));
    }
    fields.push(("ok", Json::Bool(ok)));
    fields.push((
        "cmd",
        Json::Str(
            CMD_NAMES
                .iter()
                .find(|n| **n == cmd)
                .copied()
                .unwrap_or("unknown")
                .into(),
        ),
    ));
    fields
}

fn error_response(id: Option<u64>, cmd: Option<&str>, msg: &str) -> Json {
    let mut fields = base_fields(id, cmd.unwrap_or("unknown"), false);
    fields.push(("error", Json::Str(msg.into())));
    Json::obj(fields)
}

/// The `"cache"` response object: one field per touched layer plus the
/// per-request hit/miss/coalesced totals the round-trip tests assert on.
fn cache_json(layers: &[(&'static str, CacheOutcome)]) -> Json {
    let (mut hits, mut misses, mut coalesced) = (0u64, 0u64, 0u64);
    let mut fields = Vec::new();
    for (name, outcome) in layers {
        fields.push((*name, Json::Str(outcome.name().into())));
        match outcome {
            CacheOutcome::Hit => hits += 1,
            CacheOutcome::Miss => misses += 1,
            CacheOutcome::Coalesced => coalesced += 1,
        }
    }
    fields.push(("hits", Json::U64(hits)));
    fields.push(("misses", Json::U64(misses)));
    fields.push(("coalesced", Json::U64(coalesced)));
    Json::obj(fields)
}

/// Flattens a per-request report into one metrics object (first write of
/// a repeated name wins, matching span order).
fn metrics_json(report: &PipelineReport) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    fn push(fields: &mut Vec<(String, Json)>, key: &str, value: u64) {
        if !fields.iter().any(|(k, _)| k == key) {
            fields.push((key.to_string(), Json::U64(value)));
        }
    }
    for span in &report.spans {
        for (k, v) in &span.metrics {
            push(&mut fields, k, *v);
        }
    }
    for (k, v) in &report.metrics {
        push(&mut fields, k, *v);
    }
    Json::Object(fields)
}

/// Samples the global cache counters onto the event journal (counter
/// tracks in the Chrome trace), once per answered request.
fn journal_cache_counters(state: &ServiceState) {
    if !obs::journal::enabled() {
        return;
    }
    let snap = state.cache.snapshot();
    obs::journal::counter("cache.hits", snap.hits);
    obs::journal::counter("cache.misses", snap.misses);
    obs::journal::counter("cache.coalesces", snap.coalesces);
    obs::journal::counter("cache.evictions", snap.evictions);
    obs::journal::counter("cache.bytes", snap.bytes);
    obs::journal::counter("cache.entries", snap.entries);
}

fn stats_response(state: &ServiceState, id: Option<u64>) -> Json {
    let mut fields = base_fields(id, "stats", true);
    fields.push(("protocol", Json::Str(proto::PROTOCOL.into())));
    fields.push((
        "uptime_ms",
        Json::U64(state.started.elapsed().as_millis() as u64),
    ));
    fields.push((
        "connections",
        Json::U64(state.connections.load(Ordering::Relaxed)),
    ));
    let mut requests: Vec<(String, Json)> = Vec::new();
    let mut total = 0;
    for (i, name) in CMD_NAMES.iter().enumerate() {
        let n = state.requests[i].load(Ordering::Relaxed);
        total += n;
        requests.push((name.to_string(), Json::U64(n)));
    }
    requests.push(("total".into(), Json::U64(total)));
    fields.push(("requests", Json::Object(requests)));
    fields.push(("errors", Json::U64(state.errors.load(Ordering::Relaxed))));
    fields.push(("cache", cache_snapshot_json(state)));
    Json::obj(fields)
}

fn cache_snapshot_json(state: &ServiceState) -> Json {
    let snap = state.cache.snapshot();
    let mut kinds: Vec<(String, Json)> = Vec::new();
    for kind in key::ArtifactKind::ALL {
        let (hits, misses) = snap.per_kind[kind.index()];
        kinds.push((
            kind.name().to_string(),
            Json::obj(vec![
                ("hits", Json::U64(hits)),
                ("misses", Json::U64(misses)),
            ]),
        ));
    }
    Json::obj(vec![
        ("hits", Json::U64(snap.hits)),
        ("misses", Json::U64(snap.misses)),
        ("coalesces", Json::U64(snap.coalesces)),
        ("evictions", Json::U64(snap.evictions)),
        ("bytes", Json::U64(snap.bytes)),
        ("budget_bytes", Json::U64(snap.budget_bytes)),
        ("entries", Json::U64(snap.entries)),
        ("kinds", Json::Object(kinds)),
    ])
}

/// The whole-run report emitted at shutdown: one `serve` span covering
/// the uptime, plus the request and cache totals as metrics. Rendered by
/// `xmltc serve` as a table (or JSON with `--json`) after the accept loop
/// exits — including on SIGINT.
pub fn final_report(state: &ServiceState) -> PipelineReport {
    let snap = state.cache.snapshot();
    let mut metrics: Vec<(String, u64)> = Vec::new();
    metrics.push((
        "serve.connections".into(),
        state.connections.load(Ordering::Relaxed),
    ));
    let mut total = 0;
    for (i, name) in CMD_NAMES.iter().enumerate() {
        let n = state.requests[i].load(Ordering::Relaxed);
        total += n;
        metrics.push((format!("serve.requests.{name}"), n));
    }
    metrics.push(("serve.requests".into(), total));
    metrics.push(("serve.errors".into(), state.errors.load(Ordering::Relaxed)));
    metrics.push(("cache.hits".into(), snap.hits));
    metrics.push(("cache.misses".into(), snap.misses));
    metrics.push(("cache.coalesces".into(), snap.coalesces));
    metrics.push(("cache.evictions".into(), snap.evictions));
    metrics.push(("cache.bytes".into(), snap.bytes));
    metrics.push(("cache.entries".into(), snap.entries));
    for kind in key::ArtifactKind::ALL {
        let (hits, misses) = snap.per_kind[kind.index()];
        metrics.push((format!("cache.hits.{}", kind.name()), hits));
        metrics.push((format!("cache.misses.{}", kind.name()), misses));
    }
    PipelineReport {
        spans: vec![SpanRecord {
            name: "serve".into(),
            depth: 0,
            wall_ns: state.started.elapsed().as_nanos() as u64,
            metrics: Vec::new(),
        }],
        metrics,
    }
}

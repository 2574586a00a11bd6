//! `serve-mix`: one closed-loop client on one connection to a child
//! `xmltc serve --addr 127.0.0.1:0` (release build, default cache budget),
//! pinned to the client's CPU.
//!
//! A run is a fixed number of sessions; each starts a server, sends every
//! hot spec once (the set-up), then sends 20 blocks of requests. Each block of
//! 100 requests then holds 85 typechecks of hot specs (Zipf popularity over
//! the Q2 family at small m and the committed fixtures) — pure `service`
//! work: protocol, cache lookup, loopback — which set `latency_ms_p50`
//! and `ops_per_s`; 3 never-seen specs (the flagship Q2/mod-3 made unique
//! by a trailing stylesheet comment), which run the whole pipeline and set
//! `latency_ms_p99`; and 6 validate plus 6 transform requests on documents
//! of at most 1 000 nodes. Every `result` must equal the in-process result
//! for the same texts, and every request's cache outcome must match the
//! schedule.

use crate::rec::{esc, fnv, Op, Rec};
use crate::rng::Rng;
use crate::{host, tcmix};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use xmltc_dtd::Dtd;
use xmltc_xml::{parse_document, raw_to_xml};
use xmltc_xmlql::{DocumentPipeline, DocumentVerdict, Stylesheet};

/// Sessions per second of `--seconds`.
pub const CYCLES_PER_SECOND: f64 = 0.8;
/// Blocks of 100 requests per server session. Each session starts a fresh
/// server, so the cache's growth from never-seen specs — and with it the
/// server's peak resident set — does not depend on the run's length.
pub const BLOCKS_PER_SESSION: usize = 20;

const HOT_Q2: [(u32, u32, u32); 6] = [
    (2, 2, 2),
    (2, 2, 1),
    (3, 3, 3),
    (3, 2, 3),
    (4, 4, 4),
    (4, 4, 3),
];
const COLD: (u32, u32, u32) = (3, 3, 3);
const HOT_PER_BLOCK: usize = 85;
const COLD_PER_BLOCK: usize = 3;
const DOCS_PER_BLOCK: usize = 6;
const DOC_SIZES: [usize; 7] = [16, 32, 64, 128, 256, 512, 1000];

/// A typecheck spec and the `result` the server must return for it.
struct Spec {
    name: String,
    dtd: String,
    xsl: String,
    out: String,
    result: String,
}

/// One request of the schedule.
struct Req {
    cls: &'static str,
    name: String,
    line: String,
    result: String,
    cache: &'static str,
}

/// Computes the `result` object in process, and checks the verdict
/// against the spec's independent answer.
fn in_process(dtd: &str, xsl: &str, out: &str, typechecks: bool) -> Result<String, String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    let p = DocumentPipeline::new(
        Stylesheet::parse_text(xsl).map_err(|e| s(&e))?,
        Dtd::parse_text(dtd).map_err(|e| s(&e))?,
    )
    .map_err(|e| s(&e))?;
    match p.typecheck_against(out).map_err(|e| s(&e))? {
        DocumentVerdict::Ok if typechecks => Ok(r#"{"verdict":"typechecks"}"#.into()),
        DocumentVerdict::CounterExample { input, bad_output } if !typechecks => Ok(format!(
            r#"{{"verdict":"counterexample","input":"{}","bad_output":{}}}"#,
            esc(&raw_to_xml(&input)),
            bad_output.map_or("null".into(), |b| format!("\"{}\"", esc(&raw_to_xml(&b))))
        )),
        v => Err(format!(
            "in-process verdict {v:?} contradicts the spec's answer"
        )),
    }
}

fn typecheck_line(dtd: &str, xsl: &str, out: &str) -> String {
    format!(
        r#"{{"cmd":"typecheck","input_dtd":"{}","stylesheet":"{}","output_dtd":"{}"}}"#,
        esc(dtd),
        esc(xsl),
        esc(out)
    )
}

fn hot_specs(seed: u64, fixtures_dir: &str) -> Result<Vec<Spec>, String> {
    let mut rng = Rng::new(seed ^ 0x5e12e);
    let mut problems: Vec<tcmix::Problem> = HOT_Q2
        .iter()
        .map(|&(m, c, p)| tcmix::q2(&mut rng, m, c, p))
        .collect();
    problems.extend(tcmix::fixtures(fixtures_dir)?);
    problems
        .into_iter()
        .map(|q| {
            let result = in_process(&q.dtd, &q.xsl, &q.out, q.typechecks() == Some(true))?;
            Ok(Spec {
                name: q.name,
                dtd: q.dtd,
                xsl: q.xsl,
                out: q.out,
                result,
            })
        })
        .collect()
}

/// Everything the run sends. Blocks are generated one at a time, from
/// their own seeded stream, so the client never holds the whole run.
struct Plan {
    seed: u64,
    hot: Vec<Spec>,
    rank: Vec<usize>,
    cold: (String, String, String),
    cold_result: String,
    tags: crate::docs::Tags,
    id_dtd: String,
    id_xsl: String,
    identity: DocumentPipeline,
}

impl Plan {
    fn new(seed: u64, fixtures_dir: &str) -> Result<Plan, String> {
        let s = |e: &dyn std::fmt::Display| e.to_string();
        let hot = hot_specs(seed, fixtures_dir)?;
        let mut rng = Rng::new(seed);
        // Zipf popularity over a seed-shuffled ranking of the hot specs.
        let mut rank: Vec<usize> = (0..hot.len()).collect();
        rng.shuffle(&mut rank);
        let q = tcmix::q2(&mut rng, COLD.0, COLD.1, COLD.2);
        let cold = (q.dtd, q.xsl, q.out);
        let cold_result = in_process(&cold.0, &cold.1, &cold.2, true)?;
        let tagged = format!("{}// never seen: check\n", cold.1);
        if in_process(&cold.0, &tagged, &cold.2, true)? != cold_result {
            return Err("a trailing comment changed the verdict".into());
        }
        let tags = crate::docs::Tags::new(seed);
        let (id_dtd, id_xsl) = tags.identity();
        let identity = DocumentPipeline::new(
            Stylesheet::parse_text(&id_xsl).map_err(|e| s(&e))?,
            Dtd::parse_text(&id_dtd).map_err(|e| s(&e))?,
        )
        .map_err(|e| s(&e))?;
        Ok(Plan {
            seed,
            hot,
            rank,
            cold,
            cold_result,
            tags,
            id_dtd,
            id_xsl,
            identity,
        })
    }

    fn typecheck(&self, s: &Spec, cls: &'static str, cache: &'static str) -> Req {
        Req {
            cls,
            name: s.name.clone(),
            line: typecheck_line(&s.dtd, &s.xsl, &s.out),
            result: s.result.clone(),
            cache,
        }
    }

    /// Validates a chain against the identity pipeline's recursive DTD.
    fn validate(&self, depth: usize, cache: &'static str) -> Req {
        let doc = crate::docs::chain(&self.tags, depth);
        Req {
            cls: "validate",
            name: format!("validate chain {depth}"),
            line: format!(
                r#"{{"cmd":"validate","input_dtd":"{}","document":"{}"}}"#,
                esc(&self.id_dtd),
                esc(&doc)
            ),
            result: r#"{"verdict":"valid"}"#.into(),
            cache,
        }
    }

    /// Transforms a bushy tree through the identity pipeline; the expected
    /// result is the in-process transform, which must equal the input.
    fn transform(&self, n: usize, rng: &mut Rng, cache: &'static str) -> Result<Req, String> {
        let doc = crate::docs::bushy(&self.tags, n, rng);
        let parsed = parse_document(&doc, self.identity.input_dtd().alphabet())
            .map_err(|e| e.to_string())?;
        let out = raw_to_xml(
            &self
                .identity
                .transform(&parsed)
                .map_err(|e| e.to_string())?,
        );
        if out != doc {
            return Err("in-process identity transform changed the document".into());
        }
        Ok(Req {
            cls: "transform",
            name: format!("transform bushy {n}"),
            line: format!(
                r#"{{"cmd":"transform","input_dtd":"{}","stylesheet":"{}","document":"{}"}}"#,
                esc(&self.id_dtd),
                esc(&self.id_xsl),
                esc(&doc)
            ),
            result: format!(r#"{{"output":"{}"}}"#, esc(&out)),
            cache,
        })
    }

    /// The set-up requests: every hot spec once (a pipeline another spec
    /// already built is a hit), then one validate and one transform.
    fn warm(&self) -> Result<Vec<Req>, String> {
        let mut pipelines = std::collections::HashSet::new();
        let mut warm: Vec<Req> = self
            .hot
            .iter()
            .map(|s| {
                let cache = if pipelines.insert((s.dtd.as_str(), s.xsl.as_str())) {
                    "pipeline=miss,tau2=miss,violations=miss,verdict=miss"
                } else {
                    "pipeline=hit,tau2=miss,violations=miss,verdict=miss"
                };
                self.typecheck(s, "warm", cache)
            })
            .collect();
        warm.push(self.validate(4, "dtd=miss"));
        warm.push(self.transform(8, &mut Rng::new(self.seed), "pipeline=miss")?);
        Ok(warm)
    }

    /// Block `b` of 100 requests, in a seed-shuffled order.
    fn block(&self, b: usize) -> Result<Vec<Req>, String> {
        let mut rng = Rng::new(self.seed ^ (b as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let weights: Vec<f64> = (0..self.hot.len()).map(|r| 1.0 / (r + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut reqs = Vec::with_capacity(100);
        for _ in 0..HOT_PER_BLOCK {
            let mut x = rng.next_u64() as f64 / u64::MAX as f64 * total;
            let mut r = 0;
            while r + 1 < weights.len() && x >= weights[r] {
                x -= weights[r];
                r += 1;
            }
            reqs.push(self.typecheck(&self.hot[self.rank[r]], "hot", "verdict=hit"));
        }
        for k in 0..COLD_PER_BLOCK {
            let (dtd, xsl, out) = &self.cold;
            let xsl = format!("{xsl}// never seen: seed {} block {b} #{k}\n", self.seed);
            reqs.push(Req {
                cls: "cold",
                name: format!("cold q2 block {b} #{k}"),
                line: typecheck_line(dtd, &xsl, out),
                result: self.cold_result.clone(),
                cache: "pipeline=miss,tau2=miss,violations=miss,verdict=miss",
            });
        }
        for k in 0..DOCS_PER_BLOCK {
            let size = DOC_SIZES[(b * DOCS_PER_BLOCK + k) % DOC_SIZES.len()];
            reqs.push(self.validate(size, "dtd=hit"));
            reqs.push(self.transform(size, &mut rng, "pipeline=hit")?);
        }
        rng.shuffle(&mut reqs);
        Ok(reqs)
    }
}

/// Splits a one-line JSON object into its top-level `(key, raw value)`
/// pairs; the raw values are byte slices of the line.
fn fields(line: &str) -> Option<Vec<(&str, &str)>> {
    let b = line.as_bytes();
    let mut i = line.find('{')? + 1;
    let mut out = Vec::new();
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    // End of the string starting at the quote at `i`.
    let string_end = |mut i: usize| {
        i += 1;
        while i < b.len() && b[i] != b'"' {
            i += if b[i] == b'\\' { 2 } else { 1 };
        }
        i + 1
    };
    loop {
        skip_ws(&mut i);
        if i >= b.len() || b[i] == b'}' {
            return Some(out);
        }
        if b[i] == b',' {
            i += 1;
            skip_ws(&mut i);
        }
        let kend = string_end(i);
        let key = line.get(i + 1..kend - 1)?;
        i = kend;
        skip_ws(&mut i);
        i += 1; // ':'
        skip_ws(&mut i);
        let start = i;
        let mut depth = 0i32;
        while i < b.len() {
            match b[i] {
                b'"' => {
                    i = string_end(i);
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                b',' if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        out.push((key, line.get(start..i)?.trim()));
    }
}

fn field<'a>(fs: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    fs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// The cache layers a response names, as `layer=outcome,...`.
fn cache_layers(raw: &str) -> String {
    fields(raw)
        .unwrap_or_default()
        .iter()
        .filter(|(_, v)| v.starts_with('"'))
        .map(|(k, v)| format!("{k}={}", v.trim_matches('"')))
        .collect::<Vec<_>>()
        .join(",")
}

/// A running server and the client connection to it.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Server {
    fn start(xmltc: &str) -> Result<Server, String> {
        let mut child = Command::new(xmltc)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {xmltc} serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
        let mut banner = String::new();
        stdout.read_line(&mut banner).map_err(|e| e.to_string())?;
        let addr = banner
            .trim()
            .strip_prefix("xmltc serve: listening on ")
            .ok_or(format!("unexpected server banner `{}`", banner.trim()))?
            .to_string();
        let writer = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Server {
            child,
            _stdout: stdout,
            reader,
            writer,
        })
    }

    fn call(&mut self, line: &str, buf: &mut String) -> Result<(), String> {
        buf.clear();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.writer.write_all(b"\n").map_err(|e| e.to_string())?;
        self.reader.read_line(buf).map_err(|e| e.to_string())?;
        if buf.is_empty() {
            return Err("server closed the connection".into());
        }
        Ok(())
    }

    fn stop(mut self) -> Result<(), String> {
        let mut buf = String::new();
        self.call(r#"{"cmd":"shutdown"}"#, &mut buf)?;
        self.child.wait().map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl Drop for Server {
    /// A server left running by an error is killed and reaped; after
    /// [`Server::stop`] both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Checks one response against its request's schedule; fills the op.
fn judge(req: &Req, resp: &str, op: &mut Op) {
    let fs = fields(resp).unwrap_or_default();
    op.digest = fnv(resp
        .split(r#","wall_ms""#)
        .next()
        .unwrap_or(resp)
        .as_bytes());
    if field(&fs, "ok") != Some("true") {
        op.note = Some(format!("error: {}", resp.trim()));
        return;
    }
    if field(&fs, "result") != Some(req.result.as_str()) {
        op.note = Some(format!(
            "wrong: result differs from the in-process result: {}",
            field(&fs, "result")
                .unwrap_or("-")
                .chars()
                .take(120)
                .collect::<String>()
        ));
    }
    let cache = cache_layers(field(&fs, "cache").unwrap_or("{}"));
    for (layer, name) in [
        ("dtd", "service.cache.dtd"),
        ("pipeline", "service.cache.pipeline"),
        ("tau2", "service.cache.tau2"),
        ("violations", "service.cache.violations"),
        ("verdict", "service.cache.verdict"),
    ] {
        if let Some(o) = cache
            .split(',')
            .find_map(|kv| kv.strip_prefix(&format!("{layer}=")))
        {
            op.ctr.push((name, if o == "hit" { 1.0 } else { 0.0 }));
        }
    }
    if cache != req.cache {
        op.note.get_or_insert_with(|| {
            format!("wrong: cache outcome {cache}, schedule says {}", req.cache)
        });
    }
    let wall_ms = field(&fs, "wall_ms")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    op.ctr.push(("service.wall_ms", wall_ms));
}

/// Runs the workload: `sessions` sessions of [`BLOCKS_PER_SESSION`] blocks.
pub fn run(
    rec: &mut Rec,
    seed: u64,
    sessions: usize,
    trace: bool,
    xmltc: &str,
    fixtures_dir: &str,
) -> Result<(), String> {
    let plan = Plan::new(seed, fixtures_dir)?;
    let warm = plan.warm()?;
    rec.line(&format!(
        r#"{{"k":"meta","ops":{}}}"#,
        sessions * BLOCKS_PER_SESSION * 100
    ));
    let mut digest = warm
        .iter()
        .fold(0u64, |h, r| fnv(format!("{h:x}{}", r.line).as_bytes()));
    let mut buf = String::new();
    for session in 0..sessions {
        rec.reference();
        let t0 = rec.now();
        let mut server = Server::start(xmltc)?;
        let mut replies = Vec::with_capacity(warm.len());
        for r in &warm {
            server.call(&r.line, &mut buf)?;
            replies.push(buf.clone());
        }
        let t1 = rec.now();
        rec.setup(t0, t1, true);
        for (r, resp) in warm.iter().zip(&replies) {
            let mut op = Op::default();
            judge(r, resp, &mut op);
            if let Some(n) = op.note {
                return Err(format!("set-up request {}: {n}", r.name));
            }
        }
        let pid = server.child.id();
        let (run0, wait0) = host::schedstat(pid);
        rec.reference();
        for b in session * BLOCKS_PER_SESSION..(session + 1) * BLOCKS_PER_SESSION {
            let reqs = plan.block(b)?;
            for (j, r) in reqs.iter().enumerate() {
                let i = (b * 100 + j) as u64;
                digest = fnv(format!("{digest:x}{}", r.line).as_bytes());
                let t0 = rec.now();
                server.call(&r.line, &mut buf)?;
                let t1 = rec.now();
                let mut op = Op {
                    cls: r.cls.into(),
                    name: r.name.clone(),
                    t0,
                    t1,
                    ..Op::default()
                };
                judge(r, &buf, &mut op);
                if trace {
                    let wall = op
                        .ctr
                        .iter()
                        .find(|(k, _)| *k == "service.wall_ms")
                        .map_or(0.0, |x| x.1)
                        / 1e3;
                    // The server reports only how long it handled the
                    // request; centre that span inside the round trip.
                    rec.begin_op(i);
                    let trip = rec.span_at("service.transport", t0, t1, None);
                    let mid = t0 + ((t1 - t0) - wall).max(0.0) / 2.0;
                    rec.span_at("service.handle", mid, mid + wall, Some(trip));
                }
                op.ok = op.note.is_none();
                op.decided = op.ok;
                rec.op(i, &op);
                rec.pace(t1 - t0);
            }
        }
        server.call(r#"{"cmd":"stats"}"#, &mut buf)?;
        let bytes = field(&fields(&buf).unwrap_or_default(), "cache")
            .and_then(|c| fields(c).and_then(|f| field(&f, "bytes").map(str::to_string)))
            .unwrap_or_else(|| "0".into());
        let (run1, wait1) = host::schedstat(pid);
        rec.line(&format!(
            r#"{{"k":"server","session":{session},"rss_kb":{},"run_ns":{},"wait_ns":{},"cache_bytes":{bytes}}}"#,
            host::peak_rss_kb(pid),
            run1.saturating_sub(run0),
            wait1.saturating_sub(wait0)
        ));
        server.stop()?;
    }
    rec.line(&format!(
        r#"{{"k":"digest","input_digest":"{digest:016x}"}}"#
    ));
    Ok(())
}

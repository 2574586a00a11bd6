//! The wire protocol: line-delimited JSON over TCP.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line. The protocol identifier is [`PROTOCOL`]; the
//! `stats` response carries it so clients can detect skew.
//!
//! Request grammar (all texts inline — the server never touches the
//! filesystem, which is what makes content-addressed caching sound):
//!
//! ```text
//! request   := { "cmd": CMD, "id"?: uint, ...fields }
//! CMD       := "validate" | "transform" | "typecheck" | "batch"
//!            | "stats" | "shutdown"
//! validate  := "input_dtd": text, "document": text
//! transform := "input_dtd": text, "stylesheet": text, "document": text
//! typecheck := "input_dtd": text, "stylesheet": text, "output_dtd": text,
//!              "route"?: "auto"|"walk"|"mso",
//!              "state_limit"?: uint, "explain"?: bool
//! batch     := "requests": [request...]      (no nested batches)
//! ```
//!
//! Unknown fields are ignored. That covers the retired `threads` and
//! `engine` fields: there is one walk and one emptiness search, so older
//! clients that still send them get the same answer as without them.
//!
//! A request line holds at most [`MAX_REQUEST_BYTES`] (16 MiB) before its
//! newline. A longer line is answered with `ok: false` and an error naming
//! the cap, and the server then closes that connection. A line that is not
//! UTF-8 is answered with `ok: false`, like malformed JSON, and the
//! connection stays open.
//!
//! Responses: `{ "id"?: uint, "ok": bool, "cmd": CMD, ... }`. Successful
//! typechecks carry a deterministic `"result"` object (byte-identical for
//! cache hits and misses), a `"cache"` object naming how each artifact
//! layer was served (`hit` / `miss` / `coalesced`), `"wall_ms"`, and a
//! `"metrics"` object mirroring the pipeline-report metrics for the
//! request (warm verdicts have no `walk.*` keys — nothing was built).
//! Failures carry `"error"`. A `batch` response nests the per-request
//! responses, in order, under `"results"`.

use xmltc_obs::Json;
use xmltc_typecheck::{Route, TypecheckOptions};

/// Protocol identifier, bumped on breaking change.
pub const PROTOCOL: &str = "xmltc.serve/1";

/// The longest request line the server reads, in bytes, not counting the
/// newline.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Parameters of a `typecheck` request.
#[derive(Clone, Debug)]
pub struct TypecheckParams {
    /// Input DTD text.
    pub input_dtd: String,
    /// Stylesheet text.
    pub stylesheet: String,
    /// Output DTD text.
    pub output_dtd: String,
    /// Theorem 4.7 route and state budget.
    pub opts: TypecheckOptions,
    /// Whether to assemble the provenance report.
    pub explain: bool,
}

/// A parsed request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Dynamic DTD validation of one document.
    Validate {
        /// Input DTD text.
        input_dtd: String,
        /// Document XML text.
        document: String,
    },
    /// Run the transformation on one document.
    Transform {
        /// Input DTD text.
        input_dtd: String,
        /// Stylesheet text.
        stylesheet: String,
        /// Document XML text.
        document: String,
    },
    /// Static typecheck.
    Typecheck(Box<TypecheckParams>),
    /// Several requests answered in one response.
    Batch(Vec<Envelope>),
    /// Server + cache statistics.
    Stats,
    /// Graceful shutdown: the server answers, then stops accepting.
    Shutdown,
}

impl Request {
    /// The command name this request was parsed from.
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Validate { .. } => "validate",
            Request::Transform { .. } => "transform",
            Request::Typecheck(_) => "typecheck",
            Request::Batch(_) => "batch",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request plus its optional client-chosen correlation id.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Echoed verbatim in the response when present.
    pub id: Option<u64>,
    /// The request.
    pub request: Request,
}

fn text_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

/// An optional enum-valued field: `default` when absent, else the value
/// `parse` accepts; `names` lists the accepted values for the error.
fn enum_field<T>(
    obj: &Json,
    key: &str,
    default: T,
    parse: fn(&str) -> Option<T>,
    names: &str,
) -> Result<T, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| format!("field `{key}` must be a string"))?;
            parse(s).ok_or_else(|| format!("unknown {key} `{s}` (one of: {names})"))
        }
    }
}

/// Parses one request line. Errors are protocol-level (malformed JSON,
/// missing fields) — the server reports them as `ok:false` responses.
pub fn parse_line(line: &str) -> Result<Envelope, String> {
    let value = Json::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
    parse_value(&value, true)
}

fn parse_value(value: &Json, allow_batch: bool) -> Result<Envelope, String> {
    let id = value.get("id").and_then(Json::as_u64);
    let cmd = value
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing `cmd` field")?;
    let request = match cmd {
        "validate" => Request::Validate {
            input_dtd: text_field(value, "input_dtd")?,
            document: text_field(value, "document")?,
        },
        "transform" => Request::Transform {
            input_dtd: text_field(value, "input_dtd")?,
            stylesheet: text_field(value, "stylesheet")?,
            document: text_field(value, "document")?,
        },
        "typecheck" => {
            let defaults = TypecheckOptions::default();
            let state_limit = match value.get("state_limit") {
                None => defaults.state_limit,
                Some(v) => u32::try_from(
                    v.as_u64()
                        .ok_or("`state_limit` must be a non-negative integer")?,
                )
                .map_err(|_| "`state_limit` out of range".to_string())?,
            };
            let explain = match value.get("explain") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("`explain` must be a boolean".into()),
            };
            Request::Typecheck(Box::new(TypecheckParams {
                input_dtd: text_field(value, "input_dtd")?,
                stylesheet: text_field(value, "stylesheet")?,
                output_dtd: text_field(value, "output_dtd")?,
                opts: TypecheckOptions {
                    route: enum_field(
                        value,
                        "route",
                        defaults.route,
                        Route::parse,
                        "auto|walk|mso",
                    )?,
                    state_limit,
                },
                explain,
            }))
        }
        "batch" => {
            if !allow_batch {
                return Err("nested `batch` requests are not allowed".into());
            }
            let items = match value.get("requests") {
                Some(Json::Array(items)) => items,
                _ => return Err("`batch` requires a `requests` array".into()),
            };
            let parsed = items
                .iter()
                .map(|v| parse_value(v, false))
                .collect::<Result<Vec<_>, _>>()?;
            Request::Batch(parsed)
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown cmd `{other}`")),
    };
    Ok(Envelope { id, request })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typecheck_with_defaults() {
        // Unknown fields, such as the retired `threads` and `engine`, are
        // ignored.
        let env = parse_line(
            r#"{"cmd":"typecheck","id":7,"input_dtd":"root := a*","stylesheet":"root -> out","output_dtd":"out := @eps","threads":4,"engine":"eager"}"#,
        )
        .unwrap();
        assert_eq!(env.id, Some(7));
        let Request::Typecheck(p) = env.request else {
            panic!("wrong variant");
        };
        assert_eq!(p.opts.route, Route::Auto);
        assert_eq!(p.opts.state_limit, TypecheckOptions::default().state_limit);
        assert!(!p.explain);
    }

    #[test]
    fn rejects_unknown_route_and_nested_batch() {
        let err = parse_line(
            r#"{"cmd":"typecheck","input_dtd":"d","stylesheet":"s","output_dtd":"o","route":"fast"}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown route"), "{err}");
        let err = parse_line(r#"{"cmd":"batch","requests":[{"cmd":"batch","requests":[]}]}"#)
            .unwrap_err();
        assert!(err.contains("nested"), "{err}");
    }

    #[test]
    fn batch_preserves_order_and_ids() {
        let env =
            parse_line(r#"{"cmd":"batch","requests":[{"cmd":"stats","id":1},{"cmd":"shutdown"}]}"#)
                .unwrap();
        let Request::Batch(items) = env.request else {
            panic!("wrong variant");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].id, Some(1));
        assert!(matches!(items[0].request, Request::Stats));
        assert!(matches!(items[1].request, Request::Shutdown));
    }
}

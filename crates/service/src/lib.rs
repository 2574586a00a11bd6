//! # xmltc-service
//!
//! The `xmltc serve` long-running typecheck service.
//!
//! A CI fleet typechecking the same stylesheets against evolving DTDs
//! pays the expensive part of the paper's pipeline — the Theorem 4.7
//! violation-automaton construction — over and over for inputs that
//! rarely change. This crate amortizes it: a std-only TCP server
//! ([`server`]) speaks line-delimited JSON ([`proto`]) and answers every
//! request from a **content-addressed artifact cache** ([`cache`]) keyed
//! on FNV digests of the request *texts* ([`key`]), never on paths or
//! session identity:
//!
//! * parsed input DTDs (for `validate`),
//! * compiled stylesheet pipelines (transducer + `τ₁`),
//! * compiled output automata `τ₂`,
//! * violation automata — the Proposition 4.6 + Theorem 4.7 output for
//!   `(transducer, τ₂)`, reused when the verdict under the same key was
//!   evicted or failed to build,
//! * final verdicts with optional provenance reports.
//!
//! A warm repeated `typecheck` is served entirely from the verdict layer:
//! byte-identical result, zero construction work (its response metrics
//! carry no `walk.*` keys because no walk ran). Concurrent misses on one
//! key are single-flighted — one build, every waiter shares the `Arc` —
//! and an approximate-byte LRU budget bounds memory. See DESIGN.md
//! ("Service & artifact cache") for the protocol grammar and eviction
//! policy, and `xmltc serve --help` / `xmltc client --help` for the CLI.

// `deny`, not the workspace's usual `forbid`: the SIGINT handler in
// [`server::sigint`] needs one locally-allowed `unsafe` block to register
// a C signal handler. Everything else stays checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod key;
pub mod proto;
pub mod server;

pub use cache::{Artifact, ArtifactCache, CacheOutcome, CacheSnapshot, VerdictArtifact};
pub use client::Client;
pub use key::{ArtifactKey, ArtifactKind, ContentHash};
pub use proto::{Envelope, Request, TypecheckParams, PROTOCOL};
pub use server::{ServeConfig, Server, ServiceState};

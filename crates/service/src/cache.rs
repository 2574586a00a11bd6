//! The content-addressed artifact cache.
//!
//! Stores the expensive intermediates of the typecheck pipeline behind
//! [`Arc`]s, keyed by [`ArtifactKey`](crate::key::ArtifactKey) content
//! digests:
//!
//! * parsed input DTDs (`validate`),
//! * compiled [`DocumentPipeline`]s (stylesheet + input DTD),
//! * compiled output automata `τ₂`,
//! * Theorem 4.7 violation automata — the dominant cost of a typecheck,
//! * final verdicts with optional provenance reports.
//!
//! Three mechanisms, all std-only:
//!
//! * **LRU byte-budget eviction** — every artifact carries an approximate
//!   byte size; inserting past the budget evicts least-recently-used
//!   entries first. An artifact larger than the whole budget is returned
//!   to the caller but never retained.
//! * **Single-flight deduplication** — when N threads miss on the same
//!   key concurrently, exactly one builds; the rest block on a
//!   [`Condvar`] and receive the same `Arc` (counted as *coalesced*, not
//!   as misses). Build errors propagate to every waiter and are **not**
//!   cached, so a transient failure doesn't poison the key.
//! * **Atomic stats** — hits/misses/evictions/coalesces, globally and per
//!   artifact kind, readable without taking the map lock.

use crate::key::{ArtifactKey, ArtifactKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use xmltc_automata::Nta;
use xmltc_dtd::Dtd;
use xmltc_xmlql::pipeline::{DocumentPipeline, DocumentVerdict};

/// A cached verdict: the document-level outcome plus, for explain
/// requests, the provenance report JSON (schema `xmltc.explain/1`).
#[derive(Clone)]
pub struct VerdictArtifact {
    /// The typecheck verdict.
    pub verdict: DocumentVerdict,
    /// The explain report, pre-encoded, when the request asked for one.
    pub explain_json: Option<String>,
}

/// One cacheable artifact. Clones are `Arc` bumps.
#[derive(Clone)]
pub enum Artifact {
    /// A parsed input DTD.
    Dtd(Arc<Dtd>),
    /// A compiled stylesheet pipeline.
    Pipeline(Arc<DocumentPipeline>),
    /// A compiled tree automaton (`τ₂` or a violation automaton).
    Nta(Arc<Nta>),
    /// A final verdict.
    Verdict(Arc<VerdictArtifact>),
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Artifact::Dtd(_) => "dtd",
            Artifact::Pipeline(_) => "pipeline",
            Artifact::Nta(_) => "nta",
            Artifact::Verdict(_) => "verdict",
        };
        write!(f, "Artifact::{kind}(~{} bytes)", self.approx_bytes())
    }
}

impl Artifact {
    /// Approximate retained size in bytes, for the eviction budget.
    ///
    /// These are estimates, not measurements: automata are costed per
    /// state/transition, pipelines per transducer state, strings by
    /// length, each plus a fixed overhead. The budget only needs relative
    /// honesty — a 100k-state violation DBTA must cost vastly more than a
    /// ten-rule DTD — not byte accuracy.
    pub fn approx_bytes(&self) -> usize {
        const FIXED: usize = 512;
        match self {
            Artifact::Dtd(d) => FIXED + 64 * d.alphabet().len(),
            Artifact::Pipeline(p) => {
                FIXED
                    + 256 * p.transducer().core().n_states() as usize
                    + 64 * p.input_dtd().alphabet().len()
            }
            Artifact::Nta(n) => FIXED + 16 * n.n_states() as usize + 32 * n.n_transitions(),
            Artifact::Verdict(v) => {
                let verdict = match &v.verdict {
                    DocumentVerdict::Ok => 0,
                    DocumentVerdict::CounterExample { input, bad_output } => {
                        64 * (input.size() + bad_output.as_ref().map_or(0, |b| b.size()))
                    }
                };
                FIXED + verdict + v.explain_json.as_ref().map_or(0, String::len)
            }
        }
    }
}

/// How a cache access was served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// Found in the cache.
    Hit,
    /// Built by this caller.
    Miss,
    /// Another thread was already building it; this caller waited and
    /// shared the result.
    Coalesced,
}

impl CacheOutcome {
    /// Stable lowercase name, used in responses.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

/// A point-in-time copy of the cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheSnapshot {
    /// Lookups served from the map.
    pub hits: u64,
    /// Lookups that built the artifact.
    pub misses: u64,
    /// Lookups that waited on another thread's build.
    pub coalesces: u64,
    /// Entries evicted to stay under budget.
    pub evictions: u64,
    /// Approximate retained bytes.
    pub bytes: u64,
    /// Live entries.
    pub entries: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
    /// Per-kind (hits, misses), indexed by [`ArtifactKind::index`].
    pub per_kind: [(u64, u64); ArtifactKind::COUNT],
}

#[derive(Default)]
struct KindStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesces: AtomicU64,
    evictions: AtomicU64,
    per_kind: [KindStats; ArtifactKind::COUNT],
}

/// The single-flight rendezvous for one in-progress build.
struct Flight {
    slot: Mutex<Option<Result<Artifact, String>>>,
    done: Condvar,
}

struct Entry {
    artifact: Artifact,
    bytes: usize,
    /// Logical LRU clock stamp; larger = used more recently.
    stamp: u64,
}

struct Inner {
    entries: HashMap<ArtifactKey, Entry>,
    inflight: HashMap<ArtifactKey, Arc<Flight>>,
    bytes: usize,
    clock: u64,
}

/// The artifact cache. Cheap to share: wrap in an `Arc`.
pub struct ArtifactCache {
    budget: usize,
    inner: Mutex<Inner>,
    stats: Stats,
}

impl ArtifactCache {
    /// Default byte budget: 256 MiB.
    pub const DEFAULT_BUDGET: usize = 256 << 20;

    /// A cache with the given approximate byte budget (0 disables
    /// retention entirely: every access builds, nothing is kept — still
    /// single-flighted).
    pub fn new(budget_bytes: usize) -> ArtifactCache {
        ArtifactCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                inflight: HashMap::new(),
                bytes: 0,
                clock: 0,
            }),
            stats: Stats::default(),
        }
    }

    /// Returns the cached artifact for `key`, or builds it with `build`.
    ///
    /// Concurrent callers for the same key are single-flighted: one runs
    /// `build` (without holding the cache lock), the others wait and share
    /// the result. `Err` results propagate to all waiters but are not
    /// retained. A panicking `build` counts as an `Err`, so it never
    /// leaves its key in flight.
    pub fn get_or_build(
        &self,
        key: ArtifactKey,
        build: impl FnOnce() -> Result<Artifact, String>,
    ) -> (Result<Artifact, String>, CacheOutcome) {
        let flight = {
            let mut inner = lock(&self.inner);
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.stamp = stamp;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.per_kind[key.kind.index()]
                    .hits
                    .fetch_add(1, Ordering::Relaxed);
                return (Ok(entry.artifact.clone()), CacheOutcome::Hit);
            }
            match inner.inflight.get(&key) {
                Some(f) => f.clone(),
                None => {
                    let flight = Arc::new(Flight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    inner.inflight.insert(key, flight.clone());
                    drop(inner);
                    // Leader: build outside the lock, so a panic leaves no
                    // cache state half-updated and can become an error.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
                        .unwrap_or_else(|p| {
                            Err(format!("artifact build panicked: {}", panic_text(&*p)))
                        });
                    let mut inner = lock(&self.inner);
                    inner.inflight.remove(&key);
                    if let Ok(artifact) = &result {
                        self.insert_locked(&mut inner, key, artifact.clone());
                    }
                    drop(inner);
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    self.stats.per_kind[key.kind.index()]
                        .misses
                        .fetch_add(1, Ordering::Relaxed);
                    let mut slot = lock(&flight.slot);
                    *slot = Some(result.clone());
                    flight.done.notify_all();
                    return (result, CacheOutcome::Miss);
                }
            }
        };
        // Waiter: block until the leader publishes.
        let mut slot = lock(&flight.slot);
        while slot.is_none() {
            slot = flight
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.stats.coalesces.fetch_add(1, Ordering::Relaxed);
        (slot.clone().unwrap(), CacheOutcome::Coalesced)
    }

    /// Inserts under the already-held lock, then evicts LRU entries until
    /// back under budget. The just-inserted entry is evicted last — and
    /// only when it alone exceeds the whole budget (callers still hold the
    /// `Arc`, so the build is never wasted).
    fn insert_locked(&self, inner: &mut Inner, key: ArtifactKey, artifact: Artifact) {
        let bytes = artifact.approx_bytes();
        inner.clock += 1;
        let stamp = inner.clock;
        let old = inner.entries.insert(
            key,
            Entry {
                artifact,
                bytes,
                stamp,
            },
        );
        inner.bytes += bytes;
        if let Some(old) = old {
            inner.bytes -= old.bytes;
        }
        while inner.bytes > self.budget {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let victim = match victim {
                Some(v) => v,
                // Only the fresh entry remains and it alone busts the
                // budget: drop it from the map too.
                None => key,
            };
            if let Some(e) = inner.entries.remove(&victim) {
                inner.bytes -= e.bytes;
            }
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            if victim == key {
                break;
            }
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        let (bytes, entries) = {
            let inner = lock(&self.inner);
            (inner.bytes as u64, inner.entries.len() as u64)
        };
        let mut per_kind = [(0, 0); ArtifactKind::COUNT];
        for (i, k) in self.stats.per_kind.iter().enumerate() {
            per_kind[i] = (
                k.hits.load(Ordering::Relaxed),
                k.misses.load(Ordering::Relaxed),
            );
        }
        CacheSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            coalesces: self.stats.coalesces.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            bytes,
            entries,
            budget_bytes: self.budget as u64,
            per_kind,
        }
    }
}

/// Locks `m` even when a thread panicked while holding it. Builds run
/// outside every lock, and each update under one is a few map and counter
/// steps, so the worst a panic midway can leave is an approximate byte
/// count; failing every later request over it would take `serve` down.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The message of a panic payload, when it carries one.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::dtd_key;

    fn dtd_artifact(text: &str) -> Artifact {
        Artifact::Dtd(Arc::new(Dtd::parse_text(text).unwrap()))
    }

    #[test]
    fn hit_after_miss() {
        let cache = ArtifactCache::new(ArtifactCache::DEFAULT_BUDGET);
        let key = dtd_key("root := a*\na := @eps");
        let (a, o) = cache.get_or_build(key, || Ok(dtd_artifact("root := a*\na := @eps")));
        assert!(a.is_ok());
        assert_eq!(o, CacheOutcome::Miss);
        let (b, o) = cache.get_or_build(key, || panic!("must not rebuild"));
        assert!(b.is_ok());
        assert_eq!(o, CacheOutcome::Hit);
        let s = cache.snapshot();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        let cache = ArtifactCache::new(ArtifactCache::DEFAULT_BUDGET);
        let key = dtd_key("bad");
        let (r, o) = cache.get_or_build(key, || Err("boom".into()));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(o, CacheOutcome::Miss);
        // The failure was not retained: the next access builds again.
        let (r, o) = cache.get_or_build(key, || Ok(dtd_artifact("root := a*\na := @eps")));
        assert!(r.is_ok());
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(cache.snapshot().entries, 1);
    }

    #[test]
    fn panicking_build_is_an_error_and_does_not_wedge_its_key() {
        let cache = Arc::new(ArtifactCache::new(ArtifactCache::DEFAULT_BUDGET));
        let key = dtd_key("panics");
        let (r, o) = cache.get_or_build(key, || panic!("builder bug"));
        let err = r.unwrap_err();
        assert!(
            err.contains("artifact build panicked: builder bug"),
            "{err}"
        );
        assert_eq!(o, CacheOutcome::Miss);
        // The key is free again: the next request rebuilds. Run it on a
        // thread so that a wedged key fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let c = Arc::clone(&cache);
        std::thread::spawn(move || {
            let (r, o) = c.get_or_build(key, || Ok(dtd_artifact("root := a*\na := @eps")));
            let _ = tx.send((r.is_ok(), o));
        });
        let got = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(got, Ok((true, CacheOutcome::Miss)));
    }

    #[test]
    fn poisoned_lock_leaves_the_cache_usable() {
        let cache = Arc::new(ArtifactCache::new(ArtifactCache::DEFAULT_BUDGET));
        let c = Arc::clone(&cache);
        let poisoner = std::thread::spawn(move || {
            let _held = c.inner.lock().unwrap();
            panic!("panic while holding the cache lock");
        });
        assert!(poisoner.join().is_err());
        assert!(cache.inner.is_poisoned());
        let key = dtd_key("root := a*\na := @eps");
        let (r, o) = cache.get_or_build(key, || Ok(dtd_artifact("root := a*\na := @eps")));
        assert!(r.is_ok());
        assert_eq!(o, CacheOutcome::Miss);
        let s = cache.snapshot();
        assert_eq!((s.misses, s.entries), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let one = dtd_artifact("root := a*\na := @eps");
        let bytes = one.approx_bytes();
        // Budget fits two entries but not three.
        let cache = ArtifactCache::new(2 * bytes + bytes / 2);
        let k1 = dtd_key("one");
        let k2 = dtd_key("two");
        let k3 = dtd_key("three");
        cache.get_or_build(k1, || Ok(one.clone())).0.unwrap();
        cache.get_or_build(k2, || Ok(one.clone())).0.unwrap();
        // Touch k1 so k2 becomes the LRU victim.
        assert_eq!(
            cache.get_or_build(k1, || panic!("cached")).1,
            CacheOutcome::Hit
        );
        cache.get_or_build(k3, || Ok(one.clone())).0.unwrap();
        let s = cache.snapshot();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // k2 was evicted; k1 and k3 remain.
        assert_eq!(
            cache.get_or_build(k1, || panic!("cached")).1,
            CacheOutcome::Hit
        );
        assert_eq!(
            cache.get_or_build(k3, || panic!("cached")).1,
            CacheOutcome::Hit
        );
        assert_eq!(
            cache.get_or_build(k2, || Ok(one.clone())).1,
            CacheOutcome::Miss
        );
    }

    #[test]
    fn oversize_artifact_serves_but_is_not_retained() {
        let cache = ArtifactCache::new(16); // smaller than any artifact
        let key = dtd_key("root := a*\na := @eps");
        let (r, o) = cache.get_or_build(key, || Ok(dtd_artifact("root := a*\na := @eps")));
        assert!(r.is_ok());
        assert_eq!(o, CacheOutcome::Miss);
        let s = cache.snapshot();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert!(s.evictions >= 1);
    }

    #[test]
    fn single_flight_coalesces_concurrent_builds() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(ArtifactCache::new(ArtifactCache::DEFAULT_BUDGET));
        let builds = Arc::new(AtomicUsize::new(0));
        let key = dtd_key("root := a*\na := @eps");
        const THREADS: usize = 8;
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, builds, barrier) = (cache.clone(), builds.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    let (r, o) = cache.get_or_build(key, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough that the other
                        // threads arrive while the build is in progress.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(dtd_artifact("root := a*\na := @eps"))
                    });
                    assert!(r.is_ok());
                    o
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Exactly one build ran; every other thread either coalesced onto
        // the flight or (if it started after publication) hit the cache.
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| **o == CacheOutcome::Miss)
                .count(),
            1
        );
        let s = cache.snapshot();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesces, (THREADS - 1) as u64);
    }
}

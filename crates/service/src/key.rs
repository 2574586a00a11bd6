//! Content-addressed artifact keys.
//!
//! Every cacheable artifact is keyed by a 128-bit FNV-1a digest of the
//! *texts and options that determine it* — never by file paths or request
//! identity. Two requests that ship byte-identical DTD/stylesheet texts
//! share artifacts no matter where the bytes came from; a single changed
//! byte yields a fresh key.
//!
//! The digest is two independent 64-bit FNV-1a streams (distinct offset
//! bases) over length-prefixed fields. Length prefixes make the encoding
//! injective — `("ab", "c")` and `("a", "bc")` hash differently — and the
//! second stream pushes accidental collisions from "birthday-plausible at
//! scale" (64-bit) to "negligible" (128-bit). FNV is already the
//! workspace's hash of choice (`trees::fx`); this module reuses the same
//! constants rather than pulling in a cryptographic dependency.

/// 64-bit FNV-1a offset basis (stream A).
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Stream B starts from a different, fixed basis so the two streams are
/// not related by a common prefix.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
/// 64-bit FNV prime (both streams).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 128-bit content digest: two independent FNV-1a streams.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ContentHash(pub u64, pub u64);

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// An incremental 128-bit FNV-1a hasher over length-prefixed fields.
pub struct Hasher {
    a: u64,
    b: u64,
}

impl Hasher {
    /// A fresh hasher at the offset bases.
    pub fn new() -> Hasher {
        Hasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one field, prefixed by its byte length (injective framing).
    pub fn field(&mut self, text: &str) -> &mut Hasher {
        self.bytes(&(text.len() as u64).to_le_bytes());
        self.bytes(text.as_bytes());
        self
    }

    /// Feeds one numeric field (fixed 8-byte frame).
    pub fn num(&mut self, n: u64) -> &mut Hasher {
        self.bytes(&n.to_le_bytes());
        self
    }

    /// The final digest.
    pub fn finish(&self) -> ContentHash {
        ContentHash(self.a, self.b)
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// What kind of artifact a key names. Part of the key, so a DTD digest
/// and a pipeline digest can never alias even if their hashes collided.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArtifactKind {
    /// A parsed input DTD (for `validate`): keyed on the DTD text.
    Dtd,
    /// A compiled [`DocumentPipeline`](xmltc_xmlql::pipeline::DocumentPipeline):
    /// keyed on (input DTD text, stylesheet text).
    Pipeline,
    /// The compiled output automaton `τ₂`: keyed on (input DTD,
    /// stylesheet, output DTD) — the stylesheet fixes the output alphabet,
    /// so the same output-DTD text compiles differently under different
    /// pipelines.
    Tau2,
    /// The Theorem 4.7 violation automaton for `(transducer, τ₂)`: keyed
    /// on (input DTD, stylesheet, output DTD, route, state limit).
    Violations,
    /// A final verdict (with optional provenance report): keyed like
    /// [`ArtifactKind::Violations`] plus the explain flag.
    Verdict,
}

impl ArtifactKind {
    /// Stable lowercase name, used in stats output and responses.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Dtd => "dtd",
            ArtifactKind::Pipeline => "pipeline",
            ArtifactKind::Tau2 => "tau2",
            ArtifactKind::Violations => "violations",
            ArtifactKind::Verdict => "verdict",
        }
    }

    /// Dense index for per-kind stats arrays.
    pub const COUNT: usize = 5;
    /// Index of this kind in `[0, COUNT)`.
    pub fn index(self) -> usize {
        match self {
            ArtifactKind::Dtd => 0,
            ArtifactKind::Pipeline => 1,
            ArtifactKind::Tau2 => 2,
            ArtifactKind::Violations => 3,
            ArtifactKind::Verdict => 4,
        }
    }
    /// All kinds, in [`ArtifactKind::index`] order.
    pub const ALL: [ArtifactKind; ArtifactKind::COUNT] = [
        ArtifactKind::Dtd,
        ArtifactKind::Pipeline,
        ArtifactKind::Tau2,
        ArtifactKind::Violations,
        ArtifactKind::Verdict,
    ];
}

/// A complete cache key: kind + content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactKey {
    /// The artifact kind.
    pub kind: ArtifactKind,
    /// The content digest.
    pub hash: ContentHash,
}

/// Key of a parsed input DTD.
pub fn dtd_key(input_dtd: &str) -> ArtifactKey {
    ArtifactKey {
        kind: ArtifactKind::Dtd,
        hash: Hasher::new().field(input_dtd).finish(),
    }
}

/// Key of a compiled stylesheet pipeline.
pub fn pipeline_key(input_dtd: &str, stylesheet: &str) -> ArtifactKey {
    ArtifactKey {
        kind: ArtifactKind::Pipeline,
        hash: Hasher::new().field(input_dtd).field(stylesheet).finish(),
    }
}

/// Key of a compiled output automaton `τ₂`.
pub fn tau2_key(input_dtd: &str, stylesheet: &str, output_dtd: &str) -> ArtifactKey {
    ArtifactKey {
        kind: ArtifactKind::Tau2,
        hash: Hasher::new()
            .field(input_dtd)
            .field(stylesheet)
            .field(output_dtd)
            .finish(),
    }
}

/// Key of a violation automaton (route + state budget affect the
/// construction; thread count does not — see [`ArtifactKind::Violations`]).
pub fn violations_key(
    input_dtd: &str,
    stylesheet: &str,
    output_dtd: &str,
    route: &str,
    state_limit: u32,
) -> ArtifactKey {
    ArtifactKey {
        kind: ArtifactKind::Violations,
        hash: Hasher::new()
            .field(input_dtd)
            .field(stylesheet)
            .field(output_dtd)
            .field(route)
            .num(state_limit as u64)
            .finish(),
    }
}

/// Key of a final verdict artifact.
pub fn verdict_key(
    input_dtd: &str,
    stylesheet: &str,
    output_dtd: &str,
    route: &str,
    state_limit: u32,
    explain: bool,
) -> ArtifactKey {
    ArtifactKey {
        kind: ArtifactKind::Verdict,
        hash: Hasher::new()
            .field(input_dtd)
            .field(stylesheet)
            .field(output_dtd)
            .field(route)
            .num(state_limit as u64)
            .num(explain as u64)
            .finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_prefix_is_injective() {
        let ab_c = Hasher::new().field("ab").field("c").finish();
        let a_bc = Hasher::new().field("a").field("bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn digest_is_stable_and_content_addressed() {
        let k1 = pipeline_key("root := a*", "a -> b");
        let k2 = pipeline_key("root := a*", "a -> b");
        let k3 = pipeline_key("root := a*", "a -> c");
        assert_eq!(k1, k2);
        assert_ne!(k1.hash, k3.hash);
        let v = violations_key("d", "s", "o", "auto", 100);
        assert_ne!(v, violations_key("d", "s", "o", "walk", 100));
        assert_ne!(v, violations_key("d", "s", "o", "auto", 101));
    }

    #[test]
    fn kinds_do_not_alias() {
        let d = dtd_key("root := a*");
        let h = Hasher::new().field("root := a*").finish();
        assert_eq!(d.hash, h);
        // Same digest, different kind: distinct keys.
        let fake = ArtifactKey {
            kind: ArtifactKind::Pipeline,
            hash: h,
        };
        assert_ne!(d, fake);
    }

    #[test]
    fn kind_indices_are_dense_and_named() {
        for (i, k) in ArtifactKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }
}

//! One-call document-level pipeline: stylesheet + input DTD + output DTD.
//!
//! Wraps encoding bookkeeping (Section 2.1) so callers think purely in
//! terms of XML documents and DTDs:
//!
//! ```
//! use xmltc_xmlql::pipeline::DocumentPipeline;
//! use xmltc_xmlql::{Stylesheet, Template};
//! use xmltc_dtd::Dtd;
//!
//! let sheet = Stylesheet::new(vec![
//!     Template::parse("root", "out(@apply)").unwrap(),
//!     Template::parse("a", "b").unwrap(),
//! ]);
//! let input = Dtd::parse_text("root := a*\na := @eps").unwrap();
//! let p = DocumentPipeline::new(sheet, input).unwrap();
//! let verdict = p.typecheck_against("out := b*\nb := @eps").unwrap();
//! assert!(verdict.is_ok());
//! ```

use crate::error::QueryError;
use crate::xslt::Stylesheet;
use std::sync::Arc;
use xmltc_automata::Nta;
use xmltc_core::{MachineError, PebbleTransducer};
use xmltc_dtd::{Dtd, DtdError};
use xmltc_obs as obs;
use xmltc_trees::{decode_raw, encode, Alphabet, EncodedAlphabet, RawTree, UnrankedTree};
use xmltc_typecheck::inverse::violations_within;
use xmltc_typecheck::{typecheck_within, TypecheckError, TypecheckOptions, TypecheckOutcome};

/// A compiled stylesheet pipeline over documents.
pub struct DocumentPipeline {
    stylesheet: Stylesheet,
    input_dtd: Dtd,
    transducer: PebbleTransducer,
    enc_in: EncodedAlphabet,
    enc_out: EncodedAlphabet,
    tau1: Nta,
}

/// A document-level typechecking verdict.
#[derive(Clone, Debug)]
pub enum DocumentVerdict {
    /// Every valid input maps only into the output DTD.
    Ok,
    /// A valid input whose output can violate the DTD, with the output.
    CounterExample {
        /// The offending document.
        input: RawTree,
        /// An offending output document, when extractable.
        bad_output: Option<RawTree>,
    },
}

impl DocumentVerdict {
    /// True when the transformation typechecks.
    pub fn is_ok(&self) -> bool {
        matches!(self, DocumentVerdict::Ok)
    }
}

/// Errors from the document pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Query/stylesheet level.
    Query(QueryError),
    /// DTD level.
    Dtd(DtdError),
    /// Machine level.
    Machine(MachineError),
    /// Typechecking level.
    Typecheck(TypecheckError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Query(e) => write!(f, "{e}"),
            PipelineError::Dtd(e) => write!(f, "{e}"),
            PipelineError::Machine(e) => write!(f, "{e}"),
            PipelineError::Typecheck(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<QueryError> for PipelineError {
    fn from(e: QueryError) -> Self {
        PipelineError::Query(e)
    }
}
impl From<DtdError> for PipelineError {
    fn from(e: DtdError) -> Self {
        PipelineError::Dtd(e)
    }
}
impl From<MachineError> for PipelineError {
    fn from(e: MachineError) -> Self {
        PipelineError::Machine(e)
    }
}
impl From<TypecheckError> for PipelineError {
    fn from(e: TypecheckError) -> Self {
        PipelineError::Typecheck(e)
    }
}

impl DocumentPipeline {
    /// Compiles the stylesheet against the input DTD.
    pub fn new(stylesheet: Stylesheet, input_dtd: Dtd) -> Result<DocumentPipeline, PipelineError> {
        let _span = obs::span("pipeline.compile");
        let (transducer, enc_in, enc_out) = {
            let _span = obs::span("xmlql.compile");
            let out = stylesheet.compile(input_dtd.alphabet())?;
            obs::record("transducer.k", out.0.k() as u64);
            obs::record("transducer.states", out.0.core().n_states() as u64);
            out
        };
        let tau1 = {
            let _span = obs::span("input_dtd.compile");
            let tau1 = input_dtd.compile(&enc_in)?;
            obs::record("tau1.states", tau1.n_states() as u64);
            obs::record("tau1.transitions", tau1.n_transitions() as u64);
            tau1
        };
        Ok(DocumentPipeline {
            stylesheet,
            input_dtd,
            transducer,
            enc_in,
            enc_out,
            tau1,
        })
    }

    /// The compiled transducer.
    pub fn transducer(&self) -> &PebbleTransducer {
        &self.transducer
    }

    /// The input DTD.
    pub fn input_dtd(&self) -> &Dtd {
        &self.input_dtd
    }

    /// The stylesheet.
    pub fn stylesheet(&self) -> &Stylesheet {
        &self.stylesheet
    }

    /// The output tag alphabet.
    pub fn output_alphabet(&self) -> &Arc<Alphabet> {
        self.enc_out.source()
    }

    /// The compiled input type over the binary encoding.
    pub(crate) fn tau1(&self) -> &Nta {
        &self.tau1
    }

    /// The input-side encoding.
    pub(crate) fn enc_in(&self) -> &EncodedAlphabet {
        &self.enc_in
    }

    /// The output-side encoding.
    pub(crate) fn enc_out(&self) -> &EncodedAlphabet {
        &self.enc_out
    }

    /// Transforms a document (validating it first), through the compiled
    /// machine (not the interpreter).
    pub fn transform(&self, doc: &UnrankedTree) -> Result<RawTree, PipelineError> {
        let _span = obs::span("pipeline.transform");
        self.input_dtd.validate(doc)?;
        let encoded = encode(doc, &self.enc_in).map_err(QueryError::Tree)?;
        let out = xmltc_core::eval(&self.transducer, &encoded)?;
        Ok(decode_raw(&out, &self.enc_out).map_err(QueryError::Tree)?)
    }

    /// Statically typechecks the transformation against an output DTD
    /// given in text syntax over the stylesheet's output tags.
    pub fn typecheck_against(
        &self,
        output_dtd_text: &str,
    ) -> Result<DocumentVerdict, PipelineError> {
        self.typecheck_against_with(output_dtd_text, &TypecheckOptions::default())
    }

    /// [`DocumentPipeline::typecheck_against`] with explicit
    /// [`TypecheckOptions`] (the state budget). The Theorem 4.7 walk is
    /// guided by the input DTD ([`xmltc_typecheck::typecheck_within`]).
    pub fn typecheck_against_with(
        &self,
        output_dtd_text: &str,
        opts: &TypecheckOptions,
    ) -> Result<DocumentVerdict, PipelineError> {
        let tau2 = self.compile_output_dtd(output_dtd_text)?;
        let outcome = typecheck_within(&self.transducer, &self.tau1, &tau2, opts)?;
        self.decode_outcome(outcome)
    }

    /// The Theorem 4.7 automaton the document decision searches against a
    /// compiled `τ₂`: for a 1-pebble transducer, the input DTD's trees
    /// that violate `τ₂` ([`violations_within`]). It depends on the input
    /// DTD, the stylesheet, `τ₂` and the state budget, which is what the
    /// `xmltc serve` artifact cache keys it on.
    pub fn violations(&self, tau2: &Nta, opts: &TypecheckOptions) -> Result<Nta, PipelineError> {
        Ok(violations_within(&self.transducer, &self.tau1, tau2, opts)?)
    }

    /// Parses and compiles an output DTD (text syntax over the
    /// stylesheet's output tags) to an automaton over the encoded output
    /// alphabet — the `τ₂` the typechecking entry points consume. Exposed
    /// so callers holding many specs (the `xmltc serve` artifact cache)
    /// can compile each once and re-use it across requests.
    pub fn compile_output_dtd(&self, output_dtd_text: &str) -> Result<Nta, PipelineError> {
        let _span = obs::span("output_dtd.compile");
        let out_dtd = Dtd::parse_text_with(output_dtd_text, self.enc_out.source())?;
        let tau2 = out_dtd.compile(&self.enc_out)?;
        obs::record("tau2.states", tau2.n_states() as u64);
        obs::record("tau2.transitions", tau2.n_transitions() as u64);
        Ok(tau2)
    }

    /// Typechecks against a pre-built `τ₂` *and* a precomputed violation
    /// automaton — [`DocumentPipeline::violations`] for this `τ₂`, or the
    /// whole violation language of `(transducer, τ₂)`: only the final
    /// emptiness check runs, no walk/MSO construction. This is the warm
    /// path of the `xmltc serve` artifact cache; the caller is responsible
    /// for the pairing invariant documented on
    /// [`xmltc_typecheck::typecheck_with_violations`].
    pub fn typecheck_with_violations_nta(
        &self,
        tau2: &Nta,
        violations: &Nta,
        opts: &TypecheckOptions,
    ) -> Result<DocumentVerdict, PipelineError> {
        let outcome = xmltc_typecheck::typecheck_with_violations(
            &self.transducer,
            &self.tau1,
            tau2,
            violations,
            opts,
        )?;
        self.decode_outcome(outcome)
    }

    /// Decodes a typechecker outcome (over binary encodings) back into
    /// document-level verdicts.
    fn decode_outcome(&self, outcome: TypecheckOutcome) -> Result<DocumentVerdict, PipelineError> {
        match outcome {
            TypecheckOutcome::Ok => Ok(DocumentVerdict::Ok),
            TypecheckOutcome::CounterExample { input, bad_output } => {
                let input = decode_raw(&input, &self.enc_in).map_err(QueryError::Tree)?;
                let bad_output = match bad_output {
                    Some(b) => Some(decode_raw(&b, &self.enc_out).map_err(QueryError::Tree)?),
                    None => None,
                };
                Ok(DocumentVerdict::CounterExample { input, bad_output })
            }
        }
    }

    /// The forward-inference baseline verdict (sound, incomplete): `Some
    /// witness` when the inferred image leaks outside the DTD (possibly
    /// spuriously), `None` when the image proves the spec.
    pub fn forward_check(&self, output_dtd_text: &str) -> Result<Option<RawTree>, PipelineError> {
        let _span = obs::span("pipeline.forward");
        let out_dtd = Dtd::parse_text_with(output_dtd_text, self.enc_out.source())?;
        let tau2 = out_dtd.compile(&self.enc_out)?;
        let image = self
            .stylesheet
            .infer_image(&self.input_dtd, self.enc_out.source())?
            .compile(&self.enc_out)?;
        match image.inclusion_counterexample(&tau2) {
            None => Ok(None),
            Some(w) => Ok(Some(
                decode_raw(&w, &self.enc_out).map_err(QueryError::Tree)?,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xslt::Template;

    fn pipeline() -> DocumentPipeline {
        let sheet = Stylesheet::new(vec![
            Template::parse("root", "out(b, @apply)").unwrap(),
            Template::parse("a", "b").unwrap(),
        ]);
        let dtd = Dtd::parse_text("root := a*\na := @eps").unwrap();
        DocumentPipeline::new(sheet, dtd).unwrap()
    }

    #[test]
    fn transform_and_typecheck() {
        let p = pipeline();
        let doc = UnrankedTree::parse("root(a, a)", p.input_dtd().alphabet()).unwrap();
        let out = p.transform(&doc).unwrap();
        assert_eq!(out.to_string(), "out(b, b, b)");
        assert!(p.typecheck_against("out := b+\nb := @eps").unwrap().is_ok());
        match p.typecheck_against("out := b.b+\nb := @eps").unwrap() {
            DocumentVerdict::CounterExample { input, bad_output } => {
                assert_eq!(input.to_string(), "root");
                assert_eq!(bad_output.unwrap().to_string(), "out(b)");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn invalid_document_rejected_at_transform() {
        let p = pipeline();
        // a's may not nest in this DTD.
        let al = p.input_dtd().alphabet().clone();
        let doc = UnrankedTree::parse("root(a(a))", &al).unwrap();
        assert!(matches!(p.transform(&doc), Err(PipelineError::Dtd(_))));
    }

    #[test]
    fn forward_baseline() {
        let p = pipeline();
        // b+ is provable even by the forward baseline (image = b.b*).
        assert!(p.forward_check("out := b+\nb := @eps").unwrap().is_none());
        // b.b* with exactly even length is not (and is indeed false anyway).
        assert!(p
            .forward_check("out := (b.b)*\nb := @eps")
            .unwrap()
            .is_some());
    }
}

//! Plain DTDs: one content model per tag, direct validation, text syntax.

use crate::error::DtdError;
use crate::specialized::{SpecializedDtd, TypeId};
use std::sync::{Arc, OnceLock};
use xmltc_automata::Nta;
use xmltc_regex::{Dfa, Regex};
use xmltc_trees::{Alphabet, EncodedAlphabet, FxHashMap, NodeId, Rank, Symbol, UnrankedTree};

/// A Document Type Definition: an extended context-free grammar with
/// nonterminals `Σ` (Section 2.3). `inst(D)` is the set of derivation
/// trees: the root is labeled `root`, and every node's children word
/// matches its tag's content model. Tags without an explicit rule are
/// leaves (content model `ε`).
///
/// The content models are compiled to DFAs once, on the first
/// [`Dtd::validate`] or [`Dtd::diagnose`], and kept until a rule changes.
#[derive(Clone, Debug)]
pub struct Dtd {
    alphabet: Arc<Alphabet>,
    root: Symbol,
    rules: FxHashMap<Symbol, Regex<Symbol>>,
    content: OnceLock<ContentDfas>,
}

impl Dtd {
    /// Creates a DTD with the given root and no rules.
    pub fn new(alphabet: &Arc<Alphabet>, root: Symbol) -> Dtd {
        Dtd {
            alphabet: Arc::clone(alphabet),
            root,
            rules: FxHashMap::default(),
            content: OnceLock::new(),
        }
    }

    /// Sets the content model of a tag (replacing any previous one).
    pub fn set_rule(&mut self, tag: Symbol, content: Regex<Symbol>) {
        self.rules.insert(tag, content);
        self.content = OnceLock::new();
    }

    /// Parses the paper's notation, e.g. the DTD of Figure 1:
    ///
    /// ```text
    /// a := b*.c.e
    /// b := @eps
    /// c := d*
    /// d := @eps
    /// e := @eps
    /// ```
    ///
    /// The first rule's left-hand side is the root. `//` starts a comment.
    /// A fresh unranked alphabet is built from all names that appear.
    pub fn parse_text(text: &str) -> Result<Dtd, DtdError> {
        Self::parse_entries(text, None)
    }

    /// Like [`Dtd::parse_text`] but over a pre-existing alphabet — required
    /// when the DTD must type trees produced by a machine that already
    /// fixed its (output) alphabet. All names in the text must exist in
    /// `alphabet`.
    pub fn parse_text_with(text: &str, alphabet: &Arc<Alphabet>) -> Result<Dtd, DtdError> {
        Self::parse_entries(text, Some(alphabet))
    }

    fn parse_entries(text: &str, fixed: Option<&Arc<Alphabet>>) -> Result<Dtd, DtdError> {
        let mut entries: Vec<(String, Regex<String>)> = Vec::new();
        for (lineno, raw_line) in text.lines().enumerate() {
            let line = match raw_line.find("//") {
                Some(i) => &raw_line[..i],
                None => raw_line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let Some((lhs, rhs)) = line.split_once(":=") else {
                return Err(DtdError::Parse {
                    line: lineno + 1,
                    message: "expected `name := content-model`".into(),
                });
            };
            let name = lhs.trim().to_string();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(DtdError::Parse {
                    line: lineno + 1,
                    message: format!("invalid tag name `{name}`"),
                });
            }
            let regex = xmltc_regex::parse(rhs.trim()).map_err(|e| DtdError::Parse {
                line: lineno + 1,
                message: e.to_string(),
            })?;
            entries.push((name, regex));
        }
        if entries.is_empty() {
            return Err(DtdError::Parse {
                line: 0,
                message: "empty DTD".into(),
            });
        }
        // Build the alphabet (all rule names plus all names in content
        // models, in order of first appearance) unless one was supplied.
        let alphabet = match fixed {
            Some(al) => Arc::clone(al),
            None => {
                let mut builder = xmltc_trees::AlphabetBuilder::new();
                for (name, regex) in &entries {
                    builder.add(name, Rank::Unranked);
                    for s in regex.symbols() {
                        builder.add(&s, Rank::Unranked);
                    }
                }
                builder.finish()
            }
        };
        let root = alphabet.get(&entries[0].0).ok_or_else(|| DtdError::Parse {
            line: 1,
            message: format!("root tag `{}` not in the supplied alphabet", entries[0].0),
        })?;
        let mut dtd = Dtd::new(&alphabet, root);
        for (name, regex) in &entries {
            let tag = alphabet.get(name).ok_or_else(|| DtdError::Parse {
                line: 0,
                message: format!("tag `{name}` not in the supplied alphabet"),
            })?;
            let content = regex.try_map(&mut |n: &String| alphabet.require(n))?;
            dtd.set_rule(tag, content);
        }
        Ok(dtd)
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// The root tag.
    pub fn root(&self) -> Symbol {
        self.root
    }

    /// The content model of a tag (`None` = implicit `ε`).
    pub fn rule(&self, tag: Symbol) -> Option<&Regex<Symbol>> {
        self.rules.get(&tag)
    }

    /// The content DFAs, compiled on first use.
    fn content_dfas(&self) -> &ContentDfas {
        self.content
            .get_or_init(|| ContentDfas::new(&self.alphabet, &self.rules))
    }

    /// Validates an unranked tree, returning the first violation found (in
    /// pre-order).
    ///
    /// Steps the compiled content DFAs over each node's children in id
    /// order, which is pre-order; after the first call on a DTD it
    /// allocates only to report a violation.
    pub fn validate(&self, t: &UnrankedTree) -> Result<(), DtdError> {
        if !Alphabet::same(&self.alphabet, t.alphabet()) {
            return Err(DtdError::Tree(xmltc_trees::TreeError::AlphabetMismatch));
        }
        if t.symbol(t.root()) != self.root {
            return Err(DtdError::WrongRoot {
                expected: self.alphabet.name(self.root).to_string(),
                got: self.alphabet.name(t.symbol(t.root())).to_string(),
            });
        }
        let dfas = self.content_dfas();
        let name = |s: Symbol| self.alphabet.name(s).to_string();
        match t.nodes().find(|&n| !dfas.accepts(t, n)) {
            None => Ok(()),
            Some(n) => Err(DtdError::InvalidContent {
                element: name(t.symbol(n)),
                word: t.children(n).iter().map(|&c| name(t.symbol(c))).collect(),
            }),
        }
    }

    /// True when the tree is valid.
    pub fn is_valid(&self, t: &UnrankedTree) -> bool {
        self.validate(t).is_ok()
    }

    /// Explains the first violation found (the node [`Dtd::validate`]
    /// reports). `None` when the tree is valid or over a different
    /// alphabet.
    ///
    /// For a content-model violation the diagnosis pins the failure inside
    /// the content DFA: the state sequence walked, the position where
    /// acceptance became impossible (a position past the end of the word
    /// means the content ended too early), and which symbols could still
    /// have led to acceptance there. "Impossible" is judged against the
    /// co-reachable states, so a transition into a dead-end sink already
    /// counts as the failure point.
    pub fn diagnose(&self, t: &UnrankedTree) -> Option<Diagnosis> {
        if !Alphabet::same(&self.alphabet, t.alphabet()) {
            return None;
        }
        let name = |s: Symbol| self.alphabet.name(s).to_string();
        if t.symbol(t.root()) != self.root {
            return Some(Diagnosis::WrongRoot {
                expected: name(self.root),
                got: name(t.symbol(t.root())),
            });
        }
        let dfas = self.content_dfas();
        let n = t.nodes().find(|&n| !dfas.accepts(t, n))?;
        let tag = t.symbol(n);
        let word = t.child_word(n);
        let base = dfas.base[tag.index()];
        let live = |q: u32| dfas.live[q as usize];
        let mut cur = dfas.start[tag.index()];
        let mut states = vec![cur - base];
        let mut failed_at = word.len();
        if !live(cur) {
            failed_at = 0;
        } else {
            for (i, &s) in word.iter().enumerate() {
                match dfas.step(cur, s) {
                    Some(q) if live(q) => {
                        cur = q;
                        states.push(q - base);
                    }
                    _ => {
                        failed_at = i;
                        break;
                    }
                }
            }
        }
        let expected = if live(cur) {
            self.alphabet
                .symbols()
                .filter(|&s| dfas.step(cur, s).is_some_and(live))
                .map(name)
                .collect()
        } else {
            Vec::new()
        };
        let model = match self.rules.get(&tag) {
            None => "@eps".to_string(),
            Some(r) => r.map(&mut |s: &Symbol| name(*s)).to_string(),
        };
        Some(Diagnosis::InvalidContent {
            path: unranked_path(t, n),
            element: name(tag),
            word: word.iter().map(|&s| name(s)).collect(),
            production: format!("{} := {model}", name(tag)),
            failed_at,
            dfa_states: states,
            expected,
        })
    }

    /// Views the DTD as a specialized DTD with one type per tag.
    pub fn to_specialized(&self) -> SpecializedDtd {
        let n = self.alphabet.len();
        let names = self
            .alphabet
            .symbols()
            .map(|s| self.alphabet.name(s).to_string())
            .collect();
        let labels = self.alphabet.symbols().collect();
        let rules = self
            .alphabet
            .symbols()
            .map(|s| match self.rules.get(&s) {
                None => Regex::Epsilon,
                Some(r) => r.map(&mut |sym: &Symbol| TypeId(sym.0)),
            })
            .collect();
        let _ = n;
        SpecializedDtd::new(&self.alphabet, names, labels, rules, TypeId(self.root.0))
    }

    /// Compiles to a bottom-up tree automaton over the binary encoding.
    pub fn compile(&self, enc: &EncodedAlphabet) -> Result<Nta, DtdError> {
        let _span = xmltc_obs::span("dtd.compile");
        let nta = self.to_specialized().compile(enc)?;
        xmltc_obs::record("dtd.states", nta.n_states() as u64);
        xmltc_obs::record("dtd.transitions", nta.n_transitions() as u64);
        Ok(nta)
    }
}

/// An explained DTD violation — the provenance-grade counterpart of
/// [`DtdError`], produced by [`Dtd::diagnose`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Diagnosis {
    /// The root element has the wrong tag.
    WrongRoot {
        /// The tag the DTD requires at the root.
        expected: String,
        /// The tag found there.
        got: String,
    },
    /// An element's children word violates its content model.
    InvalidContent {
        /// 1-based child-index path of the failing element (`/` = root,
        /// `/2/1` = first child of the root's second child).
        path: String,
        /// The failing element's tag.
        element: String,
        /// Its children word.
        word: Vec<String>,
        /// The implicated production, rendered (`@eps` for unruled tags).
        production: String,
        /// Index into `word` where acceptance became impossible;
        /// `word.len()` means the content ended before the model allowed.
        failed_at: usize,
        /// Content-DFA states walked, up to the failure point.
        dfa_states: Vec<u32>,
        /// Symbols that could still have led to acceptance at the
        /// failure point (empty when no continuation accepts).
        expected: Vec<String>,
    },
}

/// Every tag's content model as a DFA, all laid out in one transition
/// table. Each DFA keeps its own state numbers, offset by its tag's base;
/// a tag without a rule gets a one-state DFA that accepts only `ε`.
#[derive(Clone, Debug)]
struct ContentDfas {
    /// |Σ|, the width of a row of `next`.
    width: usize,
    /// Each tag's first state.
    base: Vec<u32>,
    /// Each tag's start state.
    start: Vec<u32>,
    /// `next[q·width + s]`: the successor of state `q` on symbol `s`, or
    /// [`DEAD`].
    next: Vec<u32>,
    accepting: Vec<bool>,
    /// The co-reachable states: those from which an accepting state is
    /// reachable.
    live: Vec<bool>,
}

/// No successor.
const DEAD: u32 = u32::MAX;

impl ContentDfas {
    fn new(alphabet: &Alphabet, rules: &FxHashMap<Symbol, Regex<Symbol>>) -> ContentDfas {
        let universe: Vec<Symbol> = alphabet.symbols().collect();
        let width = universe.len();
        let mut c = ContentDfas {
            width,
            base: Vec::with_capacity(width),
            start: Vec::with_capacity(width),
            next: Vec::new(),
            accepting: Vec::new(),
            live: Vec::new(),
        };
        for tag in alphabet.symbols() {
            let base = c.accepting.len() as u32;
            c.base.push(base);
            let Some(r) = rules.get(&tag) else {
                c.start.push(base);
                c.next.resize(c.next.len() + width, DEAD);
                c.accepting.push(true);
                continue;
            };
            let dfa = Dfa::from_regex(r, &universe);
            c.start.push(base + dfa.start());
            for q in 0..dfa.len() as u32 {
                c.next.extend(
                    universe
                        .iter()
                        .map(|&s| dfa.step(q, s).map_or(DEAD, |p| base + p)),
                );
                c.accepting.push(dfa.is_final(q));
            }
        }
        c.live = c.accepting.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for q in 0..c.live.len() {
                if !c.live[q]
                    && c.next[q * width..(q + 1) * width]
                        .iter()
                        .any(|&p| p != DEAD && c.live[p as usize])
                {
                    c.live[q] = true;
                    changed = true;
                }
            }
        }
        c
    }

    fn step(&self, q: u32, s: Symbol) -> Option<u32> {
        let p = self.next[q as usize * self.width + s.index()];
        (p != DEAD).then_some(p)
    }

    /// True when node `n`'s children word matches its tag's content model.
    fn accepts(&self, t: &UnrankedTree, n: NodeId) -> bool {
        let mut q = self.start[t.symbol(n).index()];
        for &c in t.children(n) {
            match self.step(q, t.symbol(c)) {
                Some(p) => q = p,
                None => return false,
            }
        }
        self.accepting[q as usize]
    }
}

/// 1-based child-index path of `n` in an unranked tree (`/` = root).
fn unranked_path(t: &UnrankedTree, n: NodeId) -> String {
    let mut segs = Vec::new();
    let mut cur = n;
    while let Some(p) = t.parent(cur) {
        let idx = t
            .children(p)
            .iter()
            .position(|&c| c == cur)
            .expect("child listed under its parent")
            + 1;
        segs.push(idx.to_string());
        cur = p;
    }
    if segs.is_empty() {
        return "/".to_string();
    }
    segs.reverse();
    let mut out = String::new();
    for s in segs {
        out.push('/');
        out.push_str(&s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltc_trees::encode;

    /// The DTD of Figure 1 / Section 2.3.
    fn figure_one() -> Dtd {
        Dtd::parse_text(
            "a := b*.c.e // root rule
             b := @eps
             c := d*
             d := @eps
             e := @eps",
        )
        .unwrap()
    }

    #[test]
    fn validates_figure_one_document() {
        let d = figure_one();
        let al = d.alphabet().clone();
        let t = UnrankedTree::parse("a(b, b, c(d), e)", &al).unwrap();
        assert!(d.validate(&t).is_ok());
    }

    #[test]
    fn rejects_invalid_documents() {
        let d = figure_one();
        let al = d.alphabet().clone();
        for (doc, why) in [
            ("a(c(d), b, e)", "b after c"),
            ("a(b, b)", "missing c.e"),
            ("a(b, c(b), e)", "b inside c"),
            ("b", "wrong root"),
            ("a(b(b), c, e)", "b must be empty"),
        ] {
            let t = UnrankedTree::parse(doc, &al).unwrap();
            assert!(d.validate(&t).is_err(), "{doc}: {why}");
        }
    }

    #[test]
    fn error_reports_are_specific() {
        let d = figure_one();
        let al = d.alphabet().clone();
        let t = UnrankedTree::parse("a(b, b)", &al).unwrap();
        match d.validate(&t) {
            Err(DtdError::InvalidContent { element, word }) => {
                assert_eq!(element, "a");
                assert_eq!(word, vec!["b", "b"]);
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
        let t = UnrankedTree::parse("b", &al).unwrap();
        assert!(matches!(d.validate(&t), Err(DtdError::WrongRoot { .. })));
    }

    #[test]
    fn compiled_automaton_agrees_with_validator() {
        let d = figure_one();
        let al = d.alphabet().clone();
        let enc = EncodedAlphabet::new(&al);
        let a = d.compile(&enc).unwrap();
        for doc in [
            "a(b, b, c(d), e)",
            "a(c, e)",
            "a(c(d, d, d), e)",
            "a(b, c(d), e)",
            "a(c(d), b, e)",
            "a(b, b)",
            "b",
            "a(b(b), c, e)",
            "a(b, c(b), e)",
        ] {
            let t = UnrankedTree::parse(doc, &al).unwrap();
            let bt = encode(&t, &enc).unwrap();
            assert_eq!(
                a.accepts(&bt).unwrap(),
                d.is_valid(&t),
                "disagreement on {doc}"
            );
        }
    }

    #[test]
    fn compiled_rejects_non_encodings() {
        let d = figure_one();
        let enc = EncodedAlphabet::new(d.alphabet());
        let a = d.compile(&enc).unwrap();
        // `-` at the root is never a valid encoding.
        let junk = xmltc_trees::BinaryTree::parse("-(a(#, #), #)", enc.encoded()).unwrap();
        assert!(!a.accepts(&junk).unwrap());
    }

    #[test]
    fn example_42_dtd() {
        // Example 4.2: root := a* — the documents a^n.
        let d = Dtd::parse_text("root := a*\na := @eps").unwrap();
        let al = d.alphabet().clone();
        for n in 0..5 {
            let t = xmltc_trees::generate::flat(d.root(), al.get("a").unwrap(), n, &al).unwrap();
            assert!(d.is_valid(&t), "a^{n}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(Dtd::parse_text("").is_err());
        assert!(Dtd::parse_text("a = b").is_err());
        assert!(Dtd::parse_text("a := (b").is_err());
        assert!(Dtd::parse_text("a b := c").is_err());
    }

    #[test]
    fn unruled_tags_are_leaves() {
        let d = Dtd::parse_text("a := b*").unwrap();
        let al = d.alphabet().clone();
        assert!(d.is_valid(&UnrankedTree::parse("a(b, b)", &al).unwrap()));
        assert!(!d.is_valid(&UnrankedTree::parse("a(b(b))", &al).unwrap()));
    }

    /// The content DFAs are compiled on first use and recompiled after a
    /// rule changes.
    #[test]
    fn set_rule_recompiles_the_content_dfas() {
        let mut d = figure_one();
        let al = d.alphabet().clone();
        let t = UnrankedTree::parse("a(e)", &al).unwrap();
        assert!(d.validate(&t).is_err());
        d.set_rule(al.get("a").unwrap(), Regex::Sym(al.get("e").unwrap()));
        assert!(d.validate(&t).is_ok());
        assert!(d.diagnose(&t).is_none());
    }

    #[test]
    fn diagnose_agrees_with_validate() {
        let d = figure_one();
        let al = d.alphabet().clone();
        for doc in [
            "a(b, b, c(d), e)",
            "a(c(d), b, e)",
            "a(b, b)",
            "a(b, c(b), e)",
            "b",
            "a(b(b), c, e)",
        ] {
            let t = UnrankedTree::parse(doc, &al).unwrap();
            assert_eq!(
                d.diagnose(&t).is_none(),
                d.validate(&t).is_ok(),
                "diagnose/validate disagree on {doc}"
            );
        }
    }

    #[test]
    fn diagnose_pins_the_failure_point() {
        let d = figure_one();
        let al = d.alphabet().clone();
        // `b` after `c`: position 1 of the root's content is dead.
        let t = UnrankedTree::parse("a(c(d), b, e)", &al).unwrap();
        match d.diagnose(&t).unwrap() {
            Diagnosis::InvalidContent {
                path,
                element,
                word,
                production,
                failed_at,
                dfa_states,
                expected,
            } => {
                assert_eq!(path, "/");
                assert_eq!(element, "a");
                assert_eq!(word, vec!["c", "b", "e"]);
                assert!(production.starts_with("a := "), "{production}");
                assert_eq!(failed_at, 1);
                assert_eq!(dfa_states.len(), 2); // start + after `c`
                assert_eq!(expected, vec!["e"]);
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
    }

    #[test]
    fn diagnose_premature_end_and_nested_paths() {
        let d = figure_one();
        let al = d.alphabet().clone();
        // Content ends before the mandatory `c.e` tail.
        let t = UnrankedTree::parse("a(b, b)", &al).unwrap();
        match d.diagnose(&t).unwrap() {
            Diagnosis::InvalidContent {
                failed_at,
                word,
                expected,
                ..
            } => {
                assert_eq!(failed_at, word.len());
                assert!(expected.contains(&"b".to_string()));
                assert!(expected.contains(&"c".to_string()));
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
        // The failing element is addressed by child index, and an unruled
        // tag with children reports the implicit `@eps` production.
        let t = UnrankedTree::parse("a(b, b, c(d(b)), e)", &al).unwrap();
        match d.diagnose(&t).unwrap() {
            Diagnosis::InvalidContent {
                path,
                element,
                production,
                ..
            } => {
                assert_eq!(path, "/3/1");
                assert_eq!(element, "d");
                assert_eq!(production, "d := @eps");
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
        // Wrong root.
        let t = UnrankedTree::parse("b", &al).unwrap();
        assert_eq!(
            d.diagnose(&t),
            Some(Diagnosis::WrongRoot {
                expected: "a".into(),
                got: "b".into()
            })
        );
    }
}

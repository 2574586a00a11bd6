//! # xmltc-xml
//!
//! Minimal XML concrete syntax for the paper's data model (Section 2.2):
//! element-only documents — nested tags, no attributes, no text content,
//! no references, exactly the simplifying assumptions the paper makes.
//!
//! ```
//! use xmltc_xml::{parse_document, to_xml};
//! use xmltc_trees::Alphabet;
//!
//! let al = Alphabet::unranked(&["a", "b", "c", "d", "e"]);
//! let doc = parse_document("<a> <b/> <b></b> <c><d/></c> <e/> </a>", &al).unwrap();
//! assert_eq!(doc.to_string(), "a(b, b, c(d), e)");
//! assert_eq!(to_xml(&doc), "<a><b/><b/><c><d/></c><e/></a>");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;
use xmltc_trees::{Alphabet, RawTree, TreeError, UnrankedTree, UnrankedTreeBuilder};

/// XML parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Description.
    pub message: String,
    /// Byte offset.
    pub offset: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parses an XML document into an [`UnrankedTree`] over the given alphabet.
///
/// One pass over the input bytes with an explicit stack of open elements:
/// each start tag is looked up in the alphabet by its name's slice of the
/// input and opened in an [`UnrankedTreeBuilder`], and each close tag is
/// matched against its element's name by slice. So neither depth nor
/// width costs call-stack frames, and elements cost no allocation of their
/// own. The first error in document order is reported, with its byte
/// offset; an unknown tag's offset is that of its name.
pub fn parse_document(input: &str, alphabet: &Arc<Alphabet>) -> Result<UnrankedTree, XmlError> {
    let mut p = Parser {
        src: input,
        s: input.as_bytes(),
        i: 0,
    };
    let mut tree = UnrankedTreeBuilder::new(alphabet);
    // The names of the open elements, innermost last.
    let mut open: Vec<&str> = Vec::new();
    p.ws();
    loop {
        // A start tag: the root's, or a child's of the innermost open
        // element.
        p.expect(b'<')?;
        let at = p.i;
        let name = p.name()?;
        let symbol = alphabet.get(name).ok_or_else(|| XmlError {
            message: TreeError::UnknownSymbol(name.to_string()).to_string(),
            offset: at,
        })?;
        tree.open(symbol);
        p.ws();
        if p.peek() == Some(b'/') {
            p.i += 1;
            p.expect(b'>')?;
            p.close(&mut tree)?;
        } else {
            p.expect(b'>')?;
            open.push(name);
        }
        // Close tags, up to the next start tag or the end of the root.
        loop {
            let Some(&name) = open.last() else {
                p.ws();
                if p.i != p.s.len() {
                    return Err(p.err("trailing content after the root element"));
                }
                return Ok(tree.finish());
            };
            p.ws();
            match (p.peek(), p.s.get(p.i + 1)) {
                (Some(b'<'), Some(b'/')) => {
                    p.i += 2;
                    let close = p.name()?;
                    if close != name {
                        return Err(p.err(&format!(
                            "mismatched close tag: expected </{name}>, found </{close}>"
                        )));
                    }
                    p.ws();
                    p.expect(b'>')?;
                    open.pop();
                    p.close(&mut tree)?;
                }
                (Some(b'<'), _) => break,
                _ => return Err(p.err("expected a child element or a close tag")),
            }
        }
    }
}

/// Serializes an unranked tree as compact XML (self-closing empty
/// elements).
pub fn to_xml(t: &UnrankedTree) -> String {
    let mut out = String::new();
    write_raw(&t.to_raw(), &mut out);
    out
}

/// Serializes a [`RawTree`] as compact XML.
pub fn raw_to_xml(t: &RawTree) -> String {
    let mut out = String::new();
    write_raw(t, &mut out);
    out
}

fn write_raw(t: &RawTree, out: &mut String) {
    if t.children.is_empty() {
        out.push('<');
        out.push_str(&t.name);
        out.push_str("/>");
    } else {
        out.push('<');
        out.push_str(&t.name);
        out.push('>');
        for c in &t.children {
            write_raw(c, out);
        }
        out.push_str("</");
        out.push_str(&t.name);
        out.push('>');
    }
}

struct Parser<'a> {
    src: &'a str,
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, m: &str) -> XmlError {
        XmlError {
            message: m.to_string(),
            offset: self.i,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    /// A tag name, as a slice of the input (its bytes are ASCII, so its
    /// ends are character boundaries).
    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.')
        {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("expected a tag name"));
        }
        Ok(&self.src[start..self.i])
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    /// Closes the innermost open element of `tree`, which checks its
    /// number of children against its symbol's rank.
    fn close(&self, tree: &mut UnrankedTreeBuilder) -> Result<(), XmlError> {
        tree.close().map_err(|e| self.err(&e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::unranked(&["a", "b", "c", "d", "e"])
    }

    #[test]
    fn paper_example_document() {
        // Section 2.2's serialization of the Figure 1 tree.
        let al = alpha();
        let doc = parse_document("<a> <b></b> <b></b> <c><d></d></c> <e></e> </a>", &al).unwrap();
        assert_eq!(doc.to_string(), "a(b, b, c(d), e)");
    }

    #[test]
    fn self_closing_and_mixed() {
        let al = alpha();
        let doc = parse_document("<a><b/><c><d/></c></a>", &al).unwrap();
        assert_eq!(doc.to_string(), "a(b, c(d))");
    }

    #[test]
    fn round_trip() {
        let al = alpha();
        for src in ["<a/>", "<a><b/></a>", "<a><b/><b/><c><d/></c><e/></a>"] {
            let doc = parse_document(src, &al).unwrap();
            let xml = to_xml(&doc);
            let doc2 = parse_document(&xml, &al).unwrap();
            assert_eq!(doc, doc2, "{src}");
        }
    }

    /// Each malformed input's message and byte offset. The first error in
    /// document order wins: an unknown tag before a syntax error is what
    /// is reported.
    #[test]
    fn errors() {
        let al = alpha();
        for (input, message, offset) in [
            ("", "expected `<`", 0),
            ("<a>", "expected a child element or a close tag", 3),
            (
                "<a></b>",
                "mismatched close tag: expected </a>, found </b>",
                6,
            ),
            ("<a/><b/>", "trailing content after the root element", 4),
            ("<a>text</a>", "expected a child element or a close tag", 3),
            ("< a/>", "expected a tag name", 1),
            ("<zz/>", "unknown symbol `zz`", 1),
            ("<a> <zz/></a>", "unknown symbol `zz`", 5),
            ("<a><zz/><b></a>", "unknown symbol `zz`", 4),
            (
                "<a><b><c/></a></b>",
                "mismatched close tag: expected </b>, found </a>",
                13,
            ),
            ("<a/> x", "trailing content after the root element", 5),
            ("<a><b/>", "expected a child element or a close tag", 7),
            ("<a", "expected `>`", 2),
            ("<a/", "expected `>`", 3),
            ("<a></a", "expected `>`", 6),
            ("<a></>", "expected a tag name", 5),
        ] {
            let e = parse_document(input, &al).unwrap_err();
            assert_eq!(
                (e.message.as_str(), e.offset),
                (message, offset),
                "{input:?}"
            );
        }
    }

    /// A ranked alphabet's arities are checked when an element closes.
    #[test]
    fn ranks_are_checked() {
        let al = Alphabet::ranked(&["x"], &["f"]);
        assert!(parse_document("<f><x/><x/></f>", &al).is_ok());
        let e = parse_document("<f><x/></f>", &al).unwrap_err();
        assert_eq!(
            (e.message.as_str(), e.offset),
            ("symbol `f` has rank 2 but was given 1 children", 11)
        );
    }

    /// Random trees, written by `to_xml` and then re-spaced at random with a
    /// random mix of `<x/>` and `<x></x>`, parse back to themselves.
    #[test]
    fn random_documents_round_trip() {
        use xmltc_trees::generate::random_unranked;
        use xmltc_trees::SmallRng;
        const SPACE: [&str; 5] = ["", " ", "\n", "\t ", "\r\n  "];
        let al = alpha();
        let mut rng = SmallRng::seed_from_u64(0x3a1);
        for case in 0..500 {
            let t = random_unranked(&al, 6, 4, &mut rng).unwrap();
            let compact = to_xml(&t);
            let mut text = String::from(*rng.choose(&SPACE));
            for tag in compact.split_inclusive('>') {
                let name = tag.trim_matches(|c| "</>".contains(c));
                let pad = *rng.choose(&SPACE);
                if tag.ends_with("/>") && rng.gen_bool(0.5) {
                    text.push_str(&format!("<{name}{pad}></{name}>"));
                } else if tag.ends_with("/>") {
                    text.push_str(&format!("<{name}{pad}/>"));
                } else if tag.starts_with("</") {
                    text.push_str(&format!("</{name}{pad}>"));
                } else {
                    text.push_str(&format!("<{name}{pad}>"));
                }
                text.push_str(rng.choose::<&str>(&SPACE));
            }
            let back = parse_document(&text, &al).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(back, t, "case {case}: {text:?}");
        }
    }

    /// Depth costs no call-stack frames: 100 000 levels on a test
    /// thread's 2 MiB stack.
    #[test]
    fn deep_documents_parse_without_recursion() {
        let al = alpha();
        let depth = 100_000;
        let text = format!("{}<b/>{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let t = parse_document(&text, &al).unwrap();
        assert_eq!((t.len(), t.depth()), (depth + 1, depth + 1));
    }

    #[test]
    fn unknown_tags_rejected_by_alphabet() {
        let al = alpha();
        assert!(parse_document("<zz/>", &al).is_err());
    }

    #[test]
    fn validate_against_dtd() {
        let dtd =
            xmltc_dtd::Dtd::parse_text("a := b*.c.e\nb := @eps\nc := d*\nd := @eps\ne := @eps")
                .unwrap();
        let doc = parse_document("<a><b/><b/><c><d/></c><e/></a>", dtd.alphabet()).unwrap();
        assert!(dtd.validate(&doc).is_ok());
        let bad = parse_document("<a><e/><b/></a>", dtd.alphabet()).unwrap();
        assert!(dtd.validate(&bad).is_err());
    }
}

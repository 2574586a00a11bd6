//! Deterministic finite word automata: subset construction, boolean
//! operations, decision procedures, Moore minimization, enumeration.

use crate::ast::Regex;
use crate::nfa::Nfa;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::Hash;

/// A deterministic finite automaton over an explicit, fixed alphabet.
///
/// The transition function may be partial (`None` = dead); completion adds
/// an explicit sink. The alphabet is stored sorted, so automata built over
/// the same universe are directly composable.
#[derive(Clone, Debug)]
pub struct Dfa<S> {
    alphabet: Vec<S>,
    /// `trans[q][i]` = successor of `q` on `alphabet[i]`.
    trans: Vec<Vec<Option<u32>>>,
    start: u32,
    finals: Vec<bool>,
}

impl<S: Copy + Eq + Hash + Ord> Dfa<S> {
    /// Compiles a regular expression over the given universe (which must
    /// contain every symbol of the expression).
    pub fn from_regex(regex: &Regex<S>, universe: &[S]) -> Dfa<S> {
        let nfa = Nfa::from_regex(regex);
        Self::from_nfa(&nfa, universe)
    }

    /// Subset construction. `universe` must contain every symbol of the NFA.
    pub fn from_nfa(nfa: &Nfa<S>, universe: &[S]) -> Dfa<S> {
        let alphabet = sorted_dedup(universe);
        debug_assert!(
            nfa.alphabet()
                .iter()
                .all(|s| alphabet.binary_search(s).is_ok()),
            "universe must contain the NFA's alphabet"
        );
        let mut index: HashMap<BTreeSet<usize>, u32> = HashMap::new();
        let mut states: Vec<BTreeSet<usize>> = Vec::new();
        let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
        let start_set = BTreeSet::from([0]);
        index.insert(start_set.clone(), 0);
        states.push(start_set);
        trans.push(vec![None; alphabet.len()]);
        let mut queue = VecDeque::from([0u32]);
        while let Some(q) = queue.pop_front() {
            for (i, &s) in alphabet.iter().enumerate() {
                let next = nfa.step_set(&states[q as usize], s);
                if next.is_empty() {
                    continue;
                }
                let id = *index.entry(next.clone()).or_insert_with(|| {
                    let id = states.len() as u32;
                    states.push(next);
                    trans.push(vec![None; alphabet.len()]);
                    queue.push_back(id);
                    id
                });
                trans[q as usize][i] = Some(id);
            }
        }
        let finals = states
            .iter()
            .map(|set| set.iter().any(|&q| nfa.is_final(q)))
            .collect();
        Dfa {
            alphabet,
            trans,
            start: 0,
            finals,
        }
    }

    /// Assembles a DFA from parts: `alphabet` must be sorted and
    /// deduplicated; `trans[q][i]` is the successor on `alphabet[i]`.
    pub fn from_parts(
        alphabet: Vec<S>,
        trans: Vec<Vec<Option<u32>>>,
        start: u32,
        finals: Vec<bool>,
    ) -> Dfa<S> {
        debug_assert!(alphabet.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(trans.len(), finals.len());
        Dfa {
            alphabet,
            trans,
            start,
            finals,
        }
    }

    /// A DFA accepting nothing, over the given universe.
    pub fn empty(universe: &[S]) -> Dfa<S> {
        let alphabet = sorted_dedup(universe);
        Dfa {
            trans: vec![vec![None; alphabet.len()]],
            alphabet,
            start: 0,
            finals: vec![false],
        }
    }

    /// The (sorted) alphabet.
    pub fn alphabet(&self) -> &[S] {
        &self.alphabet
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Whether `q` accepts.
    pub fn is_final(&self, q: u32) -> bool {
        self.finals[q as usize]
    }

    fn sym_index(&self, s: S) -> Option<usize> {
        self.alphabet.binary_search(&s).ok()
    }

    /// The successor of `q` on `s` (`None` = dead or unknown symbol).
    pub fn step(&self, q: u32, s: S) -> Option<u32> {
        let i = self.sym_index(s)?;
        self.trans[q as usize][i]
    }

    /// Membership test.
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut q = self.start;
        for &s in word {
            match self.step(q, s) {
                Some(next) => q = next,
                None => return false,
            }
        }
        self.finals[q as usize]
    }

    /// Re-bases the DFA onto a larger universe (new symbols are dead).
    pub fn extend_alphabet(&self, universe: &[S]) -> Dfa<S> {
        let alphabet = sorted_dedup_union(&self.alphabet, universe);
        let map: Vec<Option<usize>> = alphabet
            .iter()
            .map(|s| self.alphabet.binary_search(s).ok())
            .collect();
        let trans = self
            .trans
            .iter()
            .map(|row| map.iter().map(|m| m.and_then(|i| row[i])).collect())
            .collect();
        Dfa {
            alphabet,
            trans,
            start: self.start,
            finals: self.finals.clone(),
        }
    }

    /// Makes the transition function total by adding a rejecting sink.
    pub fn complete(&self) -> Dfa<S> {
        if self.trans.iter().all(|row| row.iter().all(Option::is_some)) {
            return self.clone();
        }
        let sink = self.trans.len() as u32;
        let mut trans: Vec<Vec<Option<u32>>> = self
            .trans
            .iter()
            .map(|row| row.iter().map(|t| t.or(Some(sink))).collect())
            .collect();
        trans.push(vec![Some(sink); self.alphabet.len()]);
        let mut finals = self.finals.clone();
        finals.push(false);
        Dfa {
            alphabet: self.alphabet.clone(),
            trans,
            start: self.start,
            finals,
        }
    }

    /// Complement relative to the given universe (must contain the DFA's
    /// alphabet).
    pub fn complement(&self, universe: &[S]) -> Dfa<S> {
        let mut d = self.extend_alphabet(universe).complete();
        for f in &mut d.finals {
            *f = !*f;
        }
        d
    }

    /// Product construction; `keep(a_final, b_final)` decides finality.
    /// Both automata are first re-based onto the union of their alphabets
    /// and completed, so ∧, ∨ and ∖ are all expressible.
    pub fn product(&self, other: &Dfa<S>, keep: impl Fn(bool, bool) -> bool) -> Dfa<S> {
        let universe = sorted_dedup_union(&self.alphabet, &other.alphabet);
        let a = self.extend_alphabet(&universe).complete();
        let b = other.extend_alphabet(&universe).complete();
        let mut index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
        index.insert((a.start, b.start), 0);
        pairs.push((a.start, b.start));
        trans.push(vec![None; universe.len()]);
        let mut queue = VecDeque::from([0u32]);
        while let Some(q) = queue.pop_front() {
            let (qa, qb) = pairs[q as usize];
            for i in 0..universe.len() {
                let na = a.trans[qa as usize][i].expect("complete");
                let nb = b.trans[qb as usize][i].expect("complete");
                let id = *index.entry((na, nb)).or_insert_with(|| {
                    let id = pairs.len() as u32;
                    pairs.push((na, nb));
                    trans.push(vec![None; universe.len()]);
                    queue.push_back(id);
                    id
                });
                trans[q as usize][i] = Some(id);
            }
        }
        let finals = pairs
            .iter()
            .map(|&(qa, qb)| keep(a.finals[qa as usize], b.finals[qb as usize]))
            .collect();
        Dfa {
            alphabet: universe,
            trans,
            start: 0,
            finals,
        }
    }

    /// Intersection.
    pub fn intersect(&self, other: &Dfa<S>) -> Dfa<S> {
        self.product(other, |a, b| a && b)
    }

    /// Union.
    pub fn union(&self, other: &Dfa<S>) -> Dfa<S> {
        self.product(other, |a, b| a || b)
    }

    /// Difference `L(self) ∖ L(other)`.
    pub fn difference(&self, other: &Dfa<S>) -> Dfa<S> {
        self.product(other, |a, b| a && !b)
    }

    /// A shortest accepted word, or `None` when the language is empty.
    pub fn witness(&self) -> Option<Vec<S>> {
        let mut pred: Vec<Option<(u32, S)>> = vec![None; self.trans.len()];
        let mut seen = vec![false; self.trans.len()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start as usize] = true;
        let mut hit = if self.finals[self.start as usize] {
            Some(self.start)
        } else {
            None
        };
        while hit.is_none() {
            let Some(q) = queue.pop_front() else { break };
            for (i, t) in self.trans[q as usize].iter().enumerate() {
                if let Some(next) = t {
                    if !seen[*next as usize] {
                        seen[*next as usize] = true;
                        pred[*next as usize] = Some((q, self.alphabet[i]));
                        if self.finals[*next as usize] {
                            hit = Some(*next);
                            break;
                        }
                        queue.push_back(*next);
                    }
                }
            }
        }
        let mut cur = hit?;
        let mut word = Vec::new();
        while let Some((p, s)) = pred[cur as usize] {
            word.push(s);
            cur = p;
        }
        word.reverse();
        Some(word)
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.witness().is_none()
    }

    /// Language inclusion `L(self) ⊆ L(other)`.
    pub fn subset_of(&self, other: &Dfa<S>) -> bool {
        self.difference(other).is_empty()
    }

    /// Language equivalence.
    pub fn equivalent(&self, other: &Dfa<S>) -> bool {
        self.subset_of(other) && other.subset_of(self)
    }

    /// Moore partition-refinement minimization (on the completed automaton,
    /// restricted to reachable states).
    pub fn minimize(&self) -> Dfa<S> {
        let d = self.complete().reachable();
        let n = d.trans.len();
        // partition ids per state; start from finality.
        let mut part: Vec<u32> = d.finals.iter().map(|&f| f as u32).collect();
        loop {
            let mut sig_index: BTreeMap<(u32, Vec<u32>), u32> = BTreeMap::new();
            let mut next_part = vec![0u32; n];
            for q in 0..n {
                let sig: Vec<u32> = d.trans[q]
                    .iter()
                    .map(|t| part[t.expect("complete") as usize])
                    .collect();
                let key = (part[q], sig);
                let next_id = sig_index.len() as u32;
                let id = *sig_index.entry(key).or_insert(next_id);
                next_part[q] = id;
            }
            if next_part == part {
                break;
            }
            part = next_part;
        }
        let classes = part.iter().copied().max().map_or(0, |m| m + 1) as usize;
        let mut trans = vec![vec![None; d.alphabet.len()]; classes];
        let mut finals = vec![false; classes];
        for q in 0..n {
            let c = part[q] as usize;
            finals[c] = d.finals[q];
            for (i, t) in d.trans[q].iter().enumerate() {
                trans[c][i] = Some(part[t.expect("complete") as usize]);
            }
        }
        Dfa {
            alphabet: d.alphabet,
            trans,
            start: part[d.start as usize],
            finals,
        }
    }

    /// Restricts to states reachable from the start state.
    pub fn reachable(&self) -> Dfa<S> {
        let mut map: Vec<Option<u32>> = vec![None; self.trans.len()];
        let mut order: Vec<u32> = Vec::new();
        let mut queue = VecDeque::from([self.start]);
        map[self.start as usize] = Some(0);
        order.push(self.start);
        while let Some(q) = queue.pop_front() {
            for next in self.trans[q as usize].iter().flatten() {
                if map[*next as usize].is_none() {
                    map[*next as usize] = Some(order.len() as u32);
                    order.push(*next);
                    queue.push_back(*next);
                }
            }
        }
        let trans = order
            .iter()
            .map(|&q| {
                self.trans[q as usize]
                    .iter()
                    .map(|t| t.map(|n| map[n as usize].expect("reachable")))
                    .collect()
            })
            .collect();
        let finals = order.iter().map(|&q| self.finals[q as usize]).collect();
        Dfa {
            alphabet: self.alphabet.clone(),
            trans,
            start: 0,
            finals,
        }
    }

    /// Converts back to a regular expression by state elimination
    /// (McNaughton–Yamada). The result can be large but islanguage-equivalent;
    /// used to render inferred types human-readably.
    pub fn to_regex(&self) -> Regex<S> {
        // GNFA: fresh initial I and final F; edges carry regexes.
        let n = self.trans.len();
        let init = n;
        let fin = n + 1;
        let mut edge: std::collections::HashMap<(usize, usize), Regex<S>> =
            std::collections::HashMap::new();
        let add = |edges: &mut std::collections::HashMap<(usize, usize), Regex<S>>,
                   from: usize,
                   to: usize,
                   r: Regex<S>| {
            let slot = edges.entry((from, to)).or_insert(Regex::Empty);
            *slot = std::mem::replace(slot, Regex::Empty).alt(r);
        };
        add(&mut edge, init, self.start as usize, Regex::Epsilon);
        for (q, row) in self.trans.iter().enumerate() {
            for (i, t) in row.iter().enumerate() {
                if let Some(next) = t {
                    add(&mut edge, q, *next as usize, Regex::Sym(self.alphabet[i]));
                }
            }
            if self.finals[q] {
                add(&mut edge, q, fin, Regex::Epsilon);
            }
        }
        // Eliminate original states one by one.
        for k in 0..n {
            let self_loop = edge.remove(&(k, k)).unwrap_or(Regex::Empty).star();
            let incoming: Vec<(usize, Regex<S>)> = edge
                .iter()
                .filter(|((_, to), _)| *to == k)
                .map(|((from, _), r)| (*from, r.clone()))
                .collect();
            let outgoing: Vec<(usize, Regex<S>)> = edge
                .iter()
                .filter(|((from, _), _)| *from == k)
                .map(|((_, to), r)| (*to, r.clone()))
                .collect();
            edge.retain(|(from, to), _| *from != k && *to != k);
            for (from, rin) in &incoming {
                if *from == k {
                    continue;
                }
                for (to, rout) in &outgoing {
                    if *to == k {
                        continue;
                    }
                    let path = rin.clone().concat(self_loop.clone()).concat(rout.clone());
                    add(&mut edge, *from, *to, path);
                }
            }
        }
        edge.remove(&(init, fin)).unwrap_or(Regex::Empty)
    }

    /// All accepted words of length at most `max_len`, in length-then-
    /// lexicographic order, up to `limit` words.
    pub fn words_up_to(&self, max_len: usize, limit: usize) -> Vec<Vec<S>> {
        let mut out = Vec::new();
        let mut layer: Vec<(u32, Vec<S>)> = vec![(self.start, Vec::new())];
        for len in 0..=max_len {
            for (q, w) in &layer {
                if self.finals[*q as usize] {
                    out.push(w.clone());
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            if len == max_len {
                break;
            }
            let mut next = Vec::new();
            for (q, w) in &layer {
                for (i, t) in self.trans[*q as usize].iter().enumerate() {
                    if let Some(n) = t {
                        let mut w2 = w.clone();
                        w2.push(self.alphabet[i]);
                        next.push((*n, w2));
                    }
                }
            }
            layer = next;
        }
        out
    }
}

fn sorted_dedup<S: Copy + Ord>(xs: &[S]) -> Vec<S> {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

fn sorted_dedup_union<S: Copy + Ord>(a: &[S], b: &[S]) -> Vec<S> {
    let mut v = a.to_vec();
    v.extend_from_slice(b);
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn rex(src: &str) -> Regex<char> {
        parse(src)
            .unwrap()
            .map(&mut |n: &String| n.chars().next().unwrap())
    }

    fn dfa(src: &str, universe: &str) -> Dfa<char> {
        Dfa::from_regex(&rex(src), &universe.chars().collect::<Vec<_>>())
    }

    fn acc(d: &Dfa<char>, w: &str) -> bool {
        d.accepts(&w.chars().collect::<Vec<_>>())
    }

    #[test]
    fn determinization_preserves_language() {
        let d = dfa("a.(b|c)*.d", "abcd");
        assert!(acc(&d, "ad"));
        assert!(acc(&d, "abcbd"));
        assert!(!acc(&d, "abc"));
        assert!(!acc(&d, ""));
    }

    #[test]
    fn complement() {
        let d = dfa("(b.b)*", "b").complement(&['b']);
        assert!(!acc(&d, ""));
        assert!(acc(&d, "b"));
        assert!(!acc(&d, "bb"));
        assert!(acc(&d, "bbb"));
    }

    #[test]
    fn complement_with_larger_universe() {
        let d = dfa("a*", "ab").complement(&['a', 'b']);
        assert!(!acc(&d, "aa"));
        assert!(acc(&d, "ab"));
        assert!(acc(&d, "b"));
    }

    #[test]
    fn products() {
        let even_a = dfa("(a.a)*", "a");
        let nonempty = dfa("a+", "a");
        let i = even_a.intersect(&nonempty);
        assert!(!acc(&i, ""));
        assert!(acc(&i, "aa"));
        assert!(!acc(&i, "aaa"));
        let u = even_a.union(&nonempty);
        assert!(acc(&u, ""));
        assert!(acc(&u, "aaa"));
        let diff = nonempty.difference(&even_a);
        assert!(acc(&diff, "a"));
        assert!(!acc(&diff, "aa"));
    }

    #[test]
    fn witness_and_emptiness() {
        let d = dfa("a.b.c", "abc");
        assert_eq!(d.witness(), Some(vec!['a', 'b', 'c']));
        assert!(!d.is_empty());
        let e = dfa("a", "ab").intersect(&dfa("b", "ab"));
        assert!(e.is_empty());
        assert_eq!(e.witness(), None);
        let eps = dfa("a*", "a");
        assert_eq!(eps.witness(), Some(vec![]));
    }

    #[test]
    fn inclusion_and_equivalence() {
        let d1 = dfa("a.a", "a");
        let d2 = dfa("(a.a)*", "a");
        let d3 = dfa("a*", "a");
        assert!(d1.subset_of(&d2));
        assert!(d2.subset_of(&d3));
        assert!(!d3.subset_of(&d2));
        assert!(d2.equivalent(&dfa("(a.a)*", "a")));
        assert!(!d2.equivalent(&d3));
    }

    #[test]
    fn minimization_reduces_and_preserves() {
        // (a|b)*.a.(a|b) has a 4-state minimal DFA (plus sink = 5 complete).
        let d = dfa("(a|b)*.a.(a|b)", "ab");
        let m = d.minimize();
        assert!(m.equivalent(&d));
        assert!(m.len() <= d.complete().len());
        for w in ["aa", "ab", "ba", "bb", "aab", "abab", ""] {
            assert_eq!(acc(&m, w), acc(&d, w), "word {w}");
        }
    }

    #[test]
    fn words_up_to_enumerates_in_order() {
        let d = dfa("a.b*", "ab");
        let ws = d.words_up_to(3, 10);
        let strings: Vec<String> = ws.iter().map(|w| w.iter().collect()).collect();
        assert_eq!(strings, vec!["a", "ab", "abb"]);
    }

    #[test]
    fn empty_automaton() {
        let d: Dfa<char> = Dfa::empty(&['a']);
        assert!(d.is_empty());
        assert!(!acc(&d, ""));
        let c = d.complement(&['a']);
        assert!(acc(&c, ""));
        assert!(acc(&c, "aaa"));
    }

    #[test]
    fn extend_alphabet_is_conservative() {
        let d = dfa("a*", "a");
        let e = d.extend_alphabet(&['a', 'b']);
        assert!(acc(&e, "aa"));
        assert!(!acc(&e, "ab"));
        assert_eq!(e.alphabet(), &['a', 'b']);
    }
}

#[cfg(test)]
mod to_regex_tests {
    use super::*;
    use crate::parse::parse;

    fn rex(src: &str) -> Regex<char> {
        parse(src)
            .unwrap()
            .map(&mut |n: &String| n.chars().next().unwrap())
    }

    #[test]
    fn round_trip_preserves_language() {
        for src in [
            "a.b.c",
            "(a|b)*",
            "a.(b|c)*.a",
            "(a.a)*",
            "a?",
            "@empty",
            "@eps",
            "(a|b)*.a.(a|b)",
        ] {
            let d = Dfa::from_regex(&rex(src), &['a', 'b', 'c']);
            let back = d.to_regex();
            let d2 = Dfa::from_regex(&back, &['a', 'b', 'c']);
            assert!(d.equivalent(&d2), "round trip failed for {src}: got {back}");
        }
    }

    #[test]
    fn minimized_inputs_give_compact_output() {
        let d = Dfa::from_regex(&rex("(b.b)*"), &['b']).minimize();
        let r = d.to_regex();
        let d2 = Dfa::from_regex(&r, &['b']);
        assert!(d.equivalent(&d2));
    }
}

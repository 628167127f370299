//! Solution mappings and the algebra over sets of them.
//!
//! Implements the semantics of Pérez, Arenas & Gutierrez that the paper
//! adopts in Sect. IV-A: a solution `µ` is a partial function from
//! variables to RDF terms; two solutions are *compatible* if every shared
//! variable is bound to the same term; and sets of solutions compose via
//! join (`⋈`), union (`∪`), difference (`−`) and left outer join (`⟕`).
//!
//! Two implementations of the set operators coexist:
//!
//! - [`naive`] — the literal nested-loop transcription of the paper's
//!   definitions, kept as the reference oracle for property tests and
//!   before/after benchmarks;
//! - [`hashed`] — hash-based operators over interned bindings (see
//!   [`crate::interned`]) that bucket one side by its shared-variable
//!   signature and probe with the other, turning the O(n·m)
//!   compatibility scan into O(n + m + output).
//!
//! The public top-level functions ([`join`], [`difference`],
//! [`left_join`], [`left_join_filtered`]) dispatch between them by the
//! process-wide [`AlgebraMode`]; both paths produce **identical output in
//! identical order** (property-tested in `tests/hash_algebra.rs`), so
//! the choice is invisible to everything downstream — including the
//! simulated byte/message accounting of the distributed engine.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};

use rdfmesh_rdf::fxhash::FxHasher64;
use rdfmesh_rdf::{Term, Variable};

type FxBuild = BuildHasherDefault<FxHasher64>;

/// A solution mapping `µ : V → U` (partial).
///
/// Backed by a sorted map so that solutions have a canonical form, which
/// makes `DISTINCT`, set difference and test assertions deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Solution {
    bindings: BTreeMap<Variable, Term>,
}

impl Solution {
    /// The empty solution `µ0` (defined on no variables).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a solution from `(variable, term)` pairs.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (Variable, Term)>,
    {
        Solution { bindings: pairs.into_iter().collect() }
    }

    /// The term bound to `var`, if any.
    pub fn get(&self, var: &Variable) -> Option<&Term> {
        self.bindings.get(var)
    }

    /// The term bound to the variable named `name`, if any.
    pub fn get_by_name(&self, name: &str) -> Option<&Term> {
        self.bindings.get(&Variable::new(name))
    }

    /// Binds `var` to `term`. Returns `false` (and leaves the solution
    /// unchanged) if `var` is already bound to a different term.
    pub fn bind(&mut self, var: Variable, term: Term) -> bool {
        match self.bindings.get(&var) {
            Some(existing) => *existing == term,
            None => {
                self.bindings.insert(var, term);
                true
            }
        }
    }

    /// The domain `dom(µ)` — the variables on which this solution is
    /// defined.
    pub fn domain(&self) -> impl Iterator<Item = &Variable> {
        self.bindings.keys()
    }

    /// Iterates over `(variable, term)` bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Variable, &Term)> {
        self.bindings.iter()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Compatibility: `µ1` and `µ2` are compatible when every variable in
    /// both domains maps to the same term.
    pub fn compatible(&self, other: &Solution) -> bool {
        // Iterate the smaller map for speed.
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        small
            .bindings
            .iter()
            .all(|(v, t)| large.bindings.get(v).is_none_or(|u| u == t))
    }

    /// `µ1 ∪ µ2` for compatible solutions; `None` if incompatible.
    pub fn merge(&self, other: &Solution) -> Option<Solution> {
        if !self.compatible(other) {
            return None;
        }
        let mut merged = self.clone();
        for (v, t) in &other.bindings {
            merged.bindings.entry(v.clone()).or_insert_with(|| t.clone());
        }
        Some(merged)
    }

    /// Restricts the solution to the given variables (projection).
    pub fn project(&self, vars: &[Variable]) -> Solution {
        Solution {
            bindings: self
                .bindings
                .iter()
                .filter(|(v, _)| vars.contains(v))
                .map(|(v, t)| (v.clone(), t.clone()))
                .collect(),
        }
    }

    /// Serialized size in bytes when shipped between sites: each binding
    /// costs `?name` + one separator + the N-Triples form of the term,
    /// plus a two-byte record frame. This is the unit in which the paper's
    /// "total amount of intersite data transmission" is accounted.
    pub fn serialized_len(&self) -> usize {
        2 + self
            .bindings
            .iter()
            .map(|(v, t)| v.as_str().len() + 2 + t.serialized_len())
            .sum::<usize>()
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        write!(f, "}}")
    }
}

/// A set of solution mappings `Ω`.
///
/// Represented as a `Vec` because SPARQL solution *sequences* may carry
/// duplicates prior to `DISTINCT`; the set-algebra operations treat it as
/// a multiset, matching the W3C semantics.
pub type SolutionSet = Vec<Solution>;

/// Which implementation the top-level algebra operators use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgebraMode {
    /// Hash operators for large inputs, nested loops when the pair
    /// product is small enough that hashing overhead would dominate.
    /// The default.
    Auto,
    /// Always the nested-loop reference implementation ([`naive`]).
    Naive,
    /// Always the hash implementation ([`hashed`]).
    Hash,
}

static ALGEBRA_MODE: AtomicU8 = AtomicU8::new(0);

/// Selects the operator implementation process-wide. Intended for
/// benchmarks and twin-run regression tests; both modes produce
/// identical results, so production code never needs to call this.
pub fn set_algebra_mode(mode: AlgebraMode) {
    let v = match mode {
        AlgebraMode::Auto => 0,
        AlgebraMode::Naive => 1,
        AlgebraMode::Hash => 2,
    };
    ALGEBRA_MODE.store(v, Ordering::Relaxed);
}

/// The current operator implementation mode.
pub fn algebra_mode() -> AlgebraMode {
    match ALGEBRA_MODE.load(Ordering::Relaxed) {
        1 => AlgebraMode::Naive,
        2 => AlgebraMode::Hash,
        _ => AlgebraMode::Auto,
    }
}

/// Below this left×right pair product, `Auto` keeps the nested loop:
/// building an interner and hash tables costs more than scanning a
/// handful of pairs.
const NAIVE_PRODUCT_CUTOFF: usize = 256;

fn use_hash(left: usize, right: usize) -> bool {
    match algebra_mode() {
        AlgebraMode::Naive => false,
        AlgebraMode::Hash => true,
        AlgebraMode::Auto => left.saturating_mul(right) > NAIVE_PRODUCT_CUTOFF,
    }
}

/// `Ω1 ⋈ Ω2` — all merges of compatible pairs (Sect. IV-A), in
/// nested-loop order (ascending left index, then right index).
pub fn join(left: &[Solution], right: &[Solution]) -> SolutionSet {
    if use_hash(left.len(), right.len()) {
        hashed::join(left, right)
    } else {
        naive::join(left, right)
    }
}

/// `Ω1 ∪ Ω2` — multiset union (Sect. IV-A).
pub fn union(left: &[Solution], right: &[Solution]) -> SolutionSet {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend_from_slice(left);
    out.extend_from_slice(right);
    out
}

/// `Ω1 − Ω2` — solutions of `Ω1` compatible with **no** solution of `Ω2`
/// (Sect. IV-A), in `Ω1` order.
pub fn difference(left: &[Solution], right: &[Solution]) -> SolutionSet {
    if use_hash(left.len(), right.len()) {
        hashed::difference(left, right)
    } else {
        naive::difference(left, right)
    }
}

/// `Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2)` — left outer join (Sect. IV-E).
pub fn left_join(left: &[Solution], right: &[Solution]) -> SolutionSet {
    if use_hash(left.len(), right.len()) {
        hashed::left_join(left, right)
    } else {
        naive::left_join(left, right)
    }
}

/// Left outer join with a filter condition on the joined rows, as required
/// by the algebra operator `LeftJoin(P1, P2, expr)`: rows of `Ω1 ⋈ Ω2`
/// must satisfy `cond`; rows of `Ω1` with no *satisfying* compatible
/// partner survive unextended.
pub fn left_join_filtered<F>(left: &[Solution], right: &[Solution], cond: F) -> SolutionSet
where
    F: FnMut(&Solution) -> bool,
{
    if use_hash(left.len(), right.len()) {
        hashed::left_join_filtered(left, right, cond)
    } else {
        naive::left_join_filtered(left, right, cond)
    }
}

/// Total serialized size of a solution set (for byte accounting).
pub fn serialized_len(solutions: &[Solution]) -> usize {
    solutions.iter().map(Solution::serialized_len).sum()
}

/// The nested-loop transcription of the Sect. IV-A operator definitions.
///
/// O(n·m) compatibility scans; retained verbatim as the reference oracle
/// the hash operators are property-tested and benchmarked against.
pub mod naive {
    use super::{Solution, SolutionSet};

    /// `Ω1 ⋈ Ω2` by scanning every pair.
    pub fn join(left: &[Solution], right: &[Solution]) -> SolutionSet {
        let mut out = Vec::new();
        for l in left {
            for r in right {
                if let Some(m) = l.merge(r) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// `Ω1 − Ω2` by scanning every pair.
    pub fn difference(left: &[Solution], right: &[Solution]) -> SolutionSet {
        left.iter()
            .filter(|l| !right.iter().any(|r| l.compatible(r)))
            .cloned()
            .collect()
    }

    /// `Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2)` via the nested-loop parts.
    pub fn left_join(left: &[Solution], right: &[Solution]) -> SolutionSet {
        let mut out = join(left, right);
        out.extend(difference(left, right));
        out
    }

    /// Conditional left outer join by scanning every pair.
    pub fn left_join_filtered<F>(
        left: &[Solution],
        right: &[Solution],
        mut cond: F,
    ) -> SolutionSet
    where
        F: FnMut(&Solution) -> bool,
    {
        let mut out = Vec::new();
        for l in left {
            let mut extended = false;
            for r in right {
                if let Some(m) = l.merge(r) {
                    if cond(&m) {
                        out.push(m);
                        extended = true;
                    }
                }
            }
            if !extended {
                out.push(l.clone());
            }
        }
        out
    }

    /// First-seen-order duplicate elimination by linear scan — the old
    /// `merge_distinct` behaviour, kept as the [`super::distinct`] oracle.
    pub fn distinct(rows: Vec<Solution>) -> Vec<Solution> {
        let mut out: Vec<Solution> = Vec::new();
        for s in rows {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }
}

/// Hash-based operators over interned bindings (see [`crate::interned`]).
///
/// Each operator interns both operands into a query-local dictionary,
/// builds a [`crate::interned::JoinIndex`] on the right side keyed by
/// shared-variable signatures, probes it with the left rows, and decodes
/// merged rows back to [`Solution`]s only at the boundary. Output order
/// is exactly the nested-loop order of [`naive`].
pub mod hashed {
    use super::{Solution, SolutionSet};
    use crate::interned::{decode, encode, merge_rows, Interner, JoinIndex};

    /// `Ω1 ⋈ Ω2` via hash probing.
    pub fn join(left: &[Solution], right: &[Solution]) -> SolutionSet {
        if left.is_empty() || right.is_empty() {
            return Vec::new();
        }
        let mut interner = Interner::new();
        let l = encode(&mut interner, left);
        let r = encode(&mut interner, right);
        let mut index = JoinIndex::new(&r);
        let mut out = Vec::new();
        let mut hits = Vec::new();
        for lrow in &l {
            index.compatible_into(lrow, &mut hits);
            for &j in &hits {
                out.push(decode(&interner, &merge_rows(lrow, &r[j])));
            }
        }
        out
    }

    /// `Ω1 − Ω2` via hash probing.
    pub fn difference(left: &[Solution], right: &[Solution]) -> SolutionSet {
        if left.is_empty() {
            return Vec::new();
        }
        if right.is_empty() {
            return left.to_vec();
        }
        let mut interner = Interner::new();
        let l = encode(&mut interner, left);
        let r = encode(&mut interner, right);
        let mut index = JoinIndex::new(&r);
        left.iter()
            .zip(&l)
            .filter(|(_, lrow)| !index.any_compatible(lrow))
            .map(|(sol, _)| sol.clone())
            .collect()
    }

    /// `Ω1 ⟕ Ω2` as join-then-difference, matching the naive
    /// concatenation order.
    pub fn left_join(left: &[Solution], right: &[Solution]) -> SolutionSet {
        let mut out = join(left, right);
        out.extend(difference(left, right));
        out
    }

    /// Conditional left outer join: compatible pairs come from the hash
    /// index; only those pairs are merged, decoded and tested.
    pub fn left_join_filtered<F>(
        left: &[Solution],
        right: &[Solution],
        mut cond: F,
    ) -> SolutionSet
    where
        F: FnMut(&Solution) -> bool,
    {
        if right.is_empty() {
            return left.to_vec();
        }
        let mut interner = Interner::new();
        let l = encode(&mut interner, left);
        let r = encode(&mut interner, right);
        let mut index = JoinIndex::new(&r);
        let mut out = Vec::new();
        let mut hits = Vec::new();
        for (sol, lrow) in left.iter().zip(&l) {
            index.compatible_into(lrow, &mut hits);
            let mut extended = false;
            for &j in &hits {
                let m = decode(&interner, &merge_rows(lrow, &r[j]));
                if cond(&m) {
                    out.push(m);
                    extended = true;
                }
            }
            if !extended {
                out.push(sol.clone());
            }
        }
        out
    }
}

/// A length-prefixed binary codec for solution sets — the wire format the
/// socket transport ships between sites.
///
/// The live mesh's solution rounds move [`SolutionSet`]s between storage
/// nodes and the coordinator; this codec fixes the byte layout so their
/// transfer sizes can be accounted (the `live.solution_bytes` counter)
/// with the same number a real deployment puts on the network.
/// Layout: a `u32` solution count, then per solution a `u32` binding
/// count followed by `(variable name, term)` records. Strings are
/// `u32`-length-prefixed UTF-8; terms carry a one-byte tag (IRI, blank,
/// plain / language-tagged / typed literal). All integers little-endian.
///
/// The primitive writers ([`wire::put_str`], [`wire::put_term`],
/// [`wire::put_u32`], [`wire::put_u64`]) and the [`wire::Reader`] cursor
/// are public so higher-level codecs — the live-protocol message codec
/// in `rdfmesh-core` and the
/// [`crate::expr::wire`] expression codec — compose the same primitives
/// instead of reinventing term encoding. `docs/DEPLOYMENT.md` specifies
/// the full byte layout.
pub mod wire {
    use rdfmesh_rdf::{BlankNode, Iri, Literal, LiteralKind, Term, Variable};

    use super::{Solution, SolutionSet};

    /// A malformed byte stream handed to [`decode`] (or any of the
    /// [`Reader`] primitives).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireError(
        /// What was wrong with the stream.
        pub &'static str,
    );

    impl std::fmt::Display for WireError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "solution wire decode error: {}", self.0)
        }
    }

    impl std::error::Error for WireError {}

    const TAG_IRI: u8 = 0;
    const TAG_BLANK: u8 = 1;
    const TAG_PLAIN: u8 = 2;
    const TAG_LANG: u8 = 3;
    const TAG_TYPED: u8 = 4;

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(out: &mut Vec<u8>, n: u32) {
        out.extend_from_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(out: &mut Vec<u8>, n: u64) {
        out.extend_from_slice(&n.to_le_bytes());
    }

    /// Appends a tagged RDF term (see the module docs for the layout).
    pub fn put_term(out: &mut Vec<u8>, term: &Term) {
        match term {
            Term::Iri(iri) => {
                out.push(TAG_IRI);
                put_str(out, iri.as_str());
            }
            Term::Blank(b) => {
                out.push(TAG_BLANK);
                put_str(out, b.as_str());
            }
            Term::Literal(lit) => match lit.kind() {
                LiteralKind::Plain => {
                    out.push(TAG_PLAIN);
                    put_str(out, lit.lexical());
                }
                LiteralKind::LanguageTagged(tag) => {
                    out.push(TAG_LANG);
                    put_str(out, lit.lexical());
                    put_str(out, tag);
                }
                LiteralKind::Typed(dt) => {
                    out.push(TAG_TYPED);
                    put_str(out, lit.lexical());
                    put_str(out, dt.as_str());
                }
            },
        }
    }

    /// Encodes a solution set into its wire bytes.
    pub fn encode(solutions: &[Solution]) -> Vec<u8> {
        let mut out = Vec::new();
        put_solutions(&mut out, solutions);
        out
    }

    /// A checked cursor over wire bytes: every read validates bounds and
    /// returns a [`WireError`] instead of panicking, so a malformed or
    /// truncated frame from the network is rejected, never trusted.
    pub struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A cursor positioned at the start of `bytes`.
        pub fn new(bytes: &'a [u8]) -> Self {
            Reader { bytes, pos: 0 }
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, WireError> {
            let end = self.pos.checked_add(4).ok_or(WireError("length overflow"))?;
            let chunk = self.bytes.get(self.pos..end).ok_or(WireError("truncated integer"))?;
            self.pos = end;
            Ok(u32::from_le_bytes(chunk.try_into().expect("4-byte slice")))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, WireError> {
            let end = self.pos.checked_add(8).ok_or(WireError("length overflow"))?;
            let chunk = self.bytes.get(self.pos..end).ok_or(WireError("truncated integer"))?;
            self.pos = end;
            Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte slice")))
        }

        /// Reads one tag byte.
        pub fn u8(&mut self) -> Result<u8, WireError> {
            let b = *self.bytes.get(self.pos).ok_or(WireError("truncated tag"))?;
            self.pos += 1;
            Ok(b)
        }

        /// Reads a `u32`-length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<&'a str, WireError> {
            let len = self.u32()? as usize;
            let end = self.pos.checked_add(len).ok_or(WireError("length overflow"))?;
            let chunk = self.bytes.get(self.pos..end).ok_or(WireError("truncated string"))?;
            self.pos = end;
            std::str::from_utf8(chunk).map_err(|_| WireError("invalid UTF-8"))
        }

        /// Reads a tagged RDF term (inverse of [`put_term`]).
        pub fn term(&mut self) -> Result<Term, WireError> {
            match self.u8()? {
                TAG_IRI => Ok(Term::Iri(
                    Iri::new(self.str()?).map_err(|_| WireError("invalid IRI"))?,
                )),
                TAG_BLANK => Ok(Term::Blank(
                    BlankNode::new(self.str()?).map_err(|_| WireError("invalid blank node"))?,
                )),
                TAG_PLAIN => Ok(Term::Literal(Literal::plain(self.str()?))),
                TAG_LANG => {
                    let lexical = self.str()?.to_owned();
                    Ok(Term::Literal(Literal::lang(lexical, self.str()?)))
                }
                TAG_TYPED => {
                    let lexical = self.str()?.to_owned();
                    let dt = Iri::new(self.str()?).map_err(|_| WireError("invalid datatype"))?;
                    Ok(Term::Literal(Literal::typed(lexical, dt)))
                }
                _ => Err(WireError("unknown term tag")),
            }
        }
    }

    impl Reader<'_> {
        /// Asserts the stream was consumed exactly: trailing bytes are a
        /// framing error, not padding.
        pub fn finish(self) -> Result<(), WireError> {
            if self.pos != self.bytes.len() {
                return Err(WireError("trailing bytes"));
            }
            Ok(())
        }
    }

    /// Appends a solution set (inverse of the body [`decode`] reads).
    pub fn put_solutions(out: &mut Vec<u8>, solutions: &[Solution]) {
        put_u32(out, solutions.len() as u32);
        for sol in solutions {
            put_u32(out, sol.len() as u32);
            for (var, term) in sol.iter() {
                put_str(out, var.as_str());
                put_term(out, term);
            }
        }
    }

    /// Reads a solution set off `r` (the streaming form of [`decode`]).
    pub fn read_solutions(r: &mut Reader<'_>) -> Result<SolutionSet, WireError> {
        let count = r.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..count {
            let bindings = r.u32()? as usize;
            let mut sol = Solution::new();
            for _ in 0..bindings {
                let var = Variable::new(r.str()?);
                let term = r.term()?;
                if !sol.bind(var, term) {
                    return Err(WireError("duplicate variable in solution"));
                }
            }
            out.push(sol);
        }
        Ok(out)
    }

    /// Decodes wire bytes back into a solution set. Exact inverse of
    /// [`encode`]; trailing bytes are an error.
    pub fn decode(bytes: &[u8]) -> Result<SolutionSet, WireError> {
        let mut r = Reader::new(bytes);
        let out = read_solutions(&mut r)?;
        r.finish()?;
        Ok(out)
    }
}

fn solution_hash(s: &Solution) -> u64 {
    let mut h = FxHasher64::default();
    s.hash(&mut h);
    h.finish()
}

/// An order-preserving duplicate filter over solutions, backed by a hash
/// index instead of a linear `contains` scan.
///
/// Used by the distributed engine's in-network aggregation (identical
/// solutions from triples replicated at several providers collapse —
/// paper footnote 13) and by `DISTINCT` post-processing. Insertion order
/// of first occurrences is preserved, so it is a drop-in replacement for
/// the O(n²) scan with byte-identical output.
#[derive(Debug, Default)]
pub struct DistinctBuffer {
    rows: Vec<Solution>,
    index: HashMap<u64, Vec<u32>, FxBuild>,
}

impl DistinctBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `solution` unless an equal one was already inserted.
    /// Returns `true` if it was added.
    pub fn push(&mut self, solution: Solution) -> bool {
        let slot = self.index.entry(solution_hash(&solution)).or_default();
        if slot.iter().any(|&i| self.rows[i as usize] == solution) {
            return false;
        }
        slot.push(u32::try_from(self.rows.len()).expect("distinct buffer overflow"));
        self.rows.push(solution);
        true
    }

    /// Inserts every solution of `sols`, dropping exact duplicates.
    pub fn extend_distinct<I: IntoIterator<Item = Solution>>(&mut self, sols: I) {
        for s in sols {
            self.push(s);
        }
    }

    /// The distinct solutions in first-seen order.
    pub fn as_slice(&self) -> &[Solution] {
        &self.rows
    }

    /// Number of distinct solutions held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Consumes the buffer, returning the distinct solutions in
    /// first-seen order.
    pub fn into_vec(self) -> Vec<Solution> {
        self.rows
    }
}

/// First-seen-order duplicate elimination via [`DistinctBuffer`] —
/// O(n) hashing instead of the O(n²) scan of [`naive::distinct`], same
/// output.
pub fn distinct(rows: Vec<Solution>) -> Vec<Solution> {
    let mut buf = DistinctBuffer::new();
    buf.extend_distinct(rows);
    buf.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Variable {
        Variable::new(name)
    }

    fn sol(pairs: &[(&str, &str)]) -> Solution {
        Solution::from_pairs(
            pairs
                .iter()
                .map(|(n, val)| (v(n), Term::iri(&format!("http://e/{val}")))),
        )
    }

    #[test]
    fn empty_solution_is_compatible_with_everything() {
        let mu0 = Solution::new();
        let mu = sol(&[("x", "a")]);
        assert!(mu0.compatible(&mu));
        assert!(mu.compatible(&mu0));
        assert_eq!(mu0.merge(&mu), Some(mu.clone()));
    }

    #[test]
    fn compatibility_requires_agreement_on_shared_vars() {
        let a = sol(&[("x", "a"), ("y", "b")]);
        let b = sol(&[("y", "b"), ("z", "c")]);
        let c = sol(&[("y", "OTHER")]);
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
    }

    #[test]
    fn merge_unions_domains() {
        let a = sol(&[("x", "a")]);
        let b = sol(&[("y", "b")]);
        let m = a.merge(&b).unwrap();
        assert_eq!(m.get(&v("x")), Some(&Term::iri("http://e/a")));
        assert_eq!(m.get(&v("y")), Some(&Term::iri("http://e/b")));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn bind_rejects_conflicting_rebinding() {
        let mut s = sol(&[("x", "a")]);
        assert!(s.bind(v("x"), Term::iri("http://e/a")));
        assert!(!s.bind(v("x"), Term::iri("http://e/b")));
        assert!(s.bind(v("y"), Term::iri("http://e/b")));
    }

    #[test]
    fn join_produces_compatible_merges_only() {
        let l = vec![sol(&[("x", "a"), ("y", "b")]), sol(&[("x", "q"), ("y", "r")])];
        let r = vec![sol(&[("y", "b"), ("z", "c")])];
        let j = join(&l, &r);
        assert_eq!(j.len(), 1);
        assert_eq!(j[0].get(&v("z")), Some(&Term::iri("http://e/c")));
    }

    #[test]
    fn difference_keeps_incompatible_rows() {
        let l = vec![sol(&[("x", "a")]), sol(&[("x", "b")])];
        let r = vec![sol(&[("x", "a"), ("z", "c")])];
        let d = difference(&l, &r);
        assert_eq!(d, vec![sol(&[("x", "b")])]);
    }

    #[test]
    fn left_join_is_join_union_difference() {
        // Paper Sect. IV-E: Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2).
        let l = vec![sol(&[("x", "a")]), sol(&[("x", "b")])];
        let r = vec![sol(&[("x", "a"), ("y", "c")])];
        let mut lj = left_join(&l, &r);
        lj.sort();
        let mut expect = vec![sol(&[("x", "a"), ("y", "c")]), sol(&[("x", "b")])];
        expect.sort();
        assert_eq!(lj, expect);
    }

    #[test]
    fn left_join_filtered_drops_failing_extensions_but_keeps_bases() {
        let l = vec![sol(&[("x", "a")])];
        let r = vec![sol(&[("x", "a"), ("y", "c")])];
        // Condition rejects every extension: base row must survive bare.
        let out = left_join_filtered(&l, &r, |_| false);
        assert_eq!(out, vec![sol(&[("x", "a")])]);
        // Condition accepts: extension survives.
        let out = left_join_filtered(&l, &r, |_| true);
        assert_eq!(out, vec![sol(&[("x", "a"), ("y", "c")])]);
    }

    #[test]
    fn union_is_multiset() {
        let l = vec![sol(&[("x", "a")])];
        let r = vec![sol(&[("x", "a")])];
        assert_eq!(union(&l, &r).len(), 2);
    }

    #[test]
    fn projection_restricts_domain() {
        let s = sol(&[("x", "a"), ("y", "b"), ("z", "c")]);
        let p = s.project(&[v("x"), v("z")]);
        assert_eq!(p.len(), 2);
        assert!(p.get(&v("y")).is_none());
    }

    #[test]
    fn serialized_len_grows_with_bindings() {
        let s1 = sol(&[("x", "a")]);
        let s2 = sol(&[("x", "a"), ("y", "b")]);
        assert!(s2.serialized_len() > s1.serialized_len());
        assert_eq!(serialized_len(&[s1.clone(), s1.clone()]), 2 * s1.serialized_len());
    }

    #[test]
    fn display_is_readable() {
        let s = sol(&[("x", "a")]);
        assert_eq!(s.to_string(), "{?x -> <http://e/a>}");
    }

    fn mixed_sets() -> (Vec<Solution>, Vec<Solution>) {
        // Heterogeneous domains, shared vars, disjoint rows, duplicates.
        let left = vec![
            sol(&[("x", "a"), ("y", "b")]),
            sol(&[("x", "a")]),
            sol(&[("z", "q")]),
            sol(&[("x", "c"), ("y", "d")]),
            sol(&[("x", "a"), ("y", "b")]),
            Solution::new(),
        ];
        let right = vec![
            sol(&[("y", "b"), ("w", "e")]),
            sol(&[("x", "a"), ("w", "f")]),
            sol(&[("w", "g")]),
            sol(&[("x", "z")]),
            Solution::new(),
        ];
        (left, right)
    }

    #[test]
    fn hashed_join_matches_naive_exactly() {
        let (l, r) = mixed_sets();
        assert_eq!(hashed::join(&l, &r), naive::join(&l, &r));
        assert_eq!(hashed::join(&r, &l), naive::join(&r, &l));
    }

    #[test]
    fn hashed_difference_matches_naive_exactly() {
        let (l, r) = mixed_sets();
        assert_eq!(hashed::difference(&l, &r), naive::difference(&l, &r));
        assert_eq!(hashed::difference(&r, &l), naive::difference(&r, &l));
    }

    #[test]
    fn hashed_left_join_matches_naive_exactly() {
        let (l, r) = mixed_sets();
        assert_eq!(hashed::left_join(&l, &r), naive::left_join(&l, &r));
        assert_eq!(hashed::left_join(&r, &l), naive::left_join(&r, &l));
    }

    #[test]
    fn hashed_left_join_filtered_matches_naive_exactly() {
        let (l, r) = mixed_sets();
        let cond = |s: &Solution| s.get(&v("w")).is_none_or(|t| t.to_string().contains('e'));
        assert_eq!(
            hashed::left_join_filtered(&l, &r, cond),
            naive::left_join_filtered(&l, &r, cond)
        );
    }

    #[test]
    fn hashed_handles_empty_operands() {
        let (l, _) = mixed_sets();
        let empty: Vec<Solution> = Vec::new();
        assert!(hashed::join(&l, &empty).is_empty());
        assert!(hashed::join(&empty, &l).is_empty());
        assert_eq!(hashed::difference(&l, &empty), l);
        assert!(hashed::difference(&empty, &l).is_empty());
        assert_eq!(hashed::left_join(&l, &empty), l);
        assert_eq!(hashed::left_join_filtered(&l, &empty, |_| true), l);
    }

    #[test]
    fn distinct_buffer_preserves_first_seen_order() {
        let rows = vec![
            sol(&[("x", "b")]),
            sol(&[("x", "a")]),
            sol(&[("x", "b")]),
            sol(&[("x", "c")]),
            sol(&[("x", "a")]),
        ];
        let deduped = distinct(rows.clone());
        assert_eq!(deduped, naive::distinct(rows));
        assert_eq!(
            deduped,
            vec![sol(&[("x", "b")]), sol(&[("x", "a")]), sol(&[("x", "c")])]
        );
    }

    #[test]
    fn distinct_buffer_push_reports_novelty() {
        let mut buf = DistinctBuffer::new();
        assert!(buf.is_empty());
        assert!(buf.push(sol(&[("x", "a")])));
        assert!(!buf.push(sol(&[("x", "a")])));
        assert!(buf.push(sol(&[("x", "b")])));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.as_slice().len(), 2);
        assert_eq!(buf.into_vec().len(), 2);
    }

    #[test]
    fn wire_round_trips_every_term_kind() {
        let dt = rdfmesh_rdf::Iri::new("http://www.w3.org/2001/XMLSchema#integer").unwrap();
        let sols = vec![
            Solution::new(),
            Solution::from_pairs([
                (v("i"), Term::iri("http://e/α")),
                (v("b"), rdfmesh_rdf::Term::Blank(rdfmesh_rdf::BlankNode::new("b1").unwrap())),
                (v("p"), rdfmesh_rdf::Term::Literal(rdfmesh_rdf::Literal::plain("plain \"q\""))),
                (v("l"), rdfmesh_rdf::Term::Literal(rdfmesh_rdf::Literal::lang("chat", "fr"))),
                (v("t"), rdfmesh_rdf::Term::Literal(rdfmesh_rdf::Literal::typed("42", dt))),
            ]),
            sol(&[("x", "a")]),
        ];
        let bytes = wire::encode(&sols);
        assert_eq!(wire::decode(&bytes).unwrap(), sols);
    }

    #[test]
    fn wire_rejects_malformed_streams() {
        let bytes = wire::encode(&[sol(&[("x", "a")])]);
        // Truncations at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(wire::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected.
        let mut extended = bytes;
        extended.push(0);
        assert!(wire::decode(&extended).is_err());
        // Unknown term tag is rejected.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes()); // one solution
        bad.extend_from_slice(&1u32.to_le_bytes()); // one binding
        bad.extend_from_slice(&1u32.to_le_bytes()); // var name "x"
        bad.push(b'x');
        bad.push(0xFF); // no such term tag
        assert!(wire::decode(&bad).is_err());
    }

    #[test]
    fn mode_dispatch_is_equivalent() {
        // Auto's cutoff sends small inputs down the naive path and large
        // ones down the hash path; both must agree with the oracle.
        let (l, r) = mixed_sets();
        let mut big_l = Vec::new();
        for i in 0..40 {
            big_l.push(sol(&[("x", "a"), ("n", &format!("i{i}"))]));
        }
        assert_eq!(join(&l, &r), naive::join(&l, &r));
        assert_eq!(join(&big_l, &r), naive::join(&big_l, &r));
        assert_eq!(left_join(&big_l, &r), naive::left_join(&big_l, &r));
        assert_eq!(difference(&big_l, &r), naive::difference(&big_l, &r));
        assert_eq!(algebra_mode(), AlgebraMode::Auto);
    }
}

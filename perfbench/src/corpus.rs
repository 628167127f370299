//! The seeded university corpus, the query pools of each workload, and the
//! answer oracle.
//!
//! The corpus is the LUBM-flavoured university generator of
//! `rdfmesh-workload`, sized so each of the three processes holds about
//! 1.26×10⁵ triples: 36 departments of 40 professors and 1,700 students,
//! dealt round-robin to the processes. Every query's expected answer is
//! computed once, before any timing, by `evaluate_query` over one in-memory
//! `TripleStore` holding the whole corpus.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use rdfmesh::sparql::{evaluate_query, parse_query, to_json};
use rdfmesh::workload::university::{department_triples, ub, UniversityConfig};
use rdfmesh::workload::Rng;
use rdfmesh::{Triple, TripleStore};

use crate::http::digest_bindings;

/// Serve processes in the mesh under test.
pub const PROCESSES: usize = 3;
/// Departments in the corpus; department `d` lives on process `d % 3`.
pub const DEPARTMENTS: usize = 36;
/// Students per department: the row count of a department scan.
pub const STUDENTS: usize = 1_700;
/// Professors per department.
pub const PROFESSORS: usize = 40;
/// Students in the traced run's hot key set.
pub const HOT_STUDENTS: usize = 20;

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// The corpus configuration for `seed`: fixed sizes, seeded contents.
pub fn config(seed: u64) -> UniversityConfig {
    UniversityConfig {
        departments: DEPARTMENTS,
        professors_per_department: PROFESSORS,
        students_per_department: STUDENTS,
        courses_per_professor: 2,
        courses_per_student: 3,
        seed: seed ^ 0x5EED_0BE7_C4A1_2013,
    }
}

/// The generated corpus: one triple list per serve process.
pub struct Corpus {
    /// Triples of each process, in department order.
    pub shares: Vec<Vec<Triple>>,
}

impl Corpus {
    /// Generates the corpus for `seed`.
    pub fn generate(seed: u64) -> Corpus {
        let cfg = config(seed);
        let mut shares = vec![Vec::new(); PROCESSES];
        for d in 0..DEPARTMENTS {
            shares[d % PROCESSES].extend(department_triples(&cfg, d));
        }
        Corpus { shares }
    }

    /// Triples across all processes.
    pub fn len(&self) -> usize {
        self.shares.iter().map(Vec::len).sum()
    }

    /// Writes process `i`'s share as N-Triples to `path`.
    pub fn write_share(&self, i: usize, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for chunk in self.shares[i].chunks(4096) {
            out.write_all(rdfmesh::rdf::write_document(chunk).as_bytes())?;
        }
        out.flush()
    }

    /// One in-memory store holding every share: the oracle's graph.
    pub fn oracle_store(&self) -> TripleStore {
        self.shares.iter().flatten().cloned().collect()
    }
}

fn student(d: usize, i: usize) -> String {
    format!("<http://example.org/univ/d{d}/student{i}>")
}

fn dept(d: usize) -> String {
    format!("<http://example.org/univ/d{d}/dept0>")
}

/// A selective query around one subject: 1–10 rows.
fn lookup_query(rng: &mut Rng, s: &str) -> String {
    match rng.below(4) {
        0 | 1 => format!("SELECT ?p ?o WHERE {{ {s} ?p ?o . }}"),
        2 => format!(
            "SELECT ?a ?c WHERE {{ {s} <{}> ?a . {s} <{}> ?c . }}",
            ub::ADVISOR,
            ub::TAKES_COURSE
        ),
        _ => format!(
            "SELECT ?c ?n WHERE {{ {s} <{}> ?c . ?c <{}> ?n . }}",
            ub::TAKES_COURSE,
            ub::CREDITS
        ),
    }
}

/// `n` lookups on subjects drawn uniformly from every student of the
/// corpus (about 1.2×10⁵ triples per process, more than the store's block
/// cache holds).
pub fn cold_lookups(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x10_0C0F);
    (0..n)
        .map(|_| {
            let d = rng.below(DEPARTMENTS as u64) as usize;
            let i = rng.below(STUDENTS as u64) as usize;
            lookup_query(&mut rng, &student(d, i))
        })
        .collect()
}

/// `n` analytic queries returning 10³ to 6.1×10⁴ rows, in blocks of ten
/// with a fixed order of kinds: three whole-corpus student type scans (S),
/// three department bind-join chains (C), two department member scans (M),
/// a course type scan (T) and a professor type scan (P), as
/// S C M S T C S M C P. The seed picks the departments. A fixed order
/// means every seed overlaps the same kinds on the two connections, and
/// with these shares the median latency falls inside the chains and the
/// 90th percentile inside the student scans, not on the edge between two
/// kinds.
pub fn scans(seed: u64, n: usize) -> Vec<String> {
    const BLOCK: [u8; 10] = [0, 2, 1, 0, 3, 2, 0, 1, 2, 4];
    let mut rng = Rng::new(seed ^ 0x5CA7);
    BLOCK
        .iter()
        .cycle()
        .take(n)
        .map(|&kind| {
            let d = dept(rng.below(DEPARTMENTS as u64) as usize);
            match kind {
                0 => format!("SELECT ?x WHERE {{ ?x <{RDF_TYPE}> <{}> . }}", ub::STUDENT),
                1 => format!("SELECT ?s WHERE {{ ?s <{}> {d} . }}", ub::MEMBER_OF),
                2 => format!(
                    "SELECT ?s ?c WHERE {{ ?s <{}> {d} . ?s <{}> ?c . }}",
                    ub::MEMBER_OF,
                    ub::TAKES_COURSE
                ),
                3 => format!("SELECT ?x WHERE {{ ?x <{RDF_TYPE}> <{}> . }}", ub::COURSE),
                _ => format!(
                    "SELECT ?x WHERE {{ ?x <{RDF_TYPE}> <{}> . }}",
                    ub::PROFESSOR
                ),
            }
        })
        .collect()
}

/// The template a generated query came from, for per-kind latency.
pub fn kind(query: &str) -> &'static str {
    match (
        query.contains(ub::MEMBER_OF),
        query.contains(ub::TAKES_COURSE),
    ) {
        (true, true) => "dept_chain",
        (true, false) => "dept_members",
        _ if query.contains(ub::STUDENT) => "all_students",
        _ if query.contains(RDF_TYPE) => "small_types",
        _ if query.contains(ub::ADVISOR) => "subject_star",
        _ if query.contains(ub::CREDITS) => "subject_chain",
        _ => "subject_lookup",
    }
}

/// A query's expected answer: its row count and order-independent digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Rows in the answer.
    pub rows: usize,
    /// Multiset digest of the answer's bindings (see
    /// [`crate::http::digest_bindings`]).
    pub digest: u64,
}

/// Expected answers, keyed by query text.
pub struct Oracle {
    answers: HashMap<String, Expected>,
}

impl Oracle {
    /// Evaluates every distinct query of `queries` over `store` once.
    pub fn build<'a>(store: &TripleStore, queries: impl IntoIterator<Item = &'a String>) -> Oracle {
        let mut answers = HashMap::new();
        for q in queries {
            if answers.contains_key(q) {
                continue;
            }
            let parsed = parse_query(q).expect("generated queries parse");
            let json = to_json(&evaluate_query(store, &parsed));
            let (rows, digest) =
                digest_bindings(json.as_bytes()).expect("oracle JSON is well formed");
            answers.insert(q.clone(), Expected { rows, digest });
        }
        Oracle { answers }
    }

    /// The expected answer of `query`, which must be one the oracle was
    /// built from.
    pub fn expected(&self, query: &str) -> Expected {
        self.answers[query]
    }

    /// Distinct queries the oracle holds.
    pub fn len(&self) -> usize {
        self.answers.len()
    }
}

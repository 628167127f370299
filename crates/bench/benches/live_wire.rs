//! Micro-benchmarks of the live wire codec (wire v4): encode/decode of
//! the frames the submit pump and the coordinator's per-provider flush
//! put on every loaded link — a lone `Exec` round (a batch of one),
//! 8- and 32-round `Submit` / `Exec` batches, and a storage node's
//! multi-entry `Answer`. `encode_wire` pre-sizes its buffer from a size
//! hint; these benches price that allocation path at realistic batch
//! widths.

use criterion::{criterion_group, criterion_main, Criterion};
use rdfmesh_core::{LiveMsg, QueryId, Round};
use rdfmesh_net::{NodeId, WireMsg};
use rdfmesh_rdf::{Term, TermPattern, TriplePattern, Variable};
use rdfmesh_sparql::Solution;

fn solution(n: u64) -> Solution {
    Solution::from_pairs([
        (Variable::new("x"), Term::iri(&format!("http://example.org/person/{n}"))),
        (Variable::new("y"), Term::iri(&format!("http://example.org/person/{}", n * 7 % 1000))),
    ])
}

fn pattern() -> TriplePattern {
    TriplePattern::new(
        TermPattern::var("x"),
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
        TermPattern::var("y"),
    )
}

fn round(qid: u64, bound: usize) -> Round {
    let bound = (bound > 0).then(|| (0..bound as u64).map(solution).collect());
    Round::chained(QueryId(qid), pattern(), None, bound)
}

/// The frames a loaded mesh actually ships: a lone exec round, the same
/// round batched 8- and 32-wide, and the storage node's batched reply
/// (8 queries × 16 solutions).
fn messages() -> Vec<(&'static str, LiveMsg)> {
    let exec = |n: u64| LiveMsg::Exec {
        rounds: (0..n).map(|q| round(q, 16)).collect(),
        reply_to: NodeId(7),
    };
    vec![
        ("exec_single_16b", exec(1)),
        ("submit_batch_8", LiveMsg::Submit { rounds: (0..8).map(|q| round(q, 16)).collect() }),
        ("exec_batch_32", exec(32)),
        (
            "answer_batch_8x16",
            LiveMsg::Answer {
                entries: (0..8)
                    .map(|q| (QueryId(q), vec![(0..16u64).map(solution).collect()]))
                    .collect(),
            },
        ),
    ]
}

fn bench(c: &mut Criterion) {
    let mut encode = c.benchmark_group("live_wire_encode");
    for (label, msg) in messages() {
        encode.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(msg.encode_wire()).len());
        });
    }
    encode.finish();

    let mut decode = c.benchmark_group("live_wire_decode");
    for (label, msg) in messages() {
        let bytes = msg.encode_wire();
        decode.bench_function(label, |b| {
            b.iter(|| {
                let decoded =
                    LiveMsg::decode_wire(std::hint::black_box(&bytes)).expect("round-trips");
                std::hint::black_box(decoded)
            });
        });
    }
    decode.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

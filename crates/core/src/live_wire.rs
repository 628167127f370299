//! Wire codec for [`LiveMsg`] — the byte layout socket transports ship.
//!
//! The live protocol was designed against an in-process cluster, so its
//! messages carry rich payloads (patterns, expressions, solution sets).
//! This module flattens each variant into the length-checked primitive
//! layer of [`rdfmesh_sparql::solution::wire`] — one tag byte followed
//! by the variant's fields — so a [`rdfmesh_net::TcpCluster`] can carry
//! the identical protocol between OS processes. `docs/DEPLOYMENT.md`
//! documents the full frame and payload layout (wire version 4).
//!
//! Decoding is paranoid by construction: every read is bounds-checked by
//! [`Reader`], unknown tags are rejected, and trailing bytes fail the
//! decode — a malformed or truncated frame from the network can never
//! turn into a half-parsed message.

use rdfmesh_net::{NodeId, WireFault, WireMsg};
use rdfmesh_rdf::{TermPattern, TriplePattern, Variable};
use rdfmesh_sparql::expr::wire::{put_expr, read_expr};
use rdfmesh_sparql::solution::wire::{
    put_solutions, put_str, put_term, put_u32, put_u64, read_solutions, Reader, WireError,
};
use rdfmesh_sparql::solution::Solution;

use crate::live::{DeadlineStage, LiveMsg, QueryId, Round, RoundStrategy};

// One tag byte per `LiveMsg` variant.
const TAG_SUBMIT: u8 = 1;
const TAG_LOOKUP: u8 = 2;
const TAG_PROVIDERS: u8 = 3;
const TAG_EXEC: u8 = 4;
const TAG_ANSWER: u8 = 5;
const TAG_SHUFFLE_PART: u8 = 6;
const TAG_DONE: u8 = 7;
const TAG_PROVIDER_DEAD: u8 = 8;
const TAG_PUBLISH: u8 = 9;
const TAG_DEADLINE: u8 = 10;

// Pattern positions: variable (name string) or constant (tagged term).
const POS_VAR: u8 = 0;
const POS_CONST: u8 = 1;

// `DeadlineStage` sub-tags.
const STAGE_LOOKUP: u8 = 0;
const STAGE_ACK: u8 = 1;
const STAGE_OVERALL: u8 = 2;

// `RoundStrategy` sub-tags.
const STRATEGY_CHAINED: u8 = 0;
const STRATEGY_HYPERCUBE: u8 = 1;
const STRATEGY_PARTIAL_EVAL: u8 = 2;

// `Option<_>` presence flags.
const ABSENT: u8 = 0;
const PRESENT: u8 = 1;

type Read<T> = Result<T, WireError>;

fn put_vec<T>(out: &mut Vec<u8>, items: &[T], put: impl Fn(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    items.iter().for_each(|item| put(out, item));
}

fn read_vec<T>(r: &mut Reader<'_>, read: impl Fn(&mut Reader<'_>) -> Read<T>) -> Read<Vec<T>> {
    let count = r.u32()? as usize;
    let mut items = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        items.push(read(r)?);
    }
    Ok(items)
}

fn put_opt<T>(out: &mut Vec<u8>, value: &Option<T>, put: impl Fn(&mut Vec<u8>, &T)) {
    match value {
        None => out.push(ABSENT),
        Some(v) => {
            out.push(PRESENT);
            put(out, v);
        }
    }
}

fn read_opt<T>(r: &mut Reader<'_>, read: impl Fn(&mut Reader<'_>) -> Read<T>) -> Read<Option<T>> {
    match r.u8()? {
        ABSENT => Ok(None),
        PRESENT => Ok(Some(read(r)?)),
        _ => Err(WireError("unknown option flag")),
    }
}

fn put_node(out: &mut Vec<u8>, id: &NodeId) {
    put_u64(out, id.0);
}

fn read_node(r: &mut Reader<'_>) -> Read<NodeId> {
    Ok(NodeId(r.u64()?))
}

fn put_var(out: &mut Vec<u8>, v: &Variable) {
    put_str(out, v.as_str());
}

fn read_var(r: &mut Reader<'_>) -> Read<Variable> {
    Ok(Variable::new(r.str()?))
}

fn put_sets(out: &mut Vec<u8>, sets: &[Vec<Solution>]) {
    put_vec(out, sets, |out, set| put_solutions(out, set));
}

fn read_sets(r: &mut Reader<'_>) -> Read<Vec<Vec<Solution>>> {
    read_vec(r, read_solutions)
}

fn put_pattern(out: &mut Vec<u8>, p: &TriplePattern) {
    for tp in [&p.subject, &p.predicate, &p.object] {
        match tp {
            TermPattern::Var(v) => {
                out.push(POS_VAR);
                put_var(out, v);
            }
            TermPattern::Const(t) => {
                out.push(POS_CONST);
                put_term(out, t);
            }
        }
    }
}

fn read_pattern(r: &mut Reader<'_>) -> Read<TriplePattern> {
    let mut position = || match r.u8()? {
        POS_VAR => Ok(TermPattern::Var(read_var(r)?)),
        POS_CONST => Ok(TermPattern::Const(r.term()?)),
        _ => Err(WireError("unknown term-pattern tag")),
    };
    let (subject, predicate, object) = (position()?, position()?, position()?);
    Ok(TriplePattern::new(subject, predicate, object))
}

fn put_round(out: &mut Vec<u8>, round: &Round) {
    put_u64(out, round.qid.0);
    put_vec(out, &round.patterns, put_pattern);
    put_opt(out, &round.filter, put_expr);
    put_opt(out, &round.bound, |out, sols| put_solutions(out, sols));
    match &round.strategy {
        RoundStrategy::Chained => out.push(STRATEGY_CHAINED),
        RoundStrategy::HyperCube { join_vars, generation, peers } => {
            out.push(STRATEGY_HYPERCUBE);
            put_vec(out, join_vars, put_var);
            put_u32(out, *generation);
            put_vec(out, peers, put_node);
        }
        RoundStrategy::PartialEval => out.push(STRATEGY_PARTIAL_EVAL),
    }
}

fn read_round(r: &mut Reader<'_>) -> Read<Round> {
    let qid = QueryId(r.u64()?);
    let patterns = read_vec(r, read_pattern)?;
    let filter = read_opt(r, read_expr)?;
    let bound = read_opt(r, read_solutions)?;
    let strategy = match r.u8()? {
        STRATEGY_CHAINED => RoundStrategy::Chained,
        STRATEGY_HYPERCUBE => RoundStrategy::HyperCube {
            join_vars: read_vec(r, read_var)?,
            generation: r.u32()?,
            peers: read_vec(r, read_node)?,
        },
        STRATEGY_PARTIAL_EVAL => RoundStrategy::PartialEval,
        _ => return Err(WireError("unknown round-strategy tag")),
    };
    Ok(Round { qid, patterns, filter, bound, strategy })
}

fn put_stage(out: &mut Vec<u8>, stage: &DeadlineStage) {
    match stage {
        DeadlineStage::Lookup { slot, attempt } => {
            out.push(STAGE_LOOKUP);
            put_u32(out, *slot);
            out.push(*attempt);
        }
        DeadlineStage::Ack { provider, attempt } => {
            out.push(STAGE_ACK);
            put_node(out, provider);
            out.push(*attempt);
        }
        DeadlineStage::Overall => out.push(STAGE_OVERALL),
    }
}

fn read_stage(r: &mut Reader<'_>) -> Read<DeadlineStage> {
    Ok(match r.u8()? {
        STAGE_LOOKUP => DeadlineStage::Lookup { slot: r.u32()?, attempt: r.u8()? },
        STAGE_ACK => DeadlineStage::Ack { provider: read_node(r)?, attempt: r.u8()? },
        STAGE_OVERALL => DeadlineStage::Overall,
        _ => return Err(WireError("unknown deadline-stage tag")),
    })
}

// Rough per-item encoded sizes feeding [`size_hint`]. They only have to
// land within a reallocation or two of the truth; patterns and header
// fields fit in `BASE_HINT`, solutions dominate everything else.
const BASE_HINT: usize = 96;
const SOLUTION_HINT: usize = 48;

fn sets_hint(sets: &[Vec<Solution>]) -> usize {
    sets.iter().map(|set| 8 + set.len() * SOLUTION_HINT).sum()
}

fn round_hint(round: &Round) -> usize {
    BASE_HINT * round.patterns.len() + round.bound.as_deref().map_or(0, |b| b.len() * SOLUTION_HINT)
}

/// Estimates the encoded size of `msg` so [`WireMsg::encode_wire`] can
/// allocate once up front instead of growing a fresh empty `Vec`
/// through repeated doublings — batched frames in particular start in
/// the kilobytes.
fn size_hint(msg: &LiveMsg) -> usize {
    16 + match msg {
        LiveMsg::Submit { rounds } | LiveMsg::Exec { rounds, .. } => {
            rounds.iter().map(round_hint).sum::<usize>()
        }
        LiveMsg::Answer { entries } => entries.iter().map(|(_, sets)| 12 + sets_hint(sets)).sum(),
        LiveMsg::ShufflePart { parts, .. } => sets_hint(parts),
        LiveMsg::Providers { providers, .. } => providers.len() * 8,
        LiveMsg::Publish { keys, .. } => keys.len() * 8,
        _ => BASE_HINT,
    }
}

impl WireMsg for LiveMsg {
    fn encode_wire(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(size_hint(self));
        let out = &mut buf;
        match self {
            LiveMsg::Submit { rounds } => {
                out.push(TAG_SUBMIT);
                put_vec(out, rounds, put_round);
            }
            LiveMsg::Lookup { qid, slot, pattern, reply_to } => {
                out.push(TAG_LOOKUP);
                put_u64(out, qid.0);
                put_u32(out, *slot);
                put_pattern(out, pattern);
                put_node(out, reply_to);
            }
            LiveMsg::Providers { qid, slot, providers } => {
                out.push(TAG_PROVIDERS);
                put_u64(out, qid.0);
                put_u32(out, *slot);
                put_vec(out, providers, put_node);
            }
            LiveMsg::Exec { rounds, reply_to } => {
                out.push(TAG_EXEC);
                put_vec(out, rounds, put_round);
                put_node(out, reply_to);
            }
            LiveMsg::Answer { entries } => {
                out.push(TAG_ANSWER);
                put_vec(out, entries, |out, (qid, sets)| {
                    put_u64(out, qid.0);
                    put_sets(out, sets);
                });
            }
            LiveMsg::ShufflePart { qid, generation, parts } => {
                out.push(TAG_SHUFFLE_PART);
                put_u64(out, qid.0);
                put_u32(out, *generation);
                put_sets(out, parts);
            }
            LiveMsg::Done { qid } => {
                out.push(TAG_DONE);
                put_u64(out, qid.0);
            }
            LiveMsg::ProviderDead { pattern, provider } => {
                out.push(TAG_PROVIDER_DEAD);
                put_pattern(out, pattern);
                put_node(out, provider);
            }
            LiveMsg::Publish { keys, provider } => {
                out.push(TAG_PUBLISH);
                put_vec(out, keys, |out, key| put_u64(out, *key));
                put_node(out, provider);
            }
            LiveMsg::Deadline { qid, stage } => {
                out.push(TAG_DEADLINE);
                put_u64(out, qid.0);
                put_stage(out, stage);
            }
        }
        buf
    }

    fn decode_wire(bytes: &[u8]) -> Result<Self, WireFault> {
        decode(bytes).map_err(|e| WireFault(e.0))
    }
}

fn decode(bytes: &[u8]) -> Read<LiveMsg> {
    let mut reader = Reader::new(bytes);
    let r = &mut reader;
    let msg = match r.u8()? {
        TAG_SUBMIT => LiveMsg::Submit { rounds: read_vec(r, read_round)? },
        TAG_LOOKUP => LiveMsg::Lookup {
            qid: QueryId(r.u64()?),
            slot: r.u32()?,
            pattern: read_pattern(r)?,
            reply_to: read_node(r)?,
        },
        TAG_PROVIDERS => LiveMsg::Providers {
            qid: QueryId(r.u64()?),
            slot: r.u32()?,
            providers: read_vec(r, read_node)?,
        },
        TAG_EXEC => LiveMsg::Exec { rounds: read_vec(r, read_round)?, reply_to: read_node(r)? },
        TAG_ANSWER => {
            LiveMsg::Answer { entries: read_vec(r, |r| Ok((QueryId(r.u64()?), read_sets(r)?)))? }
        }
        TAG_SHUFFLE_PART => LiveMsg::ShufflePart {
            qid: QueryId(r.u64()?),
            generation: r.u32()?,
            parts: read_sets(r)?,
        },
        TAG_DONE => LiveMsg::Done { qid: QueryId(r.u64()?) },
        TAG_PROVIDER_DEAD => {
            LiveMsg::ProviderDead { pattern: read_pattern(r)?, provider: read_node(r)? }
        }
        TAG_PUBLISH => {
            LiveMsg::Publish { keys: read_vec(r, |r| r.u64())?, provider: read_node(r)? }
        }
        TAG_DEADLINE => LiveMsg::Deadline { qid: QueryId(r.u64()?), stage: read_stage(r)? },
        _ => return Err(WireError("unknown live-message tag")),
    };
    reader.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Literal, Term};
    use rdfmesh_sparql::expr::{ComparisonOp, Expression};

    fn pattern() -> TriplePattern {
        TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://example.org/knows"),
            TermPattern::Const(Term::Literal(Literal::lang("Bob", "en"))),
        )
    }

    fn solution() -> Solution {
        Solution::from_pairs([
            (Variable::new("x"), Term::iri("http://example.org/alice")),
            (Variable::new("age"), Term::literal("42")),
        ])
    }

    fn filter() -> Expression {
        Expression::Compare(
            ComparisonOp::Gt,
            Box::new(Expression::Var(Variable::new("age"))),
            Box::new(Expression::Const(Term::literal("30"))),
        )
    }

    fn chained(qid: u64) -> Round {
        Round::chained(
            QueryId(qid),
            pattern(),
            Some(filter()),
            Some(vec![solution(), Solution::new()]),
        )
    }

    fn hypercube(qid: u64) -> Round {
        Round {
            qid: QueryId(qid),
            patterns: vec![pattern(), pattern()],
            filter: None,
            bound: None,
            strategy: RoundStrategy::HyperCube {
                join_vars: vec![Variable::new("x"), Variable::new("age")],
                generation: 2,
                peers: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
        }
    }

    fn partial_eval(qid: u64) -> Round {
        let patterns = vec![pattern(), pattern(), pattern()];
        Round::multiway(
            QueryId(qid),
            patterns,
            Vec::new(),
            crate::config::DistStrategy::PartialEval,
        )
    }

    /// At least one instance of every wire-v4 variant, sub-tag and
    /// option flag, fields populated.
    fn every_msg() -> Vec<LiveMsg> {
        vec![
            LiveMsg::Submit { rounds: Vec::new() },
            LiveMsg::Submit { rounds: vec![chained(1)] },
            LiveMsg::Submit {
                rounds: vec![Round::chained(QueryId(2), pattern(), None, None), partial_eval(3)],
            },
            LiveMsg::Lookup {
                qid: QueryId(4),
                slot: 1,
                pattern: pattern(),
                reply_to: NodeId(u64::MAX),
            },
            LiveMsg::Providers { qid: QueryId(5), slot: 2, providers: vec![NodeId(1), NodeId(2)] },
            LiveMsg::Providers { qid: QueryId(6), slot: 0, providers: Vec::new() },
            LiveMsg::Exec {
                rounds: vec![chained(7), hypercube(8), partial_eval(9)],
                reply_to: NodeId(4),
            },
            LiveMsg::Answer {
                entries: vec![
                    (QueryId(10), vec![vec![solution()]]),
                    (QueryId(11), vec![Vec::new()]),
                    (QueryId(12), vec![vec![solution(), Solution::new()], Vec::new()]),
                ],
            },
            LiveMsg::ShufflePart {
                qid: QueryId(13),
                generation: 1,
                parts: vec![vec![solution()], Vec::new(), vec![solution(), Solution::new()]],
            },
            LiveMsg::Done { qid: QueryId(14) },
            LiveMsg::ProviderDead { pattern: pattern(), provider: NodeId(5) },
            LiveMsg::Publish { keys: vec![3, 99, u64::MAX], provider: NodeId(7) },
            LiveMsg::Deadline {
                qid: QueryId(15),
                stage: DeadlineStage::Lookup { slot: 7, attempt: 1 },
            },
            LiveMsg::Deadline {
                qid: QueryId(16),
                stage: DeadlineStage::Ack { provider: NodeId(6), attempt: 2 },
            },
            LiveMsg::Deadline { qid: QueryId(17), stage: DeadlineStage::Overall },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in every_msg() {
            let bytes = msg.encode_wire();
            let back = LiveMsg::decode_wire(&bytes).expect("round trip decodes");
            // LiveMsg carries Expression, which is not PartialEq across the
            // board; compare via the canonical wire bytes instead.
            assert_eq!(back.encode_wire(), bytes, "round trip preserves {msg:?}");
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(LiveMsg::decode_wire(&[0xEE]).is_err());
        assert!(LiveMsg::decode_wire(&[]).is_err());
    }

    #[test]
    fn truncated_and_overlong_frames_are_rejected_for_every_variant() {
        for msg in every_msg() {
            let bytes = msg.encode_wire();
            // Every truncated prefix must fail, never half-parse.
            for len in 0..bytes.len() {
                assert!(
                    LiveMsg::decode_wire(&bytes[..len]).is_err(),
                    "truncation at {len}/{} must not decode {msg:?}",
                    bytes.len()
                );
            }
            // An over-long body (trailing garbage) must fail `finish()`.
            let mut long = bytes.clone();
            long.push(0);
            assert!(LiveMsg::decode_wire(&long).is_err(), "trailing byte must not decode {msg:?}");
        }
    }

    /// Deterministic single-byte fuzz: every corruption of every frame
    /// either fails cleanly or decodes to *some* valid frame — the
    /// decoder must never panic, over-read, or loop on adversarial input
    /// (lengths and tags are the dangerous bytes).
    #[test]
    fn mutated_frames_never_panic() {
        for msg in every_msg() {
            let bytes = msg.encode_wire();
            for i in 0..bytes.len() {
                for delta in [1u8, 0x7f, 0xff] {
                    let mut mutated = bytes.clone();
                    mutated[i] = mutated[i].wrapping_add(delta);
                    let _ = LiveMsg::decode_wire(&mutated);
                }
            }
        }
    }

    #[test]
    fn corrupted_strategy_tag_is_rejected() {
        let round = Round::chained(QueryId(41), pattern(), None, None);
        let mut bytes = LiveMsg::Submit { rounds: vec![round] }.encode_wire();
        let tag = bytes.len() - 1;
        bytes[tag] = 9;
        assert!(LiveMsg::decode_wire(&bytes).is_err(), "invalid strategy tag must fail");
    }

    #[test]
    fn corrupted_option_flag_is_rejected() {
        let round = Round::chained(QueryId(2), pattern(), None, None);
        let mut bytes = LiveMsg::Submit { rounds: vec![round] }.encode_wire();
        // The bound flag sits just before the strategy tag.
        let flag = bytes.len() - 2;
        bytes[flag] = 9;
        assert!(LiveMsg::decode_wire(&bytes).is_err(), "invalid option flag must fail");
    }

    #[test]
    fn encode_presizes_close_to_the_truth() {
        // The size hint is an allocation optimization, not a format
        // promise — but a hint below a quarter of the real size would
        // mean the pre-sizing buys nothing, so pin it loosely.
        let msg = LiveMsg::Exec { rounds: (0..20).map(chained).collect(), reply_to: NodeId(1) };
        let encoded = msg.encode_wire();
        assert!(
            size_hint(&msg) * 4 >= encoded.len(),
            "hint {} too far below encoded size {}",
            size_hint(&msg),
            encoded.len()
        );
    }
}

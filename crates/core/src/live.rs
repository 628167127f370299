//! The query protocol on real threads, fault-tolerant end to end.
//!
//! The deterministic [`rdfmesh_net::Network`] measures costs; this module
//! demonstrates that the same two-level protocol *runs* under genuine
//! concurrency: every index and storage node is an OS thread, and the
//! Sect. IV-C basic scheme plays out purely through messages — lookup to
//! the index node, provider resolution from its location table, parallel
//! sub-queries to the storage nodes, assembly of their answers.
//!
//! Every submission is one [`Round`]: a query id, its pattern slots, an
//! optional source-side filter and bound intermediates, and a
//! [`RoundStrategy`] — chained (one slot, answered provider by provider),
//! HyperCube shuffle, or partial evaluation. All three run the same loop
//! through one coordinator state machine: a [`LiveMsg::Lookup`] per slot,
//! one [`LiveMsg::Exec`] per provider of the slots' union, and a gather
//! of their [`LiveMsg::Answer`]s. A lone query is a batch of one: the
//! submit pump and the per-provider flush put however many rounds are
//! ready into one frame.
//!
//! Unlike the simulator, real threads really do lose messages and crash
//! mid-query, so the coordinator keeps one flight per [`QueryId`], and
//! every message names the query it belongs to:
//!
//! * every awaited reply has a deadline ([`Outbox::schedule`] delivers
//!   the coordinator a [`LiveMsg::Deadline`] message to itself);
//! * an expired query-ack deadline retransmits once (bounded by
//!   [`LiveConfig::retries`]), then declares the provider dead — the
//!   Sect. III-D query-ack timeout on real threads;
//! * a dead provider triggers a [`LiveMsg::ProviderDead`] notification
//!   to the owning index node, which lazily drops the provider from its
//!   location-table row (Sect. III-C/D's lazy cleanup);
//! * a failed [`Outbox::send`] (crashed peer) is treated as an immediate
//!   ack timeout instead of being silently ignored;
//! * replies that name no in-flight query — late, duplicated, or from a
//!   previous query — are counted and dropped, never applied.
//!
//! A query therefore always terminates within its deadline, returning a
//! [`LiveAnswer`] whose `complete` flag and `failed_providers` list say
//! exactly what survived. `docs/FAULTS.md` contrasts this live failure
//! model with the simulator's; the fault-injection harness lives in
//! [`rdfmesh_net::FaultPlan`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use rdfmesh_net::{Cluster, Envelope, FaultPlan, Handler, NodeId, Outbox, TcpCluster};
use rdfmesh_obs::{Counter, CounterSet, CounterSnapshot};
use rdfmesh_overlay::{key_for_pattern, keys_for_triple, Overlay};
use rdfmesh_rdf::{SharedStore, TriplePattern, Variable};
use rdfmesh_sparql::eval::evaluate_pattern_with;
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::solution::{join, wire, DistinctBuffer, Solution};

use crate::admission::Admission;
use crate::config::{DistStrategy, LiveConfig};

/// Identifies one in-flight live query. Every protocol message carries
/// the id of the query it belongs to, so a late or duplicated reply from
/// query *N* can never contaminate the state of query *N+1*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Which awaited event a [`LiveMsg::Deadline`] guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// One slot's provider lookup at the index node; `attempt` is the
    /// lookup attempt the deadline was armed for (a stale deadline from
    /// an earlier attempt is ignored).
    Lookup {
        /// Pattern slot within the round (0-based).
        slot: u32,
        /// Attempt number at schedule time (0-based).
        attempt: u8,
    },
    /// One provider's query-ack deadline (Sect. III-D).
    Ack {
        /// The storage node awaited.
        provider: NodeId,
        /// Attempt number at schedule time (0-based).
        attempt: u8,
    },
    /// The whole-query backstop: fire whatever is still outstanding and
    /// answer with what was collected.
    Overall,
}

/// How a [`Round`]'s providers evaluate its slots and how the
/// coordinator assembles their answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundStrategy {
    /// One slot, answered by every provider over its local data —
    /// extending the round's bound intermediates (the bind join of
    /// Sect. IV-D) and applying its filter at the source (Sect. IV-G).
    /// The coordinator unions the answers.
    Chained,
    /// HyperCube shuffle: every provider evaluates every slot locally,
    /// partitions the solutions by hashing their `join_vars` bindings
    /// over `peers`, ships each partition to its target once, joins the
    /// fragment it receives, and answers with that fragment.
    HyperCube {
        /// The hash key: variables shared by every slot.
        join_vars: Vec<Variable>,
        /// Shuffle generation: bumped when the coordinator re-issues the
        /// round over the surviving peers after declaring one dead, so
        /// partitions from the abandoned generation cannot pollute the
        /// restarted one. Zero at submission.
        generation: u32,
        /// Every participating provider, sorted — the partition targets.
        /// Filled in by the coordinator; empty at submission.
        peers: Vec<NodeId>,
    },
    /// Partial evaluation and assembly: every provider answers each slot
    /// over its local data only, and the coordinator joins the per-slot
    /// unions.
    PartialEval,
}

/// One query's unit of work, from submission to the providers: the
/// coordinator resolves each slot's providers and ships the round
/// unchanged to their union.
#[derive(Debug, Clone)]
pub struct Round {
    /// The owning query.
    pub qid: QueryId,
    /// The pattern slots to resolve.
    pub patterns: Vec<TriplePattern>,
    /// Source-side filter every returned solution must satisfy.
    pub filter: Option<Expression>,
    /// Intermediate solutions the providers extend (`None` starts from
    /// the unit solution).
    pub bound: Option<Vec<Solution>>,
    /// How the slots are evaluated and assembled.
    pub strategy: RoundStrategy,
}

impl Round {
    /// A chained round over one pattern.
    pub fn chained(
        qid: QueryId,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
    ) -> Round {
        Round { qid, patterns: vec![pattern], filter, bound, strategy: RoundStrategy::Chained }
    }

    /// A round joining a whole multi-pattern BGP in one distributed step:
    /// [`DistStrategy::HyperCube`] shuffles on `join_vars`, anything else
    /// runs partial evaluation and assembly.
    pub fn multiway(
        qid: QueryId,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
    ) -> Round {
        let strategy = match strategy {
            DistStrategy::HyperCube => {
                RoundStrategy::HyperCube { join_vars, generation: 0, peers: Vec::new() }
            }
            _ => RoundStrategy::PartialEval,
        };
        Round { qid, patterns, filter: None, bound: None, strategy }
    }
}

/// Protocol messages of the live mesh (wire v4, `docs/DEPLOYMENT.md`).
#[derive(Debug, Clone)]
pub enum LiveMsg {
    /// The external application submits rounds at the coordinator. The
    /// submit pump coalesces whatever is ready into one frame.
    Submit {
        /// One entry per submitted round.
        rounds: Vec<Round>,
    },
    /// Ask an index node which storage nodes can answer `pattern`, slot
    /// `slot` of query `qid`. Routed hop-by-hop to the key's owner.
    Lookup {
        /// The owning query.
        qid: QueryId,
        /// Pattern slot within the round (0-based).
        slot: u32,
        /// The pattern being resolved.
        pattern: TriplePattern,
        /// Where to send the provider list.
        reply_to: NodeId,
    },
    /// An index node's answer to a [`LiveMsg::Lookup`].
    Providers {
        /// The owning query.
        qid: QueryId,
        /// The pattern slot this answers.
        slot: u32,
        /// Storage nodes holding matching triples.
        providers: Vec<NodeId>,
    },
    /// Coordinator → storage node: evaluate these rounds. Several
    /// queries' rounds for the same node share one frame.
    Exec {
        /// One entry per query's round.
        rounds: Vec<Round>,
        /// Where to send the answers.
        reply_to: NodeId,
    },
    /// Storage node → coordinator: per-slot solution sets of one or more
    /// rounds. Chained and HyperCube answers carry one set, partial
    /// evaluation one per slot.
    Answer {
        /// `(query, its solution sets)` per answered round.
        entries: Vec<(QueryId, Vec<Vec<Solution>>)>,
    },
    /// Provider → provider: one HyperCube partition, `parts[i]` holding
    /// the sender's slot-`i` solutions that hash to the receiver.
    ShufflePart {
        /// The owning query.
        qid: QueryId,
        /// The shuffle generation the partition belongs to.
        generation: u32,
        /// Per-slot solution sets destined for the receiver.
        parts: Vec<Vec<Solution>>,
    },
    /// Coordinator → shuffle peers: the round finished; drop any
    /// retained shuffle state for `qid`.
    Done {
        /// The finished query.
        qid: QueryId,
    },
    /// Coordinator → index node: `provider` missed its query-ack
    /// deadline for `pattern`'s key; lazily drop it from the owner's
    /// location-table row (Sect. III-C/D). Routed like a
    /// [`LiveMsg::Lookup`].
    ProviderDead {
        /// The pattern whose key row names the dead provider.
        pattern: TriplePattern,
        /// The storage node that failed to answer.
        provider: NodeId,
    },
    /// Storage node → owning index node: register `provider` in the
    /// location-table rows for `keys`. Idempotent, so the serve-mode
    /// mesh ([`crate::MeshNode`]) re-sends it after every membership
    /// change and the tables converge on the final ring view
    /// (`docs/DEPLOYMENT.md`).
    Publish {
        /// Index-key ids the provider holds matching triples for.
        keys: Vec<u64>,
        /// The storage node registering itself.
        provider: NodeId,
    },
    /// A deadline the coordinator scheduled to itself via the cluster
    /// timer ([`Outbox::schedule`]).
    Deadline {
        /// The owning query.
        qid: QueryId,
        /// Which awaited event expired.
        stage: DeadlineStage,
    },
}

/// What one live query returned. Instead of hanging on churn, the
/// protocol reports exactly how much of the answer survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveAnswer {
    /// Deduplicated solution mappings from every provider that answered
    /// in time. The per-gather dedup mirrors the simulator's in-network
    /// aggregation: identical solutions from replicated triples collapse.
    pub solutions: Vec<Solution>,
    /// `true` iff every selected provider answered before its deadline
    /// (an empty provider set is complete).
    pub complete: bool,
    /// Providers that never answered: crashed, unreachable, or lost
    /// behind dropped messages. Sorted when set by the overall deadline.
    pub failed_providers: Vec<NodeId>,
}

// ---- the coordinator state machine ----------------------------------

/// What the state machine asks its host to do. Pure data, so property
/// tests can drive arbitrary interleavings without threads or timers.
#[derive(Debug, Clone)]
enum Action {
    Send {
        to: NodeId,
        msg: LiveMsg,
    },
    /// Ship `round` to provider `to`; the host coalesces every exec for
    /// the same provider within one turn into one [`LiveMsg::Exec`].
    Exec {
        to: NodeId,
        round: Round,
    },
    Schedule {
        after: Duration,
        msg: LiveMsg,
    },
    Finish {
        qid: QueryId,
        answer: LiveAnswer,
    },
}

/// How a flight assembles its providers' answers.
#[derive(Debug)]
enum Gather {
    /// Chained and HyperCube: the deduped union of every answer,
    /// hash-indexed so the gather stays linear in the rows received.
    Union(DistinctBuffer),
    /// Partial evaluation: the deduped union of every provider's local
    /// solutions per slot (the assembly operator's input), and the rows
    /// some single provider could already join locally — assembly rows
    /// beyond these stitched cross-site matches.
    Assembly { slots: Vec<DistinctBuffer>, local: DistinctBuffer },
}

impl Gather {
    /// Absorbs one provider's answer, or returns `false` when its shape
    /// does not fit the round (the reply is then stale).
    fn absorb(&mut self, sets: Vec<Vec<Solution>>) -> bool {
        match self {
            Gather::Union(buf) => sets.into_iter().for_each(|set| buf.extend_distinct(set)),
            Gather::Assembly { slots, local } => {
                if sets.len() != slots.len() {
                    return false;
                }
                // The provider's own cross-slot join: everything it
                // could answer without help.
                let mut joined = vec![Solution::new()];
                for (buf, set) in slots.iter_mut().zip(sets) {
                    let mut mine = DistinctBuffer::new();
                    mine.extend_distinct(set);
                    joined = join(&joined, mine.as_slice());
                    buf.extend_distinct(mine.into_vec());
                }
                local.extend_distinct(joined);
            }
        }
        true
    }
}

/// One query's coordinator state, for every strategy alike.
#[derive(Debug)]
struct Flight {
    /// What every provider is sent. A HyperCube restart bumps its
    /// generation and drops the dead peer in place.
    round: Round,
    /// Per-slot lookup attempt (0-based).
    lookups: Vec<u8>,
    /// Per-slot provider sets; `None` until the slot's lookup answers.
    providers: Vec<Option<Vec<NodeId>>>,
    /// provider → current exec attempt (0-based). Empty until every slot
    /// resolved and the round fanned out.
    outstanding: HashMap<NodeId, u8>,
    failed: Vec<NodeId>,
    gather: Gather,
}

/// The per-query coordinator state machine. Every transition consumes
/// one event and returns the actions to perform; it owns no channels,
/// threads, or clocks, which is what makes it exhaustively testable.
#[derive(Debug)]
pub(crate) struct CoordinatorCore {
    me: NodeId,
    index: NodeId,
    cfg: LiveConfig,
    space: rdfmesh_chord::IdSpace,
    /// Every storage node, sorted — the recipients of a keyless
    /// (all-variable) pattern, which has no location-table row and is
    /// flooded to all sources instead (Sect. IV-B). Shared so the
    /// serve-mode membership protocol can extend it as peers join.
    flood: SharedFlood,
    flights: HashMap<QueryId, Flight>,
    counters: Arc<CounterSet>,
}

impl CoordinatorCore {
    pub(crate) fn new(
        me: NodeId,
        index: NodeId,
        cfg: LiveConfig,
        space: rdfmesh_chord::IdSpace,
        flood: SharedFlood,
        counters: Arc<CounterSet>,
    ) -> Self {
        CoordinatorCore { me, index, cfg, space, flood, flights: HashMap::new(), counters }
    }

    fn on_event(&mut self, from: NodeId, msg: LiveMsg) -> Vec<Action> {
        match msg {
            LiveMsg::Submit { rounds } => {
                rounds.into_iter().flat_map(|r| self.on_submit(r)).collect()
            }
            LiveMsg::Providers { qid, slot, providers } => self.on_providers(qid, slot, providers),
            LiveMsg::Answer { entries } => entries
                .into_iter()
                .flat_map(|(qid, sets)| self.on_answer(qid, from, sets))
                .collect(),
            LiveMsg::Deadline { qid, stage } => match stage {
                DeadlineStage::Lookup { slot, attempt } => {
                    self.on_lookup_timeout(qid, slot, attempt)
                }
                DeadlineStage::Ack { provider, attempt } => {
                    self.on_ack_timeout(qid, provider, attempt)
                }
                DeadlineStage::Overall => self.on_overall_deadline(qid),
            },
            // Strays addressed to other roles are ignored.
            _ => Vec::new(),
        }
    }

    /// The lookup of `slot` at the index node, with its deadline.
    fn lookup(&self, qid: QueryId, slot: usize, attempt: u8) -> Vec<Action> {
        let pattern = self.flights[&qid].round.patterns[slot].clone();
        let slot = slot as u32;
        vec![
            Action::Send {
                to: self.index,
                msg: LiveMsg::Lookup { qid, slot, pattern, reply_to: self.me },
            },
            Action::Schedule {
                after: self.cfg.lookup_timeout,
                msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Lookup { slot, attempt } },
            },
        ]
    }

    /// The round shipped to one provider, with its ack deadline. Used by
    /// the fan-out, retransmissions and HyperCube restarts alike.
    fn exec(&self, qid: QueryId, provider: NodeId, attempt: u8) -> Vec<Action> {
        vec![
            Action::Exec { to: provider, round: self.flights[&qid].round.clone() },
            Action::Schedule {
                after: self.cfg.ack_timeout,
                msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Ack { provider, attempt } },
            },
        ]
    }

    fn on_submit(&mut self, round: Round) -> Vec<Action> {
        let qid = round.qid;
        if self.flights.contains_key(&qid) {
            return Vec::new(); // duplicate submission
        }
        let n = round.patterns.len();
        if n == 0 {
            let answer =
                LiveAnswer { solutions: Vec::new(), complete: true, failed_providers: Vec::new() };
            return vec![Action::Finish { qid, answer }];
        }
        let gather = match round.strategy {
            RoundStrategy::PartialEval => Gather::Assembly {
                slots: (0..n).map(|_| DistinctBuffer::new()).collect(),
                local: DistinctBuffer::new(),
            },
            _ => Gather::Union(DistinctBuffer::new()),
        };
        let keyless: Vec<bool> =
            round.patterns.iter().map(|p| key_for_pattern(self.space, p).is_none()).collect();
        let flight = Flight {
            round,
            lookups: vec![0; n],
            providers: vec![None; n],
            outstanding: HashMap::new(),
            failed: Vec::new(),
            gather,
        };
        self.flights.insert(qid, flight);
        let mut actions = Vec::new();
        for (slot, keyless) in keyless.into_iter().enumerate() {
            if keyless {
                // No location-table row exists for the all-variable
                // pattern: skip the lookup and flood every storage node
                // (Sect. IV-B). An empty flood list finishes the round.
                let flood = rlock(&self.flood).clone();
                actions.extend(self.on_providers(qid, slot as u32, flood));
                if !self.flights.contains_key(&qid) {
                    break;
                }
            } else {
                actions.extend(self.lookup(qid, slot, 0));
            }
        }
        actions.push(Action::Schedule {
            after: self.cfg.query_deadline,
            msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Overall },
        });
        actions
    }

    fn on_providers(&mut self, qid: QueryId, slot: u32, providers: Vec<NodeId>) -> Vec<Action> {
        let i = slot as usize;
        // Stale unless the slot exists and is still unresolved — e.g. the
        // answer to a retransmitted lookup when the first one arrived.
        let Some(f) =
            self.flights.get_mut(&qid).filter(|f| matches!(f.providers.get(i), Some(None)))
        else {
            self.counters.add(Counter::StaleReplies, 1);
            return Vec::new();
        };
        if providers.is_empty() {
            // The slot matches nothing, so the conjunction is empty — a
            // complete answer, no provider contacted.
            return self.finish(qid, true);
        }
        let mut seen = HashSet::new();
        f.providers[i] = Some(providers.into_iter().filter(|p| seen.insert(*p)).collect());
        if f.providers.iter().any(Option::is_none) {
            return Vec::new(); // other slots still resolving
        }
        // Every slot resolved: fan the round out to the provider union.
        let mut targets: Vec<NodeId> = f.providers.iter().flatten().flatten().copied().collect();
        targets.sort();
        targets.dedup();
        if let RoundStrategy::HyperCube { peers, .. } = &mut f.round.strategy {
            peers.clone_from(&targets);
        }
        f.outstanding = targets.iter().map(|p| (*p, 0)).collect();
        targets.into_iter().flat_map(|p| self.exec(qid, p, 0)).collect()
    }

    /// One provider's answer to one round. The flight is looked up once
    /// and the solution sets move into the gather.
    fn on_answer(&mut self, qid: QueryId, from: NodeId, sets: Vec<Vec<Solution>>) -> Vec<Action> {
        let Some(f) = self.flights.get_mut(&qid) else {
            self.counters.add(Counter::StaleReplies, 1);
            return Vec::new();
        };
        // Only an awaited provider's reply counts, and only once.
        if !f.outstanding.contains_key(&from) || !f.gather.absorb(sets) {
            self.counters.add(Counter::StaleReplies, 1);
            return Vec::new();
        }
        f.outstanding.remove(&from);
        if f.outstanding.is_empty() {
            let complete = f.failed.is_empty();
            return self.finish(qid, complete);
        }
        Vec::new()
    }

    fn on_lookup_timeout(&mut self, qid: QueryId, slot: u32, attempt: u8) -> Vec<Action> {
        let i = slot as usize;
        let Some(f) = self.flights.get_mut(&qid) else { return Vec::new() };
        if !matches!(f.providers.get(i), Some(None)) || f.lookups[i] != attempt {
            return Vec::new(); // answered, or a stale deadline
        }
        if attempt < self.cfg.retries {
            f.lookups[i] = attempt + 1;
            self.counters.add(Counter::Retries, 1);
            self.lookup(qid, i, attempt + 1)
        } else {
            self.counters.add(Counter::LookupFailures, 1);
            self.finish(qid, false)
        }
    }

    fn on_ack_timeout(&mut self, qid: QueryId, provider: NodeId, attempt: u8) -> Vec<Action> {
        let Some(f) = self.flights.get_mut(&qid) else { return Vec::new() };
        if f.outstanding.get(&provider) != Some(&attempt) {
            return Vec::new(); // answered, escalated, or a stale deadline
        }
        if attempt < self.cfg.retries {
            f.outstanding.insert(provider, attempt + 1);
            self.counters.add(Counter::Retries, 1);
            return self.exec(qid, provider, attempt + 1);
        }
        f.outstanding.remove(&provider);
        f.failed.push(provider);
        self.counters.add(Counter::AckTimeouts, 1);
        // Purge the dead provider from every slot row that named it —
        // each slot's key may live at a different index owner.
        let index = self.index;
        let mut actions: Vec<Action> = f
            .providers
            .iter()
            .zip(&f.round.patterns)
            .filter(|(slot, _)| slot.as_deref().is_some_and(|ps| ps.contains(&provider)))
            .map(|(_, pattern)| Action::Send {
                to: index,
                msg: LiveMsg::ProviderDead { pattern: pattern.clone(), provider },
            })
            .collect();
        // A HyperCube generation cannot finish without every peer's
        // partitions — the surviving targets are stalled waiting for the
        // dead peer's scatter. Re-issue the round over the survivors
        // under a bumped generation; partitions from the abandoned one
        // are fenced off by the generation tag.
        let mut restart = Vec::new();
        if let RoundStrategy::HyperCube { generation, peers, .. } = &mut f.round.strategy {
            peers.retain(|p| *p != provider);
            *generation += 1;
            f.outstanding = peers.iter().map(|p| (*p, 0)).collect();
            restart.clone_from(peers);
        }
        if f.outstanding.is_empty() {
            actions.extend(self.finish(qid, false));
        } else {
            actions.extend(restart.into_iter().flat_map(|p| self.exec(qid, p, 0)));
        }
        actions
    }

    fn on_overall_deadline(&mut self, qid: QueryId) -> Vec<Action> {
        let Some(f) = self.flights.get_mut(&qid) else { return Vec::new() };
        // Whatever is still outstanding has failed; no ProviderDead here —
        // the backstop fires on slow queries too, and purging the table on
        // a merely-slow provider would be too eager (Sect. III-D purges
        // only after the per-provider ack timeout).
        let mut remaining: Vec<NodeId> = f.outstanding.drain().map(|(p, _)| p).collect();
        remaining.sort();
        f.failed.extend(remaining);
        self.finish(qid, false)
    }

    /// A synchronously failed send is an immediate timeout (Sect. III-D):
    /// the transport already knows the peer is unreachable, so waiting
    /// out the deadline would only delay the retry/purge. A failed lookup
    /// times out its slot; a lost `ProviderDead` or `Done` only postpones
    /// lazy cleanup.
    fn on_send_failed(&mut self, msg: &LiveMsg) -> Vec<Action> {
        self.counters.add(Counter::SendFailures, 1);
        let LiveMsg::Lookup { qid, slot, .. } = *msg else { return Vec::new() };
        match self.flights.get(&qid).and_then(|f| f.lookups.get(slot as usize)).copied() {
            Some(attempt) => self.on_lookup_timeout(qid, slot, attempt),
            None => Vec::new(),
        }
    }

    /// A failed exec frame to `to` fails every round it carried (`qids`):
    /// each becomes an immediate ack timeout at its current attempt.
    fn on_exec_failed(&mut self, to: NodeId, qids: &[QueryId]) -> Vec<Action> {
        self.counters.add(Counter::SendFailures, 1);
        qids.iter()
            .flat_map(|&qid| {
                match self.flights.get(&qid).and_then(|f| f.outstanding.get(&to)).copied() {
                    Some(attempt) => self.on_ack_timeout(qid, to, attempt),
                    None => Vec::new(),
                }
            })
            .collect()
    }

    fn finish(&mut self, qid: QueryId, complete: bool) -> Vec<Action> {
        let Some(f) = self.flights.remove(&qid) else { return Vec::new() };
        if !complete {
            self.counters.add(Counter::IncompleteQueries, 1);
        }
        let solutions = match f.gather {
            Gather::Union(buf) => buf.into_vec(),
            Gather::Assembly { slots, local } => {
                // Assembly: fold-join the deduped per-slot unions in
                // slot order.
                let mut acc = vec![Solution::new()];
                for buf in &slots {
                    acc = join(&acc, buf.as_slice());
                }
                let mut assembled = DistinctBuffer::new();
                assembled.extend_distinct(acc);
                let stitched = assembled.len().saturating_sub(local.len());
                self.counters.add(Counter::StitchedRows, stitched as u64);
                assembled.into_vec()
            }
        };
        // Let the shuffle peers retire their retained state.
        let mut actions: Vec<Action> = match &f.round.strategy {
            RoundStrategy::HyperCube { peers, .. } => {
                peers.iter().map(|p| Action::Send { to: *p, msg: LiveMsg::Done { qid } }).collect()
            }
            _ => Vec::new(),
        };
        let answer = LiveAnswer { solutions, complete, failed_providers: f.failed };
        actions.push(Action::Finish { qid, answer });
        actions
    }
}

// ---- the node handlers ----------------------------------------------

pub(crate) type PendingMap = Arc<Mutex<HashMap<QueryId, Sender<LiveAnswer>>>>;
pub(crate) type SharedTable = Arc<Mutex<HashMap<u64, Vec<NodeId>>>>;
/// The index nodes' routing view, `(ring position, address)` sorted by
/// position. Shared mutable so serve-mode membership can extend it.
pub(crate) type RingView = Arc<RwLock<Vec<(u64, NodeId)>>>;
/// The keyless-pattern flood list (every storage node, sorted). Shared
/// mutable for the same reason.
pub(crate) type SharedFlood = Arc<RwLock<Vec<NodeId>>>;

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn rlock<T>(m: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn wlock<T>(m: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(|e| e.into_inner())
}

/// The coordinator node: hosts the state machine, executes its actions
/// (turning failed sends back into events), and hands finished answers
/// to the waiting caller.
pub(crate) struct Coordinator {
    pub(crate) core: CoordinatorCore,
    pub(crate) pending: PendingMap,
}

impl Coordinator {

    /// Executes the state machine's actions. Execs are not sent one by
    /// one: within one handler turn every round bound for the same
    /// storage node is buffered and flushed as a single
    /// [`LiveMsg::Exec`] frame. A failed flush feeds back into the state
    /// machine per carried round, which may buffer retransmissions —
    /// hence the outer loop.
    fn run(&mut self, first: Vec<Action>, out: &Outbox<LiveMsg>) {
        let mut actions: VecDeque<Action> = first.into();
        loop {
            let mut buffered: Vec<(NodeId, Vec<Round>)> = Vec::new();
            while let Some(action) = actions.pop_front() {
                match action {
                    Action::Exec { to, round } => match buffered.iter_mut().find(|(n, _)| *n == to)
                    {
                        Some((_, rounds)) => rounds.push(round),
                        None => buffered.push((to, vec![round])),
                    },
                    Action::Send { to, msg } => {
                        if !out.send(to, msg.clone()) {
                            actions.extend(self.core.on_send_failed(&msg));
                        }
                    }
                    Action::Schedule { after, msg } => out.schedule(after, msg),
                    Action::Finish { qid, answer } => {
                        // Removing the sender is what makes "done" single-shot.
                        if let Some(tx) = lock(&self.pending).remove(&qid) {
                            let _ = tx.send(answer);
                        }
                    }
                }
            }
            if buffered.is_empty() {
                break;
            }
            for (to, rounds) in buffered {
                count_batch(&self.core.counters, rounds.len());
                let qids: Vec<QueryId> = rounds.iter().map(|r| r.qid).collect();
                if !out.send(to, LiveMsg::Exec { rounds, reply_to: self.core.me }) {
                    actions.extend(self.core.on_exec_failed(to, &qids));
                }
            }
        }
    }
}

/// Counts a frame carrying `rounds` rounds as a batch when it carries
/// more than one.
fn count_batch(counters: &CounterSet, rounds: usize) {
    if rounds > 1 {
        counters.add(Counter::Batches, 1);
        counters.add(Counter::BatchedRounds, rounds as u64);
    }
}

impl Handler<LiveMsg> for Coordinator {
    fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
        let actions = self.core.on_event(envelope.from, envelope.payload);
        self.run(actions, out);
    }
}

pub(crate) struct IndexNode {
    /// key id → providers (this node's location table). Shared with the
    /// [`LiveMesh`] handle so tests and operators can observe the lazy
    /// removal without an extra probe protocol.
    pub(crate) table: SharedTable,
    pub(crate) space: rdfmesh_chord::IdSpace,
    /// `(ring position, address)` of every index node, sorted by
    /// position — the routing view. A live deployment would walk fingers
    /// hop by hop; one-shot resolution keeps the thread demo focused on
    /// the query protocol itself.
    pub(crate) ring_view: RingView,
    pub(crate) counters: Arc<CounterSet>,
}

pub(crate) fn owner_in_view(ring_view: &[(u64, NodeId)], key: u64) -> NodeId {
    ring_view
        .iter()
        .find(|(pos, _)| *pos >= key)
        .or_else(|| ring_view.first())
        .map(|(_, addr)| *addr)
        .expect("non-empty ring view")
}

impl Handler<LiveMsg> for IndexNode {
    fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
        let owner_of = |key: u64| owner_in_view(&rlock(&self.ring_view), key);
        match envelope.payload {
            LiveMsg::Lookup { qid, slot, pattern, reply_to } => {
                let providers = match key_for_pattern(self.space, &pattern) {
                    None => Vec::new(),
                    Some(k) => {
                        let owner = owner_of(k.id.0);
                        if owner != out.me() {
                            out.send(owner, LiveMsg::Lookup { qid, slot, pattern, reply_to });
                            return;
                        }
                        lock(&self.table).get(&k.id.0).cloned().unwrap_or_default()
                    }
                };
                out.send(reply_to, LiveMsg::Providers { qid, slot, providers });
            }
            LiveMsg::ProviderDead { pattern, provider } => {
                let Some(k) = key_for_pattern(self.space, &pattern) else { return };
                let owner = owner_of(k.id.0);
                if owner != out.me() {
                    out.send(owner, LiveMsg::ProviderDead { pattern, provider });
                    return;
                }
                let mut table = lock(&self.table);
                if let Some(row) = table.get_mut(&k.id.0) {
                    let before = row.len();
                    row.retain(|p| *p != provider);
                    let removed = (before - row.len()) as u64;
                    if row.is_empty() {
                        table.remove(&k.id.0);
                    }
                    drop(table);
                    self.counters.add(Counter::ProvidersPurged, removed);
                }
            }
            LiveMsg::Publish { keys, provider } => {
                // Serve-mode registration: idempotent row inserts, so a
                // republish after a membership change converges instead
                // of duplicating.
                let mut table = lock(&self.table);
                for key in keys {
                    let row = table.entry(key).or_default();
                    if !row.contains(&provider) {
                        row.push(provider);
                    }
                }
            }
            _ => {}
        }
    }
}

/// The retained copy of a HyperCube exec's fields (`join_vars` are
/// consumed by the scatter and not retained).
#[derive(Debug)]
struct ShuffleExecFrame {
    patterns: Vec<TriplePattern>,
    peers: Vec<NodeId>,
    reply_to: NodeId,
}

/// Per-query state a storage node keeps while a HyperCube shuffle is in
/// flight: the exec and its peers' partitions can arrive in any order,
/// and a retransmitted exec must re-ship the finished answer instead of
/// re-scattering partitions.
#[derive(Debug, Default)]
struct ShuffleState {
    /// The shuffle generation the retained state belongs to. Frames
    /// tagged with a newer generation supersede everything here (the
    /// coordinator restarted the round over the surviving peers); frames
    /// from an older one are dropped.
    generation: u32,
    /// The exec's fields, once it arrived.
    exec: Option<ShuffleExecFrame>,
    /// origin peer → its per-slot partitions destined for this node.
    /// Keyed by origin, so a retransmitted partition frame is idempotent.
    received: HashMap<NodeId, Vec<Vec<Solution>>>,
    /// The shipped local join, kept for retransmit resends.
    answer: Option<Vec<Solution>>,
}

/// Shuffle entries for more queries than this trigger an eviction of
/// finished entries — the backstop for lost [`LiveMsg::Done`]s.
const SHUFFLE_STATE_CAP: usize = 1024;

pub(crate) struct LiveStorage {
    store: SharedStore,
    counters: Arc<CounterSet>,
    /// In-flight HyperCube rounds this node participates in.
    shuffle: HashMap<QueryId, ShuffleState>,
}

impl LiveStorage {
    pub(crate) fn new(store: SharedStore, counters: Arc<CounterSet>) -> Self {
        LiveStorage { store, counters, shuffle: HashMap::new() }
    }

    /// Counts solutions leaving this node for the coordinator.
    fn account(&self, solutions: &[Solution]) {
        self.counters.add(Counter::SolutionsShipped, solutions.len() as u64);
        self.counters.add(Counter::SolutionBytes, wire::encode(solutions).len() as u64);
    }

    /// Local execution (Fig. 3) of a chained or partial-evaluation
    /// round: match every slot against the local store — extending the
    /// shipped intermediates when the round is a bind join — then apply
    /// the pushed-down filter at the source (Sect. IV-G). Stateless, so a
    /// retransmission just recomputes the same reply.
    fn local_sets(&self, round: &Round) -> Vec<Vec<Solution>> {
        let unit = vec![Solution::new()];
        let partial = round.bound.as_deref().unwrap_or(&unit);
        let sets: Vec<Vec<Solution>> = round
            .patterns
            .iter()
            .map(|pattern| {
                let mut solutions = evaluate_pattern_with(&self.store, pattern, partial);
                if let Some(f) = &round.filter {
                    solutions.retain(|s| f.satisfied_by(s));
                }
                solutions
            })
            .collect();
        sets.iter().for_each(|set| self.account(set));
        sets
    }

    /// Admits a new shuffle entry, evicting finished ones first when a
    /// lost `Done` let the map grow past the cap.
    fn shuffle_entry(&mut self, qid: QueryId) -> &mut ShuffleState {
        if self.shuffle.len() >= SHUFFLE_STATE_CAP && !self.shuffle.contains_key(&qid) {
            self.shuffle.retain(|_, st| st.answer.is_none());
        }
        self.shuffle.entry(qid).or_default()
    }

    /// Drops the state of an older generation than `generation`, or
    /// returns `false` if the frame itself is from an abandoned one.
    fn fence(&mut self, qid: QueryId, generation: u32) -> bool {
        match self.shuffle.get(&qid).map(|st| st.generation) {
            Some(current) if generation > current => {
                self.shuffle.remove(&qid);
                true
            }
            Some(current) => generation == current,
            None => true,
        }
    }

    /// A HyperCube exec: evaluate every slot locally and scatter each
    /// solution to the peer its join-variable bindings hash to. Returns
    /// the local join if every peer's partitions are already in.
    fn shuffle_exec(
        &mut self,
        round: Round,
        reply_to: NodeId,
        out: &Outbox<LiveMsg>,
    ) -> Option<Vec<Solution>> {
        let RoundStrategy::HyperCube { join_vars, generation, peers } = round.strategy else {
            return None;
        };
        let qid = round.qid;
        if !self.fence(qid, generation) {
            return None; // exec from an abandoned generation
        }
        if let Some(answer) = self.shuffle.get(&qid).and_then(|st| st.answer.clone()) {
            // Retransmitted exec after the answer already shipped:
            // resend it (the coordinator dedups).
            return Some(answer);
        }
        let me = out.me();
        let st = self.shuffle_entry(qid);
        st.generation = generation;
        if st.exec.is_none() {
            // Empty partitions ship too: a target can only join once it
            // heard from every peer.
            let k = peers.len().max(1);
            let unit = vec![Solution::new()];
            let mut parts: Vec<Vec<Vec<Solution>>> =
                vec![vec![Vec::new(); round.patterns.len()]; k];
            for (pi, pattern) in round.patterns.iter().enumerate() {
                for s in evaluate_pattern_with(&self.store, pattern, &unit) {
                    parts[crate::exec::shuffle_partition(&s, &join_vars, k)][pi].push(s);
                }
            }
            for (slot, peer) in peers.iter().enumerate() {
                let mine = std::mem::take(&mut parts[slot]);
                if *peer == me {
                    self.shuffle_entry(qid).received.insert(me, mine);
                } else {
                    let shipped: usize = mine.iter().map(Vec::len).sum();
                    let bytes: usize = mine.iter().map(|set| wire::encode(set).len()).sum();
                    self.counters.add(Counter::ShuffleParts, shipped as u64);
                    self.counters.add(Counter::ShuffleBytes, bytes as u64);
                    out.send(*peer, LiveMsg::ShufflePart { qid, generation, parts: mine });
                }
            }
            self.shuffle_entry(qid).exec =
                Some(ShuffleExecFrame { patterns: round.patterns, peers, reply_to });
        }
        self.try_finish_shuffle(qid).map(|(_, solutions)| solutions)
    }

    /// The local join, once the exec and every peer's partitions are in.
    /// The per-slot fragment this node joins is the union (deduped) of
    /// its own partition slice and every [`LiveMsg::ShufflePart`]
    /// addressed to it — solutions that agree on the join variables land
    /// at the same target, so the union of all targets' local joins is
    /// the full join. Returns where to send it.
    fn try_finish_shuffle(&mut self, qid: QueryId) -> Option<(NodeId, Vec<Solution>)> {
        let st = self.shuffle.get(&qid)?;
        let ShuffleExecFrame { patterns, peers, reply_to } = st.exec.as_ref()?;
        if st.answer.is_some() || st.received.len() < peers.len() {
            return None;
        }
        let mut acc = vec![Solution::new()];
        for pi in 0..patterns.len() {
            let mut fragment = DistinctBuffer::new();
            for parts in st.received.values() {
                fragment.extend_distinct(parts.get(pi).cloned().unwrap_or_default());
            }
            acc = join(&acc, fragment.as_slice());
        }
        let reply_to = *reply_to;
        let mut distinct = DistinctBuffer::new();
        distinct.extend_distinct(acc);
        let solutions = distinct.into_vec();
        self.account(&solutions);
        self.shuffle.get_mut(&qid)?.answer = Some(solutions.clone());
        Some((reply_to, solutions))
    }
}

impl Handler<LiveMsg> for LiveStorage {
    fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
        let from = envelope.from;
        match envelope.payload {
            LiveMsg::Exec { rounds, reply_to } => {
                // Several queries' rounds in one frame: answer them all
                // in one frame too, so the reply path amortizes the same
                // framing the request path did. A HyperCube round still
                // waiting on partitions answers later, on its own.
                count_batch(&self.counters, rounds.len());
                let mut entries = Vec::with_capacity(rounds.len());
                for round in rounds {
                    let qid = round.qid;
                    if let RoundStrategy::HyperCube { .. } = round.strategy {
                        if let Some(solutions) = self.shuffle_exec(round, reply_to, out) {
                            entries.push((qid, vec![solutions]));
                        }
                    } else {
                        entries.push((qid, self.local_sets(&round)));
                    }
                }
                if !entries.is_empty() {
                    out.send(reply_to, LiveMsg::Answer { entries });
                }
            }
            LiveMsg::ShufflePart { qid, generation, parts } => {
                // A partition of a newer generation can outrun its exec:
                // drop the abandoned generation's state and start
                // collecting under the new one.
                if !self.fence(qid, generation) {
                    return; // partition from an abandoned generation
                }
                let entry = self.shuffle_entry(qid);
                entry.generation = generation;
                entry.received.entry(from).or_insert(parts);
                if let Some((reply_to, solutions)) = self.try_finish_shuffle(qid) {
                    out.send(reply_to, LiveMsg::Answer { entries: vec![(qid, vec![solutions])] });
                }
            }
            LiveMsg::Done { qid } => {
                self.shuffle.remove(&qid);
            }
            _ => {}
        }
    }
}

// ---- the submit front both mesh handles share --------------------------

/// How many round submissions one submit-pump drain coalesces into a
/// single [`LiveMsg::Submit`] at most.
const SUBMIT_COALESCE: usize = 64;

/// The group-commit submit pump: callers enqueue rounds without
/// blocking; the pump injects whatever has piled up while the previous
/// inject was in flight as one message. At low load every round still
/// travels alone (zero added latency — the blocking `recv` forwards it
/// immediately); batches only form under concurrency, which is exactly
/// when the framing amortization pays.
fn spawn_submit_pump<F>(rx: Receiver<Round>, counters: Arc<CounterSet>, inject: F)
where
    F: Fn(LiveMsg) + Send + 'static,
{
    std::thread::Builder::new()
        .name("rdfmesh-submit-pump".into())
        .spawn(move || {
            while let Ok(first) = rx.recv() {
                let mut rounds = vec![first];
                rounds.extend(std::iter::from_fn(|| rx.try_recv().ok()).take(SUBMIT_COALESCE - 1));
                count_batch(&counters, rounds.len());
                inject(LiveMsg::Submit { rounds });
            }
        })
        .expect("spawn submit pump");
}

/// A submitted-but-not-yet-awaited round: the non-blocking half of
/// [`Mesh::query_solutions`] and [`Mesh::query_multiway`]. Callers
/// submit any number of rounds and wait on each handle afterwards, so
/// concurrent executions pipeline through one coordinator instead of
/// serializing on the caller side.
#[derive(Debug)]
pub struct RoundHandle {
    qid: QueryId,
    rx: Receiver<LiveAnswer>,
    pending: PendingMap,
}

impl RoundHandle {
    /// The id the round was submitted under.
    pub fn qid(&self) -> QueryId {
        self.qid
    }

    /// Blocks up to `timeout` for the round's answer. `None` abandons
    /// the wait (the coordinator's own deadlines still retire the
    /// round's protocol state).
    pub fn wait(self, timeout: Duration) -> Option<LiveAnswer> {
        let answer = self.rx.recv_timeout(timeout).ok();
        if answer.is_none() {
            lock(&self.pending).remove(&self.qid);
        }
        answer
    }
}

/// A live mesh handle: the submit front every host shares — round
/// submission through the group-commit pump, admission control, and
/// the counters — over a host `H` that carries the nodes.
/// [`LiveMesh`] hosts a whole mesh in this process (threads or
/// loopback sockets); [`crate::MeshNode`] hosts one serve-mode process.
/// `execute` and `execute_with` live in [`crate::live_backend`].
pub struct Mesh<H> {
    pub(crate) host: H,
    cfg: LiveConfig,
    space: rdfmesh_chord::IdSpace,
    ring_view: RingView,
    next_qid: AtomicU64,
    pending: PendingMap,
    pump: Sender<Round>,
    admission: Admission,
    counters: Arc<CounterSet>,
}

impl<H> Mesh<H> {
    /// Wraps `host` with the submit front; `inject` delivers a
    /// [`LiveMsg::Submit`] to the host's coordinator.
    pub(crate) fn with_front(
        host: H,
        cfg: LiveConfig,
        space: rdfmesh_chord::IdSpace,
        ring_view: RingView,
        counters: Arc<CounterSet>,
        pending: PendingMap,
        inject: impl Fn(LiveMsg) + Send + 'static,
    ) -> Self {
        let (pump, rx) = unbounded();
        spawn_submit_pump(rx, Arc::clone(&counters), inject);
        let admission = Admission::new(&cfg, Arc::clone(&counters));
        let next_qid = AtomicU64::new(1);
        Mesh { host, cfg, space, ring_view, next_qid, pending, pump, admission, counters }
    }

    fn submit(&self, round: impl FnOnce(QueryId) -> Round) -> RoundHandle {
        self.counters.add(Counter::SolutionRounds, 1);
        let qid = QueryId(self.next_qid.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = bounded(1);
        lock(&self.pending).insert(qid, tx);
        let _ = self.pump.send(round(qid));
        RoundHandle { qid, rx, pending: Arc::clone(&self.pending) }
    }

    /// Resolves one chained round through the live protocol: the
    /// selected providers answer with solution mappings — extending the
    /// shipped `bound` intermediates when given (bind join, Sect. IV-D)
    /// and applying `filter` at the source (Sect. IV-G). Blocks up to
    /// `timeout`; the protocol's own deadlines ([`LiveConfig`]) answer
    /// well before a generous `timeout`, so `None` means the caller gave
    /// up first. The distributed execution core's [`crate::LiveBackend`]
    /// issues one such round per plan primitive or bound sub-query.
    pub fn query_solutions(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
        timeout: Duration,
    ) -> Option<LiveAnswer> {
        self.submit_solutions(pattern, filter, bound).wait(timeout)
    }

    /// The non-blocking half of [`Mesh::query_solutions`]: enqueues the
    /// round at the submit pump and returns immediately with a
    /// [`RoundHandle`] to wait on.
    pub fn submit_solutions(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
    ) -> RoundHandle {
        self.submit(|qid| Round::chained(qid, pattern, filter, bound))
    }

    /// Resolves a whole multi-pattern BGP in a single distributed round
    /// — HyperCube shuffle or partial-evaluation-and-assembly — instead
    /// of pattern-by-pattern chained shipping, blocking up to `timeout`.
    pub fn query_multiway(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
        timeout: Duration,
    ) -> Option<LiveAnswer> {
        self.submit_multiway(patterns, join_vars, strategy).wait(timeout)
    }

    /// The non-blocking half of [`Mesh::query_multiway`].
    pub fn submit_multiway(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
    ) -> RoundHandle {
        self.submit(|qid| Round::multiway(qid, patterns, join_vars, strategy))
    }

    /// The admission gate bounding concurrent query *executions* (one
    /// SPARQL query = one permit, covering all its rounds). `execute`
    /// acquires from it; raw round submissions are ungated internals.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The fault-tolerance configuration the mesh was started with.
    pub fn config(&self) -> LiveConfig {
        self.cfg
    }

    /// Every counter of the mesh so far (`transport.*` stay zero on
    /// [`Transport::Threads`]).
    pub fn stats(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Messages delivered so far (across all threads).
    pub fn message_count(&self) -> u64 {
        self.counters.get(Counter::ClusterMessages)
    }

    /// Messages lost so far to the fault plan or crashed nodes.
    pub fn dropped_count(&self) -> u64 {
        self.counters.get(Counter::ClusterDropped)
    }

    /// The index node whose location table owns `pattern`'s key in this
    /// handle's current ring view, or `None` for the all-variable
    /// pattern (which has no key).
    pub fn index_owner_of(&self, pattern: &TriplePattern) -> Option<NodeId> {
        key_for_pattern(self.space, pattern).map(|k| owner_in_view(&rlock(&self.ring_view), k.id.0))
    }
}

impl<H> Drop for Mesh<H> {
    /// Hands the mesh's final counts to the process registry, once per
    /// mesh (see [`CounterSet::publish`]).
    fn drop(&mut self) {
        self.counters.publish();
    }
}

// ---- the in-process mesh ----------------------------------------------

/// Which substrate carries a [`LiveMesh`]'s protocol messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Crossbeam channels between threads in one process — the original
    /// live mesh.
    Threads,
    /// Framed TCP over loopback: every inter-node message crosses a real
    /// socket through the process's own listener, exercising the
    /// `docs/DEPLOYMENT.md` wire protocol end to end while the
    /// [`FaultPlan`] keeps its sender-side semantics.
    Sockets,
}

/// The cluster behind a [`LiveMesh`]: same `Outbox` contract, different
/// wires. Both variants expose identical control/observation surfaces,
/// which is what lets the fault suite run unmodified on either.
enum MeshCluster {
    Threads(Cluster<LiveMsg>),
    Sockets(TcpCluster<LiveMsg>),
}

/// Calls the same method on whichever cluster backs the mesh.
macro_rules! on_cluster {
    ($cluster:expr, $c:ident => $call:expr) => {
        match &*$cluster {
            MeshCluster::Threads($c) => $call,
            MeshCluster::Sockets($c) => $call,
        }
    };
}

/// The host of a [`LiveMesh`]: every node of an overlay in this process.
pub struct Loopback {
    cluster: Arc<MeshCluster>,
    tables: HashMap<NodeId, SharedTable>,
}

/// A live mesh: one thread per node, built from an existing overlay's
/// data placement.
pub type LiveMesh = Mesh<Loopback>;

/// The coordinator's well-known address in the live mesh.
pub const COORDINATOR: NodeId = NodeId(u64::MAX);

impl Mesh<Loopback> {
    /// Spawns node threads mirroring `overlay`'s index placement and
    /// storage contents, with default timeouts and no planned faults.
    pub fn spawn(overlay: &Overlay) -> Self {
        Self::spawn_with(overlay, LiveConfig::default(), FaultPlan::new())
    }

    /// [`LiveMesh::spawn`] with explicit fault-tolerance configuration
    /// and a [`FaultPlan`] to exercise it. For simplicity the live index
    /// is one thread per index node, each holding the full
    /// key → providers map it would own (ring routing is already
    /// exercised by the simulator; the live mesh demonstrates the
    /// messaging).
    pub fn spawn_with(overlay: &Overlay, cfg: LiveConfig, plan: FaultPlan) -> Self {
        Self::spawn_with_transport(overlay, cfg, plan, Transport::Threads)
            .expect("thread transport cannot fail to bind")
    }

    /// [`LiveMesh::spawn_with`] on an explicit [`Transport`]. Only
    /// [`Transport::Sockets`] can fail (binding the loopback listener);
    /// the protocol, fault semantics and observable counters are
    /// identical on both substrates.
    pub fn spawn_with_transport(
        overlay: &Overlay,
        cfg: LiveConfig,
        plan: FaultPlan,
        transport: Transport,
    ) -> std::io::Result<Self> {
        let space = overlay.ring().space();
        // Build each index node's location table view from storage data.
        let index_nodes = overlay.index_nodes();
        assert!(!index_nodes.is_empty(), "live mesh needs an index node");
        let mut tables: HashMap<NodeId, HashMap<u64, Vec<NodeId>>> = HashMap::new();
        for storage in overlay.storage_nodes() {
            let node = overlay.storage_node(storage).expect("listed");
            for triple in node.store.iter() {
                for key in keys_for_triple(space, &triple) {
                    let owner = overlay
                        .ring()
                        .ideal_owner(key.id)
                        .ok()
                        .and_then(|id| overlay.addr_of(id))
                        .unwrap_or(index_nodes[0]);
                    let row = tables.entry(owner).or_default().entry(key.id.0).or_default();
                    if !row.contains(&storage) {
                        row.push(storage);
                    }
                }
            }
        }

        let mut ring_view: Vec<(u64, NodeId)> = index_nodes
            .iter()
            .filter_map(|&addr| overlay.chord_id_of(addr).map(|id| (id.0, addr)))
            .collect();
        ring_view.sort();
        let ring_view: RingView = Arc::new(RwLock::new(ring_view));
        let counters = Arc::new(CounterSet::default());
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let mut shared_tables: HashMap<NodeId, SharedTable> = HashMap::new();
        let mut nodes: Vec<(NodeId, Box<dyn Handler<LiveMsg>>)> = Vec::new();
        for ix in &index_nodes {
            let table: SharedTable = Arc::new(Mutex::new(tables.remove(ix).unwrap_or_default()));
            shared_tables.insert(*ix, Arc::clone(&table));
            let ring_view = Arc::clone(&ring_view);
            let counters = Arc::clone(&counters);
            nodes.push((*ix, Box::new(IndexNode { table, space, ring_view, counters })));
        }
        let mut flood: Vec<NodeId> = Vec::new();
        for storage in overlay.storage_nodes() {
            let store = overlay.storage_node(storage).expect("listed").store.clone();
            nodes.push((storage, Box::new(LiveStorage::new(store, Arc::clone(&counters)))));
            flood.push(storage);
        }
        flood.sort();
        let core = CoordinatorCore::new(
            COORDINATOR,
            index_nodes[0],
            cfg,
            space,
            Arc::new(RwLock::new(flood)),
            Arc::clone(&counters),
        );
        let coordinator = Coordinator { core, pending: Arc::clone(&pending) };
        nodes.push((COORDINATOR, Box::new(coordinator)));
        let shared = Arc::clone(&counters);
        let cluster = Arc::new(match transport {
            Transport::Threads => MeshCluster::Threads(Cluster::spawn_with(nodes, plan, shared)),
            Transport::Sockets => {
                MeshCluster::Sockets(TcpCluster::spawn_loopback(nodes, plan, shared)?)
            }
        });
        let pump = Arc::clone(&cluster);
        let host = Loopback { cluster, tables: shared_tables };
        Ok(Mesh::with_front(host, cfg, space, ring_view, counters, pending, move |msg| {
            on_cluster!(pump, c => c.inject(COORDINATOR, COORDINATOR, msg));
        }))
    }

    /// Test-harness facility: delivers a hand-crafted protocol message as
    /// if `from` had sent it, bypassing link faults (see
    /// [`Cluster::inject`]). Fault tests use it to forge late replies
    /// from earlier queries.
    pub fn inject(&self, from: NodeId, to: NodeId, msg: LiveMsg) {
        on_cluster!(self.host.cluster, c => c.inject(from, to, msg));
    }

    /// Crashes `node` at runtime: it stops answering and sends to it fail
    /// fast. See [`Cluster::crash`].
    pub fn crash(&self, node: NodeId) -> bool {
        on_cluster!(self.host.cluster, c => c.crash(node))
    }

    /// Restarts a crashed `node` with its state intact. Its purged
    /// location-table entries stay purged until it republishes — exactly
    /// the paper's rejoin behaviour. See [`Cluster::restart`].
    pub fn restart(&self, node: NodeId) -> bool {
        on_cluster!(self.host.cluster, c => c.restart(node))
    }

    /// Blocks until `node` has processed everything delivered to it
    /// before this call — the deterministic fence the fault tests use
    /// instead of sleeping. See [`Cluster::barrier`].
    pub fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        on_cluster!(self.host.cluster, c => c.barrier(node, timeout))
    }

    /// The owner index node's current location-table row for `pattern`
    /// (sorted) — the observable target of the lazy removal protocol.
    pub fn providers_of(&self, pattern: &TriplePattern) -> Vec<NodeId> {
        let Some(key) = key_for_pattern(self.space, pattern) else { return Vec::new() };
        let owner = owner_in_view(&rlock(&self.ring_view), key.id.0);
        let Some(table) = self.host.tables.get(&owner) else { return Vec::new() };
        let mut row = lock(table).get(&key.id.0).cloned().unwrap_or_default();
        row.sort();
        row
    }

    /// Stops every node thread.
    pub fn shutdown(&self) {
        on_cluster!(self.host.cluster, c => c.shutdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_net::{LatencyModel, Network, SimTime};
    use rdfmesh_rdf::{Term, TermPattern, Triple};

    fn overlay() -> Overlay {
        let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
        let mut o = Overlay::new(32, 4, 2, net);
        for i in 0..3u64 {
            let addr = NodeId(1000 + i);
            let pos = o.ring().space().hash(&addr.0.to_be_bytes());
            o.add_index_node(addr, pos).unwrap();
        }
        let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
        o.add_storage_node(
            NodeId(1),
            NodeId(1000),
            vec![
                Triple::new(person("alice"), knows.clone(), person("bob")),
                Triple::new(person("alice"), knows.clone(), person("carol")),
            ],
        )
        .unwrap();
        o.add_storage_node(
            NodeId(2),
            NodeId(1001),
            vec![Triple::new(person("dave"), knows, person("bob"))],
        )
        .unwrap();
        o
    }

    fn knows_pattern(target: &str) -> TriplePattern {
        TriplePattern::new(
            TermPattern::var("x"),
            Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
            Term::iri(&format!("http://example.org/{target}")),
        )
    }

    fn sorted(mut solutions: Vec<Solution>) -> Vec<Solution> {
        solutions.sort();
        solutions
    }

    #[test]
    fn live_query_matches_simulated_results() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        let pattern = knows_pattern("bob");
        let live = mesh
            .query_solutions(pattern.clone(), None, None, Duration::from_secs(10))
            .expect("no timeout");
        assert!(live.complete);
        assert!(live.failed_providers.is_empty());
        assert_eq!(live.solutions.len(), 2);
        // Oracle agreement.
        let store = crate::engine::global_store(&o);
        let expected = evaluate_pattern_with(&store, &pattern, &[Solution::new()]);
        assert_eq!(sorted(live.solutions), sorted(expected));
        // Protocol shape: 1 lookup + 1 providers + k execs + k answers.
        assert!(mesh.message_count() >= 4);
        // A lone query travels as a batch of one: no batched frame.
        assert_eq!(mesh.stats()[Counter::Batches], 0);
        mesh.shutdown();
    }

    #[test]
    fn live_query_empty_when_no_providers() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        let pattern = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://example.org/never-used"),
            TermPattern::var("y"),
        );
        let live =
            mesh.query_solutions(pattern, None, None, Duration::from_secs(10)).expect("no timeout");
        assert!(live.complete);
        assert!(live.solutions.is_empty());
        mesh.shutdown();
    }

    #[test]
    fn sequential_queries_reuse_the_mesh() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        for (target, expect) in [("bob", 2), ("carol", 1), ("nobody", 0)] {
            let live = mesh
                .query_solutions(knows_pattern(target), None, None, Duration::from_secs(10))
                .expect("no timeout");
            assert!(live.complete, "target {target}");
            assert_eq!(live.solutions.len(), expect, "target {target}");
        }
        mesh.shutdown();
    }

    #[test]
    fn concurrent_submissions_answer_independently() {
        // The non-blocking path end-to-end: many rounds in flight at
        // once through one coordinator, each answer routed back to its
        // own handle.
        let o = overlay();
        let mesh = Arc::new(LiveMesh::spawn(&o));
        let handles: Vec<(usize, RoundHandle)> = (0..12)
            .map(|i| {
                let target = ["bob", "carol", "nobody"][i % 3];
                (i % 3, mesh.submit_solutions(knows_pattern(target), None, None))
            })
            .collect();
        for (kind, handle) in handles {
            let answer = handle.wait(Duration::from_secs(10)).expect("no timeout");
            assert!(answer.complete);
            let expect = [2, 1, 0][kind];
            assert_eq!(answer.solutions.len(), expect, "target kind {kind}");
        }
        mesh.shutdown();
    }

    #[test]
    fn batched_submit_coalesces_provider_traffic() {
        // One Submit whose rounds fan out to the same storage nodes in
        // one coordinator turn must travel as 2-round Exec / Answer
        // frames — the group-commit shipping path — while answering
        // each round independently. The all-variable pattern floods
        // immediately (no lookup round-trip), so both rounds leave in
        // the same turn.
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        let p =
            TriplePattern::new(TermPattern::var("s"), TermPattern::var("p"), TermPattern::var("o"));
        let (tx1, rx1) = bounded(1);
        let (tx2, rx2) = bounded(1);
        let (q1, q2) = (QueryId(501), QueryId(502));
        lock(&mesh.pending).insert(q1, tx1);
        lock(&mesh.pending).insert(q2, tx2);
        let rounds =
            vec![Round::chained(q1, p.clone(), None, None), Round::chained(q2, p, None, None)];
        mesh.inject(COORDINATOR, COORDINATOR, LiveMsg::Submit { rounds });
        let a1 = rx1.recv_timeout(Duration::from_secs(10)).expect("q1 answers");
        let a2 = rx2.recv_timeout(Duration::from_secs(10)).expect("q2 answers");
        assert!(a1.complete && a2.complete);
        assert_eq!(a1.solutions, a2.solutions, "same pattern, same answer");
        assert_eq!(a1.solutions.len(), 3, "one solution per stored triple");
        let s = mesh.stats();
        // Two storage nodes: the coordinator shipped each one 2-round
        // Exec frame and each counted one on arrival.
        let (batches, batched) = (s[Counter::Batches], s[Counter::BatchedRounds]);
        assert!(batches >= 4, "expected coalesced frames, got {batches} batches");
        assert!(batched >= 8, "rounds carried in batches: {batched}");
        mesh.shutdown();
    }

    // ---- state-machine unit + property tests -------------------------

    mod state_machine {
        use super::*;
        use proptest::prelude::*;

        const IX: NodeId = NodeId(1000);
        const P1: NodeId = NodeId(1);
        const P2: NodeId = NodeId(2);
        const P3: NodeId = NodeId(3);

        fn pattern() -> TriplePattern {
            TriplePattern::new(
                TermPattern::var("x"),
                Term::iri("http://example.org/p"),
                TermPattern::var("y"),
            )
        }

        fn core() -> CoordinatorCore {
            CoordinatorCore::new(
                COORDINATOR,
                IX,
                LiveConfig::default(),
                rdfmesh_chord::IdSpace::new(32),
                Arc::new(RwLock::new(vec![P1, P2, P3])),
                Arc::default(),
            )
        }

        fn finishes(actions: &[Action]) -> Vec<(QueryId, LiveAnswer)> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Finish { qid, answer } => Some((*qid, answer.clone())),
                    _ => None,
                })
                .collect()
        }

        /// The providers every exec action of `actions` goes to.
        fn exec_targets(actions: &[Action]) -> Vec<NodeId> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Exec { to, .. } => Some(*to),
                    _ => None,
                })
                .collect()
        }

        fn submit(qid: QueryId) -> LiveMsg {
            LiveMsg::Submit { rounds: vec![Round::chained(qid, pattern(), None, None)] }
        }

        fn providers(qid: QueryId, providers: Vec<NodeId>) -> LiveMsg {
            LiveMsg::Providers { qid, slot: 0, providers }
        }

        fn answer(qid: QueryId, solutions: Vec<Solution>) -> LiveMsg {
            LiveMsg::Answer { entries: vec![(qid, vec![solutions])] }
        }

        fn deadline(qid: QueryId, stage: DeadlineStage) -> LiveMsg {
            LiveMsg::Deadline { qid, stage }
        }

        fn ack(provider: NodeId, attempt: u8) -> DeadlineStage {
            DeadlineStage::Ack { provider, attempt }
        }

        fn xsol(n: u64) -> Solution {
            Solution::from_pairs([(
                Variable::new("x"),
                Term::iri(&format!("http://example.org/s{n}")),
            )])
        }

        #[test]
        fn duplicate_answers_are_dropped_not_underflowed() {
            // The seed bug: `expect -= 1` panicked (debug) or wrapped
            // (release) on a duplicate or post-completion reply.
            let mut c = core();
            let qid = QueryId(1);
            c.on_event(COORDINATOR, submit(qid));
            c.on_event(IX, providers(qid, vec![P1, P2]));
            let a1 = c.on_event(P1, answer(qid, vec![xsol(1)]));
            assert!(finishes(&a1).is_empty());
            // Duplicate from P1: dropped, not applied.
            let dup = c.on_event(P1, answer(qid, vec![xsol(9)]));
            assert!(dup.is_empty());
            assert_eq!(c.counters.get(Counter::StaleReplies), 1);
            let done = finishes(&c.on_event(P2, answer(qid, vec![xsol(2)])));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1), xsol(2)]);
            // Post-completion reply: dropped.
            let late = c.on_event(P2, answer(qid, vec![xsol(3)]));
            assert!(late.is_empty());
            assert_eq!(c.counters.get(Counter::StaleReplies), 2);
        }

        #[test]
        fn cross_query_replies_cannot_contaminate() {
            let mut c = core();
            let (q1, q2) = (QueryId(1), QueryId(2));
            c.on_event(COORDINATOR, submit(q1));
            c.on_event(IX, providers(q1, vec![P1]));
            assert_eq!(finishes(&c.on_event(P1, answer(q1, vec![xsol(1)]))).len(), 1);
            // Query 2 starts; a late reply tagged with q1 arrives.
            c.on_event(COORDINATOR, submit(q2));
            c.on_event(IX, providers(q2, vec![P1, P2]));
            assert!(c.on_event(P1, answer(q1, vec![xsol(8)])).is_empty());
            assert!(finishes(&c.on_event(P1, answer(q2, vec![xsol(2)]))).is_empty());
            let done = finishes(&c.on_event(P2, answer(q2, vec![xsol(3)])));
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].1.solutions, vec![xsol(2), xsol(3)], "q1's late reply excluded");
        }

        #[test]
        fn exhausted_ack_deadline_purges_and_reports_partial() {
            let mut c = core();
            let qid = QueryId(7);
            c.on_event(COORDINATOR, submit(qid));
            c.on_event(IX, providers(qid, vec![P1, P2]));
            c.on_event(P1, answer(qid, vec![xsol(1)]));
            // P2 never answers: deadline at attempt 0 retries...
            let retry = c.on_event(COORDINATOR, deadline(qid, ack(P2, 0)));
            assert_eq!(exec_targets(&retry), vec![P2]);
            assert_eq!(c.counters.get(Counter::Retries), 1);
            // ...and the deadline at attempt 1 gives up.
            let give_up = c.on_event(COORDINATOR, deadline(qid, ack(P2, 1)));
            assert!(give_up.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::ProviderDead { provider, .. } }
                    if *to == IX && *provider == P2
            )));
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            let answer = &done[0].1;
            assert!(!answer.complete);
            assert_eq!(answer.failed_providers, vec![P2]);
            assert_eq!(answer.solutions, vec![xsol(1)]);
            assert_eq!(c.counters.get(Counter::AckTimeouts), 1);
        }

        #[test]
        fn failed_send_is_an_immediate_ack_timeout() {
            let mut c = core();
            let qid = QueryId(3);
            c.on_event(COORDINATOR, submit(qid));
            assert_eq!(exec_targets(&c.on_event(IX, providers(qid, vec![P1]))), vec![P1]);
            // First failure retries (attempt 0 -> 1), second gives up.
            let retry = c.on_exec_failed(P1, &[qid]);
            assert_eq!(exec_targets(&retry), vec![P1]);
            let give_up = c.on_exec_failed(P1, &[qid]);
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(done[0].1.failed_providers, vec![P1]);
            assert_eq!(c.counters.get(Counter::SendFailures), 2);
        }

        #[test]
        fn lookup_timeout_retries_then_fails_within_deadline() {
            let mut c = core();
            let qid = QueryId(4);
            c.on_event(COORDINATOR, submit(qid));
            let retry = c.on_event(
                COORDINATOR,
                deadline(qid, DeadlineStage::Lookup { slot: 0, attempt: 0 }),
            );
            let lookup = retry
                .iter()
                .find_map(|a| match a {
                    Action::Send { msg: msg @ LiveMsg::Lookup { .. }, .. } => Some(msg.clone()),
                    _ => None,
                })
                .expect("lookup retransmitted");
            // The retransmission fails to send: an immediate timeout at
            // attempt 1, which gives up.
            let done = finishes(&c.on_send_failed(&lookup));
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(c.counters.get(Counter::LookupFailures), 1);
            assert_eq!(c.counters.get(Counter::SendFailures), 1);
            assert!(c.flights.is_empty());
        }

        #[test]
        fn solution_round_gathers_and_dedups_across_providers() {
            let mut c = core();
            let qid = QueryId(11);
            c.on_event(COORDINATOR, submit(qid));
            c.on_event(IX, providers(qid, vec![P1, P2]));
            assert!(finishes(&c.on_event(P1, answer(qid, vec![xsol(1), xsol(2)]))).is_empty());
            // P2 repeats xsol(2) (a replicated triple): it collapses.
            let done = finishes(&c.on_event(P2, answer(qid, vec![xsol(2), xsol(3)])));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1), xsol(2), xsol(3)]);
        }

        #[test]
        fn solution_round_retry_reships_filter_and_bound() {
            // An expired ack deadline must retransmit the full round —
            // same filter, same bound set.
            let mut c = core();
            let qid = QueryId(12);
            let bound = vec![xsol(1)];
            let filter = Expression::Bound(Variable::new("x"));
            let round = Round::chained(qid, pattern(), Some(filter.clone()), Some(bound.clone()));
            c.on_event(COORDINATOR, LiveMsg::Submit { rounds: vec![round] });
            c.on_event(IX, providers(qid, vec![P1]));
            let retry = c.on_event(COORDINATOR, deadline(qid, ack(P1, 0)));
            let resent = retry
                .iter()
                .find_map(|a| match a {
                    Action::Exec { to, round } if *to == P1 => {
                        Some((round.filter.clone(), round.bound.clone()))
                    }
                    _ => None,
                })
                .expect("retransmitted round");
            assert_eq!(resent, (Some(filter), Some(bound)));
        }

        #[test]
        fn keyless_pattern_floods_the_storage_nodes_without_lookup() {
            let mut c = core();
            let qid = QueryId(13);
            let all = TriplePattern::new(
                TermPattern::var("s"),
                TermPattern::var("p"),
                TermPattern::var("o"),
            );
            let acts = c.on_event(
                COORDINATOR,
                LiveMsg::Submit { rounds: vec![Round::chained(qid, all, None, None)] },
            );
            assert!(
                !acts.iter().any(|a| matches!(a, Action::Send { msg: LiveMsg::Lookup { .. }, .. })),
                "the all-variable pattern has no key to look up"
            );
            assert_eq!(
                exec_targets(&acts),
                vec![P1, P2, P3],
                "flooded to every storage node in order"
            );
            c.on_event(P1, answer(qid, vec![xsol(1)]));
            c.on_event(P2, answer(qid, Vec::new()));
            let done = finishes(&c.on_event(P3, answer(qid, Vec::new())));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1)]);
        }

        #[test]
        fn submit_batch_opens_each_round_independently() {
            let mut c = core();
            let (q1, q2) = (QueryId(21), QueryId(22));
            let rounds = vec![
                Round::chained(q1, pattern(), None, None),
                Round::chained(q2, pattern(), None, None),
            ];
            c.on_event(COORDINATOR, LiveMsg::Submit { rounds });
            c.on_event(IX, providers(q1, vec![P1]));
            c.on_event(IX, providers(q2, vec![P2]));
            // q2 finishes first; q1 is untouched by it.
            let d2 = finishes(&c.on_event(P2, answer(q2, vec![xsol(2)])));
            assert_eq!(d2.len(), 1);
            assert_eq!(d2[0].0, q2);
            assert_eq!(d2[0].1.solutions, vec![xsol(2)]);
            let d1 = finishes(&c.on_event(P1, answer(q1, vec![xsol(1)])));
            assert_eq!(d1.len(), 1);
            assert_eq!(d1[0].0, q1);
            assert_eq!(d1[0].1.solutions, vec![xsol(1)]);
            assert!(c.flights.is_empty());
        }

        #[test]
        fn one_answer_frame_settles_several_queries() {
            let mut c = core();
            let (q1, q2) = (QueryId(31), QueryId(32));
            for qid in [q1, q2] {
                c.on_event(COORDINATOR, submit(qid));
                c.on_event(IX, providers(qid, vec![P1]));
            }
            // One reply frame from P1 settles both rounds; a stale entry
            // rides along and is dropped without effect.
            let entries = vec![
                (q1, vec![vec![xsol(1)]]),
                (q2, vec![vec![xsol(2)]]),
                (QueryId(999), vec![vec![xsol(9)]]),
            ];
            let done = finishes(&c.on_event(P1, LiveMsg::Answer { entries }));
            assert_eq!(done.len(), 2);
            assert_eq!(done[0].0, q1);
            assert_eq!(done[0].1.solutions, vec![xsol(1)]);
            assert_eq!(done[1].0, q2);
            assert_eq!(done[1].1.solutions, vec![xsol(2)]);
            assert_eq!(c.counters.get(Counter::StaleReplies), 1);
            assert!(c.flights.is_empty());
        }

        #[test]
        fn failed_batch_send_times_out_every_carried_round() {
            let mut c = core();
            let (q1, q2) = (QueryId(41), QueryId(42));
            for qid in [q1, q2] {
                c.on_event(COORDINATOR, submit(qid));
                c.on_event(IX, providers(qid, vec![P1]));
            }
            // First failure retries both rounds; the second gives up on
            // both, each finishing as a partial answer naming P1.
            let retry = c.on_exec_failed(P1, &[q1, q2]);
            assert!(finishes(&retry).is_empty());
            assert_eq!(exec_targets(&retry), vec![P1, P1]);
            let done = finishes(&c.on_exec_failed(P1, &[q1, q2]));
            assert_eq!(done.len(), 2);
            for (_, answer) in &done {
                assert!(!answer.complete);
                assert_eq!(answer.failed_providers, vec![P1]);
            }
            assert_eq!(c.counters.get(Counter::SendFailures), 2, "one failure per frame");
            assert!(c.flights.is_empty());
        }

        #[test]
        fn distinct_buffer_gather_matches_naive_contains_dedup() {
            // Twin run: the same duplicated reply stream through the
            // state machine (DistinctBuffer gather) and through a
            // Vec-plus-contains accumulator must agree exactly —
            // first-seen order included.
            let streams: Vec<(NodeId, Vec<u64>)> =
                vec![(P1, vec![1, 2, 2, 3]), (P2, vec![2, 3, 4, 1]), (P3, vec![4, 4, 5, 1])];
            let mut naive: Vec<Solution> = Vec::new();
            for (_, vals) in &streams {
                for v in vals {
                    let s = xsol(*v);
                    if !naive.contains(&s) {
                        naive.push(s);
                    }
                }
            }
            let mut c = core();
            let qid = QueryId(71);
            c.on_event(COORDINATOR, submit(qid));
            c.on_event(IX, providers(qid, vec![P1, P2, P3]));
            let mut done = Vec::new();
            for (from, vals) in streams {
                let sols = vals.into_iter().map(xsol).collect();
                done.extend(finishes(&c.on_event(from, answer(qid, sols))));
            }
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].1.solutions, naive);
        }

        // ---- multiway rounds (HyperCube / partial evaluation) --------

        fn pattern2() -> TriplePattern {
            TriplePattern::new(
                TermPattern::var("x"),
                Term::iri("http://example.org/q"),
                TermPattern::var("z"),
            )
        }

        fn submit_multi(qid: QueryId, strategy: DistStrategy) -> LiveMsg {
            let round = Round::multiway(
                qid,
                vec![pattern(), pattern2()],
                vec![Variable::new("x")],
                strategy,
            );
            LiveMsg::Submit { rounds: vec![round] }
        }

        fn slot(qid: QueryId, slot: u32, providers: Vec<NodeId>) -> LiveMsg {
            LiveMsg::Providers { qid, slot, providers }
        }

        fn xy(x: u64, y: u64) -> Solution {
            Solution::from_pairs([
                (Variable::new("x"), Term::iri(&format!("http://example.org/s{x}"))),
                (Variable::new("y"), Term::iri(&format!("http://example.org/o{y}"))),
            ])
        }

        fn xz(x: u64, z: u64) -> Solution {
            Solution::from_pairs([
                (Variable::new("x"), Term::iri(&format!("http://example.org/s{x}"))),
                (Variable::new("z"), Term::iri(&format!("http://example.org/u{z}"))),
            ])
        }

        /// `(target, generation, peers)` of every HyperCube exec.
        fn shuffles(actions: &[Action]) -> Vec<(NodeId, u32, Vec<NodeId>)> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Exec {
                        to,
                        round:
                            Round {
                                strategy: RoundStrategy::HyperCube { generation, peers, .. }, ..
                            },
                    } => Some((*to, *generation, peers.clone())),
                    _ => None,
                })
                .collect()
        }

        #[test]
        fn hypercube_round_resolves_every_slot_then_shuffles_and_gathers() {
            let mut c = core();
            let qid = QueryId(51);
            let acts = c.on_event(COORDINATOR, submit_multi(qid, DistStrategy::HyperCube));
            let lookups: Vec<u32> = acts
                .iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::Lookup { slot, .. } } if *to == IX => {
                        Some(*slot)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(lookups, vec![0, 1], "one lookup per pattern slot");
            // Slot 1 resolves first; nothing fans out until slot 0 does.
            assert!(c.on_event(IX, slot(qid, 1, vec![P2, P3])).is_empty());
            let fan = c.on_event(IX, slot(qid, 0, vec![P1, P2]));
            // The exec goes to the provider union, every copy naming the
            // full sorted union as the partition targets.
            let all = vec![P1, P2, P3];
            assert_eq!(
                shuffles(&fan),
                all.iter().map(|p| (*p, 0, all.clone())).collect::<Vec<_>>()
            );
            // Targets answer with locally-joined fragments; duplicates
            // across fragments collapse, and the round retires its peers.
            assert!(finishes(&c.on_event(P1, answer(qid, vec![xsol(1)]))).is_empty());
            assert!(finishes(&c.on_event(P2, answer(qid, vec![xsol(1), xsol(2)]))).is_empty());
            let last = c.on_event(P3, answer(qid, vec![xsol(3)]));
            let done = finishes(&last);
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1), xsol(2), xsol(3)]);
            let retire = last
                .iter()
                .filter(|a| matches!(a, Action::Send { msg: LiveMsg::Done { .. }, .. }))
                .count();
            assert_eq!(retire, 3, "Done broadcast to every peer");
            assert!(c.flights.is_empty(), "no state leaks after completion");
        }

        #[test]
        fn partial_eval_assembles_cross_site_rows_and_counts_stitches() {
            let mut c = core();
            let qid = QueryId(52);
            c.on_event(COORDINATOR, submit_multi(qid, DistStrategy::PartialEval));
            c.on_event(IX, slot(qid, 0, vec![P1]));
            let fan = c.on_event(IX, slot(qid, 1, vec![P2]));
            assert_eq!(exec_targets(&fan), vec![P1, P2]);
            // A reply with the wrong number of slot sets is stale.
            c.on_event(P1, answer(qid, vec![xy(1, 1)]));
            assert_eq!(c.counters.get(Counter::StaleReplies), 1);
            // P1 holds only pattern-0 rows and P2 only pattern-1 rows:
            // no provider joins anything locally, so the one assembled
            // row is a stitched cross-site match.
            let p1 = vec![vec![xy(1, 1), xy(2, 1)], Vec::new()];
            c.on_event(P1, LiveMsg::Answer { entries: vec![(qid, p1)] });
            let p2 = vec![Vec::new(), vec![xz(1, 5)]];
            let done = finishes(&c.on_event(P2, LiveMsg::Answer { entries: vec![(qid, p2)] }));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            let expect = join(&[xy(1, 1)], &[xz(1, 5)]);
            assert_eq!(done[0].1.solutions, expect, "only the compatible pair assembles");
            assert_eq!(c.counters.get(Counter::StitchedRows), 1);
        }

        #[test]
        fn multiway_dead_provider_retries_then_purges_every_slot_it_served() {
            let mut c = core();
            let qid = QueryId(53);
            c.on_event(COORDINATOR, submit_multi(qid, DistStrategy::HyperCube));
            c.on_event(IX, slot(qid, 0, vec![P1, P2]));
            c.on_event(IX, slot(qid, 1, vec![P2]));
            c.on_event(P1, answer(qid, vec![xsol(1)]));
            // P2 misses its deadline: first a full exec retransmission...
            let retry = c.on_event(COORDINATOR, deadline(qid, ack(P2, 0)));
            assert_eq!(shuffles(&retry), vec![(P2, 0, vec![P1, P2])]);
            // ...then it is declared dead, purged from *both* pattern
            // rows, and the shuffle restarts over the survivors under a
            // bumped generation (generation-0 targets were stalled
            // waiting for P2's partitions, so their fragments cannot be
            // trusted to ever arrive).
            let give_up = c.on_event(COORDINATOR, deadline(qid, ack(P2, 1)));
            let dead: usize = give_up
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Send { to, msg: LiveMsg::ProviderDead { provider, .. } }
                            if *to == IX && *provider == P2
                    )
                })
                .count();
            assert_eq!(dead, 2, "one purge per pattern row naming P2");
            assert!(finishes(&give_up).is_empty(), "the restarted round is still in flight");
            assert_eq!(
                shuffles(&give_up),
                vec![(P1, 1, vec![P1])],
                "generation 1 re-executes over the surviving peer only"
            );
            // The survivor's generation-1 fragment finishes the round
            // partial: P2's data is lost, everything else survives.
            let done = finishes(&c.on_event(P1, answer(qid, vec![xsol(1)])));
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(done[0].1.failed_providers, vec![P2]);
            assert_eq!(done[0].1.solutions, vec![xsol(1)]);
        }

        #[test]
        fn multiway_empty_provider_slot_finishes_complete_and_empty() {
            let mut c = core();
            let qid = QueryId(54);
            c.on_event(COORDINATOR, submit_multi(qid, DistStrategy::HyperCube));
            // One pattern matches nothing anywhere: the conjunction is
            // empty, so the round finishes before contacting providers.
            let done = finishes(&c.on_event(IX, slot(qid, 0, Vec::new())));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert!(done[0].1.solutions.is_empty());
            assert!(c.flights.is_empty());
        }

        #[test]
        fn multiway_lookup_timeout_retries_per_slot_then_fails() {
            let mut c = core();
            let qid = QueryId(55);
            c.on_event(COORDINATOR, submit_multi(qid, DistStrategy::PartialEval));
            c.on_event(IX, slot(qid, 0, vec![P1]));
            // A stale deadline for the already-resolved slot is inert.
            let lookup = |slot, attempt| deadline(qid, DeadlineStage::Lookup { slot, attempt });
            assert!(c.on_event(COORDINATOR, lookup(0, 0)).is_empty());
            // Slot 1's lookup never answers: retry, then give up.
            let retry = c.on_event(COORDINATOR, lookup(1, 0));
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::Lookup { slot: 1, .. }, .. })));
            let done = finishes(&c.on_event(COORDINATOR, lookup(1, 1)));
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(c.counters.get(Counter::LookupFailures), 1);
            assert!(c.flights.is_empty());
        }

        /// One abstract protocol event for the interleaving property.
        #[derive(Debug, Clone)]
        enum Ev {
            Providers { stale: bool, providers: Vec<NodeId> },
            Answer { stale_qid: bool, from: NodeId, vals: Vec<u64> },
            AckDeadline { provider: NodeId, attempt: u8 },
            LookupDeadline { attempt: u8 },
            Overall,
        }

        fn arb_provider() -> impl Strategy<Value = NodeId> {
            prop_oneof![Just(P1), Just(P2), Just(P3), Just(NodeId(99))]
        }

        fn arb_event() -> impl Strategy<Value = Ev> {
            prop_oneof![
                (any::<bool>(), proptest::collection::vec(arb_provider(), 0..4))
                    .prop_map(|(stale, providers)| Ev::Providers { stale, providers }),
                (any::<bool>(), arb_provider(), proptest::collection::vec(0u64..6, 0..3))
                    .prop_map(|(stale_qid, from, vals)| Ev::Answer { stale_qid, from, vals }),
                (arb_provider(), 0u8..3)
                    .prop_map(|(provider, attempt)| Ev::AckDeadline { provider, attempt }),
                (0u8..3).prop_map(|attempt| Ev::LookupDeadline { attempt }),
                Just(Ev::Overall),
            ]
        }

        proptest! {
            /// Arbitrary interleavings of in-order, late, duplicate, and
            /// dropped replies: the machine never panics, never finishes
            /// a query twice, always terminates once the overall deadline
            /// fires, and only reports `complete` when no provider
            /// failed.
            #[test]
            fn interleavings_terminate_exactly_once(
                events in proptest::collection::vec(arb_event(), 0..40)
            ) {
                let mut c = core();
                let qid = QueryId(1);
                let stale = QueryId(999);
                let mut done: Vec<LiveAnswer> = Vec::new();
                let record = |actions: Vec<Action>, done: &mut Vec<LiveAnswer>| {
                    for (q, answer) in finishes(&actions) {
                        prop_assert_eq!(q, qid, "only the submitted query can finish");
                        done.push(answer);
                    }
                    Ok(())
                };
                record(c.on_event(COORDINATOR, submit(qid)), &mut done)?;
                for ev in &events {
                    let actions = match ev.clone() {
                        Ev::Providers { stale: s, providers: list } => {
                            c.on_event(IX, providers(if s { stale } else { qid }, list))
                        }
                        Ev::Answer { stale_qid, from, vals } => c.on_event(
                            from,
                            answer(if stale_qid { stale } else { qid }, vals.into_iter().map(xsol).collect()),
                        ),
                        Ev::AckDeadline { provider, attempt } => {
                            c.on_event(COORDINATOR, deadline(qid, ack(provider, attempt)))
                        }
                        Ev::LookupDeadline { attempt } => c.on_event(
                            COORDINATOR,
                            deadline(qid, DeadlineStage::Lookup { slot: 0, attempt }),
                        ),
                        Ev::Overall => c.on_event(COORDINATOR, deadline(qid, DeadlineStage::Overall)),
                    };
                    record(actions, &mut done)?;
                }
                // The overall deadline always fires eventually.
                record(c.on_event(COORDINATOR, deadline(qid, DeadlineStage::Overall)), &mut done)?;
                prop_assert_eq!(done.len(), 1, "exactly one completion, never two");
                let answer = &done[0];
                if answer.complete {
                    prop_assert!(answer.failed_providers.is_empty());
                }
                // Dedup invariant: no solution reported twice.
                let mut seen = std::collections::HashSet::new();
                for s in &answer.solutions {
                    prop_assert!(seen.insert(s.clone()), "duplicate solution in answer");
                }
                prop_assert!(c.flights.is_empty(), "no state leaks after completion");
            }
        }

        // ---- N simultaneous queries through one machine --------------

        /// Number of concurrently-submitted rounds in the multi-query
        /// interleaving property.
        const NQ: usize = 3;

        fn qid_of(q: usize) -> QueryId {
            QueryId(q as u64 + 1)
        }

        /// Query `q`'s private solution universe — value ranges are
        /// disjoint across queries, so any cross-query buffer leak
        /// surfaces as a foreign solution in an answer.
        fn usol(q: usize, v: u64) -> Solution {
            xsol(1000 * (q as u64 + 1) + v)
        }

        /// One abstract event aimed at one of the [`NQ`] queries.
        #[derive(Debug, Clone)]
        enum MEv {
            Providers { q: usize, stale: bool, providers: Vec<NodeId> },
            Answer { q: usize, stale_qid: bool, from: NodeId, vals: Vec<u64> },
            Batch { from: NodeId, entries: Vec<(usize, u64)> },
            AckDeadline { q: usize, provider: NodeId, attempt: u8 },
            LookupDeadline { q: usize, attempt: u8 },
            Overall { q: usize },
        }

        fn arb_mev() -> impl Strategy<Value = MEv> {
            prop_oneof![
                (0..NQ, any::<bool>(), proptest::collection::vec(arb_provider(), 0..4))
                    .prop_map(|(q, stale, providers)| MEv::Providers { q, stale, providers }),
                (0..NQ, any::<bool>(), arb_provider(), proptest::collection::vec(0u64..6, 0..3))
                    .prop_map(|(q, stale_qid, from, vals)| MEv::Answer {
                        q,
                        stale_qid,
                        from,
                        vals
                    }),
                (arb_provider(), proptest::collection::vec((0..NQ, 0u64..6), 0..4))
                    .prop_map(|(from, entries)| MEv::Batch { from, entries }),
                (0..NQ, arb_provider(), 0u8..3)
                    .prop_map(|(q, provider, attempt)| MEv::AckDeadline { q, provider, attempt }),
                (0..NQ, 0u8..3).prop_map(|(q, attempt)| MEv::LookupDeadline { q, attempt }),
                (0..NQ).prop_map(|q| MEv::Overall { q }),
            ]
        }

        proptest! {
            /// [`NQ`] queries submitted in one batched frame, then an
            /// arbitrary interleaving of per-query providers, single and
            /// multi-entry answers, stale frames, and deadlines: every
            /// query finishes exactly once, within its own deadline, with
            /// only solutions from its own universe — and the machine
            /// retires all per-query state.
            #[test]
            fn concurrent_queries_finish_once_without_contamination(
                events in proptest::collection::vec(arb_mev(), 0..60)
            ) {
                let mut c = core();
                let stale = QueryId(999);
                let mut done: Vec<Vec<LiveAnswer>> = vec![Vec::new(); NQ];
                let record = |actions: Vec<Action>, done: &mut Vec<Vec<LiveAnswer>>| {
                    for (q, answer) in finishes(&actions) {
                        let idx = (q.0 - 1) as usize;
                        prop_assert!(idx < NQ, "only submitted queries can finish");
                        done[idx].push(answer);
                    }
                    Ok(())
                };
                let rounds = (0..NQ).map(|q| Round::chained(qid_of(q), pattern(), None, None)).collect();
                record(c.on_event(COORDINATOR, LiveMsg::Submit { rounds }), &mut done)?;
                for ev in &events {
                    let actions = match ev.clone() {
                        MEv::Providers { q, stale: s, providers: list } => {
                            c.on_event(IX, providers(if s { stale } else { qid_of(q) }, list))
                        }
                        MEv::Answer { q, stale_qid, from, vals } => c.on_event(
                            from,
                            answer(
                                if stale_qid { stale } else { qid_of(q) },
                                vals.into_iter().map(|v| usol(q, v)).collect(),
                            ),
                        ),
                        MEv::Batch { from, entries } => c.on_event(
                            from,
                            LiveMsg::Answer {
                                entries: entries
                                    .into_iter()
                                    .map(|(q, v)| (qid_of(q), vec![vec![usol(q, v)]]))
                                    .collect(),
                            },
                        ),
                        MEv::AckDeadline { q, provider, attempt } => {
                            c.on_event(COORDINATOR, deadline(qid_of(q), ack(provider, attempt)))
                        }
                        MEv::LookupDeadline { q, attempt } => c.on_event(
                            COORDINATOR,
                            deadline(qid_of(q), DeadlineStage::Lookup { slot: 0, attempt }),
                        ),
                        MEv::Overall { q } => {
                            c.on_event(COORDINATOR, deadline(qid_of(q), DeadlineStage::Overall))
                        }
                    };
                    record(actions, &mut done)?;
                }
                // Every query's overall deadline fires eventually.
                for q in 0..NQ {
                    record(
                        c.on_event(COORDINATOR, deadline(qid_of(q), DeadlineStage::Overall)),
                        &mut done,
                    )?;
                }
                for (q, finished) in done.iter().enumerate() {
                    prop_assert_eq!(finished.len(), 1, "query {} must finish exactly once", q);
                    let answer = &finished[0];
                    if answer.complete {
                        prop_assert!(answer.failed_providers.is_empty());
                    }
                    let universe: Vec<Solution> = (0..6).map(|v| usol(q, v)).collect();
                    let mut seen: Vec<&Solution> = Vec::new();
                    for s in &answer.solutions {
                        prop_assert!(
                            universe.contains(s),
                            "query {} leaked a foreign solution", q
                        );
                        prop_assert!(!seen.contains(&s), "duplicate solution in answer");
                        seen.push(s);
                    }
                }
                prop_assert!(c.flights.is_empty(), "no per-query state leaks");
            }
        }
    }
}

//! The message-matching engine: MPI point-to-point semantics.
//!
//! One engine instance exists per communicator. It implements the MPI
//! matching rules the DAMPI algorithm depends on:
//!
//! * **tag/source matching** with `ANY_SOURCE` / `ANY_TAG` wildcards;
//! * **non-overtaking** (MPI 2.1 §3.5): two messages between the same pair
//!   on the same communicator and tag are matched in send order, and posted
//!   receives are matched in post order;
//! * a configurable **wildcard policy** deciding which source a wildcard
//!   receive takes when several sources have queued messages — this models
//!   the "native bias" of real MPI runtimes that masks Heisenbugs (paper
//!   §I), and is what DAMPI's guided replay overrides.
//!
//! The engine is a pure data structure (no locking, no threads) so the
//! semantics are testable in isolation; [`crate::runtime`] drives it under
//! the world lock.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::envelope::Envelope;
use crate::types::{source_matches, tag_matches, Tag};

/// How the runtime resolves a wildcard receive with several eligible
/// sources. Real MPI implementations have a fixed internal policy; making it
/// explicit (and seedable) lets tests demonstrate that *testing under one
/// policy misses bugs another policy exposes* — DAMPI's motivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchPolicy {
    /// Earliest-arrived message wins (typical eager-protocol behavior).
    #[default]
    ArrivalOrder,
    /// Lowest source rank wins (typical of some rendezvous queues).
    LowestRank,
    /// Pseudo-random choice derived from the given seed and a per-engine
    /// match counter; deterministic for a fixed seed.
    Seeded(u64),
}

/// A receive posted to the engine and not yet matched.
#[derive(Debug, Clone)]
pub struct PostedRecv {
    /// Runtime request id to complete when a message matches.
    pub req: u64,
    /// Source specifier (`ANY_SOURCE` or a comm rank).
    pub src_spec: i32,
    /// Tag specifier (`ANY_TAG` or a tag).
    pub tag_spec: Tag,
    /// Post order (per destination), for earliest-posted-first matching.
    pub post_seq: u64,
}

/// Outcome of delivering an incoming message.
#[derive(Debug)]
pub enum Delivery {
    /// The message matched a posted receive; complete this request.
    Matched {
        /// Request id of the matched posted receive.
        req: u64,
        /// The message itself.
        envelope: Envelope,
    },
    /// No posted receive matched; the message was queued as unexpected.
    Queued,
}

/// Metadata returned by a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeInfo {
    /// Source comm rank of the probed message.
    pub src: usize,
    /// Tag of the probed message.
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
}

/// Per-communicator matching state.
#[derive(Debug)]
pub struct MatchEngine {
    size: usize,
    /// Unexpected-message queue per destination, in arrival order.
    unexpected: Vec<VecDeque<Envelope>>,
    /// Posted-receive queue per destination, in post order.
    posted: Vec<VecDeque<PostedRecv>>,
    arrival_seq: Vec<u64>,
    post_seq: Vec<u64>,
    /// Monotone counter consumed by the seeded policy.
    match_counter: u64,
    /// The seeded policy's candidates: the earliest matching queue index
    /// of each source, in source order. Sized by the first seeded pick and
    /// reused by every later one.
    per_src: Vec<usize>,
}

impl MatchEngine {
    /// New engine for a communicator of `size` ranks.
    #[must_use]
    pub fn new(size: usize) -> Self {
        Self {
            size,
            unexpected: (0..size).map(|_| VecDeque::new()).collect(),
            posted: (0..size).map(|_| VecDeque::new()).collect(),
            arrival_seq: vec![0; size],
            post_seq: vec![0; size],
            match_counter: 0,
            per_src: Vec::new(),
        }
    }

    /// Communicator size this engine serves.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Deliver an incoming message: match it against the earliest
    /// compatible posted receive at the destination, else queue it.
    pub fn deliver(&mut self, mut env: Envelope) -> Delivery {
        let dst = env.dst;
        env.arrival_seq = self.arrival_seq[dst];
        self.arrival_seq[dst] += 1;
        let q = &mut self.posted[dst];
        if let Some(pos) = q
            .iter()
            .position(|p| source_matches(p.src_spec, env.src) && tag_matches(p.tag_spec, env.tag))
        {
            let p = q.remove(pos).expect("position just found");
            self.match_counter += 1;
            Delivery::Matched {
                req: p.req,
                envelope: env,
            }
        } else {
            self.unexpected[dst].push_back(env);
            Delivery::Queued
        }
    }

    /// Post a receive: match it against queued unexpected messages, else
    /// enqueue it. Returns the matched message if any.
    ///
    /// For a named source the earliest queued message from that source with
    /// a matching tag is taken (non-overtaking). For `ANY_SOURCE` the
    /// *earliest per source* candidates are gathered and the wildcard
    /// `policy` chooses among sources.
    pub fn post(
        &mut self,
        dst: usize,
        req: u64,
        src_spec: i32,
        tag_spec: Tag,
        policy: MatchPolicy,
    ) -> Option<Envelope> {
        match self.select_unexpected(dst, src_spec, tag_spec, policy) {
            Some(idx) => {
                let env = self.unexpected[dst].remove(idx).expect("index just found");
                self.match_counter += 1;
                Some(env)
            }
            None => {
                let seq = self.post_seq[dst];
                self.post_seq[dst] += 1;
                self.posted[dst].push_back(PostedRecv {
                    req,
                    src_spec,
                    tag_spec,
                    post_seq: seq,
                });
                None
            }
        }
    }

    /// Probe without removing: report the message a matching receive
    /// *would* take right now, if any.
    pub fn probe(
        &mut self,
        dst: usize,
        src_spec: i32,
        tag_spec: Tag,
        policy: MatchPolicy,
    ) -> Option<ProbeInfo> {
        let idx = self.select_unexpected(dst, src_spec, tag_spec, policy)?;
        let env = &self.unexpected[dst][idx];
        Some(ProbeInfo {
            src: env.src,
            tag: env.tag,
            len: env.payload.len(),
        })
    }

    /// Cancel a posted (unmatched) receive request. Returns true if found.
    pub fn cancel_posted(&mut self, dst: usize, req: u64) -> bool {
        let q = &mut self.posted[dst];
        if let Some(pos) = q.iter().position(|p| p.req == req) {
            q.remove(pos);
            true
        } else {
            false
        }
    }

    /// Index into `unexpected[dst]` of the message a receive with the given
    /// specs would match, honoring non-overtaking and the wildcard policy.
    ///
    /// A wildcard chooses among the earliest matching message of each
    /// source. `ArrivalOrder` wants the earliest of those, which is the
    /// first matching message in the (arrival-ordered) queue; `LowestRank`
    /// the first message of the lowest matching source. Both are one pass.
    /// `Seeded` draws an index into the candidates in source order, which
    /// it gathers in the engine's `per_src` buffer.
    fn select_unexpected(
        &mut self,
        dst: usize,
        src_spec: i32,
        tag_spec: Tag,
        policy: MatchPolicy,
    ) -> Option<usize> {
        let q = &self.unexpected[dst];
        let matching =
            |e: &Envelope| source_matches(src_spec, e.src) && tag_matches(tag_spec, e.tag);
        if src_spec != crate::types::ANY_SOURCE {
            // Earliest message from the named source with a matching tag:
            // queue is arrival-ordered and per-source arrival order is send
            // order, so first hit is the non-overtaking-correct one.
            return q.iter().position(matching);
        }
        match policy {
            MatchPolicy::ArrivalOrder => q.iter().position(matching),
            MatchPolicy::LowestRank => {
                let mut pick: Option<(usize, usize)> = None;
                for (i, e) in q.iter().enumerate() {
                    if matching(e) && pick.is_none_or(|(src, _)| e.src < src) {
                        pick = Some((e.src, i));
                    }
                }
                pick.map(|(_, i)| i)
            }
            MatchPolicy::Seeded(seed) => {
                let per_src = &mut self.per_src;
                per_src.clear();
                per_src.resize(self.size, usize::MAX);
                for (i, e) in q.iter().enumerate() {
                    if matching(e) && per_src[e.src] == usize::MAX {
                        per_src[e.src] = i;
                    }
                }
                per_src.retain(|&i| i != usize::MAX);
                if per_src.is_empty() {
                    return None;
                }
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ self.match_counter.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                Some(per_src[rng.gen_range(0..per_src.len())])
            }
        }
    }

    /// Number of unexpected (unreceived) messages queued for `dst`.
    #[must_use]
    pub fn unexpected_count(&self, dst: usize) -> usize {
        self.unexpected[dst].len()
    }

    /// Number of posted-but-unmatched receives at `dst`.
    #[must_use]
    pub fn posted_count(&self, dst: usize) -> usize {
        self.posted[dst].len()
    }

    /// Total unreceived messages across the communicator (finalize-time
    /// diagnostics: messages sent but never received).
    #[must_use]
    pub fn total_unexpected(&self) -> usize {
        self.unexpected.iter().map(VecDeque::len).sum()
    }

    /// Debug invariant: no compatible (posted, unexpected) pair coexists.
    /// MPI matching maintains this by construction; tests assert it.
    #[must_use]
    pub fn matching_invariant_holds(&self) -> bool {
        for dst in 0..self.size {
            for p in &self.posted[dst] {
                for e in &self.unexpected[dst] {
                    if source_matches(p.src_spec, e.src) && tag_matches(p.tag_spec, e.tag) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ANY_SOURCE, ANY_TAG};
    use bytes::Bytes;
    use proptest::prelude::*;

    fn env(src: usize, dst: usize, tag: Tag) -> Envelope {
        Envelope {
            src,
            dst,
            tag,
            payload: Bytes::from(vec![src as u8, tag as u8]),
            arrival_seq: 0,
            send_vt: 0.0,
            send_req: None,
        }
    }

    #[test]
    fn deliver_queues_without_posted() {
        let mut m = MatchEngine::new(2);
        assert!(matches!(m.deliver(env(0, 1, 5)), Delivery::Queued));
        assert_eq!(m.unexpected_count(1), 1);
    }

    #[test]
    fn post_matches_queued_message() {
        let mut m = MatchEngine::new(2);
        m.deliver(env(0, 1, 5));
        let got = m.post(1, 1, 0, 5, MatchPolicy::ArrivalOrder);
        assert_eq!(got.unwrap().src, 0);
        assert_eq!(m.unexpected_count(1), 0);
    }

    #[test]
    fn deliver_matches_posted_receive() {
        let mut m = MatchEngine::new(2);
        assert!(m.post(1, 7, 0, 5, MatchPolicy::ArrivalOrder).is_none());
        match m.deliver(env(0, 1, 5)) {
            Delivery::Matched { req, envelope } => {
                assert_eq!(req, 7);
                assert_eq!(envelope.src, 0);
            }
            Delivery::Queued => panic!("should have matched"),
        }
    }

    #[test]
    fn tag_mismatch_does_not_match() {
        let mut m = MatchEngine::new(2);
        m.post(1, 7, 0, 5, MatchPolicy::ArrivalOrder);
        assert!(matches!(m.deliver(env(0, 1, 6)), Delivery::Queued));
        assert!(m.matching_invariant_holds());
    }

    #[test]
    fn non_overtaking_same_pair_same_tag() {
        let mut m = MatchEngine::new(2);
        let mut e1 = env(0, 1, 5);
        e1.payload = Bytes::from_static(b"first");
        let mut e2 = env(0, 1, 5);
        e2.payload = Bytes::from_static(b"second");
        m.deliver(e1);
        m.deliver(e2);
        let got1 = m.post(1, 1, 0, 5, MatchPolicy::ArrivalOrder).unwrap();
        let got2 = m.post(1, 2, 0, 5, MatchPolicy::ArrivalOrder).unwrap();
        assert_eq!(&got1.payload[..], b"first");
        assert_eq!(&got2.payload[..], b"second");
    }

    #[test]
    fn non_overtaking_applies_to_wildcards_per_source() {
        let mut m = MatchEngine::new(3);
        let mut a1 = env(1, 0, 5);
        a1.payload = Bytes::from_static(b"a1");
        let mut a2 = env(1, 0, 5);
        a2.payload = Bytes::from_static(b"a2");
        m.deliver(a1);
        m.deliver(a2);
        // Wildcard receive must take a1 (earliest from source 1), never a2.
        let got = m
            .post(0, 1, crate::types::ANY_SOURCE, 5, MatchPolicy::LowestRank)
            .unwrap();
        assert_eq!(&got.payload[..], b"a1");
    }

    #[test]
    fn wildcard_policy_lowest_rank() {
        let mut m = MatchEngine::new(3);
        m.deliver(env(2, 0, 5)); // arrives first
        m.deliver(env(1, 0, 5));
        let got = m
            .post(0, 1, crate::types::ANY_SOURCE, 5, MatchPolicy::LowestRank)
            .unwrap();
        assert_eq!(got.src, 1);
    }

    #[test]
    fn wildcard_policy_arrival_order() {
        let mut m = MatchEngine::new(3);
        m.deliver(env(2, 0, 5)); // arrives first
        m.deliver(env(1, 0, 5));
        let got = m
            .post(0, 1, crate::types::ANY_SOURCE, 5, MatchPolicy::ArrivalOrder)
            .unwrap();
        assert_eq!(got.src, 2);
    }

    #[test]
    fn wildcard_policy_seeded_is_deterministic() {
        let run = |seed| {
            let mut m = MatchEngine::new(4);
            m.deliver(env(1, 0, 5));
            m.deliver(env(2, 0, 5));
            m.deliver(env(3, 0, 5));
            m.post(0, 1, crate::types::ANY_SOURCE, 5, MatchPolicy::Seeded(seed))
                .unwrap()
                .src
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn incoming_matches_earliest_posted() {
        let mut m = MatchEngine::new(2);
        m.post(
            1,
            10,
            crate::types::ANY_SOURCE,
            crate::types::ANY_TAG,
            MatchPolicy::ArrivalOrder,
        );
        m.post(1, 11, 0, 5, MatchPolicy::ArrivalOrder);
        match m.deliver(env(0, 1, 5)) {
            Delivery::Matched { req, .. } => assert_eq!(req, 10),
            Delivery::Queued => panic!("should match"),
        }
        // Second message goes to the later posted receive.
        match m.deliver(env(0, 1, 5)) {
            Delivery::Matched { req, .. } => assert_eq!(req, 11),
            Delivery::Queued => panic!("should match"),
        }
    }

    #[test]
    fn probe_reports_without_removing() {
        let mut m = MatchEngine::new(2);
        m.deliver(env(0, 1, 9));
        let info = m
            .probe(
                1,
                crate::types::ANY_SOURCE,
                crate::types::ANY_TAG,
                MatchPolicy::ArrivalOrder,
            )
            .unwrap();
        assert_eq!(info.src, 0);
        assert_eq!(info.tag, 9);
        assert_eq!(info.len, 2);
        assert_eq!(m.unexpected_count(1), 1);
    }

    #[test]
    fn probe_misses_on_empty() {
        let mut m = MatchEngine::new(2);
        assert!(m.probe(1, 0, 0, MatchPolicy::ArrivalOrder).is_none());
    }

    #[test]
    fn cancel_posted_removes() {
        let mut m = MatchEngine::new(2);
        m.post(1, 7, 0, 5, MatchPolicy::ArrivalOrder);
        assert_eq!(m.posted_count(1), 1);
        assert!(m.cancel_posted(1, 7));
        assert_eq!(m.posted_count(1), 0);
        assert!(!m.cancel_posted(1, 7));
    }

    #[test]
    fn any_tag_named_source() {
        let mut m = MatchEngine::new(3);
        m.deliver(env(2, 0, 3));
        m.deliver(env(1, 0, 4));
        let got = m
            .post(0, 1, 1, crate::types::ANY_TAG, MatchPolicy::ArrivalOrder)
            .unwrap();
        assert_eq!(got.src, 1);
        assert_eq!(got.tag, 4);
    }

    /// The pick as first written, kept as the reference: gather the
    /// earliest matching message of each source, then let the policy
    /// choose among those candidates (listed in source order).
    fn per_source_candidate_pick(
        q: &VecDeque<Envelope>,
        size: usize,
        src_spec: i32,
        tag_spec: Tag,
        policy: MatchPolicy,
        match_counter: u64,
    ) -> Option<usize> {
        if src_spec != ANY_SOURCE {
            return q
                .iter()
                .position(|e| source_matches(src_spec, e.src) && tag_matches(tag_spec, e.tag));
        }
        let mut per_src: Vec<Option<usize>> = vec![None; size];
        for (i, e) in q.iter().enumerate() {
            if tag_matches(tag_spec, e.tag) && per_src[e.src].is_none() {
                per_src[e.src] = Some(i);
            }
        }
        let candidates: Vec<usize> = per_src.into_iter().flatten().collect();
        if candidates.is_empty() {
            return None;
        }
        Some(match policy {
            MatchPolicy::ArrivalOrder => *candidates
                .iter()
                .min_by_key(|&&i| q[i].arrival_seq)
                .expect("nonempty"),
            MatchPolicy::LowestRank => *candidates
                .iter()
                .min_by_key(|&&i| q[i].src)
                .expect("nonempty"),
            MatchPolicy::Seeded(seed) => {
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ match_counter.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                candidates[rng.gen_range(0..candidates.len())]
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On random queues, source and tag specs and all three policies,
        /// every probe and every receive takes the message the
        /// per-source-candidate rule picks.
        #[test]
        fn a_pick_is_the_per_source_candidate_rule(
            size in 1usize..6,
            ops in prop::collection::vec((0usize..3, 0usize..7, 0i32..4, 0usize..3), 1..60),
            seed in 0u64..1_000_000,
        ) {
            let mut m = MatchEngine::new(size);
            let mut next_id = 0u8;
            for (kind, src, tag, policy) in ops {
                if kind < 2 {
                    let mut e = env(src % size, 0, tag % 3);
                    e.payload = Bytes::from(vec![next_id]);
                    next_id = next_id.wrapping_add(1);
                    m.deliver(e);
                    continue;
                }
                let src_spec = if src >= size { ANY_SOURCE } else { src as i32 };
                let tag_spec = if tag == 3 { ANY_TAG } else { tag };
                let policy = [
                    MatchPolicy::ArrivalOrder,
                    MatchPolicy::LowestRank,
                    MatchPolicy::Seeded(seed),
                ][policy];
                let want = per_source_candidate_pick(
                    &m.unexpected[0], size, src_spec, tag_spec, policy, m.match_counter,
                );
                let wanted = want.map(|i| m.unexpected[0][i].payload.clone());
                let probed = m.probe(0, src_spec, tag_spec, policy);
                prop_assert_eq!(probed.map(|p| p.src), want.map(|i| m.unexpected[0][i].src));
                let got = m.post(0, 0, src_spec, tag_spec, policy).map(|e| e.payload);
                prop_assert_eq!(got, wanted);
                // Keep the queue of unexpected messages the subject: a
                // receive that found none leaves the next delivery alone.
                m.cancel_posted(0, 0);
            }
        }
    }

    #[test]
    fn arrival_seq_is_monotone_per_dst() {
        let mut m = MatchEngine::new(2);
        m.deliver(env(0, 1, 1));
        m.deliver(env(0, 1, 2));
        let a = m.post(1, 1, 0, 1, MatchPolicy::ArrivalOrder).unwrap();
        let b = m.post(1, 2, 0, 2, MatchPolicy::ArrivalOrder).unwrap();
        assert!(a.arrival_seq < b.arrival_seq);
    }
}

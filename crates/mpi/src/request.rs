//! Nonblocking-communication request table.

use crate::comm::Comm;
use crate::envelope::Envelope;
use crate::error::{MpiError, Result};
use crate::types::Tag;

/// A request handle (the analog of `MPI_Request`): `generation << 32 |
/// slot` of the [`RequestTable`] slot that holds it. Consuming a request
/// bumps its slot's generation, so a handle is not reissued before its slot
/// has been consumed 2^32 times (and a stale one reads
/// [`MpiError::InvalidRequest`]); tool layers can key their own metadata on
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request(pub u64);

/// What kind of operation a request tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// An `isend`. Completes at post time in eager mode (the message is
    /// buffered), or only when matched by a receive in rendezvous mode
    /// (payload above the configured eager limit).
    Send,
    /// An `irecv`.
    Recv,
}

/// Completion state of a request.
#[derive(Debug)]
pub enum ReqState {
    /// Still waiting for a match (unmatched receives, rendezvous sends).
    Pending,
    /// Send completed (buffer reusable).
    SendDone,
    /// Receive matched; envelope held until the owner waits.
    RecvDone(Envelope),
}

/// One live request.
#[derive(Debug)]
pub struct RequestEntry {
    /// World rank that created the request (only the owner may wait on it).
    pub owner: usize,
    /// Communicator of the operation.
    pub comm: Comm,
    /// Send or receive.
    pub kind: ReqKind,
    /// Source specifier as posted (receives; `ANY_SOURCE` marks the request
    /// non-deterministic — what DAMPI keys its epochs on).
    pub src_spec: i32,
    /// Tag specifier as posted.
    pub tag_spec: Tag,
    /// Completion state.
    pub state: ReqState,
}

impl RequestEntry {
    /// Whether the request has completed (waitable without blocking).
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.state, ReqState::SendDone | ReqState::RecvDone(_))
    }
}

/// Table of live requests: a slab of slots, each with the generation of its
/// next handle. A request is removed when its owner consumes it via
/// `wait`/successful `test`, and its slot is reused last-freed-first, so the
/// table is as large as the most requests ever live at once; entries
/// remaining at finalize are request leaks (Table II's "R-Leak" column).
#[derive(Debug, Default)]
pub struct RequestTable {
    slots: Vec<(u32, Option<RequestEntry>)>,
    free: Vec<u32>,
    live: usize,
}

impl RequestTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new request; returns its handle.
    pub fn create(&mut self, entry: RequestEntry) -> Request {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live requests")
        });
        let (generation, held) = &mut self.slots[slot as usize];
        debug_assert!(held.is_none(), "a free slot holds a request");
        *held = Some(entry);
        self.live += 1;
        Request(u64::from(*generation) << 32 | u64::from(slot))
    }

    /// The slot of a handle whose generation is current.
    fn slot(&self, req: Request) -> Option<usize> {
        let slot = (req.0 & u64::from(u32::MAX)) as usize;
        let (generation, _) = self.slots.get(slot)?;
        (u64::from(*generation) == req.0 >> 32).then_some(slot)
    }

    /// Look up a live request.
    pub fn get(&self, req: Request) -> Result<&RequestEntry> {
        self.slot(req)
            .and_then(|slot| self.slots[slot].1.as_ref())
            .ok_or(MpiError::InvalidRequest)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, req: Request) -> Result<&mut RequestEntry> {
        let slot = self.slot(req).ok_or(MpiError::InvalidRequest)?;
        self.slots[slot].1.as_mut().ok_or(MpiError::InvalidRequest)
    }

    /// True if the request is live (not yet consumed).
    #[must_use]
    pub fn is_live(&self, req: Request) -> bool {
        self.get(req).is_ok()
    }

    /// Consume a completed request, removing it from the table. Its slot's
    /// generation moves on, so `req` (and any copy of it) is stale from
    /// here on.
    pub fn consume(&mut self, req: Request) -> Result<RequestEntry> {
        let slot = self.slot(req).ok_or(MpiError::InvalidRequest)?;
        let (generation, held) = &mut self.slots[slot];
        let entry = held.take().ok_or(MpiError::InvalidRequest)?;
        debug_assert!(entry.is_done(), "consumed an incomplete request");
        *generation = generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        Ok(entry)
    }

    /// Complete a pending receive with a matched envelope.
    pub fn complete_recv(&mut self, req: Request, env: Envelope) {
        let entry = self
            .get_mut(req)
            .expect("matching engine completed an unknown request");
        debug_assert!(matches!(entry.state, ReqState::Pending));
        entry.state = ReqState::RecvDone(env);
    }

    /// Complete a pending rendezvous send (its message was matched by a
    /// receive). Returns the owning rank, whose wait it may satisfy.
    pub fn complete_send(&mut self, req: Request) -> usize {
        let entry = self
            .get_mut(req)
            .expect("matched a message of an unknown send request");
        debug_assert!(matches!(entry.kind, ReqKind::Send));
        debug_assert!(matches!(entry.state, ReqState::Pending));
        entry.state = ReqState::SendDone;
        entry.owner
    }

    /// Requests still live, grouped by owning rank — the R-leak census.
    #[must_use]
    pub fn live_by_owner(&self, nprocs: usize) -> Vec<usize> {
        let mut counts = vec![0usize; nprocs];
        for e in self.slots.iter().filter_map(|(_, held)| held.as_ref()) {
            counts[e.owner] += 1;
        }
        counts
    }

    /// Number of live requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no requests are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn send_entry() -> RequestEntry {
        RequestEntry {
            owner: 0,
            comm: Comm::WORLD,
            kind: ReqKind::Send,
            src_spec: 1,
            tag_spec: 0,
            state: ReqState::SendDone,
        }
    }

    fn recv_entry(owner: usize) -> RequestEntry {
        RequestEntry {
            owner,
            comm: Comm::WORLD,
            kind: ReqKind::Recv,
            src_spec: crate::types::ANY_SOURCE,
            tag_spec: 0,
            state: ReqState::Pending,
        }
    }

    fn matched() -> Envelope {
        Envelope {
            src: 0,
            dst: 1,
            tag: 0,
            payload: Bytes::from_static(b"x"),
            arrival_seq: 0,
            send_vt: 0.0,
            send_req: None,
        }
    }

    #[test]
    fn create_and_consume() {
        let mut t = RequestTable::new();
        let r = t.create(send_entry());
        assert!(t.is_live(r));
        assert!(t.get(r).unwrap().is_done());
        t.consume(r).unwrap();
        assert!(!t.is_live(r));
        assert!(matches!(t.get(r), Err(MpiError::InvalidRequest)));
    }

    #[test]
    fn double_consume_is_invalid() {
        let mut t = RequestTable::new();
        let r = t.create(send_entry());
        t.consume(r).unwrap();
        assert!(matches!(t.consume(r), Err(MpiError::InvalidRequest)));
    }

    #[test]
    fn complete_recv_transitions_state() {
        let mut t = RequestTable::new();
        let r = t.create(recv_entry(1));
        assert!(!t.get(r).unwrap().is_done());
        t.complete_recv(r, matched());
        assert!(t.get(r).unwrap().is_done());
    }

    #[test]
    fn leak_census_by_owner() {
        let mut t = RequestTable::new();
        t.create(recv_entry(0));
        t.create(recv_entry(2));
        t.create(recv_entry(2));
        assert_eq!(t.live_by_owner(3), vec![1, 0, 2]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn ids_are_unique() {
        let mut t = RequestTable::new();
        let a = t.create(send_entry());
        let b = t.create(send_entry());
        assert_ne!(a, b);
    }

    #[test]
    fn a_consumed_handle_is_stale_once_its_slot_is_reused() {
        let mut t = RequestTable::new();
        let old = t.create(send_entry());
        t.consume(old).unwrap();
        let new = t.create(recv_entry(1));
        assert_eq!(old.0 as u32, new.0 as u32, "the freed slot is reused");
        assert_ne!(old, new);
        assert!(!t.is_live(old));
        assert!(matches!(t.get(old), Err(MpiError::InvalidRequest)));
        assert!(matches!(t.get_mut(old), Err(MpiError::InvalidRequest)));
        assert!(matches!(t.consume(old), Err(MpiError::InvalidRequest)));
        assert_eq!(t.get(new).unwrap().owner, 1, "the stale consume left it");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random create / complete / consume sequences, the table
        /// agrees with a model of the live requests: `len`, the leak census
        /// and every lookup; no handle is issued twice, and a consumed one
        /// stays invalid.
        #[test]
        fn the_table_agrees_with_a_model(
            ops in prop::collection::vec((0usize..3, 0usize..4, 0usize..64), 1..120),
        ) {
            const NP: usize = 4;
            let mut t = RequestTable::new();
            // (handle, owner, done) of every live request.
            let mut live: Vec<(Request, usize, bool)> = Vec::new();
            let mut issued = std::collections::BTreeSet::new();
            let mut consumed = Vec::new();
            for (op, owner, pick) in ops {
                match op {
                    0 => {
                        let (entry, done) = if pick % 2 == 0 {
                            (RequestEntry { owner, ..send_entry() }, true)
                        } else {
                            (recv_entry(owner), false)
                        };
                        let r = t.create(entry);
                        prop_assert!(issued.insert(r), "handle {r:?} issued twice");
                        live.push((r, owner, done));
                    }
                    1 => {
                        let pending: Vec<usize> =
                            (0..live.len()).filter(|&i| !live[i].2).collect();
                        if let Some(&i) = pending.get(pick % pending.len().max(1)) {
                            t.complete_recv(live[i].0, matched());
                            live[i].2 = true;
                        }
                    }
                    _ => {
                        let done: Vec<usize> =
                            (0..live.len()).filter(|&i| live[i].2).collect();
                        if let Some(&i) = done.get(pick % done.len().max(1)) {
                            let (r, owner, _) = live.remove(i);
                            prop_assert_eq!(t.consume(r).unwrap().owner, owner);
                            consumed.push(r);
                        }
                    }
                }
                prop_assert_eq!(t.len(), live.len());
                prop_assert_eq!(t.is_empty(), live.is_empty());
                let mut by_owner = vec![0; NP];
                for &(r, owner, done) in &live {
                    by_owner[owner] += 1;
                    let entry = t.get(r).unwrap();
                    prop_assert_eq!(entry.owner, owner);
                    prop_assert_eq!(entry.is_done(), done);
                }
                prop_assert_eq!(t.live_by_owner(NP), by_owner);
                for &r in &consumed {
                    prop_assert!(matches!(t.get(r), Err(MpiError::InvalidRequest)));
                }
            }
        }
    }
}

//! Nonblocking-communication request table.

use std::collections::HashMap;

use crate::comm::Comm;
use crate::envelope::Envelope;
use crate::error::{MpiError, Result};
use crate::types::Tag;

/// A request handle (the analog of `MPI_Request`). Handles are globally
/// unique for a run, so tool layers can key their own metadata on them.
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

/// Table of live requests. A request is removed when its owner consumes it
/// via `wait`/successful `test`; entries remaining at finalize are request
/// leaks (Table II's "R-Leak" column).
#[derive(Debug, Default)]
pub struct RequestTable {
    entries: HashMap<u64, RequestEntry>,
    next: u64,
}

impl RequestTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new request; returns its handle.
    pub fn create(&mut self, entry: RequestEntry) -> Request {
        let id = self.next;
        self.next += 1;
        self.entries.insert(id, entry);
        Request(id)
    }

    /// Look up a live request.
    pub fn get(&self, req: Request) -> Result<&RequestEntry> {
        self.entries.get(&req.0).ok_or(MpiError::InvalidRequest)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, req: Request) -> Result<&mut RequestEntry> {
        self.entries.get_mut(&req.0).ok_or(MpiError::InvalidRequest)
    }

    /// True if the request is live (not yet consumed).
    #[must_use]
    pub fn is_live(&self, req: Request) -> bool {
        self.entries.contains_key(&req.0)
    }

    /// Consume a completed request, removing it from the table.
    pub fn consume(&mut self, req: Request) -> Result<RequestEntry> {
        let entry = self
            .entries
            .remove(&req.0)
            .ok_or(MpiError::InvalidRequest)?;
        debug_assert!(entry.is_done(), "consumed an incomplete request");
        Ok(entry)
    }

    /// Complete a pending receive with a matched envelope.
    pub fn complete_recv(&mut self, req_id: u64, env: Envelope) {
        let entry = self
            .entries
            .get_mut(&req_id)
            .expect("matching engine completed an unknown request");
        debug_assert!(matches!(entry.state, ReqState::Pending));
        entry.state = ReqState::RecvDone(env);
    }

    /// Complete a pending rendezvous send (its message was matched by a
    /// receive). Returns the owning rank, whose wait it may satisfy.
    pub fn complete_send(&mut self, req_id: u64) -> usize {
        let entry = self
            .entries
            .get_mut(&req_id)
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
        for e in self.entries.values() {
            counts[e.owner] += 1;
        }
        counts
    }

    /// Number of live requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no requests are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

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
        t.complete_recv(
            r.0,
            Envelope {
                src: 0,
                dst: 1,
                tag: 0,
                payload: Bytes::from_static(b"x"),
                arrival_seq: 0,
                send_vt: 0.0,
                send_req: None,
            },
        );
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
}

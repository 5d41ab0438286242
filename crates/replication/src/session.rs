//! Client sessions: causal-dependency threading for the service facade.
//!
//! The paper's ETOB interface takes `broadcastETOB(m, C(m))` — every
//! broadcast declares the set of messages it causally depends on, and
//! Algorithm 5 guarantees those are always delivered first (property P3).
//! Before the facade existed, application code had to build `C(m)` by hand
//! with [`crate::replica::ReplicaCommand::with_deps`], which meant tracking
//! message identifiers manually.
//!
//! A [`Session`] automates this: it is a lightweight client handle bound to
//! one entry replica that remembers the identifier of the last command it
//! submitted. Every subsequent submission through
//! [`crate::cluster::Cluster::submit`] automatically declares that identifier
//! as a causal dependency, so the commands of one session form a causal
//! chain and are applied in submission order on every replica, on every
//! engine, at every consistency level — the session-level guarantee
//! Dynamo/Bayou-style systems call "read your writes / monotonic writes".
//! Distinct sessions stay causally unrelated and may interleave.

use ec_core::types::MsgId;
use ec_sim::ProcessId;

/// A client handle bound to one entry replica, threading each submitted
/// command's identifier into the next command's causal dependencies.
///
/// Sessions are handed out by `Cluster::session` (round-robin over entry
/// replicas) or pinned to a replica with `Cluster::session_at`; submissions
/// go through `Cluster::submit`, which assigns the message identifier and
/// advances the session's causal frontier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Session {
    entry: ProcessId,
    last: Option<MsgId>,
}

impl Session {
    /// A fresh session entering through replica `entry`, with an empty
    /// causal history.
    pub fn at(entry: ProcessId) -> Self {
        Session { entry, last: None }
    }

    /// The replica this session submits through.
    pub fn entry(&self) -> ProcessId {
        self.entry
    }

    /// The identifier of the last command submitted through this session —
    /// the causal frontier the next submission will declare as `C(m)`.
    pub fn frontier(&self) -> Option<MsgId> {
        self.last
    }

    /// Advances the causal frontier to `id` (called by the cluster after it
    /// has assigned the identifier of a submitted command).
    pub(crate) fn advance(&mut self, id: MsgId) {
        self.last = Some(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_track_entry_and_frontier() {
        let mut s = Session::at(ProcessId::new(2));
        assert_eq!(s.entry(), ProcessId::new(2));
        assert_eq!(s.frontier(), None);
        let id = MsgId::new(ProcessId::new(2), 1);
        s.advance(id);
        assert_eq!(s.frontier(), Some(id));
    }
}

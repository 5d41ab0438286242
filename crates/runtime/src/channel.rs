//! The in-process transport: nodes joined by nothing but their inboxes.

use std::io;
use std::sync::Arc;

use ec_detectors::HeartbeatMsg;
use ec_sim::{Algorithm, ProcessId};

use crate::node::{Event, Links};
use crate::runtime::{Hub, Transport};

/// Joins the nodes of a run by the hub's inbox channels alone: a message is
/// moved, not encoded, and charged its [`Algorithm::wire_size`] (for the
/// broadcast automata, the length the codec would have produced);
/// outputs go straight into the driver's record. No codec and no socket is
/// in the loop, which is what separates a loop bug from a wire bug.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelTransport;

/// One incarnation's links over the channel transport.
#[derive(Debug)]
pub struct ChannelLinks<A: Algorithm> {
    me: ProcessId,
    hub: Arc<Hub<A>>,
}

impl<A> Transport<A> for ChannelTransport
where
    A: Algorithm + Send + 'static,
    A::Msg: Send,
    A::Input: Send,
    A::Output: Send,
{
    type Links = ChannelLinks<A>;

    fn bind(_hub: &Arc<Hub<A>>) -> io::Result<Self> {
        Ok(ChannelTransport)
    }

    fn open(&mut self, p: ProcessId, hub: &Arc<Hub<A>>) -> io::Result<ChannelLinks<A>> {
        Ok(ChannelLinks {
            me: p,
            hub: Arc::clone(hub),
        })
    }
}

impl<A: Algorithm> Links<A> for ChannelLinks<A> {
    fn send(&mut self, to: ProcessId, msg: A::Msg) -> u64 {
        let (from, wire_len) = (self.me, A::wire_size(&msg));
        self.hub.send(
            to,
            Event::App {
                from,
                msg,
                wire_len,
            },
        );
        wire_len
    }

    fn heartbeat(&mut self, to: ProcessId, msg: HeartbeatMsg) {
        let from = self.me;
        self.hub.send(to, Event::Heartbeat { from, msg });
    }
}

//! The real-time node: one event loop, whatever carries its messages.
//!
//! A node owns one [`Algorithm`] automaton and one heartbeat Ω module. It
//! takes [`Event`]s from its inbox, derives the failure-detector value of
//! each step from the heartbeat module's current leader, records the step's
//! outputs in the [`Hub`], and hands its messages to its [`Links`] — the
//! only thing that differs between a node joined to its peers by channels
//! and one joined by sockets.

use std::fmt;

use crossbeam_channel::{Receiver, RecvTimeoutError, TryRecvError};

use ec_detectors::{HeartbeatMsg, HeartbeatOmega};
use ec_sim::{Actions, Algorithm, Context, ProcessId, Time};

use crate::pacer::{Pacer, Turn};
use crate::runtime::{FdDerive, Hub, RuntimeConfig};

/// What a node's inbox carries.
pub enum Event<A: Algorithm> {
    /// An algorithm message from a peer, with the bytes it took on the wire.
    App {
        /// The sending process.
        from: ProcessId,
        /// The message.
        msg: A::Msg,
        /// Bytes the message occupied on the wire (its encoded length, or
        /// the frame read off a socket).
        wire_len: u64,
    },
    /// A failure-detector heartbeat from a peer.
    Heartbeat {
        /// The sending process.
        from: ProcessId,
        /// The heartbeat.
        msg: HeartbeatMsg,
    },
    /// An input from the driver.
    Input(A::Input),
    /// Runs a closure against the live automaton, between two steps (a
    /// [`crate::Runtime::look`], a metrics scrape). A dead node drops it
    /// unrun.
    Inspect(Box<dyn FnOnce(&A) + Send>),
    /// Stop taking steps at once and say nothing: the peers must find out
    /// from the missing heartbeats.
    Crash,
    /// Stop after everything queued before this, and say goodbye.
    Shutdown,
}

impl<A: Algorithm> fmt::Debug for Event<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Event::App { .. } => "App",
            Event::Heartbeat { .. } => "Heartbeat",
            Event::Input(_) => "Input",
            Event::Inspect(_) => "Inspect",
            Event::Crash => "Crash",
            Event::Shutdown => "Shutdown",
        })
    }
}

/// The node-side seam: where one incarnation's steps put the messages they
/// send to its peers.
pub trait Links<A: Algorithm> {
    /// Sends an algorithm message to `to`; returns the bytes put on the
    /// wire (0 if the peer is unreachable — the model's lossy link).
    fn send(&mut self, to: ProcessId, msg: A::Msg) -> u64;
    /// Sends a heartbeat to `to` (not counted as application traffic).
    fn heartbeat(&mut self, to: ProcessId, msg: HeartbeatMsg);
}

/// One incarnation's state between events.
struct Node<'a, A: Algorithm, L> {
    me: ProcessId,
    n: usize,
    tick: u64,
    omega: HeartbeatOmega,
    algorithm: A,
    links: L,
    hub: &'a Hub<A>,
    derive: &'a FdDerive<A::Fd>,
}

impl<A: Algorithm, L: Links<A>> Node<'_, A, L> {
    /// One step of the heartbeat module: leader changes are recorded,
    /// heartbeats go out over the links.
    fn beat(
        &mut self,
        handler: impl FnOnce(&mut HeartbeatOmega, &mut Context<'_, HeartbeatOmega>),
    ) {
        let mut actions = Actions::<HeartbeatOmega>::new();
        let mut ctx = Context::new(self.me, Time::new(self.tick), self.n, (), &mut actions);
        handler(&mut self.omega, &mut ctx);
        self.hub.record_leaders(self.me, &actions.outputs);
        for (to, msg) in actions.sends {
            self.links.heartbeat(to, msg);
        }
    }

    /// One step of the algorithm under the current leader's detector value:
    /// messages go out over the links and are counted, outputs are recorded
    /// in the hub. Timer requests are satisfied by the periodic tick. A step
    /// that produced nothing touches neither the links nor the counters.
    fn step(&mut self, handler: impl FnOnce(&mut A, &mut Context<'_, A>)) {
        let fd = (self.derive)(self.omega.leader(), self.n);
        let mut actions = Actions::<A>::new();
        let mut ctx = Context::new(self.me, Time::new(self.tick), self.n, fd, &mut actions);
        handler(&mut self.algorithm, &mut ctx);
        let sent = actions.sends.len();
        if sent == 0 && actions.outputs.is_empty() {
            return;
        }
        let mut wire_bytes = 0u64;
        for (to, msg) in actions.sends {
            wire_bytes += self.links.send(to, msg);
        }
        {
            let mut metrics = self.hub.metrics.lock();
            for _ in 0..sent {
                metrics.record_send(self.me);
            }
            metrics.bytes_sent += wire_bytes;
            metrics.outputs += actions.outputs.len() as u64;
        }
        for output in actions.outputs {
            self.hub.record_output(self.me, output);
        }
    }
}

/// Runs one incarnation of node `me` until it crashes, shuts down or the
/// run is stopped, and returns its automaton for harvest. `on_timer` is
/// paced by a [`Pacer`]: a tick is due every `config.tick` of wall-clock
/// time however busy the inbox is. When a burst of message, input or timer
/// steps has emptied the inbox, the node takes one [`Algorithm::on_idle`]
/// step before it blocks again: what the burst held back leaves at once,
/// coalesced over however much the burst held.
pub(crate) fn node_loop<A: Algorithm, L: Links<A>>(
    me: ProcessId,
    algorithm: A,
    inbox: Receiver<Event<A>>,
    links: L,
    hub: &Hub<A>,
    config: RuntimeConfig,
    derive: &FdDerive<A::Fd>,
) -> A {
    let mut node = Node {
        me,
        n: hub.n(),
        tick: 0,
        omega: HeartbeatOmega::new(me, hub.n(), config.heartbeat),
        algorithm,
        links,
        hub,
        derive,
    };
    node.beat(|omega, ctx| omega.on_start(ctx));
    node.step(|a, ctx| a.on_start(ctx));

    let mut pacer = Pacer::start(config.tick);
    // an algorithm step was taken since the last idle step
    let mut busy = false;
    while !hub.stopped() {
        let Turn::Recv(wait) = pacer.turn() else {
            node.tick += 1;
            hub.metrics.lock().timer_fires += 1;
            node.beat(|omega, ctx| omega.on_timer(ctx));
            node.step(|a, ctx| a.on_timer(ctx));
            busy = true;
            continue;
        };
        let event = match inbox.try_recv() {
            Ok(event) => event,
            Err(TryRecvError::Empty) if busy => {
                busy = false;
                node.step(|a, ctx| a.on_idle(ctx));
                continue;
            }
            Err(TryRecvError::Empty) => match inbox.recv_timeout(wait) {
                Ok(event) => event,
                // the next turn fires the tick that just came due
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            },
            Err(TryRecvError::Disconnected) => break,
        };
        match event {
            Event::Crash => break,
            Event::Shutdown => {
                hub.goodbye(me);
                break;
            }
            Event::Heartbeat { from, msg } => {
                node.beat(|omega, ctx| omega.on_message(from, msg, ctx));
            }
            Event::App {
                from,
                msg,
                wire_len,
            } => {
                {
                    let mut metrics = hub.metrics.lock();
                    metrics.messages_delivered += 1;
                    metrics.bytes_delivered += wire_len;
                }
                node.step(|a, ctx| a.on_message(from, msg, ctx));
                busy = true;
            }
            Event::Input(input) => {
                hub.metrics.lock().inputs += 1;
                node.step(|a, ctx| a.on_input(input, ctx));
                busy = true;
            }
            Event::Inspect(look) => look(&node.algorithm),
        }
    }
    node.algorithm
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use crossbeam_channel::{unbounded, Sender};

    const WAIT: Duration = Duration::from_secs(5);

    /// Logs its steps and reports each idle one. An input produces
    /// nothing; a message produces one output.
    struct Logged {
        steps: Vec<&'static str>,
        idled: Sender<()>,
    }

    impl Algorithm for Logged {
        type Msg = ();
        type Input = ();
        type Output = ();
        type Fd = ();

        fn on_input(&mut self, _: (), _: &mut Context<'_, Self>) {
            self.steps.push("input");
        }

        fn on_message(&mut self, _: ProcessId, _: (), ctx: &mut Context<'_, Self>) {
            self.steps.push("message");
            ctx.output(());
        }

        fn on_idle(&mut self, _: &mut Context<'_, Self>) {
            self.steps.push("idle");
            let _ = self.idled.send(());
        }
    }

    /// Links that count what the algorithm's steps hand them (heartbeats
    /// are the Ω module's and pass uncounted).
    struct Counted(Arc<AtomicUsize>);

    impl Links<Logged> for Counted {
        fn send(&mut self, _: ProcessId, _: ()) -> u64 {
            self.0.fetch_add(1, Ordering::SeqCst);
            0
        }
        fn heartbeat(&mut self, _: ProcessId, _: HeartbeatMsg) {}
    }

    /// Runs node 0 of `hub` over `events` until it stops, with no tick
    /// coming due while a test runs.
    fn spawn(
        hub: &Arc<Hub<Logged>>,
        events: Receiver<Event<Logged>>,
        links: Counted,
        idled: Sender<()>,
    ) -> std::thread::JoinHandle<Logged> {
        let config = RuntimeConfig {
            tick: Duration::from_secs(3_600),
            ..RuntimeConfig::default()
        };
        let (me, hub) = (ProcessId::new(0), Arc::clone(hub));
        let derive: FdDerive<()> = Arc::new(|_, _| ());
        let logged = Logged {
            steps: Vec::new(),
            idled,
        };
        std::thread::spawn(move || node_loop(me, logged, events, links, &hub, config, &derive))
    }

    /// An `Inspect` that answers with the steps taken so far.
    fn ask_steps() -> (Event<Logged>, Receiver<Vec<&'static str>>) {
        let (reply, answer) = unbounded();
        let look = Box::new(move |a: &Logged| {
            let _ = reply.send(a.steps.clone());
        });
        (Event::Inspect(look), answer)
    }

    fn steps_now(inbox: &Sender<Event<Logged>>) -> Vec<&'static str> {
        let (ask, answer) = ask_steps();
        inbox.send(ask).expect("the node is running");
        answer.recv_timeout(WAIT).expect("answered")
    }

    #[test]
    fn one_idle_step_ends_a_burst_and_nothing_else_takes_one() {
        const BURST: usize = 4;
        let hub = Arc::new(Hub::<Logged>::new(2));
        let (inbox, events) = unbounded();
        let (idled, idle_steps) = unbounded();
        // the whole burst is queued before the loop runs, a look behind it
        for _ in 0..BURST {
            inbox.send(Event::Input(())).expect("queued");
        }
        let (ask, mid_burst) = ask_steps();
        inbox.send(ask).expect("queued");
        let handed = Arc::new(AtomicUsize::new(0));
        let node = spawn(&hub, events, Counted(Arc::clone(&handed)), idled);
        // no idle step while the inbox held events, then exactly one
        let inputs = vec!["input"; BURST];
        assert_eq!(mid_burst.recv_timeout(WAIT), Ok(inputs.clone()));
        let idle = idle_steps.recv_timeout(WAIT);
        idle.expect("an idle step once the inbox drained");
        let burst = [inputs, vec!["idle"]].concat();
        assert_eq!(steps_now(&inbox), burst);
        // heartbeat and look turns are no burst: a second look would see
        // an idle step the first turns triggered
        let beat = Event::Heartbeat {
            from: ProcessId::new(1),
            msg: HeartbeatMsg::Heartbeat,
        };
        inbox.send(beat).expect("the node is running");
        assert_eq!(steps_now(&inbox), burst);
        assert_eq!(steps_now(&inbox), burst);
        inbox.send(Event::Crash).expect("the node is running");
        let left = node.join().expect("the node loop returns");
        assert_eq!(left.steps, burst);
        // steps that produced nothing touched neither links nor counters
        assert_eq!(handed.load(Ordering::SeqCst), 0);
        let metrics = hub.metrics.lock();
        assert_eq!((metrics.messages_sent, metrics.outputs), (0, 0));
        assert_eq!(metrics.inputs, BURST as u64);
    }

    #[test]
    fn the_loop_records_outputs_before_its_goodbye_and_a_crash_says_none() {
        let me = ProcessId::new(0);
        for (end, goodbye) in [(Event::Shutdown, true), (Event::Crash, false)] {
            let hub = Arc::new(Hub::<Logged>::new(2));
            let (inbox, events) = unbounded();
            let message = Event::App {
                from: ProcessId::new(1),
                msg: (),
                wire_len: 0,
            };
            inbox.send(message).expect("queued");
            // a look between the message and the end: the message's output
            // is in the record before the loop takes another event
            let (seen, recorded) = unbounded();
            let watch = Arc::clone(&hub);
            let look = Box::new(move |_: &Logged| {
                let outputs = watch.history.lock().outputs(me).len();
                let _ = seen.send((outputs, watch.said_goodbye(me)));
            });
            inbox.send(Event::Inspect(look)).expect("queued");
            inbox.send(end).expect("queued");
            let (idled, _) = unbounded();
            let node = spawn(&hub, events, Counted(Arc::default()), idled);
            let left = node.join().expect("the node loop returns");
            assert_eq!(left.steps, vec!["message"]);
            assert_eq!(recorded.recv_timeout(WAIT), Ok((1, false)));
            // only a shutdown says goodbye; the output stays recorded either way
            assert_eq!(hub.said_goodbye(me), goodbye);
            assert_eq!(hub.history.lock().outputs(me).len(), 1);
        }
    }
}

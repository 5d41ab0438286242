//! The automaton interface: how distributed algorithms are expressed.
//!
//! A step of the paper's model is a tuple `(p, m, d, A)`: process `p`
//! atomically receives a message `m` (possibly the empty message λ), queries
//! its failure detector and obtains `d`, changes its state according to
//! automaton `A(p)`, and sends messages / produces outputs. The [`Algorithm`]
//! trait mirrors this: every handler receives a [`Context`] carrying the
//! failure-detector value sampled for the step and collects the messages,
//! outputs and timers produced by the step.

use std::fmt;

use crate::{ProcessId, Time};

/// A deterministic automaton `A(p)` run by every process.
///
/// Handlers correspond to the kinds of step a process can take:
///
/// * [`Algorithm::on_start`] — the first step of the process, at time 0;
/// * [`Algorithm::on_message`] — a step receiving a (non-empty) message;
/// * [`Algorithm::on_timer`] — a step receiving the empty message λ, used to
///   express the paper's "on local timeout" clauses;
/// * [`Algorithm::on_input`] — a step accepting an input from the external
///   world (an operation invocation such as `broadcastETOB(m)` or
///   `proposeEC_ℓ(v)`);
/// * [`Algorithm::on_idle`] — a step taken when the process has nothing
///   else queued (real-time engines only; see its docs).
///
/// All handlers have no-op defaults so that simple automata only implement
/// what they need. Every handler may query the failure-detector value for the
/// step via [`Context::fd`] and emit actions via the context.
pub trait Algorithm {
    /// Messages exchanged between processes running this algorithm.
    type Msg: Clone + fmt::Debug;
    /// Inputs accepted from the external world (operation invocations).
    type Input: Clone + fmt::Debug;
    /// Outputs returned to the external world (operation responses, delivered
    /// sequences, emulated failure-detector values, …).
    type Output: Clone + fmt::Debug;
    /// The range of the failure detector this algorithm queries (e.g.
    /// `ProcessId` for Ω, a process set for Σ, `()` if none is used).
    type Fd: Clone + fmt::Debug;

    /// First step of the process, taken once at time 0 (unless the process is
    /// initially crashed).
    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        let _ = ctx;
    }

    /// A step in which the process receives message `msg` from `from`.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self>) {
        let _ = (from, msg, ctx);
    }

    /// A step triggered by a local timeout (the empty message λ).
    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        let _ = ctx;
    }

    /// A step in which the process accepts an input from the external world.
    fn on_input(&mut self, input: Self::Input, ctx: &mut Context<'_, Self>) {
        let _ = (input, ctx);
    }

    /// A step taken when nothing else is queued: send what was held back to
    /// coalesce with what might have followed. Only the real-time node loop
    /// calls it, once at the end of each burst of message, input and timer
    /// steps; the simulator's `World` never does, so simulated runs keep
    /// their tick-window batching. A wrapper deployed on a real-time engine
    /// must forward it to what it wraps with [`Context::nest`].
    fn on_idle(&mut self, ctx: &mut Context<'_, Self>) {
        let _ = ctx;
    }

    /// The wire size of a message in bytes, used by the runners for the
    /// `bytes_sent` / `bytes_delivered` counters of [`crate::Metrics`]. The
    /// simulator and the thread runtime pass messages in memory and charge
    /// this; the broadcast automata return the length of their wire-codec
    /// encoding, so it is the byte count the socket engine
    /// (`ec_replication::net`) puts in a frame, less the 9-byte frame
    /// header. The default of `0` means "unmeasured" and leaves the byte
    /// counters at zero for algorithms that do not override it.
    fn wire_size(msg: &Self::Msg) -> u64 {
        let _ = msg;
        0
    }
}

/// The actions produced by one step of an algorithm: messages to send,
/// outputs to the external world, and timers to arm.
///
/// A runner builds one per step, hands the handler a [`Context`] over it
/// with [`Context::new`] and carries the actions out. A wrapper algorithm
/// runs what it wraps with [`Context::nest`] instead.
pub struct Actions<A: Algorithm + ?Sized> {
    /// Messages to send, as `(destination, message)` pairs.
    pub sends: Vec<(ProcessId, A::Msg)>,
    /// Outputs to the external world.
    pub outputs: Vec<A::Output>,
    /// Timer delays (in ticks) after which `on_timer` should fire.
    pub timers: Vec<u64>,
}

impl<A: Algorithm + ?Sized> Actions<A> {
    /// Creates an empty action buffer.
    pub fn new() -> Self {
        Actions {
            sends: Vec::new(),
            outputs: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Returns `true` if the step produced no actions.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.outputs.is_empty() && self.timers.is_empty()
    }
}

impl<A: Algorithm + ?Sized> Default for Actions<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Algorithm + ?Sized> fmt::Debug for Actions<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Actions")
            .field("sends", &self.sends)
            .field("outputs", &self.outputs)
            .field("timers", &self.timers)
            .finish()
    }
}

/// Per-step execution context handed to every [`Algorithm`] handler.
///
/// The context exposes the identity of the executing process, the number of
/// processes, the failure-detector value sampled for this step, and sinks for
/// the actions of the step. Note that the *global* time is deliberately not
/// exposed — processes in the paper's model have no access to the global
/// clock — except through [`Context::now`], which is provided for tracing and
/// must not be used to influence algorithm decisions (the provided algorithms
/// never do).
pub struct Context<'a, A: Algorithm + ?Sized> {
    me: ProcessId,
    now: Time,
    n: usize,
    fd: A::Fd,
    actions: &'a mut Actions<A>,
}

impl<'a, A: Algorithm + ?Sized> Context<'a, A> {
    /// Creates the context of a root step over the runner's action buffer.
    pub fn new(me: ProcessId, now: Time, n: usize, fd: A::Fd, actions: &'a mut Actions<A>) -> Self {
        Context {
            me,
            now,
            n,
            fd,
            actions,
        }
    }

    /// The identity of the process executing the step.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The global time of the step (for tracing only; see the type docs).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The number of processes `n = |Π|`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The failure-detector value `d` sampled for this step.
    pub fn fd(&self) -> &A::Fd {
        &self.fd
    }

    /// Sends `msg` to process `to` (including possibly the sender itself).
    pub fn send(&mut self, to: ProcessId, msg: A::Msg) {
        self.actions.sends.push((to, msg));
    }

    /// Sends `msg` to every process, including the sender — the paper's
    /// `Send(message)` which "sends message to all processes (including p_i)".
    pub fn broadcast(&mut self, msg: A::Msg) {
        for i in 0..self.n {
            self.actions.sends.push((ProcessId::new(i), msg.clone()));
        }
    }

    /// Sends `msg` to every process except the sender.
    pub fn broadcast_others(&mut self, msg: A::Msg) {
        for i in 0..self.n {
            if i != self.me.index() {
                self.actions.sends.push((ProcessId::new(i), msg.clone()));
            }
        }
    }

    /// Produces an output to the external world.
    pub fn output(&mut self, out: A::Output) {
        self.actions.outputs.push(out);
    }

    /// Arms a local timeout that fires `delay` ticks from now (at least 1).
    pub fn set_timer(&mut self, delay: u64) {
        self.actions.timers.push(delay.max(1));
    }

    /// Runs one handler of a wrapped algorithm as part of this step — how
    /// the paper's black-box transformations (and a replica over its
    /// broadcast layer) use what they wrap: feed it, relay its messages,
    /// consume its outputs.
    ///
    /// The inner step sees this step's `me`, `now`, `n` and failure-detector
    /// value; its sends go out through `wrap`, in the order it emitted them;
    /// its outputs are returned to the wrapper.
    ///
    /// Timer policy: the inner step's timer requests are dropped. Exactly
    /// one component of a process — the outermost wrapper, or the algorithm
    /// itself when it runs unwrapped — arms a periodic timer in `on_start`
    /// and re-arms it once per `on_timer`, forwarding every fire down the
    /// stack. Relaying inner timers *and* re-arming an own timer would
    /// schedule two future timers per fire and make the event queue grow
    /// exponentially.
    pub fn nest<B: Algorithm<Fd = A::Fd>>(
        &mut self,
        inner: &mut B,
        wrap: impl Fn(B::Msg) -> A::Msg,
        handler: impl FnOnce(&mut B, &mut Context<'_, B>),
    ) -> Vec<B::Output> {
        let mut actions = Actions::<B>::new();
        let fd = self.fd.clone();
        handler(
            inner,
            &mut Context::new(self.me, self.now, self.n, fd, &mut actions),
        );
        for (to, msg) in actions.sends {
            self.actions.sends.push((to, wrap(msg)));
        }
        actions.outputs
    }
}

impl<'a, A: Algorithm + ?Sized> fmt::Debug for Context<'a, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("me", &self.me)
            .field("now", &self.now)
            .field("n", &self.n)
            .field("fd", &self.fd)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl Algorithm for Echo {
        type Msg = u32;
        type Input = u32;
        type Output = u32;
        type Fd = ();

        fn on_input(&mut self, input: u32, ctx: &mut Context<'_, Self>) {
            ctx.broadcast(input);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, Self>) {
            ctx.output(msg);
            ctx.set_timer(0);
        }
    }

    #[test]
    fn broadcast_targets_every_process_including_self() {
        let mut actions = Actions::<Echo>::new();
        let mut ctx = Context::new(ProcessId::new(1), Time::ZERO, 3, (), &mut actions);
        Echo.on_input(7, &mut ctx);
        assert_eq!(actions.sends.len(), 3);
        assert!(actions.sends.iter().any(|(to, _)| *to == ProcessId::new(1)));
        assert!(actions.sends.iter().all(|(_, m)| *m == 7));
    }

    #[test]
    fn broadcast_others_excludes_self() {
        let mut actions = Actions::<Echo>::new();
        let mut ctx = Context::new(ProcessId::new(1), Time::ZERO, 3, (), &mut actions);
        ctx.broadcast_others(9);
        assert_eq!(actions.sends.len(), 2);
        assert!(actions.sends.iter().all(|(to, _)| *to != ProcessId::new(1)));
    }

    #[test]
    fn outputs_and_timers_are_collected_and_clamped() {
        let mut actions = Actions::<Echo>::new();
        let mut ctx = Context::new(ProcessId::new(0), Time::new(5), 3, (), &mut actions);
        Echo.on_message(ProcessId::new(2), 11, &mut ctx);
        assert_eq!(actions.outputs, vec![11]);
        assert_eq!(actions.timers, vec![1], "zero delays are clamped to 1");
        assert!(!actions.is_empty());
    }

    #[test]
    fn default_handlers_do_nothing() {
        struct Noop;
        impl Algorithm for Noop {
            type Msg = ();
            type Input = ();
            type Output = ();
            type Fd = ();
        }
        let mut actions = Actions::<Noop>::new();
        let mut ctx = Context::new(ProcessId::new(0), Time::ZERO, 1, (), &mut actions);
        let mut a = Noop;
        a.on_start(&mut ctx);
        a.on_message(ProcessId::new(0), (), &mut ctx);
        a.on_timer(&mut ctx);
        a.on_input((), &mut ctx);
        a.on_idle(&mut ctx);
        assert!(actions.is_empty());
    }

    /// Reports what its step saw, sends twice and asks for a timer.
    struct Probe;

    impl Algorithm for Probe {
        type Msg = u32;
        type Input = ();
        type Output = (ProcessId, Time, usize, u8);
        type Fd = u8;

        fn on_input(&mut self, _: (), ctx: &mut Context<'_, Self>) {
            ctx.send(ProcessId::new(2), 1);
            ctx.send(ProcessId::new(0), 2);
            ctx.output((ctx.me(), ctx.now(), ctx.n(), *ctx.fd()));
            ctx.set_timer(4);
        }
    }

    /// A wrapper whose own messages are `Option`s of what it wraps.
    struct Outer;

    impl Algorithm for Outer {
        type Msg = Option<u32>;
        type Input = ();
        type Output = ();
        type Fd = u8;
    }

    #[test]
    fn nest_runs_the_inner_step_inside_the_outer_one_and_drops_its_timers() {
        let mut actions = Actions::<Outer>::new();
        let mut ctx = Context::new(ProcessId::new(1), Time::new(5), 3, 7, &mut actions);
        let outputs = ctx.nest(&mut Probe, Some, |probe, ictx| probe.on_input((), ictx));
        assert_eq!(outputs, vec![(ProcessId::new(1), Time::new(5), 3, 7)]);
        assert_eq!(
            actions.sends,
            vec![(ProcessId::new(2), Some(1)), (ProcessId::new(0), Some(2))]
        );
        assert!(actions.timers.is_empty(), "inner timers are never relayed");
        assert!(actions.outputs.is_empty());
    }

    #[test]
    fn context_reports_identity_and_fd() {
        let mut actions = Actions::<Echo>::new();
        let ctx = Context::new(ProcessId::new(2), Time::new(9), 5, (), &mut actions);
        assert_eq!(ctx.me(), ProcessId::new(2));
        assert_eq!(ctx.now(), Time::new(9));
        assert_eq!(ctx.n(), 5);
        assert_eq!(*ctx.fd(), ());
    }
}

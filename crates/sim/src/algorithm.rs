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
    /// must forward it to what it wraps.
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
/// Wrapper algorithms (such as the paper's black-box transformations
/// `T_{EC→ETOB}` and `T_{ETOB→EC}`) drive an inner algorithm by building a
/// fresh `Actions` buffer, constructing a [`Context`] over it with
/// [`Context::new`], invoking the inner handler, and then translating the
/// collected actions into their own.
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
    /// Creates a context over an external action buffer.
    ///
    /// This is public so that *wrapper* algorithms (the paper's asynchronous
    /// black-box transformations) can drive inner algorithms: build an
    /// `Actions` buffer, call the inner handler with a context over it, then
    /// translate the collected actions.
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

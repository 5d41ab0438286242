//! Network models: link delays, scripted partitions, and injected link
//! faults.
//!
//! The paper assumes reliable links: every message sent to a correct process
//! is eventually received. The *base* network model honors that assumption —
//! it only chooses *when* a message is delivered. Partitions are modeled as
//! finite windows during which traffic between groups is held back until the
//! partition heals — this is the asynchronous-system reading of a partition
//! (an unbounded but finite delay), which is exactly the situation where an
//! eventually consistent service keeps making progress while a strongly
//! consistent one must block (it cannot gather a Σ quorum).
//!
//! On top of that reliable base, the chaos subsystem scripts **link faults**
//! ([`LinkFaults`] inside [`FaultWindow`]s): seeded probabilistic message
//! loss, duplication and extra jitter, scoped per link and per time window.
//! Faults weaken the reliable-links assumption, so the algorithms only keep
//! their guarantees under a *fairness* assumption: a message retransmitted
//! forever over a lossy link is still delivered infinitely often. That is
//! what [`LinkFaults::new`] enforces by rejecting `drop_prob >= 1` — every
//! transmission attempt succeeds with probability at least
//! `1 - drop_prob > 0`, so retransmission (e.g. the `resend_period` of the
//! ETOB and consensus layers) eventually gets every payload through.

use rand::Rng;

use crate::{ProcessId, ProcessSet, Time};

/// Base point-to-point delay model for a link, before partitions are applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly `ticks` time units.
    Fixed {
        /// The delay applied to every message.
        ticks: u64,
    },
    /// Delays are drawn uniformly from `[min, max]` (inclusive) per message.
    Uniform {
        /// Minimum delay.
        min: u64,
        /// Maximum delay.
        max: u64,
    },
    /// Messages from/to the listed "slow" processes take `slow` ticks, all
    /// other messages take `fast` ticks. Useful for asymmetric scenarios.
    Asymmetric {
        /// Delay for links not touching a slow process.
        fast: u64,
        /// Delay for links touching a slow process.
        slow: u64,
        /// The set of slow processes.
        slow_processes: ProcessSet,
    },
}

impl DelayModel {
    fn sample<R: Rng>(&self, from: ProcessId, to: ProcessId, rng: &mut R) -> u64 {
        match self {
            DelayModel::Fixed { ticks } => *ticks,
            DelayModel::Uniform { min, max } => {
                debug_assert!(min <= max, "uniform delay with min > max");
                if min == max {
                    *min
                } else {
                    rng.gen_range(*min..=*max)
                }
            }
            DelayModel::Asymmetric {
                fast,
                slow,
                slow_processes,
            } => {
                if slow_processes.contains(from) || slow_processes.contains(to) {
                    *slow
                } else {
                    *fast
                }
            }
        }
    }

    /// An upper bound on the delay this model can produce (ignoring
    /// partitions). Used by experiments to compute the paper's `Δc`.
    pub fn max_delay(&self) -> u64 {
        match self {
            DelayModel::Fixed { ticks } => *ticks,
            DelayModel::Uniform { max, .. } => *max,
            DelayModel::Asymmetric { fast, slow, .. } => (*fast).max(*slow),
        }
    }
}

/// A partition of the process set into disjoint groups. Messages between
/// different groups are held until the partition window closes; messages
/// within a group flow normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    groups: Vec<ProcessSet>,
}

impl PartitionSpec {
    /// Creates a partition from explicit groups. Processes not named in any
    /// group are treated as singleton groups.
    pub fn new(groups: Vec<ProcessSet>) -> Self {
        PartitionSpec { groups }
    }

    /// Convenience constructor: isolates `isolated` from everyone else.
    pub fn isolate(isolated: ProcessSet, n: usize) -> Self {
        let rest = ProcessSet::all(n).difference(&isolated);
        PartitionSpec {
            groups: vec![isolated, rest],
        }
    }

    /// Returns `true` if `a` and `b` can communicate under this partition
    /// (i.e. they are in the same group, or neither appears in any group).
    pub fn connected(&self, a: ProcessId, b: ProcessId) -> bool {
        if a == b {
            return true;
        }
        let ga = self.groups.iter().position(|g| g.contains(a));
        let gb = self.groups.iter().position(|g| g.contains(b));
        match (ga, gb) {
            (Some(x), Some(y)) => x == y,
            // A process not mentioned in any group is its own singleton group.
            (None, None) => false,
            _ => false,
        }
    }

    /// The groups of this partition.
    pub fn groups(&self) -> &[ProcessSet] {
        &self.groups
    }
}

/// A partition that is active during `[from, until)` and heals at `until`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First tick at which the partition is active.
    pub from: Time,
    /// First tick at which the partition is no longer active (heal time).
    pub until: Time,
    /// The group structure during the window.
    pub spec: PartitionSpec,
}

/// Probabilistic faults injected on a link: per-transmission loss,
/// duplication, and extra delivery jitter. Used inside a [`FaultWindow`].
///
/// Probabilities are stored in parts-per-million so sampling stays in the
/// deterministic integer RNG of the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFaults {
    drop_ppm: u32,
    dup_ppm: u32,
    extra_jitter: u64,
}

impl LinkFaults {
    /// Creates a fault description: each transmission attempt is dropped with
    /// probability `drop_prob`, duplicated (one extra copy) with probability
    /// `dup_prob`, and delayed by an extra uniform `[0, extra_jitter]` ticks
    /// (which reorders deliveries).
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is not in `[0, 1)` — the fairness assumption the
    /// retransmitting algorithms need (see the module docs): a link that
    /// drops *everything* can starve even infinite retransmission, so it is
    /// rejected at construction. Also panics if `dup_prob` is not in
    /// `[0, 1]`.
    pub fn new(drop_prob: f64, dup_prob: f64, extra_jitter: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_prob),
            "drop_prob must be in [0, 1): infinitely-often delivery requires \
             every transmission attempt to succeed with positive probability"
        );
        assert!(
            (0.0..=1.0).contains(&dup_prob),
            "dup_prob must be in [0, 1]"
        );
        LinkFaults {
            drop_ppm: (drop_prob * 1_000_000.0) as u32,
            dup_ppm: (dup_prob * 1_000_000.0) as u32,
            extra_jitter,
        }
    }

    /// The drop probability, in parts per million.
    pub fn drop_ppm(&self) -> u32 {
        self.drop_ppm
    }

    /// The duplication probability, in parts per million.
    pub fn dup_ppm(&self) -> u32 {
        self.dup_ppm
    }

    /// The maximum extra jitter, in ticks.
    pub fn extra_jitter(&self) -> u64 {
        self.extra_jitter
    }

    /// Returns `true` if this description injects no fault at all.
    pub fn is_noop(&self) -> bool {
        self.drop_ppm == 0 && self.dup_ppm == 0 && self.extra_jitter == 0
    }
}

/// Which links of the system a [`FaultWindow`] applies to. Local links
/// (`from == to`) are always exempt: a process delivering to itself does not
/// cross the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkScope {
    /// Every link between distinct processes.
    All,
    /// Links with at least one endpoint in the set (either direction).
    Touching(ProcessSet),
    /// Directed links from a member of `from` to a member of `to`.
    Directed {
        /// Sending side of the scoped links.
        from: ProcessSet,
        /// Receiving side of the scoped links.
        to: ProcessSet,
    },
}

impl LinkScope {
    /// Returns `true` if the scope covers the link `from → to`.
    pub fn applies(&self, from: ProcessId, to: ProcessId) -> bool {
        if from == to {
            return false;
        }
        match self {
            LinkScope::All => true,
            LinkScope::Touching(set) => set.contains(from) || set.contains(to),
            LinkScope::Directed { from: f, to: t } => f.contains(from) && t.contains(to),
        }
    }
}

/// Link faults active during `[from, until)` on the scoped links. A message
/// is subject to the window's faults iff it is *sent* inside the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// First tick at which the faults are active.
    pub from: Time,
    /// First tick at which the faults are no longer active.
    pub until: Time,
    /// The links the faults apply to.
    pub scope: LinkScope,
    /// The injected faults.
    pub faults: LinkFaults,
}

impl FaultWindow {
    fn applies(&self, from: ProcessId, to: ProcessId, sent: Time) -> bool {
        sent >= self.from && sent < self.until && self.scope.applies(from, to)
    }
}

/// Full network model: a base delay model plus scripted partition windows.
///
/// # Example
///
/// ```
/// use ec_sim::{NetworkModel, PartitionSpec, ProcessSet, Time};
/// let minority: ProcessSet = [0, 1].into_iter().collect();
/// let net = NetworkModel::fixed_delay(2)
///     .with_partition(Time::new(100), Time::new(200), PartitionSpec::isolate(minority, 5));
/// assert_eq!(net.base().max_delay(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkModel {
    base: DelayModel,
    partitions: Vec<PartitionWindow>,
    faults: Vec<FaultWindow>,
}

impl NetworkModel {
    /// A network where every message takes exactly `ticks` time units.
    pub fn fixed_delay(ticks: u64) -> Self {
        Self::with_delay_model(DelayModel::Fixed { ticks })
    }

    /// A network with per-message uniform random delays in `[min, max]`.
    pub fn uniform_delay(min: u64, max: u64) -> Self {
        assert!(min <= max, "uniform delay requires min <= max");
        Self::with_delay_model(DelayModel::Uniform { min, max })
    }

    /// A network with the given base delay model.
    pub fn with_delay_model(base: DelayModel) -> Self {
        NetworkModel {
            base,
            partitions: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Adds a partition window `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until`.
    pub fn with_partition(mut self, from: Time, until: Time, spec: PartitionSpec) -> Self {
        assert!(from < until, "partition window must be non-empty");
        self.partitions.push(PartitionWindow { from, until, spec });
        self
    }

    /// The base delay model.
    pub fn base(&self) -> &DelayModel {
        &self.base
    }

    /// The scripted partition windows.
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.partitions
    }

    /// Adds a link-fault window `[from, until)` on the scoped links.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until`.
    pub fn with_faults(
        mut self,
        from: Time,
        until: Time,
        scope: LinkScope,
        faults: LinkFaults,
    ) -> Self {
        assert!(from < until, "fault window must be non-empty");
        self.faults.push(FaultWindow {
            from,
            until,
            scope,
            faults,
        });
        self
    }

    /// The scripted link-fault windows.
    pub fn fault_windows(&self) -> &[FaultWindow] {
        &self.faults
    }

    /// Returns `true` if `a` and `b` are separated by an active partition at
    /// time `t`.
    pub fn partitioned(&self, a: ProcessId, b: ProcessId, t: Time) -> bool {
        self.partitions
            .iter()
            .any(|w| t >= w.from && t < w.until && !w.spec.connected(a, b))
    }

    /// Computes the delivery time of one *successful* transmission from
    /// `from` to `to` sent at time `sent`. This is the reliable base layer:
    /// if the link is partitioned, delivery is postponed until after the last
    /// partition window separating the two processes has healed (arbitrary
    /// finite delay, never a drop). Injected link faults — loss, duplication,
    /// jitter — are applied on top by [`NetworkModel::transmit`], which is
    /// what the simulation runner calls.
    pub fn delivery_time<R: Rng>(
        &self,
        from: ProcessId,
        to: ProcessId,
        sent: Time,
        rng: &mut R,
    ) -> Time {
        let base = self.base.sample(from, to, rng).max(1);
        let mut deliver = sent + base;
        // If delivery would land inside a window separating the processes,
        // push it to the heal time of that window (plus the base delay), and
        // repeat in case windows chain.
        let mut changed = true;
        while changed {
            changed = false;
            for w in &self.partitions {
                let blocked_at_send = sent >= w.from && sent < w.until;
                let blocked_at_delivery = deliver >= w.from && deliver < w.until;
                if (blocked_at_send || blocked_at_delivery) && !w.spec.connected(from, to) {
                    let healed = w.until + base;
                    if healed > deliver {
                        deliver = healed;
                        changed = true;
                    }
                }
            }
        }
        deliver
    }

    /// Transmits a message over the (possibly faulty) network: returns the
    /// delivery times of the copies that survive — `[None, None]` if the
    /// message is dropped by an active fault window, `[Some(t), None]` if
    /// one copy is delivered, both `Some` if it is duplicated.
    ///
    /// Fault windows whose scope covers the link and whose time window covers
    /// the *send* time apply; multiple active windows compound (any drop
    /// drops, any duplication duplicates, jitters add). A window whose faults
    /// are all zero consumes no randomness, so a no-op fault window leaves
    /// the run byte-identical to one without it. Local deliveries
    /// (`from == to`) never cross the network and are exempt from faults.
    pub fn transmit<R: Rng>(
        &self,
        from: ProcessId,
        to: ProcessId,
        sent: Time,
        rng: &mut R,
    ) -> [Option<Time>; 2] {
        let mut dropped = false;
        let mut duplicated = false;
        let active = || self.faults.iter().filter(|w| w.applies(from, to, sent));
        for w in active() {
            if w.faults.drop_ppm > 0 && rng.gen_range(0u32..1_000_000) < w.faults.drop_ppm {
                dropped = true;
            }
            if w.faults.dup_ppm > 0 && rng.gen_range(0u32..1_000_000) < w.faults.dup_ppm {
                duplicated = true;
            }
        }
        if dropped {
            return [None, None];
        }
        let jitter = |rng: &mut R| -> u64 {
            active()
                .filter(|w| w.faults.extra_jitter > 0)
                .map(|w| rng.gen_range(0..=w.faults.extra_jitter))
                .sum()
        };
        let first_jitter = jitter(rng);
        let first = self.delivery_time(from, to, sent, rng) + first_jitter;
        let second = duplicated.then(|| {
            let second_jitter = jitter(rng);
            self.delivery_time(from, to, sent, rng) + second_jitter
        });
        [Some(first), second]
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::fixed_delay(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_delay_is_constant() {
        let net = NetworkModel::fixed_delay(3);
        let mut r = rng();
        let t = net.delivery_time(ProcessId::new(0), ProcessId::new(1), Time::new(10), &mut r);
        assert_eq!(t, Time::new(13));
    }

    #[test]
    fn fixed_delay_zero_is_clamped_to_one() {
        let net = NetworkModel::fixed_delay(0);
        let mut r = rng();
        let t = net.delivery_time(ProcessId::new(0), ProcessId::new(1), Time::new(10), &mut r);
        assert_eq!(t, Time::new(11), "zero delay would break causality");
    }

    #[test]
    fn uniform_delay_within_bounds() {
        let net = NetworkModel::uniform_delay(2, 5);
        let mut r = rng();
        for _ in 0..100 {
            let t = net.delivery_time(ProcessId::new(0), ProcessId::new(1), Time::new(0), &mut r);
            assert!(t >= Time::new(2) && t <= Time::new(5), "t = {t:?}");
        }
    }

    #[test]
    fn asymmetric_delay_depends_on_endpoints() {
        let slow: ProcessSet = [2].into_iter().collect();
        let net = NetworkModel::with_delay_model(DelayModel::Asymmetric {
            fast: 1,
            slow: 10,
            slow_processes: slow,
        });
        let mut r = rng();
        let fast = net.delivery_time(ProcessId::new(0), ProcessId::new(1), Time::ZERO, &mut r);
        let slow = net.delivery_time(ProcessId::new(0), ProcessId::new(2), Time::ZERO, &mut r);
        assert_eq!(fast, Time::new(1));
        assert_eq!(slow, Time::new(10));
    }

    #[test]
    fn partition_delays_cross_group_traffic_until_heal() {
        let minority: ProcessSet = [0].into_iter().collect();
        let net = NetworkModel::fixed_delay(2).with_partition(
            Time::new(10),
            Time::new(100),
            PartitionSpec::isolate(minority, 3),
        );
        let mut r = rng();
        // Cross-partition message sent during the window: held until heal.
        let t = net.delivery_time(ProcessId::new(0), ProcessId::new(1), Time::new(20), &mut r);
        assert_eq!(t, Time::new(102));
        // Message inside the majority group flows normally.
        let t = net.delivery_time(ProcessId::new(1), ProcessId::new(2), Time::new(20), &mut r);
        assert_eq!(t, Time::new(22));
        // Message sent before the window but delivered inside it is also held.
        let t = net.delivery_time(ProcessId::new(0), ProcessId::new(1), Time::new(9), &mut r);
        assert_eq!(t, Time::new(102));
        // Message after the heal flows normally.
        let t = net.delivery_time(ProcessId::new(0), ProcessId::new(1), Time::new(150), &mut r);
        assert_eq!(t, Time::new(152));
    }

    #[test]
    fn partitioned_query() {
        let minority: ProcessSet = [0, 1].into_iter().collect();
        let net = NetworkModel::fixed_delay(1).with_partition(
            Time::new(5),
            Time::new(10),
            PartitionSpec::isolate(minority, 4),
        );
        assert!(net.partitioned(ProcessId::new(0), ProcessId::new(2), Time::new(7)));
        assert!(!net.partitioned(ProcessId::new(0), ProcessId::new(1), Time::new(7)));
        assert!(!net.partitioned(ProcessId::new(0), ProcessId::new(2), Time::new(10)));
    }

    #[test]
    fn self_messages_are_always_connected() {
        let spec = PartitionSpec::isolate([0].into_iter().collect(), 3);
        assert!(spec.connected(ProcessId::new(0), ProcessId::new(0)));
        assert!(!spec.connected(ProcessId::new(0), ProcessId::new(1)));
        assert!(spec.connected(ProcessId::new(1), ProcessId::new(2)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_partition_window_panics() {
        let _ = NetworkModel::fixed_delay(1).with_partition(
            Time::new(10),
            Time::new(10),
            PartitionSpec::new(vec![]),
        );
    }

    #[test]
    fn transmit_without_faults_matches_delivery_time() {
        let net = NetworkModel::fixed_delay(3);
        let mut r = rng();
        let times = net.transmit(ProcessId::new(0), ProcessId::new(1), Time::new(10), &mut r);
        assert_eq!(times, [Some(Time::new(13)), None]);
    }

    #[test]
    fn noop_fault_window_consumes_no_randomness() {
        let faulty = NetworkModel::uniform_delay(1, 9).with_faults(
            Time::ZERO,
            Time::new(1_000),
            LinkScope::All,
            LinkFaults::new(0.0, 0.0, 0),
        );
        let plain = NetworkModel::uniform_delay(1, 9);
        let mut r1 = rng();
        let mut r2 = rng();
        for k in 0..50u64 {
            let a = faulty.transmit(ProcessId::new(0), ProcessId::new(1), Time::new(k), &mut r1);
            let b = plain.transmit(ProcessId::new(0), ProcessId::new(1), Time::new(k), &mut r2);
            assert_eq!(a, b, "no-op fault window must not perturb the run");
        }
    }

    #[test]
    fn certain_drop_is_rejected_and_heavy_loss_drops_most_messages() {
        let net = NetworkModel::fixed_delay(1).with_faults(
            Time::ZERO,
            Time::new(100),
            LinkScope::All,
            LinkFaults::new(0.9, 0.0, 0),
        );
        let mut r = rng();
        let mut lost = 0;
        for k in 0..100u64 {
            match net.transmit(ProcessId::new(0), ProcessId::new(1), Time::new(k), &mut r) {
                [None, None] => lost += 1,
                [Some(_), None] => {}
                copies => panic!("a lossy link never duplicates: {copies:?}"),
            }
        }
        assert!(lost > 60, "expected heavy loss, lost {lost}/100");
        // outside the window the link is reliable again
        let after = net.transmit(ProcessId::new(0), ProcessId::new(1), Time::new(500), &mut r);
        assert!(matches!(after, [Some(_), None]));
    }

    #[test]
    fn duplication_yields_two_copies_and_jitter_spreads_them() {
        let net = NetworkModel::fixed_delay(2).with_faults(
            Time::ZERO,
            Time::new(100),
            LinkScope::All,
            LinkFaults::new(0.0, 1.0, 4),
        );
        let mut r = rng();
        let times = net.transmit(ProcessId::new(0), ProcessId::new(1), Time::new(10), &mut r);
        assert!(
            times.iter().all(Option::is_some),
            "dup_prob = 1 must duplicate"
        );
        for t in times.into_iter().flatten() {
            assert!(t >= Time::new(12) && t <= Time::new(16), "t = {t:?}");
        }
    }

    #[test]
    fn fault_scopes_select_links_and_exempt_local_delivery() {
        let minority: ProcessSet = [0].into_iter().collect();
        let all = LinkScope::All;
        let touching = LinkScope::Touching(minority.clone());
        let directed = LinkScope::Directed {
            from: minority.clone(),
            to: [1].into_iter().collect(),
        };
        let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
        assert!(all.applies(p0, p1));
        assert!(!all.applies(p1, p1), "local links are exempt");
        assert!(touching.applies(p1, p0) && touching.applies(p0, p2));
        assert!(!touching.applies(p1, p2));
        assert!(directed.applies(p0, p1));
        assert!(!directed.applies(p1, p0), "directed scope is one-way");
    }

    #[test]
    #[should_panic(expected = "drop_prob must be in [0, 1)")]
    fn certain_loss_violates_the_fairness_assumption() {
        let _ = LinkFaults::new(1.0, 0.0, 0);
    }

    #[test]
    fn link_fault_accessors() {
        let f = LinkFaults::new(0.25, 0.5, 3);
        assert_eq!(f.drop_ppm(), 250_000);
        assert_eq!(f.dup_ppm(), 500_000);
        assert_eq!(f.extra_jitter(), 3);
        assert!(!f.is_noop());
        assert!(LinkFaults::new(0.0, 0.0, 0).is_noop());
        let net =
            NetworkModel::fixed_delay(1).with_faults(Time::ZERO, Time::new(10), LinkScope::All, f);
        assert_eq!(net.fault_windows().len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_fault_window_panics() {
        let _ = NetworkModel::fixed_delay(1).with_faults(
            Time::new(5),
            Time::new(5),
            LinkScope::All,
            LinkFaults::new(0.0, 0.0, 0),
        );
    }
}

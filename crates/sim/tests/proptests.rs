//! Property-based tests of the simulator substrate.

use ec_sim::{
    Algorithm, Context, FailurePattern, NetworkModel, NullFd, OutputHistory, PartitionSpec,
    ProcessId, ProcessSet, Time, WorldBuilder,
};
use proptest::prelude::*;

/// A trivial flooding algorithm used to exercise the runner: every input is
/// broadcast once, and every received value is appended to the output.
#[derive(Default)]
struct Flood {
    seen: Vec<u32>,
}

impl Algorithm for Flood {
    type Msg = u32;
    type Input = u32;
    type Output = Vec<u32>;
    type Fd = ();

    fn on_input(&mut self, input: u32, ctx: &mut Context<'_, Self>) {
        ctx.broadcast(input);
    }

    fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, Self>) {
        self.seen.push(msg);
        ctx.output(self.seen.clone());
    }
}

fn arb_crashes(n: usize) -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0..n, 0u64..200), 0..n)
}

proptest! {
    /// F(t) ⊆ F(t+1): the crashed set of a failure pattern is monotone.
    #[test]
    fn failure_pattern_is_monotone(crashes in arb_crashes(6)) {
        let pairs: Vec<(ProcessId, Time)> = crashes
            .iter()
            .map(|(p, t)| (ProcessId::new(*p), Time::new(*t)))
            .collect();
        let f = FailurePattern::with_crashes(6, &pairs);
        for t in 0..220u64 {
            let a = f.crashed_at(Time::new(t));
            let b = f.crashed_at(Time::new(t + 1));
            prop_assert!(a.is_subset(&b));
        }
        // correct ∪ faulty = Π and the two sets are disjoint
        let all = f.correct().union(&f.faulty());
        prop_assert_eq!(all.len(), 6);
        prop_assert!(f.correct().intersection(&f.faulty()).is_empty());
    }

    /// Delivery times are strictly after the send time and respect the
    /// uniform bounds when no partition is active.
    #[test]
    fn delivery_time_respects_bounds(
        min in 1u64..5,
        extra in 0u64..10,
        sent in 0u64..1000,
        seed in any::<u64>(),
        from in 0usize..4,
        to in 0usize..4,
    ) {
        use rand::SeedableRng;
        let max = min + extra;
        let net = NetworkModel::uniform_delay(min, max);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = net.delivery_time(
            ProcessId::new(from),
            ProcessId::new(to),
            Time::new(sent),
            &mut rng,
        );
        prop_assert!(d > Time::new(sent));
        prop_assert!(d <= Time::new(sent + max));
        prop_assert!(d >= Time::new(sent + min));
    }

    /// Cross-partition messages are never delivered while the partition that
    /// separates the endpoints is active.
    #[test]
    fn partition_holds_cross_group_messages(
        sent in 0u64..150,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let minority: ProcessSet = [0, 1].into_iter().collect();
        let window = (Time::new(50), Time::new(120));
        let net = NetworkModel::fixed_delay(3).with_partition(
            window.0,
            window.1,
            PartitionSpec::isolate(minority, 5),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = net.delivery_time(ProcessId::new(0), ProcessId::new(3), Time::new(sent), &mut rng);
        // never delivered inside the window
        prop_assert!(!(d >= window.0 && d < window.1), "delivered at {d:?} inside partition");
        // always delivered eventually (reliable links)
        prop_assert!(d < Time::new(10_000));
    }

    /// Runs are a pure function of the seed and the submitted inputs.
    #[test]
    fn runs_are_deterministic(
        seed in any::<u64>(),
        inputs in prop::collection::vec((0usize..4, 1u32..100, 0u64..50), 1..8),
    ) {
        let run = || {
            let mut w = WorldBuilder::new(4)
                .network(NetworkModel::uniform_delay(1, 5))
                .seed(seed)
                .build_with(|_p| Flood::default(), NullFd);
            for (p, v, t) in &inputs {
                w.schedule_input(ProcessId::new(*p), *v, *t);
            }
            w.run_until(500);
            (w.output_history().clone(), w.metrics().clone())
        };
        prop_assert_eq!(run(), run());
    }

    /// Reliable links: every message sent to a correct process is eventually
    /// delivered (here: within the run horizon, since all delays are bounded).
    #[test]
    fn messages_to_correct_processes_are_delivered(
        seed in any::<u64>(),
        inputs in prop::collection::vec((0usize..4, 1u32..100, 0u64..50), 1..6),
        crashed in 0usize..4,
    ) {
        let failures = FailurePattern::no_failures(4)
            .with_crash(ProcessId::new(crashed), Time::new(60));
        let mut w = WorldBuilder::new(4)
            .network(NetworkModel::uniform_delay(1, 4))
            .failures(failures)
            .seed(seed)
            .build_with(|_p| Flood::default(), NullFd);
        for (p, v, t) in &inputs {
            w.schedule_input(ProcessId::new(*p), *v, *t);
        }
        w.run_until(1_000);
        // Every input is broadcast (its process is alive until t = 60), and
        // `Flood` outputs what it has received: each correct process got
        // every message sent to it, once.
        let mut sent: Vec<u32> = inputs.iter().map(|(_, v, _)| *v).collect();
        sent.sort_unstable();
        for to in w.process_ids().filter(|p| p.index() != crashed) {
            let mut received = w.output_history().last(to).cloned().unwrap_or_default();
            received.sort_unstable();
            prop_assert_eq!(&received, &sent, "messages to correct process {:?}", to);
        }
    }

    /// `OutputHistory::value_at` returns the latest output at or before t.
    #[test]
    fn output_history_value_at_is_latest_before(
        outputs in prop::collection::vec((0u64..100, 0u32..1000), 1..20),
    ) {
        let mut sorted = outputs.clone();
        sorted.sort_by_key(|(t, _)| *t);
        let mut h = OutputHistory::new(1);
        for (t, v) in &sorted {
            h.record(ProcessId::new(0), Time::new(*t), *v);
        }
        for probe in 0u64..110 {
            let expected = sorted
                .iter()
                .rev()
                .find(|(t, _)| *t <= probe)
                .map(|(_, v)| v);
            prop_assert_eq!(h.value_at(ProcessId::new(0), Time::new(probe)), expected);
        }
    }

    /// Flooded values reach every correct process exactly once per input.
    #[test]
    fn flood_reaches_all_correct_processes(
        seed in any::<u64>(),
        values in prop::collection::vec(1u32..1000, 1..5),
    ) {
        let n = 5;
        let mut w = WorldBuilder::new(n)
            .network(NetworkModel::uniform_delay(1, 3))
            .seed(seed)
            .build_with(|_p| Flood::default(), NullFd);
        for (i, v) in values.iter().enumerate() {
            w.schedule_input(ProcessId::new(i % n), *v, (i as u64) * 7);
        }
        w.run_until(2_000);
        for p in w.process_ids() {
            let last = w.output_history().last(p).cloned().unwrap_or_default();
            prop_assert_eq!(last.len(), values.len());
            let mut sorted_last = last.clone();
            sorted_last.sort_unstable();
            let mut sorted_values = values.clone();
            sorted_values.sort_unstable();
            prop_assert_eq!(sorted_last, sorted_values);
        }
    }
}

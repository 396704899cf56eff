//! Property-based tests of the discrete-event engine: time monotonicity,
//! per-pair FIFO delivery, timer semantics, determinism under loss, queue
//! independence, and model-checker snapshot/restore.

use proptest::prelude::*;

use snooze_simcore::mc::McPending;
use snooze_simcore::prelude::*;

/// Records every message it receives with the receive time and a
/// sequence number the sender embedded.
struct Recorder {
    received: Vec<(SimTime, u64)>,
    last_seen_now: SimTime,
    time_went_backwards: bool,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            received: Vec::new(),
            last_seen_now: SimTime::ZERO,
            time_went_backwards: false,
        }
    }
}

impl Component for Recorder {
    type Msg = u64;
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _src: ComponentId, seq: u64) {
        let now = ctx.now();
        if now < self.last_seen_now {
            self.time_went_backwards = true;
        }
        self.last_seen_now = now;
        self.received.push((now, seq));
    }
}

/// Sends `count` numbered messages to `target`, spaced by `gap_us`.
struct Sender {
    target: ComponentId,
    count: u64,
    gap_us: u64,
    sent: u64,
}

impl Component for Sender {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(SimSpan::from_micros(1), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: ComponentId, _: u64) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        if self.sent < self.count {
            let target = self.target;
            let seq = self.sent;
            ctx.send(target, seq);
            self.sent += 1;
            ctx.set_timer(SimSpan::from_micros(self.gap_us.max(1)), 0);
        }
    }
}

/// Sets one timer per configured delay and records the fire times.
struct TimerBank {
    delays: Vec<u64>,
    fired: Vec<(SimTime, u64)>,
}

impl Component for TimerBank {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for (i, &d) in self.delays.iter().enumerate() {
            ctx.set_timer(SimSpan::from_micros(d), i as u64);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: ComponentId, _: u64) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
        self.fired.push((ctx.now(), tag));
    }
}

/// Recorder variant that also labels a span per receipt, so the span
/// digest witnesses payload content, not just event ordering.
struct TracingRecorder {
    received: u64,
}

impl Component for TracingRecorder {
    type Msg = u64;
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: ComponentId, seq: u64) {
        self.received += 1;
        let span = ctx.span_instant("gossip");
        ctx.span_label(span, "src", src);
        ctx.span_label(span, "seq", seq);
    }
}

node_enum! {
    /// The property-test system: numbered-message senders and recorders.
    enum PropNode: u64 {
        Recorder(Recorder) as as_recorder,
        Sender(Sender) as as_sender,
        TimerBank(TimerBank) as as_timer_bank,
        TracingRecorder(TracingRecorder) as as_tracing_recorder,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Messages between one (src, dst) pair arrive in send order — the
    /// TCP-like FIFO contract — regardless of jittered latencies.
    #[test]
    fn per_pair_delivery_is_fifo(seed in any::<u64>(), count in 1u64..80, gap in 1u64..2000) {
        let mut sim: Engine<PropNode> =
            SimBuilder::new(seed).network(NetworkConfig::lan()).build();
        let rec = sim.add_component("rec", Recorder::new());
        let _snd = sim.add_component("snd", Sender { target: rec, count, gap_us: gap, sent: 0 });
        sim.run();
        let r = sim.component(rec).as_recorder().unwrap();
        prop_assert!(!r.time_went_backwards);
        prop_assert_eq!(r.received.len() as u64, count, "lossless network delivers all");
        let seqs: Vec<u64> = r.received.iter().map(|&(_, s)| s).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&seqs, &sorted, "FIFO violated");
        // Arrival times are non-decreasing too.
        prop_assert!(r.received.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    /// Under loss, the set of delivered messages is a subsequence of what
    /// was sent, and the whole run replays identically from the seed.
    #[test]
    fn lossy_delivery_is_a_deterministic_subsequence(seed in any::<u64>(), loss in 0.0f64..0.9) {
        let run = |seed: u64| -> Vec<u64> {
            let mut sim: Engine<PropNode> =
                SimBuilder::new(seed).network(NetworkConfig::lossy_lan(loss)).build();
            let rec = sim.add_component("rec", Recorder::new());
            let _snd =
                sim.add_component("snd", Sender { target: rec, count: 50, gap_us: 100, sent: 0 });
            sim.run();
            sim.component(rec).as_recorder().unwrap().received.iter().map(|&(_, s)| s).collect()
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(&a, &b, "same seed, same drops");
        // Subsequence of 0..50 in order.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&a, &sorted);
        prop_assert!(a.iter().all(|&s| s < 50));
    }

    /// Timers fire at exactly now + delay, in delay order, and cancelled
    /// handles never fire.
    #[test]
    fn timer_semantics(delays in prop::collection::vec(0u64..10_000, 1..20)) {
        let mut sim: Engine<PropNode> = SimBuilder::new(1).build();
        let id = sim.add_component("t", TimerBank { delays: delays.clone(), fired: vec![] });
        sim.run();
        let t = sim.component(id).as_timer_bank().unwrap();
        prop_assert_eq!(t.fired.len(), delays.len());
        for &(at, tag) in &t.fired {
            prop_assert_eq!(at.as_micros(), delays[tag as usize]);
        }
        // Fire order is (time, set-order) — non-decreasing times.
        prop_assert!(t.fired.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

#[test]
fn messages_from_distinct_sources_may_interleave_but_time_is_monotone() {
    let mut sim: Engine<PropNode> = SimBuilder::new(9).network(NetworkConfig::lan()).build();
    let rec = sim.add_component("rec", Recorder::new());
    for i in 0..5 {
        sim.add_component(
            format!("snd{i}"),
            Sender {
                target: rec,
                count: 20,
                gap_us: 150,
                sent: 0,
            },
        );
    }
    sim.run();
    let r = sim.component(rec).as_recorder().unwrap();
    assert_eq!(r.received.len(), 100);
    assert!(!r.time_went_backwards);
    assert!(r.received.windows(2).all(|w| w[0].0 <= w[1].0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two engine runs built identically from a random seed and a random
    /// ring topology (size, stride, loss rate) must produce bit-identical
    /// event and span digests — the foundation the `snooze-audit
    /// determinism` replay check rests on.
    #[test]
    fn replayed_runs_have_identical_digests(
        seed in any::<u64>(),
        n in 2usize..12,
        stride in 1usize..5,
        loss_bp in 0u32..1500,
    ) {
        let run = || {
            let loss = f64::from(loss_bp) / 10_000.0;
            let mut sim: Engine<PropNode> = SimBuilder::new(seed)
                .network(NetworkConfig::lossy_lan(loss))
                .build();
            let recorders: Vec<ComponentId> = (0..n)
                .map(|i| sim.add_component(format!("rec{i}"), TracingRecorder { received: 0 }))
                .collect();
            for (i, _) in recorders.iter().enumerate() {
                let target = recorders[(i + stride) % n];
                sim.add_component(
                    format!("snd{i}"),
                    Sender { target, count: 15, gap_us: 100 + (i as u64) * 13, sent: 0 },
                );
            }
            sim.run();
            let received: u64 = recorders
                .iter()
                .map(|&r| sim.component(r).as_tracing_recorder().unwrap().received)
                .sum();
            (sim.digest(), sim.span_digest(), sim.events_executed(), received)
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first, second, "same seed + topology must replay bit-identically");
    }
}

/// A gossip node: on start it pings its peers, every received message is
/// forwarded with a decremented TTL to a peer chosen by the TTL
/// (deterministic, but irregular), and a bounded timer keeps background
/// traffic flowing.
#[derive(Clone)]
struct Gossip {
    peers: Vec<ComponentId>,
    timers_left: u32,
    seen: u64,
    /// When the last message arrived: a timestamp, folded relative to
    /// now like the protocols' own, so a sub-fingerprint moves with the
    /// clock.
    heard_at: SimTime,
}

impl Component for Gossip {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for (i, &p) in self.peers.iter().enumerate() {
            ctx.send(p, 3 + i as u64);
        }
        if self.timers_left > 0 {
            ctx.set_timer(SimSpan::from_micros(700), 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _src: ComponentId, ttl: u64) {
        self.seen += 1;
        self.heard_at = ctx.now();
        // A span per receipt, so snapshots and restores carry a span log
        // that grows along every path.
        ctx.span_instant("gossip.seen");
        if ttl > 0 && !self.peers.is_empty() {
            let next = self.peers[(ttl as usize) % self.peers.len()];
            ctx.send(next, ttl - 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        if let Some(&first) = self.peers.first() {
            ctx.send(first, 2u64);
        }
        if self.timers_left > 0 {
            self.timers_left -= 1;
            ctx.set_timer(SimSpan::from_micros(900), 0);
        }
    }
}

impl McState for Gossip {
    fn mc_fold(&self, h: &mut McHasher) {
        h.word(self.peers.len() as u64);
        h.word(self.timers_left as u64);
        h.word(self.seen);
        h.time(self.heard_at);
    }
}

/// `n` gossip nodes, each wired to 1–3 pseudo-random peers drawn from
/// `seed`.
fn gossip(seed: u64, n: usize) -> Engine<Gossip> {
    let mut sim: Engine<Gossip> = SimBuilder::new(seed).network(NetworkConfig::lan()).build();
    let mut rng = SimRng::new(seed ^ 0x70_90_10);
    for i in 0..n {
        let n_peers = 1 + rng.range(0, 3);
        let peers = (0..n_peers).map(|_| ComponentId(rng.range(0, n))).collect();
        sim.add_component(
            format!("g{i}"),
            Gossip {
                peers,
                timers_left: 2 + rng.range(0, 3) as u32,
                seen: 0,
                heard_at: SimTime::ZERO,
            },
        );
    }
    sim
}

const GOSSIP_HORIZON: SimTime = SimTime(80_000);
/// Where the snapshot tests capture: every topology still has events in
/// flight (6 to 46 pending on the seeds tried; by 20 ms the gossip has
/// died out and nothing is).
const GOSSIP_MIDWAY: SimTime = SimTime(1_000);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot → perturb the way the model checker does (execute out of
    /// order, drop, crash/restart, gc, release) and run on → restore: the
    /// restored state fingerprints like the captured one and replays the
    /// history an unperturbed engine runs.
    #[test]
    fn mc_snapshot_perturb_restore_round_trips(seed in any::<u64>(), n in 3usize..16) {
        let mut reference = gossip(seed, n);
        reference.run_until(GOSSIP_HORIZON);
        let want = (reference.digest(), reference.events_executed());

        let mut sim = gossip(seed, n);
        sim.run_until(GOSSIP_MIDWAY);
        let snap = sim.mc_snapshot();
        let fp_before = sim.mc_fingerprint();

        let pending = sim.mc_pending();
        prop_assert!(!pending.is_empty());
        if let Some(last) = pending.last() {
            prop_assert!(sim.mc_execute_pending(last));
            prop_assert!(!sim.mc_drop_pending(last), "an executed event is gone");
            let bogus = McPending { seq: u64::MAX, ..*last };
            prop_assert!(!sim.mc_drop_pending(&bogus), "bogus seq is rejected");
        }
        if let Some(first) = sim.mc_pending().first() {
            prop_assert!(sim.mc_drop_pending(first));
        }
        sim.mc_inject_crash(ComponentId(0));
        sim.mc_inject_restart(ComponentId(0));
        sim.mc_gc();
        sim.mc_release();
        sim.run_until(GOSSIP_HORIZON);

        sim.mc_restore(&snap);
        prop_assert_eq!(sim.mc_fingerprint(), fp_before, "restore changed the fingerprint");
        sim.run_until(GOSSIP_HORIZON);
        prop_assert_eq!(
            (sim.digest(), sim.events_executed()),
            want,
            "restored run diverged (seed {})", seed
        );
    }

    /// The explorer's sibling loop: from one snapshot apply each action
    /// in turn, restoring between them only the core and the slot the
    /// action's descriptor names. Every sibling must start from the
    /// captured state, and the engine must end there.
    #[test]
    fn mc_restore_diff_is_a_full_restore_between_siblings(seed in any::<u64>(), n in 3usize..16) {
        let mut reference = gossip(seed, n);
        reference.run_until(GOSSIP_HORIZON);
        let want = (reference.digest(), reference.events_executed());

        let mut sim = gossip(seed, n);
        sim.run_until(GOSSIP_MIDWAY);
        let snap = sim.mc_snapshot();
        let fp_before = sim.mc_fingerprint();

        prop_assert!(!sim.mc_pending().is_empty());
        for p in sim.mc_pending() {
            prop_assert!(sim.mc_execute_pending(&p));
            sim.mc_gc();
            sim.mc_restore_diff(&snap, p.desc.target(), &snap);
            prop_assert_eq!(sim.mc_fingerprint(), fp_before, "after executing {:?}", p.desc);
        }
        if let Some(first) = sim.mc_pending().first() {
            prop_assert!(sim.mc_drop_pending(first));
            sim.mc_restore_diff(&snap, None, &snap);
        }
        let victim = ComponentId(n - 1);
        sim.mc_inject_crash(victim);
        sim.mc_restore_diff(&snap, Some(victim), &snap);
        prop_assert_eq!(sim.mc_fingerprint(), fp_before, "after the crash");

        sim.run_until(GOSSIP_HORIZON);
        prop_assert_eq!(
            (sim.digest(), sim.events_executed()),
            want,
            "run after partial restores diverged (seed {})", seed
        );
    }

    /// Each per-transition path against its whole-system counterpart,
    /// after every pending action of a snapshot (and a crash): the
    /// fingerprint that reuses the parent's sub-fingerprints equals the
    /// one computed from scratch; a child snapshot sharing the parent's
    /// slots restores to the same state as a full snapshot, and runs on
    /// to the same history; and a diff restore — from a dirty engine, or
    /// from one child to another — lands where `mc_restore` does. The
    /// parent is captured after its latest pending event ran first, so
    /// most actions run behind the clock and do not move it (the reuse
    /// path), and the messages they send do (the recompute path).
    #[test]
    fn shared_snapshots_and_diff_restores_match_full_ones(seed in any::<u64>(), n in 3usize..16) {
        let mut sim = gossip(seed, n);
        sim.run_until(GOSSIP_MIDWAY);
        let latest = *sim.mc_pending().last().expect("gossip in flight");
        prop_assert!(sim.mc_execute_pending(&latest));
        sim.mc_gc();
        let parent = sim.mc_snapshot();
        let seen = |sim: &Engine<Gossip>| {
            (sim.mc_fingerprint(), sim.digest(), sim.span_digest(), sim.now())
        };
        let at_parent = seen(&sim);
        let onward = |sim: &mut Engine<Gossip>| {
            sim.mc_release();
            sim.run_until(GOSSIP_HORIZON);
            (sim.digest(), sim.events_executed(), sim.span_digest())
        };

        let mut actions: Vec<Option<McPending>> = sim.mc_pending().into_iter().map(Some).collect();
        actions.push(None); // crash the last component
        let (mut children, mut clock_still) = (Vec::new(), 0);
        for (k, action) in actions.into_iter().enumerate() {
            // The engine is the previous child: take it as that snapshot,
            // clean, or as the parent plus the previous action's slot.
            let (current, dirty) = match children.last() {
                Some((child, _)) if k % 2 == 0 => (child, None),
                Some((_, touched)) => (&parent, *touched),
                None => (&parent, None),
            };
            sim.mc_restore_diff(current, dirty, &parent);
            prop_assert_eq!(seen(&sim), at_parent, "diff restore before action {}", k);

            let touched = match action {
                Some(p) => {
                    prop_assert!(sim.mc_execute_pending(&p));
                    p.desc.target()
                }
                None => {
                    sim.mc_inject_crash(ComponentId(n - 1));
                    Some(ComponentId(n - 1))
                }
            };
            sim.mc_gc();
            clock_still += usize::from(sim.now() == parent.now());
            prop_assert_eq!(
                sim.mc_fingerprint_after(&parent, touched),
                sim.mc_fingerprint(),
                "reused sub-fingerprints after action {}", k
            );
            let want = seen(&sim);
            let shared = sim.mc_snapshot_after(&parent, touched);
            let full = sim.mc_snapshot();
            let mut run_on = Vec::new();
            for snap in [&shared, &full] {
                sim.mc_restore(&parent);
                sim.mc_restore(snap);
                prop_assert_eq!(seen(&sim), want, "restored child of action {}", k);
                run_on.push(onward(&mut sim));
            }
            prop_assert_eq!(run_on[0], run_on[1], "shared vs full child of action {}", k);
            // A grandchild reuses the child's own sub-fingerprints.
            sim.mc_restore(&shared);
            if let Some(p) = sim.mc_pending().first() {
                prop_assert!(sim.mc_execute_pending(p));
                sim.mc_gc();
                prop_assert_eq!(
                    sim.mc_fingerprint_after(&shared, p.desc.target()),
                    sim.mc_fingerprint(),
                    "grandchild through action {}", k
                );
                sim.mc_restore_diff(&shared, p.desc.target(), &shared);
            }
            children.push((shared, touched));
        }
        prop_assert!(clock_still > 1, "the reuse path ran {} times", clock_still);

        // Child to child: both differ from the parent in their own slot.
        for pair in children.windows(2) {
            let (from, to) = (&pair[0].0, &pair[1].0);
            sim.mc_restore(to);
            let want = seen(&sim);
            sim.mc_restore(from);
            sim.mc_restore_diff(from, None, to);
            prop_assert_eq!(seen(&sim), want, "diff restore between siblings");
        }
    }
}

//! `engine_micro`: the event engine alone, on bare components.
//!
//! Four message patterns over `SimBuilder::new(seed)` with the LAN
//! network model, each built to execute a known number of events:
//! self-timers, a two-party ping-pong, a 1024-component forward ring
//! (deep component table, one message in flight) and a 1024-member
//! multicast fan-out with replies — the GM↔LC heartbeat pattern, many
//! messages in flight at once.

use std::time::Instant;

use snooze_simcore::prelude::*;

use super::{per_second, Harness, Outcome, Params};
use crate::checks;
use crate::spans::Recorder;

struct TimerStorm {
    remaining: u64,
}

impl Component for TimerStorm {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(SimSpan::from_micros(1), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: ComponentId, _: u64) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.set_timer(SimSpan::from_micros(1), 0);
        }
    }
}

struct PingPong {
    peer: Option<ComponentId>,
    remaining: u64,
}

impl Component for PingPong {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, 0u64);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: ComponentId, _msg: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(src, 0u64);
        }
    }
}

struct RingNode {
    next: ComponentId,
    remaining: u64,
    kick_off: bool,
}

impl Component for RingNode {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.kick_off {
            ctx.send(self.next, 0u64);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _src: ComponentId, hop: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.next, hop + 1);
        }
    }
}

/// Hub or member of the fan-out pattern. The hub multicasts a beat each
/// period and counts replies; a member answers every beat.
enum Fanout {
    Hub {
        group: GroupId,
        rounds_left: u64,
        replies: u64,
    },
    Member,
}

const BEAT: u64 = 0;
const REPLY: u64 = 1;

impl Component for Fanout {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if matches!(self, Fanout::Hub { .. }) {
            ctx.set_timer(SimSpan::from_millis(100), 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: ComponentId, msg: u64) {
        match self {
            Fanout::Member if msg == BEAT => ctx.send(src, REPLY),
            Fanout::Hub { replies, .. } if msg == REPLY => *replies += 1,
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
        if let Fanout::Hub {
            group, rounds_left, ..
        } = self
        {
            if *rounds_left > 0 {
                *rounds_left -= 1;
                ctx.multicast(*group, || BEAT);
                ctx.set_timer(SimSpan::from_millis(100), 0);
            }
        }
    }
}

/// A pattern's result: events executed and the events it was built for.
pub struct PatternRun {
    pub executed: u64,
    pub expected: u64,
    pub digest: u64,
}

/// A built engine, ready to run: building is set-up, running is the body.
pub type Pattern = Box<dyn FnOnce() -> PatternRun>;

fn builder(seed: u64) -> SimBuilder {
    SimBuilder::new(seed).network(NetworkConfig::lan())
}

fn pattern<C: Component + 'static>(mut sim: Engine<C>, expected: u64) -> Pattern {
    Box::new(move || {
        sim.run();
        PatternRun {
            executed: sim.events_executed(),
            expected,
            digest: sim.digest(),
        }
    })
}

pub fn timer_storm(seed: u64, events: u64) -> Pattern {
    let mut sim: Engine<TimerStorm> = builder(seed).build();
    // One start event, then `events - 1` timer firings.
    sim.add_component(
        "storm",
        TimerStorm {
            remaining: events - 2,
        },
    );
    pattern(sim, events)
}

pub fn ping_pong(seed: u64, events: u64) -> Pattern {
    let mut sim: Engine<PingPong> = builder(seed).build();
    // Two starts and the opening delivery; each side then answers
    // `replies` times.
    let replies = (events - 3) / 2;
    let a = sim.add_component(
        "a",
        PingPong {
            peer: None,
            remaining: replies,
        },
    );
    sim.add_component(
        "b",
        PingPong {
            peer: Some(a),
            remaining: replies,
        },
    );
    pattern(sim, 3 + 2 * replies)
}

pub fn ring(seed: u64, nodes: usize, events: u64) -> Pattern {
    let mut sim: Engine<RingNode> = builder(seed).build();
    // `nodes` starts and the opening delivery; every node then forwards
    // `laps` times and the token dies at the first exhausted node.
    let laps = (events - nodes as u64 - 1) / nodes as u64;
    for i in 0..nodes {
        sim.add_component(
            format!("ring{i}"),
            RingNode {
                next: ComponentId((i + 1) % nodes),
                remaining: laps,
                kick_off: i == 0,
            },
        );
    }
    pattern(sim, nodes as u64 + 1 + laps * nodes as u64)
}

pub fn fanout(seed: u64, members: usize, events: u64) -> Pattern {
    let mut sim: Engine<Fanout> = builder(seed).build();
    let group = sim.create_group();
    // Per round: one hub timer, a beat and a reply per member. On top:
    // one start per component and the hub's last, idle timer.
    let per_round = 1 + 2 * members as u64;
    let rounds = (events - members as u64 - 2) / per_round;
    let hub = sim.add_component(
        "hub",
        Fanout::Hub {
            group,
            rounds_left: rounds,
            replies: 0,
        },
    );
    for i in 0..members {
        let id = sim.add_component(format!("member{i}"), Fanout::Member);
        sim.join_group(group, id);
    }
    let expected = members as u64 + 2 + rounds * per_round;
    Box::new(move || {
        sim.run();
        let replies = match sim.component(hub) {
            Fanout::Hub { replies, .. } => *replies,
            Fanout::Member => 0,
        };
        PatternRun {
            // A lost reply must read as a failure, not as a faster run.
            executed: if replies == rounds * members as u64 {
                sim.events_executed()
            } else {
                0
            },
            expected,
            digest: sim.digest(),
        }
    })
}

fn measure(rec: &mut Recorder, out: &mut Outcome, name: &str, pattern: Pattern) {
    let start = Instant::now();
    let r = rec.span(&format!("simcore.{name}.run"), |_| pattern());
    let seconds = start.elapsed().as_secs_f64();
    out.attempted += r.expected;
    out.failed += r.expected.saturating_sub(r.executed);
    out.check(checks::events_as_expected(name, r.executed, r.expected));
    out.exact.push((format!("simcore.{name}.digest"), r.digest));
    out.value(
        format!("simcore.{name}.events_per_s"),
        per_second(r.executed as f64, seconds),
    );
}

pub fn iteration(h: &mut Harness) -> Result<Outcome, String> {
    let seed = h.seed;
    let patterns = h.timed_setup(|_| {
        let p = Params::load("engine_micro")?;
        let events = p.int("events")?;
        Ok::<_, String>([
            ("timer_storm", timer_storm(seed, events)),
            ("ping_pong", ping_pong(seed, events)),
            (
                "ring1024",
                ring(seed, p.int("ring_nodes")? as usize, events),
            ),
            (
                "fanout1024",
                fanout(seed, p.int("fanout_members")? as usize, events),
            ),
        ])
    })?;
    let mut out = Outcome::default();
    h.timed_body(|rec| {
        for (name, pattern) in patterns {
            measure(rec, &mut out, name, pattern);
        }
    });
    out.count("simcore.events", out.attempted);
    Ok(out)
}

//! The Entry Point (EP) — the client-facing layer.
//!
//! Paper §II-A: "A client layer provides the user interface which is
//! implemented by a predefined number of replicated Entry Points (EPs)
//! and queried by the clients to discover the current GL."
//!
//! EPs listen for GL heartbeats on the GL multicast group, answer
//! [`DiscoverGl`] queries, and forward [`SubmitVm`] requests to the
//! current GL (dropping them when no GL is known — clients retry).

use std::sync::Arc;

use snooze_simcore::engine::{Component, ComponentId, Ctx, GroupId};
use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::telemetry::label::label;
use snooze_simcore::time::SimTime;

use crate::config::SnoozeConfig;
use crate::messages::{GlInfo, SnoozeMsg};

/// The Entry Point component.
#[derive(Clone)]
pub struct EntryPoint {
    config: Arc<SnoozeConfig>,
    gl_group: GroupId,
    gl: Option<ComponentId>,
    last_gl_heartbeat: SimTime,
}

impl EntryPoint {
    /// An EP discovering the GL through heartbeats on `gl_group`.
    pub fn new(config: impl Into<Arc<SnoozeConfig>>, gl_group: GroupId) -> Self {
        EntryPoint {
            config: config.into(),
            gl_group,
            gl: None,
            last_gl_heartbeat: SimTime::ZERO,
        }
    }

    /// The GL this EP currently believes in.
    pub fn current_gl(&self) -> Option<ComponentId> {
        self.gl
    }

    fn gl_if_fresh(&self, now: SimTime) -> Option<ComponentId> {
        // A GL silent for several heartbeat periods is presumed dead;
        // withhold it from clients until a heartbeat re-confirms.
        let stale = now.since(self.last_gl_heartbeat) > self.config.heartbeat_period * 4;
        if stale {
            None
        } else {
            self.gl
        }
    }
}

impl McState for EntryPoint {
    fn mc_fold(&self, h: &mut McHasher) {
        h.opt_id(self.gl);
        h.time(self.last_gl_heartbeat);
    }
}

impl Component for EntryPoint {
    type Msg = SnoozeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        ctx.join_group(self.gl_group);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, src: ComponentId, msg: SnoozeMsg) {
        let now = ctx.now();
        match msg {
            SnoozeMsg::GlHeartbeat(hb) => {
                self.gl = Some(hb.gl);
                self.last_gl_heartbeat = now;
            }
            SnoozeMsg::DiscoverGl(_) => {
                let info = GlInfo {
                    gl: self.gl_if_fresh(now),
                };
                ctx.send(src, info);
            }
            SnoozeMsg::SubmitVm(submit) => match self.gl_if_fresh(now) {
                Some(gl) => {
                    // One hop-span per forward: child of the client's
                    // submission span, parent of the GL's dispatch span.
                    let hop = ctx.span_open("ep.forward");
                    ctx.span_label(hop, "vm", submit.spec.id.0);
                    ctx.send(gl, submit);
                    ctx.span_close(hop);
                    ctx.metrics()
                        .incr_with("ep.submissions", &label("outcome", "forwarded"));
                }
                None => {
                    ctx.metrics()
                        .incr_with("ep.submissions", &label("outcome", "dropped"));
                }
            },
            // Everything else is addressed to another role; drop it.
            _ => {}
        }
    }

    fn on_restart(&mut self, _ctx: &mut Ctx<'_, SnoozeMsg>) {
        self.gl = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{DiscoverGl, GlHeartbeat};
    use snooze_simcore::prelude::*;

    /// Poses as a GL: multicasts heartbeats for a while, then goes quiet.
    struct FakeGl {
        group: GroupId,
        beats_left: u32,
    }

    impl Component for FakeGl {
        type Msg = SnoozeMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
            ctx.join_group(self.group);
            ctx.set_timer(SimSpan::from_millis(500), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, SnoozeMsg>, _: ComponentId, _: SnoozeMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, _tag: u64) {
            if self.beats_left > 0 {
                self.beats_left -= 1;
                let me = ctx.id();
                ctx.multicast(self.group, move || GlHeartbeat { gl: me });
                ctx.set_timer(SimSpan::from_millis(500), 0);
            }
        }
    }

    /// Queries DiscoverGl on a schedule and records the answers.
    struct Asker {
        ep: ComponentId,
        at: Vec<SimTime>,
        answers: Vec<(SimTime, Option<ComponentId>)>,
    }

    impl Component for Asker {
        type Msg = SnoozeMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
            for (i, t) in self.at.clone().into_iter().enumerate() {
                ctx.set_timer(t.since(SimTime::ZERO), i as u64);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, _src: ComponentId, msg: SnoozeMsg) {
            if let SnoozeMsg::GlInfo(info) = msg {
                self.answers.push((ctx.now(), info.gl));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, _tag: u64) {
            let ep = self.ep;
            ctx.send(ep, DiscoverGl);
        }
    }

    node_enum! {
        /// EP test system: the EP under test plus scripted peers.
        enum EpTestNode: SnoozeMsg {
            Ep(EntryPoint) as as_ep,
            FakeGl(FakeGl) as as_fake_gl,
            Asker(Asker) as as_asker,
        }
    }

    #[test]
    fn ep_withholds_a_silent_gl() {
        let config = crate::config::SnoozeConfig::fast_test(); // hb 500 ms ⇒ stale after 2 s
        let mut sim: Engine<EpTestNode> = SimBuilder::new(3).network(NetworkConfig::lan()).build();
        let group = sim.create_group();
        let ep = sim.add_component("ep", EntryPoint::new(config, group));
        sim.join_group(group, ep);
        // 6 heartbeats (3 s of life), then silence.
        let gl = sim.add_component(
            "fake-gl",
            FakeGl {
                group,
                beats_left: 6,
            },
        );
        let asker = sim.add_component(
            "asker",
            Asker {
                ep,
                at: vec![SimTime::from_secs(2), SimTime::from_secs(10)],
                answers: vec![],
            },
        );
        sim.run_until(SimTime::from_secs(12));
        let a = sim.component(asker).as_asker().unwrap();
        assert_eq!(a.answers.len(), 2);
        assert_eq!(a.answers[0].1, Some(gl), "fresh GL is reported");
        assert_eq!(a.answers[1].1, None, "silent GL is withheld");
        // The EP still remembers who it was (for trace continuity).
        assert_eq!(sim.component(ep).as_ep().unwrap().current_gl(), Some(gl));
    }
}

//! Criterion bench for the simulation substrate itself: raw event
//! throughput of the discrete-event engine (timer storms, message
//! ping-pong, and the deliver path at fleet sizes), which bounds how
//! large a cluster the experiments can simulate — plus the
//! `consolidators` group, which times every `ConsolidatorRegistry`
//! algorithm on a fixed 512-VM all-distinct GRID'11 instance and a
//! 12-flavour 520-VM × 240-host one (the reconfiguration kernel the GM
//! runs live).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use snooze_consolidation::problem::InstanceGenerator;
use snooze_consolidation::registry::{ConsolidatorRegistry, ParamValue, Params, REGISTRY_KEYS};
use snooze_simcore::prelude::*;
use snooze_simcore::rng::SimRng;

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

/// One of `n` peers in a deliver-path ring: each message is forwarded to
/// the next component, exercising the full typed deliver path (network
/// latency draw, queue, dispatch, match) across a large component table.
struct RingNode {
    next: ComponentId,
    remaining: u64,
    kick_off: bool,
}

impl Component for RingNode {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.kick_off {
            let next = self.next;
            ctx.send(next, 0u64);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _src: ComponentId, hop: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let next = self.next;
            ctx.send(next, hop + 1);
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    const EVENTS: u64 = 100_000;
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_with_input(BenchmarkId::new("timer_storm", EVENTS), &EVENTS, |b, &n| {
        b.iter(|| {
            let mut sim: Engine<TimerStorm> = SimBuilder::new(1).build();
            sim.add_component("storm", TimerStorm { remaining: n });
            sim.run();
            black_box(sim.events_executed())
        })
    });
    group.bench_with_input(BenchmarkId::new("ping_pong", EVENTS), &EVENTS, |b, &n| {
        b.iter(|| {
            let mut sim: Engine<PingPong> =
                SimBuilder::new(1).network(NetworkConfig::lan()).build();
            let a = sim.add_component(
                "a",
                PingPong {
                    peer: None,
                    remaining: n / 2,
                },
            );
            let _b = sim.add_component(
                "b",
                PingPong {
                    peer: Some(a),
                    remaining: n / 2,
                },
            );
            sim.run();
            black_box(sim.events_executed())
        })
    });
    group.finish();

    // Queue-implementation axis: the same 1024-component
    // ring on the classic binary heap vs the bucket (calendar) queue.
    // Digests are identical either way; only the pop/push cost moves.
    let mut group = c.benchmark_group("queue_impl");
    group.throughput(Throughput::Elements(EVENTS));
    for &(queue, label) in &[(QueueKind::Heap, "heap"), (QueueKind::Bucket, "bucket")] {
        group.bench_function(BenchmarkId::new("ring1024", label), |b| {
            b.iter(|| {
                let mut sim: Engine<RingNode> = SimBuilder::new(1)
                    .network(NetworkConfig::lan())
                    .queue(queue)
                    .build();
                let n_components = 1024usize;
                let per_node = EVENTS / n_components as u64 + 1;
                for i in 0..n_components {
                    sim.add_component(
                        format!("ring{i}"),
                        RingNode {
                            next: ComponentId((i + 1) % n_components),
                            remaining: per_node,
                            kick_off: i == 0,
                        },
                    );
                }
                sim.run_until(SimTime::from_secs(3600));
                black_box(sim.events_executed())
            })
        });
    }
    group.finish();

    // Deliver-path throughput at fleet sizes: the component-count axis
    // E11 lives on. Each size forwards the same total number of
    // messages around a ring of that many components.
    let mut group = c.benchmark_group("deliver_path");
    group.throughput(Throughput::Elements(EVENTS));
    for &components in &[128usize, 512, 1024] {
        group.bench_with_input(
            BenchmarkId::new("ring", components),
            &components,
            |b, &n_components| {
                b.iter(|| {
                    let mut sim: Engine<RingNode> =
                        SimBuilder::new(1).network(NetworkConfig::lan()).build();
                    let per_node = EVENTS / n_components as u64 + 1;
                    for i in 0..n_components {
                        sim.add_component(
                            format!("ring{i}"),
                            RingNode {
                                next: ComponentId((i + 1) % n_components),
                                remaining: per_node,
                                kick_off: i == 0,
                            },
                        );
                    }
                    sim.run_until(SimTime::from_secs(3600));
                    black_box(sim.events_executed())
                })
            },
        );
    }
    group.finish();
}

/// Every registry algorithm on two fixed instances at the E12/E14 fleet
/// scale — the cost of a single reconfiguration pass. `grid11_512` has
/// 512 all-distinct GRID'11 demands; `flavours_520x240` has 520 VMs
/// drawn from the trace generator's 12 flavours on 240 hosts, the
/// duplicate-heavy shape the live system actually hands the packers.
/// `bnb` runs under a small node budget (it is exact search; unbounded
/// it would not return at this size) — the same way the arena smoke
/// configures it.
fn bench_consolidators(c: &mut Criterion) {
    let gen = InstanceGenerator::grid11();
    let instances = [
        ("grid11_512", gen.generate(512, &mut SimRng::new(0xE14))),
        (
            "flavours_520x240",
            gen.generate_flavoured(520, 240, &mut SimRng::new(0xE14)),
        ),
    ];
    let registry = ConsolidatorRegistry::standard();
    let mut group = c.benchmark_group("consolidators");
    group.sample_size(10);
    for (shape, inst) in &instances {
        group.throughput(Throughput::Elements(inst.n_items() as u64));
        for key in REGISTRY_KEYS {
            let mut params = Params::new();
            if key == "bnb" {
                params.insert("node_budget".into(), ParamValue::Int(200_000));
            }
            let algo = registry
                .build(key, &params)
                .expect("every registry key builds");
            group.bench_function(BenchmarkId::new(*shape, key), |b| {
                b.iter(|| black_box(algo.consolidate(black_box(inst))))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine, bench_consolidators);
criterion_main!(benches);

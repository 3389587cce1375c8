//! The `lbc serve` workload: the CLI's parse → `run_serve_opts` → report
//! path, and a one-worker replay of every lane through `run_chain_under`
//! plus a fixed sample of one-shot `run_kind_under` calls.
//!
//! The program expands lanes inside `run_serve_opts`, so set-up is only the
//! spec read and parse, and lane expansion is part of `wall_s`. The replay
//! materializes the lanes itself, outside set-up.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use lbc_adversary::Strategy;
use lbc_campaign::spec::mix_seed;
use lbc_campaign::{run_serve_opts, CampaignSpec, ServeLaneSpec};
use lbc_consensus::runner;
use lbc_model::{InputAssignment, NodeId, NodeSet, Regime};

use crate::adversary::{self, Tally};
use crate::support::Tracer;
use crate::{Checks, Pass, Replay, Subject};

/// `lbc_campaign`'s salt for serve lane seeds. The replay checks every
/// instance against the report, so a change to the salt fails loudly.
const SALT_SERVE: u64 = 0x5E;

/// One-shot instances replayed per lane for `sim.chain_over_oneshot` and
/// the adversary counts.
const ONESHOT_SAMPLE: usize = 100;

/// A lane materialized as `run_serve_opts` materializes it.
#[derive(Debug)]
struct Lane {
    spec: ServeLaneSpec,
    regime: Regime,
    strategy: Strategy,
    faulty: NodeSet,
    inputs: Vec<InputAssignment>,
}

#[derive(Debug)]
pub struct Serve {
    spec: CampaignSpec,
    instances: usize,
}

fn outcome_line(
    lane: usize,
    verdict: impl std::fmt::Debug,
    agreed: impl std::fmt::Debug,
    work: [usize; 3],
) -> String {
    format!("lane {lane} {verdict:?} {agreed:?} steps/transmissions/deliveries {work:?}")
}

impl Serve {
    /// The spec's lanes with their derived seeds applied: regime, strategy,
    /// faulty set and input assignments.
    fn lanes(&self) -> Result<Vec<Lane>, String> {
        let serve = self.spec.serve.as_ref().ok_or("spec has no serve block")?;
        let seed = self.spec.seed;
        let mut lanes = Vec::with_capacity(serve.lanes.len());
        for (index, lane) in serve.lanes.iter().enumerate() {
            let lane_seed = mix_seed(&[SALT_SERVE, seed, index as u64]);
            let mut faulty = NodeSet::new();
            for &node in &lane.faulty {
                if node >= lane.n {
                    return Err(format!("lane {index}: faulty node {node} out of range"));
                }
                faulty.insert(NodeId::new(node));
            }
            let inputs = lane
                .inputs
                .assignments(lane.n, mix_seed(&[SALT_SERVE, seed, index as u64, 1]))
                .map_err(|err| err.to_string())?;
            lanes.push(Lane {
                spec: lane.clone(),
                regime: lane.regime.materialize(lane_seed),
                strategy: lane.strategy.materialize(lane_seed),
                faulty,
                inputs,
            });
        }
        Ok(lanes)
    }
}

impl Subject for Serve {
    fn prepare(text: &str, seed: Option<u64>, tracer: &mut Tracer) -> Result<Self, String> {
        let mut spec = tracer
            .time("spec.parse", None, || CampaignSpec::from_json_text(text))
            .map_err(|err| err.to_string())?;
        if let Some(seed) = seed {
            spec.seed = seed;
        }
        let instances = spec
            .serve
            .as_ref()
            .ok_or("spec has no serve block")?
            .instances;
        Ok(Serve { spec, instances })
    }

    fn seed(&self) -> u64 {
        self.spec.seed
    }

    fn pass(&self, workers: usize, out: &Path, tracer: &mut Tracer) -> Result<Pass, String> {
        let started = Instant::now();
        let report = tracer
            .time("executor.execute", None, || {
                run_serve_opts(&self.spec, workers, None)
            })
            .map_err(|err| err.to_string())?;
        let reporting = Instant::now();
        let (canonical, csv) = tracer.time("report.serialize", None, || {
            (report.to_json().pretty() + "\n", report.to_csv())
        });
        tracer.time("report.write", None, || -> Result<(), String> {
            for (suffix, bytes) in [("json", &canonical), ("csv", &csv)] {
                let path = out.join(format!("{}.serve.report.{suffix}", report.name()));
                fs::write(&path, bytes)
                    .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
            }
            Ok(())
        })?;
        let report_s = reporting.elapsed().as_secs_f64();
        let wall_s = started.elapsed().as_secs_f64();

        let mut checks = Checks::default();
        let mut outcomes = Vec::new();
        let mut latencies_us = Vec::new();
        let mut work = [0.0; 3];
        for lane in report.lanes() {
            checks.check(lane.channels_bounded(), || {
                format!(
                    "lane {} channels unbounded: live/tag {} allocated {}",
                    lane.index, lane.stats.max_live_per_tag, lane.stats.max_allocated_channels
                )
            });
            for (k, record) in lane.instances.iter().enumerate() {
                checks.check(record.verdict.is_correct(), || {
                    format!(
                        "lane {} instance {k} is not correct ({})",
                        lane.index, record.verdict
                    )
                });
                let counts = [record.steps, record.transmissions, record.deliveries];
                for (total, count) in work.iter_mut().zip(counts) {
                    *total += count as f64;
                }
                outcomes.push(outcome_line(
                    lane.index,
                    record.verdict,
                    record.agreed,
                    counts,
                ));
                latencies_us.push(record.wall_micros);
            }
        }
        let lanes = report.lanes();
        let mut counts = chain_counts(lanes.iter().map(|lane| lane.stats));
        counts.insert("spec.cells", latencies_us.len() as f64);
        counts.insert("consensus.steps", work[0]);
        counts.insert("consensus.transmissions", work[1]);
        counts.insert("consensus.deliveries", work[2]);
        counts.insert("report.bytes", canonical.len() as f64);
        Ok(Pass {
            wall_s,
            report_s,
            checks,
            decisions: report
                .lanes()
                .iter()
                .map(|lane| lane.correct() as u64)
                .sum(),
            latencies_us,
            busy_us: lanes.iter().map(|lane| lane.wall_micros).sum(),
            pool_width: workers.min(lanes.len()).max(1),
            outcomes,
            counts,
            canonical,
        })
    }

    fn replay(&self, pass: &Pass, tracer: &mut Tracer) -> Result<Replay, String> {
        let mut checks = Checks::default();
        let mut outcomes = Vec::new();
        let mut stats = Vec::new();
        let mut work = [0.0; 3];
        // Per-instance seconds, chained and one-shot, summed over lanes.
        let (mut chained, mut oneshot) = (0.0, 0.0);
        let mut tally = Tally::default();
        let mut sampled = 0;
        let replay = tracer.begin("replay", None);
        let lanes = self.lanes()?;
        for (index, lane) in lanes.iter().enumerate() {
            let item = Some(index);
            let span = tracer.begin("lane", item);
            let graph = tracer.time("graph.build", item, || lane.spec.family.build(lane.spec.n));
            let mut adversary = tracer.time("adversary.build", item, || {
                lane.strategy.clone().into_adversary()
            });
            let sets = &lane.inputs;
            let inputs_for = |k: u64| sets[k as usize % sets.len()].clone();
            let (results, chain_stats) = tracer.time("consensus.run", item, || {
                runner::run_chain_under(
                    lane.spec.algorithm,
                    &lane.regime,
                    &graph,
                    lane.spec.f,
                    &lane.faulty,
                    self.instances,
                    inputs_for,
                    &mut adversary,
                )
            });
            chained += tracer.total_where("consensus.run", |i| i == index) / self.instances as f64;
            stats.push(chain_stats);
            for result in &results {
                let counts = [result.steps, result.transmissions, result.deliveries];
                for (total, count) in work.iter_mut().zip(counts) {
                    *total += count as f64;
                }
                let verdict = result.outcome.verdict();
                outcomes.push(outcome_line(
                    index,
                    verdict,
                    result.outcome.agreed_value(),
                    counts,
                ));
            }

            // Chaining changes cost, never decisions: a fixed sample of the
            // lane's instances, each run one-shot on a fresh network, then
            // once more observed. The chain driver runs unobserved, so the
            // adversary counts come from these observed one-shot runs.
            let sample = ONESHOT_SAMPLE.min(self.instances);
            for (k, chained_result) in results.iter().enumerate().take(sample) {
                let mut adversary = lane.strategy.clone().into_adversary();
                let inputs = inputs_for(k as u64);
                let (outcome, trace) = tracer.time("consensus.oneshot", item, || {
                    runner::run_kind_under(
                        lane.spec.algorithm,
                        &lane.regime,
                        &graph,
                        lane.spec.f,
                        &inputs,
                        &lane.faulty,
                        &mut adversary,
                    )
                });
                let same = outcome.verdict() == chained_result.outcome.verdict()
                    && outcome.agreed_value() == chained_result.outcome.agreed_value();
                checks.check(same, || {
                    format!("lane {index} instance {k} decides differently one-shot")
                });
                let (observed, observed_summary, observed_tally) =
                    tracer.time("adversary.observe", item, || {
                        adversary::observe(
                            lane.spec.algorithm,
                            &lane.regime,
                            &graph,
                            lane.spec.f,
                            &inputs,
                            &lane.faulty,
                            &lane.strategy,
                        )
                    });
                checks.check(
                    adversary::same_run(
                        (&observed, &observed_summary),
                        (&outcome, &trace.summary()),
                    ),
                    || format!("lane {index} instance {k} runs differently with an observer"),
                );
                tally += observed_tally;
            }
            sampled += sample;
            oneshot += tracer.total_where("consensus.oneshot", |i| i == index) / sample as f64;
            tracer.end(span);
        }
        tracer.end(replay);
        for (k, line) in outcomes.iter().enumerate() {
            let timed = pass.outcomes.get(k);
            checks.check(timed == Some(line), || {
                format!("instance {k} replays as {line}, timed pass had {timed:?}")
            });
        }

        let decisions = outcomes.len() as f64;
        let adversary_counts = tally.counts(sampled as f64);
        let mut counts = chain_counts(stats.into_iter());
        counts.insert("consensus.steps", work[0]);
        counts.insert("consensus.transmissions", work[1]);
        counts.insert("consensus.deliveries", work[2]);
        counts.extend(adversary_counts);
        let run_s = |kind: &str| {
            tracer.total_where("consensus.run", |i| lanes[i].spec.algorithm.name() == kind)
        };
        let execute_s = tracer.total("executor.execute");
        let busy_s = pass.busy_us as f64 / 1e6;
        let width = pass.pool_width as f64;
        let mut metrics = BTreeMap::from([
            ("spec.expand_s", tracer.total("spec.parse")),
            ("spec.cells", decisions),
            ("graph.build_s", tracer.total("graph.build")),
            ("adversary.build_s", tracer.total("adversary.build")),
            ("adversary.intercept_s", tally.busy.as_secs_f64()),
            ("consensus.run_s.alg1", run_s("alg1")),
            ("consensus.run_s.alg2", run_s("alg2")),
            ("consensus.run_s.async", run_s("async")),
            (
                "consensus.ns_per_delivery",
                tracer.total("consensus.run") * 1e9 / work[2].max(1.0),
            ),
            ("consensus.deliveries", work[2] / decisions),
            ("consensus.transmissions", work[1] / decisions),
            ("consensus.steps", work[0] / decisions),
            ("sim.chain_over_oneshot", chained / oneshot),
            ("sim.arena_paths", counts["sim.arena_paths"]),
            ("sim.max_live_channels", counts["sim.max_live_channels"]),
            ("sim.drained_steps", counts["sim.drained_steps"]),
            ("executor.self_s", execute_s - busy_s / width),
            ("executor.pool_busy_frac", busy_s / (width * execute_s)),
            ("report.serialize_s", tracer.total("report.serialize")),
            ("report.write_s", tracer.total("report.write")),
            ("report.bytes", pass.canonical.len() as f64),
        ]);
        metrics.extend(adversary_counts);
        Ok(Replay {
            metrics,
            counts,
            checks,
        })
    }
}

/// `ChainStats` counts over all lanes: arena paths and drained steps
/// summed, live channels as the high-water mark.
fn chain_counts(stats: impl Iterator<Item = lbc_sim::ChainStats>) -> BTreeMap<&'static str, f64> {
    let mut counts = BTreeMap::from([
        ("sim.arena_paths", 0.0),
        ("sim.max_live_channels", 0.0),
        ("sim.drained_steps", 0.0),
    ]);
    for s in stats {
        *counts
            .get_mut("sim.arena_paths")
            .expect("key inserted above") += s.arena_paths as f64;
        *counts
            .get_mut("sim.drained_steps")
            .expect("key inserted above") += s.drained_steps as f64;
        let live = counts
            .get_mut("sim.max_live_channels")
            .expect("key inserted above");
        *live = live.max(s.max_live_channels as f64);
    }
    counts
}

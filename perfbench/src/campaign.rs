//! `lbc campaign` workloads: the CLI's parse → expand → resumable execute
//! (checkpoint journal on, progress off) → report path, and a one-worker
//! replay of every cell through `build_graph`, `into_adversary` and
//! `run_kind_under`.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use lbc_campaign::{
    run_scenarios_resumable, CampaignSpec, CheckpointConfig, ExecOptions, Scenario,
};
use lbc_consensus::runner;
use lbc_sim::TraceSummary;

use crate::adversary::{self, Tally};
use crate::support::Tracer;
use crate::{Checks, Pass, Replay, Subject};

#[derive(Debug)]
pub struct Campaign {
    spec: CampaignSpec,
    scenarios: Vec<Scenario>,
    notes: Vec<String>,
}

/// The line a cell's outcome is compared by, between pass and replay.
fn outcome_line(
    verdict: impl std::fmt::Debug,
    agreed: impl std::fmt::Debug,
    stats: &TraceSummary,
) -> String {
    format!("{verdict:?} {agreed:?} {stats:?}")
}

/// The exact work counts of a set of cell runs.
fn counts<'a>(stats: impl Iterator<Item = &'a TraceSummary>) -> BTreeMap<&'static str, f64> {
    let mut counts = BTreeMap::from([
        ("consensus.deliveries", 0.0),
        ("consensus.transmissions", 0.0),
        ("consensus.steps", 0.0),
    ]);
    for s in stats {
        for (name, value) in [
            ("consensus.deliveries", s.deliveries),
            ("consensus.transmissions", s.transmissions),
            ("consensus.steps", s.rounds),
        ] {
            *counts.get_mut(name).expect("key inserted above") += value as f64;
        }
    }
    counts
}

impl Subject for Campaign {
    fn prepare(text: &str, seed: Option<u64>, tracer: &mut Tracer) -> Result<Self, String> {
        let mut spec = tracer
            .time("spec.parse", None, || CampaignSpec::from_json_text(text))
            .map_err(|err| err.to_string())?;
        if let Some(seed) = seed {
            spec.seed = seed;
        }
        let (scenarios, notes) = tracer
            .time("spec.expand", None, || spec.expand_noted())
            .map_err(|err| err.to_string())?;
        Ok(Campaign {
            spec,
            scenarios,
            notes,
        })
    }

    fn seed(&self) -> u64 {
        self.spec.seed
    }

    fn pass(&self, workers: usize, out: &Path, tracer: &mut Tracer) -> Result<Pass, String> {
        let name = &self.spec.name;
        let journal = out.join(format!("{name}.checkpoint.json"));
        let json_path = out.join(format!("{name}.report.json"));
        let csv_path = out.join(format!("{name}.report.csv"));
        let mut options = ExecOptions::new(workers);
        options.checkpoint = Some(CheckpointConfig::new(journal.clone()));

        let started = Instant::now();
        let report = tracer
            .time("executor.execute", None, || {
                run_scenarios_resumable(&self.spec, &self.scenarios, self.notes.clone(), &options)
            })
            .map_err(|err| err.to_string())?;
        let reporting = Instant::now();
        let (canonical, csv) = tracer.time("report.serialize", None, || {
            (report.to_json().pretty() + "\n", report.to_csv())
        });
        tracer.time("report.write", None, || -> Result<(), String> {
            for (path, bytes) in [(&json_path, &canonical), (&csv_path, &csv)] {
                fs::write(path, bytes)
                    .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
            }
            match fs::remove_file(&journal) {
                Err(err) if err.kind() != std::io::ErrorKind::NotFound => {
                    Err(format!("cannot remove {}: {err}", journal.display()))
                }
                _ => Ok(()),
            }
        })?;
        let report_s = reporting.elapsed().as_secs_f64();
        let wall_s = started.elapsed().as_secs_f64();

        let records = report.records();
        let mut checks = Checks::default();
        for record in records {
            checks.check(record.status.is_completed(), || {
                format!(
                    "cell #{} {} quarantined: {}",
                    record.index,
                    record.graph,
                    record.status.label()
                )
            });
            checks.check(!record.feasible || record.verdict.is_correct(), || {
                format!(
                    "feasible cell #{} {} {} {} is not correct ({})",
                    record.index,
                    record.graph,
                    record.algorithm.name(),
                    record.strategy,
                    record.verdict
                )
            });
        }
        let mut counts = counts(records.iter().map(|r| &r.stats));
        counts.insert("spec.cells", records.len() as f64);
        counts.insert("report.bytes", canonical.len() as f64);
        Ok(Pass {
            wall_s,
            report_s,
            checks,
            decisions: records
                .iter()
                .filter(|r| r.status.is_completed() && (!r.feasible || r.verdict.is_correct()))
                .count() as u64,
            latencies_us: records.iter().map(|r| r.wall_micros).collect(),
            busy_us: records.iter().map(|r| r.wall_micros).sum(),
            pool_width: workers.min(records.len()).max(1),
            outcomes: records
                .iter()
                .map(|r| outcome_line(r.verdict, r.agreed, &r.stats))
                .collect(),
            counts,
            canonical,
        })
    }

    fn replay(&self, pass: &Pass, tracer: &mut Tracer) -> Result<Replay, String> {
        let mut checks = Checks::default();
        let mut summaries = Vec::with_capacity(self.scenarios.len());
        let mut tally = Tally::default();
        let replay = tracer.begin("replay", None);
        for scenario in &self.scenarios {
            let item = Some(scenario.index);
            let cell = tracer.begin("cell", item);
            let graph = tracer.time("graph.build", item, || scenario.build_graph());
            let mut adversary = tracer.time("adversary.build", item, || {
                scenario.strategy.clone().into_adversary()
            });
            let (outcome, trace) = tracer.time("consensus.run", item, || {
                runner::run_kind_under(
                    scenario.algorithm,
                    &scenario.regime,
                    &graph,
                    scenario.f,
                    &scenario.inputs,
                    &scenario.faulty,
                    &mut adversary,
                )
            });
            let (observed, observed_summary, observed_tally) =
                tracer.time("adversary.observe", item, || {
                    adversary::observe(
                        scenario.algorithm,
                        &scenario.regime,
                        &graph,
                        scenario.f,
                        &scenario.inputs,
                        &scenario.faulty,
                        &scenario.strategy,
                    )
                });
            tracer.end(cell);
            let summary = trace.summary();
            let line = outcome_line(outcome.verdict(), outcome.agreed_value(), &summary);
            let timed = pass.outcomes.get(scenario.index);
            checks.check(timed == Some(&line), || {
                format!(
                    "cell #{} replays as {line}, timed pass had {timed:?}",
                    scenario.index
                )
            });
            checks.check(
                adversary::same_run((&observed, &observed_summary), (&outcome, &summary)),
                || format!("cell #{} runs differently with an observer", scenario.index),
            );
            summaries.push(summary);
            tally += observed_tally;
        }
        tracer.end(replay);

        let run_s = |kind: &str| {
            tracer.total_where("consensus.run", |i| {
                self.scenarios[i].algorithm.name() == kind
            })
        };
        let execute_s = tracer.total("executor.execute");
        let busy_s = pass.busy_us as f64 / 1e6;
        let builds_s = tracer.total("graph.build") + tracer.total("adversary.build");
        let width = pass.pool_width as f64;
        let mut replay_counts = counts(summaries.iter());
        replay_counts.extend(tally.counts(1.0));
        let mut metrics = BTreeMap::from([
            (
                "spec.expand_s",
                tracer.total("spec.parse") + tracer.total("spec.expand"),
            ),
            ("spec.cells", self.scenarios.len() as f64),
            ("graph.build_s", tracer.total("graph.build")),
            ("adversary.build_s", tracer.total("adversary.build")),
            ("adversary.intercept_s", tally.busy.as_secs_f64()),
            ("consensus.run_s.alg1", run_s("alg1")),
            ("consensus.run_s.alg2", run_s("alg2")),
            ("consensus.run_s.async", run_s("async")),
            (
                "consensus.ns_per_delivery",
                tracer.total("consensus.run") * 1e9
                    / replay_counts["consensus.deliveries"].max(1.0),
            ),
            // One-shot cells never chain: the chain layer is idle here.
            ("sim.chain_over_oneshot", 0.0),
            ("sim.arena_paths", 0.0),
            ("sim.max_live_channels", 0.0),
            ("sim.drained_steps", 0.0),
            ("executor.self_s", execute_s - (busy_s + builds_s) / width),
            ("executor.pool_busy_frac", busy_s / (width * execute_s)),
            ("report.serialize_s", tracer.total("report.serialize")),
            ("report.write_s", tracer.total("report.write")),
            ("report.bytes", pass.canonical.len() as f64),
        ]);
        metrics.extend(replay_counts.iter().map(|(k, v)| (*k, *v)));
        Ok(Replay {
            metrics,
            counts: replay_counts,
            checks,
        })
    }
}

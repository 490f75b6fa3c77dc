//! The benchmark's workloads — figure-suite grids of experiment cells —
//! and one timed repetition of a grid: set up every cell, run every cell
//! on a thread pool, and summarize each outcome for the checks.

use clover::core::autoscale::ScalingPolicy;
use clover::core::chaos::{ChaosConfig, FaultSpec};
use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::router::{GlobalOutcome, GlobalRouter, RouterConfig};
use clover::telemetry::{PhaseTotals, Telemetry, TelemetrySpec};
use clover::workload::WorkloadKind;
use std::time::Instant;

use crate::host;
use crate::stats::median;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5.1 evaluation (Figs. 9–11): all five schemes on
    /// hourly representative windows.
    PaperHourly,
    /// Continuous full-epoch serving of a diurnal NHPP at the SLA-meeting
    /// operating point.
    ContinuousDiurnal,
    /// The `fig_resilience` harsh-chaos level: faults, overload and an
    /// elastic fleet.
    Resilience,
    /// The `fig_georouting` shape: three regional fleets under the global
    /// router, one cell with a regional outage.
    Georouting,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperHourly,
        Workload::ContinuousDiurnal,
        Workload::Resilience,
        Workload::Georouting,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperHourly => "paper_hourly",
            Workload::ContinuousDiurnal => "continuous_diurnal",
            Workload::Resilience => "resilience",
            Workload::Georouting => "georouting",
        }
    }

    /// Resolves a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon of every cell, hours.
    pub fn horizon_hours(self) -> f64 {
        match self {
            Workload::PaperHourly => 3.0,
            Workload::ContinuousDiurnal => 2.0,
            Workload::Resilience => 2.0,
            Workload::Georouting => 8.0,
        }
    }

    /// Seeds each configuration runs under. Every figure cell repeats
    /// under this many seeds derived from `--seed`, so one run pools over
    /// several carbon traces, fault plans and traffic draws instead of
    /// resting on one.
    pub const SEEDS: u64 = 4;

    /// The workload's cells: every configuration under each of the
    /// [`Workload::SEEDS`] seeds derived from `seed`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        (0..Self::SEEDS)
            .flat_map(|k| {
                let sub = seed.wrapping_mul(Self::SEEDS).wrapping_add(k);
                self.configs(sub).into_iter().map(move |(label, cfg)| Cell {
                    label: format!("{label}#{k}"),
                    cfg,
                })
            })
            .collect()
    }

    /// The workload's configurations under one seed, with row labels.
    fn configs(self, seed: u64) -> Vec<(String, CellCfg)> {
        let h = self.horizon_hours();
        match self {
            Workload::PaperHourly => SchemeKind::ALL
                .into_iter()
                .map(|scheme| {
                    let label = scheme.label().to_string();
                    let cfg = ExperimentConfig::builder(Application::ImageClassification)
                        .scheme(scheme)
                        .n_gpus(10)
                        .horizon_hours(h)
                        .seed(seed)
                        .build();
                    (label, CellCfg::Single(cfg))
                })
                .collect(),
            Workload::ContinuousDiurnal => [SchemeKind::Base, SchemeKind::Clover]
                .into_iter()
                .map(|scheme| {
                    let label = scheme.label().to_string();
                    let cfg = ExperimentConfig::builder(Application::ImageClassification)
                        .scheme(scheme)
                        .workload(WorkloadKind::diurnal())
                        .fidelity(Fidelity::FullEpoch)
                        .control_epoch_s(120.0)
                        .n_gpus(4)
                        .utilization(0.5)
                        .horizon_hours(h)
                        .seed(seed)
                        .build();
                    (label, CellCfg::Single(cfg))
                })
                .collect(),
            Workload::Resilience => [SchemeKind::Base, SchemeKind::Clover, SchemeKind::Oracle]
                .into_iter()
                .map(|scheme| {
                    let label = format!("{}/mtbf-6h", scheme.label());
                    let cfg = ExperimentConfig::builder(Application::ImageClassification)
                        .scheme(scheme)
                        .chaos(ChaosConfig::resilience(6.0))
                        .scaling(ScalingPolicy::reactive())
                        .control_epoch_s(600.0)
                        .fidelity(Fidelity::FullEpoch)
                        .n_gpus(6)
                        .min_gpus(1)
                        .horizon_hours(h)
                        .sla_headroom(2.2)
                        .seed(seed)
                        .build();
                    (label, CellCfg::Single(cfg))
                })
                .collect(),
            Workload::Georouting => {
                let outage = ChaosConfig::off().with(FaultSpec::RegionOutage {
                    region: 0,
                    start_h: 2.0,
                    duration_h: 3.0,
                });
                [
                    ("uniform", SchemeKind::Clover, ChaosConfig::off(), ""),
                    ("carbon-greedy", SchemeKind::Clover, ChaosConfig::off(), ""),
                    ("forecast-aware", SchemeKind::Clover, ChaosConfig::off(), ""),
                    ("carbon-greedy", SchemeKind::Base, outage, "/outage"),
                ]
                .into_iter()
                .map(|(policy, scheme, chaos, suffix)| {
                    let label = format!("{policy}/{}{suffix}", scheme.label().to_lowercase());
                    let cfg = RouterConfig::builder(Application::LanguageModeling)
                        .policy(policy)
                        .scheme(scheme)
                        .chaos(chaos)
                        .scaling(ScalingPolicy::reactive())
                        .control_epoch_s(600.0)
                        .n_gpus_per_region(4)
                        .min_gpus(1)
                        .horizon_hours(h)
                        .utilization(0.6)
                        .sla_headroom(2.0)
                        .seed(seed)
                        .build();
                    (label, CellCfg::Routed(cfg))
                })
                .collect()
            }
        }
    }
}

/// One experiment cell of a workload.
#[derive(Clone)]
pub struct Cell {
    /// Row label.
    pub label: String,
    cfg: CellCfg,
}

#[derive(Clone)]
enum CellCfg {
    Single(ExperimentConfig),
    Routed(RouterConfig),
}

/// A cell after set-up, ready to run.
enum Built {
    Single(Experiment),
    Routed(GlobalRouter),
}

impl Built {
    fn new(cfg: CellCfg) -> Built {
        match cfg {
            CellCfg::Single(cfg) => Built::Single(Experiment::new(cfg)),
            CellCfg::Routed(cfg) => Built::Routed(GlobalRouter::new(cfg)),
        }
    }

    /// The pool's claim-order weight: single-cluster cells by the same
    /// cost model `Experiment::run_cells` dispatches on, routed cells
    /// equal (submission order, as `GlobalRouter::run_cells` runs them).
    fn weight(&self) -> f64 {
        match self {
            Built::Single(e) => e.config().cost_weight(),
            Built::Routed(_) => 0.0,
        }
    }

    fn run(&self, telemetry: &mut Telemetry) -> CellOutcome {
        match self {
            Built::Single(e) => CellOutcome::single(&e.run_with(telemetry)),
            Built::Routed(r) => CellOutcome::routed(&r.run_with(telemetry)),
        }
    }
}

/// What the benchmark keeps of one cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The program's own outcome digest.
    pub digest: u64,
    /// Requests that arrived (window counts).
    pub arrived: u64,
    /// Requests served.
    pub served: u64,
    /// Requests dropped at the admission queue.
    pub dropped: u64,
    /// Requests queued, in flight or in inter-region transit at the end.
    pub backlog: u64,
    /// Residual the program reports for its own conservation laws.
    pub leak: i64,
    /// Operational carbon, grams.
    pub carbon_g: f64,
    /// Served requests extrapolated to the horizon.
    pub served_scaled: f64,
    /// Served-weighted accuracy, percent.
    pub accuracy_pct: f64,
    /// Whether the run-level p95 met the SLA.
    pub sla_met: bool,
    /// Run-level p95 latency over the SLA bound.
    pub p95_over_sla: f64,
    /// Discrete events simulated.
    pub sim_events: u64,
    /// Optimizer invocations.
    pub invocations: u64,
    /// Candidate configurations evaluated.
    pub evals: u64,
    /// Evaluations the annealer accepted.
    pub evals_accepted: u64,
    /// Requests that paid an inter-region hop.
    pub migrated: u64,
    /// Region-epochs spent dark.
    pub outage_epochs: u64,
}

impl CellOutcome {
    fn single(o: &ExperimentOutcome) -> CellOutcome {
        let sum = |f: fn(&clover::core::experiment::HourPoint) -> u64| -> u64 {
            o.timeline.iter().map(f).sum()
        };
        let evals = o.invocations.iter().flat_map(|i| &i.evals);
        CellOutcome {
            digest: o.digest(),
            arrived: sum(|p| p.arrived),
            served: sum(|p| p.served),
            dropped: sum(|p| p.dropped),
            backlog: o.timeline.last().map_or(0, |p| p.backlog),
            leak: 0,
            carbon_g: o.total_carbon_g,
            served_scaled: o.served_scaled,
            accuracy_pct: o.accuracy_pct,
            sla_met: o.sla_met,
            p95_over_sla: o.p95_s / o.sla_p95_s,
            sim_events: o.sim_events,
            invocations: o.invocations.len() as u64,
            evals: o.evals_total() as u64,
            evals_accepted: evals.filter(|e| e.accepted).count() as u64,
            migrated: 0,
            outage_epochs: 0,
        }
    }

    fn routed(o: &GlobalOutcome) -> CellOutcome {
        CellOutcome {
            digest: o.digest(),
            arrived: o.arrived,
            served: o.served,
            dropped: o.dropped,
            backlog: o.final_backlog + o.final_in_transit,
            leak: o.conservation_leak.abs() + o.boundary_leak.abs(),
            carbon_g: o.total_carbon_g,
            served_scaled: o.served_scaled,
            accuracy_pct: o.accuracy_pct,
            sla_met: o.sla_met,
            p95_over_sla: o.p95_s / o.sla_p95_s,
            sim_events: o.sim_events,
            invocations: 0,
            evals: 0,
            evals_accepted: 0,
            migrated: o.migrated_requests,
            outage_epochs: o.outage_epochs,
        }
    }

    /// Checks that hold for every correct cell: the conservation law
    /// `Σ arrived == Σ served + Σ dropped + final backlog` (transit
    /// included), no leak in the program's own bookkeeping, and some
    /// service. Returns one message per violated check.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let accounted = self.served + self.dropped + self.backlog;
        if self.arrived != accounted {
            out.push(format!(
                "conservation: arrived {} != served {} + dropped {} + backlog {}",
                self.arrived, self.served, self.dropped, self.backlog
            ));
        }
        if self.leak != 0 {
            out.push(format!("conservation leak {}", self.leak));
        }
        if self.served == 0 || self.served_scaled.is_nan() || self.served_scaled <= 0.0 {
            out.push("served nothing".to_string());
        }
        out
    }
}

/// One cell's result within a repetition.
pub struct CellRun {
    /// Summarized outcome.
    pub outcome: CellOutcome,
    /// Wall time of the cell's run, seconds (its trace span).
    pub span_s: f64,
    /// Inclusive phase totals, when the repetition was traced.
    pub phases: Option<PhaseTotals>,
}

/// Times each repetition sets up its grid; the last set-up is run.
const SETUPS: usize = 3;

/// One timed repetition of a workload's grid.
pub struct Rep {
    /// Wall time to set up every cell, seconds, once per set-up made.
    pub setup_s: Vec<f64>,
    /// Wall time to run every cell, seconds.
    pub wall_s: f64,
    /// Process CPU time while the cells ran, seconds.
    pub cpu_s: f64,
    /// Per-cell results, in cell order.
    pub cells: Vec<CellRun>,
}

/// Sets up every cell on `threads` workers [`SETUPS`] times, then runs
/// the last set-up's cells. With `traced`, each cell runs under the
/// program's phase profiler.
pub fn run_rep(cells: &[Cell], threads: usize, traced: bool) -> Rep {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = Vec::new();
    for _ in 0..SETUPS {
        let cfgs: Vec<CellCfg> = cells.iter().map(|c| c.cfg.clone()).collect();
        let t0 = Instant::now();
        built = clover::simkit::par_map(cfgs, threads, Built::new);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let cpu0 = host::process_cpu_s();
    let t1 = Instant::now();
    let runs = clover::simkit::par_map_lpt(built, threads, Built::weight, |b| {
        let mut telemetry = if traced {
            Telemetry::new(TelemetrySpec::PROFILING)
        } else {
            Telemetry::disabled()
        };
        let start = Instant::now();
        let outcome = b.run(&mut telemetry);
        let span_s = start.elapsed().as_secs_f64();
        CellRun {
            outcome,
            span_s,
            phases: telemetry.take_report().phases,
        }
    });
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        cells: runs,
    }
}

/// The workload's simulated (deterministic) end-to-end figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    /// Operational carbon per 1000 served requests, pooled over cells.
    pub carbon_g_per_kreq: f64,
    /// Served-weighted accuracy, percent.
    pub accuracy_pct: f64,
    /// Share of cells whose p95 met the SLA.
    pub sla_met_frac: f64,
    /// Median over cells of run-level p95 ÷ SLA.
    pub p95_over_sla: f64,
    /// Σ served ÷ Σ arrived.
    pub served_frac: f64,
}

impl SimFigures {
    /// Pools the figures over `outcomes`.
    pub fn of(outcomes: &[&CellOutcome]) -> SimFigures {
        let served_scaled: f64 = outcomes.iter().map(|o| o.served_scaled).sum();
        let carbon: f64 = outcomes.iter().map(|o| o.carbon_g).sum();
        let acc: f64 = outcomes
            .iter()
            .map(|o| o.accuracy_pct * o.served_scaled)
            .sum();
        let arrived: u64 = outcomes.iter().map(|o| o.arrived).sum();
        let served: u64 = outcomes.iter().map(|o| o.served).sum();
        let met = outcomes.iter().filter(|o| o.sla_met).count();
        SimFigures {
            carbon_g_per_kreq: carbon / served_scaled * 1000.0,
            accuracy_pct: acc / served_scaled,
            sla_met_frac: met as f64 / outcomes.len() as f64,
            p95_over_sla: median(&outcomes.iter().map(|o| o.p95_over_sla).collect::<Vec<_>>()),
            served_frac: served as f64 / arrived as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(arrived: u64, served: u64, dropped: u64, backlog: u64) -> CellOutcome {
        CellOutcome {
            digest: 0,
            arrived,
            served,
            dropped,
            backlog,
            leak: 0,
            carbon_g: 10.0,
            served_scaled: served as f64,
            accuracy_pct: 80.0,
            sla_met: true,
            p95_over_sla: 0.5,
            sim_events: 0,
            invocations: 0,
            evals: 0,
            evals_accepted: 0,
            migrated: 0,
            outage_epochs: 0,
        }
    }

    #[test]
    fn conservation_check_counts_backlog() {
        assert!(outcome(100, 90, 6, 4).violations().is_empty());
        assert_eq!(outcome(100, 90, 6, 3).violations().len(), 1);
        assert_eq!(outcome(0, 0, 0, 0).violations(), vec!["served nothing"]);
    }

    #[test]
    fn sim_figures_pool_over_cells() {
        let a = outcome(100, 100, 0, 0);
        let mut b = outcome(300, 200, 50, 50);
        b.sla_met = false;
        b.p95_over_sla = 1.5;
        b.accuracy_pct = 60.0;
        let f = SimFigures::of(&[&a, &b]);
        assert_eq!(f.carbon_g_per_kreq, 20.0 / 300.0 * 1000.0);
        assert_eq!(f.accuracy_pct, (80.0 * 100.0 + 60.0 * 200.0) / 300.0);
        assert_eq!(f.sla_met_frac, 0.5);
        assert_eq!(f.p95_over_sla, 1.0);
        assert_eq!(f.served_frac, 0.75);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}

//! The per-cell runtime: one cluster's control loop of paper Fig. 5
//! (monitor → scheduler → serve → account), shared by the single-cluster
//! [`Experiment`](crate::experiment::Experiment), every region of the
//! multi-region router and the synchronized BASE reference.
//!
//! It has three layers:
//!
//! - [`CellServing`] — the serving simulator, the boundary carry and the
//!   epoch's [`WindowPlan`]: serves one epoch at the configured
//!   [`Fidelity`], continuously across boundaries under
//!   [`Fidelity::FullEpoch`];
//! - [`CellTally`] — the run's accounting: carbon ledger, latency
//!   histogram, per-variant and scaled served counts, simulated events;
//! - the control half — the [`ControlPlane`] (scheduler, evaluator, scaler
//!   and carbon monitor, built from the standard seed salts), plus the
//!   optimization time and active GPU-hours it accrues — which lives in
//!   the [`CellRuntime`] itself.
//!
//! A [`CellRuntime`] is all three, driven as [`CellRuntime::plan`] →
//! [`CellRuntime::serve`] once per epoch; callers add their own layer
//! between the two (the experiment's chaos hooks) and after them (its
//! timeline and journal, the router's routed counters). The BASE reference
//! uses the serving half and the tally, with no plane.

use crate::anneal::SaParams;
use crate::autoscale::{FleetState, Scaler, ScalerConfig, ScalingPolicy};
use crate::control::{
    ControlEpoch, ControlPlane, EpochPlan, EpochSchedule, Fidelity, PlaneEnv, WindowPlan,
};
use crate::eval::DesEvaluator;
use crate::objective::Objective;
use crate::schedulers::{make_scheduler, SchemeKind};
use clover_carbon::{CarbonIntensity, CarbonLedger, CarbonMonitor, CarbonTrace, Energy, Pue};
use clover_mig::SliceType;
use clover_models::{ModelFamily, PerfModel};
use clover_serving::{Deployment, ServingCarry, ServingSim, WindowMetrics};
use clover_simkit::{LatencyHistogram, SimDuration, SimRng, SimTime};
use clover_telemetry::{Phase, Telemetry};
use clover_workload::{ArrivalProcess, Workload};
use std::sync::Arc;

/// Measures the BASE deployment `base` at `rate_rps` over the calibration
/// window every run derives its SLA and `C_base` from. The window is long
/// enough that the p95 estimate's sampling noise sits well inside the SLA
/// headroom: a short calibration can underestimate the tail and leave BASE
/// violating its own SLA.
pub fn calibration_window(
    family: &Arc<ModelFamily>,
    perf: PerfModel,
    base: Deployment,
    rate_rps: f64,
    seed: u64,
) -> WindowMetrics {
    let mut calib = ServingSim::new(family.clone(), perf, base, seed ^ 0xCA11_B007);
    calib.run_window(
        rate_rps,
        SimDuration::from_secs(160.0),
        SimDuration::from_secs(16.0),
    )
}

/// The served-weighted mixture accuracy of `per_variant` served counts,
/// percent; `A_base` when nothing was served.
pub fn served_accuracy_pct(family: &ModelFamily, per_variant: &[f64]) -> f64 {
    let total: f64 = per_variant.iter().sum();
    if total == 0.0 {
        return family.accuracy_base();
    }
    per_variant
        .iter()
        .enumerate()
        .map(|(i, &n)| family.variants[i].accuracy_pct * n)
        .sum::<f64>()
        / total
}

/// `total / served`, or NaN when nothing was served (a per-request metric
/// of an empty run is undefined, never zero).
pub fn per_served(total: f64, served: f64) -> f64 {
    if served > 0.0 {
        total / served
    } else {
        f64::NAN
    }
}

/// The serving half: simulator, boundary carry and measurement plan.
pub struct CellServing {
    /// The serving simulator. Callers set its shard count, thread budget
    /// and (chaos) window failures directly.
    pub(crate) sim: ServingSim,
    /// Serving state crossing the last epoch boundary (continuous serving
    /// only; empty otherwise).
    carry: ServingCarry,
    wp: WindowPlan,
    continuous: bool,
}

impl CellServing {
    /// Serves through `sim` at `fidelity` over epochs of `epoch_len`.
    pub(crate) fn new(sim: ServingSim, fidelity: &Fidelity, epoch_len: SimDuration) -> Self {
        CellServing {
            sim,
            carry: ServingCarry::default(),
            wp: fidelity.window_plan(epoch_len),
            continuous: matches!(fidelity, Fidelity::FullEpoch),
        }
    }

    /// Factor extrapolating one served window to its epoch.
    pub(crate) fn scale(&self) -> f64 {
        self.wp.scale
    }

    /// Serves one epoch of `arrivals` (anchored at the epoch's start): a
    /// representative window, or the whole epoch restored from the last
    /// boundary's carry and snapshotted again at the next one.
    pub(crate) fn serve(&mut self, arrivals: &mut dyn ArrivalProcess) -> WindowMetrics {
        if self.continuous {
            let carry = std::mem::take(&mut self.carry);
            let (w, next) = self
                .sim
                .run_epoch_continuous(arrivals, self.wp.window, carry);
            self.carry = next;
            w
        } else {
            self.sim
                .run_window_with(arrivals, self.wp.window, self.wp.warmup)
        }
    }

    /// The boundary carry (queued/in-flight split).
    pub fn carry(&self) -> &ServingCarry {
        &self.carry
    }

    /// Mutable boundary carry, for moving queued work between cells at an
    /// epoch boundary (the router's migrations).
    pub fn carry_mut(&mut self) -> &mut ServingCarry {
        &mut self.carry
    }
}

/// The run's accounting.
pub struct CellTally {
    ledger: CarbonLedger,
    hist: LatencyHistogram,
    per_variant: Vec<f64>,
    served_scaled: f64,
    sim_events: u64,
}

impl CellTally {
    /// An empty tally charging carbon through `trace` at the paper's PUE,
    /// counting served requests per variant of a `variants`-model family.
    pub(crate) fn new(trace: Arc<CarbonTrace>, variants: usize) -> Self {
        CellTally {
            ledger: CarbonLedger::new(trace, Pue::PAPER_DEFAULT),
            hist: LatencyHistogram::for_latency(),
            per_variant: vec![0.0; variants],
            served_scaled: 0.0,
            sim_events: 0,
        }
    }

    /// Folds one served window in at `at`, its energy and counts
    /// extrapolated by `scale`.
    pub(crate) fn record(&mut self, at: SimTime, w: &WindowMetrics, scale: f64) {
        self.sim_events += w.sim_events;
        self.ledger
            .record_energy_at(at, Energy::from_joules(w.it_energy_j() * scale));
        self.hist.merge(&w.latency_hist);
        for (acc, &n) in self.per_variant.iter_mut().zip(w.per_variant_served.iter()) {
            *acc += n as f64 * scale;
        }
        self.served_scaled += w.served as f64 * scale;
    }

    /// Charges one epoch of the boards the scaler holds out of the
    /// deployment (the serving windows already cover the active ones).
    /// Powered-off boards draw standby watts, warming boards the full
    /// static floor while they repartition and load models. Down boards
    /// (`down`, failed by the chaos layer) draw nothing: a failed GPU is off
    /// the bus, not on standby. Draining boards are the honest scale-down
    /// cost: powered, admitting nothing, until the next boundary confirms
    /// them empty; their draw is the static floor plus a fully allocated
    /// board's idle residual (one G7 slice), the conservative bound since
    /// the retired board's partitioning is no longer tracked. With the
    /// static policy every count is zero and nothing is charged.
    fn charge_idle_boards(
        &mut self,
        epoch: &ControlEpoch,
        perf: &PerfModel,
        fleet: FleetState,
        down: usize,
    ) {
        let power = &perf.power;
        let overhead_w = fleet.off.saturating_sub(down) as f64 * power.standby_gpu_w()
            + fleet.warming as f64 * power.gpu_static_w();
        self.ledger.record_power(epoch.start, epoch.len, overhead_w);
        if fleet.draining > 0 {
            let drain_w =
                fleet.draining as f64 * (power.gpu_static_w() + power.idle_slice_w(SliceType::G7));
            self.ledger.record_power(epoch.start, epoch.len, drain_w);
        }
    }

    /// Operational carbon so far, grams.
    pub fn carbon_g(&self) -> f64 {
        self.ledger.carbon().grams()
    }

    /// IT (device) energy so far, joules.
    pub fn it_energy_j(&self) -> f64 {
        self.ledger.it_energy().joules()
    }

    /// The grid intensity the ledger charges at `t`.
    pub fn intensity_at(&self, t: SimTime) -> CarbonIntensity {
        self.ledger.intensity_at(t)
    }

    /// The run-level latency distribution.
    pub fn hist(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Run-level p95 latency, seconds. NaN when nothing was served, never
    /// 0.0: an SLA check compares false against NaN, so a fully wedged run
    /// cannot pass.
    pub fn p95_s(&self) -> f64 {
        self.hist.quantile(0.95).unwrap_or(f64::NAN)
    }

    /// Served requests per variant ordinal, extrapolated.
    pub fn per_variant(&self) -> &[f64] {
        &self.per_variant
    }

    /// Requests served, extrapolated to the horizon.
    pub fn served_scaled(&self) -> f64 {
        self.served_scaled
    }

    /// Discrete events simulated.
    pub fn sim_events(&self) -> u64 {
        self.sim_events
    }
}

/// Everything a [`CellRuntime`] is built from.
pub struct CellSpec<'a> {
    /// The application's model family.
    pub family: &'a Arc<ModelFamily>,
    /// Hardware performance model.
    pub perf: PerfModel,
    /// Carbon trace the monitor reads and the ledger charges.
    pub trace: Arc<CarbonTrace>,
    /// Master seed; the evaluator, scheduler RNG and serving simulator are
    /// salted from it (`^0xE7A1`, `^0x5C8E`, `^0x11`).
    pub seed: u64,
    /// Scheduling scheme.
    pub scheme: &'a SchemeKind,
    /// GPUs provisioned.
    pub n_gpus: usize,
    /// The autoscaler's floor.
    pub min_gpus: usize,
    /// Autoscaling policy.
    pub scaling: ScalingPolicy,
    /// Serving capacity one BASE GPU contributes, req/s.
    pub capacity_per_gpu_rps: f64,
    /// Utilization the autoscaler sizes toward.
    pub utilization_target: f64,
    /// Carbon-monitor re-optimization threshold.
    pub monitor_threshold: f64,
    /// SA parameters, already resolved against the cadence.
    pub sa: SaParams,
    /// How much of each epoch is served.
    pub fidelity: &'a Fidelity,
    /// The run's control cadence.
    pub schedule: &'a EpochSchedule,
}

/// One cluster's serving, accounting and control, stepped once per epoch.
pub struct CellRuntime {
    /// The serving half.
    pub serving: CellServing,
    /// The run's accounting.
    pub tally: CellTally,
    /// The control half's decision loop. Callers reach it for the chaos
    /// hooks (`fleet_fail`, `fleet_repair`, `set_forecast_factor`,
    /// `set_carbon_gaps`).
    pub(crate) plane: ControlPlane,
    fleet: FleetState,
    optimization_time_s: f64,
    active_gpu_hours: f64,
    epoch_hours: f64,
    family: Arc<ModelFamily>,
    perf: PerfModel,
}

impl CellRuntime {
    /// Builds the cell on the BASE deployment over all `n_gpus`.
    pub fn new(spec: CellSpec<'_>) -> Self {
        let family = spec.family.clone();
        let initial = Deployment::base(&family, spec.n_gpus);
        let scheduler = make_scheduler(spec.scheme, &family, spec.n_gpus, spec.sa);
        // The plane sets the evaluator's rate to the workload's forecast
        // before every plan, so the rate it is built with is never measured;
        // the fleet's target load is a well-defined placeholder.
        let nominal_rps = spec.capacity_per_gpu_rps * spec.n_gpus as f64 * spec.utilization_target;
        let evaluator = DesEvaluator::new(
            family.clone(),
            spec.perf,
            nominal_rps,
            initial.clone(),
            spec.seed ^ 0xE7A1,
        );
        let mut scaler_cfg = ScalerConfig::new(
            spec.scaling,
            spec.min_gpus,
            spec.n_gpus,
            spec.capacity_per_gpu_rps,
        );
        scaler_cfg.target_utilization = spec.utilization_target;
        let scaler = Scaler::new(scaler_cfg);
        let fleet = scaler.fleet();
        let monitor = CarbonMonitor::new(spec.trace.clone(), spec.monitor_threshold);
        let rng = SimRng::new(spec.seed ^ 0x5C8E);
        let plane = ControlPlane::new(scheduler, monitor, scaler, evaluator, rng);
        let sim = ServingSim::new(family.clone(), spec.perf, initial, spec.seed ^ 0x11);
        CellRuntime {
            serving: CellServing::new(sim, spec.fidelity, spec.schedule.epoch_len()),
            tally: CellTally::new(spec.trace, family.len()),
            plane,
            fleet,
            optimization_time_s: 0.0,
            active_gpu_hours: 0.0,
            epoch_hours: spec.schedule.epoch_hours(),
            family,
            perf: spec.perf,
        }
    }

    /// Wires the sink's profiler into the evaluator (candidate windows
    /// land in [`Phase::Search`]) and the serving simulator (boundary
    /// hand-offs land in [`Phase::Carry`]). No-ops when profiling is off.
    pub fn set_profiler(&mut self, telemetry: &Telemetry) {
        self.plane.set_profiler(telemetry.profiler());
        self.serving.sim.set_profiler(telemetry.profiler());
    }

    /// Opens `epoch`: the plane observes the grid, sizes the fleet and
    /// re-plans when a trigger fires (planning against `workload`). The
    /// fleet's GPU-hours and the plan's charged search time accrue, the
    /// evaluation windows are folded into the tally 1:1 (exploration
    /// traffic is real traffic, also for schemes that report no
    /// optimization run), and a new configuration goes to the serving
    /// simulator. The returned plan's `deployment` is already taken.
    pub fn plan(
        &mut self,
        epoch: &ControlEpoch,
        objective: &Objective,
        workload: &Workload,
        telemetry: &mut Telemetry,
    ) -> EpochPlan {
        let env = PlaneEnv {
            family: &self.family,
            perf: &self.perf,
            objective,
            workload,
        };
        let mut plan = self.plane.begin_epoch_with(epoch, &env, telemetry);
        self.fleet = plan.fleet;
        self.active_gpu_hours += plan.fleet.active as f64 * self.epoch_hours;
        if let Some(run) = &plan.run {
            self.optimization_time_s += run.time_spent_s;
        }
        for w in &plan.eval_windows {
            self.tally.record(epoch.start, w, 1.0);
        }
        if let Some(deployment) = plan.deployment.take() {
            self.serving.sim.set_deployment(deployment);
        }
        plan
    }

    /// Serves `epoch` against `arrivals` (timed as [`Phase::Des`]), folds
    /// the window into the tally, charges the boards outside the
    /// deployment, and feeds the measurement back to the plane.
    pub fn serve(
        &mut self,
        epoch: &ControlEpoch,
        arrivals: &mut dyn ArrivalProcess,
        objective: &Objective,
        workload: &Workload,
        telemetry: &Telemetry,
    ) -> WindowMetrics {
        let des = telemetry.scope(Phase::Des);
        let w = self.serving.serve(arrivals);
        drop(des);
        self.tally.record(epoch.start, &w, self.serving.scale());
        let down = self.plane.gpus_down();
        self.tally
            .charge_idle_boards(epoch, &self.perf, self.fleet, down);
        let env = PlaneEnv {
            family: &self.family,
            perf: &self.perf,
            objective,
            workload,
        };
        self.plane.observe_serving(epoch, &w, &env);
        w
    }

    /// The fleet partition of the last plan (the whole fleet active before
    /// the first).
    pub fn fleet(&self) -> FleetState {
        self.fleet
    }

    /// Live time the scheduler charged over the run, seconds.
    pub fn optimization_time_s(&self) -> f64 {
        self.optimization_time_s
    }

    /// GPU-hours the active fleet accrued.
    pub fn active_gpu_hours(&self) -> f64 {
        self.active_gpu_hours
    }
}

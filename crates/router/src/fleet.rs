//! One region's serving stack, wrapped for the global router.
//!
//! A `RegionalFleet` is one [`CellRuntime`] (the per-cell runtime the
//! single-cluster experiment runs too) plus what only the router needs:
//! the region's outage state and the live-traffic counters routing reads.
//! Each fleet has its own carbon trace (the region's generator) and its
//! own RNG substream, so adding or removing a region never re-deals another
//! region's randomness. The [`crate::GlobalRouter`] owns the fleet
//! collection and decides, each control epoch, what share of global
//! traffic each fleet serves.

use crate::policy::RegionSnapshot;
use clover_carbon::Region;
use clover_core::cell::CellRuntime;
use clover_core::control::ControlEpoch;
use clover_core::Objective;
use clover_serving::WindowMetrics;
use clover_simkit::{SimRng, SimTime};
use clover_telemetry::Telemetry;
use clover_workload::{ArrivalProcess, Workload};

/// Weight floor the *planning* workload is held at for a region routed
/// zero traffic. The serving side genuinely admits nothing (see
/// [`NoArrivals`]), but the control plane still runs its epoch — draining
/// backlog, letting the scaler shrink toward `min_gpus` — and its
/// evaluator needs a well-posed (positive) planning rate to measure
/// candidate deployments against.
pub const PLANNING_FLOOR_W: f64 = 0.01;

/// An arrival process that never produces a request — what a region routed
/// weight zero serves its epoch against (backlog still drains).
pub struct NoArrivals;

impl ArrivalProcess for NoArrivals {
    fn next_after(&mut self, _now: SimTime, _rng: &mut SimRng) -> Option<SimTime> {
        None
    }

    fn rate_at(&self, _t: SimTime) -> f64 {
        0.0
    }

    fn mean_rate(&self) -> f64 {
        0.0
    }
}

/// One region's per-cell runtime plus its routing state.
pub(crate) struct RegionalFleet {
    pub(crate) region: Region,
    /// Serving, accounting and control; always continuous (full epochs).
    pub(crate) cell: CellRuntime,
    /// Live-traffic requests served in this region.
    pub(crate) served: u64,
    /// IT energy per request of the last epoch that served any.
    recent_energy_per_request_j: f64,
    down: bool,
}

impl RegionalFleet {
    pub(crate) fn new(region: Region, cell: CellRuntime) -> Self {
        RegionalFleet {
            region,
            cell,
            served: 0,
            recent_energy_per_request_j: 0.0,
            down: false,
        }
    }

    /// Whether the region is inside an outage window.
    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    /// Backlog (queued + in-flight) the fleet carries right now.
    pub(crate) fn backlog(&self) -> u64 {
        self.cell.serving.carry().backlog()
    }

    /// What a routing policy sees of region `index` at `t`: current and
    /// lookahead carbon (hourly samples of the region's trace), queue
    /// state, and live capacity.
    pub(crate) fn snapshot(
        &self,
        index: usize,
        t: SimTime,
        lookahead_h: f64,
        prev_weight: f64,
        capacity_per_gpu_rps: f64,
    ) -> RegionSnapshot {
        let ci_at = |at: SimTime| self.cell.tally.intensity_at(at).g_per_kwh();
        let hours = (lookahead_h.ceil() as usize).max(1);
        let mut sum = 0.0;
        for k in 0..hours {
            sum += ci_at(SimTime::from_secs(t.as_secs() + k as f64 * 3600.0));
        }
        let carry = self.cell.serving.carry();
        let active = self.cell.fleet().active;
        RegionSnapshot {
            index,
            label: self.region.to_string(),
            up: !self.down,
            ci_now_g_per_kwh: ci_at(t),
            ci_forecast_g_per_kwh: sum / hours as f64,
            queued: carry.queued() as u64,
            in_flight: carry.in_flight() as u64,
            active_gpus: active,
            capacity_rps: active as f64 * capacity_per_gpu_rps,
            energy_per_request_j: self.recent_energy_per_request_j,
            prev_weight,
        }
    }

    /// Takes the region dark at an outage onset: the entire backlog —
    /// queued and in-flight alike (mid-service progress is lost with the
    /// region) — is drained for migration, aged by the inter-region
    /// transfer latency, and handed to the router's transit pool. The
    /// scaler and ledger freeze until [`RegionalFleet::restore`]; dark
    /// boards draw nothing.
    pub(crate) fn go_dark(&mut self, transfer_latency_s: f64) -> Vec<f64> {
        self.down = true;
        let mut ages = self.cell.serving.carry_mut().drain_for_migration();
        for a in &mut ages {
            *a += transfer_latency_s;
        }
        ages
    }

    /// Brings the region back after an outage (empty carry, scaler state
    /// as the outage left it — warm-up happens through the normal epoch
    /// loop).
    pub(crate) fn restore(&mut self) {
        self.down = false;
    }

    /// Runs one control epoch at routed `weight` of the `global` workload:
    /// plan against the weight-scaled workload (floored at
    /// [`PLANNING_FLOOR_W`]), then serve the full epoch continuously
    /// (weight zero serves [`NoArrivals`] — the backlog still drains).
    ///
    /// Must not be called while the region is dark.
    pub(crate) fn serve_epoch(
        &mut self,
        epoch: &ControlEpoch,
        weight: f64,
        global: &Workload,
        objective: &Objective,
        telemetry: &mut Telemetry,
    ) -> WindowMetrics {
        assert!(!self.down, "a dark region serves nothing");
        let scaled = |w: f64| Workload::new(global.kind().clone(), w * global.mean_rate());
        let planning = scaled(weight.max(PLANNING_FLOOR_W));
        self.cell.plan(epoch, objective, &planning, telemetry);
        let mut arrivals: Box<dyn ArrivalProcess> = if weight > 0.0 {
            scaled(weight).process_from(epoch.start)
        } else {
            Box::new(NoArrivals)
        };
        let w = self
            .cell
            .serve(epoch, arrivals.as_mut(), objective, &planning, telemetry);
        self.served += w.served;
        // What a request actually cost here this epoch — the routing
        // policies relativize grid intensity by it (a clean grid serving
        // the big hungry variants is less attractive than its intensity
        // alone suggests). Dry epochs keep the last observation.
        if w.served > 0 {
            self.recent_energy_per_request_j = w.it_energy_j() / w.served as f64;
        }
        w
    }
}

//! The synchronized BASE reference every cell is measured against.
//!
//! The paper reports each scheme's carbon saving, accuracy loss and
//! normalized p95 against a BASE deployment serving the same trace and
//! traffic (Sec. 5.1). That reference run is a pure function of a few
//! config fields, collected in [`ReferenceSpec`]. The scheme, chaos,
//! scaling and SLA settings are not among them, so every cell of a grid
//! that shares a seed would simulate the same reference.
//!
//! The run is the per-cell runtime's serving half and tally
//! ([`CellServing`], [`CellTally`]) without a control plane: the BASE
//! deployment on the reference GPUs, never re-planned, never faulted.
//!
//! Every live [`Experiment`](super::Experiment) whose spec is
//! equal holds one shared [`Reference`]. A private registry of `Weak`
//! handles hands out the same `Arc`, so a reference lives exactly as long
//! as the experiments holding it; nothing is remembered once they are
//! gone.
//!
//! The reference advances lazily. After serving its own epoch *e*, a cell
//! tries the lock: if it is free, the cell simulates the reference through
//! *e*; if another cell holds it, the cell moves on. After its last epoch,
//! a cell blocks until the rest is simulated and reads the tally. The run
//! reads only its spec and its epochs run in order, so which cell advanced
//! which epoch cannot change a bit of any outcome.

use super::{ExperimentConfig, TraceSource};
use crate::cell::{CellServing, CellTally};
use crate::control::{EpochSchedule, Fidelity};
use clover_models::zoo::Application;
use clover_models::PerfModel;
use clover_serving::{analytic, Deployment, ServingSim};
use clover_telemetry::{Phase, Telemetry};
use clover_workload::{Workload, WorkloadKind};
use std::sync::{Arc, Mutex, PoisonError, TryLockError, Weak};

/// Every input of the reference run, and the key it is shared under.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ReferenceSpec {
    app: Application,
    trace: TraceSource,
    seed: u64,
    reference_gpus: usize,
    utilization_target: f64,
    workload: WorkloadKind,
    horizon_hours: f64,
    control_epoch_s: f64,
    fidelity: Fidelity,
    des_shards: usize,
}

impl ReferenceSpec {
    pub(super) fn of(cfg: &ExperimentConfig) -> Self {
        ReferenceSpec {
            app: cfg.app,
            trace: cfg.trace,
            seed: cfg.seed,
            reference_gpus: cfg.reference_gpus,
            utilization_target: cfg.utilization_target,
            workload: cfg.workload.clone(),
            horizon_hours: cfg.horizon_hours,
            control_epoch_s: cfg.control_epoch_s,
            fidelity: cfg.fidelity.clone(),
            des_shards: cfg.des_shards,
        }
    }
}

/// One BASE reference run, shared by every experiment with its spec.
pub(super) struct Reference {
    spec: ReferenceSpec,
    state: Mutex<State>,
}

enum State {
    /// Nothing simulated yet. The run is built on first use, so building an
    /// experiment stays as cheap as before.
    Idle,
    Running(Box<Run>),
    /// The finished run's accounting, read by every cell.
    Done(Arc<CellTally>),
}

/// Live references, one per distinct spec. The `Weak` handles never keep a
/// reference alive; a reference removes its own entry when dropped.
static REGISTRY: Mutex<Vec<(ReferenceSpec, Weak<Reference>)>> = Mutex::new(Vec::new());

impl Reference {
    /// The live reference for `spec`, or a new one if no experiment holds
    /// one.
    pub(super) fn shared(spec: ReferenceSpec) -> Arc<Reference> {
        let mut live = REGISTRY
            .lock()
            .expect("reference registry poisoned: a thread panicked while holding it");
        if let Some(r) = live
            .iter()
            .find(|(s, _)| *s == spec)
            .and_then(|(_, w)| w.upgrade())
        {
            return r;
        }
        let r = Arc::new(Reference {
            spec: spec.clone(),
            state: Mutex::new(State::Idle),
        });
        live.retain(|(_, w)| w.strong_count() > 0);
        live.push((spec, Arc::downgrade(&r)));
        r
    }

    /// Simulates the reference through epoch index `epoch`, unless another
    /// cell is advancing it right now, in which case this returns at once.
    pub(super) fn advance(&self, epoch: u32, telemetry: &Telemetry, shard_threads: Option<usize>) {
        match self.state.try_lock() {
            Ok(mut state) => self.run_until(&mut state, epoch + 1, telemetry, shard_threads),
            Err(TryLockError::WouldBlock) => {}
            Err(TryLockError::Poisoned(_)) => {
                panic!("BASE reference poisoned: a cell panicked while advancing it")
            }
        }
    }

    /// Simulates whatever epochs remain, waiting for any cell advancing the
    /// reference, and returns its tally.
    pub(super) fn finish(
        &self,
        telemetry: &Telemetry,
        shard_threads: Option<usize>,
    ) -> Arc<CellTally> {
        let mut state = self
            .state
            .lock()
            .expect("BASE reference poisoned: a cell panicked while advancing it");
        self.run_until(&mut state, u32::MAX, telemetry, shard_threads);
        match &*state {
            State::Done(tally) => tally.clone(),
            _ => unreachable!("run_until(u32::MAX) completes the reference"),
        }
    }

    /// Serves epochs until `end` (exclusive) or the horizon, timing them as
    /// the calling cell's [`Phase::Des`].
    fn run_until(
        &self,
        state: &mut State,
        end: u32,
        telemetry: &Telemetry,
        shard_threads: Option<usize>,
    ) {
        if matches!(state, State::Idle) {
            *state = State::Running(Box::new(Run::new(&self.spec)));
        }
        let State::Running(run) = state else {
            return;
        };
        let end = end.min(run.schedule.count());
        if run.next < end {
            // Neither setting changes a result: boundary hand-offs are timed
            // as this cell's Carry, and sharded epochs use its thread budget.
            run.serving.sim.set_profiler(telemetry.profiler());
            run.serving.sim.set_shard_threads(shard_threads);
            let _des = telemetry.scope(Phase::Des);
            while run.next < end {
                run.serve_next();
            }
        }
        if run.next == run.schedule.count() {
            let State::Running(run) = std::mem::replace(state, State::Idle) else {
                unreachable!("matched Running above");
            };
            *state = State::Done(Arc::new(run.tally));
        }
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // This reference's strong count is already zero, so its entry goes.
        // Every update of the list leaves it valid, so a poisoned lock is
        // safe to recover.
        let mut live = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        live.retain(|(_, w)| w.strong_count() > 0);
    }
}

/// The reference's simulation state between epochs: the per-cell
/// runtime's serving half and tally, with no control plane.
struct Run {
    schedule: EpochSchedule,
    workload: Workload,
    serving: CellServing,
    tally: CellTally,
    /// Epochs simulated so far.
    next: u32,
}

impl Run {
    fn new(spec: &ReferenceSpec) -> Run {
        let family = Arc::new(spec.app.family());
        let perf = PerfModel::a100();
        let trace = Arc::new(spec.trace.carbon_trace(spec.seed, spec.horizon_hours));
        let schedule = EpochSchedule::new(spec.horizon_hours, spec.control_epoch_s);
        let base = Deployment::base(&family, spec.reference_gpus);
        // The workload rate, derived exactly as `Experiment::new` derives it.
        let rate_rps =
            analytic::estimate(&family, &perf, &base, 1.0).capacity_rps * spec.utilization_target;
        let variants = family.len();
        let mut sim = ServingSim::new(family, perf, base, spec.seed ^ 0x22);
        sim.set_intra_epoch_shards(spec.des_shards);
        Run {
            serving: CellServing::new(sim, &spec.fidelity, schedule.epoch_len()),
            schedule,
            workload: Workload::new(spec.workload.clone(), rate_rps),
            tally: CellTally::new(trace, variants),
            next: 0,
        }
    }

    /// One reference epoch under the same workload as the scheme's, carried
    /// across boundaries when the run is continuous (the baseline must not
    /// keep a cold-start advantage).
    fn serve_next(&mut self) {
        let epoch = self
            .schedule
            .iter()
            .nth(self.next as usize)
            .expect("serve_next is called only before the horizon");
        let mut arrivals = self.workload.process_from(epoch.start);
        let w = self.serving.serve(arrivals.as_mut());
        self.tally.record(epoch.start, &w, self.serving.scale());
        self.next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::ScalingPolicy;
    use crate::chaos::ChaosConfig;
    use crate::experiment::Experiment;
    use crate::schedulers::SchemeKind;
    use clover_carbon::Region;

    /// Seeds here are used by no other test of this crate, so no
    /// concurrently running test can hold these references.
    fn cfg(seed: u64) -> crate::experiment::ExperimentConfigBuilder {
        ExperimentConfig::builder(Application::ImageClassification)
            .scheme(SchemeKind::Clover)
            .n_gpus(4)
            .horizon_hours(2.0)
            .fidelity(Fidelity::RepresentativeWindow { window_s: 20.0 })
            .seed(seed)
    }

    /// Registry entries for `spec`, live or not.
    fn registered(spec: &ReferenceSpec) -> usize {
        REGISTRY
            .lock()
            .unwrap()
            .iter()
            .filter(|(s, _)| s == spec)
            .count()
    }

    fn is_idle(r: &Reference) -> bool {
        matches!(*r.state.lock().unwrap(), State::Idle)
    }

    #[test]
    fn experiments_with_equal_specs_hold_one_reference() {
        let base = Experiment::new(cfg(9101).build());
        let shared = [
            cfg(9101).scheme(SchemeKind::Base).build(),
            cfg(9101).n_gpus(3).reference_gpus(4).build(),
            cfg(9101).chaos(ChaosConfig::resilience(6.0)).build(),
            cfg(9101).scaling(ScalingPolicy::reactive()).build(),
            cfg(9101).sla_headroom(2.0).build(),
        ];
        for c in shared {
            let label = format!("{c:?}");
            let e = Experiment::new(c);
            assert!(Arc::ptr_eq(&base.reference, &e.reference), "{label}");
        }
        let distinct = [
            cfg(9102).build(),
            cfg(9101).n_gpus(3).reference_gpus(5).build(),
            cfg(9101).workload(WorkloadKind::mmpp()).build(),
            cfg(9101).fidelity(Fidelity::FullEpoch).build(),
            cfg(9101).horizon_hours(3.0).build(),
            cfg(9101).region(Region::EsoMarch).build(),
        ];
        for c in distinct {
            let label = format!("{c:?}");
            let e = Experiment::new(c);
            assert!(!Arc::ptr_eq(&base.reference, &e.reference), "{label}");
        }
    }

    #[test]
    fn reference_lives_exactly_as_long_as_its_holders() {
        let spec = ReferenceSpec::of(&cfg(9201).build());
        let clover = Experiment::new(cfg(9201).build());
        let base = Experiment::new(cfg(9201).scheme(SchemeKind::Base).build());
        assert!(Arc::ptr_eq(&clover.reference, &base.reference));
        assert_eq!(registered(&spec), 1);
        assert!(is_idle(&clover.reference), "building must not simulate");

        let first = clover.run();
        assert!(matches!(
            *base.reference.state.lock().unwrap(),
            State::Done(_)
        ));
        assert!(first.base_sim_events > 0);
        assert_eq!(base.run().base_sim_events, first.base_sim_events);

        drop(clover);
        assert_eq!(registered(&spec), 1, "one holder is still alive");
        drop(base);
        assert_eq!(registered(&spec), 0, "the last holder removes the entry");

        let rebuilt = Experiment::new(cfg(9201).build());
        assert_eq!(registered(&spec), 1);
        assert!(
            is_idle(&rebuilt.reference),
            "a rebuilt experiment recomputes"
        );
        assert_eq!(rebuilt.run().digest(), first.digest());
    }

    #[test]
    fn a_busy_reference_is_skipped_not_waited_for() {
        let e = Experiment::new(cfg(9301).build());
        let held = e.reference.state.lock().unwrap();
        e.reference.advance(0, &Telemetry::disabled(), None);
        drop(held);
        assert!(is_idle(&e.reference));
        e.reference.advance(0, &Telemetry::disabled(), None);
        let state = e.reference.state.lock().unwrap();
        match &*state {
            State::Running(run) => assert_eq!(run.next, 1),
            _ => panic!("advancing through epoch 0 of 2 leaves the run in progress"),
        }
    }
}

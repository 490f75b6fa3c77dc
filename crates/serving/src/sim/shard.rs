//! Intra-epoch sharding of the continuous DES: one `FullEpoch` cell split
//! across cores.
//!
//! # Model
//!
//! With the default shard count of 1, a continuous epoch is one producer
//! feeding one FIFO in front of all instances. With `K ≥ 2` shards it is a
//! **sharded-producer** system, the standard scale-out of the paper's
//! load-balancer architecture: instance `i` belongs to shard `i mod K` (so
//! heterogeneous slices spread evenly), and every incoming request —
//! carried queue entries first, then the epoch's arrivals — is routed to a
//! shard by a deterministic smooth weighted round-robin whose weights are
//! each shard's service capacity `Σ 1/mean_service_s`. Each shard then
//! runs the simulator's one DES body (`run_des`, shared with the classic
//! window and the unsharded epoch) over its own instances, queue and event
//! queue, with a pre-split arrival sequence and a queue bound of
//! `MAX_QUEUE / K`.
//!
//! Sharded physics is *not* bit-identical to the 1-shard queue (K queues
//! instead of one; the paper's single-queue results keep the default of
//! 1), but the conservation law holds per shard: every seam reported in
//! [`WindowMetrics::shard_seams`] closes
//! `carried_in + arrived == served + dropped + carried_out` exactly.
//!
//! # Determinism
//!
//! Everything random is decided *before* the shards run: the arrival
//! sequence is pre-drawn from the window's arrival substream (consuming the
//! process and RNG exactly as the unsharded engine would), the split is a
//! pure function of the sequence and the deployment, and each shard owns an
//! independent service substream
//! (`window.substream(SERVICE).substream(SHARD_SERVICE + k)`). Shards are
//! executed with [`par_map`], which deposits results at submission index,
//! and the merge folds them in shard order — so the output is byte-identical
//! for *any* worker-thread count, including 1. `tests/sharding.rs` pins
//! this across thread counts and records the digests at shard counts
//! `{1, 2, 4}` for all five schemes.

use super::*;
use clover_simkit::{default_threads, par_map};

/// Boundary accounting of one shard of a sharded continuous epoch. Each
/// seam closes the conservation law on its own:
/// `carried_in + arrived == served + dropped + carried_out`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSeam {
    /// Shard index (0-based, `< shard count`).
    pub shard: u32,
    /// Requests restored into this shard at the epoch's opening boundary
    /// (in-flight on its instances plus its share of the carried queue).
    pub carried_in: u64,
    /// Requests the split routed to this shard during the epoch.
    pub arrived: u64,
    /// Requests this shard completed within the epoch.
    pub served: u64,
    /// Requests this shard shed at its queue bound.
    pub dropped: u64,
    /// Requests still inside this shard at the closing boundary.
    pub carried_out: u64,
}

impl ShardSeam {
    /// Signed conservation residual of this seam; 0 unless the bookkeeping
    /// itself is broken.
    pub fn leak(&self) -> i64 {
        (self.carried_in + self.arrived) as i64
            - (self.served + self.dropped + self.carried_out) as i64
    }
}

/// One shard's share of a sharded epoch, prepared serially by the split
/// so the parallel phase shares nothing mutable. Instance indices are
/// already local to the shard.
struct ShardTask {
    /// Reusable scratch, pre-reset with this shard's instance table built.
    scratch: SimScratch,
    in_flight: Vec<CarriedRequest>,
    queue_ages: Vec<f64>,
    /// This shard's share of the epoch's pre-drawn arrivals, ascending.
    arrivals: Vec<SimTime>,
    /// Mid-epoch failures of this shard's instances.
    failures: Vec<InstanceFailure>,
    /// This shard's independent service-randomness stream.
    service_rng: SimRng,
}

/// Smooth weighted round-robin: each pick adds every shard's weight to its
/// credit, takes the highest credit (ties to the lowest index), and charges
/// the winner the total weight. Deterministic, starvation-free, and
/// proportional to capacity over any window of picks.
fn wrr_pick(credit: &mut [f64], weights: &[f64], total: f64) -> usize {
    for (c, w) in credit.iter_mut().zip(weights) {
        *c += w;
    }
    let mut best = 0;
    for s in 1..credit.len() {
        if credit[s] > credit[best] {
            best = s;
        }
    }
    credit[best] -= total;
    best
}

impl ServingSim {
    /// The sharded continuous epoch: split deterministically, run the
    /// shards on a [`par_map`] pool, merge in shard order. Called by
    /// [`ServingSim::run_epoch_continuous`] when 2+ shards are configured
    /// and the deployment has 2+ instances (`k` is the effective count,
    /// already clamped).
    pub(super) fn run_epoch_sharded(
        &mut self,
        arrivals: &mut dyn ArrivalProcess,
        epoch: SimDuration,
        carry: ServingCarry,
        k: usize,
    ) -> (WindowMetrics, ServingCarry) {
        // Same window-stream discipline as the unsharded engine: one fork
        // off the root (so the simulator's RNG evolves identically whatever
        // the shard count), arrival and service substreams derived from it.
        let window_rng = self.rng.fork(0x5e7);
        let mut arrival_rng = window_rng.substream(stream::ARRIVALS);
        let service_root = window_rng.substream(stream::SERVICE);
        let horizon = SimTime::ZERO + epoch;

        let split_scope = self.profiler.as_ref().map(|p| p.scope(Phase::Carry));

        // Pre-draw the epoch's arrival sequence, consuming the process and
        // its RNG substream exactly as the unsharded event loop would (one
        // draw past the horizon ends the chain there too).
        let mut arrival_times: Vec<SimTime> = Vec::new();
        let mut prev = SimTime::ZERO;
        while let Some(t) = arrivals.next_after(prev, &mut arrival_rng) {
            if t > horizon {
                break;
            }
            arrival_times.push(t);
            prev = t;
        }

        // Stripe instances across shards (global `i` is shard `i % k`'s
        // local `i / k`) and build each shard's instance table in a
        // recycled scratch, weighting the shard by its service capacity.
        let instances = self.deployment.instances();
        let m = instances.len();
        debug_assert!(k >= 2 && k <= m);
        while self.shard_scratch.len() < k {
            self.shard_scratch.push(SimScratch::new());
        }
        let mut weights = vec![0.0f64; k];
        let mut tasks: Vec<ShardTask> = Vec::with_capacity(k);
        for (s, weight) in weights.iter_mut().enumerate() {
            let mut scratch = self.shard_scratch.pop().expect("scratch pool sized above");
            scratch.prepare(&self.family, &self.perf, instances[s..].iter().step_by(k));
            *weight = scratch
                .instances
                .iter()
                .map(|i| 1.0 / i.mean_service_s)
                .sum();
            tasks.push(ShardTask {
                scratch,
                in_flight: Vec::new(),
                queue_ages: Vec::new(),
                arrivals: Vec::new(),
                failures: Vec::new(),
                service_rng: service_root.substream(stream::SHARD_SERVICE + s as u64),
            });
        }

        // Restore the carry: matching in-flight work goes home to the shard
        // owning its instance; the waiting queue (with in-flight work
        // requeued on a reconfiguration) and then the epoch's arrivals are
        // routed, in order, through the capacity-weighted round-robin.
        let (in_flight, queue_ages) = carry.restore_on(&self.deployment);
        for r in in_flight {
            tasks[r.instance as usize % k]
                .in_flight
                .push(CarriedRequest {
                    instance: r.instance / k as u32,
                    ..*r
                });
        }
        let total_w: f64 = weights.iter().sum();
        let mut credit = vec![0.0f64; k];
        for &age in queue_ages.iter() {
            tasks[wrr_pick(&mut credit, &weights, total_w)]
                .queue_ages
                .push(age);
        }
        for &t in &arrival_times {
            tasks[wrr_pick(&mut credit, &weights, total_w)]
                .arrivals
                .push(t);
        }
        drop(arrival_times);

        // Scope each failure to the shards owning its instances; the
        // physical-GPU static-energy credit stays global (see
        // `window_metrics`).
        let failures = std::mem::take(&mut self.pending_failures);
        for f in &failures {
            for (s, task) in tasks.iter_mut().enumerate() {
                let local: Vec<u32> = f
                    .instances
                    .iter()
                    .filter(|&&i| (i as usize) < m && (i as usize) % k == s)
                    .map(|&i| i / k as u32)
                    .collect();
                if !local.is_empty() {
                    task.failures.push(InstanceFailure {
                        at_s: f.at_s,
                        instances: local,
                        gpus: 0,
                    });
                }
            }
        }
        drop(split_scope);

        // The parallel phase: every shard runs the shared DES body over its
        // own scratch; results are deposited at submission index, so thread
        // count cannot reorder the merge below.
        let threads = self
            .shard_threads
            .unwrap_or_else(default_threads)
            .clamp(1, k);
        let max_queue = (MAX_QUEUE / k).max(1);
        let results = par_map(
            tasks.into_iter().enumerate().collect(),
            threads,
            |(s, mut task): (usize, ShardTask)| {
                let out = run_des(
                    &mut task.scratch,
                    DesRun {
                        warmup: SimDuration::ZERO,
                        window: epoch,
                        continuous: true,
                        arrivals: Arrivals::Split(task.arrivals.iter()),
                        service_rng: task.service_rng,
                        max_queue,
                        failures: &task.failures,
                        in_flight: &task.in_flight,
                        queue_ages: &task.queue_ages,
                        shard: s as u32,
                        shards: k as u32,
                        restore_scope: None,
                        profiler: None,
                    },
                );
                (task.scratch, out)
            },
        );

        // Order-preserving merge, timed as carry work like the unsharded
        // engine's boundary snapshot.
        let merge_scope = self.profiler.as_ref().map(|p| p.scope(Phase::Carry));
        self.scratch.reset(self.family.len());
        let mut seams: Vec<ShardSeam> = Vec::with_capacity(k);
        let mut outcomes = Vec::with_capacity(k);
        let mut out = ServingCarry {
            deployment: Some(self.deployment.clone()),
            ..ServingCarry::default()
        };
        for (scratch, mut r) in results {
            self.scratch.hist.merge(&scratch.hist);
            for (acc, &v) in self
                .scratch
                .per_variant
                .iter_mut()
                .zip(&scratch.per_variant)
            {
                *acc += v;
            }
            let shard_carry = r.carry.take().expect("continuous shards carry");
            out.in_flight.extend(shard_carry.in_flight);
            out.queue_ages_s.extend(shard_carry.queue_ages_s);
            seams.push(r.seam.clone());
            outcomes.push(r);
            self.shard_scratch.push(scratch);
        }
        let sum = outcomes
            .into_iter()
            .reduce(DesOutcome::absorb)
            .expect("a sharded epoch has 2+ shards");
        // Canonical carry order: in-flight by completion time (remaining
        // service, ties by instance) — the order the unsharded engine's
        // boundary drain produces — and the queue oldest-first.
        out.in_flight.sort_by(|a, b| {
            a.remaining_s
                .partial_cmp(&b.remaining_s)
                .expect("finite remaining service")
                .then(a.instance.cmp(&b.instance))
        });
        out.queue_ages_s
            .sort_by(|a, b| b.partial_cmp(a).expect("finite request ages"));
        let mut metrics = self.window_metrics(
            &sum,
            SimDuration::ZERO,
            epoch,
            &failures,
            arrivals.mean_rate(),
        );
        metrics.shard_seams = seams;
        drop(merge_scope);
        (metrics, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_models::zoo::efficientnet;
    use clover_models::PerfModel;
    use clover_workload::PoissonProcess;

    fn continuous_run_on(
        gpus: usize,
        shards: usize,
        threads: usize,
        epochs: usize,
    ) -> (Vec<WindowMetrics>, ServingCarry) {
        let fam = efficientnet();
        let d = Deployment::base(&fam, gpus);
        let mut sim = ServingSim::new(fam, PerfModel::a100(), d, 42);
        sim.set_intra_epoch_shards(shards);
        sim.set_shard_threads(Some(threads));
        let mut carry = ServingCarry::default();
        let mut all = Vec::new();
        for _ in 0..epochs {
            let mut p = PoissonProcess::new(400.0);
            let (w, next) = sim.run_epoch_continuous(&mut p, SimDuration::from_secs(30.0), carry);
            carry = next;
            all.push(w);
        }
        (all, carry)
    }

    fn continuous_run(
        shards: usize,
        threads: usize,
        epochs: usize,
    ) -> (Vec<WindowMetrics>, ServingCarry) {
        continuous_run_on(2, shards, threads, epochs)
    }

    fn fingerprint(ws: &[WindowMetrics], carry: &ServingCarry) -> Vec<u64> {
        let mut v = Vec::new();
        for w in ws {
            v.push(w.arrived);
            v.push(w.served);
            v.push(w.dropped);
            v.push(w.mean_latency_s.to_bits());
            v.push(w.p95_latency_s.unwrap_or(0.0).to_bits());
            v.push(w.dynamic_energy_j.to_bits());
            v.push(w.idle_energy_j.to_bits());
            v.push(w.sim_events);
        }
        v.push(carry.backlog());
        for &a in &carry.queue_ages_s {
            v.push(a.to_bits());
        }
        v
    }

    #[test]
    fn sharded_results_are_thread_count_invariant() {
        for shards in [2, 4, 7] {
            let reference = continuous_run(shards, 1, 3);
            let ref_fp = fingerprint(&reference.0, &reference.1);
            for threads in [2, 4, 8] {
                let run = continuous_run(shards, threads, 3);
                assert_eq!(
                    ref_fp,
                    fingerprint(&run.0, &run.1),
                    "shards={shards} threads={threads} diverged from 1 thread"
                );
            }
        }
    }

    #[test]
    fn every_seam_closes_conservation() {
        let (ws, _) = continuous_run_on(4, 4, 2, 4);
        for (e, w) in ws.iter().enumerate() {
            assert_eq!(w.shard_seams.len(), 4, "epoch {e}");
            for seam in &w.shard_seams {
                assert_eq!(seam.leak(), 0, "epoch {e} shard {} leaks", seam.shard);
            }
            assert_eq!(w.conservation_leak, 0, "epoch {e}");
            let arrived: u64 = w.shard_seams.iter().map(|s| s.arrived).sum();
            assert_eq!(arrived, w.arrived, "epoch {e} split lost an arrival");
        }
    }

    #[test]
    fn unsharded_path_reports_no_seams_and_is_untouched() {
        let (ws, _) = continuous_run(1, 4, 2);
        for w in &ws {
            assert!(w.shard_seams.is_empty());
            assert_eq!(w.conservation_leak, 0);
        }
    }

    #[test]
    fn sharded_totals_stay_physical() {
        let unsharded = continuous_run(1, 1, 3);
        let sharded = continuous_run(4, 4, 3);
        let total = |ws: &[WindowMetrics]| -> (u64, u64) {
            (
                ws.iter().map(|w| w.arrived).sum(),
                ws.iter().map(|w| w.served).sum(),
            )
        };
        let (a1, s1) = total(&unsharded.0);
        let (a4, s4) = total(&sharded.0);
        // The same pre-drawn arrival stream feeds both engines.
        assert_eq!(a1, a4, "sharding changed the offered load");
        // Different physics, same ballpark: both serve nearly everything
        // at this utilization.
        let diff = (s1 as f64 - s4 as f64).abs() / s1 as f64;
        assert!(diff < 0.05, "served diverged too far: {s1} vs {s4}");
    }

    #[test]
    fn wrr_split_is_proportional_and_deterministic() {
        let weights = [3.0, 1.0];
        let total = 4.0;
        let mut credit = vec![0.0; 2];
        let picks: Vec<usize> = (0..8)
            .map(|_| wrr_pick(&mut credit, &weights, total))
            .collect();
        // 3:1 capacity → six of eight picks to shard 0, evenly interleaved.
        assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 6);
        let mut credit2 = vec![0.0; 2];
        let picks2: Vec<usize> = (0..8)
            .map(|_| wrr_pick(&mut credit2, &weights, total))
            .collect();
        assert_eq!(picks, picks2);
    }
}

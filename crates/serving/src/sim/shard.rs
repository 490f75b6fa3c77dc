//! Intra-epoch sharding of the continuous DES — the engine that lets a
//! *single* `FullEpoch` cell use every core.
//!
//! # Model
//!
//! The classic continuous path ([`ServingSim::run_epoch_continuous`] with
//! the default shard count of 1) is one producer feeding one FIFO in front
//! of all instances. With `K ≥ 2` shards the epoch instead runs as a
//! **sharded-producer** system, the standard scale-out of the paper's
//! load-balancer architecture: the instances are striped across `K` shards
//! (instance `i` → shard `i mod K`, so heterogeneous slices spread evenly),
//! and every incoming request — carried queue entries first, then the
//! epoch's arrivals — is routed to a shard by a deterministic smooth
//! weighted round-robin whose weights are each shard's service capacity
//! `Σ 1/mean_service_s`. Each shard then runs the very same DES body as the
//! classic engine over its own queue, idle list, and event queue.
//!
//! Sharded physics is *not* bit-identical to the 1-shard queue (a K-sharded
//! system has K queues; the paper's single-queue results keep the default
//! of 1), but it is a faithful serving model in its own right, and the
//! conservation law holds per shard: every seam reported in
//! [`WindowMetrics::shard_seams`] closes
//! `carried_in + arrived == served + dropped + carried_out` exactly.
//!
//! # Determinism
//!
//! Everything random is decided *before* the shards run: the arrival
//! sequence is pre-drawn from the window's arrival substream (consuming the
//! process and RNG exactly as the classic engine would), the split is a
//! pure function of the sequence and the deployment, and each shard owns an
//! independent service substream
//! (`window.substream(SERVICE).substream(SHARD_SERVICE + k)`). Shards are
//! executed with [`par_map`], which deposits results at submission index,
//! and the merge folds them in shard order — so the output is byte-identical
//! for *any* worker-thread count, including 1. `tests/sharding.rs` pins
//! this across `CLOVER_THREADS ∈ {1,2,4,8}` and shard counts `{1,2,4}` for
//! all five schemes.

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

/// A failure schedule entry scoped to one shard: the subset of a window's
/// [`InstanceFailure`] instances this shard owns. The failure's static-GPU
/// energy credit is accounted globally by the merge, not per shard.
struct ShardFailure {
    at_s: f64,
    /// Global instance indices (all owned by this shard).
    instances: Vec<u32>,
}

/// Everything one shard needs to run, prepared serially by the split so
/// the parallel phase shares nothing mutable.
struct ShardTask {
    /// Reusable scratch, pre-reset with this shard's instance table built.
    scratch: SimScratch,
    /// Global instance indices owned by this shard, ascending.
    ids: Vec<u32>,
    /// In-flight requests restored onto this shard's instances
    /// (`instance` is a global index).
    in_flight: Vec<CarriedRequest>,
    /// Carried queue entries as local-clock times (≤ 0), oldest first.
    queue_times: Vec<f64>,
    /// This shard's share of the epoch's pre-drawn arrivals, ascending.
    arrivals: Vec<SimTime>,
    /// Mid-epoch failures affecting this shard's instances.
    failures: Vec<ShardFailure>,
    /// This shard's independent service-randomness stream.
    service_rng: SimRng,
    /// Queue bound: the global [`MAX_QUEUE`] split evenly across shards.
    max_queue: usize,
    /// Epoch horizon.
    horizon: SimTime,
}

/// What one shard hands back to the merge.
struct ShardDone {
    /// The scratch (holding this shard's histogram and per-variant counts),
    /// returned for recycling.
    scratch: SimScratch,
    seam: ShardSeam,
    completed_in_span: u64,
    sim_events: u64,
    dynamic_j: f64,
    idle_j: f64,
    busy_integral: f64,
    fault_kills: u64,
    fault_requeued: u64,
    /// Requests mid-service at the horizon (`instance` global).
    in_flight_out: Vec<CarriedRequest>,
    /// Waiting requests' ages at the horizon, oldest first.
    queue_ages_out: Vec<f64>,
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
        // Same window-stream discipline as the classic engine: one fork off
        // the root (so the simulator's RNG evolves identically whatever the
        // shard count), arrival and service substreams derived from it.
        let window_rng = self.rng.fork(0x5e7);
        let mut arrival_rng = window_rng.substream(stream::ARRIVALS);
        let service_root = window_rng.substream(stream::SERVICE);

        let horizon = SimTime::ZERO + epoch;
        let span_s = epoch.as_secs();
        let horizon_s = span_s;

        let profiler = self.profiler.clone();
        let split_scope = profiler.as_ref().map(|p| p.scope(Phase::Carry));

        // Pre-draw the epoch's arrival sequence, consuming the process and
        // its RNG substream exactly as the classic engine's event loop
        // would (one draw past the horizon ends the chain there too).
        let mut arrival_times: Vec<SimTime> = Vec::new();
        let mut prev = SimTime::ZERO;
        while let Some(t) = arrivals.next_after(prev, &mut arrival_rng) {
            if t > horizon {
                break;
            }
            arrival_times.push(t);
            prev = t;
        }

        // Stripe instances across shards and precompute per-shard instance
        // tables (into recycled scratches) plus capacity weights.
        let instances_spec = self.deployment.instances();
        let m = instances_spec.len();
        debug_assert!(k >= 2 && k <= m);
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); k];
        for i in 0..m {
            ids[i % k].push(i as u32);
        }
        while self.shard_scratch.len() < k {
            self.shard_scratch.push(SimScratch::new());
        }
        let mut weights = vec![0.0f64; k];
        let mut tasks: Vec<ShardTask> = Vec::with_capacity(k);
        for (s, shard_ids) in ids.into_iter().enumerate() {
            let mut scratch = self.shard_scratch.pop().expect("scratch pool sized above");
            scratch.reset(self.family.len());
            for &gi in &shard_ids {
                let (v, slice) = instances_spec[gi as usize];
                let variant = self.family.variant(v);
                let mean = self.perf.service_time(variant, slice).as_secs();
                weights[s] += 1.0 / mean;
                scratch.instances.push(Instance {
                    variant: v,
                    mean_service_s: mean,
                    busy_w: self.perf.busy_power_w(variant, slice),
                    idle_w: self.perf.power.idle_slice_w(slice),
                    in_flight: None,
                    pending_interval: None,
                    busy_in_span_s: 0.0,
                    up: true,
                    gen: 0,
                    down_at_s: None,
                });
            }
            tasks.push(ShardTask {
                scratch,
                ids: shard_ids,
                in_flight: Vec::new(),
                queue_times: Vec::new(),
                arrivals: Vec::new(),
                failures: Vec::new(),
                service_rng: service_root.substream(stream::SHARD_SERVICE + s as u64),
                max_queue: (MAX_QUEUE / k).max(1),
                horizon,
            });
        }

        // Restore the carry. With a matching deployment, in-flight work
        // goes home to the shard owning its instance; on a reconfiguration
        // it loses its partial service and joins the queue split, oldest
        // first — the same rule as the classic engine.
        let mut carried_queue: Vec<f64> = Vec::new();
        if carry
            .deployment
            .as_ref()
            .is_some_and(|d| d == &self.deployment)
        {
            for r in &carry.in_flight {
                tasks[r.instance as usize % k].in_flight.push(*r);
            }
            carried_queue.extend(carry.queue_ages_s.iter().map(|&a| -a));
        } else {
            let mut ages: Vec<f64> = carry.in_flight.iter().map(|r| r.age_s).collect();
            ages.extend(carry.queue_ages_s.iter().copied());
            ages.sort_by(|a, b| b.partial_cmp(a).expect("finite carry ages"));
            carried_queue.extend(ages.iter().map(|&a| -a));
        }

        // Route the incoming sequence — carried queue first, then arrivals,
        // both in order — through the capacity-weighted round-robin.
        let total_w: f64 = weights.iter().sum();
        let mut credit = vec![0.0f64; k];
        for &t in &carried_queue {
            tasks[wrr_pick(&mut credit, &weights, total_w)]
                .queue_times
                .push(t);
        }
        for &t in &arrival_times {
            tasks[wrr_pick(&mut credit, &weights, total_w)]
                .arrivals
                .push(t);
        }
        drop(arrival_times);

        // Scope each failure to the shards owning its instances; the
        // physical-GPU static-energy credit stays global (handled below).
        let failures = std::mem::take(&mut self.pending_failures);
        for f in &failures {
            for (s, task) in tasks.iter_mut().enumerate() {
                let local: Vec<u32> = f
                    .instances
                    .iter()
                    .copied()
                    .filter(|&i| (i as usize) < m && (i as usize) % k == s)
                    .collect();
                if !local.is_empty() {
                    task.failures.push(ShardFailure {
                        at_s: f.at_s,
                        instances: local,
                    });
                }
            }
        }
        drop(split_scope);

        // The parallel phase: pure, share-nothing shard bodies; results
        // deposited at submission index, so thread count cannot reorder
        // the merge below.
        let threads = self
            .shard_threads
            .unwrap_or_else(default_threads)
            .clamp(1, k);
        let results = par_map(tasks, threads, run_shard);

        // Order-preserving merge, timed as carry work like the classic
        // engine's boundary snapshot.
        let merge_scope = profiler.as_ref().map(|p| p.scope(Phase::Carry));
        let mut arrived = 0u64;
        let mut served = 0u64;
        let mut completed_in_span = 0u64;
        let mut dropped = 0u64;
        let mut sim_events = 0u64;
        let mut dynamic_j = 0.0f64;
        let mut idle_j = 0.0f64;
        let mut busy_integral = 0.0f64;
        let mut fault_kills = 0u64;
        let mut fault_requeued = 0u64;
        let mut conservation_leak = 0i64;
        let mut hist = LatencyHistogram::for_latency();
        let mut per_variant = vec![0u64; self.family.len()];
        let mut seams: Vec<ShardSeam> = Vec::with_capacity(k);
        let mut out = ServingCarry {
            deployment: Some(self.deployment.clone()),
            ..ServingCarry::default()
        };
        for r in results {
            arrived += r.seam.arrived;
            served += r.seam.served;
            dropped += r.seam.dropped;
            completed_in_span += r.completed_in_span;
            sim_events += r.sim_events;
            dynamic_j += r.dynamic_j;
            idle_j += r.idle_j;
            busy_integral += r.busy_integral;
            fault_kills += r.fault_kills;
            fault_requeued += r.fault_requeued;
            conservation_leak += r.seam.leak();
            hist.merge(&r.scratch.hist);
            for (acc, &v) in per_variant.iter_mut().zip(&r.scratch.per_variant) {
                *acc += v;
            }
            out.in_flight.extend(r.in_flight_out);
            out.queue_ages_s.extend(r.queue_ages_out);
            seams.push(r.seam);
            self.shard_scratch.push(r.scratch);
        }
        // Canonical carry order: in-flight by completion time (remaining
        // service, ties by instance) — the order the classic engine's
        // boundary drain produces — and the queue oldest-first.
        out.in_flight.sort_by(|a, b| {
            a.remaining_s
                .partial_cmp(&b.remaining_s)
                .expect("finite remaining service")
                .then(a.instance.cmp(&b.instance))
        });
        out.queue_ages_s
            .sort_by(|a, b| b.partial_cmp(a).expect("finite request ages"));
        debug_assert_eq!(
            conservation_leak, 0,
            "sharded epoch leaked a request at a seam"
        );

        // Static energy is a property of the physical fleet, not of the
        // split: identical to the classic engine, failures credited from
        // their instant.
        let mut static_j =
            self.perf.power.gpu_static_w() * self.deployment.n_gpus() as f64 * span_s;
        for f in &failures {
            let dead_s = (horizon_s - f.at_s.max(0.0)).max(0.0);
            static_j -= self.perf.power.gpu_static_w() * f.gpus as f64 * dead_s.min(span_s);
        }
        static_j = static_j.max(0.0);

        let metrics = WindowMetrics {
            span_s,
            offered_rps: arrivals.mean_rate(),
            arrived,
            served,
            completed_in_span,
            dropped,
            mean_latency_s: hist.mean(),
            p95_latency_s: hist.quantile(0.95),
            max_latency_s: hist.max(),
            sim_events,
            per_variant_served: per_variant,
            dynamic_energy_j: dynamic_j,
            idle_energy_j: idle_j,
            static_energy_j: static_j,
            mean_busy_instances: busy_integral / span_s,
            latency_hist: hist,
            conservation_leak,
            fault_kills,
            fault_requeued,
            shard_seams: seams,
        };
        drop(merge_scope);
        (metrics, out)
    }
}

/// One shard's DES body — the classic continuous engine over the shard's
/// instances, queue, and pre-split arrival sequence. Pure: everything it
/// touches arrives in the task, so shards can run on any thread.
fn run_shard(mut task: ShardTask) -> ShardDone {
    let horizon = task.horizon;
    let horizon_s = horizon.as_secs();
    let span_s = horizon_s;
    let warmup_end_s = 0.0;
    let jitter_sigma = SERVICE_JITTER_SIGMA;
    let mut service_rng = task.service_rng;

    let scratch = &mut task.scratch;
    let q = &mut scratch.queue;
    let fifo = &mut scratch.fifo;
    let instances = &mut scratch.instances;
    let per_variant = &mut scratch.per_variant;
    let hist = &mut scratch.hist;
    let idle = &mut scratch.idle;
    let local = |ids: &[u32], global: u32| -> usize {
        ids.binary_search(&global)
            .expect("carried instance not owned by this shard")
    };

    // Restore: in-flight back onto instances with their remaining service
    // scheduled, carried queue entries into the FIFO — then the opening
    // dispatch pairs waiting work with idle instances at t = 0, exactly
    // like the classic engine.
    let carried_in = (task.in_flight.len() + task.queue_times.len()) as u64;
    for r in &task.in_flight {
        let li = local(&task.ids, r.instance);
        let inst = &mut instances[li];
        inst.in_flight = Some(-r.age_s);
        inst.pending_interval = Some((0.0, r.remaining_s));
        q.schedule(
            SimTime::from_secs(r.remaining_s),
            Ev::Done {
                instance: li as u32,
                gen: 0,
            },
        );
    }
    for &t in &task.queue_times {
        fifo.push_back(t);
    }
    idle.extend((0..instances.len() as u32).filter(|&i| instances[i as usize].in_flight.is_none()));
    while !idle.is_empty() && !fifo.is_empty() {
        let arrived_at = fifo.pop_front().expect("non-empty queue");
        ServingSim::dispatch_to_idle(
            instances,
            idle,
            SimTime::ZERO,
            arrived_at,
            jitter_sigma,
            &mut service_rng,
            q,
        );
    }

    let mut arrived = 0u64;
    let mut served = 0u64;
    let mut completed_in_span = 0u64;
    let mut dropped = 0u64;
    let mut sim_events = 0u64;
    let mut fault_kills = 0u64;
    let mut fault_requeued = 0u64;

    for (f_idx, f) in task.failures.iter().enumerate() {
        let at = SimTime::from_secs(f.at_s.max(0.0));
        if at <= horizon {
            q.schedule(
                at,
                Ev::Fault {
                    failure: f_idx as u32,
                },
            );
        }
    }

    // Arrivals are chained one at a time through the queue's source slot
    // (schedule the next when the current pops), so the heap holds only
    // completions and faults and the queue's clock — which `start_service`
    // schedules against — is always current.
    let mut next_arrival = 0usize;
    if let Some(&t) = task.arrivals.first() {
        q.schedule_source(t, Ev::Arrive);
        next_arrival = 1;
    }

    while let Some(next_t) = q.peek_time() {
        if next_t > horizon {
            break; // continuous semantics: the rest becomes the carry
        }
        let (now, ev) = q.pop().expect("peeked event");
        sim_events += 1;
        match ev {
            Ev::Arrive => {
                if next_arrival < task.arrivals.len() {
                    q.schedule_source(task.arrivals[next_arrival], Ev::Arrive);
                    next_arrival += 1;
                }
                arrived += 1;
                if !idle.is_empty() {
                    ServingSim::dispatch_to_idle(
                        instances,
                        idle,
                        now,
                        now.as_secs(),
                        jitter_sigma,
                        &mut service_rng,
                        q,
                    );
                } else if fifo.len() < task.max_queue {
                    fifo.push_back(now.as_secs());
                } else {
                    dropped += 1;
                }
            }
            Ev::Fault { failure } => {
                let f = &task.failures[failure as usize];
                let mut requeue: Vec<f64> = Vec::new();
                for &gi in &f.instances {
                    let li = local(&task.ids, gi);
                    if !instances[li].up {
                        continue;
                    }
                    let inst = &mut instances[li];
                    inst.up = false;
                    inst.gen = inst.gen.wrapping_add(1);
                    inst.down_at_s = Some(now.as_secs());
                    fault_kills += 1;
                    if let Some((a, _)) = inst.pending_interval.take() {
                        inst.pending_interval = Some((a, now.as_secs()));
                    }
                    inst.fold_interval(warmup_end_s, horizon_s);
                    if let Some(arr) = inst.in_flight.take() {
                        requeue.push(arr);
                        fault_requeued += 1;
                    }
                    idle.retain(|&j| j != li as u32);
                }
                requeue.sort_by(|a, b| a.partial_cmp(b).expect("finite arrivals"));
                for &arr in requeue.iter().rev() {
                    fifo.push_front(arr);
                }
            }
            Ev::Done { instance, gen } => {
                let i = instance as usize;
                if instances[i].gen != gen {
                    continue; // stale completion of a failed instance
                }
                instances[i].fold_interval(warmup_end_s, horizon_s);
                let arrived_at = instances[i]
                    .in_flight
                    .take()
                    .expect("completion for idle instance");
                // Continuous path: every completion is measured, carried
                // requests with their full seam-spanning latency.
                let latency = now.as_secs() - arrived_at;
                hist.record(latency);
                served += 1;
                per_variant[instances[i].variant.0 as usize] += 1;
                completed_in_span += 1;
                if let Some(next_arrived) = fifo.pop_front() {
                    ServingSim::start_service(
                        &mut instances[i],
                        instance,
                        now,
                        next_arrived,
                        jitter_sigma,
                        &mut service_rng,
                        q,
                    );
                } else {
                    idle.push(instance);
                }
            }
        }
    }

    // Boundary snapshot: pending completions become carried in-flight
    // work (back under their *global* instance index), the FIFO becomes
    // carried queue ages.
    let mut in_flight_out: Vec<CarriedRequest> = Vec::new();
    while let Some((t, ev)) = q.pop() {
        if let Ev::Done { instance, gen } = ev {
            let i = instance as usize;
            if instances[i].gen != gen {
                continue;
            }
            instances[i].fold_interval(warmup_end_s, horizon_s);
            let arrived_at = instances[i]
                .in_flight
                .take()
                .expect("carried completion for idle instance");
            in_flight_out.push(CarriedRequest {
                instance: task.ids[i],
                age_s: horizon_s - arrived_at,
                remaining_s: t.as_secs() - horizon_s,
            });
        }
    }
    let queue_ages_out: Vec<f64> = fifo.iter().map(|&a| horizon_s - a).collect();

    let carried_out = (in_flight_out.len() + queue_ages_out.len()) as u64;
    let seam = ShardSeam {
        // Striping puts global instance `s` first in shard `s`'s table, so
        // the smallest owned id *is* the shard index.
        shard: task.ids[0],
        carried_in,
        arrived,
        served,
        dropped,
        carried_out,
    };

    let mut dynamic_j = 0.0f64;
    let mut idle_j = 0.0f64;
    let mut busy_integral = 0.0f64;
    for inst in instances.iter() {
        dynamic_j += inst.busy_w * inst.busy_in_span_s;
        let dead_s = inst
            .down_at_s
            .map_or(0.0, |d| (horizon_s - d.max(warmup_end_s)).max(0.0));
        idle_j += inst.idle_w * (span_s - inst.busy_in_span_s - dead_s).max(0.0);
        busy_integral += inst.busy_in_span_s;
    }

    debug_assert_eq!(seam.leak(), 0, "shard leaked a request at its seam");

    ShardDone {
        scratch: task.scratch,
        seam,
        completed_in_span,
        sim_events,
        dynamic_j,
        idle_j,
        busy_integral,
        fault_kills,
        fault_requeued,
        in_flight_out,
        queue_ages_out,
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

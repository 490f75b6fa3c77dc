//! Per-call costs of single layers, timed from outside through each
//! crate's public functions. The bodies follow the repository's criterion
//! benches (`crates/bench/benches`), recorded here as numbers.

use clover::carbon::CarbonIntensity;
use clover::core::anneal::{anneal, EvalOutcome, SaParams};
use clover::core::graph::ConfigGraph;
use clover::core::neighbors::NeighborSampler;
use clover::core::objective::{MeasuredPoint, Objective};
use clover::core::schedulers::{enumerate_standardized, random_raw_deployment};
use clover::core::{ControlEpoch, DesEvaluator};
use clover::mig::{MigConfig, Packer, Partitioning, SliceCensus};
use clover::models::zoo::efficientnet;
use clover::models::{ModelFamily, PerfModel};
use clover::router::{make_route_policy, registered_route_policies, RegionSnapshot, RouteCtx};
use clover::serving::{analytic, Deployment, ServingCarry, ServingSim};
use clover::simkit::{EventQueue, SimDuration, SimRng, SimTime};
use clover::workload::{ArrivalTrace, Workload, WorkloadKind};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::host;
use crate::stats::{median, min_max};

/// Timed samples per layer metric.
const SAMPLES: usize = 7;

/// One layer metric: the median of its samples and their range.
pub struct LayerTiming {
    /// Metric name.
    pub name: String,
    /// Unit of the values.
    pub unit: &'static str,
    /// Median over samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Times `op`, which returns how many units of work it did, and reports
/// the cost per unit multiplied by `per_ns` (1 for ns, 1e-3 for µs).
/// One untimed call warms caches; the calls per sample are sized so the
/// samples fill about `budget`.
fn time_op(
    name: impl Into<String>,
    unit: &'static str,
    per_ns: f64,
    budget: Duration,
    mut op: impl FnMut() -> u64,
) -> LayerTiming {
    let t = Instant::now();
    op();
    let once = t.elapsed().as_secs_f64();
    let per_sample = budget.as_secs_f64() / SAMPLES as f64;
    let calls = ((per_sample / once.max(1e-9)) as usize).max(1);
    let mut xs = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let mut units = 0u64;
        for _ in 0..calls {
            units += op();
        }
        let ns = t.elapsed().as_nanos() as f64;
        xs.push(ns / units.max(1) as f64 * per_ns);
    }
    let (min, max) = min_max(&xs);
    LayerTiming {
        name: name.into(),
        unit,
        median: median(&xs),
        min,
        max,
        samples: SAMPLES,
    }
}

/// Draws `n` arrivals from a fresh process of `wl`.
fn drain_arrivals(wl: &Workload, n: usize, seed: u64) -> u64 {
    let mut p = wl.process_from(SimTime::ZERO);
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut drawn = 0;
    for _ in 0..n {
        match p.next_after(now, &mut rng) {
            Some(t) => now = t,
            None => break,
        }
        drawn += 1;
    }
    black_box(now);
    drawn
}

/// SA candidate evaluation by the analytic estimator at `rate`.
fn analytic_eval(
    fam: &ModelFamily,
    perf: PerfModel,
    rate: f64,
) -> impl FnMut(&Deployment) -> EvalOutcome + '_ {
    move |d: &Deployment| {
        let e = analytic::estimate(fam, &perf, d, rate);
        EvalOutcome {
            point: MeasuredPoint {
                accuracy_pct: e.accuracy_pct,
                energy_per_request_j: e.energy_per_request_j,
                p95_latency_s: if e.stable { e.p95_latency_s } else { 1e6 },
            },
            cost_s: 10.0,
        }
    }
}

fn snapshot(index: usize, ci: f64, queued: u64, capacity_rps: f64) -> RegionSnapshot {
    RegionSnapshot {
        index,
        label: format!("region-{index}"),
        up: true,
        ci_now_g_per_kwh: ci,
        ci_forecast_g_per_kwh: ci * 0.9,
        queued,
        in_flight: queued / 4,
        active_gpus: 4,
        capacity_rps,
        energy_per_request_j: 1.5,
        prev_weight: 1.0 / 3.0,
    }
}

/// Timed layer metrics [`measure`] reports (besides one allocation count).
const TIMED: u32 = 26;

/// Every layer metric; the timed ones share `total` evenly.
pub fn measure(total: Duration) -> Vec<LayerTiming> {
    let budget = total / TIMED;
    let fam = efficientnet();
    let perf = PerfModel::a100();
    let base = Deployment::base(&fam, 10);
    let cap = analytic::estimate(&fam, &perf, &base, 1.0).capacity_rps;
    let rate = cap * 0.65;
    let mut out = Vec::new();

    // workload: arrival generation (Workload::process_from + next_after).
    const N_ARRIVALS: usize = 10_000;
    let replay = ArrivalTrace::new(
        (0..4000).map(|i| (i as f64 * 0.23) % 600.0).collect(),
        600.0,
    );
    for (label, kind) in [
        ("poisson", WorkloadKind::Poisson),
        ("diurnal", WorkloadKind::diurnal()),
        ("mmpp", WorkloadKind::mmpp()),
        ("flash_crowd", WorkloadKind::flash_crowd()),
        (
            "replay",
            WorkloadKind::Replay {
                trace: replay.clone(),
                looping: true,
            },
        ),
    ] {
        let wl = Workload::new(kind, 500.0);
        let mut seed = 0;
        out.push(time_op(
            format!("workload.arrival_ns.{label}"),
            "ns",
            1.0,
            budget,
            || {
                seed += 1;
                drain_arrivals(&wl, N_ARRIVALS, seed)
            },
        ));
    }

    // simkit: event queue, hold model (pop one, schedule one) at a
    // steady depth of 256 pending events.
    let mut seed = 0;
    out.push(time_op("simkit.event_queue_ns", "ns", 1.0, budget, || {
        const DEPTH: usize = 256;
        const HOLDS: u64 = 4096;
        seed += 1;
        let mut rng = SimRng::new(seed);
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..DEPTH as u32 {
            q.schedule(SimTime::from_secs(rng.exponential(1.0)), i);
        }
        for _ in 0..HOLDS {
            let (at, e) = q.pop().expect("queue holds DEPTH events");
            q.schedule(SimTime::from_secs(at.as_secs() + rng.exponential(1.0)), e);
        }
        black_box(q.len());
        HOLDS
    }));

    // serving: representative-window DES, 10 s windows at 0.65 load.
    let window = SimDuration::from_secs(10.0);
    let warmup = SimDuration::from_secs(1.0);
    for (name, deployment) in [
        ("serving.window_ns_per_event", base.clone()),
        (
            "serving.window_co2opt_ns_per_event",
            Deployment::co2opt(&fam, 10),
        ),
    ] {
        let mut sim = ServingSim::new(fam.clone(), perf, deployment, 1);
        out.push(time_op(name, "ns", 1.0, budget, || {
            black_box(sim.run_window(rate, window, warmup)).sim_events
        }));
    }
    let mut sim = ServingSim::new(fam.clone(), perf, base.clone(), 1);
    sim.run_window(rate, window, warmup);
    let (_, allocs) = host::count_allocs(|| black_box(sim.run_window(rate, window, warmup)));
    out.push(LayerTiming {
        name: "serving.window_allocs".into(),
        unit: "count",
        median: allocs as f64,
        min: allocs as f64,
        max: allocs as f64,
        samples: 1,
    });

    // serving: continuous full-epoch DES with seam carry, diurnal
    // arrivals, 120 s epochs on 4 GPUs at 0.5 load.
    {
        let base4 = Deployment::base(&fam, 4);
        let cap4 = analytic::estimate(&fam, &perf, &base4, 1.0).capacity_rps;
        let wl = Workload::new(WorkloadKind::diurnal(), cap4 * 0.5);
        let mut sim = ServingSim::new(fam.clone(), perf, base4, 2);
        let epoch = SimDuration::from_secs(120.0);
        let mut carry = ServingCarry::default();
        let mut t = 0.0;
        out.push(time_op(
            "serving.continuous_ns_per_event",
            "ns",
            1.0,
            budget,
            || {
                let mut arrivals = wl.process_from(SimTime::from_secs(t));
                let (w, next) =
                    sim.run_epoch_continuous(arrivals.as_mut(), epoch, std::mem::take(&mut carry));
                carry = next;
                t += epoch.as_secs();
                w.sim_events
            },
        ));
    }

    // serving: analytic steady-state estimate; core: ORACLE enumeration.
    let mut rng = SimRng::new(3);
    let raw: Vec<Deployment> = (0..128)
        .map(|_| random_raw_deployment(&fam, 10, &mut rng))
        .collect();
    let mut i = 0;
    out.push(time_op("serving.analytic_ns", "ns", 1.0, budget, || {
        i = (i + 1) % raw.len();
        black_box(analytic::estimate(&fam, &perf, &raw[i], rate));
        1
    }));
    out.push(time_op("core.enumerate_us", "us", 1e-3, budget, || {
        black_box(enumerate_standardized(&fam, 10).len());
        1
    }));

    // core: one SA invocation with analytic evaluation, graph-space
    // (CLOVER) and raw-space (BLOVER) proposals; one neighbour draw.
    let est = analytic::estimate(&fam, &perf, &base, rate);
    let c_base = Objective::carbon_per_request_g(
        est.energy_per_request_j,
        CarbonIntensity::from_g_per_kwh(250.0),
    );
    let objective = Objective::new(fam.accuracy_base(), c_base, est.p95_latency_s * 1.1);
    let ci = CarbonIntensity::from_g_per_kwh(300.0);
    let params = SaParams::default();
    let sampler = NeighborSampler::default();
    let mut seed = 0;
    out.push(time_op("core.sa_invocation_us", "us", 1e-3, budget, || {
        seed += 1;
        let mut rng = SimRng::new(seed);
        let run = anneal(
            base.clone(),
            &objective,
            ci,
            &params,
            &mut rng,
            |center, rng| sampler.sample(&fam, center, rng),
            analytic_eval(&fam, perf, rate),
        );
        black_box(run);
        1
    }));
    let mut seed = 0;
    out.push(time_op(
        "core.sa_invocation_raw_us",
        "us",
        1e-3,
        budget,
        || {
            seed += 1;
            let mut rng = SimRng::new(seed);
            let run = anneal(
                base.clone(),
                &objective,
                ci,
                &params,
                &mut rng,
                |_center, rng| Some(random_raw_deployment(&fam, 10, rng)),
                analytic_eval(&fam, perf, rate),
            );
            black_box(run);
            1
        },
    ));
    let mut rng = SimRng::new(7);
    out.push(time_op(
        "core.neighbor_sample_ns",
        "ns",
        1.0,
        budget,
        || {
            black_box(sampler.sample(&fam, &base, &mut rng));
            1
        },
    ));

    // core: DES candidate evaluation of GED neighbours of BASE.
    let mut rng = SimRng::new(5);
    let candidates: Vec<Deployment> = (0..32)
        .filter_map(|_| sampler.sample(&fam, &base, &mut rng))
        .collect();
    let mut evaluator = DesEvaluator::new(fam.clone(), perf, rate, base.clone(), 9);
    let mut i = 0;
    out.push(time_op("core.des_eval_us", "us", 1e-3, budget, || {
        i = (i + 1) % candidates.len();
        black_box(evaluator.evaluate(&candidates[i]));
        evaluator.window_log.clear();
        1
    }));

    // core: configuration graphs and graph edit distance.
    let mut rng = SimRng::new(42);
    let deployments: Vec<Deployment> = (0..64)
        .map(|_| random_raw_deployment(&fam, 10, &mut rng))
        .collect();
    let graphs: Vec<ConfigGraph> = deployments
        .iter()
        .map(|d| ConfigGraph::from_deployment(&fam, d))
        .collect();
    let mut i = 0;
    out.push(time_op("core.graph_build_ns", "ns", 1.0, budget, || {
        i = (i + 1) % deployments.len();
        black_box(ConfigGraph::from_deployment(&fam, &deployments[i]));
        1
    }));
    let mut i = 0;
    out.push(time_op("core.ged_ns", "ns", 1.0, budget, || {
        i = (i + 1) % (graphs.len() - 1);
        black_box(graphs[i].ged(&graphs[i + 1]));
        1
    }));
    let mut acc = graphs[0].clone();
    out.push(time_op("core.graph_add_sub_ns", "ns", 1.0, budget, || {
        acc.add(&graphs[1]);
        acc.subtract(&graphs[1]);
        black_box(&acc);
        1
    }));

    // mig: slice-census decomposition, cold packer and warm (memoized).
    let mut rng = SimRng::new(11);
    let censuses: Vec<(SliceCensus, usize)> = (0..128)
        .map(|_| {
            let n = rng.range_usize(4, 11);
            let configs: Vec<MigConfig> = (0..n)
                .map(|_| MigConfig::new(rng.range_usize(1, 20) as u8))
                .collect();
            (Partitioning::new(configs).census(), n)
        })
        .collect();
    let mut i = 0;
    out.push(time_op("mig.decompose_ns.cold", "ns", 1.0, budget, || {
        i = (i + 1) % censuses.len();
        let (census, n) = &censuses[i];
        black_box(Packer::new().decompose(census, *n));
        1
    }));
    let mut packer = Packer::new();
    let mut i = 0;
    out.push(time_op("mig.decompose_ns.warm", "ns", 1.0, budget, || {
        i = (i + 1) % censuses.len();
        let (census, n) = &censuses[i];
        black_box(packer.decompose(census, *n));
        1
    }));

    // router: one traffic split per registered policy on three regions.
    let regions = [
        snapshot(0, 240.0, 120, 900.0),
        snapshot(1, 90.0, 40, 900.0),
        snapshot(2, 310.0, 300, 600.0),
    ];
    let epoch = ControlEpoch {
        index: 0,
        start: SimTime::ZERO,
        len: SimDuration::from_secs(600.0),
    };
    for name in registered_route_policies() {
        let mut policy = make_route_policy(&name);
        let mut rng = SimRng::new(13);
        out.push(time_op(
            format!("router.weights_ns.{name}"),
            "ns",
            1.0,
            budget,
            || {
                let mut ctx = RouteCtx {
                    epoch: &epoch,
                    regions: &regions,
                    demand_rps: 1500.0,
                    demand_peak_rps: 1800.0,
                    transfer_latency_s: 0.05,
                    max_region_utilization: 0.85,
                    penalty_g_per_kwh: 40.0,
                    rng: &mut rng,
                };
                black_box(policy.weights(&mut ctx));
                1
            },
        ));
    }
    assert_eq!(out.len(), TIMED as usize + 1, "TIMED matches the metrics");
    out
}

//! Queueing-theory conformance of the serving DES.
//!
//! The digest pins elsewhere show that results do not *change*; this suite
//! shows that they are *right*, by checking the simulator against exact
//! results that hold for the system it models:
//!
//! - **Pollaczek–Khinchine.** One instance under Poisson arrivals is an
//!   M/G/1 queue. Its mean wait is exactly
//!   `Wq = λ·E[S²] / (2·(1 − ρ))`, with `ρ = λ·E[S]`. Service is the
//!   instance's mean time `m` times a unit-mean lognormal jitter of sigma
//!   `SERVICE_JITTER_SIGMA`, so `E[S] = m` and `E[S²] = m²·exp(σ²)`.
//!   Checked at ρ ∈ {0.3, 0.6, 0.9} on the classic window and on the K=1
//!   continuous path.
//! - **Work conservation.** Busy time is the service handed out, so the
//!   time-averaged number of busy instances equals throughput × `E[S]`.
//!   Checked on the classic window, the K=1 continuous path and a K=2
//!   sharded epoch.
//!
//! Method: fixed seeds and 30 batch means per check, with a 99% Student-t
//! band (29 degrees of freedom). On the continuous paths the batches are
//! consecutive epochs of one run (the first, cold-start epoch discarded);
//! on the classic path each batch is one independently seeded window whose
//! warmup is discarded. Every band must contain the exact value and must
//! also be narrow, so that a pass means something.
//!
//! Not checked: the Poisson-splitting identity on per-shard arrival
//! counts. The sharded path splits arrivals by a deterministic
//! capacity-weighted round robin, not by independent thinning, so its
//! per-shard streams are not Poisson.

use clover::mig::SliceType;
use clover::models::zoo::efficientnet;
use clover::models::{ModelFamily, PerfModel};
use clover::serving::{Deployment, ServingCarry, ServingSim, WindowMetrics, SERVICE_JITTER_SIGMA};
use clover::simkit::SimDuration;
use clover::workload::PoissonProcess;

/// Batches per check.
const BATCHES: usize = 30;
/// Two-sided 99% Student-t quantile at `BATCHES - 1` = 29 degrees of freedom.
const T99_29: f64 = 2.756;
/// Expected arrivals per batch: long enough that batch means of the
/// ρ = 0.9 queue (relaxation time of a few hundred services) are close to
/// independent.
const ARRIVALS_PER_BATCH: f64 = 20_000.0;

/// Sample mean and 99% half-width of `BATCHES` batch means.
fn band(samples: &[f64]) -> (f64, f64) {
    assert_eq!(samples.len(), BATCHES);
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, T99_29 * (var / n).sqrt())
}

/// Mean service time `m` of the family's largest variant on a full GPU —
/// the single instance of `Deployment::base(family, n)`.
fn mean_service_s(family: &ModelFamily) -> f64 {
    PerfModel::a100()
        .service_time(family.largest(), SliceType::G7)
        .as_secs()
}

/// Pollaczek–Khinchine mean wait of the M/G/1 queue at arrival rate `lambda`.
fn pk_mean_wait(lambda: f64, m: f64) -> f64 {
    let es2 = m * m * (SERVICE_JITTER_SIGMA * SERVICE_JITTER_SIGMA).exp();
    let rho = lambda * m;
    lambda * es2 / (2.0 * (1.0 - rho))
}

/// `BATCHES` independently seeded classic windows (warmup discarded).
fn classic_batches(deployment: &Deployment, lambda: f64, seed: u64) -> Vec<WindowMetrics> {
    let family = efficientnet();
    let window = ARRIVALS_PER_BATCH / lambda;
    let mut sim = ServingSim::new(family, PerfModel::a100(), deployment.clone(), seed);
    (0..BATCHES)
        .map(|b| {
            sim.reseed(seed + b as u64);
            sim.run_window(
                lambda,
                SimDuration::from_secs(window),
                SimDuration::from_secs(0.2 * window),
            )
        })
        .collect()
}

/// `BATCHES` consecutive continuous epochs of one run at `shards` shards,
/// after one discarded cold-start epoch.
fn continuous_batches(
    deployment: &Deployment,
    shards: usize,
    lambda: f64,
    seed: u64,
) -> Vec<WindowMetrics> {
    let family = efficientnet();
    let epoch = SimDuration::from_secs(ARRIVALS_PER_BATCH / lambda);
    let mut sim = ServingSim::new(family, PerfModel::a100(), deployment.clone(), seed);
    sim.set_intra_epoch_shards(shards);
    sim.set_shard_threads(Some(1));
    let mut carry = ServingCarry::default();
    let mut batches = Vec::with_capacity(BATCHES + 1);
    for _ in 0..=BATCHES {
        let mut arrivals = PoissonProcess::new(lambda);
        let (w, next) = sim.run_epoch_continuous(&mut arrivals, epoch, carry);
        assert_eq!(w.conservation_leak, 0);
        batches.push(w);
        carry = next;
    }
    batches.remove(0);
    batches
}

/// Checks the batch-mean wait against Pollaczek–Khinchine at every load.
fn check_pollaczek_khinchine(path: &str, run: impl Fn(f64) -> Vec<WindowMetrics>) {
    let family = efficientnet();
    let m = mean_service_s(&family);
    for rho in [0.3, 0.6, 0.9] {
        let lambda = rho / m;
        let batches = run(lambda);
        for w in &batches {
            assert_eq!(w.dropped, 0, "{path} ρ={rho}: no request may shed");
        }
        let waits: Vec<f64> = batches.iter().map(|w| w.mean_latency_s - m).collect();
        let (mean, half) = band(&waits);
        let exact = pk_mean_wait(lambda, m);
        assert!(
            (mean - exact).abs() <= half,
            "{path} ρ={rho}: mean wait {mean:.6} s ± {half:.6} misses P-K {exact:.6} s"
        );
        assert!(
            half < 0.1 * exact,
            "{path} ρ={rho}: band ±{half:.6} s too wide to test P-K {exact:.6} s"
        );
    }
}

#[test]
fn classic_window_matches_pollaczek_khinchine() {
    let deployment = Deployment::base(&efficientnet(), 1);
    check_pollaczek_khinchine("classic", |lambda| {
        classic_batches(&deployment, lambda, 0x9C_0001)
    });
}

#[test]
fn continuous_epoch_matches_pollaczek_khinchine() {
    let deployment = Deployment::base(&efficientnet(), 1);
    check_pollaczek_khinchine("continuous K=1", |lambda| {
        continuous_batches(&deployment, 1, lambda, 0x9C_0002)
    });
}

/// Checks `mean_busy_instances == throughput × E[S]` batch by batch.
fn check_work_conservation(path: &str, batches: &[WindowMetrics], m: f64) {
    let ratios: Vec<f64> = batches
        .iter()
        .map(|w| w.mean_busy_instances / (w.throughput_rps() * m))
        .collect();
    let (mean, half) = band(&ratios);
    assert!(
        (mean - 1.0).abs() <= half,
        "{path}: busy / (throughput × E[S]) = {mean:.5} ± {half:.5}, expected 1"
    );
    assert!(half < 0.01, "{path}: band ±{half:.5} too wide");
}

#[test]
fn busy_instances_equal_throughput_times_mean_service() {
    let family = efficientnet();
    let m = mean_service_s(&family);
    let deployment = Deployment::base(&family, 4);
    // 70% utilisation of four instances.
    let lambda = 0.7 * 4.0 / m;
    check_work_conservation(
        "classic",
        &classic_batches(&deployment, lambda, 0x9C_0003),
        m,
    );
    check_work_conservation(
        "continuous K=1",
        &continuous_batches(&deployment, 1, lambda, 0x9C_0004),
        m,
    );
    check_work_conservation(
        "continuous K=2",
        &continuous_batches(&deployment, 2, lambda, 0x9C_0005),
        m,
    );
}

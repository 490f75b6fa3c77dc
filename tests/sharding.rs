//! Pins the intra-epoch DES sharding guarantees end to end: a full-epoch
//! experiment cell split into K shards produces **byte-identical** outcomes
//! at every thread count (1, 2, 4, 8) and every shard count (1, 2, 4), for
//! all five schemes — and every shard seam closes its conservation law
//! exactly. Together with `tests/par_determinism.rs` (grid-level fan-out)
//! this is the regression tripwire for the parallel engine: LPT dispatch
//! may reorder *claiming*, sharding may reorder *execution*, but neither is
//! allowed to move a single bit of output.
//!
//! The recorded digests below pin the continuous (K=1) and sharded (K≥2)
//! DES paths themselves: every scheme's flash-crowd cell at K ∈ {1, 2, 4},
//! a chaos cell at K ∈ {1, 4}, and a serving-level reconfiguration at an
//! epoch boundary on both paths. A refactor of the event loop must leave
//! every one of them bit-identical.

use clover::core::autoscale::ScalingPolicy;
use clover::core::chaos::ChaosConfig;
use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentOutcome};
use clover::core::schedulers::SchemeKind;
use clover::mig::SliceType;
use clover::models::zoo::Application;
use clover::models::PerfModel;
use clover::serving::{Deployment, ServingCarry, ServingSim, WindowMetrics};
use clover::simkit::SimDuration;
use clover::workload::{PoissonProcess, WorkloadKind};

/// One continuous full-epoch cell: the only fidelity the sharded engine
/// serves (representative windows are too small to shard).
fn cfg(scheme: SchemeKind, shards: usize) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .workload(WorkloadKind::flash_crowd())
        .fidelity(Fidelity::FullEpoch)
        .control_epoch_s(300.0)
        .n_gpus(4)
        .horizon_hours(0.25)
        .seed(2023)
        .des_shards(shards)
        .build()
}

/// The full matrix this suite pins: all five schemes × shard counts 1/2/4.
fn grid() -> Vec<ExperimentConfig> {
    SchemeKind::ALL
        .into_iter()
        .flat_map(|scheme| [1usize, 2, 4].map(|shards| cfg(scheme.clone(), shards)))
        .collect()
}

/// The whole scheme × shard-count matrix fanned out as one grid (LPT
/// claiming over heterogeneous cells) reproduces the serial digests at
/// every thread count.
#[test]
fn sharded_grid_is_bit_identical_across_thread_counts() {
    let reference: Vec<u64> = Experiment::run_cells(grid(), 1)
        .iter()
        .map(ExperimentOutcome::digest)
        .collect();
    for threads in [2, 4, 8] {
        let digests: Vec<u64> = Experiment::run_cells(grid(), threads)
            .iter()
            .map(ExperimentOutcome::digest)
            .collect();
        assert_eq!(reference, digests, "{threads} threads diverged");
    }
}

/// A single sharded cell run alone gets the grid's whole thread budget as
/// shard threads (`shard_thread_budget = threads / cells`), so this sweep
/// exercises genuinely concurrent shard execution through the full
/// experiment stack — and must still match the 1-thread reference bit for
/// bit.
#[test]
fn concurrent_shard_execution_matches_serial() {
    for scheme in SchemeKind::ALL {
        let single = vec![cfg(scheme.clone(), 4)];
        let reference = Experiment::run_cells(single.clone(), 1)[0].digest();
        for threads in [2, 4, 8] {
            let got = Experiment::run_cells(single.clone(), threads)[0].digest();
            assert_eq!(reference, got, "{scheme}: {threads} shard threads diverged");
        }
    }
}

/// Shard count is part of the experiment's physics (independent per-shard
/// service streams, per-shard queue bounds): K=1 and K=4 are different —
/// deterministically different — experiments. This pins that nobody
/// "optimizes" the sharded path into silently reusing the unsharded one.
#[test]
fn shard_count_is_part_of_the_configuration() {
    let unsharded = Experiment::run_cells(vec![cfg(SchemeKind::Clover, 1)], 1)[0].digest();
    let sharded = Experiment::run_cells(vec![cfg(SchemeKind::Clover, 4)], 1)[0].digest();
    assert_ne!(
        unsharded, sharded,
        "4-shard run unexpectedly reproduced the unsharded digest"
    );
}

/// Every shard seam of every epoch closes its conservation law exactly:
/// `carried_in + arrived == served + dropped + carried_out`, and the
/// per-shard arrivals sum to the window's.
#[test]
fn every_shard_seam_closes_conservation() {
    let family = Application::ImageClassification.family();
    let deployment = Deployment::base(&family, 4);
    let mut sim = ServingSim::new(family, PerfModel::a100(), deployment, 7);
    sim.set_intra_epoch_shards(4);
    sim.set_shard_threads(Some(4));
    let mut carry = ServingCarry::default();
    for epoch in 0..6 {
        let mut arrivals = PoissonProcess::new(500.0);
        let (w, next) =
            sim.run_epoch_continuous(&mut arrivals, SimDuration::from_secs(45.0), carry);
        carry = next;
        assert_eq!(w.shard_seams.len(), 4, "epoch {epoch}: seam count");
        let mut arrived = 0;
        for seam in &w.shard_seams {
            assert_eq!(
                seam.leak(),
                0,
                "epoch {epoch}, shard {}: conservation leak",
                seam.shard
            );
            arrived += seam.arrived;
        }
        assert_eq!(arrived, w.arrived, "epoch {epoch}: arrivals split");
    }
}

/// `ExperimentOutcome::digest` of every `cfg(scheme, shards)` cell, in
/// `grid()` order (scheme-major, shard counts 1, 2, 4).
const FLASH_CROWD_PINS: [(&str, [u64; 3]); 5] = [
    (
        "BASE",
        [
            0x31B5_90F6_8D61_632D,
            0xCA38_61C1_F2C3_73B9,
            0xE271_DAC3_1E6B_AF4D,
        ],
    ),
    (
        "CO2OPT",
        [
            0x790E_0AFF_3C6F_3F67,
            0x7152_24E8_01B9_2602,
            0x1FBE_1E52_1074_C5A8,
        ],
    ),
    (
        "BLOVER",
        [
            0x649B_35E8_25C3_C4D7,
            0x8D7E_A428_6AA3_C7E6,
            0xF41C_2E5B_0D8D_E707,
        ],
    ),
    (
        "CLOVER",
        [
            0x373E_B742_EE0A_936A,
            0x05FC_E96F_A864_9EB2,
            0x0C1A_22EE_40BE_4127,
        ],
    ),
    (
        "ORACLE",
        [
            0x1653_ADBA_E834_A1EE,
            0x8A1A_48DA_75D0_8C61,
            0xE065_23AB_C864_2A39,
        ],
    ),
];

#[test]
fn flash_crowd_cells_match_recorded_digests() {
    let digests: Vec<u64> = Experiment::run_cells(grid(), 2)
        .iter()
        .map(ExperimentOutcome::digest)
        .collect();
    for (row, (name, pins)) in FLASH_CROWD_PINS.iter().enumerate() {
        for (col, (&pin, shards)) in pins.iter().zip([1, 2, 4]).enumerate() {
            let got = digests[row * 3 + col];
            assert_eq!(
                got, pin,
                "{name} at {shards} shards drifted from its pin (got 0x{got:016X})"
            );
        }
    }
}

/// A chaos cell (`tests/chaos.rs`'s faulted configuration, CLOVER) with
/// mid-epoch GPU failures landing on the continuous and sharded paths.
fn chaos_cell(shards: usize) -> ExperimentConfig {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(SchemeKind::Clover)
        .chaos(ChaosConfig::resilience(6.0))
        .scaling(ScalingPolicy::reactive())
        .control_epoch_s(600.0)
        .fidelity(Fidelity::FullEpoch)
        .n_gpus(4)
        .min_gpus(1)
        .horizon_hours(2.0)
        .seed(2023)
        .des_shards(shards)
        .build()
}

#[test]
fn chaos_cells_match_recorded_digests() {
    for (shards, pin) in [(1, 0x4E46_7929_B804_1722u64), (4, 0xC3FF_437E_C654_28EB)] {
        let got = Experiment::run_cells(vec![chaos_cell(shards)], 2)[0].digest();
        assert_eq!(
            got, pin,
            "chaos cell at {shards} shards drifted from its pin (got 0x{got:016X})"
        );
    }
}

/// FNV-1a over every field of a window and the carry it hands on.
fn fold_window(h: &mut u64, w: &WindowMetrics, carry: &ServingCarry) {
    let mut eat = |bits: u64| {
        *h ^= bits;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for v in [
        w.arrived,
        w.served,
        w.completed_in_span,
        w.dropped,
        w.sim_events,
        w.conservation_leak as u64,
        w.fault_kills,
        w.fault_requeued,
        carry.queued() as u64,
        carry.in_flight() as u64,
    ] {
        eat(v);
    }
    for v in [
        w.offered_rps,
        w.mean_latency_s,
        w.p95_latency_s.unwrap_or(-1.0),
        w.max_latency_s,
        w.dynamic_energy_j,
        w.idle_energy_j,
        w.static_energy_j,
        w.mean_busy_instances,
    ] {
        eat(v.to_bits());
    }
    w.per_variant_served.iter().for_each(|&n| eat(n));
    for s in &w.shard_seams {
        for v in [
            u64::from(s.shard),
            s.carried_in,
            s.arrived,
            s.served,
            s.dropped,
            s.carried_out,
        ] {
            eat(v);
        }
    }
}

/// Three continuous epochs on 4 GPUs: an overloaded BASE epoch builds a
/// backlog, a reconfiguration to CO2OPT lands at the first seam (carried
/// in-flight work rejoins the queue), and a third epoch restores onto the
/// unchanged deployment.
fn reconfiguration_fingerprint(shards: usize) -> u64 {
    let family = Application::ImageClassification.family();
    let perf = PerfModel::a100();
    let cap = perf.capacity_rps(family.largest(), SliceType::G7) * 4.0;
    let mut sim = ServingSim::new(family.clone(), perf, Deployment::base(&family, 4), 17);
    sim.set_intra_epoch_shards(shards);
    sim.set_shard_threads(Some(2));
    let mut carry = ServingCarry::default();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (epoch, rate) in [cap * 1.5, cap * 3.0, cap * 3.0].into_iter().enumerate() {
        if epoch == 1 {
            sim.set_deployment(Deployment::co2opt(&family, 4));
        }
        let mut arrivals = PoissonProcess::new(rate);
        let (w, next) =
            sim.run_epoch_continuous(&mut arrivals, SimDuration::from_secs(20.0), carry);
        fold_window(&mut h, &w, &next);
        carry = next;
    }
    h
}

#[test]
fn reconfiguration_at_the_boundary_matches_recorded_fingerprints() {
    for (shards, pin) in [(1, 0x9125_3B9F_4C00_E80Cu64), (4, 0xE255_BDEB_21DD_A630)] {
        let got = reconfiguration_fingerprint(shards);
        assert_eq!(
            got, pin,
            "reconfiguration epochs at {shards} shards drifted (got 0x{got:016X})"
        );
    }
}

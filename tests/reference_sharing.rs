//! The synchronized BASE reference is simulated once per set of live cells
//! that share its inputs, and that sharing is invisible: every cell of a
//! grid digests exactly as the same config run alone, with no sibling
//! alive, at one thread and at two. The grids cover the representative
//! window, the continuous full epoch, the sharded full epoch and a chaos
//! run, and each mixes cells that share a reference with cells that do
//! not.
//!
//! Every grid uses seeds no other test in this file uses, so the lone runs
//! have no sibling to share with.

use clover::carbon::Region;
use clover::core::autoscale::ScalingPolicy;
use clover::core::chaos::ChaosConfig;
use clover::core::control::Fidelity;
use clover::core::experiment::{Experiment, ExperimentConfig, ExperimentConfigBuilder};
use clover::core::schedulers::SchemeKind;
use clover::models::zoo::Application;
use clover::workload::WorkloadKind;

fn cell(scheme: SchemeKind, seed: u64) -> ExperimentConfigBuilder {
    ExperimentConfig::builder(Application::ImageClassification)
        .scheme(scheme)
        .n_gpus(4)
        .seed(seed)
}

/// Runs `grid` at 1 and 2 threads and checks each cell against the same
/// config run alone, then checks that the cells that share a reference
/// report the same reference events.
fn assert_sharing_is_invisible(grid: Vec<ExperimentConfig>) {
    let alone: Vec<u64> = grid
        .iter()
        .map(|c| Experiment::new(c.clone()).run().digest())
        .collect();
    for threads in [1, 2] {
        let outcomes = Experiment::run_cells(grid.clone(), threads);
        for (i, (o, &want)) in outcomes.iter().zip(&alone).enumerate() {
            assert_eq!(
                o.digest(),
                want,
                "cell {i} ({} seed {}) at {threads} threads differs from its lone run",
                o.scheme,
                grid[i].seed
            );
        }
        for (i, a) in grid.iter().enumerate() {
            for (j, b) in grid.iter().enumerate().skip(i + 1) {
                if a.shares_reference_with(b) {
                    assert_eq!(outcomes[i].base_sim_events, outcomes[j].base_sim_events);
                    assert!(outcomes[i].base_sim_events > 0);
                }
            }
        }
    }
}

#[test]
fn window_grid_cells_equal_their_lone_runs() {
    let grid = [101, 102]
        .into_iter()
        .flat_map(|seed| {
            [
                cell(SchemeKind::Base, seed),
                cell(SchemeKind::Co2Opt, seed),
                cell(SchemeKind::Clover, seed).n_gpus(3).reference_gpus(4),
            ]
        })
        .map(|b| b.horizon_hours(3.0).sim_window_s(20.0).build())
        .collect();
    assert_sharing_is_invisible(grid);
}

fn full_epoch(scheme: SchemeKind, seed: u64) -> ExperimentConfigBuilder {
    cell(scheme, seed)
        .workload(WorkloadKind::flash_crowd())
        .fidelity(Fidelity::FullEpoch)
        .control_epoch_s(600.0)
        .horizon_hours(1.0)
}

#[test]
fn full_epoch_grid_cells_equal_their_lone_runs() {
    let grid = [201, 202]
        .into_iter()
        .flat_map(|seed| [SchemeKind::Base, SchemeKind::Clover].map(|s| full_epoch(s, seed)))
        .map(ExperimentConfigBuilder::build)
        .collect();
    assert_sharing_is_invisible(grid);
}

#[test]
fn sharded_grid_cells_equal_their_lone_runs() {
    let grid = [SchemeKind::Base, SchemeKind::Clover, SchemeKind::Co2Opt]
        .into_iter()
        .map(|s| full_epoch(s, 301).des_shards(2).build())
        .chain([full_epoch(SchemeKind::Clover, 301).build()])
        .collect();
    assert_sharing_is_invisible(grid);
}

#[test]
fn chaos_grid_cells_equal_their_lone_runs() {
    let grid = [SchemeKind::Base, SchemeKind::Clover, SchemeKind::Oracle]
        .into_iter()
        .map(|s| {
            cell(s, 401)
                .chaos(ChaosConfig::resilience(6.0))
                .scaling(ScalingPolicy::reactive())
                .min_gpus(1)
                .fidelity(Fidelity::FullEpoch)
                .control_epoch_s(600.0)
                .horizon_hours(2.0)
                .build()
        })
        .chain([cell(SchemeKind::Clover, 401)
            .fidelity(Fidelity::FullEpoch)
            .control_epoch_s(600.0)
            .horizon_hours(2.0)
            .build()])
        .collect();
    assert_sharing_is_invisible(grid);
}

/// The sharing key: exactly the reference's inputs.
#[test]
fn configs_share_a_reference_iff_its_inputs_are_equal() {
    let base = || cell(SchemeKind::Clover, 7).horizon_hours(2.0);
    let reference = base().build();
    let shared = [
        ("scheme", base().scheme(SchemeKind::Base).build()),
        ("n_gpus", base().n_gpus(3).reference_gpus(4).build()),
        ("chaos", base().chaos(ChaosConfig::resilience(6.0)).build()),
        ("scaling", base().scaling(ScalingPolicy::reactive()).build()),
        ("sla_headroom", base().sla_headroom(2.0).build()),
    ];
    for (what, c) in shared {
        assert!(
            reference.shares_reference_with(&c),
            "configs differing only in {what} must share a reference"
        );
    }
    let distinct = [
        ("seed", base().seed(8).build()),
        ("reference_gpus", base().n_gpus(3).reference_gpus(5).build()),
        ("workload", base().workload(WorkloadKind::mmpp()).build()),
        ("fidelity", base().fidelity(Fidelity::FullEpoch).build()),
        ("horizon", base().horizon_hours(3.0).build()),
        ("trace", base().region(Region::EsoMarch).build()),
        ("utilization", base().utilization(0.5).build()),
        ("control_epoch_s", base().control_epoch_s(1800.0).build()),
    ];
    for (what, c) in distinct {
        assert!(
            !reference.shares_reference_with(&c),
            "configs differing in {what} must not share a reference"
        );
    }
    let unsharded = base().fidelity(Fidelity::FullEpoch).build();
    let sharded = base().fidelity(Fidelity::FullEpoch).des_shards(2).build();
    assert!(
        !unsharded.shares_reference_with(&sharded),
        "configs differing in des_shards must not share a reference"
    );
}

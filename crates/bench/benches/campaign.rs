//! Campaign throughput: the golden reference run, a single fault-injection
//! experiment, and small end-to-end campaigns for each algorithm and
//! ablation variant — one series per table/figure-producing configuration.

use bera_bench::{bench_loop_config, bench_loop_config_checkpointed};
use bera_core::PiController;
use bera_goofi::campaign::{run_scifi_campaign, run_scifi_campaign_observed, CampaignConfig};
use bera_goofi::experiment::{golden_run, run_experiment, FaultSpec};
use bera_goofi::observer::Telemetry;
use bera_goofi::swifi::{run_swifi, SwifiConfig};
use bera_goofi::workload::Workload;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);

    let cfg = bench_loop_config(100);

    group.bench_function("golden_run_100_iterations", |b| {
        let w = Workload::algorithm_one();
        b.iter(|| golden_run(black_box(&w), &cfg));
    });

    group.bench_function("single_experiment", |b| {
        let w = Workload::algorithm_one();
        let golden = golden_run(&w, &cfg);
        let fault = FaultSpec {
            location_index: 40, // a cache data bit in x's line
            inject_at: golden.total_instructions / 2,
        };
        b.iter(|| run_experiment(black_box(&w), &cfg, &golden, fault, false));
    });

    // The same experiment on the checkpointed engine: fast-forward from the
    // nearest golden checkpoint, prune the tail once converged.
    group.bench_function("checkpointed_single_experiment", |b| {
        let w = Workload::algorithm_one();
        let ckpt_cfg = bench_loop_config_checkpointed(100, 4);
        let golden = golden_run(&w, &ckpt_cfg);
        let fault = FaultSpec {
            location_index: 40,
            inject_at: golden.total_instructions / 2,
        };
        b.iter(|| run_experiment(black_box(&w), &ckpt_cfg, &golden, fault, false));
    });

    // One series per campaign configuration used by the table binaries.
    for (label, workload, parity) in [
        ("campaign_algorithm1", Workload::algorithm_one(), false),
        ("campaign_algorithm2", Workload::algorithm_two(), false),
        (
            "campaign_algorithm1_parity",
            Workload::algorithm_one(),
            true,
        ),
        ("campaign_algorithm3", Workload::algorithm_three(), false),
        (
            "campaign_alg2_colocated",
            Workload::algorithm_two_colocated_backup(),
            false,
        ),
        (
            "campaign_alg2_assert_after",
            Workload::algorithm_two_assert_after_backup(),
            false,
        ),
    ] {
        group.bench_function(label, |b| {
            let mut ccfg = CampaignConfig::quick(40, 11);
            ccfg.loop_cfg = bench_loop_config(60);
            ccfg.loop_cfg.parity_cache = parity;
            ccfg.threads = 1;
            // Historical series: every fault simulated, as before def/use
            // pruning existed. The pruned_campaign_* series below measure
            // the planner's effect against these.
            ccfg.prune = false;
            b.iter(|| run_scifi_campaign(black_box(&workload), &ccfg));
        });
    }

    // Def/use-pruned counterparts of the two headline campaigns, on the
    // checkpointed engine: the fully-optimised configuration (the
    // end-to-end benchmark of record is `campaign_bench/`).
    for (label, workload) in [
        ("pruned_campaign_algorithm1", Workload::algorithm_one()),
        ("pruned_campaign_algorithm2", Workload::algorithm_two()),
    ] {
        group.bench_function(label, |b| {
            let mut ccfg = CampaignConfig::quick(40, 11);
            ccfg.loop_cfg = bench_loop_config_checkpointed(60, 4);
            ccfg.threads = 1;
            b.iter(|| run_scifi_campaign(black_box(&workload), &ccfg));
        });
    }

    // The headline campaign with a live Telemetry observer attached — the
    // before/after pair EXPERIMENTS.md reports the observer overhead from
    // (expected within the noise floor, well under 2 %).
    group.bench_function("campaign_algorithm1_telemetry", |b| {
        let workload = Workload::algorithm_one();
        let mut ccfg = CampaignConfig::quick(40, 11);
        ccfg.loop_cfg = bench_loop_config(60);
        ccfg.threads = 1;
        ccfg.prune = false;
        b.iter(|| {
            let telemetry = Telemetry::new(40);
            run_scifi_campaign_observed(black_box(&workload), &ccfg, &telemetry)
        });
    });

    // Checkpointed counterparts of the two headline campaign series — the
    // before/after pair EXPERIMENTS.md reports the speedup ratio from.
    for (label, workload) in [
        (
            "checkpointed_campaign_algorithm1",
            Workload::algorithm_one(),
        ),
        (
            "checkpointed_campaign_algorithm2",
            Workload::algorithm_two(),
        ),
    ] {
        group.bench_function(label, |b| {
            let mut ccfg = CampaignConfig::quick(40, 11);
            ccfg.loop_cfg = bench_loop_config_checkpointed(60, 4);
            ccfg.threads = 1;
            ccfg.prune = false;
            b.iter(|| run_scifi_campaign(black_box(&workload), &ccfg));
        });
    }

    group.bench_function("swifi_campaign_native", |b| {
        let cfg = SwifiConfig {
            faults: 50,
            seed: 3,
            iterations: 100,
            model: bera_goofi::FaultModel::SingleBit,
        };
        b.iter(|| run_swifi(PiController::paper, black_box(&cfg)));
    });

    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);

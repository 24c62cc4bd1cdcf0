//! CI equivalence gate for fault-space collapsing.
//!
//! The collapsing layer (`mate_hafi::collapse`) must be an invisible
//! optimization: for every harness, engine, and thread count, a campaign
//! with `CampaignPruning::Collapse` must produce **bit-identical records**
//! to the same campaign with `CampaignPruning::Off`.  This test is the
//! gate CI runs on both processor cores (AVR and MSP430) plus wide-capable
//! netlist workloads.
//!
//! The cores' memories read only primary outputs, so their campaigns take
//! the wide path and collapsing may engage on them as on any netlist.

use mate_cores::avr::programs as avr_programs;
use mate_cores::msp430::programs as msp_programs;
use mate_cores::{AvrWorkload, Msp430Workload, Termination};
use mate_hafi::{
    run_campaign_wide, CampaignConfig, CampaignEngine, CampaignPruning, DesignHarness, FaultSpace,
    LaneWidth, StimulusHarness,
};
use mate_netlist::examples::tmr_register;
use mate_netlist::random::{random_circuit, RandomCircuitConfig};

/// Runs the same sweep with pruning off and on and asserts the records and
/// the effect histogram are identical.  Returns the (off, on) results so
/// callers can make workload-specific assertions about the stats.
fn assert_pruning_equivalent(
    harness: &(dyn DesignHarness + Sync),
    cycles: usize,
    sample: Option<usize>,
) -> (mate_hafi::CampaignResult, mate_hafi::CampaignResult) {
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
    let run = |pruning: CampaignPruning| {
        let config = CampaignConfig {
            cycles,
            sample,
            seed: 42,
            threads: 1,
            lanes: LaneWidth::default(),
            engine: CampaignEngine::default(),
            pruning,
        };
        run_campaign_wide(harness, &space, &config).unwrap()
    };
    let off = run(CampaignPruning::Off);
    let on = run(CampaignPruning::Collapse);
    assert_eq!(
        off.records, on.records,
        "collapsing changed campaign records"
    );
    assert_eq!(
        off.histogram(),
        on.histogram(),
        "collapsing changed benign/error counts"
    );
    assert!(!off.records.is_empty(), "gate ran an empty campaign");
    (off, on)
}

#[test]
fn avr_core_sweep_identical_with_and_without_collapsing() {
    let harness = AvrWorkload::new(avr_programs::fib(Termination::Loop), vec![]);
    assert!(harness.testbench().can_run_wide());
    let (_, on) = assert_pruning_equivalent(&harness, 80, Some(48));
    assert_eq!(on.pruning.points, on.records.len());
}

#[test]
fn msp430_core_sweep_identical_with_and_without_collapsing() {
    let harness = Msp430Workload::new(msp_programs::fib(Termination::Loop));
    assert!(harness.testbench().can_run_wide());
    let (_, on) = assert_pruning_equivalent(&harness, 80, Some(48));
    assert_eq!(on.pruning.points, on.records.len());
}

#[test]
fn tmr_wide_sweep_identical_and_collapsing_engages() {
    let (n, topo) = tmr_register();
    let load = n.find_net("load").unwrap();
    let din = n.find_net("din").unwrap();
    let cycles = 48;
    let harness = StimulusHarness::new(n, topo)
        .drive(load, (0..=cycles).map(|c| c % 4 == 0).collect::<Vec<_>>())
        .drive(din, (0..=cycles).map(|c| c % 8 < 4).collect::<Vec<_>>());
    assert!(harness.testbench().can_run_wide());
    let (_, on) = assert_pruning_equivalent(&harness, cycles, None);
    // Periodic stimuli on a voted register: collapsing must actually prune.
    assert!(on.pruning.classes > 0, "no equivalence classes formed");
    assert!(on.pruning.skipped > 0, "no points were skipped");
    assert!(
        on.pruning.probes < on.pruning.points,
        "collapsing probed every point"
    );
}

#[test]
fn random_wide_sweep_identical_across_engines_and_threads() {
    let cfg = RandomCircuitConfig {
        inputs: 4,
        ffs: 48,
        gates: 180,
        outputs: 3,
    };
    let (n, topo) = random_circuit(cfg, 7);
    let inputs = n.inputs().to_vec();
    let cycles = 20;
    let mut harness = StimulusHarness::new(n, topo);
    for (i, input) in inputs.into_iter().enumerate() {
        let values: Vec<bool> = (0..=cycles).map(|c| (c + i) % 3 == 0).collect();
        harness = harness.drive(input, values);
    }
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
    let reference = {
        let config = CampaignConfig {
            cycles,
            sample: None,
            seed: 0,
            threads: 1,
            lanes: LaneWidth::W64,
            engine: CampaignEngine::FullSettle,
            pruning: CampaignPruning::Off,
        };
        run_campaign_wide(&harness, &space, &config).unwrap()
    };
    for engine in [CampaignEngine::Auto, CampaignEngine::Differential] {
        for threads in [1, 3] {
            let config = CampaignConfig {
                cycles,
                sample: None,
                seed: 0,
                threads,
                lanes: LaneWidth::W256,
                engine,
                pruning: CampaignPruning::Collapse,
            };
            let run = run_campaign_wide(&harness, &space, &config).unwrap();
            assert_eq!(
                reference.records, run.records,
                "engine {engine} threads {threads}"
            );
            assert_eq!(run.pruning.points, run.records.len());
        }
    }
}

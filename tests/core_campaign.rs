//! Smoke tests of the batched campaign paths against `run_campaign`, which
//! calls scalar `inject` per fault point: the paper's own AVR campaign on
//! the default configuration (the core with its memories attached takes
//! the wide path), and every engine, lane width and thread count on the
//! Figure-1b netlist.

use fault_space_pruning::cores::avr::programs as avr_programs;
use fault_space_pruning::cores::{AvrWorkload, Termination};
use fault_space_pruning::hafi::{
    classify_points, golden_run, run_campaign, run_campaign_wide, CampaignConfig, CampaignEngine,
    DesignHarness, FaultEffect, FaultPoint, FaultSpace, LaneWidth, StimulusHarness,
};
use fault_space_pruning::mate::ff_wires_filtered;
use fault_space_pruning::netlist::examples::figure1b;
use mate_bench::is_register_file;

const CYCLES: usize = 80;
const SAMPLE: usize = 48;

#[test]
fn avr_register_file_campaign_matches_scalar_inject() {
    let harness = AvrWorkload::new(avr_programs::fib(Termination::Loop), vec![]);
    assert!(harness.testbench().can_run_wide());
    let (netlist, topo) = (harness.netlist(), harness.topology());
    let rf = ff_wires_filtered(netlist, topo, is_register_file);
    let space = FaultSpace::for_wires(netlist, topo, &rf, CYCLES);
    let config = CampaignConfig {
        cycles: CYCLES,
        sample: Some(SAMPLE),
        seed: 7,
        ..CampaignConfig::default()
    };
    let wide = run_campaign_wide(&harness, &space, &config).unwrap();
    assert_eq!(wide.len(), SAMPLE);
    let scalar = run_campaign(&harness, &space, &config).unwrap();
    assert_eq!(wide.records, scalar.records);
}

/// The batched entry points on a netlist workload: every engine × lane
/// width × thread count through `classify_points` and `run_campaign_wide`
/// equals scalar `run_campaign` on the exhaustive Figure-1b fault space.
#[test]
fn figure1b_batched_paths_match_scalar_run_campaign() {
    let cycles = 32;
    let (netlist, topo) = figure1b();
    let inputs = netlist.inputs().to_vec();
    let mut harness = StimulusHarness::new(netlist, topo);
    for (i, input) in inputs.into_iter().enumerate() {
        let wave: Vec<bool> = (0..=cycles).map(|c| (c * 7 + i * 3) % 5 < 2).collect();
        harness = harness.drive(input, wave);
    }
    assert!(harness.testbench().can_run_wide());
    let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
    let base = CampaignConfig {
        cycles,
        ..CampaignConfig::default()
    };
    let scalar = run_campaign(&harness, &space, &base).unwrap();
    assert_eq!(scalar.len(), space.len());
    let points: Vec<FaultPoint> = scalar.records.iter().map(|&(p, _)| p).collect();
    let effects: Vec<FaultEffect> = scalar.records.iter().map(|&(_, e)| e).collect();
    let golden = golden_run(&harness, cycles + 1);
    for engine in CampaignEngine::all() {
        for lanes in LaneWidth::all() {
            for threads in [1, 2] {
                let config = CampaignConfig {
                    threads,
                    lanes,
                    engine,
                    ..base
                };
                let label = format!("{engine} engine, {lanes} lanes, {threads} threads");
                let batched = classify_points(&harness, &golden, &points, &config).unwrap();
                assert_eq!(batched, effects, "classify_points: {label}");
                let wide = run_campaign_wide(&harness, &space, &config).unwrap();
                assert_eq!(wide.records, scalar.records, "run_campaign_wide: {label}");
            }
        }
    }
}

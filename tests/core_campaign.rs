//! Smoke test of the paper's own campaign on the default configuration: the
//! AVR core with its memories attached takes the wide path, and its records
//! equal those of `run_campaign`, which calls scalar `inject` per fault
//! point.

use fault_space_pruning::cores::avr::programs as avr_programs;
use fault_space_pruning::cores::{AvrWorkload, Termination};
use fault_space_pruning::hafi::{
    run_campaign, run_campaign_wide, CampaignConfig, DesignHarness, FaultSpace,
};
use fault_space_pruning::mate::ff_wires_filtered;
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

//! The batched campaign engines must be pure performance changes: every
//! path through [`classify_points`] — differential, full-settle,
//! checkpointed scalar, and the scalar fallback — at every lane width and
//! thread count, has to produce classifications bit-identical to one
//! [`inject`] call per fault point, on random netlists and on the AVR and
//! MSP430 cores with their memories attached.

use proptest::prelude::*;

use mate_hafi::{
    classify_multi_points, classify_points, golden_run, inject, inject_multi, run_campaign,
    run_campaign_wide, CampaignConfig, CampaignEngine, DesignHarness, FaultPoint, FaultSpace,
    LaneWidth, StimulusHarness,
};
use mate_netlist::random::{random_circuit, RandomCircuitConfig};

fn harness_for(seed: u64, cfg: RandomCircuitConfig, cycles: usize) -> StimulusHarness {
    let (netlist, topo) = random_circuit(cfg, seed);
    let inputs = netlist.inputs().to_vec();
    let mut harness = StimulusHarness::new(netlist, topo);
    for (i, input) in inputs.into_iter().enumerate() {
        let values: Vec<bool> = (0..cycles)
            .map(|c| {
                let x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64) << 32 | c as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x >> 37) & 1 == 1
            })
            .collect();
        harness = harness.drive(input, values);
    }
    harness
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive fault space on random circuits: the wide engine classifies
    /// every point exactly like the scalar `inject` path.
    #[test]
    fn wide_classifications_match_scalar_inject(seed in 0u64..5_000) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 7, gates: 24, outputs: 2 };
        let cycles = 14;
        let harness = harness_for(seed, cfg, cycles + 1);
        // A stimulus-only harness takes the wide path.
        prop_assert!(harness.testbench().can_run_wide());

        let golden = golden_run(&harness, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points: Vec<FaultPoint> = space.iter().collect();

        let batched =
            classify_points(&harness, &golden, &points, &CampaignConfig::default()).unwrap();
        for (&point, wide_effect) in points.iter().zip(&batched) {
            let scalar_effect = inject(&harness, &golden, point).unwrap();
            prop_assert_eq!(
                *wide_effect,
                scalar_effect,
                "seed {} ff {:?} cycle {}",
                seed, point.ff, point.cycle
            );
        }
    }

    /// The two campaign drivers agree record-for-record.
    #[test]
    fn wide_campaign_matches_scalar_campaign(seed in 0u64..5_000) {
        let cfg = RandomCircuitConfig { inputs: 4, ffs: 6, gates: 20, outputs: 2 };
        let cycles = 10;
        let harness = harness_for(seed.wrapping_add(13), cfg, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let config = CampaignConfig { cycles, sample: Some(40), seed, ..CampaignConfig::default() };
        let scalar = run_campaign(&harness, &space, &config).unwrap();
        let wide = run_campaign_wide(&harness, &space, &config).unwrap();
        prop_assert_eq!(scalar.records, wide.records);
    }

    /// The differential engine is bit-identical to the full-settle block
    /// engine AND the scalar classifier, across every lane width, on the
    /// exhaustive fault space of random circuits.
    #[test]
    fn differential_matches_full_settle_and_scalar(seed in 0u64..5_000) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 8, gates: 28, outputs: 2 };
        let cycles = 12;
        let harness = harness_for(seed.wrapping_add(101), cfg, cycles + 1);
        prop_assert!(harness.testbench().can_run_wide());

        let golden = golden_run(&harness, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points: Vec<FaultPoint> = space.iter().collect();
        let scalar: Vec<_> = points
            .iter()
            .map(|&p| inject(&harness, &golden, p).unwrap())
            .collect();
        for lanes in LaneWidth::all() {
            for engine in CampaignEngine::all() {
                let config = CampaignConfig { threads: 1, lanes, engine, ..CampaignConfig::default() };
                let batched = classify_points(&harness, &golden, &points, &config).unwrap();
                prop_assert_eq!(
                    &scalar, &batched,
                    "seed {} {} engine {} lanes", seed, engine, lanes
                );
            }
        }
    }

    /// Thread sharding is invisible per engine: any thread count reproduces
    /// the single-threaded records of the same engine, and both engines
    /// produce the same records.
    #[test]
    fn engines_match_across_threads(seed in 0u64..5_000, threads in 2usize..5) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 6, gates: 22, outputs: 2 };
        let cycles = 10;
        let harness = harness_for(seed.wrapping_add(57), cfg, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let base = CampaignConfig {
            cycles,
            sample: Some(30),
            seed,
            threads: 1,
            lanes: LaneWidth::W64,
            engine: CampaignEngine::FullSettle,
        };
        let reference = run_campaign_wide(&harness, &space, &base).unwrap();
        for engine in CampaignEngine::all() {
            for lanes in LaneWidth::all() {
                let sharded = run_campaign_wide(
                    &harness,
                    &space,
                    &CampaignConfig { threads, lanes, engine, ..base },
                ).unwrap();
                prop_assert_eq!(
                    &reference.records, &sharded.records,
                    "{} engine {} lanes {} threads", engine, lanes, threads
                );
            }
        }
    }

    /// Batched multi-SEU sets (one whole set per lane) classify exactly
    /// like one scalar `inject_multi` per set — the `core/src/multi.rs`
    /// fault model — on both engines at every lane width and thread count,
    /// including duplicated points inside a set (whose flips cancel).
    #[test]
    fn multi_seu_sets_match_scalar_inject_multi(seed in 0u64..5_000, threads in 1usize..4) {
        let cfg = RandomCircuitConfig { inputs: 3, ffs: 7, gates: 24, outputs: 2 };
        let cycles = 10;
        let harness = harness_for(seed.wrapping_add(23), cfg, cycles + 1);
        prop_assert!(harness.testbench().can_run_wide());

        let golden = golden_run(&harness, cycles + 1);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), cycles);
        let points: Vec<FaultPoint> = space.iter().collect();
        // Pair up points within each cycle into 2- and 3-bit sets, plus the
        // singletons, mimicking the adjacent-FF sets of the multi-SEU
        // search.
        let mut sets: Vec<Vec<FaultPoint>> = Vec::new();
        for cycle in 0..cycles {
            let in_cycle: Vec<FaultPoint> =
                points.iter().copied().filter(|p| p.cycle == cycle).collect();
            for pair in in_cycle.windows(2) {
                sets.push(pair.to_vec());
            }
            for triple in in_cycle.windows(3).step_by(3) {
                sets.push(triple.to_vec());
            }
            if let Some(&first) = in_cycle.first() {
                sets.push(vec![first]);
                // A double flip of one flip-flop cancels to a no-op set.
                sets.push(vec![first, first]);
            }
        }
        let scalar: Vec<_> = sets
            .iter()
            .map(|s| inject_multi(&harness, &golden, s).unwrap())
            .collect();
        for engine in CampaignEngine::all() {
            for lanes in LaneWidth::all() {
                let config = CampaignConfig { threads, lanes, engine, ..CampaignConfig::default() };
                let batched = classify_multi_points(&harness, &golden, &sets, &config).unwrap();
                prop_assert_eq!(
                    &scalar, &batched,
                    "seed {} {} engine {} lanes {} threads", seed, engine, lanes, threads
                );
            }
        }
    }
}

/// The paper's processor cores: their memories read only primary outputs,
/// so the cores take the wide path and must still match scalar injection.
mod cores {
    use super::*;
    use mate_cores::avr::programs as avr_programs;
    use mate_cores::msp430::programs as msp_programs;
    use mate_cores::{AvrSystem, AvrWorkload, Msp430Workload, Termination};
    use mate_sim::{DevicePorts, Simulator, SnapshotDevice, Testbench};

    const CYCLES: usize = 120;
    const SAMPLE: usize = 64;

    /// Every engine × lane width × thread count returns the records of one
    /// scalar `inject` per point.
    fn assert_wide_matches_scalar(harness: &(dyn DesignHarness + Sync)) {
        assert!(
            harness.testbench().can_run_wide(),
            "core memories must be transparent"
        );
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), CYCLES);
        let base = CampaignConfig {
            cycles: CYCLES,
            sample: Some(SAMPLE),
            seed: 42,
            ..CampaignConfig::default()
        };
        let scalar = run_campaign(harness, &space, &base).unwrap();
        assert_eq!(scalar.len(), SAMPLE);
        let histogram = scalar.histogram();
        assert!(
            histogram.contains_key("output-failure") && histogram.contains_key("masked-1-cycle"),
            "sample too narrow: {histogram:?}"
        );
        for engine in CampaignEngine::all() {
            for lanes in LaneWidth::all() {
                for threads in [1, 2] {
                    let config = CampaignConfig {
                        threads,
                        lanes,
                        engine,
                        ..base
                    };
                    let run = run_campaign_wide(harness, &space, &config).unwrap();
                    assert_eq!(
                        run.records, scalar.records,
                        "{engine} engine, {lanes} lanes, {threads} threads"
                    );
                }
            }
        }
    }

    /// Simultaneous pairs and triples of upsets through the batched
    /// multi-SEU path match `inject_multi` on every engine × lane width ×
    /// thread count.
    fn assert_multi_matches_scalar(harness: &(dyn DesignHarness + Sync)) {
        let golden = golden_run(harness, CYCLES + 1);
        let ffs = harness.topology().seq_cells();
        let sets: Vec<Vec<FaultPoint>> = (0..24usize)
            .map(|i| {
                let cycle = (i * 37) % CYCLES;
                (0..2 + i % 2)
                    .map(|k| {
                        let ff = ffs[(i * 131 + k * 17) % ffs.len()];
                        FaultPoint {
                            ff,
                            wire: harness.netlist().cell(ff).output(),
                            cycle,
                        }
                    })
                    .collect()
            })
            .collect();
        let scalar: Vec<_> = sets
            .iter()
            .map(|set| inject_multi(harness, &golden, set).unwrap())
            .collect();
        for engine in CampaignEngine::all() {
            for lanes in LaneWidth::all() {
                for threads in [1, 2] {
                    let config = CampaignConfig {
                        threads,
                        lanes,
                        engine,
                        ..CampaignConfig::default()
                    };
                    let batched = classify_multi_points(harness, &golden, &sets, &config).unwrap();
                    assert_eq!(
                        scalar, batched,
                        "{engine} engine, {lanes} lanes, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn avr_fib_wide_matches_scalar_inject() {
        let harness = AvrWorkload::new(avr_programs::fib(Termination::Loop), vec![]);
        assert_wide_matches_scalar(&harness);
        assert_multi_matches_scalar(&harness);
    }

    #[test]
    fn avr_conv_wide_matches_scalar_inject() {
        let (program, dmem) = avr_programs::conv(Termination::Loop);
        let harness = AvrWorkload::new(program, dmem);
        assert_wide_matches_scalar(&harness);
        assert_multi_matches_scalar(&harness);
    }

    #[test]
    fn msp430_fib_wide_matches_scalar_inject() {
        let harness = Msp430Workload::new(msp_programs::fib(Termination::Loop));
        assert_wide_matches_scalar(&harness);
        assert_multi_matches_scalar(&harness);
    }

    #[test]
    fn msp430_conv_wide_matches_scalar_inject() {
        let harness = Msp430Workload::new(msp_programs::conv(Termination::Loop));
        assert_wide_matches_scalar(&harness);
        assert_multi_matches_scalar(&harness);
    }

    /// Folds the AVR instruction register into a checksum every cycle.  It
    /// reads an internal net, so the transparency check must reject it.
    struct IrProbe {
        ir: Vec<mate_netlist::NetId>,
        checksum: u64,
    }

    impl<'n> SnapshotDevice<'n> for IrProbe {
        fn on_cycle(&mut self, sim: &mut Simulator<'n>) {
            self.checksum = self.checksum.rotate_left(7) ^ sim.read_bus(&self.ir);
        }

        fn ports(&self) -> DevicePorts {
            DevicePorts {
                reads: self.ir.clone(),
                drives: Vec::new(),
            }
        }

        fn state(&self) -> Vec<u64> {
            vec![self.checksum]
        }

        fn load_state(&mut self, state: &[u64]) {
            self.checksum = state[0];
        }
    }

    /// The AVR `fib` workload with an [`IrProbe`] attached.
    struct ProbedAvr {
        sys: AvrSystem,
        program: Vec<u16>,
    }

    impl DesignHarness for ProbedAvr {
        fn netlist(&self) -> &mate_netlist::Netlist {
            self.sys.netlist()
        }
        fn topology(&self) -> &mate_netlist::Topology {
            self.sys.topology()
        }
        fn testbench(&self) -> Testbench<'_> {
            let (mut tb, _) = self.sys.testbench(&self.program, &[]);
            tb.attach_snapshot(Box::new(IrProbe {
                ir: self.sys.ports().ir.nets().to_vec(),
                checksum: 0,
            }));
            tb
        }
    }

    #[test]
    fn internal_net_device_falls_back_to_checkpoint_path() {
        let harness = ProbedAvr {
            sys: AvrSystem::new(),
            program: avr_programs::fib(Termination::Loop),
        };
        let ir = harness.sys.ports().ir.bit(0);
        assert!(!harness.netlist().outputs().contains(&ir));
        let probe = harness.testbench();
        assert!(!probe.can_run_wide(), "IR is not a primary output");
        assert!(probe.can_checkpoint());

        let golden = golden_run(&harness, 81);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 80);
        let points = space.sample(48, 42);
        for threads in [1, 2] {
            let config = CampaignConfig {
                threads,
                ..CampaignConfig::default()
            };
            let batched = classify_points(&harness, &golden, &points, &config).unwrap();
            for (&point, checkpointed) in points.iter().zip(&batched) {
                let scalar = inject(&harness, &golden, point).unwrap();
                assert_eq!(
                    *checkpointed, scalar,
                    "ff {:?} cycle {}, {threads} threads",
                    point.ff, point.cycle
                );
            }
        }
        // Multi-bit sets take the same checkpoint path.
        assert_multi_matches_scalar(&harness);
    }
}

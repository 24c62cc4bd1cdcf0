//! MATE-search throughput: from-scratch reference trust propagation vs. the
//! scratch/memoized/incremental engine, per strategy, on the AVR and MSP430
//! cores.
//!
//! Besides the criterion reporting, the bench emits a machine-readable
//! `BENCH_search.json` at the workspace root.  The optimized engine is
//! asserted bit-identical to the reference — per wire: MATEs, candidate
//! counts, unmaskable verdicts — before any timing starts, and both engines
//! are timed on a single thread so the speedup measures the propagation
//! engine, not the scheduler.  `host_cpus` is recorded for honesty even
//! though the timed runs do not use the extra cores.

use std::time::Instant;

use criterion::{is_quick_test, Criterion, Throughput};

use mate::{ff_wires, search_design, PropagationMode, SearchConfig, SearchStrategy};
use mate_cores::{AvrSystem, Msp430System};
use mate_netlist::{NetId, Netlist, Topology};
use mate_pipeline::ENGINE_LAYOUT_VERSION;

/// Best-of-`reps` wall-clock seconds.
fn best_secs(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct StrategyMeasured {
    strategy: &'static str,
    wires: usize,
    candidates: u64,
    mates: usize,
    reference_cps: f64,
    optimized_cps: f64,
}

fn bench_config(
    strategy: SearchStrategy,
    propagation: PropagationMode,
    quick: bool,
) -> SearchConfig {
    SearchConfig {
        max_terms: if quick { 4 } else { 8 },
        max_candidates: if quick { 100 } else { 2_000 },
        threads: 1,
        strategy,
        propagation,
        ..SearchConfig::default()
    }
}

fn measure_design(
    c: &mut Criterion,
    name: &str,
    netlist: &Netlist,
    topo: &Topology,
    wires: &[NetId],
    quick: bool,
) -> Vec<StrategyMeasured> {
    let mut measured = Vec::new();
    for (label, strategy) in [
        ("repair", SearchStrategy::Repair),
        ("exhaustive", SearchStrategy::Exhaustive),
    ] {
        let reference_cfg = bench_config(strategy, PropagationMode::Reference, quick);
        let optimized_cfg = bench_config(strategy, PropagationMode::Optimized, quick);

        // Equivalence gate: the optimized engine must reproduce the
        // reference bit for bit before its speed means anything.
        let reference = search_design(netlist, topo, wires, &reference_cfg);
        let optimized = search_design(netlist, topo, wires, &optimized_cfg);
        assert_eq!(
            reference.results.len(),
            optimized.results.len(),
            "{name}/{label}: wire counts diverge"
        );
        for (r, o) in reference.results.iter().zip(&optimized.results) {
            assert_eq!(r.wire, o.wire, "{name}/{label}: wire order diverges");
            assert_eq!(
                r.mates, o.mates,
                "{name}/{label}: MATEs diverge on {:?}",
                r.wire
            );
            assert_eq!(
                r.candidates_tried, o.candidates_tried,
                "{name}/{label}: candidate counts diverge on {:?}",
                r.wire
            );
            assert_eq!(
                r.unmaskable, o.unmaskable,
                "{name}/{label}: unmaskable verdicts diverge on {:?}",
                r.wire
            );
        }
        let candidates = reference.stats.candidates;

        let group_name = format!("search_{name}_{label}");
        let mut group = c.benchmark_group(&group_name);
        group.sample_size(10);
        group.throughput(Throughput::Elements(candidates));
        group.bench_function("reference", |b| {
            b.iter(|| search_design(netlist, topo, wires, &reference_cfg));
        });
        group.bench_function("optimized", |b| {
            b.iter(|| search_design(netlist, topo, wires, &optimized_cfg));
        });
        group.finish();

        let reps = if quick { 1 } else { 3 };
        let reference_s = best_secs(reps, || {
            search_design(netlist, topo, wires, &reference_cfg);
        });
        let optimized_s = best_secs(reps, || {
            search_design(netlist, topo, wires, &optimized_cfg);
        });
        measured.push(StrategyMeasured {
            strategy: label,
            wires: wires.len(),
            candidates,
            mates: reference.stats.num_mates,
            reference_cps: candidates as f64 / reference_s,
            optimized_cps: candidates as f64 / optimized_s,
        });
    }
    measured
}

fn json_block(name: &str, measured: &[StrategyMeasured]) -> String {
    let rows: Vec<String> = measured
        .iter()
        .map(|m| {
            format!(
                "    {{\"strategy\": \"{}\", \"wires\": {}, \"candidates\": {}, \"mates\": {}, \
                 \"reference_candidates_per_sec\": {:.1}, \"optimized_candidates_per_sec\": {:.1}, \
                 \"speedup\": {:.2}}}",
                m.strategy,
                m.wires,
                m.candidates,
                m.mates,
                m.reference_cps,
                m.optimized_cps,
                m.optimized_cps / m.reference_cps,
            )
        })
        .collect();
    format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n"))
}

fn write_json(host_cpus: usize, avr: &[StrategyMeasured], msp: &[StrategyMeasured]) {
    let out = format!(
        "{{\n  \"bench\": \"search\",\n  \"host_cpus\": {host_cpus},\n  \
         \"engine_layout_version\": {ENGINE_LAYOUT_VERSION},\n  \"lane_width\": 1,\n  \
         \"note\": \"single-thread timings; the optimized engine gathers cone geometry from \
         the SoA arena but propagates scalar ternary states (lane width 1); asserted \
         bit-identical to the reference (per-wire MATEs, candidate counts, unmaskable \
         verdicts) before timing\",\n\
         {},\n{}\n}}\n",
        json_block("avr", avr),
        json_block("msp430", msp),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    std::fs::write(path, out).expect("write BENCH_search.json");
    eprintln!("wrote {path}");
}

fn main() {
    let quick = is_quick_test();
    let mut c = Criterion::default();

    let avr = AvrSystem::new();
    let avr_wires = ff_wires(avr.netlist(), avr.topology());
    let msp = Msp430System::new();
    let msp_wires = ff_wires(msp.netlist(), msp.topology());

    let avr_m = measure_design(
        &mut c,
        "avr",
        avr.netlist(),
        avr.topology(),
        &avr_wires,
        quick,
    );
    let msp_m = measure_design(
        &mut c,
        "msp430",
        msp.netlist(),
        msp.topology(),
        &msp_wires,
        quick,
    );

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for (name, measured) in [("avr", &avr_m), ("msp430", &msp_m)] {
        for m in measured {
            eprintln!(
                "{name}/{}: {} wires, {} candidates — reference {:.0} cand/s, optimized {:.0} \
                 cand/s, speedup {:.1}x",
                m.strategy,
                m.wires,
                m.candidates,
                m.reference_cps,
                m.optimized_cps,
                m.optimized_cps / m.reference_cps
            );
        }
    }
    if quick {
        eprintln!("quick test mode: skipping BENCH_search.json");
    } else {
        write_json(host_cpus, &avr_m, &msp_m);
    }
}

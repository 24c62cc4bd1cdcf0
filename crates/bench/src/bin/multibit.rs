//! Multi-bit MATEs (paper Section 6.2): 2-bit fault-masking terms for
//! *adjacent* flip-flop pairs — the multi-event-upset model that
//! layout-aware HAFI platforms (the paper's FLINT reference) inject.
//!
//! Lacking physical layout, adjacency is approximated by consecutive
//! flip-flop indices (elaboration order groups related bits, e.g. register
//! slices, next to each other — the same locality a placer produces).
//!
//! The design, fib() trace, and single-bit reference search come from the
//! artifact-cached pipeline; the pair search itself is direct (it is not a
//! pipeline stage).
//!
//! ```text
//! cargo run -p mate-bench --bin multibit --release
//! ```

use mate::multi::search_wire_sets;
use mate::SearchConfig;
use mate_bench::Core;
use mate_pipeline::{Flow, WireSetSpec};

fn main() {
    let cycles = 2000;
    let mut flow = Flow::open_default(Core::Avr.design_source()).expect("pipeline failure");
    let design = flow.design().clone();
    let (netlist, topo) = (&design.netlist, &design.topology);
    let config = SearchConfig {
        max_terms: 8,
        max_candidates: 2_000,
        ..SearchConfig::default()
    };

    let ffs: Vec<_> = topo
        .seq_cells()
        .iter()
        .map(|&ff| netlist.cell(ff).output())
        .collect();
    let pairs: Vec<Vec<mate_netlist::NetId>> = ffs
        .windows(2)
        .map(<[mate_netlist::NetId]>::to_vec)
        .collect();

    eprintln!(
        "searching 2-bit MATEs for {} adjacent pairs ...",
        pairs.len()
    );
    let start = std::time::Instant::now();
    // One shared SoA arena and GMT cache across the whole pair sweep.
    let results = search_wire_sets(netlist, topo, &pairs, &config);
    let maskable_pairs = results.iter().filter(|r| !r.mates.is_empty()).count();
    let total_mates: usize = results.iter().map(|r| r.mates.len()).sum();
    println!("## 2-bit MATEs for adjacent flip-flop pairs (AVR)");
    println!(
        "pairs: {}, maskable pairs: {maskable_pairs}, 2-bit MATEs: {total_mates}, \
         search time: {:.1?}",
        pairs.len(),
        start.elapsed()
    );

    // Evaluate against the fib() trace: a pair point (pair, cycle) is
    // pruned when some 2-bit MATE of the pair triggers in that cycle.
    let trace = flow
        .capture(Core::Avr.fib(), cycles)
        .expect("pipeline failure")
        .value;
    let mut masked_points = 0usize;
    for result in &results {
        for cycle in 0..cycles {
            if result
                .mates
                .iter()
                .any(|m| m.cube.eval(|net| trace.value(cycle, net)))
            {
                masked_points += 1;
            }
        }
    }
    let total = pairs.len() * cycles;
    println!(
        "fib() double-fault space: {masked_points}/{total} points pruned ({:.2}%)",
        100.0 * masked_points as f64 / total as f64
    );

    // Reference: the single-bit masked fraction of the same wires, so the
    // cost of the stronger fault model is visible.
    let single = flow
        .search(WireSetSpec::AllFfs, config)
        .expect("pipeline failure")
        .value
        .mates;
    let single_report = mate::eval::evaluate(&single, &trace, &ffs);
    println!(
        "single-bit reference on the same trace: {:.2}% masked",
        100.0 * single_report.masked_fraction()
    );
    println!(
        "=> as the paper anticipates, multi-bit MATEs exist but mask a smaller \
         share: both bits must be jointly dead in the same cycle."
    );
    eprintln!("{}", flow.summary());
}

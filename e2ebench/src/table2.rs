//! The Table 2 computation, rendered byte for byte like the `table2`
//! binary, with every evaluation and selection call timed on its own.
//!
//! This mirrors `mate_bench::{full_set_row, selection_grid,
//! print_performance_table}` call for call and line for line; only the
//! spans around each layer call are new.  The byte check against
//! `expected/table2.txt` therefore covers the numbers the layers compute,
//! not the program's own renderer: a change to that renderer must be
//! copied here.

use std::fmt::Write as _;

use mate::eval::{evaluate, EvalReport};
use mate::{select_top_n, MateSet};
use mate_bench::{masked_percent, WireSets, TOP_SIZES, TRACE_CYCLES};
use mate_hafi::LutCostModel;
use mate_netlist::NetId;
use mate_sim::WaveTrace;

use crate::Ctx;

/// `mate::eval::evaluate`, timed as `mate.eval` and counted in fault-space
/// points.
pub fn eval(ctx: &mut Ctx, mates: &MateSet, trace: &WaveTrace, wires: &[NetId]) -> EvalReport {
    let report = ctx.timed("mate.eval", || evaluate(mates, trace, wires));
    let points = report.matrix.wires().len() * report.matrix.cycles();
    ctx.add("mate.eval.points", points as f64);
    report
}

/// `mate::select_top_n`, timed as `mate.select`.
pub fn select(
    ctx: &mut Ctx,
    mates: &MateSet,
    trace: &WaveTrace,
    wires: &[NetId],
    n: usize,
) -> MateSet {
    ctx.add("mate.select.calls", 1.0);
    ctx.timed("mate.select", || select_top_n(mates, trace, wires, n))
}

fn luts(ctx: &mut Ctx, mates: &MateSet) -> usize {
    ctx.timed("hafi.lut_cost", || {
        LutCostModel::default().luts_for_set(mates)
    })
}

/// One full-set cell: effective MATEs, input statistics, masked share,
/// effective-set LUT cost.
struct FullSetCell {
    effective: usize,
    avg_inputs: f64,
    std_inputs: f64,
    masked: f64,
    luts: usize,
}

fn full_set_cell(
    ctx: &mut Ctx,
    mates: &MateSet,
    trace: &WaveTrace,
    wires: &[NetId],
) -> FullSetCell {
    let report = eval(ctx, mates, trace, wires);
    let effective_idx: Vec<usize> = (0..mates.len())
        .filter(|&i| report.triggers[i] > 0)
        .collect();
    let effective_set = mates.subset(&effective_idx);
    FullSetCell {
        effective: report.effective,
        avg_inputs: report.avg_inputs,
        std_inputs: report.std_inputs,
        masked: masked_percent(&report),
        luts: luts(ctx, &effective_set),
    }
}

/// Top-N rows selected on `select_trace`: `(masked on fib, masked on
/// conv)` per size, each subset's LUT cost, and the smallest subset.
fn selection_grid(
    ctx: &mut Ctx,
    mates: &MateSet,
    select_trace: &WaveTrace,
    traces: [&WaveTrace; 2],
    wires: &[NetId],
) -> (Vec<(f64, f64)>, Vec<usize>, MateSet) {
    let mut rows = Vec::new();
    let mut costs = Vec::new();
    let mut smallest = None;
    for &n in &TOP_SIZES {
        let subset = select(ctx, mates, select_trace, wires, n);
        let fib = masked_percent(&eval(ctx, &subset, traces[0], wires));
        let conv = masked_percent(&eval(ctx, &subset, traces[1], wires));
        rows.push((fib, conv));
        costs.push(luts(ctx, &subset));
        smallest.get_or_insert(subset);
    }
    (rows, costs, smallest.expect("TOP_SIZES is not empty"))
}

/// Table 2 as text, and the selection the paper headlines: the Top-10 set
/// selected on `fib()` over all flip-flops.
pub struct Table2 {
    /// The rendered table.
    pub text: String,
    /// Top-10 on `fib()`, all FFs.
    pub top10: MateSet,
    /// Share of `fib()`'s all-FF fault space `top10` proves benign (%).
    pub top10_masked: f64,
}

/// Computes and renders Table 2.
pub fn table2(
    ctx: &mut Ctx,
    mates: &MateSet,
    fib: &WaveTrace,
    conv: &WaveTrace,
    sets: &WireSets,
) -> Table2 {
    let mut out = String::new();
    let (avg, std) = mates.input_stats();
    let _ = writeln!(
        out,
        "## Table 2: AVR MATE performance ({TRACE_CYCLES} cycles per program)"
    );
    let _ = writeln!(out, "### AVR");
    let _ = writeln!(
        out,
        "MATE set: {} deduplicated MATEs (avg {avg:.1} ± {std:.1} inputs over the full set)",
        mates.len(),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>12} {:>10} {:>12}",
        "", "fib() FF", "fib() w/o RF", "conv() FF", "conv() w/o RF"
    );
    let full: Vec<FullSetCell> = [
        (fib, &sets.all),
        (fib, &sets.no_rf),
        (conv, &sets.all),
        (conv, &sets.no_rf),
    ]
    .into_iter()
    .map(|(t, w)| full_set_cell(ctx, mates, t, w))
    .collect();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>12} {:>10} {:>12}",
        "#Effective MATEs",
        full[0].effective,
        full[1].effective,
        full[2].effective,
        full[3].effective
    );
    let inputs = |c: &FullSetCell| format!("{:.1}±{:.1}", c.avg_inputs, c.std_inputs);
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>12} {:>10} {:>12}",
        "Avg. #inputs",
        inputs(&full[0]),
        inputs(&full[1]),
        inputs(&full[2]),
        inputs(&full[3]),
    );
    let _ = writeln!(
        out,
        "{:<34} {:>9.2}% {:>11.2}% {:>9.2}% {:>11.2}%",
        "Masked Faults (full MATE set)",
        full[0].masked,
        full[1].masked,
        full[2].masked,
        full[3].masked
    );
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>12} {:>10} {:>12}",
        "Effective-set LUTs (6-input)", full[0].luts, full[1].luts, full[2].luts, full[3].luts
    );

    let mut headline = None;
    for (sel_name, sel_trace) in [("fib()", fib), ("conv()", conv)] {
        let _ = writeln!(out);
        let _ = writeln!(out, "selected for {sel_name}:");
        let (all, costs, top10) = selection_grid(ctx, mates, sel_trace, [fib, conv], &sets.all);
        let (no_rf, _, _) = selection_grid(ctx, mates, sel_trace, [fib, conv], &sets.no_rf);
        headline.get_or_insert((top10, all[0].0));
        for (i, &n) in TOP_SIZES.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<34} {:>9.2}% {:>11.2}% {:>9.2}% {:>11.2}%   ({} LUTs)",
                format!("  Top {n}"),
                all[i].0,
                no_rf[i].0,
                all[i].1,
                no_rf[i].1,
                costs[i]
            );
        }
    }
    let _ = writeln!(out);
    let (top10, top10_masked) = headline.expect("the fib() grid always runs");
    Table2 {
        text: out,
        top10,
        top10_masked,
    }
}

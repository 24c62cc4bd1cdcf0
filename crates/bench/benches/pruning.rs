//! Criterion bench for the online side of the paper: per-cycle MATE
//! evaluation (what the FPGA fabric does), trace-replay fault-space
//! pruning, and the greedy top-N selection.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mate::eval::evaluate;
use mate::{ff_wires, search_design, select_top_n, MateSet, SearchConfig};
use mate_bench::table_search_config;
use mate_cores::avr::programs;
use mate_cores::{AvrSystem, Termination};
use mate_netlist::NetId;
use mate_sim::WaveTrace;

struct Setup {
    mates: MateSet,
    trace: WaveTrace,
    wires: Vec<NetId>,
}

fn setup() -> Setup {
    let sys = AvrSystem::new();
    let wires = ff_wires(sys.netlist(), sys.topology());
    let config = SearchConfig {
        max_candidates: 2_000,
        ..table_search_config()
    };
    let mates = search_design(sys.netlist(), sys.topology(), &wires, &config).into_mate_set();
    let run = sys.run(&programs::fib(Termination::Loop), &[], 2000);
    Setup {
        mates,
        trace: run.trace,
        wires,
    }
}

fn pruning_benches(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("pruning");
    group.sample_size(10);
    group.throughput(Throughput::Elements(s.trace.num_cycles() as u64));

    group.bench_function("evaluate_full_set", |b| {
        b.iter(|| evaluate(&s.mates, &s.trace, &s.wires));
    });

    let top50 = select_top_n(&s.mates, &s.trace, &s.wires, 50);
    group.bench_function("evaluate_top50", |b| {
        b.iter(|| evaluate(&top50, &s.trace, &s.wires));
    });

    group.bench_function("select_top50", |b| {
        b.iter(|| select_top_n(&s.mates, &s.trace, &s.wires, 50));
    });

    group.finish();
}

criterion_group!(benches, pruning_benches);
criterion_main!(benches);

//! Criterion bench for the simulation substrate: gate-level cycles per
//! second on both cores (the HAFI emulation speed) and single-fault
//! injection experiments.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use mate_cores::avr::programs as avr_programs;
use mate_cores::msp430::programs as msp_programs;
use mate_cores::{AvrWorkload, Msp430Workload, Termination};
use mate_hafi::{golden_run, inject, DesignHarness, FaultPoint};

fn simulator_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);

    const CYCLES: usize = 1000;
    group.throughput(Throughput::Elements(CYCLES as u64));

    let avr = AvrWorkload::new(avr_programs::fib(Termination::Loop), vec![]);
    group.bench_function("avr_fib_1k_cycles", |b| {
        b.iter(|| avr.testbench().run(CYCLES));
    });

    let msp = Msp430Workload::new(msp_programs::fib(Termination::Loop));
    group.bench_function("msp430_fib_1k_cycles", |b| {
        b.iter(|| msp.testbench().run(CYCLES));
    });

    // One complete fault-injection experiment: re-run to the injection
    // point, flip, classify against the golden run.
    let golden = golden_run(&avr, 400);
    let ff = avr.topology().seq_cells()[10];
    let wire = avr.netlist().cell(ff).output();
    group.throughput(Throughput::Elements(1));
    group.bench_function("avr_single_injection", |b| {
        b.iter(|| {
            inject(
                &avr,
                &golden,
                FaultPoint {
                    ff,
                    wire,
                    cycle: 200,
                },
            )
            .unwrap()
        });
    });

    group.finish();
}

criterion_group!(benches, simulator_benches);
criterion_main!(benches);

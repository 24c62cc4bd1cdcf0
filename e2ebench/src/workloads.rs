//! The workloads.  Each drives the program only through its public
//! API — `Flow` for the cached stages, the layer crates' functions for the
//! rest — and wraps every call in a span named after the layer it enters.

use std::time::Instant;

use mate::{ff_wires, ff_wires_filtered, MateSet};
use mate_analyze::{
    prove_wire_coverage, run_lints, verify_mates, CoverageProof, Severity, Verdict, VerifyConfig,
};
use mate_bench::{
    is_register_file, table_search_config, uart_tx_source, uart_tx_waves, Core, WireSets,
    TRACE_CYCLES,
};
use mate_cores::AvrWorkload;
use mate_hafi::{
    run_campaign_wide, validate_mates, CampaignConfig, CampaignResult, DesignHarness, FaultEffect,
    FaultSpace, StimulusHarness,
};
use mate_netlist::{MateError, Netlist, Topology};
use mate_pipeline::{
    ArtifactStore, DesignSource, Flow, SearchOutput, Staged, TraceSource, WireSetSpec,
};
use mate_sim::WaveTrace;

use crate::table2::{eval, select, table2};
use crate::{ms, Ctx};

/// Expected outputs, kept with the benchmark.
const EXPECTED_TABLE2: &str = include_str!("../expected/table2.txt");
const EXPECTED_DIGESTS: &str = include_str!("../expected/digests.txt");

/// The register-file campaign of the warm workload: the `crosslayer`
/// shape (sampled points over a short horizon on the checkpoint path).
const RF_CAMPAIGN_CYCLES: usize = 400;
const RF_CAMPAIGN_SAMPLE: usize = 500;
const RF_CAMPAIGN_SEED: u64 = 7;
/// Validating injection of the warm workload: claimed points sampled (by
/// the workload seed) from this many cycles of `fib()`.
const WARM_VALIDATE_CYCLES: usize = 400;
const WARM_VALIDATE_SAMPLE: usize = 200;

/// Horizon of the `uart_tx` trace and exhaustive campaign.
const UART_CYCLES: usize = 40_000;
/// Size of the `uart_tx` selection.
const UART_TOP_N: usize = 4;
/// Claimed points the `uart_tx` validation samples (by the workload seed).
const UART_VALIDATE_SAMPLE: usize = 10_000;

/// A benchmark workload (see `README.md` for why each was chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Reopen a filled store, recompute Table 2, certify the Top-10
    /// selection, and validate it by injection.
    AvrWarmValidate,
    /// Ingest `uart_tx`, search, rank, and inject exhaustively.
    UartTxCampaign,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "avr_warm_validate" => Some(Self::AvrWarmValidate),
            "uart_tx_campaign" => Some(Self::UartTxCampaign),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::AvrWarmValidate => "avr_warm_validate",
            Self::UartTxCampaign => "uart_tx_campaign",
        }
    }

    /// `true` when every iteration starts from an empty store, so the
    /// set-up runs between iterations too.  The warm set-up fills the store
    /// with a full search.
    pub fn is_cold(self) -> bool {
        self == Self::UartTxCampaign
    }

    /// Reaches the timed phase: empties this run's store and, for the warm
    /// workload, fills it.
    pub fn setup(self, ctx: &mut Ctx) -> Result<(), MateError> {
        empty_store(ctx)?;
        match self {
            Self::UartTxCampaign => Ok(()),
            Self::AvrWarmValidate => {
                let AvrPrefix { flow, .. } = avr_prefix(ctx)?;
                let s = flow.summary();
                ctx.check(
                    "warm set-up computes every stage",
                    s.hits() == 0 && s.misses() == 5,
                    format_args!("{} hits, {} misses", s.hits(), s.misses()),
                );
                Ok(())
            }
        }
    }

    /// One timed iteration.
    pub fn iteration(self, ctx: &mut Ctx) -> Result<(), MateError> {
        match self {
            Self::AvrWarmValidate => avr_warm_validate(ctx),
            Self::UartTxCampaign => uart_tx_campaign(ctx),
        }
    }
}

fn empty_store(ctx: &mut Ctx) -> Result<(), MateError> {
    let dir = ctx.store.clone();
    ctx.timed("bench.store", || {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)
    })
    .map_err(|e| MateError::io(dir.display().to_string(), e))
}

/// `Flow::new` over this run's store, timed as `layer`.
fn open_flow(ctx: &mut Ctx, layer: &'static str, source: DesignSource) -> Result<Flow, MateError> {
    let store = ArtifactStore::new(&ctx.store);
    ctx.timed(layer, || Flow::new(store, source))
}

/// Runs one cached `Flow` stage inside a span.  A computed stage is
/// charged to `layer`; one served from the store becomes a `pipeline.hit`
/// span, its time and artifact bytes counted as pipeline reads.
fn stage<T>(
    ctx: &mut Ctx,
    flow: &mut Flow,
    layer: &'static str,
    call: impl FnOnce(&mut Flow) -> Result<Staged<T>, MateError>,
) -> Result<(Staged<T>, bool), MateError> {
    let span = ctx.tracer.begin(layer);
    let start = Instant::now();
    let out = call(flow);
    let elapsed = ms(start.elapsed());
    let staged = match out {
        Ok(staged) => staged,
        Err(e) => {
            ctx.tracer.end(span);
            return Err(e);
        }
    };
    let record = flow.summary().records.last().cloned();
    let computed = !record.as_ref().is_some_and(|r| r.cached);
    let note = record.as_ref().map_or("", |r| r.stage.as_str());
    if computed {
        ctx.tracer.end_as(span, layer, note);
        ctx.add(&format!("{layer}.ms"), elapsed);
    } else {
        ctx.tracer.end_as(span, "pipeline.hit", note);
        ctx.add("pipeline.hit.ms", elapsed);
        if let Some(r) = &record {
            let path = ctx
                .store
                .join(&r.stage)
                .join(format!("{}.art", r.key.hex()));
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            ctx.add("pipeline.hit.bytes", bytes as f64);
        }
    }
    Ok((staged, computed))
}

/// Adds the pipeline's hit/miss counters of `flow` to the pass.
fn count_pipeline(ctx: &mut Ctx, flow: &Flow) {
    let s = flow.summary();
    ctx.add("pipeline.hits", s.hits() as f64);
    ctx.add("pipeline.misses", s.misses() as f64);
}

/// The offline prefix of Table 2: load → GMT → search → two traces.
struct AvrPrefix {
    flow: Flow,
    search: Staged<SearchOutput>,
    fib: Staged<WaveTrace>,
    conv: Staged<WaveTrace>,
}

fn avr_prefix(ctx: &mut Ctx) -> Result<AvrPrefix, MateError> {
    let mut flow = open_flow(ctx, "pipeline.load_design", Core::Avr.design_source())?;
    gmt(ctx, &mut flow)?;
    let search = search(ctx, &mut flow)?;
    let fib = capture(ctx, &mut flow, Core::Avr.fib(), TRACE_CYCLES)?;
    let conv = capture(ctx, &mut flow, Core::Avr.conv(), TRACE_CYCLES)?;
    count_pipeline(ctx, &flow);
    Ok(AvrPrefix {
        flow,
        search,
        fib,
        conv,
    })
}

fn gmt(ctx: &mut Ctx, flow: &mut Flow) -> Result<(), MateError> {
    let (gmt, computed) = stage(ctx, flow, "mate.gmt", Flow::gmt_library)?;
    if computed {
        ctx.add("mate.gmt.entries", gmt.value.total_entries as f64);
    }
    Ok(())
}

/// The all-FF search with the table configuration.  Its counters are
/// taken only when the search ran now: the timings a cached artifact
/// carries are those of the run that wrote it.
fn search(ctx: &mut Ctx, flow: &mut Flow) -> Result<Staged<SearchOutput>, MateError> {
    let (search, computed) = stage(ctx, flow, "mate.search", |f| {
        f.search(WireSetSpec::AllFfs, table_search_config())
    })?;
    if computed {
        let s = &search.value.stats;
        ctx.add("mate.search.candidates", s.candidates as f64);
        ctx.add("mate.search.mates", search.value.mates.len() as f64);
        ctx.add("mate.search.max_wire_ms", ms(s.max_wire_time));
        ctx.add("mate.search.wire_ms", ms(s.total_wire_time));
    }
    Ok(search)
}

fn capture(
    ctx: &mut Ctx,
    flow: &mut Flow,
    source: TraceSource,
    cycles: usize,
) -> Result<Staged<WaveTrace>, MateError> {
    let (trace, computed) = stage(ctx, flow, "sim.capture", |f| f.capture(source, cycles))?;
    if computed {
        ctx.add("sim.capture.cycles", cycles as f64);
    }
    Ok(trace)
}

/// `avr_warm_validate`: reopen the filled store, recompute Table 2 from
/// the cached search and traces, certify the Top-10 selection on `fib()`,
/// validate it by injection, and run the register-file campaign on the
/// checkpoint path.
fn avr_warm_validate(ctx: &mut Ctx) -> Result<(), MateError> {
    let AvrPrefix {
        flow,
        search,
        fib,
        conv,
    } = avr_prefix(ctx)?;
    let s = flow.summary();
    ctx.check(
        "warm run serves every stage from the store",
        s.hits() == 5 && s.misses() == 0,
        format_args!("{} hits, {} misses", s.hits(), s.misses()),
    );
    let design = flow.design();
    let (netlist, topo) = (&design.netlist, &design.topology);
    let sets = WireSets::of(netlist, topo);
    let table = table2(ctx, &search.value.mates, &fib.value, &conv.value, &sets);
    ctx.check(
        "Table 2 equals expected/table2.txt",
        table.text == EXPECTED_TABLE2,
        format_args!("got\n{}", table.text),
    );
    ctx.masked.push(table.top10_masked);

    certify(ctx, netlist, topo, &table.top10);

    let TraceSource::Avr { program, dmem } = Core::Avr.fib() else {
        unreachable!("Core::Avr.fib() is an AVR program")
    };
    let harness = AvrWorkload::new(program, dmem);
    let seed = ctx.seed;
    let validation = ctx.timed("hafi.validate", || {
        validate_mates(
            &harness,
            &table.top10,
            &sets.all,
            WARM_VALIDATE_CYCLES,
            Some(WARM_VALIDATE_SAMPLE),
            seed,
        )
    })?;
    count_validation(ctx, &validation.1);

    let rf_wires = ff_wires_filtered(netlist, topo, is_register_file);
    let space = FaultSpace::for_wires(netlist, topo, &rf_wires, RF_CAMPAIGN_CYCLES);
    let config = CampaignConfig {
        cycles: RF_CAMPAIGN_CYCLES,
        sample: Some(RF_CAMPAIGN_SAMPLE),
        seed: RF_CAMPAIGN_SEED,
        ..CampaignConfig::default()
    };
    let result = ctx.timed("hafi.campaign", || {
        run_campaign_wide(&harness, &space, &config)
    })?;
    check_campaign(ctx, "avr_rf_campaign", netlist, &result);
    label_campaign(ctx, &harness, &config, &result);
    Ok(())
}

/// SAT certification of `selected`: lint, per-(MATE, wire) soundness
/// proofs, per-wire completeness proofs.  Every verdict must be `Proved`.
fn certify(ctx: &mut Ctx, netlist: &Netlist, topo: &Topology, selected: &MateSet) {
    let config = VerifyConfig::default();
    let diags = ctx.timed("analyze.lint", || run_lints(netlist));
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    ctx.check(
        "design lints clean",
        errors == 0,
        format_args!("{errors} errors"),
    );

    let verdicts = ctx.timed("analyze.verify", || {
        verify_mates(netlist, topo, selected, &config)
    });
    let proved = verdicts
        .iter()
        .filter(|v| matches!(v.verdict, Verdict::Proved { .. }))
        .count();
    let conflicts: u64 = verdicts
        .iter()
        .filter_map(|v| v.stats)
        .map(|s| s.conflicts)
        .sum();
    ctx.add("analyze.verify.checks", verdicts.len() as f64);
    ctx.add("analyze.verify.proved", proved as f64);
    ctx.add("analyze.verify.conflicts", conflicts as f64);
    ctx.check(
        "every certify verdict is Proved",
        proved == verdicts.len() && !verdicts.is_empty(),
        format_args!("{proved} of {} proved", verdicts.len()),
    );

    let coverage = ctx.timed("analyze.coverage", || {
        prove_wire_coverage(netlist, topo, selected, &config)
    });
    let conflicts: u64 = coverage
        .iter()
        .map(|c| match &c.proof {
            CoverageProof::Complete { stats }
            | CoverageProof::Gap { stats, .. }
            | CoverageProof::Undecided { stats } => stats.conflicts,
        })
        .sum();
    ctx.add("analyze.coverage.wires", coverage.len() as f64);
    ctx.add("analyze.coverage.conflicts", conflicts as f64);
}

fn count_validation(ctx: &mut Ctx, v: &mate_hafi::ValidationReport) {
    ctx.add("hafi.validate.checked", v.checked as f64);
    ctx.add("hafi.validate.violations", v.violations.len() as f64);
    add_collapse(ctx, &v.pruning);
    ctx.check(
        "validating injection confirms every sampled claim",
        v.sound() && v.checked > 0,
        format_args!(
            "{} checked, {} confirmed, {} violations",
            v.checked,
            v.confirmed,
            v.violations.len()
        ),
    );
}

fn add_collapse(ctx: &mut Ctx, p: &mate_hafi::PruningStats) {
    ctx.add("hafi.collapse.points", p.points as f64);
    ctx.add("hafi.collapse.skipped", p.skipped as f64);
    ctx.add("hafi.collapse.probes", p.probes as f64);
    ctx.add("hafi.collapse.fallback", p.fallback as f64);
}

/// Counts a campaign and checks its records against the digest kept in
/// `expected/digests.txt`.
fn check_campaign(ctx: &mut Ctx, name: &str, netlist: &Netlist, result: &CampaignResult) {
    ctx.add("hafi.campaign.points", result.records.len() as f64);
    add_collapse(ctx, &result.pruning);
    let digest = ctx.timed("bench.check", || records_digest(netlist, result));
    let expected = EXPECTED_DIGESTS.lines().find_map(|l| {
        let (key, value) = l.split_once(' ')?;
        (key == name).then(|| value.trim())
    });
    ctx.check(
        &format!("{name} records match expected/digests.txt"),
        expected == Some(digest.as_str()),
        format_args!("got `{name} {digest}`, expected {expected:?}"),
    );
}

/// FNV-1a (64-bit) over one `wire cycle effect` line per record, in
/// record order — the line format of the pipeline's campaign artifact.
fn records_digest(netlist: &Netlist, result: &CampaignResult) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut digits = [0u8; 20];
    for (point, effect) in &result.records {
        eat(netlist.net(point.wire).name().as_bytes());
        eat(b" ");
        eat(decimal(point.cycle, &mut digits));
        match effect {
            FaultEffect::MaskedWithinOneCycle => eat(b" masked"),
            FaultEffect::Latent => eat(b" latent"),
            FaultEffect::SilentRecovery { after } => {
                eat(b" recovery:");
                eat(decimal(*after, &mut digits));
            }
            FaultEffect::OutputFailure { after } => {
                eat(b" failure:");
                eat(decimal(*after, &mut digits));
            }
        }
        eat(b"\n");
    }
    format!("{:016x}:{}", h, result.records.len())
}

/// The decimal digits of `n`, written into the tail of `buf`.
fn decimal(mut n: usize, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[i..];
        }
    }
}

/// Records which campaign path, engine, lane width, and collapsing
/// decision the run actually took.
fn label_campaign(
    ctx: &mut Ctx,
    harness: &dyn DesignHarness,
    config: &CampaignConfig,
    result: &CampaignResult,
) {
    let tb = harness.testbench();
    let path = if tb.can_run_wide() {
        "wide"
    } else if tb.can_checkpoint() {
        "checkpoint"
    } else {
        "scalar"
    };
    let wide = path == "wide";
    ctx.label("campaign_path", path);
    ctx.label(
        "engine",
        if wide {
            config.engine.resolve(harness.topology()).to_string()
        } else {
            format!("unused ({path} path)")
        },
    );
    ctx.label(
        "lanes",
        if wide {
            config.lanes.to_string()
        } else {
            format!("unused ({path} path)")
        },
    );
    ctx.label(
        "collapsing",
        if result.pruning.classes > 0 {
            "engaged"
        } else {
            "inert"
        },
    );
}

/// `uart_tx_campaign`: ingest, search, a long trace, evaluate/rank, a
/// sampled validation and an exhaustive single-bit campaign, from an empty
/// store.
fn uart_tx_campaign(ctx: &mut Ctx) -> Result<(), MateError> {
    // On an empty store `Flow::new` is the ingest: read `uart_tx.json`,
    // parse it, run the lint gate (`ingest_gate`), validate, and write the
    // design artifact.
    let mut flow = open_flow(ctx, "netlist.ingest", uart_tx_source())?;
    gmt(ctx, &mut flow)?;
    let search = search(ctx, &mut flow)?;
    let waves = uart_tx_waves(UART_CYCLES);
    let trace = capture(
        ctx,
        &mut flow,
        TraceSource::Stimuli {
            waves: waves.clone(),
        },
        UART_CYCLES,
    )?;
    count_pipeline(ctx, &flow);
    let s = flow.summary();
    ctx.check(
        "cold run computes every stage",
        s.hits() == 0 && s.misses() == 4,
        format_args!("{} hits, {} misses", s.hits(), s.misses()),
    );

    let design = flow.design();
    let (netlist, topo) = (&design.netlist, &design.topology);
    let wires = ff_wires(netlist, topo);
    let mates = &search.value.mates;
    std::hint::black_box(eval(ctx, mates, &trace.value, &wires));
    let selected = select(ctx, mates, &trace.value, &wires, UART_TOP_N);
    let report = eval(ctx, &selected, &trace.value, &wires);
    ctx.masked.push(100.0 * report.masked_fraction());

    let mut harness = StimulusHarness::new(netlist.clone(), topo.clone());
    for (name, values) in waves {
        let net = netlist
            .find_net(&name)
            .ok_or(MateError::UnknownNet { line: 0, name })?;
        harness = harness.drive(net, values);
    }
    let seed = ctx.seed;
    let validation = ctx.timed("hafi.validate", || {
        validate_mates(
            &harness,
            &selected,
            &wires,
            UART_CYCLES,
            Some(UART_VALIDATE_SAMPLE),
            seed,
        )
    })?;
    count_validation(ctx, &validation.1);

    let space = FaultSpace::all_ffs(netlist, topo, UART_CYCLES);
    let config = CampaignConfig {
        cycles: UART_CYCLES,
        ..CampaignConfig::default()
    };
    let result = ctx.timed("hafi.campaign", || {
        run_campaign_wide(&harness, &space, &config)
    })?;
    check_campaign(ctx, "uart_tx_campaign", netlist, &result);
    label_campaign(ctx, &harness, &config, &result);
    Ok(())
}

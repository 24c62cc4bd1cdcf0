//! Injection campaigns and outcome classification.
//!
//! Wide-capable workloads are served by two batched, bit-identical engines
//! selected through [`CampaignEngine`]: the full-settle [`BlockSimulator`]
//! reference and the default event-driven [`DeltaSimulator`], whose work
//! per cycle scales with fault-cone activity instead of netlist size.

use std::collections::BTreeMap;
use std::fmt;

use mate_netlist::{LaneBlock, MateError, NetId, Netlist, Topology, B256, B512};
use mate_sim::{BlockSimulator, DeltaSimulator, TransposedTrace, WaveTrace};

use crate::harness::DesignHarness;
use crate::space::{FaultPoint, FaultSpace};

/// The observable effect of one injected fault, judged against the golden
/// run over the campaign horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultEffect {
    /// Outputs stayed golden during the injection cycle and the full state
    /// matched the golden state in the next cycle — the fault class MATEs
    /// prune.
    MaskedWithinOneCycle,
    /// Outputs never diverged and the state re-converged later (at the
    /// recorded cycle offset); benign, but beyond the single-cycle horizon.
    SilentRecovery {
        /// Cycles after injection until the state matched the golden run.
        after: usize,
    },
    /// Outputs never diverged within the horizon but the state never
    /// re-converged: the fault is still latent.
    Latent,
    /// A primary output diverged from the golden run.
    OutputFailure {
        /// Cycles after injection until the first wrong output.
        after: usize,
    },
}

impl FaultEffect {
    /// `true` for the two classes that produced no wrong output.
    pub fn is_silent(self) -> bool {
        !matches!(self, FaultEffect::OutputFailure { .. })
    }

    /// `true` iff the fault was masked within one clock cycle — the
    /// sufficient benign-ness criterion of the paper's Section 2.
    pub fn is_masked_one_cycle(self) -> bool {
        matches!(self, FaultEffect::MaskedWithinOneCycle)
    }
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MaskedWithinOneCycle => write!(f, "masked within one cycle"),
            Self::SilentRecovery { after } => write!(f, "silent recovery after {after} cycles"),
            Self::Latent => write!(f, "latent state corruption"),
            Self::OutputFailure { after } => write!(f, "output failure after {after} cycles"),
        }
    }
}

/// Records the golden (fault-free) execution.
#[derive(Clone, Debug)]
pub struct GoldenRun {
    /// The fault-free trace.
    pub trace: WaveTrace,
    /// Flip-flop output nets (the architectural state vector).
    pub state_nets: Vec<NetId>,
    /// Primary output nets.
    pub output_nets: Vec<NetId>,
}

/// Runs the workload fault-free for `cycles` cycles.
pub fn golden_run(harness: &dyn DesignHarness, cycles: usize) -> GoldenRun {
    let trace = harness.testbench().run(cycles);
    GoldenRun {
        trace,
        state_nets: state_nets(harness.netlist(), harness.topology()),
        output_nets: harness.netlist().outputs().to_vec(),
    }
}

fn state_nets(netlist: &Netlist, topo: &Topology) -> Vec<NetId> {
    topo.seq_cells()
        .iter()
        .map(|&ff| netlist.cell(ff).output())
        .collect()
}

/// Injects a single SEU at `point` and classifies its effect against
/// `golden` over the remaining horizon.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if `point.cycle` lies beyond the golden
/// trace.
pub fn inject(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    point: FaultPoint,
) -> Result<FaultEffect, MateError> {
    inject_multi(harness, golden, std::slice::from_ref(&point))
}

/// Runs the remaining horizon and classifies the divergence from golden.
fn classify(
    tb: &mut mate_sim::Testbench<'_>,
    golden: &GoldenRun,
    injected_at: usize,
) -> FaultEffect {
    let horizon = golden.trace.num_cycles();
    let mut state_equal_at: Option<usize> = None;
    let mut diverged_again = false;
    for cycle in injected_at..horizon {
        let mut outputs_ok = true;
        let mut state_ok = true;
        tb.step_observed(|sim| {
            for &net in &golden.output_nets {
                if sim.value(net) != golden.trace.value(cycle, net) {
                    outputs_ok = false;
                    break;
                }
            }
            for &net in &golden.state_nets {
                if sim.value(net) != golden.trace.value(cycle, net) {
                    state_ok = false;
                    break;
                }
            }
        });
        if !outputs_ok {
            return FaultEffect::OutputFailure {
                after: cycle - injected_at,
            };
        }
        if cycle > injected_at {
            if state_ok {
                if state_equal_at.is_none() {
                    state_equal_at = Some(cycle - injected_at);
                }
            } else if state_equal_at.is_some() {
                // Re-diverged after apparent convergence (possible only via
                // diverged external device state, e.g. corrupted memory).
                diverged_again = true;
                state_equal_at = None;
            }
        }
    }
    match state_equal_at {
        Some(1) if !diverged_again => FaultEffect::MaskedWithinOneCycle,
        Some(after) => FaultEffect::SilentRecovery { after },
        None => FaultEffect::Latent,
    }
}

/// Lane width of the batched campaign engine: how many fault scenarios one
/// [`BlockSimulator`] pass carries.
///
/// Every width produces bit-identical [`FaultEffect`] classifications; the
/// choice only trades register pressure against scenarios per pass.  The
/// default is [`LaneWidth::W256`] (four words per net, the AVX2-register
/// shape).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LaneWidth {
    /// 64 scenarios per pass (one `u64` per net) — the baseline engine.
    W64,
    /// 256 scenarios per pass (a [`B256`] block per net).
    #[default]
    W256,
    /// 512 scenarios per pass (a [`B512`] block per net).
    W512,
}

impl LaneWidth {
    /// Number of fault scenarios per simulation pass.
    pub fn lanes(self) -> usize {
        match self {
            Self::W64 => 64,
            Self::W256 => 256,
            Self::W512 => 512,
        }
    }

    /// All supported widths, narrowest first (for equivalence sweeps).
    pub fn all() -> [Self; 3] {
        [Self::W64, Self::W256, Self::W512]
    }
}

impl fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lanes())
    }
}

/// Which batched engine classifies wide-capable workloads.
///
/// All choices produce bit-identical [`FaultEffect`] classifications for
/// every lane width and thread count (enforced by the campaign proptests);
/// the choice only trades work per cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CampaignEngine {
    /// The full-settle [`BlockSimulator`] engine: every combinational cell
    /// re-evaluated every cycle, convergence detected by XOR-scanning the
    /// observed nets.  Kept as the asserted-identical reference.
    FullSettle,
    /// The event-driven [`DeltaSimulator`] engine: lanes carry XOR-deltas
    /// against the golden trace, only the dirty fan-out frontier is
    /// re-evaluated, and convergence falls out of the frontier emptying.
    /// Work scales with fault-cone activity, not netlist size.
    Differential,
    /// Picks per design (the default): [`CampaignEngine::FullSettle`] for
    /// small combinational clouds, where the full sweep is a handful of
    /// dense runs and the differential engine's frontier bookkeeping costs
    /// more than it saves (the honest `figure1b` regression in
    /// `BENCH_campaign.json`), [`CampaignEngine::Differential`] everywhere
    /// else.  Trivially bit-identical: it only ever *selects* one of the
    /// two engines, never mixes them within a run.
    #[default]
    Auto,
}

/// [`CampaignEngine::Auto`] threshold: designs with fewer combinational
/// cells than this settle faster in full — below it the whole cloud fits a
/// few cache lines and dense sweeps beat frontier bookkeeping.
const AUTO_FULL_SETTLE_MAX_CELLS: usize = 128;

impl CampaignEngine {
    /// The two concrete engines, reference first (for equivalence sweeps).
    /// `Auto` is not listed: it always resolves to one of these.
    pub fn all() -> [Self; 2] {
        [Self::FullSettle, Self::Differential]
    }

    /// Resolves `Auto` against a design (concrete engines pass through):
    /// full-settle below [`AUTO_FULL_SETTLE_MAX_CELLS`] combinational
    /// cells, differential at or above.  Deterministic in the design alone,
    /// so every thread shard of one campaign resolves identically.
    pub fn resolve(self, topo: &Topology) -> Self {
        match self {
            Self::Auto if topo.comb_order().len() < AUTO_FULL_SETTLE_MAX_CELLS => Self::FullSettle,
            Self::Auto => Self::Differential,
            concrete => concrete,
        }
    }
}

impl fmt::Display for CampaignEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FullSettle => write!(f, "full-settle"),
            Self::Differential => write!(f, "differential"),
            Self::Auto => write!(f, "auto"),
        }
    }
}

/// Classifies a batch of fault points against `golden`, choosing the
/// fastest sound path the harness supports:
///
/// 1. **Wide** — pure stimuli and only transparent devices
///    ([`mate_sim::Testbench::can_run_wide`]; the AVR and MSP430 memories
///    qualify): up to [`CampaignConfig::lanes`] fault points per injection
///    cycle are packed into the lanes of the batched engine picked by
///    [`CampaignConfig::engine`], seeded directly from the golden trace at
///    the injection cycle, then classified in lock-step with per-lane early
///    retirement.
/// 2. **Checkpointed scalar** — the fallback for snapshotable devices that
///    fail the transparency check (e.g. one reading an internal net), with
///    pure stimuli: one incremental golden run captures a checkpoint at
///    every injection cycle; each faulty run is seeded by restore instead
///    of replaying the warm-up prefix.
/// 3. **Scalar fallback** — anything else: one [`inject`] per point.
///
/// The points are split into [`CampaignConfig::threads`] contiguous shards,
/// one worker thread each (threads × lanes concurrent fault scenarios).
/// Every path, engine, lane width and thread count produces bit-identical
/// [`FaultEffect`] classifications, returned in the order of `points`.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any injection cycle lies beyond the
/// golden trace.
pub fn classify_points(
    harness: &(dyn DesignHarness + Sync),
    golden: &GoldenRun,
    points: &[FaultPoint],
    config: &CampaignConfig,
) -> Result<Vec<FaultEffect>, MateError> {
    classify_batch(harness, golden, points, config)
}

/// Classifies a batch of simultaneous multi-bit SEU *sets* — one set per
/// lane — against `golden`: the batched counterpart of [`inject_multi`],
/// on exactly the paths, engines and shards of [`classify_points`].
/// Results are returned in the order of `sets` and are bit-identical to
/// one [`inject_multi`] per set.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any set is empty, mixes cycles, or
/// lies beyond the golden trace.
pub fn classify_multi_points(
    harness: &(dyn DesignHarness + Sync),
    golden: &GoldenRun,
    sets: &[Vec<FaultPoint>],
    config: &CampaignConfig,
) -> Result<Vec<FaultEffect>, MateError> {
    classify_batch(harness, golden, sets, config)
}

/// One fault scenario of a batch: a single SEU or a simultaneous set.
trait Scenario: Sync {
    /// The upset flip-flops, all in one cycle.
    fn flips(&self) -> &[FaultPoint];

    /// The injection cycle (of a set already checked by [`check_flips`]).
    fn cycle(&self) -> usize {
        self.flips()[0].cycle
    }
}

impl Scenario for FaultPoint {
    fn flips(&self) -> &[FaultPoint] {
        std::slice::from_ref(self)
    }
}

impl Scenario for Vec<FaultPoint> {
    fn flips(&self) -> &[FaultPoint] {
        self
    }
}

/// Rejects an empty flip set, one that mixes cycles, or one beyond the
/// golden trace.
fn check_flips(flips: &[FaultPoint], golden: &GoldenRun) -> Result<(), MateError> {
    let Some(first) = flips.first() else {
        return Err(MateError::campaign("need at least one fault point"));
    };
    if flips.iter().any(|p| p.cycle != first.cycle) {
        return Err(MateError::campaign(
            "multi-bit upsets are simultaneous: all points must share one cycle",
        ));
    }
    let horizon = golden.trace.num_cycles();
    if first.cycle >= horizon {
        return Err(MateError::campaign(format!(
            "injection cycle {} beyond golden trace of {horizon} cycles",
            first.cycle
        )));
    }
    Ok(())
}

/// The campaign path a harness supports, fastest first.
#[derive(Clone, Copy)]
enum CampaignPath {
    Wide,
    Checkpoint,
    Scalar,
}

/// The body of [`classify_points`] and [`classify_multi_points`]: checks
/// every scenario, picks the path and engine once, and classifies
/// contiguous shards on scoped worker threads.  Each shard writes its own
/// slot, so the effects come back in scenario order for every thread
/// count — including one, which spawns no thread at all.
fn classify_batch<S: Scenario>(
    harness: &(dyn DesignHarness + Sync),
    golden: &GoldenRun,
    items: &[S],
    config: &CampaignConfig,
) -> Result<Vec<FaultEffect>, MateError> {
    for item in items {
        check_flips(item.flips(), golden)?;
    }
    let probe = harness.testbench();
    let path = if probe.can_run_wide() {
        CampaignPath::Wide
    } else if probe.can_checkpoint() {
        CampaignPath::Checkpoint
    } else {
        CampaignPath::Scalar
    };
    drop(probe);
    let engine = config.engine.resolve(harness.topology());
    let lanes = config.lanes;
    let run_shard = |shard: &[S]| match (path, engine, lanes) {
        (CampaignPath::Wide, CampaignEngine::FullSettle, LaneWidth::W64) => {
            classify_block::<u64, S>(harness, golden, shard)
        }
        (CampaignPath::Wide, CampaignEngine::FullSettle, LaneWidth::W256) => {
            classify_block::<B256, S>(harness, golden, shard)
        }
        (CampaignPath::Wide, CampaignEngine::FullSettle, LaneWidth::W512) => {
            classify_block::<B512, S>(harness, golden, shard)
        }
        (CampaignPath::Wide, _, LaneWidth::W64) => {
            classify_differential::<u64, S>(harness, golden, shard)
        }
        (CampaignPath::Wide, _, LaneWidth::W256) => {
            classify_differential::<B256, S>(harness, golden, shard)
        }
        (CampaignPath::Wide, _, LaneWidth::W512) => {
            classify_differential::<B512, S>(harness, golden, shard)
        }
        (CampaignPath::Checkpoint, ..) => classify_checkpoint(harness, golden, shard),
        (CampaignPath::Scalar, ..) => shard
            .iter()
            .map(|item| inject_flips(harness, golden, item.flips()))
            .collect(),
    };

    let threads = effective_threads(config.threads, items.len());
    if threads <= 1 {
        return Ok(run_shard(items));
    }
    let chunk = items.len().div_ceil(threads);
    let mut shards = vec![Vec::new(); items.len().div_ceil(chunk)];
    let run_shard = &run_shard;
    std::thread::scope(|scope| {
        for (part, out) in items.chunks(chunk).zip(&mut shards) {
            scope.spawn(move || *out = run_shard(part));
        }
    });
    Ok(shards.concat())
}

/// Groups scenario indices by injection cycle, in cycle order.
fn by_cycle<S: Scenario>(items: &[S]) -> BTreeMap<usize, Vec<usize>> {
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, item) in items.iter().enumerate() {
        groups.entry(item.cycle()).or_default().push(idx);
    }
    groups
}

/// Per-net observation flags for the differential classification scan.
/// The bit positions match the accumulator indices of
/// [`DeltaSimulator::scan_flagged`].
const OBS_OUTPUT: u8 = 1;
const OBS_STATE: u8 = 2;

fn observed_flags(num_nets: usize, golden: &GoldenRun) -> Vec<u8> {
    let mut flags = vec![0u8; num_nets];
    for &net in &golden.output_nets {
        flags[net.index()] |= OBS_OUTPUT;
    }
    for &net in &golden.state_nets {
        flags[net.index()] |= OBS_STATE;
    }
    flags
}

/// The full-settle engine: groups scenarios by injection cycle, packs up to
/// `B::WIDTH` of them into one lane-parallel run seeded from the golden
/// trace, and compares every lane against golden with block XORs.
///
/// Every primary input is driven from the golden trace each cycle.  That is
/// exact because the wide path requires a harness whose devices are
/// transparent ([`mate_sim::Testbench::can_run_wide`]): in every lane not
/// yet classified, stimuli and device responses equal the golden run's.
/// For the same reason early retirement is sound: once a lane's full
/// flip-flop state re-converges to the golden state, *every* net of that
/// lane equals golden in all later cycles, so its classification is already
/// decided — `OutputFailure` can no longer occur and the recorded
/// convergence offset is final, exactly as the scalar classifier would
/// conclude after running out the horizon.
fn classify_block<B: LaneBlock, S: Scenario>(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    items: &[S],
) -> Vec<FaultEffect> {
    let horizon = golden.trace.num_cycles();
    let inputs = harness.netlist().inputs();
    let mut wide: BlockSimulator<'_, B> =
        BlockSimulator::new(harness.netlist(), harness.topology());
    let mut effects = vec![FaultEffect::Latent; items.len()];
    for (&cycle, indices) in &by_cycle(items) {
        for chunk in indices.chunks(B::WIDTH) {
            wide.load_from_trace(&golden.trace, cycle);
            for (lane, &idx) in chunk.iter().enumerate() {
                for point in items[idx].flips() {
                    wide.flip_ff(point.ff, lane);
                }
            }
            let mut active = B::low_lanes(chunk.len());
            for t in cycle..horizon {
                for &net in inputs {
                    wide.set_input(net, golden.trace.value(t, net));
                }
                wide.settle();
                // Outputs first, mirroring the scalar classifier's priority.
                let failed = diverged(&mut wide, &golden.trace, t, &golden.output_nets) & active;
                if !failed.is_zero() {
                    failed.for_each_lane(|lane| {
                        effects[chunk[lane]] = FaultEffect::OutputFailure { after: t - cycle };
                    });
                    active &= !failed;
                }
                if t > cycle && !active.is_zero() {
                    let state_diff = diverged(&mut wide, &golden.trace, t, &golden.state_nets);
                    let converged = active & !state_diff;
                    if !converged.is_zero() {
                        let effect = recovered(t - cycle);
                        converged.for_each_lane(|lane| effects[chunk[lane]] = effect);
                        active &= !converged;
                    }
                }
                if active.is_zero() {
                    break;
                }
                wide.tick();
            }
            // Lanes still active at the horizon never re-converged: Latent,
            // which `effects` was initialized with.
        }
    }
    effects
}

/// The lanes whose value on any of `nets` differs from golden cycle `t`.
/// The golden bit picks the comparison (`!v` on a golden one, `v` on a
/// golden zero), so no per-net [`LaneBlock::splat`] is needed: splatting
/// every observed net per cycle made the 256/512-lane blocks slower than
/// 64.  The trace row of `t` is read in place, so nothing is precomputed
/// per cycle of the horizon.
fn diverged<B: LaneBlock>(
    wide: &mut BlockSimulator<'_, B>,
    trace: &WaveTrace,
    t: usize,
    nets: &[NetId],
) -> B {
    let row = trace.cycle_words(t);
    let mut diff = B::ZERO;
    for &net in nets {
        let v = wide.value_block(net);
        let i = net.index();
        diff |= if row[i / 64] >> (i % 64) & 1 != 0 {
            !v
        } else {
            v
        };
    }
    diff
}

/// The effect of a lane whose state re-converged `after` cycles past the
/// injection with no wrong output on the way.
fn recovered(after: usize) -> FaultEffect {
    if after == 1 {
        FaultEffect::MaskedWithinOneCycle
    } else {
        FaultEffect::SilentRecovery { after }
    }
}

/// The event-driven engine: like [`classify_block`] in grouping and
/// retirement, but each chunk runs on a [`DeltaSimulator`] — in every live
/// lane the stimuli and the transparent devices' responses equal the golden
/// ones, so input deltas are identically zero and only the dirty fan-out
/// frontier of each fault cone is ever re-evaluated.  The classification
/// scan walks the simulator's nonzero-delta set rather than all observed
/// nets: any net absent from it matches golden in every lane.
///
/// Early retirement is sound for the same reason as in the full-settle
/// engine; convergence here is simply the lane's bits vanishing from every
/// delta, which the frontier detects without a state scan.
fn classify_differential<B: LaneBlock, S: Scenario>(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    items: &[S],
) -> Vec<FaultEffect> {
    let horizon = golden.trace.num_cycles();
    let transposed = TransposedTrace::from_trace(&golden.trace);
    let flags = observed_flags(harness.netlist().num_nets(), golden);
    let mut delta: DeltaSimulator<'_, B> =
        DeltaSimulator::new(harness.netlist(), harness.topology());

    let mut effects = vec![FaultEffect::Latent; items.len()];
    for (&cycle, indices) in &by_cycle(items) {
        for chunk in indices.chunks(B::WIDTH) {
            delta.begin(cycle);
            for (lane, &idx) in chunk.iter().enumerate() {
                for point in items[idx].flips() {
                    delta.flip_ff(point.ff, lane);
                }
            }
            let mut active = B::low_lanes(chunk.len());
            for t in cycle..horizon {
                delta.settle(&transposed);
                let before = active;
                // One scan of the (small) nonzero-delta set yields both
                // divergence masks; every other net equals golden in all
                // lanes.
                let [out_diff, state_diff] = delta.scan_flagged(&flags);
                // Outputs first, mirroring the scalar classifier's priority.
                let failed = out_diff & active;
                if !failed.is_zero() {
                    failed.for_each_lane(|lane| {
                        effects[chunk[lane]] = FaultEffect::OutputFailure { after: t - cycle };
                    });
                    active &= !failed;
                }
                if t > cycle && !active.is_zero() {
                    let converged = active & !state_diff;
                    if !converged.is_zero() {
                        let effect = recovered(t - cycle);
                        converged.for_each_lane(|lane| effects[chunk[lane]] = effect);
                        active &= !converged;
                    }
                }
                if active.is_zero() {
                    break;
                }
                if active != before {
                    // Retired lanes' deltas are dead weight (every
                    // classification read is `& active`-masked): dropping
                    // them shrinks the dirty frontier to the cones of the
                    // undecided lanes, instead of dragging the classified
                    // faults' cones to the horizon.
                    delta.retain_lanes(active);
                }
                delta.tick();
            }
            // Lanes still active at the horizon are Latent, as initialized.
        }
    }
    effects
}

/// The checkpointed scalar path: one incremental golden run captures a
/// [`mate_sim::TestbenchCheckpoint`] at every distinct injection cycle,
/// then each scenario restores its checkpoint into a reusable work
/// testbench instead of replaying cycles `0..c`.
fn classify_checkpoint<S: Scenario>(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    items: &[S],
) -> Vec<FaultEffect> {
    let needed: std::collections::BTreeSet<usize> = items.iter().map(Scenario::cycle).collect();
    let mut checkpoints = BTreeMap::new();
    if let Some(&last) = needed.iter().next_back() {
        let mut gtb = harness.testbench();
        for c in 0..=last {
            if needed.contains(&c) {
                // State at the *start* of cycle `c`: captured before the
                // testbench steps through it.
                checkpoints.insert(c, gtb.checkpoint());
            }
            if c < last {
                gtb.step();
            }
        }
    }
    let mut work = harness.testbench();
    items
        .iter()
        .map(|item| {
            work.restore(&checkpoints[&item.cycle()]);
            for point in item.flips() {
                work.sim_mut().flip_ff(point.ff);
            }
            classify(&mut work, golden, item.cycle())
        })
        .collect()
}

/// Injects a *simultaneous* multi-bit SEU (all points in the same cycle)
/// and classifies it against `golden` — the fault model of the paper's
/// Section 6.2.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if the points lie in different cycles,
/// no point is given, or the cycle lies beyond the golden trace.
pub fn inject_multi(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Result<FaultEffect, MateError> {
    check_flips(points, golden)?;
    Ok(inject_flips(harness, golden, points))
}

/// The scalar reference behind [`inject`] and [`inject_multi`], for a flip
/// set already checked by [`check_flips`]: replays the golden run to the
/// injection cycle, flips every point, and classifies the rest.
fn inject_flips(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    flips: &[FaultPoint],
) -> FaultEffect {
    let cycle = flips[0].cycle;
    let mut tb = harness.testbench();
    for _ in 0..cycle {
        tb.step();
    }
    for point in flips {
        tb.sim_mut().flip_ff(point.ff);
    }
    classify(&mut tb, golden, cycle)
}

/// Injects an upset that *holds* for `hold_cycles` cycles: the flip-flop is
/// forced to the complement of its golden value at the start of every
/// affected cycle (an SEU "that holds more than one cycle", Section 6.2).
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if `hold_cycles` is zero or the affected
/// window leaves the golden trace.
pub fn inject_persistent(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    point: FaultPoint,
    hold_cycles: usize,
) -> Result<FaultEffect, MateError> {
    if hold_cycles == 0 {
        return Err(MateError::campaign(
            "upset must hold for at least one cycle",
        ));
    }
    let horizon = golden.trace.num_cycles();
    if point.cycle + hold_cycles > horizon {
        return Err(MateError::campaign(format!(
            "persistent upset (cycle {} + hold {hold_cycles}) leaves the golden trace of {horizon} cycles",
            point.cycle
        )));
    }
    let mut tb = harness.testbench();
    for _ in 0..point.cycle {
        tb.step();
    }
    let mut state_equal_at: Option<usize> = None;
    let mut diverged_again = false;
    for cycle in point.cycle..horizon {
        if cycle < point.cycle + hold_cycles {
            // Force the complement of the golden value for this cycle.
            let sim = tb.sim_mut();
            let want = !golden.trace.value(cycle, point.wire);
            if sim.value(point.wire) != want {
                sim.flip_ff(point.ff);
            }
        }
        let mut outputs_ok = true;
        let mut state_ok = true;
        tb.step_observed(|sim| {
            for &net in &golden.output_nets {
                if sim.value(net) != golden.trace.value(cycle, net) {
                    outputs_ok = false;
                    break;
                }
            }
            for &net in &golden.state_nets {
                if sim.value(net) != golden.trace.value(cycle, net) {
                    state_ok = false;
                    break;
                }
            }
        });
        if !outputs_ok {
            return Ok(FaultEffect::OutputFailure {
                after: cycle - point.cycle,
            });
        }
        if cycle > point.cycle {
            if state_ok {
                if state_equal_at.is_none() {
                    state_equal_at = Some(cycle - point.cycle);
                }
            } else if state_equal_at.is_some() && cycle >= point.cycle + hold_cycles {
                diverged_again = true;
                state_equal_at = None;
            } else if cycle < point.cycle + hold_cycles {
                state_equal_at = None;
            }
        }
    }
    Ok(match state_equal_at {
        Some(1) if !diverged_again => FaultEffect::MaskedWithinOneCycle,
        Some(after) => FaultEffect::SilentRecovery { after },
        None => FaultEffect::Latent,
    })
}
/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Number of cycles to run (the golden trace length).
    pub cycles: usize,
    /// Inject only a sample of this many fault points (`None` = exhaustive).
    pub sample: Option<usize>,
    /// Seed for sampling.
    pub seed: u64,
    /// Worker threads for [`classify_points`] and [`classify_multi_points`];
    /// `0` uses all available cores (the `mate::SearchConfig`
    /// convention).  Results are bit-identical for every thread count.
    pub threads: usize,
    /// Lane width of the batched engine (scenarios per simulation pass).
    /// Results are bit-identical for every width.
    pub lanes: LaneWidth,
    /// Which batched engine classifies wide-capable workloads.  Results
    /// are bit-identical for every choice.
    pub engine: CampaignEngine,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            cycles: 64,
            sample: None,
            seed: 0,
            threads: 0,
            lanes: LaneWidth::default(),
            engine: CampaignEngine::default(),
        }
    }
}

/// Work accounting of a campaign: every point is simulated individually,
/// so `fallback == points` and the other counters are zero.  It stays only
/// because the end-to-end benchmark (`e2ebench/`) reads these fields, and
/// goes with that benchmark's next change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruningStats {
    /// Fault points (or multi-SEU sets) fed to the classifier.
    pub points: usize,
    /// Always 0.
    pub classes: usize,
    /// Always 0.
    pub probes: usize,
    /// Always 0.
    pub skipped: usize,
    /// Points individually simulated: all of them.
    pub fallback: usize,
}

impl PruningStats {
    /// Stats for a run that simulated each of `points` individually.
    pub fn unpruned(points: usize) -> Self {
        Self {
            points,
            fallback: points,
            ..Self::default()
        }
    }
}

/// The outcome of a whole campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// Every injected point with its classified effect.
    pub records: Vec<(FaultPoint, FaultEffect)>,
    /// Work accounting; not part of any artifact encoding.
    pub pruning: PruningStats,
}

impl CampaignResult {
    /// Number of experiments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no experiment ran.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Histogram of effects (stable order).
    pub fn histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for (_, effect) in &self.records {
            let key = match effect {
                FaultEffect::MaskedWithinOneCycle => "masked-1-cycle",
                FaultEffect::SilentRecovery { .. } => "silent-recovery",
                FaultEffect::Latent => "latent",
                FaultEffect::OutputFailure { .. } => "output-failure",
            };
            *h.entry(key.to_owned()).or_insert(0) += 1;
        }
        h
    }

    /// Fraction of experiments masked within one cycle — the campaign-side
    /// ground truth the MATE prune fraction must stay below.
    pub fn masked_one_cycle_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .filter(|(_, e)| e.is_masked_one_cycle())
            .count() as f64
            / self.records.len() as f64
    }
}

/// Runs a full (or sampled) injection campaign over `space`.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] when an injection is invalid (cannot
/// happen for points drawn from `space` with an in-range cycle filter, but
/// propagated for API uniformity).
pub fn run_campaign(
    harness: &dyn DesignHarness,
    space: &FaultSpace,
    config: &CampaignConfig,
) -> Result<CampaignResult, MateError> {
    // One extra golden cycle so an injection at the last campaign cycle
    // still has a `t+1` state to be judged against.
    let golden = golden_run(harness, config.cycles + 1);
    let points = campaign_points(space, config);
    let mut records = Vec::with_capacity(points.len());
    for point in points {
        records.push((point, inject(harness, &golden, point)?));
    }
    Ok(CampaignResult {
        pruning: PruningStats::unpruned(records.len()),
        records,
    })
}

/// The campaign's points: all of `space` or a seeded sample, restricted to
/// the first [`CampaignConfig::cycles`] cycles.
fn campaign_points(space: &FaultSpace, config: &CampaignConfig) -> Vec<FaultPoint> {
    let points: Vec<FaultPoint> = match config.sample {
        Some(count) => space.sample(count, config.seed),
        None => space.iter().collect(),
    };
    points
        .into_iter()
        .filter(|p| p.cycle < config.cycles)
        .collect()
}

/// Resolves a `threads` setting (`0` = all cores) against the work size.
fn effective_threads(threads: usize, points: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    t.min(points).max(1)
}

/// Runs a full (or sampled) injection campaign over `space` on the batched
/// paths of [`classify_points`]: records identical to [`run_campaign`],
/// sharded over [`CampaignConfig::threads`] worker threads at up to
/// [`CampaignConfig::lanes`] fault scenarios per simulation.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] when an injection is invalid.
pub fn run_campaign_wide(
    harness: &(dyn DesignHarness + Sync),
    space: &FaultSpace,
    config: &CampaignConfig,
) -> Result<CampaignResult, MateError> {
    let golden = golden_run(harness, config.cycles + 1);
    let points = campaign_points(space, config);
    let effects = classify_points(harness, &golden, &points, config)?;
    Ok(CampaignResult {
        pruning: PruningStats::unpruned(points.len()),
        records: points.into_iter().zip(effects).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StimulusHarness;
    use crate::space::FaultSpace;
    use mate_netlist::examples::{counter, tmr_register};

    #[test]
    fn counter_bit_flip_is_persistent_but_silent_only_if_unobserved() {
        // Counter bits are primary outputs: every flip is an immediate
        // output failure.
        let (n, topo) = counter(3);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
        let golden = golden_run(&harness, 10);
        let ff0 = harness.topology().seq_cells()[0];
        let wire = harness.netlist().cell(ff0).output();
        let effect = inject(
            &harness,
            &golden,
            FaultPoint {
                ff: ff0,
                wire,
                cycle: 3,
            },
        )
        .unwrap();
        assert_eq!(effect, FaultEffect::OutputFailure { after: 0 });
    }

    #[test]
    fn tmr_flip_is_masked_when_voting() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        // Load 1 in cycle 0, vote afterwards.
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false])
            .drive(din, vec![true]);
        let golden = golden_run(&harness, 8);
        let ff1 = harness.topology().seq_cells()[1];
        let wire = harness.netlist().cell(ff1).output();
        let effect = inject(
            &harness,
            &golden,
            FaultPoint {
                ff: ff1,
                wire,
                cycle: 3,
            },
        )
        .unwrap();
        assert_eq!(effect, FaultEffect::MaskedWithinOneCycle);
    }

    #[test]
    fn tmr_flip_during_load_is_also_masked() {
        // While load=1 every replica reloads from din, so a flipped replica
        // is overwritten; the vote output of 2-of-3 still reads golden.
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true])
            .drive(din, vec![true]);
        let golden = golden_run(&harness, 6);
        let ff2 = harness.topology().seq_cells()[2];
        let wire = harness.netlist().cell(ff2).output();
        let effect = inject(
            &harness,
            &golden,
            FaultPoint {
                ff: ff2,
                wire,
                cycle: 2,
            },
        )
        .unwrap();
        assert_eq!(effect, FaultEffect::MaskedWithinOneCycle);
    }

    #[test]
    fn campaign_histogram_counts_everything() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false])
            .drive(din, vec![true]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 6);
        let result = run_campaign(
            &harness,
            &space,
            &CampaignConfig {
                cycles: 6,
                sample: None,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        assert_eq!(result.len(), space.len());
        let histogram = result.histogram();
        let total: usize = histogram.values().sum();
        assert_eq!(total, result.len());
        // TMR masks every single-replica fault.
        assert_eq!(
            result.masked_one_cycle_fraction().to_bits(),
            1.0f64.to_bits()
        );
    }

    #[test]
    fn sampled_campaign_is_subset() {
        let (n, topo) = counter(4);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 12);
        let result = run_campaign(
            &harness,
            &space,
            &CampaignConfig {
                cycles: 12,
                sample: Some(9),
                seed: 7,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        assert_eq!(result.len(), 9);
    }

    #[test]
    fn threaded_campaign_matches_single_thread() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false, false, true])
            .drive(din, vec![true, false]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 10);
        let base = CampaignConfig {
            cycles: 10,
            sample: None,
            seed: 0,
            threads: 1,
            lanes: LaneWidth::W64,
            engine: CampaignEngine::default(),
        };
        let single = run_campaign_wide(&harness, &space, &base).unwrap();
        for threads in [0usize, 2, 4, 7, 1000] {
            for lanes in LaneWidth::all() {
                let sharded = run_campaign_wide(
                    &harness,
                    &space,
                    &CampaignConfig {
                        threads,
                        lanes,
                        ..base
                    },
                )
                .unwrap();
                assert_eq!(
                    single.records, sharded.records,
                    "{threads} threads, {lanes} lanes"
                );
            }
        }
    }

    #[test]
    fn engines_match_scalar_reference() {
        // Both batched engines classify bit-identically to the scalar
        // `inject` path across every lane width and thread count,
        // including partially filled tail blocks.
        let (n, topo) = counter(5);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true, true, false]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 20);
        let golden = golden_run(&harness, 21);
        let points: Vec<FaultPoint> = space.iter().collect();
        let scalar: Vec<FaultEffect> = points
            .iter()
            .map(|&p| inject(&harness, &golden, p).unwrap())
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
                    let batched = classify_points(&harness, &golden, &points, &config).unwrap();
                    assert_eq!(
                        scalar, batched,
                        "{engine}, {lanes} lanes, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn engines_match_across_threads() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false, false, true])
            .drive(din, vec![true, false]);
        let space = FaultSpace::all_ffs(harness.netlist(), harness.topology(), 10);
        let base = CampaignConfig {
            cycles: 10,
            threads: 1,
            lanes: LaneWidth::W64,
            engine: CampaignEngine::FullSettle,
            ..CampaignConfig::default()
        };
        let reference = run_campaign_wide(&harness, &space, &base).unwrap();
        for engine in CampaignEngine::all() {
            for threads in [1usize, 3] {
                let run = run_campaign_wide(
                    &harness,
                    &space,
                    &CampaignConfig {
                        threads,
                        engine,
                        ..base
                    },
                )
                .unwrap();
                assert_eq!(
                    reference.records, run.records,
                    "{engine} engine, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn multi_point_batch_matches_scalar_inject_multi() {
        let (n, topo) = tmr_register();
        let load = n.find_net("load").unwrap();
        let din = n.find_net("din").unwrap();
        let harness = StimulusHarness::new(n, topo)
            .drive(load, vec![true, false])
            .drive(din, vec![true]);
        let golden = golden_run(&harness, 8);
        let ffs = harness.topology().seq_cells().to_vec();
        let point = |ff_i: usize, cycle: usize| {
            let ff = ffs[ff_i];
            FaultPoint {
                ff,
                wire: harness.netlist().cell(ff).output(),
                cycle,
            }
        };
        // Single, double, and triple flips: TMR masks one replica, loses to
        // two or three.
        let sets: Vec<Vec<FaultPoint>> = vec![
            vec![point(0, 3)],
            vec![point(0, 3), point(1, 3)],
            vec![point(0, 2), point(1, 2), point(2, 2)],
            vec![point(2, 4)],
        ];
        let scalar: Vec<FaultEffect> = sets
            .iter()
            .map(|s| inject_multi(&harness, &golden, s).unwrap())
            .collect();
        for engine in CampaignEngine::all() {
            for lanes in LaneWidth::all() {
                let config = CampaignConfig {
                    lanes,
                    engine,
                    ..CampaignConfig::default()
                };
                let batched = classify_multi_points(&harness, &golden, &sets, &config).unwrap();
                assert_eq!(scalar, batched, "{engine} engine, {lanes} lanes");
            }
        }
    }

    #[test]
    fn multi_point_batch_rejects_bad_sets() {
        let (n, topo) = counter(3);
        let en = n.find_net("en").unwrap();
        let harness = StimulusHarness::new(n, topo).drive(en, vec![true]);
        let golden = golden_run(&harness, 5);
        let ff = harness.topology().seq_cells()[0];
        let wire = harness.netlist().cell(ff).output();
        let p = |cycle| FaultPoint { ff, wire, cycle };
        let config = CampaignConfig::default();
        let empty: Vec<Vec<FaultPoint>> = vec![vec![]];
        assert!(classify_multi_points(&harness, &golden, &empty, &config).is_err());
        let mixed = vec![vec![p(1), p(2)]];
        assert!(classify_multi_points(&harness, &golden, &mixed, &config).is_err());
        let beyond = vec![vec![p(99)]];
        assert!(classify_multi_points(&harness, &golden, &beyond, &config).is_err());
        assert!(classify_points(&harness, &golden, &[p(5)], &config).is_err());
    }

    #[test]
    fn engine_display_and_default() {
        assert_eq!(CampaignEngine::default(), CampaignEngine::Auto);
        assert_eq!(format!("{}", CampaignEngine::FullSettle), "full-settle");
        assert_eq!(format!("{}", CampaignEngine::Differential), "differential");
        assert_eq!(format!("{}", CampaignEngine::Auto), "auto");
        // `all()` lists only the concrete engines, reference first: Auto
        // always resolves to one of them.
        assert_eq!(CampaignEngine::all()[0], CampaignEngine::FullSettle);
        assert!(!CampaignEngine::all().contains(&CampaignEngine::Auto));
    }

    #[test]
    fn auto_engine_resolves_by_comb_cell_count() {
        // counter(3) is tiny: Auto picks the full-settle reference.
        let (n, topo) = counter(3);
        assert!(topo.comb_order().len() < 128);
        assert_eq!(
            CampaignEngine::Auto.resolve(&topo),
            CampaignEngine::FullSettle
        );
        // Concrete engines pass through untouched.
        assert_eq!(
            CampaignEngine::Differential.resolve(&topo),
            CampaignEngine::Differential
        );
        assert_eq!(
            CampaignEngine::FullSettle.resolve(&topo),
            CampaignEngine::FullSettle
        );
        // A large random netlist crosses the threshold: Auto goes
        // differential.
        use mate_netlist::random::{random_circuit, RandomCircuitConfig};
        let (_, big) = random_circuit(
            RandomCircuitConfig {
                inputs: 8,
                ffs: 64,
                gates: 300,
                outputs: 8,
            },
            1,
        );
        assert!(big.comb_order().len() >= 128);
        assert_eq!(
            CampaignEngine::Auto.resolve(&big),
            CampaignEngine::Differential
        );
        let _ = n;
    }

    #[test]
    fn effective_threads_clamps_to_work() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(3, 0), 1);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn effect_display_and_predicates() {
        assert!(FaultEffect::MaskedWithinOneCycle.is_masked_one_cycle());
        assert!(FaultEffect::Latent.is_silent());
        assert!(!FaultEffect::OutputFailure { after: 2 }.is_silent());
        assert!(format!("{}", FaultEffect::SilentRecovery { after: 3 }).contains('3'));
    }
}

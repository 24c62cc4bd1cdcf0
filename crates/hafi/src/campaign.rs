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

use crate::collapse::{CampaignPruning, PruningStats};
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
    let horizon = golden.trace.num_cycles();
    if point.cycle >= horizon {
        return Err(MateError::campaign(format!(
            "injection cycle {} beyond golden trace of {horizon} cycles",
            point.cycle
        )));
    }
    let mut tb = harness.testbench();

    // Advance fault-free to the injection cycle.
    for _ in 0..point.cycle {
        tb.step();
    }
    // Flip the victim flip-flop; its faulty value is live during this cycle.
    tb.sim_mut().flip_ff(point.ff);
    Ok(classify(&mut tb, golden, point.cycle))
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

/// Classifies a batch of fault points against `golden` with the default
/// lane width — see [`classify_points_with`].
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any injection cycle lies beyond the
/// golden trace.
pub fn classify_points(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Result<Vec<FaultEffect>, MateError> {
    classify_points_with(harness, golden, points, LaneWidth::default())
}

/// Classifies a batch of fault points against `golden` with the default
/// engine — see [`classify_points_engine`].
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any injection cycle lies beyond the
/// golden trace.
pub fn classify_points_with(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
    lanes: LaneWidth,
) -> Result<Vec<FaultEffect>, MateError> {
    classify_points_engine(harness, golden, points, lanes, CampaignEngine::default())
}

/// Classifies a batch of fault points against `golden`, choosing the
/// fastest sound path the harness supports:
///
/// 1. **Wide** — pure stimuli and only transparent devices
///    ([`mate_sim::Testbench::can_run_wide`]; the AVR and MSP430 memories
///    qualify): up to [`LaneWidth::lanes`] fault points per injection
///    cycle are packed into the lanes of a batched engine seeded directly
///    from the golden trace at the injection cycle, then classified in
///    lock-step with per-lane early retirement.  `engine` picks between
///    the event-driven [`CampaignEngine::Differential`] default and the
///    full-settle [`CampaignEngine::FullSettle`] reference.
/// 2. **Checkpointed scalar** — the fallback for snapshotable devices that
///    fail the transparency check (e.g. one reading an internal net), with
///    pure stimuli: one incremental golden run captures a checkpoint at
///    every injection cycle; each faulty run is seeded by restore instead
///    of replaying the warm-up prefix.
/// 3. **Scalar fallback** — anything else: one [`inject`] per point.
///
/// All paths — every engine and lane width included — produce bit-identical
/// [`FaultEffect`] classifications.  Results are returned in the order of
/// `points`.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any injection cycle lies beyond the
/// golden trace.
pub fn classify_points_engine(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
    lanes: LaneWidth,
    engine: CampaignEngine,
) -> Result<Vec<FaultEffect>, MateError> {
    let horizon = golden.trace.num_cycles();
    if let Some(p) = points.iter().find(|p| p.cycle >= horizon) {
        return Err(MateError::campaign(format!(
            "injection cycle {} beyond golden trace of {horizon} cycles",
            p.cycle
        )));
    }
    let engine = engine.resolve(harness.topology());
    let probe = harness.testbench();
    Ok(if probe.can_run_wide() {
        match lanes {
            LaneWidth::W64 => classify_points_wide_concrete::<u64>(harness, golden, points, engine),
            LaneWidth::W256 => {
                classify_points_wide_concrete::<B256>(harness, golden, points, engine)
            }
            LaneWidth::W512 => {
                classify_points_wide_concrete::<B512>(harness, golden, points, engine)
            }
        }
    } else if probe.can_checkpoint() {
        classify_points_checkpoint(harness, golden, points)
    } else {
        let mut effects = Vec::with_capacity(points.len());
        for &p in points {
            effects.push(inject(harness, golden, p)?);
        }
        effects
    })
}

/// Classifies a batch of fault points with optional fault-space collapsing
/// (see [`crate::collapse`]): the full-featured entry behind
/// [`run_campaign_wide`] and [`crate::validate_mates`].
///
/// With [`CampaignPruning::Collapse`] on a wide-capable harness, points are
/// first grouped into temporal equivalence classes over golden-trace
/// cone-support fingerprints and one representative per class is probed for
/// one cycle; only what the probe window cannot decide is simulated in
/// full.  The returned [`PruningStats`] account for the saved work.  Every
/// pruning mode, engine, lane width, and thread count produces bit-identical
/// [`FaultEffect`] classifications; checkpointed and scalar harnesses
/// cannot collapse (their per-point state is opaque to the delta prober)
/// and report unpruned stats.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any injection cycle lies beyond the
/// golden trace.
pub fn classify_points_pruned(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
    lanes: LaneWidth,
    engine: CampaignEngine,
    pruning: CampaignPruning,
) -> Result<(Vec<FaultEffect>, PruningStats), MateError> {
    let horizon = golden.trace.num_cycles();
    if let Some(p) = points.iter().find(|p| p.cycle >= horizon) {
        return Err(MateError::campaign(format!(
            "injection cycle {} beyond golden trace of {horizon} cycles",
            p.cycle
        )));
    }
    if pruning == CampaignPruning::Collapse && harness.testbench().can_run_wide() {
        let engine = engine.resolve(harness.topology());
        Ok(crate::collapse::classify_points_collapse_width(
            harness, golden, points, lanes, engine,
        ))
    } else {
        let effects = classify_points_engine(harness, golden, points, lanes, engine)?;
        let stats = PruningStats::unpruned(points.len());
        Ok((effects, stats))
    }
}

/// The wide path at one concrete lane width: dispatches a *resolved*
/// engine ([`CampaignEngine::Auto`] defensively maps to differential).
/// Shared by [`classify_points_engine`] and the collapsing fallback.
pub(crate) fn classify_points_wide_concrete<B: LaneBlock>(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
    engine: CampaignEngine,
) -> Vec<FaultEffect> {
    match engine {
        CampaignEngine::FullSettle => classify_points_block::<B>(harness, golden, points),
        CampaignEngine::Differential | CampaignEngine::Auto => {
            classify_points_differential::<B>(harness, golden, points)
        }
    }
}

/// The wide multi-SEU path at one concrete lane width, shared by
/// [`classify_multi_points`] and the collapsing fallback.
pub(crate) fn classify_multi_wide_concrete<B: LaneBlock>(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    sets: &[Vec<FaultPoint>],
) -> Vec<FaultEffect> {
    classify_multi_differential::<B>(harness, golden, sets)
}

/// Per-net observation flags for the classification scans.  The bit
/// positions match the accumulator indices of
/// [`DeltaSimulator::scan_flagged`].
pub(crate) const OBS_OUTPUT: u8 = 1;
pub(crate) const OBS_STATE: u8 = 2;
/// Flip-flop D-input nets: a nonzero delta here persists into the next
/// cycle's state.  Used by the collapsing prober, not the retire loop.
pub(crate) const OBS_NEXT: u8 = 4;

pub(crate) fn observed_flags(num_nets: usize, golden: &GoldenRun) -> Vec<u8> {
    let mut flags = vec![0u8; num_nets];
    for &net in &golden.output_nets {
        flags[net.index()] |= OBS_OUTPUT;
    }
    for &net in &golden.state_nets {
        flags[net.index()] |= OBS_STATE;
    }
    flags
}

/// Per-cycle partition of the observed nets by their golden value, so the
/// block classification loops need neither a per-net [`LaneBlock::splat`]
/// nor a per-net golden bit probe: a lane diverges on a golden-one net iff
/// its value bit is 0 (`diff |= !v`), on a golden-zero net iff it is 1
/// (`diff |= v`).
struct GoldenPartition {
    out_ones: Vec<Vec<u32>>,
    out_zeros: Vec<Vec<u32>>,
    state_ones: Vec<Vec<u32>>,
    state_zeros: Vec<Vec<u32>>,
}

impl GoldenPartition {
    fn build(golden: &GoldenRun, transposed: &TransposedTrace) -> Self {
        let horizon = golden.trace.num_cycles();
        let mut p = Self {
            out_ones: vec![Vec::new(); horizon],
            out_zeros: vec![Vec::new(); horizon],
            state_ones: vec![Vec::new(); horizon],
            state_zeros: vec![Vec::new(); horizon],
        };
        for t in 0..horizon {
            let view = transposed.cycle_view(t);
            for &net in &golden.output_nets {
                let bucket = if view.value(net.index()) {
                    &mut p.out_ones[t]
                } else {
                    &mut p.out_zeros[t]
                };
                bucket.push(net.index() as u32);
            }
            for &net in &golden.state_nets {
                let bucket = if view.value(net.index()) {
                    &mut p.state_ones[t]
                } else {
                    &mut p.state_zeros[t]
                };
                bucket.push(net.index() as u32);
            }
        }
        p
    }
}

/// The block-lane engine behind [`classify_points_with`]: groups points by
/// injection cycle, packs up to `B::WIDTH` of them into one lane-parallel
/// run seeded from the golden trace, and compares every lane against golden
/// with block XORs.
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
fn classify_points_block<B: LaneBlock>(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Vec<FaultEffect> {
    let horizon = golden.trace.num_cycles();
    let inputs = harness.netlist().inputs();
    let mut wide: BlockSimulator<'_, B> =
        BlockSimulator::new(harness.netlist(), harness.topology());
    // Golden comparisons are precomputed per cycle: the observed nets are
    // partitioned by golden value once, outside the chunk loop, so the
    // per-chunk classification is pure block ops — no per-net splat, no
    // per-net trace probe.  (Splatting every observed net per cycle per
    // chunk was what made the 256/512-lane backends slower than 64.)
    let transposed = TransposedTrace::from_trace(&golden.trace);
    let part = GoldenPartition::build(golden, &transposed);

    let mut by_cycle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, p) in points.iter().enumerate() {
        by_cycle.entry(p.cycle).or_default().push(idx);
    }

    let mut effects = vec![FaultEffect::Latent; points.len()];
    for (&cycle, indices) in &by_cycle {
        for chunk in indices.chunks(B::WIDTH) {
            wide.load_from_trace(&golden.trace, cycle);
            for (lane, &idx) in chunk.iter().enumerate() {
                wide.flip_ff(points[idx].ff, lane);
            }
            let mut active = B::low_lanes(chunk.len());
            for t in cycle..horizon {
                for &net in inputs {
                    wide.set_input(net, golden.trace.value(t, net));
                }
                wide.settle();
                // Outputs first, mirroring the scalar classifier's priority.
                let mut out_diff = B::ZERO;
                for &net in &part.out_ones[t] {
                    out_diff |= !wide.value_block(NetId::from_index(net as usize));
                }
                for &net in &part.out_zeros[t] {
                    out_diff |= wide.value_block(NetId::from_index(net as usize));
                }
                let failed = out_diff & active;
                if !failed.is_zero() {
                    failed.for_each_lane(|lane| {
                        effects[chunk[lane]] = FaultEffect::OutputFailure { after: t - cycle };
                    });
                    active &= !failed;
                }
                if t > cycle && !active.is_zero() {
                    let mut state_diff = B::ZERO;
                    for &net in &part.state_ones[t] {
                        state_diff |= !wide.value_block(NetId::from_index(net as usize));
                    }
                    for &net in &part.state_zeros[t] {
                        state_diff |= wide.value_block(NetId::from_index(net as usize));
                    }
                    let converged = active & !state_diff;
                    if !converged.is_zero() {
                        let after = t - cycle;
                        converged.for_each_lane(|lane| {
                            effects[chunk[lane]] = if after == 1 {
                                FaultEffect::MaskedWithinOneCycle
                            } else {
                                FaultEffect::SilentRecovery { after }
                            };
                        });
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

/// The event-driven engine behind [`classify_points_engine`]: like
/// [`classify_points_block`] in grouping and retirement, but the chunk runs
/// on a [`DeltaSimulator`] — in every live lane the stimuli and the
/// transparent devices' responses equal the golden ones, so input deltas
/// are identically zero and only the dirty fan-out frontier of each fault
/// cone is ever re-evaluated.  The classification scan walks the
/// simulator's nonzero-delta set rather than all observed nets: any net
/// absent from it matches golden in every lane.
///
/// Early retirement is sound for the same reason as in the full-settle
/// engine; convergence here is simply the lane's bits vanishing from every
/// delta, which the frontier detects without a state scan.
fn classify_points_differential<B: LaneBlock>(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Vec<FaultEffect> {
    let horizon = golden.trace.num_cycles();
    let transposed = TransposedTrace::from_trace(&golden.trace);
    let flags = observed_flags(harness.netlist().num_nets(), golden);
    let mut delta: DeltaSimulator<'_, B> =
        DeltaSimulator::new(harness.netlist(), harness.topology());

    let mut by_cycle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, p) in points.iter().enumerate() {
        by_cycle.entry(p.cycle).or_default().push(idx);
    }

    let mut effects = vec![FaultEffect::Latent; points.len()];
    for (&cycle, indices) in &by_cycle {
        for chunk in indices.chunks(B::WIDTH) {
            delta.begin(cycle);
            for (lane, &idx) in chunk.iter().enumerate() {
                delta.flip_ff(points[idx].ff, lane);
            }
            retire_chunk_differential(
                &mut delta,
                &transposed,
                &flags,
                cycle,
                horizon,
                B::low_lanes(chunk.len()),
                |lane, effect| effects[chunk[lane]] = effect,
            );
        }
    }
    effects
}

/// Runs one lane chunk of the differential engine from `cycle` to the
/// horizon, calling `retire(lane, effect)` as lanes classify.  Lanes still
/// active at the horizon are `Latent` and are *not* reported.
fn retire_chunk_differential<B: LaneBlock>(
    delta: &mut DeltaSimulator<'_, B>,
    transposed: &TransposedTrace,
    flags: &[u8],
    cycle: usize,
    horizon: usize,
    mut active: B,
    mut retire: impl FnMut(usize, FaultEffect),
) {
    for t in cycle..horizon {
        delta.settle(transposed);
        let before = active;
        // One scan of the (small) nonzero-delta set yields both divergence
        // masks; every other net equals golden in all lanes.
        let [out_diff, state_diff, _] = delta.scan_flagged(flags);
        // Outputs first, mirroring the scalar classifier's priority.
        let failed = out_diff & active;
        if !failed.is_zero() {
            failed.for_each_lane(|lane| {
                retire(lane, FaultEffect::OutputFailure { after: t - cycle });
            });
            active &= !failed;
        }
        if t > cycle && !active.is_zero() {
            let converged = active & !state_diff;
            if !converged.is_zero() {
                let after = t - cycle;
                converged.for_each_lane(|lane| {
                    retire(
                        lane,
                        if after == 1 {
                            FaultEffect::MaskedWithinOneCycle
                        } else {
                            FaultEffect::SilentRecovery { after }
                        },
                    );
                });
                active &= !converged;
            }
        }
        if active.is_zero() {
            break;
        }
        if active != before {
            // Retired lanes' deltas are dead weight (every classification
            // read is `& active`-masked): dropping them here shrinks the
            // dirty frontier to the cones of the undecided lanes, instead
            // of dragging the classified faults' cones to the horizon.
            delta.retain_lanes(active);
        }
        delta.tick();
    }
}

/// The checkpointed scalar engine behind [`classify_points`]: one
/// incremental golden run captures a [`mate_sim::TestbenchCheckpoint`] at
/// every distinct injection cycle, then each point restores its checkpoint
/// into a reusable work testbench instead of replaying cycles `0..c`.
fn classify_points_checkpoint(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    points: &[FaultPoint],
) -> Vec<FaultEffect> {
    let needed: std::collections::BTreeSet<usize> = points.iter().map(|p| p.cycle).collect();
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
    points
        .iter()
        .map(|&p| {
            work.restore(&checkpoints[&p.cycle]);
            work.sim_mut().flip_ff(p.ff);
            classify(&mut work, golden, p.cycle)
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
    let Some(first) = points.first() else {
        return Err(MateError::campaign("need at least one fault point"));
    };
    let cycle = first.cycle;
    if points.iter().any(|p| p.cycle != cycle) {
        return Err(MateError::campaign(
            "multi-bit upsets are simultaneous: all points must share one cycle",
        ));
    }
    let horizon = golden.trace.num_cycles();
    if cycle >= horizon {
        return Err(MateError::campaign(format!(
            "injection cycle {cycle} beyond golden trace of {horizon} cycles"
        )));
    }
    let mut tb = harness.testbench();
    for _ in 0..cycle {
        tb.step();
    }
    for point in points {
        tb.sim_mut().flip_ff(point.ff);
    }
    Ok(classify(&mut tb, golden, cycle))
}

/// Classifies a batch of simultaneous multi-bit SEU *sets* — one set per
/// lane — against `golden`: the batched counterpart of [`inject_multi`]
/// for the multi-SEU search of `mate-core`.  Wide-capable harnesses run on
/// the differential engine (up to [`LaneWidth::lanes`] whole sets per
/// pass); anything else falls back to one scalar [`inject_multi`] per set.
/// Results are returned in the order of `sets` and are bit-identical to
/// the scalar path.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any set is empty, mixes cycles, or
/// lies beyond the golden trace.
pub fn classify_multi_points(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    sets: &[Vec<FaultPoint>],
    lanes: LaneWidth,
) -> Result<Vec<FaultEffect>, MateError> {
    let horizon = golden.trace.num_cycles();
    for set in sets {
        let Some(first) = set.first() else {
            return Err(MateError::campaign("need at least one fault point"));
        };
        if set.iter().any(|p| p.cycle != first.cycle) {
            return Err(MateError::campaign(
                "multi-bit upsets are simultaneous: all points must share one cycle",
            ));
        }
        if first.cycle >= horizon {
            return Err(MateError::campaign(format!(
                "injection cycle {} beyond golden trace of {horizon} cycles",
                first.cycle
            )));
        }
    }
    if !harness.testbench().can_run_wide() {
        return sets
            .iter()
            .map(|set| inject_multi(harness, golden, set))
            .collect();
    }
    Ok(match lanes {
        LaneWidth::W64 => classify_multi_wide_concrete::<u64>(harness, golden, sets),
        LaneWidth::W256 => classify_multi_wide_concrete::<B256>(harness, golden, sets),
        LaneWidth::W512 => classify_multi_wide_concrete::<B512>(harness, golden, sets),
    })
}

/// Classifies simultaneous multi-SEU sets with optional fault-space
/// collapsing: the multi-bit counterpart of [`classify_points_pruned`].
/// Collapsing generalizes soundly — each set becomes one worklist item
/// carrying its odd-parity flip set, the cone support unions the members'
/// cones, and everything else is the single-SEU machinery unchanged.
/// Bit-identical to [`classify_multi_points`] in every mode.
///
/// # Errors
///
/// Returns [`MateError::Campaign`] if any set is empty, mixes cycles, or
/// lies beyond the golden trace.
pub fn classify_multi_points_pruned(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    sets: &[Vec<FaultPoint>],
    lanes: LaneWidth,
    pruning: CampaignPruning,
) -> Result<(Vec<FaultEffect>, PruningStats), MateError> {
    if pruning == CampaignPruning::Off || !harness.testbench().can_run_wide() {
        let effects = classify_multi_points(harness, golden, sets, lanes)?;
        return Ok((effects, PruningStats::unpruned(sets.len())));
    }
    // Re-run the set validation of the unpruned path before collapsing.
    let horizon = golden.trace.num_cycles();
    for set in sets {
        let Some(first) = set.first() else {
            return Err(MateError::campaign("need at least one fault point"));
        };
        if set.iter().any(|p| p.cycle != first.cycle) {
            return Err(MateError::campaign(
                "multi-bit upsets are simultaneous: all points must share one cycle",
            ));
        }
        if first.cycle >= horizon {
            return Err(MateError::campaign(format!(
                "injection cycle {} beyond golden trace of {horizon} cycles",
                first.cycle
            )));
        }
    }
    Ok(crate::collapse::classify_multi_collapse_width(
        harness, golden, sets, lanes,
    ))
}

/// The lane-parallel body of [`classify_multi_points`]: identical chunking
/// to [`classify_points_differential`], except each lane carries *all*
/// flips of its set.
fn classify_multi_differential<B: LaneBlock>(
    harness: &dyn DesignHarness,
    golden: &GoldenRun,
    sets: &[Vec<FaultPoint>],
) -> Vec<FaultEffect> {
    let horizon = golden.trace.num_cycles();
    let transposed = TransposedTrace::from_trace(&golden.trace);
    let flags = observed_flags(harness.netlist().num_nets(), golden);
    let mut delta: DeltaSimulator<'_, B> =
        DeltaSimulator::new(harness.netlist(), harness.topology());

    let mut by_cycle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, set) in sets.iter().enumerate() {
        by_cycle.entry(set[0].cycle).or_default().push(idx);
    }

    let mut effects = vec![FaultEffect::Latent; sets.len()];
    for (&cycle, indices) in &by_cycle {
        for chunk in indices.chunks(B::WIDTH) {
            delta.begin(cycle);
            for (lane, &idx) in chunk.iter().enumerate() {
                for point in &sets[idx] {
                    delta.flip_ff(point.ff, lane);
                }
            }
            retire_chunk_differential(
                &mut delta,
                &transposed,
                &flags,
                cycle,
                horizon,
                B::low_lanes(chunk.len()),
                |lane, effect| effects[chunk[lane]] = effect,
            );
        }
    }
    effects
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
    /// Worker threads for [`run_campaign_wide`]; `0` uses all available
    /// cores (the [`crate::SearchConfig`]-style convention).  Results are
    /// bit-identical for every thread count.
    pub threads: usize,
    /// Lane width of the batched engine (scenarios per simulation pass).
    /// Results are bit-identical for every width.
    pub lanes: LaneWidth,
    /// Which batched engine classifies wide-capable workloads.  Results
    /// are bit-identical for every choice.
    pub engine: CampaignEngine,
    /// Whether to collapse temporally equivalent fault points before
    /// simulating (see [`crate::collapse`]).  Results are bit-identical
    /// for both modes.
    pub pruning: CampaignPruning,
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
            pruning: CampaignPruning::default(),
        }
    }
}

/// The outcome of a whole campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// Every injected point with its classified effect.
    pub records: Vec<(FaultPoint, FaultEffect)>,
    /// Collapsing work accounting, summed over thread shards.  Diagnostic
    /// only — the records are bit-identical whatever it says — and
    /// therefore not part of any artifact encoding.
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
    let points: Vec<FaultPoint> = match config.sample {
        Some(count) => space.sample(count, config.seed),
        None => space.iter().collect(),
    };
    let mut result = CampaignResult::default();
    for point in points {
        if point.cycle >= config.cycles {
            continue;
        }
        let effect = inject(harness, &golden, point)?;
        result.records.push((point, effect));
    }
    result.pruning = PruningStats::unpruned(result.records.len());
    Ok(result)
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
/// engine selected by [`CampaignConfig::engine`]: identical records to
/// [`run_campaign`], at up to [`CampaignConfig::lanes`] fault scenarios
/// per simulation via [`classify_points_engine`], sharded over
/// [`CampaignConfig::threads`] worker threads (threads × lanes concurrent
/// fault scenarios).
///
/// Each thread classifies one contiguous chunk of the point list into its
/// slice of the result buffer, so the records come back in the original
/// point order and are bit-identical for every thread count — including the
/// single-threaded path, which skips thread spawning entirely.
/// # Errors
///
/// Returns [`MateError::Campaign`] when an injection is invalid.
pub fn run_campaign_wide(
    harness: &(dyn DesignHarness + Sync),
    space: &FaultSpace,
    config: &CampaignConfig,
) -> Result<CampaignResult, MateError> {
    let golden = golden_run(harness, config.cycles + 1);
    let points: Vec<FaultPoint> = match config.sample {
        Some(count) => space.sample(count, config.seed),
        None => space.iter().collect(),
    }
    .into_iter()
    .filter(|p| p.cycle < config.cycles)
    .collect();
    let threads = effective_threads(config.threads, points.len());
    let (effects, pruning) = if threads <= 1 {
        classify_points_pruned(
            harness,
            &golden,
            &points,
            config.lanes,
            config.engine,
            config.pruning,
        )?
    } else {
        let chunk = points.len().div_ceil(threads);
        let mut shards: Vec<Result<(Vec<FaultEffect>, PruningStats), MateError>> = points
            .chunks(chunk)
            .map(|_| Ok(Default::default()))
            .collect();
        let golden = &golden;
        let lanes = config.lanes;
        let engine = config.engine;
        let mode = config.pruning;
        std::thread::scope(|scope| {
            for (pts, out) in points.chunks(chunk).zip(shards.iter_mut()) {
                scope.spawn(move || {
                    *out = classify_points_pruned(harness, golden, pts, lanes, engine, mode);
                });
            }
        });
        let mut effects = Vec::with_capacity(points.len());
        let mut pruning = PruningStats::default();
        for shard in shards {
            let (shard_effects, shard_stats) = shard?;
            effects.extend(shard_effects);
            pruning.absorb(&shard_stats);
        }
        (effects, pruning)
    };
    Ok(CampaignResult {
        records: points.into_iter().zip(effects).collect(),
        pruning,
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
        assert_eq!(result.masked_one_cycle_fraction(), 1.0);
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
            pruning: CampaignPruning::default(),
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
    fn lane_widths_match_scalar_reference() {
        // The block engines must classify bit-identically to the scalar
        // `inject` path, including partially filled tail blocks.
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
        for lanes in LaneWidth::all() {
            let block = classify_points_with(&harness, &golden, &points, lanes).unwrap();
            assert_eq!(scalar, block, "{lanes} lanes");
        }
    }

    #[test]
    fn engines_match_scalar_reference() {
        // Both batched engines classify bit-identically to the scalar
        // `inject` path across every lane width.
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
                let batched =
                    classify_points_engine(&harness, &golden, &points, lanes, engine).unwrap();
                assert_eq!(scalar, batched, "{engine} engine, {lanes} lanes");
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
                        engine,
                        threads,
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
        for lanes in LaneWidth::all() {
            let batched = classify_multi_points(&harness, &golden, &sets, lanes).unwrap();
            assert_eq!(scalar, batched, "{lanes} lanes");
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
        let empty: Vec<Vec<FaultPoint>> = vec![vec![]];
        assert!(classify_multi_points(&harness, &golden, &empty, LaneWidth::W64).is_err());
        let mixed = vec![vec![p(1), p(2)]];
        assert!(classify_multi_points(&harness, &golden, &mixed, LaneWidth::W64).is_err());
        let beyond = vec![vec![p(99)]];
        assert!(classify_multi_points(&harness, &golden, &beyond, LaneWidth::W64).is_err());
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
        assert!(format!("{}", FaultEffect::SilentRecovery { after: 3 }).contains("3"));
    }
}

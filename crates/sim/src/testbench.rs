//! Stimulus and device harness around the [`Simulator`].

use mate_netlist::prelude::*;

use crate::engine::{SimCheckpoint, Simulator};
use crate::trace::WaveTrace;

/// A per-cycle stimulus for one primary input.
pub struct InputWave {
    wave: Box<dyn FnMut(u64) -> bool>,
    /// `true` when the wave is a pure function of the cycle number, i.e. it
    /// may be sampled at an arbitrary cycle without replaying the prefix.
    pure: bool,
}

impl InputWave {
    /// A constant level.
    pub fn constant(value: bool) -> Self {
        Self {
            wave: Box::new(move |_| value),
            pure: true,
        }
    }

    /// High for the first `cycles` cycles, low afterwards (a reset pulse).
    pub fn pulse(cycles: u64) -> Self {
        Self {
            wave: Box::new(move |c| c < cycles),
            pure: true,
        }
    }

    /// Values from a vector; the last value is held once exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_vec(values: Vec<bool>) -> Self {
        assert!(!values.is_empty(), "stimulus vector must not be empty");
        Self {
            wave: Box::new(move |c| *values.get(c as usize).unwrap_or(values.last().unwrap())),
            pure: true,
        }
    }

    /// An arbitrary function of the cycle number.
    ///
    /// The closure may be stateful, so the wave is treated as *impure*:
    /// checkpoint-based and wide campaigns fall back to replaying from cycle
    /// 0.  Use [`InputWave::from_fn_pure`] for stateless closures.
    pub fn from_fn(f: impl FnMut(u64) -> bool + 'static) -> Self {
        Self {
            wave: Box::new(f),
            pure: false,
        }
    }

    /// A *pure* function of the cycle number.
    ///
    /// By constructing the wave this way the caller asserts the closure's
    /// result depends only on its argument; campaigns may then sample it at
    /// arbitrary cycles (out of order, repeatedly) when seeding runs from
    /// checkpoints.
    pub fn from_fn_pure(f: impl Fn(u64) -> bool + 'static) -> Self {
        Self {
            wave: Box::new(f),
            pure: true,
        }
    }

    /// `true` when the wave may be sampled at arbitrary cycles.
    pub fn is_pure(&self) -> bool {
        self.pure
    }

    fn sample(&mut self, cycle: u64) -> bool {
        (self.wave)(cycle)
    }
}

impl std::fmt::Debug for InputWave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InputWave")
    }
}

/// A reactive external device (memory, peripheral) hooked into the cycle
/// loop.
///
/// The device closure runs after the first combinational settle of each
/// cycle: it may read settled outputs (e.g. an address bus) and drive
/// primary inputs (e.g. a read-data bus).  The harness settles again before
/// capturing the trace and latching, so device responses behave like
/// asynchronous-read memories.
///
/// **Contract:** nets driven by a device must not combinationally influence
/// the outputs the device reads, otherwise a second settle round would be
/// required; CPU-style cores (address from registers, data into registers)
/// satisfy this naturally.
pub type Device<'n> = Box<dyn FnMut(&mut Simulator<'n>) + 'n>;

/// The nets a [`SnapshotDevice`] reads and the primary inputs it drives,
/// declared so [`Testbench::can_run_wide`] can check the device
/// structurally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DevicePorts {
    /// Every net [`SnapshotDevice::on_cycle`] reads.
    pub reads: Vec<NetId>,
    /// Every primary input [`SnapshotDevice::on_cycle`] drives.
    pub drives: Vec<NetId>,
}

/// A device whose external state (memory contents, peripheral registers) can
/// be captured and restored.
///
/// Campaigns use this to checkpoint a golden run at each injection cycle and
/// seed faulty runs from there instead of replaying the warm-up prefix; a
/// testbench whose devices all implement this trait reports
/// [`Testbench::can_checkpoint`].  Devices also declare their
/// [`DevicePorts`], which lets [`Testbench::can_run_wide`] prove them
/// transparent to lane-parallel campaigns.
pub trait SnapshotDevice<'n> {
    /// Runs the device for the current cycle, like a plain [`Device`]
    /// closure: read settled outputs, drive primary inputs.
    fn on_cycle(&mut self, sim: &mut Simulator<'n>);

    /// The nets [`Self::on_cycle`] reads and the primary inputs it drives.
    /// The declaration must be complete: an omitted read would let
    /// [`Testbench::can_run_wide`] accept a device it cannot prove
    /// transparent.
    fn ports(&self) -> DevicePorts;

    /// Serializes every piece of state mutated by [`Self::on_cycle`].
    /// Read-only devices (ROMs) return an empty vector.
    fn state(&self) -> Vec<u64>;

    /// Restores state previously captured by [`Self::state`].
    ///
    /// # Panics
    ///
    /// Implementations panic when `state` has the wrong shape.
    fn load_state(&mut self, state: &[u64]);
}

/// A device slot: either an opaque closure or a snapshotable device.
enum DeviceSlot<'n> {
    Opaque(Device<'n>),
    Snapshot(Box<dyn SnapshotDevice<'n> + 'n>),
}

impl<'n> DeviceSlot<'n> {
    fn on_cycle(&mut self, sim: &mut Simulator<'n>) {
        match self {
            DeviceSlot::Opaque(f) => f(sim),
            DeviceSlot::Snapshot(d) => d.on_cycle(sim),
        }
    }
}

/// A full checkpoint of a testbench: simulator state plus the state of every
/// snapshotable device.  Captured by [`Testbench::checkpoint`].
#[derive(Clone, Debug)]
pub struct TestbenchCheckpoint {
    sim: SimCheckpoint,
    devices: Vec<Vec<u64>>,
}

impl TestbenchCheckpoint {
    /// The cycle counter at capture time.
    pub fn cycle(&self) -> u64 {
        self.sim.cycle()
    }
}

/// Drives a netlist cycle by cycle and records a [`WaveTrace`].
///
/// # Example
///
/// ```
/// use mate_netlist::examples::counter;
/// use mate_sim::{InputWave, Testbench};
///
/// let (n, topo) = counter(3);
/// let mut tb = Testbench::new(&n, &topo);
/// tb.drive(n.find_net("en").unwrap(), InputWave::constant(true));
/// let trace = tb.run(10);
/// assert_eq!(trace.num_cycles(), 10);
/// ```
pub struct Testbench<'n> {
    sim: Simulator<'n>,
    stimuli: Vec<(NetId, InputWave)>,
    devices: Vec<DeviceSlot<'n>>,
}

impl<'n> Testbench<'n> {
    /// Creates a testbench around a fresh simulator.
    pub fn new(netlist: &'n Netlist, topo: &'n Topology) -> Self {
        Self {
            sim: Simulator::new(netlist, topo),
            stimuli: Vec::new(),
            devices: Vec::new(),
        }
    }

    /// Attaches a stimulus to a primary input.
    ///
    /// # Panics
    ///
    /// Panics (at run time) if `net` is not a primary input.
    pub fn drive(&mut self, net: NetId, wave: InputWave) -> &mut Self {
        self.stimuli.push((net, wave));
        self
    }

    /// Attaches a reactive device as an opaque closure.  The testbench then
    /// cannot be checkpointed; prefer [`Testbench::attach_snapshot`] for
    /// devices that can serialize their state.
    pub fn attach(&mut self, device: Device<'n>) -> &mut Self {
        self.devices.push(DeviceSlot::Opaque(device));
        self
    }

    /// Attaches a snapshotable reactive device.
    ///
    /// # Panics
    ///
    /// Panics if the device declares a driven net that is not a primary
    /// input.
    pub fn attach_snapshot(&mut self, device: Box<dyn SnapshotDevice<'n> + 'n>) -> &mut Self {
        let netlist = self.sim.netlist();
        for net in device.ports().drives {
            assert_eq!(
                netlist.net(net).driver(),
                NetDriver::Input,
                "device declares that it drives `{}`, which is not a primary input",
                netlist.net(net).name()
            );
        }
        self.devices.push(DeviceSlot::Snapshot(device));
        self
    }

    /// `true` when at least one external device is attached.
    pub fn has_devices(&self) -> bool {
        !self.devices.is_empty()
    }

    /// `true` when every stimulus is a pure function of the cycle number.
    pub fn pure_stimuli(&self) -> bool {
        self.stimuli.iter().all(|(_, wave)| wave.is_pure())
    }

    /// `true` when the whole testbench can be checkpointed and restored:
    /// every stimulus is pure and every device is snapshotable.
    pub fn can_checkpoint(&self) -> bool {
        self.pure_stimuli()
            && self
                .devices
                .iter()
                .all(|slot| matches!(slot, DeviceSlot::Snapshot(_)))
    }

    /// `true` when a faulty run can be re-created lane-parallel from the
    /// golden trace: every stimulus is pure and every device is
    /// *transparent*, i.e. snapshotable and reading only primary outputs
    /// that no device-driven input reaches combinationally.
    ///
    /// Transparency is what makes the lane-parallel engines exact.  A
    /// faulty run whose device reads diverge from the golden run already
    /// shows a wrong primary output in that same cycle, so it is classified
    /// there.  And because the reads are not downstream of device-driven
    /// inputs, the value a device samples after the first settle is the
    /// settled value the trace records.  So in every faulty run still
    /// unclassified, each device sees exactly its golden reads, keeps its
    /// golden state and drives its golden values: the primary inputs follow
    /// the golden trace, which is all the wide engines assume.
    pub fn can_run_wide(&self) -> bool {
        if !self.pure_stimuli() {
            return false;
        }
        let mut reads = Vec::new();
        let mut drives = Vec::new();
        for slot in &self.devices {
            let DeviceSlot::Snapshot(device) = slot else {
                return false;
            };
            let ports = device.ports();
            reads.extend(ports.reads);
            drives.extend(ports.drives);
        }
        let netlist = self.sim.netlist();
        if !reads.iter().all(|net| netlist.outputs().contains(net)) {
            return false;
        }
        drives.is_empty() || {
            let cone = FaultCone::compute_multi(netlist, self.sim.topology(), &drives);
            !reads.iter().any(|&net| cone.contains_net(net))
        }
    }

    /// Captures a checkpoint of the simulator and all device state.
    ///
    /// # Panics
    ///
    /// Panics unless [`Testbench::can_checkpoint`] holds.
    pub fn checkpoint(&self) -> TestbenchCheckpoint {
        assert!(
            self.can_checkpoint(),
            "testbench has impure stimuli or opaque devices"
        );
        let devices = self
            .devices
            .iter()
            .map(|slot| match slot {
                DeviceSlot::Snapshot(d) => d.state(),
                DeviceSlot::Opaque(_) => unreachable!("checked by can_checkpoint"),
            })
            .collect();
        TestbenchCheckpoint {
            sim: self.sim.checkpoint(),
            devices,
        }
    }

    /// Restores a checkpoint captured by [`Testbench::checkpoint`] (possibly
    /// on a different testbench instance of the same design).
    ///
    /// # Panics
    ///
    /// Panics if the device count differs or the simulator is incompatible.
    pub fn restore(&mut self, checkpoint: &TestbenchCheckpoint) {
        assert_eq!(
            checkpoint.devices.len(),
            self.devices.len(),
            "checkpoint has a different device count"
        );
        self.sim.restore_checkpoint(&checkpoint.sim);
        for (slot, state) in self.devices.iter_mut().zip(&checkpoint.devices) {
            match slot {
                DeviceSlot::Snapshot(d) => d.load_state(state),
                DeviceSlot::Opaque(_) => panic!("cannot restore into an opaque device"),
            }
        }
    }

    /// Access to the underlying simulator (e.g. for fault injection).
    pub fn sim_mut(&mut self) -> &mut Simulator<'n> {
        &mut self.sim
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Simulator<'n> {
        &self.sim
    }

    /// Runs one cycle: stimuli → settle → devices → settle → latch.
    /// Returns after the clock edge.
    pub fn step(&mut self) {
        self.step_observed(|_| {});
    }

    /// Runs one cycle like [`Testbench::step`], calling `observe` on the
    /// fully settled simulator right before the clock edge (the moment a
    /// trace cycle is captured).
    pub fn step_observed(&mut self, observe: impl FnOnce(&mut Simulator<'n>)) {
        let cycle = self.sim.cycle();
        for (net, wave) in &mut self.stimuli {
            let v = wave.sample(cycle);
            self.sim.set_input(*net, v);
        }
        self.sim.settle();
        for device in &mut self.devices {
            device.on_cycle(&mut self.sim);
        }
        self.sim.settle();
        observe(&mut self.sim);
        self.sim.tick();
    }

    /// Runs `cycles` cycles and records the settled wire values of each.
    pub fn run(&mut self, cycles: usize) -> WaveTrace {
        let mut trace = WaveTrace::new(self.sim.netlist().num_nets());
        for _ in 0..cycles {
            self.step_observed(|sim| trace.capture(sim));
        }
        trace
    }
}

impl std::fmt::Debug for Testbench<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Testbench({}, {} stimuli, {} devices)",
            self.sim.netlist().name(),
            self.stimuli.len(),
            self.devices.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_netlist::examples::counter;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn constant_and_pulse_waves() {
        let mut c = InputWave::constant(true);
        assert!(c.sample(0));
        assert!(c.sample(99));
        let mut p = InputWave::pulse(2);
        assert!(p.sample(0));
        assert!(p.sample(1));
        assert!(!p.sample(2));
    }

    #[test]
    fn vec_wave_holds_last() {
        let mut w = InputWave::from_vec(vec![true, false]);
        assert!(w.sample(0));
        assert!(!w.sample(1));
        assert!(!w.sample(100));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_vec_wave_panics() {
        InputWave::from_vec(vec![]);
    }

    #[test]
    fn counter_with_gated_enable() {
        let (n, topo) = counter(4);
        let mut tb = Testbench::new(&n, &topo);
        // Enable only on even cycles.
        tb.drive(
            n.find_net("en").unwrap(),
            InputWave::from_fn(|c| c % 2 == 0),
        );
        let trace = tb.run(10);
        // 5 enabled cycles -> counter reaches 5.
        let value: usize = (0..4)
            .map(|i| {
                let q = n.find_net(&format!("q{i}")).unwrap();
                (trace.value(9, q) as usize) << i
            })
            .sum();
        assert_eq!(value, 5);
    }

    #[test]
    fn device_reacts_to_outputs() {
        // A device that mirrors q0 onto `en`, stopping the counter at 1:
        // once q0=1 the device drives en=0.
        let (n, topo) = counter(3);
        let en = n.find_net("en").unwrap();
        let q0 = n.find_net("q0").unwrap();
        let mut tb = Testbench::new(&n, &topo);
        tb.drive(en, InputWave::constant(true));
        let log: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        tb.attach(Box::new(move |sim| {
            let v = sim.value(q0);
            log2.borrow_mut().push(v);
            if v {
                sim.set_input(en, false);
            }
        }));
        tb.run(6);
        // Counter increments in cycle 0 (q0 becomes 1 in cycle 1), then the
        // device freezes it; q0 stays 1 forever after.
        assert_eq!(
            log.borrow().as_slice(),
            &[false, true, true, true, true, true]
        );
    }

    /// A register whose output `q` depends only on its own state and the
    /// stimulus `en`, plus an output `y = rdata & q` that is combinationally
    /// downstream of the device-driven input `rdata`.
    fn bus_netlist() -> (Netlist, Topology) {
        let mut n = Netlist::new("bus", Library::open15());
        let en = n.add_input("en");
        let rdata = n.add_input("rdata");
        let q = n.add_net("q");
        let d = n.add_cell_named("XOR2", "toggle", &[q, en], "d").unwrap();
        n.add_cell_to("DFF", "ff", &[d], q).unwrap();
        let y = n.add_cell_named("AND2", "gate", &[rdata, q], "y").unwrap();
        n.set_output(q);
        n.set_output(y);
        let topo = n.validate().unwrap();
        (n, topo)
    }

    /// Drives every declared input with the value of its first read.
    struct PortDevice(DevicePorts);

    impl<'n> SnapshotDevice<'n> for PortDevice {
        fn on_cycle(&mut self, sim: &mut Simulator<'n>) {
            let v = sim.value(self.0.reads[0]);
            for &net in &self.0.drives {
                sim.set_input(net, v);
            }
        }

        fn ports(&self) -> DevicePorts {
            self.0.clone()
        }

        fn state(&self) -> Vec<u64> {
            Vec::new()
        }

        fn load_state(&mut self, _: &[u64]) {}
    }

    /// Whether a bus testbench with one device reading `read` and driving
    /// `rdata` passes the transparency check.
    fn wide_with_device(read: &str) -> bool {
        let (n, topo) = bus_netlist();
        let mut tb = Testbench::new(&n, &topo);
        tb.drive(n.find_net("en").unwrap(), InputWave::constant(true));
        tb.attach_snapshot(Box::new(PortDevice(DevicePorts {
            reads: vec![n.find_net(read).unwrap()],
            drives: vec![n.find_net("rdata").unwrap()],
        })));
        tb.can_run_wide()
    }

    #[test]
    fn device_reading_an_output_upstream_of_its_drives_is_transparent() {
        assert!(wide_with_device("q"));
    }

    #[test]
    fn device_reading_a_non_output_net_is_not_transparent() {
        assert!(!wide_with_device("d"));
    }

    #[test]
    fn device_reading_an_output_downstream_of_its_drives_is_not_transparent() {
        assert!(!wide_with_device("y"));
    }

    #[test]
    fn opaque_device_is_not_transparent() {
        let (n, topo) = bus_netlist();
        let mut tb = Testbench::new(&n, &topo);
        tb.drive(n.find_net("en").unwrap(), InputWave::constant(true));
        assert!(tb.can_run_wide());
        tb.attach(Box::new(|_| {}));
        assert!(!tb.can_run_wide());
        assert!(!tb.can_checkpoint());
    }

    #[test]
    fn impure_stimuli_are_not_wide() {
        let (n, topo) = bus_netlist();
        let mut tb = Testbench::new(&n, &topo);
        tb.drive(
            n.find_net("en").unwrap(),
            InputWave::from_fn(|c| c % 2 == 0),
        );
        assert!(!tb.can_run_wide());
    }

    #[test]
    #[should_panic(expected = "declares that it drives `q`, which is not a primary input")]
    fn device_driving_a_non_input_is_rejected() {
        let (n, topo) = bus_netlist();
        let mut tb = Testbench::new(&n, &topo);
        tb.attach_snapshot(Box::new(PortDevice(DevicePorts {
            reads: vec![n.find_net("y").unwrap()],
            drives: vec![n.find_net("q").unwrap()],
        })));
    }

    #[test]
    fn debug_formats() {
        let (n, topo) = counter(2);
        let tb = Testbench::new(&n, &topo);
        assert!(format!("{tb:?}").contains("counter"));
        assert!(format!("{:?}", InputWave::constant(false)).contains("InputWave"));
    }
}

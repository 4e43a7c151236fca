//! Timing model of a Transputer-class machine.
//!
//! The paper's platform is a ring of T9000 Transputers driven by a 25 Hz
//! 512×512 video stream. We model time in integer nanoseconds with four
//! constants: CPU cycle time, per-message setup, per-byte link transfer
//! time, and per-hop store-and-forward overhead. The defaults below are
//! calibrated so that the tracking application reproduces the *shape* of the
//! paper's figures (≈30 ms tracking latency, ≈110 ms reinitialisation
//! latency on 8 processors); the tests of `skipper_apps::tracker_sim`
//! check that shape.

/// Virtual time in nanoseconds.
pub type Ns = u64;

/// One millisecond in [`Ns`].
pub const MS: Ns = 1_000_000;

/// One microsecond in [`Ns`].
pub const US: Ns = 1_000;

/// Cost constants of the simulated machine.
///
/// # Example
///
/// ```
/// use transvision::cost::CostModel;
/// let m = CostModel::t9000();
/// // Transferring a 64 KiB window over one link takes a fraction of a ms.
/// assert!(m.transfer_ns(65_536, 1) > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Nanoseconds per abstract CPU work unit (≈ one inner-loop operation).
    pub cycle_ns: f64,
    /// Fixed CPU overhead to initiate a message, ns.
    pub comm_setup_ns: Ns,
    /// Link transfer time per byte, ns (inverse bandwidth).
    pub ns_per_byte: f64,
    /// Extra latency per store-and-forward hop, ns.
    pub hop_ns: Ns,
    /// CPU overhead to consume a received message, ns.
    pub recv_overhead_ns: Ns,
}

impl CostModel {
    /// T9000-class constants: 20 MHz CPU (50 ns/cycle), ~10 MB/s links
    /// (100 ns/byte), 5 µs message setup, 2 µs per routing hop.
    pub fn t9000() -> Self {
        CostModel {
            cycle_ns: 50.0,
            comm_setup_ns: 5 * US,
            ns_per_byte: 100.0,
            hop_ns: 2 * US,
            recv_overhead_ns: 2 * US,
        }
    }

    /// An idealised machine with free communication — useful to isolate
    /// algorithmic behaviour from transport costs in tests.
    pub fn zero_comm() -> Self {
        CostModel {
            cycle_ns: 50.0,
            comm_setup_ns: 0,
            ns_per_byte: 0.0,
            hop_ns: 0,
            recv_overhead_ns: 0,
        }
    }

    /// A modern-workstation-like model (×100 faster CPU, ×100 faster links)
    /// used by the network-of-workstations experiments.
    pub fn workstation() -> Self {
        CostModel {
            cycle_ns: 0.5,
            comm_setup_ns: 20 * US,
            ns_per_byte: 1.0,
            hop_ns: US,
            recv_overhead_ns: 5 * US,
        }
    }

    /// Time to execute `units` abstract CPU work units.
    pub fn work_ns(&self, units: u64) -> Ns {
        (units as f64 * self.cycle_ns).round() as Ns
    }

    /// Pure wire time to move `bytes` across `hops` consecutive links
    /// (store-and-forward, uncontended), excluding the sender's setup cost.
    pub fn transfer_ns(&self, bytes: u64, hops: usize) -> Ns {
        if hops == 0 {
            return 0;
        }
        let per_link = (bytes as f64 * self.ns_per_byte).round() as Ns;
        per_link * hops as Ns + self.hop_ns * hops as Ns
    }

    /// Occupancy of a single link while carrying `bytes`.
    pub fn link_occupancy_ns(&self, bytes: u64) -> Ns {
        (bytes as f64 * self.ns_per_byte).round() as Ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::t9000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t9000_defaults_sane() {
        let m = CostModel::t9000();
        assert_eq!(m.work_ns(20), 1000);
        // 512x512 bytes over one link ≈ 26 ms at 100 ns/byte.
        let frame = 512 * 512;
        let t = m.transfer_ns(frame, 1);
        assert!(t > 20 * MS && t < 40 * MS, "frame transfer {t} ns");
    }

    #[test]
    fn transfer_scales_with_hops() {
        let m = CostModel::t9000();
        let one = m.transfer_ns(1000, 1);
        let three = m.transfer_ns(1000, 3);
        assert_eq!(three, 3 * one);
        assert_eq!(m.transfer_ns(1000, 0), 0);
    }

    #[test]
    fn zero_comm_is_free() {
        let m = CostModel::zero_comm();
        assert_eq!(m.transfer_ns(1 << 20, 5), 0);
        assert_eq!(m.comm_setup_ns, 0);
    }

    #[test]
    fn work_rounds() {
        let m = CostModel {
            cycle_ns: 0.4,
            ..CostModel::t9000()
        };
        assert_eq!(m.work_ns(5), 2);
    }
}

//! Machine cost and capacity parameters.
//!
//! The paper's testbed was a Cray-T3D: 64 MB per node, ~103 MFLOPS per
//! node with BLAS-3 DGEMM, and `SHMEM_PUT` RMA with 2.7 µs overhead at
//! 128 MB/s. [`MachineConfig::t3d`] reproduces those constants; all times
//! are in seconds and all sizes in *allocation units* (one unit = one
//! `f64` = 8 bytes).

use rapid_core::schedule::CostModel;

/// Cost/capacity model of the simulated distributed-memory machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors.
    pub nprocs: usize,
    /// Memory capacity per processor in allocation units, for data-object
    /// content (the paper's accounting excludes OS/kernel and dependence
    /// structures).
    pub capacity: u64,
    /// Floating-point rate used to turn task weights (flops) into seconds.
    pub flops: f64,
    /// Sender-side CPU overhead of one RMA put.
    pub put_overhead: f64,
    /// Network transfer time per allocation unit (8 bytes / bandwidth).
    pub per_unit_time: f64,
    /// Fixed cost of performing a MAP (entering the allocator, scanning
    /// the dead list).
    pub map_fixed_cost: f64,
    /// Cost of allocating or freeing one data object at a MAP.
    pub alloc_cost: f64,
    /// Cost of assembling and sending one address package.
    pub addr_pkg_cost: f64,
    /// Cost of reading one incoming address package (the RA operation).
    pub ra_cost: f64,
    /// Managed-mode cost per object access of a task: with active memory
    /// management every access indexes the volatile object through the
    /// run-time address tables instead of a precomputed direct pointer.
    pub addr_lookup_cost: f64,
    /// Managed-mode extra cost per message sent: the remote buffer
    /// address must be fetched from the learned-address table (the
    /// unmanaged baseline holds direct pointers exchanged once).
    pub msg_lookup_cost: f64,
}

impl MachineConfig {
    /// The Cray-T3D preset (paper §5).
    pub fn t3d(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            // 64 MB per node / 8 bytes per unit.
            capacity: 64 * 1024 * 1024 / 8,
            flops: 103.0e6,
            put_overhead: 2.7e-6,
            // 128 MB/s => 8 bytes take 62.5 ns.
            per_unit_time: 8.0 / 128.0e6,
            map_fixed_cost: 10.0e-6,
            alloc_cost: 2.0e-6,
            addr_pkg_cost: 5.0e-6,
            ra_cost: 2.0e-6,
            addr_lookup_cost: 1.0e-6,
            msg_lookup_cost: 8.0e-6,
        }
    }

    /// A unit-cost machine for algorithm tests: every task weight is one
    /// time unit, every message one unit, memory-management actions free.
    pub fn unit(nprocs: usize, capacity: u64) -> Self {
        MachineConfig {
            nprocs,
            capacity,
            flops: 1.0,
            put_overhead: 0.0,
            per_unit_time: 0.0,
            map_fixed_cost: 0.0,
            alloc_cost: 0.0,
            addr_pkg_cost: 0.0,
            ra_cost: 0.0,
            addr_lookup_cost: 0.0,
            msg_lookup_cost: 0.0,
        }
    }

    /// Override the per-processor capacity.
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    /// The network/cost model seen by the schedulers, whose task weights
    /// are flops: message latency is the put overhead and the cost per
    /// unit the inverse bandwidth, both in flops at this machine's rate.
    /// Under [`MachineConfig::unit`] this becomes the paper's unit model
    /// (latency 1, no size term).
    pub fn cost_model(&self) -> CostModel {
        if self.flops == 1.0 {
            return CostModel::unit();
        }
        CostModel {
            latency: self.put_overhead * self.flops,
            per_unit: self.per_unit_time * self.flops,
        }
    }

    /// Seconds needed to execute a task of `weight` flops.
    #[inline]
    pub fn task_time(&self, weight: f64) -> f64 {
        weight / self.flops
    }

    /// Wire time of a message of `units` allocation units.
    #[inline]
    pub fn transfer_time(&self, units: u64) -> f64 {
        self.put_overhead + self.per_unit_time * units as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3d_constants() {
        let c = MachineConfig::t3d(16);
        assert_eq!(c.capacity, 8 * 1024 * 1024);
        assert!((c.task_time(103.0e6) - 1.0).abs() < 1e-9);
        // A 1 MiB message at 128 MB/s takes ~8.2 ms plus overhead.
        let units = 1024 * 1024 / 8;
        let t = c.transfer_time(units);
        assert!((t - (2.7e-6 + units as f64 * 8.0 / 128.0e6)).abs() < 1e-12);
        assert!(t > 8.0e-3 && t < 9.0e-3);
        // The schedulers see the same wire in flops at 103 Mflop/s.
        let cost = c.cost_model();
        assert!((cost.latency - 278.1).abs() < 1e-9, "{cost:?}");
        assert!((cost.per_unit - 6.4375).abs() < 1e-12, "{cost:?}");
    }

    #[test]
    fn unit_preset_is_free() {
        let c = MachineConfig::unit(4, 100);
        assert_eq!(c.cost_model(), CostModel::unit());
        assert_eq!(c.task_time(3.0), 3.0);
        assert_eq!(c.transfer_time(1000), 0.0);
        assert_eq!(c.with_capacity(7).capacity, 7);
    }
}

// Memory-tier performance/capacity descriptions.
//
// The paper (Table 1, from the UCSD NVMDB survey) characterizes candidate
// NVM technologies by read/write latency and random read/write bandwidth.
// Its evaluation then sweeps NVM as *ratios* of DRAM: 1/2..1/8 bandwidth and
// 2x..8x latency (Quartz can emulate one axis at a time), plus a NUMA-based
// emulation with 0.6x bandwidth and 1.89x latency used on Edison.
//
// We model a tier with four numbers (read/write latency, read/write
// bandwidth) and provide both the published Table 1 presets and the
// ratio-derived configurations the evaluation actually uses.
//
// Beyond the paper's DRAM+NVM pair, a TopologyConfig describes an ordered
// N-tier machine (HBM above DRAM, CXL-attached far memory, remote-node
// pools).  parse_topology() builds one from a "name:capacity,..." spec over
// a fixed table of five presets — dram, hbm, cxl, nvm and remote, each one
// of the TierConfig factories below — which is what `unimem_sweep --tiers`
// accepts.  A new tier kind is a new factory and a new row of that table.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.h"

namespace unimem::mem {

struct TierConfig {
  std::string name;
  std::size_t capacity_bytes = 0;
  double read_latency_s = 0;   ///< per-cacheline load-to-use latency
  double write_latency_s = 0;  ///< per-cacheline write latency
  double read_bw = 0;          ///< sustained read bandwidth (bytes/s)
  double write_bw = 0;         ///< sustained write bandwidth (bytes/s)

  /// DRAM basis used throughout the evaluation.  Absolute values are a
  /// plausible single-socket DDR4 operating point; only the *ratios* of the
  /// NVM configurations below matter for the reproduced results.
  static TierConfig dram_basis(std::size_t capacity) {
    return TierConfig{"DRAM", capacity, unimem::ns(80), unimem::ns(80),
                      unimem::gbps(12.8), unimem::gbps(9.6)};
  }

  /// NVM derived from the DRAM basis by scaling bandwidth down by
  /// `bw_ratio` (e.g. 0.5 = "1/2 DRAM bandwidth") and latency up by
  /// `lat_mult` (e.g. 4.0 = "4x DRAM latency").  The paper's Quartz setup
  /// changes one axis at a time; pass 1.0 for the axis left untouched.
  static TierConfig nvm_scaled(std::size_t capacity, double bw_ratio,
                               double lat_mult) {
    TierConfig d = dram_basis(capacity);
    return TierConfig{"NVM", capacity, d.read_latency_s * lat_mult,
                      d.write_latency_s * lat_mult, d.read_bw * bw_ratio,
                      d.write_bw * bw_ratio};
  }

  /// NUMA-emulated NVM used for the strong-scaling tests on Edison:
  /// "the emulated NVM has 60% of DRAM bandwidth and 1.89x of DRAM latency".
  static TierConfig nvm_numa_emulated(std::size_t capacity) {
    return nvm_scaled(capacity, 0.60, 1.89);
  }

  /// On-package high-bandwidth memory above DRAM (MCDRAM/HBM2-class): ~4x
  /// DRAM bandwidth at slightly worse load-to-use latency.
  static TierConfig hbm(std::size_t capacity) {
    return TierConfig{"HBM", capacity, unimem::ns(100), unimem::ns(100),
                      unimem::gbps(51.2), unimem::gbps(38.4)};
  }

  /// CXL-attached far memory: the protocol hop costs ~3x DRAM latency and
  /// the link sustains about half the local bandwidth.
  static TierConfig cxl(std::size_t capacity) {
    return TierConfig{"CXL", capacity, unimem::ns(250), unimem::ns(250),
                      unimem::gbps(6.4), unimem::gbps(4.8)};
  }

  /// Remote-node memory reached over the fabric (RDMA-class): microsecond
  /// latency, a few GB/s of sustained bandwidth.
  static TierConfig remote(std::size_t capacity) {
    return TierConfig{"remote", capacity, unimem::ns(1500), unimem::ns(1500),
                      unimem::gbps(2.5), unimem::gbps(2.5)};
  }
};

/// An ordered multi-tier machine.  Index 0 is the fastest tier (initial
/// placement promotes there); the LAST tier is the unconstrained backstop
/// where every object starts and evictions land — the role NVM plays in the
/// paper's two-tier machine.  `tiers.size() >= 2` always.
struct TopologyConfig {
  std::vector<TierConfig> tiers;

  std::size_t num_tiers() const { return tiers.size(); }

  /// Paper machine as a topology: {DRAM, NVM}.
  static TopologyConfig dram_nvm(TierConfig dram, TierConfig nvm) {
    return TopologyConfig{{std::move(dram), std::move(nvm)}};
  }
};

/// Parse a topology spec "name:capacity,name:capacity,..." — e.g.
/// "hbm:1MiB,dram:4MiB,nvm:512MiB" — into an ordered TopologyConfig.  Names
/// are the presets "dram" (dram_basis), "hbm", "cxl", "nvm" (nvm_scaled at
/// 1/2 bandwidth and 4x latency) and "remote".  Capacities accept
/// KiB/MiB/GiB suffixes (or plain bytes).  Order is fastest-first; the last
/// entry is the backstop tier.  Throws std::invalid_argument on unknown
/// names (the message lists the five), bad capacities, or fewer than two
/// tiers.
TopologyConfig parse_topology(const std::string& spec);

/// A published NVM technology data point (paper Table 1).  Latencies and
/// bandwidths are ranges for PCRAM/ReRAM; lo == hi for point values.
struct NvmTechnology {
  std::string name;
  double read_ns_lo, read_ns_hi;
  double write_ns_lo, write_ns_hi;
  double rand_read_mbps_lo, rand_read_mbps_hi;
  double rand_write_mbps_lo, rand_write_mbps_hi;
};

/// The four rows of Table 1.
const NvmTechnology* table1_technologies(std::size_t* count);

}  // namespace unimem::mem

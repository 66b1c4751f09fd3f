// Table 1: NVM performance characteristics (from the NVMDB survey), plus
// the derived simulator tier configurations used across the evaluation.
#include "experiments/report.h"
#include "simmem/tier_config.h"

int main() {
  using namespace unimem;
  exp::Report rep("Table 1: NVM performance characteristics vs DRAM");
  rep.set_header({"technology", "read (ns)", "write (ns)",
                  "rand read BW (MB/s)", "rand write BW (MB/s)"});
  std::size_t n = 0;
  const mem::NvmTechnology* t = mem::table1_technologies(&n);
  auto range = [](double lo, double hi) {
    return lo == hi ? exp::Report::num(lo, 0)
                    : exp::Report::num(lo, 0) + "-" + exp::Report::num(hi, 0);
  };
  for (std::size_t i = 0; i < n; ++i)
    rep.add_row({t[i].name, range(t[i].read_ns_lo, t[i].read_ns_hi),
                 range(t[i].write_ns_lo, t[i].write_ns_hi),
                 range(t[i].rand_read_mbps_lo, t[i].rand_read_mbps_hi),
                 range(t[i].rand_write_mbps_lo, t[i].rand_write_mbps_hi)});
  rep.print();

  exp::Report rep2("Derived evaluation tiers (DRAM basis + ratio sweeps)");
  rep2.set_header({"tier", "read lat (ns)", "read BW (GB/s)"});
  auto row = [&](const char* name, const mem::TierConfig& c) {
    rep2.add_row({name, exp::Report::num(c.read_latency_s * 1e9, 0),
                  exp::Report::num(c.read_bw / 1e9, 1)});
  };
  row("DRAM basis", mem::TierConfig::dram_basis(0));
  row("NVM 1/2 BW", mem::TierConfig::nvm_scaled(0, 0.5, 1.0));
  row("NVM 1/8 BW", mem::TierConfig::nvm_scaled(0, 0.125, 1.0));
  row("NVM 4x lat", mem::TierConfig::nvm_scaled(0, 1.0, 4.0));
  row("NUMA-emulated (Edison)", mem::TierConfig::nvm_numa_emulated(0));
  rep2.print();
  return 0;
}

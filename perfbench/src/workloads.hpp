// The benchmark's four workloads. Each RunRep call builds the workload's
// devices from scratch (timed as set-up), runs a fixed amount of
// simulated work in a timed phase split into epochs, checks the
// simulated outputs outside the timed phase, and digests every simulated
// result so repetitions (and traced vs untraced runs) can be compared.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Quantile q in [0,1] of `v`, linearly interpolated between order
/// statistics (0 for an empty sample).
double Quantile(std::vector<double> v, double q);

struct RepResult {
  bool ok = true;       ///< False on an unexpected error or a failed output check.
  std::string error;    ///< What failed, when !ok.
  /// A known device defect that ended the run early (zns_write_cut's
  /// remount failure): the cut index and the status Recover returned.
  std::string defect;

  double setup_s = 0;         ///< Host time of construction + preconditioning + mount.
  double timed_s = 0;         ///< Host time of the timed phase.
  std::uint64_t planned = 0;  ///< Operations the timed phase plans.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;   ///< Planned operations that did not complete.
  std::vector<double> epoch_ns_per_op;  ///< Host ns per completed op, per epoch.
  std::vector<double> epoch_ops;        ///< Completed ops per epoch (simulated).
  std::vector<double> remount_ns;       ///< Host ns per PowerCut + Recover.
  std::vector<double> powercut_ns;
  std::vector<double> recover_ns;

  /// Simulated (deterministic) metrics, by per-layer metric name.
  std::map<std::string, double> model;
  std::uint64_t digest = 0;
};

const std::vector<std::string>& WorkloadNames();

/// Run one repetition of `workload`. With a tracer, a TracedDevice sits
/// at every device boundary and the timed phase records spans.
RepResult RunRep(const std::string& workload, std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench

// perfbench — host-time cost of the emulator on four consumer-storage
// workloads (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// The run repeats the workload's fixed simulated work (one "rep": set-up,
// timed phase, output check) until the timed phases add up to --seconds.
// Every rep must produce the same simulated digest. With --trace 0 the
// last stdout line is a JSON object with the end-to-end metrics; with
// --trace 1 half the time runs untraced and half traced (a TracedDevice
// at every device boundary), both halves must agree on the digest, and
// the JSON carries the per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// In BENCHMARK.json order; the JSON line carries exactly these.
constexpr MetricDef kEndToEnd[] = {
    {"sim_ios_per_s", "IO/s"},
    {"epoch_ns_per_io_p50", "ns"},
    {"epoch_ns_per_io_p90", "ns"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

// Host times per unit of work are "ns/<unit>"; simulated times carry a
// "sim_" unit, so the two are never confused.
constexpr MetricDef kPerLayer[] = {
    {"workload.self_ns_per_io", "ns/io"},
    {"sim.events_per_io", "count"},
    {"cache.self_ns_per_op", "ns/op"},
    {"cache.device_calls_per_op", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_kop", "count"},
    {"cache.migrated_slots_per_kop", "count"},
    {"host.self_ns_per_call", "ns/call"},
    {"host.member_calls_per_call", "count"},
    {"host.reconstructed_units_per_read", "count"},
    {"device.read_ns_per_call", "ns/call"},
    {"device.write_ns_per_call", "ns/call"},
    {"device.reset_ns_per_call", "ns/call"},
    {"device.flush_ns_per_call", "ns/call"},
    {"ftl.l2p_miss_ratio", "ratio"},
    {"ftl.map_fetches_per_miss", "count"},
    {"ftl.cache_inserts_per_miss", "count"},
    {"ftl.cache_evictions_per_miss", "count"},
    {"ftl.log_flushes_per_kwrite", "count"},
    {"buffer.conflict_ratio", "ratio"},
    {"buffer.premature_flush_ratio", "ratio"},
    {"gc.slc_runs_per_kwrite", "count"},
    {"gc.slc_slots_migrated_per_host_slot", "ratio"},
    {"gc.conv_slots_migrated_per_host_slot", "ratio"},
    {"slc.fold_slots_per_host_slot", "ratio"},
    {"flash.page_reads_per_io", "count"},
    {"flash.programmed_slots_per_host_slot", "ratio"},
    {"flash.erases_per_kwrite", "count"},
    {"zns.resets_per_kwrite", "count"},
    {"recovery.recover_ns_p50", "ns/cut"},
    {"recovery.powercut_ns_p50", "ns/cut"},
    {"recovery.pages_scanned_per_remount", "count"},
    {"recovery.pages_skipped_ratio", "ratio"},
    {"recovery.checkpoint_mount_ratio", "ratio"},
    {"sim.kiops", "kIO/sim_s"},
    {"sim.read_lat_p50_us", "sim_us"},
    {"sim.read_lat_p99_us", "sim_us"},
    {"sim.write_lat_p99_us", "sim_us"},
    {"sim.waf", "ratio"},
    {"sim.remount_ms_p50", "sim_ms"},
    {"trace.overhead_pct", "%"},
};

/// Reps run until their timed phases reach the budget; no new rep starts
/// once this much wall time has passed (the run must end within 180 s).
constexpr double kWallCapS = 100.0;

struct Phase {
  std::vector<RepResult> reps;
  double timed_s = 0;
  std::uint64_t completed = 0;

  std::vector<double> Collect(std::vector<double> RepResult::*field) const {
    std::vector<double> all;
    for (const RepResult& r : reps) all.insert(all.end(), (r.*field).begin(), (r.*field).end());
    return all;
  }
};

Phase RunPhase(const std::string& workload, std::uint64_t seed, double budget_s,
               Tracer* tracer, std::chrono::steady_clock::time_point wall0) {
  Phase p;
  do {
    p.reps.push_back(RunRep(workload, seed, tracer));
    const RepResult& r = p.reps.back();
    std::printf("rep %zu%s: setup %.4f s, timed %.4f s, %" PRIu64 " ops, %.6g ops/s\n",
                p.reps.size(), tracer != nullptr ? " (traced)" : "", r.setup_s, r.timed_s,
                r.completed, r.timed_s > 0 ? static_cast<double>(r.completed) / r.timed_s : 0.0);
    p.timed_s += r.timed_s;
    p.completed += r.completed;
    // A rep that failed or hit the known defect is still a complete,
    // deterministic measurement; only an error stops the phase early.
    if (!r.ok) break;
  } while (p.timed_s < budget_s &&
           std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count() <
               kWallCapS);
  return p;
}

/// Host cost of each epoch of the workload's fixed simulated work. Every
/// rep runs the same epochs (the digest proves it), so epoch k of one rep
/// is the same work as epoch k of any other. Its cost is the
/// kRepQuantile-quantile over the reps of its host ns per op, and the
/// run's figures are taken over these per-epoch costs, so every epoch,
/// cheap or GC-heavy, counts once.
///
/// The quantile is high on purpose. On a shared host the same epoch
/// runs in one of two regimes: slower (1.7x on a 4-vCPU Xeon VM) while
/// neighbours contend for the last-level cache and memory, faster while
/// they are idle. How much of a run each regime covers drifts over minutes, so a
/// median over reps or epochs flips between the two; the contended
/// regime is present in nearly every run and its level is steady, and
/// p90 over reps settles on it. A change that makes an epoch cheaper
/// moves its cost in either regime.
constexpr double kRepQuantile = 0.9;

struct EpochCosts {
  std::vector<double> ns_per_op;  ///< Per epoch position.
  double ops = 0;                 ///< Ops over all positions.
  double ns = 0;                  ///< Host ns over all positions.

  double OpsPerS() const { return ns > 0 ? 1e9 * ops / ns : 0.0; }
};

EpochCosts CostPerEpoch(const Phase& p) {
  EpochCosts c;
  std::size_t n = 0;
  for (const RepResult& r : p.reps) {
    if (r.ok) n = n == 0 ? r.epoch_ops.size() : std::min(n, r.epoch_ops.size());
  }
  std::vector<double> samples;
  for (std::size_t k = 0; k < n; ++k) {
    samples.clear();
    double ops = 0;
    for (const RepResult& r : p.reps) {
      if (!r.ok) continue;
      samples.push_back(r.epoch_ns_per_op[k]);
      ops = r.epoch_ops[k];
    }
    const double cost = Quantile(samples, kRepQuantile);
    c.ns_per_op.push_back(cost);
    c.ops += ops;
    c.ns += cost * ops;
  }
  return c;
}

/// Peak resident memory of this process image. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the parent's peak across
/// fork + exec, so it is this workload's alone.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void PrintRow(const char* name, double v, const char* unit) {
  std::printf("  %-40s %16.6g %s\n", name, v, unit);
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<std::pair<const MetricDef*, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first->name, metrics[i].second, metrics[i].first->unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--trace-out <file>]\nworkloads:");
  for (const std::string& w : WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    return Usage();
  }
  const std::string workload = args["--workload"];
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == workload;
  if (!known) return Usage();
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), &end, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const bool trace = args["--trace"] == "1";
  if (*end != '\0' || !(seconds > 0)) return Usage();

  const auto wall0 = std::chrono::steady_clock::now();
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", workload.c_str(), seed,
              seconds, trace ? 1 : 0);

  // Untraced reps give every end-to-end number (and, traced, the
  // overhead baseline); traced reps give the per-layer table.
  Phase plain = RunPhase(workload, seed, trace ? seconds / 2 : seconds, nullptr, wall0);
  const double peak_rss = PeakRssMiB();
  Tracer tracer(/*keep=*/200000);
  Phase traced;
  if (trace && plain.reps.back().ok) {
    traced = RunPhase(workload, seed, seconds / 2, &tracer, wall0);
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  const RepResult& first = plain.reps.front();
  for (const Phase* p : {&plain, &traced}) {
    for (const RepResult& r : p->reps) {
      attempted += r.planned;
      failed += r.failed;
      if (!r.ok) {
        correct = false;
        std::printf("ERROR: %s\n", r.error.c_str());
      } else if (r.digest != first.digest) {
        correct = false;
        std::printf("ERROR: digest %016" PRIx64 " differs from the first rep's %016" PRIx64
                    " (%s rep)\n",
                    r.digest, first.digest, p == &plain ? "untraced" : "traced");
      }
    }
  }
  if (!first.defect.empty()) {
    correct = false;
    std::printf("DEFECT: %s\n", first.defect.c_str());
  }
  if (attempted == 0) attempted = 1;

  const EpochCosts costs = CostPerEpoch(plain);
  const double rate = costs.OpsPerS();
  std::vector<double> setups;
  for (const RepResult& r : plain.reps) setups.push_back(r.setup_s);
  const double op_error_rate = static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("digest %s %" PRIu64 " %016" PRIx64 "\n", workload.c_str(), seed, first.digest);
  std::printf("untraced: %zu reps, %.3f s timed, %" PRIu64 " ops, %zu epochs per rep\n",
              plain.reps.size(), plain.timed_s, plain.completed, costs.ns_per_op.size());
  std::printf("end-to-end (host time, untraced):\n");
  std::vector<std::pair<const MetricDef*, double>> e2e;
  const double e2e_values[] = {rate, Quantile(costs.ns_per_op, 0.5),
                               Quantile(costs.ns_per_op, 0.9), Quantile(setups, 0.5), peak_rss};
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    e2e.emplace_back(&kEndToEnd[i], e2e_values[i]);
    PrintRow(kEndToEnd[i].name, e2e_values[i], kEndToEnd[i].unit);
  }
  PrintRow("op_error_rate", op_error_rate, "ratio");
  if (workload == "zns_write_cut") {
    PrintRow("remount_ms_p50", Quantile(plain.Collect(&RepResult::remount_ns), 0.5) / 1e6,
             "ms");
  }

  if (!trace) {
    PrintJson(correct, attempted, failed, e2e);
    return 0;
  }

  // Per-layer table from the traced reps.
  std::map<std::string, double> v;
  for (const MetricDef& m : kPerLayer) v[m.name] = 0.0;
  for (const auto& [name, value] : first.model) v[name] = value;
  const double ops = static_cast<double>(traced.completed);
  auto per = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const Tracer::Agg host = tracer.LayerTotal(Layer::kHost);
  const Tracer::Agg device = tracer.LayerTotal(Layer::kDevice);
  const Tracer::Agg cache = tracer.LayerTotal(Layer::kCache);
  v["workload.self_ns_per_io"] =
      per(static_cast<double>(tracer.LayerTotal(Layer::kWorkload).self_ns), ops);
  v["cache.self_ns_per_op"] = per(static_cast<double>(cache.self_ns), ops);
  if (cache.calls > 0) v["cache.device_calls_per_op"] = per(static_cast<double>(host.calls), ops);
  v["host.self_ns_per_call"] = per(static_cast<double>(host.self_ns), static_cast<double>(host.calls));
  if (host.calls > 0) {
    v["host.member_calls_per_call"] =
        per(static_cast<double>(device.calls), static_cast<double>(host.calls));
  }
  const std::pair<const char*, Op> dev_ops[] = {{"device.read_ns_per_call", Op::kRead},
                                                {"device.write_ns_per_call", Op::kWrite},
                                                {"device.reset_ns_per_call", Op::kReset},
                                                {"device.flush_ns_per_call", Op::kFlush}};
  for (const auto& [name, op] : dev_ops) {
    const Tracer::Agg& a = tracer.agg(Layer::kDevice, op);
    v[name] = per(static_cast<double>(a.total_ns), static_cast<double>(a.calls));
  }
  v["recovery.recover_ns_p50"] = Quantile(traced.Collect(&RepResult::recover_ns), 0.5);
  v["recovery.powercut_ns_p50"] = Quantile(traced.Collect(&RepResult::powercut_ns), 0.5);
  const double traced_rate = CostPerEpoch(traced).OpsPerS();
  v["trace.overhead_pct"] = rate > 0 ? 100.0 * (rate - traced_rate) / rate : 0.0;

  std::printf("traced: %zu reps, %.3f s timed, %" PRIu64 " ops, %" PRIu64
              " spans, sim_ios_per_s %.6g\n",
              traced.reps.size(), traced.timed_s, traced.completed, tracer.spans(), traced_rate);
  std::printf("per-layer (traced run; sim.* and counter ratios are simulated):\n");
  std::vector<std::pair<const MetricDef*, double>> layer;
  for (const MetricDef& m : kPerLayer) {
    layer.emplace_back(&m, v[m.name]);
    PrintRow(m.name, v[m.name], m.unit);
  }
  std::printf("layer self time (ns per call):\n");
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    for (std::size_t o = 0; o < kNumOps; ++o) {
      const Tracer::Agg& a = tracer.agg(static_cast<Layer>(l), static_cast<Op>(o));
      if (a.calls == 0) continue;
      std::printf("  %-9s %-9s calls=%-10" PRIu64 " total=%12.1f self=%12.1f\n",
                  LayerName(static_cast<Layer>(l)), OpName(static_cast<Op>(o)), a.calls,
                  per(static_cast<double>(a.total_ns), static_cast<double>(a.calls)),
                  per(static_cast<double>(a.self_ns), static_cast<double>(a.calls)));
    }
  }
  if (args.count("--trace-out")) {
    if (!tracer.WriteChromeTrace(args["--trace-out"])) {
      std::printf("ERROR: cannot write %s\n", args["--trace-out"].c_str());
      correct = false;
    } else {
      std::printf("spans written to %s\n", args["--trace-out"].c_str());
    }
  }
  PrintJson(correct, attempted, failed, layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

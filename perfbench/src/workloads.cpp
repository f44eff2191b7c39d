#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <functional>
#include <memory>

#include "conzone/conzone.hpp"

namespace perfbench {

using namespace conzone;

namespace {

using Clock = std::chrono::steady_clock;

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

constexpr std::uint64_t kPage = 4 * kKiB;

class Digest {
 public:
  void Add(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001B3ull; }
  void Add(double d) { Add(std::bit_cast<std::uint64_t>(d)); }
  void Add(const std::string& s) {
    for (const char c : s) Add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// --- Device counters, summed over a workload's concrete devices -------

enum Ctr : std::size_t {
  kHostBytesW,
  kFlashBytesW,
  kWrites,
  kZoneResets,
  kBufFlushes,
  kPrematureFlushes,
  kConflictFlushes,
  kFoldSlots,
  kConvGcMigrated,
  kSlcGcRuns,
  kSlcGcMigrated,
  kTranslations,
  kTranslatorHits,
  kMapFetches,
  kL2pInserts,
  kL2pEvictions,
  kLogFlushes,
  kPageReads,
  kSlotsProgrammed,
  kErases,
  kPagesScanned,
  kPagesSkipped,
  kCheckpointLoads,
  kPowerCuts,
  kNumCtr,
};
using Counters = std::array<std::uint64_t, kNumCtr>;

void AddCommon(Counters& c, const StatsSnapshot& s, const TranslatorStats& tr,
               const L2pCacheStats& l2p, const MediaCounters& m) {
  c[kHostBytesW] += s.host_bytes_written;
  c[kFlashBytesW] += s.flash_bytes_written;
  c[kWrites] += s.writes;
  c[kZoneResets] += s.zone_resets;
  c[kTranslations] += tr.translations;
  c[kTranslatorHits] += tr.cache_hits;
  c[kMapFetches] += tr.map_fetches;
  c[kL2pInserts] += l2p.insertions;
  c[kL2pEvictions] += l2p.evictions;
  c[kPageReads] += m.page_reads;
  c[kSlotsProgrammed] += m.TotalSlotsProgrammed();
  c[kErases] += m.erases_slc + m.erases_normal;
}

void Add(Counters& c, const ConZoneDevice& d) {
  AddCommon(c, d.Stats(), d.translator().stats(), d.l2p_cache().stats(),
            d.media_counters());
  const ConZoneStats& s = d.stats();
  c[kBufFlushes] += s.flushes;
  c[kPrematureFlushes] += s.premature_flushes;
  c[kConflictFlushes] += s.conflict_flushes;
  c[kFoldSlots] += s.fold_slots_read;
  c[kConvGcMigrated] += s.conventional_gc_migrated;
  c[kSlcGcRuns] += d.gc().stats().runs;
  c[kSlcGcMigrated] += d.gc().stats().slots_migrated;
  c[kLogFlushes] += d.l2p_log().stats().flushes;
  const RecoveryStats& r = d.recovery_stats();
  c[kPagesScanned] += r.pages_scanned;
  c[kPagesSkipped] += r.pages_skipped;
  c[kCheckpointLoads] += r.checkpoint_loaded;
  c[kPowerCuts] += r.power_cuts;
}

void Add(Counters& c, const LegacyDevice& d) {
  AddCommon(c, d.Stats(), d.translator().stats(), d.l2p_cache().stats(),
            d.media_counters());
  const LegacyStats& s = d.stats();
  c[kBufFlushes] += s.flushes;
  c[kPrematureFlushes] += s.premature_flushes;
  // Legacy runs one greedy GC over its page-mapped in-place space: the
  // counterpart of ConZone's conventional-zone GC.
  c[kConvGcMigrated] += s.gc_slots_migrated;
}

template <typename Dev>
Counters Collect(const std::vector<const Dev*>& devs) {
  Counters c{};
  for (const Dev* d : devs) Add(c, *d);
  return c;
}

Counters Minus(const Counters& a, const Counters& b) {
  Counters d{};
  for (std::size_t i = 0; i < kNumCtr; ++i) d[i] = a[i] - b[i];
  return d;
}

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }
double Div(std::uint64_t a, std::uint64_t b) {
  return Div(static_cast<double>(a), static_cast<double>(b));
}

/// Per-layer model metrics derived from the timed phase's counter delta.
/// `ops` is the workload's completed operations (IOs or cache ops).
void AddCounterModel(std::map<std::string, double>& m, const Counters& d,
                     std::uint64_t ops) {
  const std::uint64_t misses = d[kTranslations] - d[kTranslatorHits];
  const double host_slots = static_cast<double>(d[kHostBytesW] / kPage);
  const double kwrites = static_cast<double>(d[kWrites]) / 1000.0;
  m["ftl.l2p_miss_ratio"] = Div(misses, d[kTranslations]);
  m["ftl.map_fetches_per_miss"] = Div(d[kMapFetches], misses);
  m["ftl.cache_inserts_per_miss"] = Div(d[kL2pInserts], misses);
  m["ftl.cache_evictions_per_miss"] = Div(d[kL2pEvictions], misses);
  m["ftl.log_flushes_per_kwrite"] = Div(static_cast<double>(d[kLogFlushes]), kwrites);
  m["buffer.conflict_ratio"] = Div(d[kConflictFlushes], d[kBufFlushes]);
  m["buffer.premature_flush_ratio"] = Div(d[kPrematureFlushes], d[kBufFlushes]);
  m["gc.slc_runs_per_kwrite"] = Div(static_cast<double>(d[kSlcGcRuns]), kwrites);
  m["gc.slc_slots_migrated_per_host_slot"] =
      Div(static_cast<double>(d[kSlcGcMigrated]), host_slots);
  m["gc.conv_slots_migrated_per_host_slot"] =
      Div(static_cast<double>(d[kConvGcMigrated]), host_slots);
  m["slc.fold_slots_per_host_slot"] = Div(static_cast<double>(d[kFoldSlots]), host_slots);
  m["flash.page_reads_per_io"] = Div(d[kPageReads], ops);
  m["flash.programmed_slots_per_host_slot"] =
      Div(static_cast<double>(d[kSlotsProgrammed]), host_slots);
  m["flash.erases_per_kwrite"] = Div(static_cast<double>(d[kErases]), kwrites);
  m["zns.resets_per_kwrite"] = Div(static_cast<double>(d[kZoneResets]), kwrites);
  // Per remount attempt: a Recover that fails still scanned and loaded.
  m["recovery.pages_scanned_per_remount"] = Div(d[kPagesScanned], d[kPowerCuts]);
  m["recovery.pages_skipped_ratio"] =
      Div(d[kPagesSkipped], d[kPagesScanned] + d[kPagesSkipped]);
  m["recovery.checkpoint_mount_ratio"] = Div(d[kCheckpointLoads], d[kPowerCuts]);
  m["sim.waf"] = Div(d[kFlashBytesW], d[kHostBytesW]);
}

/// FIO-level model metrics: simulated rate, latency percentiles, events.
void AddRunModel(std::map<std::string, double>& m, const std::vector<JobSpec>& jobs,
                 const RunResult& run) {
  LatencyHistogram rd, wr;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    (jobs[i].direction == IoDirection::kRead ? rd : wr).Merge(run.jobs[i].latency);
  }
  m["sim.kiops"] = run.Kiops();
  m["sim.read_lat_p50_us"] = rd.count() ? rd.Percentile(0.5).us() : 0.0;
  m["sim.read_lat_p99_us"] = rd.count() ? rd.Percentile(0.99).us() : 0.0;
  m["sim.write_lat_p99_us"] = wr.count() ? wr.Percentile(0.99).us() : 0.0;
  m["sim.events_per_io"] = Div(run.events, run.total.ops);
}

void DigestRun(Digest& dg, const RunResult& run) {
  for (const JobResult& j : run.jobs) {
    dg.Add(j.name);
    dg.Add(j.throughput.bytes);
    dg.Add(j.throughput.ops);
    dg.Add(j.throughput.elapsed.ns());
    dg.Add(j.latency.count());
    dg.Add(j.latency.mean().ns());
    dg.Add(j.latency.Percentile(0.5).ns());
    dg.Add(j.latency.Percentile(0.99).ns());
    dg.Add(j.latency.max().ns());
    dg.Add(j.first_issue.ns());
    dg.Add(j.last_completion.ns());
    dg.Add(j.io_errors);
  }
  dg.Add(run.end_time.ns());
  dg.Add(run.events);
}

/// The simulated outputs every workload digests at the end of a rep:
/// the model metrics, the counter delta and the device's StatsSnapshot.
void DigestOutputs(Digest& dg, const RepResult& r, const Counters& delta,
                   const StatsSnapshot& snap) {
  for (const auto& [name, v] : r.model) {
    dg.Add(name);
    dg.Add(v);
  }
  for (const std::uint64_t v : delta) dg.Add(v);
  for (const std::uint64_t v :
       {snap.host_bytes_written, snap.host_bytes_read, snap.flash_bytes_written,
        snap.writes, snap.reads, snap.zone_resets, snap.host_flushes,
        snap.buffer_flushes, snap.premature_flushes, snap.overwrites, snap.gc_runs,
        snap.gc_slots_migrated}) {
    dg.Add(v);
  }
  for (std::size_t c = 0; c < kNumIoClasses; ++c) {
    dg.Add(snap.class_reads[c]);
    dg.Add(snap.class_writes[c]);
  }
  dg.Add(r.defect);
}

// --- Explicit data tokens, so set-up data can be read back and checked --

std::uint64_t Token(std::uint64_t seed, std::uint64_t lpn, std::uint64_t version) {
  return MixSeeds(seed ^ 0x70657266ull /*"perf"*/, lpn, version) | 1ull;
}

/// Sequentially write [offset, offset+len) in 512 KiB requests whose
/// pages carry token_of(lpn); returns the completion of the last write.
Result<SimTime> FillWithTokens(StorageDevice& dev, std::uint64_t offset, std::uint64_t len,
                               SimTime t,
                               const std::function<std::uint64_t(std::uint64_t)>& token_of) {
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t off = offset; off < offset + len; off += 512 * kKiB) {
    const std::uint64_t n = std::min<std::uint64_t>(512 * kKiB, offset + len - off);
    tokens.resize(n / kPage);
    for (std::uint64_t i = 0; i < tokens.size(); ++i) tokens[i] = token_of(off / kPage + i);
    auto w = dev.Write(IoRequest{off, n, t, tokens});
    if (!w.ok()) return w.status();
    t = w.value().done;
  }
  return t;
}

/// Read page `lpn` back with want_tokens and compare it with `want`.
Status CheckPage(StorageDevice& dev, std::uint64_t lpn, std::uint64_t want, SimTime* t) {
  IoRequest req{lpn * kPage, kPage, *t};
  req.want_tokens = true;
  auto r = dev.Read(req);
  if (!r.ok()) return r.status();
  *t = r.value().done;
  if (r.value().tokens.size() != 1 || r.value().tokens[0] != want) {
    return Status::Internal("read-back of lpn " + std::to_string(lpn) +
                            " returned the wrong token");
  }
  return Status::Ok();
}

JobSpec RandomJob(std::string name, IoDirection dir, std::uint64_t offset,
                  std::uint64_t size, std::uint64_t ios, std::uint32_t iodepth,
                  std::uint64_t seed) {
  JobSpec s;
  s.name = std::move(name);
  s.pattern = IoPattern::kRandom;
  s.direction = dir;
  s.block_size = kPage;
  s.region_offset = offset;
  s.region_size = size;
  s.io_count = ios;
  s.iodepth = iodepth;
  s.seed = seed;
  return s;
}

// --- The timed phase of the FIO workloads -------------------------------

struct Slicing {
  SimDuration epoch;  ///< Simulated length of one epoch.
  /// Completed operations so far (read from device counters).
  std::function<std::uint64_t()> ops_now;
  /// Runs after the slice ending at `until`, inside the timed region; may
  /// move the next slice's end (a power cut resumes later). False ends
  /// the phase.
  std::function<bool(std::size_t slice, SimTime until, SimTime* next_until)> after;
};

/// Drive `s` to completion in simulated-time epochs, recording host ns
/// per completed op for each epoch. Per-epoch op counts are simulated
/// outputs and go into the digest.
Status DriveSession(FioRunner::Session& s, SimTime start, const Slicing& sl, Tracer* tracer,
                    RepResult& r, Digest& dg) {
  SimTime until = start + sl.epoch;
  std::uint64_t ops0 = sl.ops_now();
  const auto phase0 = Clock::now();
  for (std::size_t slice = 0; !s.done(); ++slice) {
    const auto t0 = Clock::now();
    Status st;
    {
      ScopedSpan span(tracer, Layer::kWorkload, Op::kRun);
      st = s.RunUntil(until);
    }
    if (!st.ok()) return st;
    SimTime next = until + sl.epoch;
    const bool go_on = !sl.after || sl.after(slice, until, &next);
    const auto t1 = Clock::now();
    const std::uint64_t ops = sl.ops_now();
    const std::uint64_t d = ops - ops0;
    ops0 = ops;
    r.completed += d;
    dg.Add(d);
    if (d > 0) {
      r.epoch_ns_per_op.push_back(NsBetween(t0, t1) / static_cast<double>(d));
      r.epoch_ops.push_back(static_cast<double>(d));
    }
    if (!go_on) break;
    until = next;
  }
  r.timed_s += std::chrono::duration<double>(Clock::now() - phase0).count();
  return Status::Ok();
}

/// The first per-IO failure of a finished run; any is unexpected here.
Status FirstIoError(const RunResult& run) {
  for (const JobResult& j : run.jobs) {
    if (j.io_errors != 0) return Status::Internal(j.name + ": " + j.first_error.ToString());
  }
  return Status::Ok();
}

std::uint64_t PlannedIos(const std::vector<JobSpec>& jobs) {
  std::uint64_t n = 0;
  for (const JobSpec& j : jobs) n += j.io_count;
  return n;
}

RepResult Fail(RepResult r, const std::string& what, const Status& st) {
  r.ok = false;
  r.error = what + ": " + st.ToString();
  return r;
}

template <typename Dev>
std::unique_ptr<Dev> MustCreate(const auto& cfg, RepResult& r) {
  auto d = Dev::Create(cfg);
  if (!d.ok()) {
    r.ok = false;
    r.error = "device create: " + d.status().ToString();
    return nullptr;
  }
  return std::move(d).value();
}

/// Wrap `dev` for a volume: a TracedDevice member when tracing.
std::unique_ptr<StorageDevice> Member(std::unique_ptr<StorageDevice> dev, Tracer* tracer) {
  if (tracer == nullptr) return dev;
  return std::make_unique<TracedDevice>(std::move(dev), *tracer, Layer::kDevice);
}

// --- zns_read -------------------------------------------------------------

constexpr std::uint32_t kConvZones = 8;
constexpr std::uint64_t kZone = 16 * kMiB;
constexpr std::uint64_t kConvBytes = kConvZones * kZone;  // 128 MiB
constexpr std::uint64_t kSeqReadZones = 32;               // 512 MiB
constexpr std::uint64_t kReadIosPerJob = 600000;
constexpr SimDuration kReadEpoch = SimDuration::Millis(20);
constexpr std::uint64_t kCheckSample = 1024;  // pages per region

RepResult ZnsRead(std::uint64_t seed, Tracer* tracer) {
  RepResult r;
  Digest dg;
  const auto setup0 = Clock::now();
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.num_conventional_zones = kConvZones;
  auto devp = MustCreate<ConZoneDevice>(cfg, r);
  if (!devp) return r;
  ConZoneDevice& dev = *devp;

  // Conventional region: filled, then scattered by random 4 KiB
  // overwrites so its mapping is page-granular. Versions track tokens.
  std::vector<std::uint32_t> conv_ver(kConvBytes / kPage, 0);
  auto t = FillWithTokens(dev, 0, kConvBytes, SimTime::Zero(),
                          [&](std::uint64_t lpn) { return Token(seed, lpn, 0); });
  if (!t.ok()) return Fail(r, "conventional fill", t.status());
  SimTime now = t.value();
  Rng rng(MixSeeds(seed, 0x73636174ull /*"scat"*/, 0));
  for (std::uint64_t i = 0; i < conv_ver.size(); ++i) {
    const std::uint64_t lpn = rng.NextBelow(conv_ver.size());
    const std::uint64_t tok = Token(seed, lpn, ++conv_ver[lpn]);
    auto w = dev.Write(IoRequest{lpn * kPage, kPage, now, {&tok, 1}});
    if (!w.ok()) return Fail(r, "conventional scatter", w.status());
    now = w.value().done;
  }
  // Sequential zones: written whole, so each aggregates to one entry.
  t = FillWithTokens(dev, kConvBytes, kSeqReadZones * kZone, now,
                     [&](std::uint64_t lpn) { return Token(seed, lpn, 0); });
  if (!t.ok()) return Fail(r, "sequential fill", t.status());
  auto fl = dev.Flush(t.value());
  if (!fl.ok()) return Fail(r, "flush", fl.status());
  now = fl.value();
  r.setup_s = std::chrono::duration<double>(Clock::now() - setup0).count();

  const std::vector<const ConZoneDevice*> devs{&dev};
  const Counters before = Collect(devs);
  std::unique_ptr<TracedDevice> traced;
  if (tracer != nullptr) traced = std::make_unique<TracedDevice>(dev, *tracer, Layer::kDevice);
  FioRunner fio(traced ? static_cast<StorageDevice&>(*traced) : dev);
  const std::vector<JobSpec> jobs{
      RandomJob("conv_randread", IoDirection::kRead, 0, kConvBytes, kReadIosPerJob, 4,
                MixSeeds(seed, 1, 0)),
      RandomJob("seq_randread", IoDirection::kRead, kConvBytes, kSeqReadZones * kZone,
                kReadIosPerJob, 4, MixSeeds(seed, 2, 0))};
  r.planned = PlannedIos(jobs);
  FioRunner::Session session(fio, jobs, now);
  if (Status st = session.Begin(); !st.ok()) return Fail(r, "session begin", st);
  if (tracer != nullptr) tracer->SetActive(true);
  Slicing sl{kReadEpoch, [&] { return dev.Stats().class_reads[0]; }, nullptr};
  Status st = DriveSession(session, now, sl, tracer, r, dg);
  if (tracer != nullptr) tracer->SetActive(false);
  if (!st.ok()) return Fail(r, "timed phase", st);
  auto run = session.Finish();
  if (!run.ok()) return Fail(r, "finish", run.status());
  if (Status e = FirstIoError(run.value()); !e.ok()) return Fail(r, "per-IO error", e);
  const Counters delta = Minus(Collect(devs), before);
  r.failed = r.planned - std::min(r.planned, run.value().total.ops);

  // Output check: a fixed sample of both regions reads back its tokens.
  now = run.value().end_time;
  Rng pick(MixSeeds(seed, 0x636865636bull /*"check"*/, 0));
  for (std::uint64_t i = 0; i < kCheckSample; ++i) {
    const std::uint64_t c = pick.NextBelow(conv_ver.size());
    if (Status s = CheckPage(dev, c, Token(seed, c, conv_ver[c]), &now); !s.ok()) {
      return Fail(r, "conventional read-back", s);
    }
    const std::uint64_t q = kConvBytes / kPage + pick.NextBelow(kSeqReadZones * kZone / kPage);
    if (Status s = CheckPage(dev, q, Token(seed, q, 0), &now); !s.ok()) {
      return Fail(r, "sequential read-back", s);
    }
  }

  AddRunModel(r.model, jobs, run.value());
  AddCounterModel(r.model, delta, run.value().total.ops);
  DigestRun(dg, run.value());
  DigestOutputs(dg, r, delta, dev.Stats());
  r.digest = dg.value();
  return r;
}

// --- zns_write_cut --------------------------------------------------------

constexpr SimDuration kCutEpoch = SimDuration::Millis(50);
constexpr std::size_t kEpochsPerCut = 4;  // a cut every 200 ms simulated
constexpr std::uint64_t kReaderZones = 8;  // zones 8..15, pre-filled
constexpr std::uint64_t kCutWriteBytes = 2048 * kMiB;  // per sequential writer

RepResult ZnsWriteCut(std::uint64_t seed, Tracer* tracer) {
  RepResult r;
  Digest dg;
  const auto setup0 = Clock::now();
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.num_conventional_zones = kConvZones;
  cfg.l2p_log.enabled = true;
  cfg.checkpoint.enabled = true;
  cfg.fault.power_loss = true;
  auto devp = MustCreate<ConZoneDevice>(cfg, r);
  if (!devp) return r;
  ConZoneDevice& dev = *devp;
  SimTime now;
  if (Status st = FioRunner::Precondition(dev, 0, kConvBytes + kReaderZones * kZone,
                                          512 * kKiB, &now);
      !st.ok()) {
    return Fail(r, "precondition", st);
  }
  r.setup_s = std::chrono::duration<double>(Clock::now() - setup0).count();

  const std::vector<const ConZoneDevice*> devs{&dev};
  const Counters before = Collect(devs);
  std::unique_ptr<TracedDevice> traced;
  if (tracer != nullptr) traced = std::make_unique<TracedDevice>(dev, *tracer, Layer::kDevice);
  FioRunner fio(traced ? static_cast<StorageDevice&>(*traced) : dev);

  // Four sequential writers on even zones only: every one of them maps to
  // the same shared write buffer (zone mod 2), so they conflict.
  std::vector<JobSpec> jobs;
  const std::uint64_t first = kConvZones + kReaderZones;  // zone 16
  const std::uint64_t blocks[] = {4 * kKiB, 16 * kKiB, 48 * kKiB, 512 * kKiB};
  for (std::size_t w = 0; w < 4; ++w) {
    JobSpec s;
    s.name = "seqwrite_" + std::to_string(blocks[w] / kKiB) + "k";
    s.direction = IoDirection::kWrite;
    s.pattern = IoPattern::kSequential;
    s.block_size = blocks[w];
    s.zone_list = {first + 4 * w, first + 4 * w + 2};
    s.reset_zones_on_wrap = true;
    s.io_count = kCutWriteBytes / blocks[w];
    s.seed = MixSeeds(seed, 10 + w, 0);
    jobs.push_back(std::move(s));
  }
  jobs.push_back(RandomJob("conv_overwrite", IoDirection::kWrite, 0, kConvBytes,
                           kCutWriteBytes / kPage, 1, MixSeeds(seed, 20, 0)));
  jobs.push_back(RandomJob("randread", IoDirection::kRead, kConvBytes, kReaderZones * kZone,
                           kCutWriteBytes / kPage, 1, MixSeeds(seed, 21, 0)));
  r.planned = PlannedIos(jobs);

  FioRunner::Session session(fio, jobs, now);
  if (Status st = session.Begin(); !st.ok()) return Fail(r, "session begin", st);
  auto wp_of = [&dev](std::uint64_t z) -> Result<std::uint64_t> {
    return dev.zones().Info(ZoneId{z}).write_pointer;
  };
  std::vector<double> sim_remount_ms;
  Status cut_error;
  std::uint64_t cuts = 0;
  auto after = [&](std::size_t slice, SimTime until, SimTime* next_until) {
    if ((slice + 1) % kEpochsPerCut != 0 || session.done()) return true;
    ++cuts;
    // Issue chains can submit past the pause point; PowerCut refuses to
    // rewind, so clamp forward.
    const SimTime at = Later(until, dev.last_submit());
    const auto c0 = Clock::now();
    Status pc;
    {
      ScopedSpan span(tracer, Layer::kRecovery, Op::kPowerCut);
      pc = dev.PowerCut(at);
    }
    const auto c1 = Clock::now();
    if (!pc.ok()) {
      cut_error = pc;
      return false;
    }
    Result<SimTime> rec = SimTime::Zero();
    {
      ScopedSpan span(tracer, Layer::kRecovery, Op::kRecover);
      rec = dev.Recover(at);
    }
    const auto c2 = Clock::now();
    r.powercut_ns.push_back(NsBetween(c0, c1));
    r.recover_ns.push_back(NsBetween(c1, c2));
    r.remount_ns.push_back(NsBetween(c0, c2));
    if (!rec.ok()) {
      // The known remount defect: report it and end the run here.
      r.defect = "cut #" + std::to_string(cuts) + " at " + std::to_string(at.ns()) +
                 " ns: " + rec.status().ToString();
      return false;
    }
    sim_remount_ms.push_back((rec.value() - at).ms());
    auto resumed = session.Resume(rec.value(), wp_of);
    if (!resumed.ok()) {
      cut_error = resumed.status();
      return false;
    }
    *next_until = resumed.value() + kCutEpoch;
    return true;
  };
  if (tracer != nullptr) tracer->SetActive(true);
  Slicing sl{kCutEpoch,
             [&] {
               const StatsSnapshot s = dev.Stats();
               return s.class_reads[0] + s.class_writes[0];
             },
             after};
  Status st = DriveSession(session, now, sl, tracer, r, dg);
  if (tracer != nullptr) tracer->SetActive(false);
  if (!st.ok()) return Fail(r, "timed phase", st);
  if (!cut_error.ok()) return Fail(r, "power cut", cut_error);
  dg.Add(cuts);
  for (const double ms : sim_remount_ms) dg.Add(ms);

  const Counters delta = Minus(Collect(devs), before);
  std::uint64_t ops = r.completed;
  if (r.defect.empty()) {
    auto run = session.Finish();
    if (!run.ok()) return Fail(r, "finish", run.status());
    if (Status e = FirstIoError(run.value()); !e.ok()) return Fail(r, "per-IO error", e);
    ops = run.value().total.ops;
    r.failed = r.planned - std::min(r.planned, ops);
    AddRunModel(r.model, jobs, run.value());
    DigestRun(dg, run.value());
  } else {
    // Every planned IO the run did not complete counts as failed.
    r.failed = r.planned - std::min(r.planned, r.completed);
  }
  r.model["sim.remount_ms_p50"] = Quantile(sim_remount_ms, 0.5);
  AddCounterModel(r.model, delta, ops);
  DigestOutputs(dg, r, delta, dev.Stats());
  r.digest = dg.value();
  return r;
}

// --- cache_zipf -----------------------------------------------------------

constexpr std::uint64_t kCacheWarmOps = 30000;
constexpr std::uint64_t kCacheEpochOps = 2000;
constexpr std::uint64_t kCacheEpochs = 100;

RepResult CacheZipf(std::uint64_t seed, Tracer* tracer) {
  RepResult r;
  Digest dg;
  const auto setup0 = Clock::now();
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 24;
  cfg.geometry.slc_blocks_per_chip = 4;
  std::vector<const ConZoneDevice*> devs;
  std::vector<std::unique_ptr<StorageDevice>> members;
  for (int i = 0; i < 2; ++i) {
    auto d = MustCreate<ConZoneDevice>(cfg, r);
    if (!d) return r;
    devs.push_back(d.get());
    members.push_back(Member(std::move(d), tracer));
  }
  auto volr = RedundantVolume::Create(std::move(members), {});
  if (!volr.ok()) return Fail(r, "volume create", volr.status());
  RedundantVolume& vol = **volr;
  std::unique_ptr<TracedDevice> traced;
  if (tracer != nullptr) traced = std::make_unique<TracedDevice>(vol, *tracer, Layer::kHost);
  StorageDevice* target = traced ? static_cast<StorageDevice*>(traced.get()) : &vol;
  auto cache = ZoneCache::Mount(target, {}, SimTime::Zero());
  if (!cache.ok()) return Fail(r, "cache mount", cache.status());

  CacheJobSpec spec;
  spec.keys = 4096;
  spec.zipf_theta = 0.99;
  spec.get_ratio = 0.9;
  spec.min_value_slots = 1;
  spec.max_value_slots = 4;
  spec.seed = seed;
  spec.require_latest = true;
  spec.ops = kCacheWarmOps;
  auto warm = CacheWorkloadRunner::Run(**cache, spec, SimTime::Zero());
  if (!warm.ok()) return Fail(r, "cache warm-up", warm.status());
  std::vector<std::uint32_t> gens = std::move(warm.value().generations);
  SimTime now = warm.value().end;
  r.setup_s = std::chrono::duration<double>(Clock::now() - setup0).count();

  const Counters before = Collect(devs);
  const ZoneCacheStats cs0 = (*cache)->stats();
  const SimTime start = now;
  if (tracer != nullptr) tracer->SetActive(true);
  const auto phase0 = Clock::now();
  for (std::uint64_t k = 0; k < kCacheEpochs; ++k) {
    // The runner seeds its op stream from (seed, ops), so each epoch runs
    // a distinct op count to draw a fresh stream; the value tokens depend
    // on the seed only, so every hit is still checked against the latest
    // generation.
    spec.ops = kCacheEpochOps + k;
    r.planned += spec.ops;
    const auto t0 = Clock::now();
    Result<CacheRunResult> res = Status::Internal("not run");
    {
      ScopedSpan span(tracer, Layer::kCache, Op::kRun);
      res = CacheWorkloadRunner::Run(**cache, spec, now, &gens);
    }
    const auto t1 = Clock::now();
    if (!res.ok()) {
      if (tracer != nullptr) tracer->SetActive(false);
      return Fail(r, "cache epoch " + std::to_string(k), res.status());
    }
    r.epoch_ns_per_op.push_back(NsBetween(t0, t1) / static_cast<double>(spec.ops));
    r.epoch_ops.push_back(static_cast<double>(spec.ops));
    r.completed += spec.ops;
    dg.Add(res.value().fingerprint);
    gens = std::move(res.value().generations);
    now = res.value().end;
  }
  r.timed_s = std::chrono::duration<double>(Clock::now() - phase0).count();
  if (tracer != nullptr) tracer->SetActive(false);

  const Counters delta = Minus(Collect(devs), before);
  const ZoneCacheStats& cs = (*cache)->stats();
  const double kops = static_cast<double>(r.completed) / 1000.0;
  r.model["cache.hit_ratio"] = Div(cs.hits - cs0.hits, cs.gets - cs0.gets);
  r.model["cache.evictions_per_kop"] = static_cast<double>(cs.evictions - cs0.evictions) / kops;
  r.model["cache.migrated_slots_per_kop"] =
      static_cast<double>(cs.migrated_slots - cs0.migrated_slots) / kops;
  r.model["sim.kiops"] = static_cast<double>(r.completed) / (now - start).seconds() / 1000.0;
  AddCounterModel(r.model, delta, r.completed);
  DigestOutputs(dg, r, delta, vol.Stats());
  r.digest = dg.value();
  return r;
}

// --- legacy_degraded ------------------------------------------------------

constexpr std::uint64_t kLegacyBytes = 256 * kMiB;
constexpr std::uint64_t kLegacyWriteFrom = 192 * kMiB;  // writes: [192, 256) MiB
constexpr std::uint64_t kLegacyReadIos = 20000;
constexpr std::uint64_t kLegacyWriteIos = 5000;
constexpr SimDuration kLegacyEpoch = SimDuration::Millis(10);

RepResult LegacyDegraded(std::uint64_t seed, Tracer* tracer) {
  RepResult r;
  Digest dg;
  const auto setup0 = Clock::now();
  std::vector<const LegacyDevice*> devs;
  std::vector<std::unique_ptr<StorageDevice>> members;
  for (int i = 0; i < 2; ++i) {
    auto d = MustCreate<LegacyDevice>(LegacyConfig{}, r);
    if (!d) return r;
    devs.push_back(d.get());
    members.push_back(Member(std::move(d), tracer));
  }
  auto volr = RedundantVolume::Create(std::move(members), {});
  if (!volr.ok()) return Fail(r, "volume create", volr.status());
  RedundantVolume& vol = **volr;
  auto t = FillWithTokens(vol, 0, kLegacyBytes, SimTime::Zero(),
                          [&](std::uint64_t lpn) { return Token(seed, lpn, 0); });
  if (!t.ok()) return Fail(r, "fill", t.status());
  auto fl = vol.Flush(t.value());
  if (!fl.ok()) return Fail(r, "flush", fl.status());
  SimTime now = fl.value();
  if (Status st = vol.MarkFailed(0); !st.ok()) return Fail(r, "mark failed", st);
  r.setup_s = std::chrono::duration<double>(Clock::now() - setup0).count();

  const Counters before = Collect(devs);
  const std::uint64_t rebuilt0 = vol.Redundancy().reconstructed_units;
  std::unique_ptr<TracedDevice> traced;
  if (tracer != nullptr) traced = std::make_unique<TracedDevice>(vol, *tracer, Layer::kHost);
  FioRunner fio(traced ? static_cast<StorageDevice&>(*traced) : vol);
  const std::vector<JobSpec> jobs{
      RandomJob("randread", IoDirection::kRead, 0, kLegacyBytes, kLegacyReadIos, 8,
                MixSeeds(seed, 30, 0)),
      RandomJob("randwrite", IoDirection::kWrite, kLegacyWriteFrom,
                kLegacyBytes - kLegacyWriteFrom, kLegacyWriteIos, 2, MixSeeds(seed, 31, 0))};
  r.planned = PlannedIos(jobs);
  FioRunner::Session session(fio, jobs, now);
  if (Status st = session.Begin(); !st.ok()) return Fail(r, "session begin", st);
  if (tracer != nullptr) tracer->SetActive(true);
  // With member 0 failed every volume IO is served by member 1 alone, so
  // the members' foreground op count is the volume's.
  Slicing sl{kLegacyEpoch,
             [&] {
               const StatsSnapshot s = vol.Stats();
               return s.class_reads[0] + s.class_writes[0];
             },
             nullptr};
  Status st = DriveSession(session, now, sl, tracer, r, dg);
  if (tracer != nullptr) tracer->SetActive(false);
  if (!st.ok()) return Fail(r, "timed phase", st);
  auto run = session.Finish();
  if (!run.ok()) return Fail(r, "finish", run.status());
  if (Status e = FirstIoError(run.value()); !e.ok()) return Fail(r, "per-IO error", e);
  const Counters delta = Minus(Collect(devs), before);
  r.failed = r.planned - std::min(r.planned, run.value().total.ops);

  // Output check: the part of the set-up data the writes never touch
  // reads back its tokens through the degraded mirror.
  now = run.value().end_time;
  Rng pick(MixSeeds(seed, 0x636865636bull /*"check"*/, 1));
  for (std::uint64_t i = 0; i < kCheckSample; ++i) {
    const std::uint64_t lpn = pick.NextBelow(kLegacyWriteFrom / kPage);
    if (Status s = CheckPage(vol, lpn, Token(seed, lpn, 0), &now); !s.ok()) {
      return Fail(r, "read-back", s);
    }
  }

  AddRunModel(r.model, jobs, run.value());
  AddCounterModel(r.model, delta, run.value().total.ops);
  r.model["host.reconstructed_units_per_read"] =
      Div(vol.Redundancy().reconstructed_units - rebuilt0, run.value().jobs[0].throughput.ops);
  DigestRun(dg, run.value());
  DigestOutputs(dg, r, delta, vol.Stats());
  r.digest = dg.value();
  return r;
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"zns_read", "zns_write_cut", "cache_zipf",
                                              "legacy_degraded"};
  return names;
}

RepResult RunRep(const std::string& workload, std::uint64_t seed, Tracer* tracer) {
  if (workload == "zns_read") return ZnsRead(seed, tracer);
  if (workload == "zns_write_cut") return ZnsWriteCut(seed, tracer);
  if (workload == "cache_zipf") return CacheZipf(seed, tracer);
  if (workload == "legacy_degraded") return LegacyDegraded(seed, tracer);
  RepResult r;
  r.ok = false;
  r.error = "unknown workload " + workload;
  return r;
}

}  // namespace perfbench

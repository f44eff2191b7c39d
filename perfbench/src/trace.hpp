// Span tracing for the benchmark's traced run.
//
// The tracer records one span per call into a layer: the layer, the
// operation, host start/end time, the enclosing span and a request id
// shared by every span one top-level request caused. Calls into the
// library's devices are captured by TracedDevice, a forwarding
// StorageDevice decorator placed at each device boundary (runner ->
// volume -> member); calls the benchmark makes itself (a runner slice, a
// cache-workload slice, PowerCut, Recover) are wrapped in a ScopedSpan.
//
// A layer's self time is its span minus the spans of its children. Self
// and total time are aggregated per (layer, op) for every span; the
// first `keep` spans are also kept in memory and written out at the end
// in the Chrome trace-event format (chrome://tracing, Perfetto).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/storage_device.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kWorkload, kCache, kHost, kDevice, kRecovery };
enum class Op : std::uint8_t { kRun, kRead, kWrite, kReset, kFlush, kPowerCut, kRecover };
inline constexpr std::size_t kNumLayers = 5;
inline constexpr std::size_t kNumOps = 7;

const char* LayerName(Layer l);
const char* OpName(Op o);

class Tracer {
 public:
  struct Agg {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  explicit Tracer(std::size_t keep) : keep_(keep) { kept_.reserve(keep); }

  /// Spans are recorded only while active; set-up and output checks run
  /// inactive. Toggle only between spans (never while one is open).
  void SetActive(bool on) { active_ = on; }

  void Begin(Layer layer, Op op);
  void End();

  const Agg& agg(Layer l, Op o) const {
    return agg_[static_cast<std::size_t>(l)][static_cast<std::size_t>(o)];
  }
  /// Sum over all ops of one layer.
  Agg LayerTotal(Layer l) const;
  std::uint64_t spans() const { return next_id_ - 1; }

  /// Write the kept spans as a Chrome trace-event JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    Layer layer;
    Op op;
  };
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    Layer layer;
    Op op;
  };

  std::uint64_t Now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  std::size_t keep_;
  bool active_ = false;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::array<std::array<Agg, kNumOps>, kNumLayers> agg_{};
  std::uint64_t next_id_ = 1;
  std::uint64_t next_request_ = 1;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, Layer layer, Op op) : t_(t) {
    if (t_ != nullptr) t_->Begin(layer, op);
  }
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
};

/// Forwarding decorator: every data-path call becomes a span of `layer`;
/// counters and info() pass through untimed. Either borrows the inner
/// device (runner -> volume boundary) or owns it (a volume member).
class TracedDevice final : public conzone::StorageDevice {
 public:
  TracedDevice(conzone::StorageDevice& inner, Tracer& tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}
  TracedDevice(std::unique_ptr<conzone::StorageDevice> owned, Tracer& tracer, Layer layer)
      : owned_(std::move(owned)), inner_(*owned_), tracer_(tracer), layer_(layer) {}

  conzone::DeviceInfo info() const override { return inner_.info(); }
  conzone::Result<conzone::IoResult> Write(const conzone::IoRequest& req) override {
    ScopedSpan s(&tracer_, layer_, Op::kWrite);
    return inner_.Write(req);
  }
  conzone::Result<conzone::IoResult> Read(const conzone::IoRequest& req) override {
    ScopedSpan s(&tracer_, layer_, Op::kRead);
    return inner_.Read(req);
  }
  conzone::Result<conzone::SimTime> ResetZone(conzone::ZoneId zone,
                                              conzone::SimTime now) override {
    ScopedSpan s(&tracer_, layer_, Op::kReset);
    return inner_.ResetZone(zone, now);
  }
  conzone::Result<conzone::SimTime> Flush(conzone::SimTime now) override {
    ScopedSpan s(&tracer_, layer_, Op::kFlush);
    return inner_.Flush(now);
  }
  conzone::StatsSnapshot Stats() const override { return inner_.Stats(); }
  conzone::ReliabilityStats Reliability() const override { return inner_.Reliability(); }
  conzone::RecoveryStats Recovery() const override { return inner_.Recovery(); }

 private:
  std::unique_ptr<conzone::StorageDevice> owned_;
  conzone::StorageDevice& inner_;
  Tracer& tracer_;
  Layer layer_;
};

}  // namespace perfbench

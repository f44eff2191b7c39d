#include "trace.hpp"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kWorkload: return "workload";
    case Layer::kCache: return "cache";
    case Layer::kHost: return "host";
    case Layer::kDevice: return "device";
    case Layer::kRecovery: return "recovery";
  }
  return "?";
}

const char* OpName(Op o) {
  switch (o) {
    case Op::kRun: return "run";
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kReset: return "reset";
    case Op::kFlush: return "flush";
    case Op::kPowerCut: return "powercut";
    case Op::kRecover: return "recover";
  }
  return "?";
}

void Tracer::Begin(Layer layer, Op op) {
  if (!active_) return;
  // A device-boundary call made directly by a slice of the workload or
  // cache runner starts a new request; nested calls inherit its id.
  const bool root_child = stack_.empty() || stack_.back().layer == Layer::kWorkload ||
                          stack_.back().layer == Layer::kCache;
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  const std::uint64_t request = root_child ? next_request_++ : stack_.back().request;
  stack_.push_back(Open{next_id_++, parent, request, Now(), 0, layer, op});
}

void Tracer::End() {
  if (!active_) return;
  const std::uint64_t end = Now();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = end - o.start_ns;
  Agg& a = agg_[static_cast<std::size_t>(o.layer)][static_cast<std::size_t>(o.op)];
  ++a.calls;
  a.total_ns += dur;
  a.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (kept_.size() < keep_) {
    kept_.push_back(Span{o.id, o.parent, o.request, o.start_ns, end, o.layer, o.op});
  }
}

Tracer::Agg Tracer::LayerTotal(Layer l) const {
  Agg sum;
  for (const Agg& a : agg_[static_cast<std::size_t>(l)]) {
    sum.calls += a.calls;
    sum.total_ns += a.total_ns;
    sum.self_ns += a.self_ns;
  }
  return sum;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer), OpName(s.op), LayerName(s.layer),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

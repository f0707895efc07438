// Span recording for tm_bench's traced run.
//
// Spans are recorded from tm_bench's own code around each call into a
// library layer (the program itself is not instrumented). Every span
// carries its id, its parent's id, the request it belongs to, its layer,
// a name and its [start, end) interval on the steady clock. Spans live in
// one buffer allocated up front, claimed with a single atomic add so the
// serve workloads' client threads record without locks, and are written
// out once at exit as Chrome trace-event JSON (chrome://tracing, Perfetto).
// A full buffer drops further spans and counts them instead of growing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"

namespace tokenmagic::bench {

/// The library modules (src/<layer>) a span's call enters.
enum class Layer : uint8_t { kRpc, kAnalysis, kCore, kNode, kCrypto, kData };

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRpc: return "rpc";
    case Layer::kAnalysis: return "analysis";
    case Layer::kCore: return "core";
    case Layer::kNode: return "node";
    case Layer::kCrypto: return "crypto";
    case Layer::kData: return "data";
  }
  return "?";
}

inline int64_t NowNanos() {
  return common::SteadyClock::Instance()->NowNanos();
}

/// Request ids carry the issuing client thread in their top bits, so the
/// Chrome view puts each thread's spans on its own track.
inline uint64_t RequestId(uint64_t thread, uint64_t sequence) {
  return (thread << 40) | sequence;
}

struct Span {
  uint32_t id = 0;      ///< 1-based; 0 means "no span"
  uint32_t parent = 0;  ///< 0 for a root span
  uint64_t request = 0;
  Layer layer = Layer::kRpc;
  const char* name = "";  ///< string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// One span-specific value (rpc call: the response's server_micros).
  int64_t arg = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity)
      : spans_(std::make_unique<Span[]>(capacity)), capacity_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Claims a slot and stamps its start; returns the span id, or 0 when
  /// the buffer is full (the span is dropped and counted).
  uint32_t Begin(uint32_t parent, uint64_t request, Layer layer,
                 const char* name, int64_t start_ns) {
    size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    Span& span = spans_[slot];
    span.id = static_cast<uint32_t>(slot + 1);
    span.parent = parent;
    span.request = request;
    span.layer = layer;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = start_ns;
    return span.id;
  }

  void End(uint32_t id, int64_t end_ns, int64_t arg = 0) {
    if (id == 0) return;
    spans_[id - 1].end_ns = end_ns;
    spans_[id - 1].arg = arg;
  }

  /// A span whose interval is already known (e.g. derived from a report).
  uint32_t Record(uint32_t parent, uint64_t request, Layer layer,
                  const char* name, int64_t start_ns, int64_t end_ns,
                  int64_t arg = 0) {
    uint32_t id = Begin(parent, request, layer, name, start_ns);
    End(id, end_ns, arg);
    return id;
  }

  /// Recorded spans. Call only after every recording thread has joined.
  std::span<const Span> spans() const {
    size_t n = next_.load(std::memory_order_relaxed);
    return {spans_.get(), n < capacity_ ? n : capacity_};
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Durations in nanoseconds of every span with this layer and name.
  std::vector<int64_t> Durations(Layer layer, std::string_view name) const {
    std::vector<int64_t> out;
    for (const Span& span : spans()) {
      if (span.layer == layer && name == span.name) {
        out.push_back(span.end_ns - span.start_ns);
      }
    }
    return out;
  }

  /// Writes Chrome trace-event JSON ("X" complete events, microseconds
  /// relative to the first span). Returns false on an I/O error.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::span<const Span> all = spans();
    int64_t origin = all.empty() ? 0 : all[0].start_ns;
    for (const Span& span : all) origin = std::min(origin, span.start_ns);
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                   "\"args\":{\"id\":%u,\"parent\":%u,\"request\":%llu,"
                   "\"arg\":%lld}}",
                   i == 0 ? "" : ",", s.name, LayerName(s.layer),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request >> 40),
                   s.id, s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.arg));
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::unique_ptr<Span[]> spans_;
  size_t capacity_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// RAII span; a no-op when `tracer` is null (untraced phases).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t parent, uint64_t request, Layer layer,
             const char* name)
      : tracer_(tracer),
        id_(tracer == nullptr
                ? 0
                : tracer->Begin(parent, request, layer, name, NowNanos())) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_, NowNanos(), arg_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }
  void set_arg(int64_t arg) { arg_ = arg; }

 private:
  Tracer* tracer_;
  uint32_t id_;
  int64_t arg_ = 0;
};

}  // namespace tokenmagic::bench

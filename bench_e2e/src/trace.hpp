// In-memory span recorder for the traced benchmark run.
//
// Each thread appends to its own buffer (registration is the only locked
// step), capped per thread; spans past the cap are counted, not stored.
// A span holds name, start, end, its parent span and the iteration it
// belongs to (the trace id shared by every span of one output).  The
// spans are written as JSON lines when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util.hpp"

namespace bench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t trace_id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(std::size_t cap_per_thread) : cap_(cap_per_thread), origin_ns_(now_ns()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Span ids are unique per tracer: the thread index in the top bits.
  std::uint64_t next_id() {
    Buffer& b = buffer();
    return (static_cast<std::uint64_t>(b.thread) << 40) | ++b.next_seq;
  }

  void record(const Span& span) {
    Buffer& b = buffer();
    if (b.spans.size() >= cap_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    b.spans.push_back(span);
  }

  /// Every recorded span named `name`, as durations in milliseconds.
  [[nodiscard]] Samples durations_ms(const std::string& name) const {
    Samples out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& b : buffers_)
      for (const Span& s : b->spans)
        if (name == s.name) out.add(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    return out;
  }

  [[nodiscard]] std::size_t span_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->spans.size();
    return n;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

  /// One JSON object per line; times in microseconds since the tracer
  /// was created.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& b : buffers_) {
      for (const Span& s : b->spans) {
        out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"trace_id\": " << s.trace_id
            << ", \"thread\": " << b->thread
            << ", \"start_us\": " << static_cast<double>(s.start_ns - origin_ns_) / 1e3
            << ", \"end_us\": " << static_cast<double>(s.end_ns - origin_ns_) / 1e3
            << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  struct Buffer {
    int thread = 0;
    std::uint64_t next_seq = 0;
    std::vector<Span> spans;
  };

  Buffer& buffer() {
    // The generation check keeps a thread-local buffer of an earlier
    // tracer (possibly at the same address) from being reused.
    thread_local std::uint64_t owner = 0;
    thread_local Buffer* local = nullptr;
    if (owner != generation_) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      local = buffers_.back().get();
      local->thread = static_cast<int>(buffers_.size()) - 1;
      owner = generation_;
    }
    return *local;
  }

  static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  const std::uint64_t generation_ = next_generation();
  const std::size_t cap_;
  const std::int64_t origin_ns_;
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class TraceScope {
 public:
  TraceScope(Tracer* tracer, const char* name, std::int64_t trace_id,
             std::uint64_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_ = {name, tracer_->next_id(), parent, trace_id, now_ns(), 0};
  }
  ~TraceScope() {
    if (tracer_ == nullptr) return;
    span_.end_ns = now_ns();
    tracer_->record(span_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return tracer_ != nullptr ? span_.id : 0; }

 private:
  Tracer* tracer_;
  Tracer::Span span_{};
};

}  // namespace bench

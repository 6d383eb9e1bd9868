#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// \brief Span recorder for traced runs.
///
/// Spans wrap the benchmark's own calls into one layer of the engine
/// (`setup`, `service`, `query`, `db.write`, `maintain.audit`); nothing is
/// recorded inside the library. A span opened while another is open on the
/// same thread becomes its child and shares its request id; a span opened on
/// an idle thread starts a new request. Each thread appends to its own
/// preallocated buffer, so recording takes no lock; spans beyond a buffer's
/// capacity are counted as dropped. Until Arm() is called every Span is a
/// no-op that reads one atomic flag.
class Tracer {
 private:
  struct Record {
    const char* name = "";
    uint64_t request = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root of its request
    int64_t start = 0;
    int64_t end = 0;
  };
  struct Buffer {
    uint32_t tid = 0;
    std::vector<Record> records;  // capacity fixed at registration
    std::vector<size_t> open;     // indexes of the spans open on this thread
    int skipped_open = 0;         // unrecorded spans open on this thread
  };

 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  /// Enables recording with `capacity` spans preallocated per thread.
  void Arm(size_t capacity) {
    capacity_ = capacity;
    armed_.store(true, std::memory_order_release);
    recording_.store(true, std::memory_order_release);
  }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Traced runs alternate recorded and unrecorded blocks so one run yields
  /// both sides of the tracing-overhead ratio. A request whose root span
  /// started while recording is recorded whole.
  void set_recording(bool on) {
    recording_.store(on, std::memory_order_release);
  }
  bool recording() const {
    return armed() && recording_.load(std::memory_order_acquire);
  }

  class Span {
   public:
    explicit Span(const char* name) {
      Tracer& tracer = Get();
      if (!tracer.armed()) return;
      Buffer* buffer = tracer.ThisThread();
      // A request is recorded whole or not at all: its root decides.
      const bool skip = buffer->skipped_open > 0 ||
                        (buffer->open.empty() && !tracer.recording());
      if (skip || buffer->records.size() == buffer->records.capacity()) {
        if (!skip) tracer.dropped_.fetch_add(1, std::memory_order_relaxed);
        skipped_ = buffer;
        ++buffer->skipped_open;
        return;
      }
      Record record;
      record.name = name;
      if (buffer->open.empty()) {
        record.request = tracer.next_request_.fetch_add(1) + 1;
      } else {
        const Record& parent = buffer->records[buffer->open.back()];
        record.request = parent.request;
        record.parent = parent.id;
      }
      record.id = (static_cast<uint64_t>(buffer->tid) << 32) |
                  (buffer->records.size() + 1);
      record.start = NowNanos();
      buffer_ = buffer;
      index_ = buffer->records.size();
      buffer->records.push_back(record);
      buffer->open.push_back(index_);
    }
    ~Span() {
      if (skipped_ != nullptr) --skipped_->skipped_open;
      if (buffer_ == nullptr) return;
      buffer_->records[index_].end = NowNanos();
      buffer_->open.pop_back();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Buffer* buffer_ = nullptr;   // set when this span is recorded
    Buffer* skipped_ = nullptr;  // set when it is not (but the tracer is armed)
    size_t index_ = 0;
  };

  struct LayerTime {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  /// Per span path ("service/db.write": the span's name under its
  /// ancestors'): instances, total time and self time (duration minus the
  /// part of it covered by child spans). Call after recording threads ended.
  std::map<std::string, LayerTime> SelfTimes() const {
    std::map<std::string, LayerTime> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      const std::vector<Record>& records = buffer->records;
      std::vector<double> self(records.size());
      std::vector<std::string> path(records.size());
      // A parent is recorded before its children, on the same thread.
      for (size_t i = 0; i < records.size(); ++i) {
        const Record& r = records[i];
        self[i] += NanosToMs(r.end - r.start);
        path[i] = r.name;
        if (r.parent != 0) {
          const size_t parent = (r.parent & 0xffffffffu) - 1;
          self[parent] -= NanosToMs(r.end - r.start);
          path[i] = path[parent] + "/" + r.name;
        }
      }
      for (size_t i = 0; i < records.size(); ++i) {
        LayerTime& layer = out[path[i]];
        ++layer.count;
        layer.total_ms += NanosToMs(records[i].end - records[i].start);
        layer.self_ms += self[i];
      }
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event "complete" event (open the
  /// file in chrome://tracing or https://ui.perfetto.dev).
  bool WriteChromeTrace(const std::string& path) const {
    FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    int64_t origin = INT64_MAX;
    for (const auto& buffer : buffers_) {
      for (const Record& r : buffer->records) {
        origin = std::min(origin, r.start);
      }
    }
    std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    bool first = true;
    for (const auto& buffer : buffers_) {
      for (const Record& r : buffer->records) {
        std::fprintf(file,
                     "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"request\": %llu, \"id\": %llu, \"parent\": %llu}}",
                     first ? "" : ",", r.name, buffer->tid,
                     static_cast<double>(r.start - origin) / 1e3,
                     static_cast<double>(r.end - r.start) / 1e3,
                     static_cast<unsigned long long>(r.request),
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent));
        first = false;
      }
    }
    std::fprintf(file, "\n]}\n");
    const bool written = std::ferror(file) == 0;
    return std::fclose(file) == 0 && written;
  }

  uint64_t dropped() const { return dropped_.load(); }

 private:
  Tracer() = default;

  /// The calling thread's buffer, registered (and preallocated) on first use.
  Buffer* ThisThread() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      auto owned = std::make_unique<Buffer>();
      owned->records.reserve(capacity_);
      owned->open.reserve(16);
      std::lock_guard<std::mutex> lock(mu_);
      owned->tid = static_cast<uint32_t>(buffers_.size() + 1);
      buffer = owned.get();
      buffers_.push_back(std::move(owned));
    }
    return buffer;
  }

  size_t capacity_ = 0;
  std::atomic<bool> armed_{false};
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

using Span = Tracer::Span;

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

// Span recorder for the benchmark's traced mode.
//
// A span is (name, start, end, parent, request id) around one call into a
// layer's public API. Spans nest lexically on the driving thread (the
// parent of a new span is the innermost open one), stay in memory while
// the run lasts and are written as Chrome-trace JSON at exit. A layer's
// self time is its span's duration minus its direct children's.
//
// Only the traced mode constructs a recorder; the measured mode never
// touches this file's code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dfbench {

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::string name;
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
};

/// Per-name totals over a set of spans.
struct SpanAgg {
  std::size_t count = 0;
  double total = 0.0;  // summed duration (s)
  double self = 0.0;   // summed self time (s)
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// RAII span: opens in the constructor, closes in the destructor.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    SpanRecorder& recorder_;
    std::uint64_t id_;
  };

  /// Request id stamped on spans opened from now on.
  void set_request(std::uint64_t request) { request_ = request; }

  /// Records an already-finished span (e.g. a per-kind command aggregate
  /// from a profiling log) under `parent`.
  void add_closed(const char* name, std::uint64_t parent, double start,
                  double end);

  double now() const;
  const SpanRec& span(std::uint64_t id) const { return spans_[id - 1]; }

  /// Per-name duration and self-time totals over spans whose request id
  /// lies in [first_request, last_request].
  std::map<std::string, SpanAgg> aggregate(std::uint64_t first_request,
                                           std::uint64_t last_request) const;

  /// Writes every span as Chrome trace-event JSON ("X" events; parent and
  /// request id in args). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::uint64_t open(const char* name);
  void close(std::uint64_t id);

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRec> spans_;
  std::vector<std::uint64_t> stack_;
  std::uint64_t request_ = 0;
};

}  // namespace dfbench

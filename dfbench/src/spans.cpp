#include "spans.hpp"

#include <cstdio>

namespace dfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::uint64_t SpanRecorder::open(const char* name) {
  SpanRec rec;
  rec.id = spans_.size() + 1;
  rec.parent = stack_.empty() ? 0 : stack_.back();
  rec.request = request_;
  rec.name = name;
  rec.start = now();
  spans_.push_back(std::move(rec));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::close(std::uint64_t id) {
  spans_[id - 1].end = now();
  stack_.pop_back();
}

void SpanRecorder::add_closed(const char* name, std::uint64_t parent,
                              double start, double end) {
  SpanRec rec;
  rec.id = spans_.size() + 1;
  rec.parent = parent;
  rec.request = request_;
  rec.name = name;
  rec.start = start;
  rec.end = end;
  spans_.push_back(std::move(rec));
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name)
    : recorder_(recorder), id_(recorder.open(name)) {}

SpanRecorder::Scope::~Scope() { recorder_.close(id_); }

std::map<std::string, SpanAgg> SpanRecorder::aggregate(
    std::uint64_t first_request, std::uint64_t last_request) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRec& s : spans_) {
    if (s.parent != 0) child_time[s.parent - 1] += s.end - s.start;
  }
  std::map<std::string, SpanAgg> out;
  for (const SpanRec& s : spans_) {
    if (s.request < first_request || s.request > last_request) continue;
    SpanAgg& agg = out[s.name];
    const double dur = s.end - s.start;
    ++agg.count;
    agg.total += dur;
    agg.self += dur - child_time[s.id - 1];
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[");
  bool first = true;
  for (const SpanRec& s : spans_) {
    std::fprintf(out,
                 "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",", s.name.c_str(), s.start * 1e6,
                 (s.end - s.start) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace dfbench

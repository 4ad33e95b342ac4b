#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool Tally::op(bool ok, const char* what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    note(std::string("failed operation: ") + what);
  }
  return ok;
}

bool Tally::gate(bool ok, const std::string& what) {
  if (!ok) {
    correct_.store(false);
    note("correctness gate: " + what);
  }
  return ok;
}

void Tally::note(const std::string& what) {
  // The first few causes go to stderr; stdout is reserved for the result.
  std::lock_guard<std::mutex> lock(m_);
  if (notes_++ < 20) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::json(const Tally& tally) const {
  std::string out = "{\"correct\": ";
  out += tally.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit; non-finite values are not JSON, report 0.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {
std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}
}  // namespace

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(span);
}

std::vector<double> Tracer::durations_us(const std::string& name,
                                         const std::string& parent) const {
  std::lock_guard<std::mutex> lock(m_);
  std::unordered_map<std::uint64_t, const char*> names;
  if (!parent.empty()) {
    for (const Span& span : spans_) names[span.id] = span.name;
  }
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    if (!parent.empty()) {
      const auto it = names.find(span.parent);
      if (it == names.end() || parent != it->second) continue;
    }
    out.push_back(us_between(span.start, span.end));
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(m_);
  std::fputs("{\"traceEvents\": [\n", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %" PRIu32
                 ", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"request\": %" PRIu64 "}}",
                 i == 0 ? "" : ",\n", s.name, s.thread, us_between(origin_, s.start),
                 us_between(s.start, s.end), s.id, s.parent, s.request);
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

SpanScope::SpanScope(Tracer& tracer, const char* name, std::uint64_t parent,
                     std::uint64_t request)
    : tracer_(tracer), name_(name), parent_(parent), request_(request) {
  if (tracer_.enabled()) {
    id_ = tracer_.next_id();
    start_ = Clock::now();
  }
}

SpanScope::~SpanScope() {
  if (!tracer_.enabled()) return;
  tracer_.record({name_, id_, parent_, request_, start_, Clock::now(), this_thread_index()});
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench

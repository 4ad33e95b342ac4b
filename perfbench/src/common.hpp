// Shared pieces of the perfbench binary: clocks and order statistics, the
// correctness tally every phase reports into, the metric report printed as
// the final JSON line, the in-memory span tracer used by traced runs, and
// the `step` kernel that the serving, burst and ledger phases launch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// splitmix64: every benchmark input derives from (--seed, stream).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream) : state_(seed * 0x9E3779B97F4A7C15ull ^ stream) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(next() >> 32); }
  std::vector<std::uint32_t> words(std::size_t n) {
    std::vector<std::uint32_t> out(n);
    for (auto& w : out) w = u32();
    return out;
  }

 private:
  std::uint64_t state_;
};

/// Operations attempted / failed plus the correctness gates. A failed or
/// refused request is a miss (`op(false)`); a gate that does not hold
/// (wrong read-back, moved pinned total, non-zero gauge) also clears
/// `correct`. Thread-safe.
class Tally {
 public:
  /// Count one operation; returns `ok` so call sites can chain.
  bool op(bool ok, const char* what);
  /// A correctness gate: failing it marks the whole run incorrect.
  bool gate(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] bool correct() const { return correct_.load(); }

 private:
  void note(const std::string& what);

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<bool> correct_{true};
  std::mutex m_;
  int notes_ = 0;
};

/// Metrics in insertion order, printed as the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json(const Tally& tally) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// In-memory span recorder for traced runs. Disabled tracers record
/// nothing and cost one branch per span. Spans are kept until write().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t thread;
  };
  void record(const Span& span);

  /// Durations (µs) of every recorded span named `name` (and, if given,
  /// whose parent span is named `parent`).
  [[nodiscard]] std::vector<double> durations_us(const std::string& name,
                                                 const std::string& parent = "") const;
  /// Chrome trace-event JSON ("X" events, args carry id/parent/request).
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// RAII span: timestamps on construction and records on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t parent = 0,
            std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::uint64_t request_;
  Clock::time_point start_;
};

/// out[i] = out[i] * 3 + c over the first n words of a buffer.
inline constexpr const char* kStepSource = R"(.kernel step
  tid   r1
  param r2, 0
  bgeu  r1, r2, done
  slli  r3, r1, 2
  param r4, 1
  add   r4, r4, r3
  lw    r5, 0(r4)
  addi  r6, r0, 3
  mul   r5, r5, r6
  param r7, 2
  add   r5, r5, r7
  sw    r5, 0(r4)
done:
  ret
)";

[[nodiscard]] inline std::vector<std::uint32_t> step_golden(std::vector<std::uint32_t> words,
                                                            std::uint32_t c) {
  for (auto& w : words) w = w * 3 + c;
  return words;
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

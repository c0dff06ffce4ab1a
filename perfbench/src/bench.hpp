// Shared plumbing of the repository benchmark: run configuration, seeded
// inputs, the correctness ledger, span tracing and small statistics helpers.
//
// The benchmark links the library like any client and calls only its public
// headers.  Tracing is done here, around those calls; nothing inside src/ is
// instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One benchmark invocation (see main.cpp for the command line).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory of this run (stores live here; removed at exit).
  std::string work_dir;
  /// Where the traced run writes its span dump.
  std::string trace_path;
  /// Threads given to every thread option of the library.
  std::size_t nproc = 1;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: a tiny portable PRNG, so a seed means the same inputs on
/// every platform and standard library.
class Rng {
 public:
  /// An independent stream for (seed, stream): inputs drawn for one purpose
  /// do not shift when another purpose draws more.
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed ^ (stream * 0xD1B54A32D192ED03ull)) {
    next();
  }

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }
  template <class T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Operations attempted and failed, plus what failed.  An operation is one
/// generation, one sweep call or one matrix job; a check that spans several
/// operations (store hit counts, cache misses) counts one failure.
class Ledger {
 public:
  /// Records one operation and whether it (and its checks) succeeded.
  void op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  /// Records a failed check without a new operation.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void fail(const std::string& what);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Spans (name, start, end, parent) around the benchmark's own calls into
/// the library, plus named counters and samples.  A disabled tracer records
/// nothing and reads no clock, so the untraced run makes the same calls.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Scope span(const char* name) { return Scope(this, name); }
  void add(const std::string& counter, double value) {
    if (enabled_) counters_[counter] += value;
  }
  void sample(const std::string& series, double value) {
    if (enabled_) samples_[series].push_back(value);
  }

  /// Total seconds and count of the spans called `name`.
  double total_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Mean seconds per span called `name` (0 when there is none).
  double mean_s(const std::string& name) const;
  double counter(const std::string& name) const;
  const std::vector<double>& samples(const std::string& series) const;
  std::size_t span_count() const { return spans_.size(); }

  /// Writes every span as JSON; false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<double>> samples_;
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main.cpp.
struct Outcome {
  Ledger ledger;
  std::map<std::string, Metric> metrics;
};

// -- Statistics --------------------------------------------------------------

/// Linear-interpolated quantile q ∈ [0, 1] of `values` (0 when empty).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Runs `setup`, appends its wall seconds to `times` and returns its result.
///
/// setup_s is the median of repeated set-ups: the one before the workload,
/// then more between its iterations, so that the samples span the run like
/// the workload's own and one slow second of the host does not decide it.
/// Work moved into set-up shows in every one of them.
template <class F>
auto timed(std::vector<double>& times, F&& setup) {
  const Clock::time_point start = Clock::now();
  auto result = setup();
  times.push_back(seconds_since(start));
  return result;
}

/// Calls `iterate(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least `min_iterations` ran; returns the number of iterations.
template <class F>
std::size_t repeat_for(double seconds, std::size_t min_iterations,
                       F&& iterate) {
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  while (i < min_iterations || seconds_since(start) < seconds) iterate(i++);
  return i;
}

/// Wall seconds of the traced run's two passes over the same iterations.
struct TracedPasses {
  double untraced_s = 0;
  double traced_s = 0;
};

/// Runs `iterate(i, tracer)` untraced for half of `seconds`, then the same
/// iterations again with `tracer` on, so the difference between the two
/// walls is the cost of tracing.
template <class F>
TracedPasses traced_passes(double seconds, Tracer& tracer, F&& iterate) {
  Tracer off(false);
  TracedPasses passes;
  Clock::time_point start = Clock::now();
  const std::size_t n =
      repeat_for(seconds / 2, 1, [&](std::size_t i) { iterate(i, off); });
  passes.untraced_s = seconds_since(start);
  start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) iterate(i, tracer);
  passes.traced_s = seconds_since(start);
  return passes;
}

/// Adds the end-to-end metrics, which every workload reports:
///   setup_s       median seconds of one set-up (inputs built from the seed)
///   success_rate  share of operations that succeeded and passed checks
///   peak_rss_mb   peak resident memory of the process
///   faults_per_s  median over iterations of faults handled per second
///   op_p50_ms     median latency of one operation
///   op_p90_ms     90th-percentile latency of one operation
void add_end_to_end_metrics(Outcome& outcome, double setup_s,
                            const std::vector<double>& faults_per_s,
                            const std::vector<double>& op_ms);

// -- Workloads ---------------------------------------------------------------

Outcome run_table1_generate(const RunConfig& config);
Outcome run_coverage_sweep(const RunConfig& config);
Outcome run_matrix_store(const RunConfig& config);

}  // namespace perfbench

// Shared plumbing for the repo benchmark: run options, the span trace, sample
// statistics, process memory, and the report every workload fills in.
//
// The benchmark drives the library only through public calls.  Every layer is
// timed from outside, around the call into it; nothing inside src/ is
// instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured-loop length (split in two when tracing)
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  bool smoke = false;     ///< tiny sizes, for the benchmark's own tests
  std::string out_dir;    ///< span JSONL and heat exports land here
  unsigned threads = 1;   ///< min(4, nproc)
};

// -- span trace --------------------------------------------------------------

/// One timed call: name, host start/end in ns since the trace epoch, and the
/// index of the span that was open when it started (-1 for a root).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
};

/// In-memory span store, single-threaded: spans are opened and closed on the
/// benchmark's own thread around calls into the library (parallel work inside
/// a call, such as a fleet phase, is covered by the one span around it).
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Times one call.  The clock is read whether or not spans are recorded,
  /// because the untraced run takes its end-to-end samples from the same
  /// scopes; recording adds only the span push.
  class Scope {
   public:
    Scope(Trace& trace, const char* name);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span (first call only); returns the elapsed seconds.
    double stop();

   private:
    Trace& trace_;
    std::int32_t index_ = -1;
    Clock::time_point start_;
    double elapsed_ = -1.0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations in microseconds of every span called `name`, in start order.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;  ///< summed span durations
    double self_ms = 0.0;   ///< minus the time covered by child spans
  };
  /// Per span name, sorted by self time, largest first.
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// One JSON object per span: name, start_ns, end_ns, parent.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// -- statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile: the smallest value with `pct`% at or below it.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
/// With fewer than 20 samples no percentile qualifies; the maximum is
/// reported as p100 so a smoke run still prints a value.
struct Tail {
  double value = 0.0;
  double pct = 100.0;
  std::size_t count = 0;
};
[[nodiscard]] Tail tail(std::vector<double> values);

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Set-up is repeated and reported as a median: at least 5 times, then
/// until half a second has passed, at most 200 times.
[[nodiscard]] bool more_setups(std::size_t done, Clock::time_point start);

/// Peak resident set of this process (getrusage), in KiB.
[[nodiscard]] long peak_rss_kb();
/// Current resident set of this process (/proc/self/statm), in KiB.
[[nodiscard]] long current_rss_kb();

/// FNV-1a 64, for the simulated-output digests the correctness checks compare.
struct Digest {
  std::uint64_t value = 0xcbf2'9ce4'8422'2325ull;
  void add(const std::uint8_t* data, std::size_t size);
  void add_u64(std::uint64_t v);
};

// -- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / percentile / source, printed only
};

/// What one run prints.  `metrics` go into the result line; `info` lines are
/// printed for people only (the per-workload metric names, the
/// attestation count cross-check, known-defect shares).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<Metric> info;

  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit, std::string note = {});
  void add_info(std::string name, double value, std::string unit, std::string note = {});
  /// Adds `name` (value + " p<pct> of n=<count>" note) from a tail.
  void add_tail(std::string name, const Tail& t, std::string unit, bool as_info = false);
};

/// Simulated-machine counters summed over every machine a workload drove.
struct SimCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t faults = 0;
  std::uint64_t dcache_hits = 0;
  std::uint64_t dcache_builds = 0;
  std::uint64_t dcache_invalidations = 0;
  std::uint64_t dcache_code_writes = 0;
};
/// sim.* per-layer metrics (CPI, interrupts, faults, decode-cache counters).
void add_sim_layers(const SimCounters& sim, Report& report);

// -- workloads -----------------------------------------------------------------
//
// Each workload function runs the measured loop.  Untraced (options.trace
// false) it fills the end-to-end metrics; traced it runs an untraced pass and
// a traced pass over the same operations, checks that they agree, reports
// the tracing overhead and its own layers' per-layer metrics, and leaves the
// traced pass's spans in `trace`.

Report run_fleet_attest(const Options& options, Trace& trace);
Report run_guest_mix(const Options& options, Trace& trace, bool observed);
Report run_fork_fuzz(const Options& options, Trace& trace);

/// Per-layer metrics a workload does not drive itself come from small fixed
/// runs of the workload that does.  Each appends its own layers' metrics.
void fleet_mini(const Options& options, Trace& trace, Report& report);
void guest_mini(const Options& options, Trace& trace, Report& report);
void fuzz_mini(const Options& options, Trace& trace, Report& report);

/// The single-threaded probe: times single public calls on a sample —
/// Platform ctor, default_manifest(), boot(), clone(), load_task(),
/// attest_task(), Challenger::verify(), analysis::analyze().
void run_probe(const Options& options, Trace& trace, Report& report);

/// Heartbeat + bench kernels + fuzz seeds: every program the benchmark loads,
/// for the lint probe.
std::vector<std::string> guest_sources(std::uint64_t seed);
std::vector<std::string> fuzz_seed_sources();

}  // namespace perfbench

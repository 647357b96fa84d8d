// Cycle-budgeted guest-PC sampling profiler.
//
// The owner (sim::Machine) asks `due(cycle)` before each step and calls
// `take(cycle, pc, task)` when a sample is owed; the profiler itself never
// touches the machine, never charges simulated cycles, and costs a single
// null-pointer check when disabled — enabling it leaves every simulated
// cycle count bit-identical, the same invariant the event bus keeps.
//
// PCs are resolved *post hoc* via side tables: per-task code regions with
// their TBF symbol tables (registered by the task loader) and exact-address
// global symbols (firmware entry points registered by the machine).  The
// result exports as collapsed stacks ("task;symbol count" lines) consumable
// by standard flamegraph tooling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tytan::obs {

class SampleProfiler {
 public:
  /// Default sampling interval in simulated cycles.  A prime stride so the
  /// sampler does not alias with loop periods in the sampled workload.
  static constexpr std::uint64_t kDefaultInterval = 997;
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  struct Sample {
    std::uint64_t cycle = 0;
    std::uint32_t pc = 0;
    std::int32_t task = -1;
  };

  /// A resolved sample: the task-level frame and the symbol within it.
  struct Frame {
    std::string task;    ///< task name, "firmware", or "platform"
    std::string symbol;  ///< nearest symbol (label) at or below the PC
  };

  explicit SampleProfiler(std::uint64_t interval_cycles = kDefaultInterval,
                          std::size_t capacity = kDefaultCapacity)
      : interval_(interval_cycles == 0 ? 1 : interval_cycles),
        capacity_(capacity == 0 ? 1 : capacity),
        next_(interval_) {}

  [[nodiscard]] bool due(std::uint64_t cycle) const { return cycle >= next_; }
  /// The first cycle at which due() turns true.
  [[nodiscard]] std::uint64_t next_due() const { return next_; }
  void take(std::uint64_t cycle, std::uint32_t pc, std::int32_t task);

  /// Register a loaded task's code region + symbol table (label -> offset
  /// from `base`).  Replaces any prior region for the handle.
  void add_region(std::int32_t task, std::string name, std::uint32_t base,
                  std::uint32_t size,
                  const std::map<std::string, std::uint32_t>& symbols);
  void remove_region(std::int32_t task);

  /// Register an exact-address symbol outside any task region (firmware
  /// entry points).
  void add_global_symbol(std::uint32_t addr, std::string name);

  [[nodiscard]] Frame resolve(const Sample& sample) const;

  /// Samples in capture order (oldest first); the ring keeps the most
  /// recent `capacity` samples and counts older evictions in dropped().
  [[nodiscard]] std::vector<Sample> samples() const;
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t taken() const { return taken_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t interval() const { return interval_; }

  /// Collapsed-stack export: one "task;symbol count" line per distinct
  /// frame, sorted lexicographically (flamegraph.pl / speedscope input).
  [[nodiscard]] std::string folded() const;

  void clear();

 private:
  struct Region {
    std::string name;
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    /// Sorted (offset, label); resolution picks the greatest offset <= pc-base.
    std::vector<std::pair<std::uint32_t, std::string>> symbols;
  };

  std::uint64_t interval_;
  std::size_t capacity_;
  std::uint64_t next_;
  std::vector<Sample> ring_;
  std::size_t head_ = 0;
  std::uint64_t taken_ = 0;
  std::uint64_t dropped_ = 0;
  std::map<std::int32_t, Region> regions_;
  std::map<std::uint32_t, std::string> global_symbols_;
};

}  // namespace tytan::obs

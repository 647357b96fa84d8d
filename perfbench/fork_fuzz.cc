// fork_fuzz: the tytan-fuzz fork-mode loop.  One boot and one pristine
// snapshot; every exec is restore(pristine) -> mutated TBF -> tbf::read ->
// load_task (lint gate, arena, EA-MPU, RTM) -> run_for(budget).  The decode
// cache is cold after every restore and most loads are rejected.  A rejected
// load is a correct outcome; a caught exception or a broken trusted-state
// invariant is a failed exec.
//
// The loop makes passes over a fixed number of mutated inputs, restarting the
// mutator from the seed for each pass.  An operation is one input of a pass:
// every run of a seed attempts the same inputs and fails the same ones,
// however many execs the host's speed allows, and every later pass must
// repeat each input's first outcome.  Inputs are made again, not stored, so
// the benchmark's own memory does not grow with the pass.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>

#include "bench.h"
#include "core/platform.h"
#include "isa/assembler.h"
#include "tbf/tbf.h"

namespace perfbench {

using namespace tytan;
namespace {

constexpr std::uint64_t kBudgetCycles = 200'000;
/// Mutated inputs per pass: the first pass, which the loop always finishes,
/// takes 6-13 s of a 20 s run on a shared 4-vCPU Xeon host.
constexpr std::size_t kPassInputs = 65536;
constexpr std::size_t kSmokePassInputs = 1000;

/// tytan-fuzz's seed corpus: relocations, a secure task, a data table, calls.
constexpr const char* kSeedPrograms[] = {
    R"(
        .stack 256
        .entry main
    main:
        li r1, data
        ldw r2, [r1]
        addi r2, 1
        stw r2, [r1]
        hlt
    data:
        .word 7
    )",
    R"(
        .secure
        .stack 256
        .entry main
    main:
        li   r2, counter
        ldw  r3, [r2]
        addi r3, 1
        stw  r3, [r2]
        movi r0, 1
        int  0x21
        jmp  main
    counter:
        .word 0
    )",
    R"(
        .stack 128
        .entry start
    start:
        call helper
        hlt
    helper:
        push r3
        movi r3, 5
    loop:
        subi r3, 1
        cmpi r3, 0
        jnz  loop
        pop  r3
        ret
    )",
};

/// tytan-fuzz's mutator: xorshift64 over a few byte stores, occasionally a
/// truncation or an extension.  The benchmark seed is its seed.
class Mutator {
 public:
  Mutator(std::uint64_t seed, const std::vector<ByteVec>& corpus)
      : seed_(seed), state_(initial()), corpus_(corpus) {}

  /// Starts the sequence of inputs again.
  void restart() { state_ = initial(); }

  ByteVec next() {
    ByteVec input = corpus_[rand() % corpus_.size()];
    const std::uint64_t mutations = 1 + rand() % 8;
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rand() % 8) {
        case 0:
          if (input.size() > 8) {
            input.resize(8 + rand() % (input.size() - 8));
          }
          break;
        case 1:
          input.push_back(static_cast<std::uint8_t>(rand()));
          break;
        default:
          input[rand() % input.size()] = static_cast<std::uint8_t>(rand());
          break;
      }
    }
    return input;
  }

 private:
  [[nodiscard]] std::uint64_t initial() const { return seed_ ^ 0x9e37'79b9'7f4a'7c15ull; }

  std::uint64_t rand() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::uint64_t seed_;
  std::uint64_t state_;
  const std::vector<ByteVec>& corpus_;
};

enum class Outcome : std::uint8_t { kParseReject, kLoadReject, kLoaded };

struct ExecResult {
  Outcome outcome = Outcome::kParseReject;
  bool guest_fault = false;
  bool failed = false;
  bool operator==(const ExecResult&) const = default;
};

struct Stats {
  std::vector<ExecResult> results;
  std::vector<double> exec_ms;
  std::map<std::string, std::uint64_t> failure_kinds;  ///< message -> execs
  SimCounters sim;
  double total_s = 0.0;
  bool restore_broken = false;
  std::size_t pass_inputs = 0;
  std::uint64_t repeat_mismatches = 0;  ///< later passes that changed an outcome

  /// Distinct inputs executed: the first pass, or all of a shorter run.
  [[nodiscard]] std::size_t distinct() const {
    return std::min(results.size(), pass_inputs);
  }

  [[nodiscard]] std::uint64_t count(Outcome o) const {
    return std::count_if(results.begin(), results.end(),
                         [o](const ExecResult& r) { return r.outcome == o; });
  }
  [[nodiscard]] std::uint64_t guest_faults() const {
    return std::count_if(results.begin(), results.end(),
                         [](const ExecResult& r) { return r.guest_fault; });
  }
  /// Distinct inputs whose exec failed.
  [[nodiscard]] std::uint64_t failures() const {
    return std::count_if(results.begin(), results.begin() + distinct(),
                         [](const ExecResult& r) { return r.failed; });
  }
};

/// One booted platform, its pristine snapshot, and the assembled corpus.
class Harness {
 public:
  /// Set-up: assemble the corpus, construct, boot, snapshot.
  bool set_up(Trace& trace) {
    Trace::Scope root(trace, "fuzz.setup");
    for (const char* source : kSeedPrograms) {
      auto object = isa::assemble(source);
      if (!object.is_ok()) {
        return false;
      }
      corpus_.push_back(tbf::write(*object));
    }
    platform_ = std::make_unique<core::Platform>();
    if (!platform_->boot().is_ok()) {
      return false;
    }
    auto snapshot = platform_->save();
    if (!snapshot.is_ok()) {
      return false;
    }
    pristine_ = snapshot.take();
    return true;
  }

  /// Execs in passes of `pass_inputs`: until the first pass is done and
  /// `seconds` pass, or exactly `count` when non-zero.
  Stats run(std::uint64_t seed, Trace& trace, double seconds, std::size_t count,
            std::size_t pass_inputs) {
    Stats stats;
    stats.pass_inputs = pass_inputs;
    // Sized up front: reallocating the sample vectors would move peak RSS by
    // whichever doubling the exec count happens to cross.
    const std::size_t expected =
        count != 0 ? count
                   : std::max(pass_inputs, static_cast<std::size_t>(seconds * 2e4));
    stats.results.reserve(expected);
    stats.exec_ms.reserve(expected);
    Mutator mutator(seed, corpus_);
    const Clock::time_point start = Clock::now();
    while (count != 0 ? stats.results.size() < count
                      : stats.results.size() < pass_inputs || seconds_since(start) < seconds) {
      const std::size_t i = stats.results.size();
      if (i != 0 && i % pass_inputs == 0) {
        mutator.restart();
      }
      const ByteVec input = mutator.next();
      Trace::Scope s(trace, "fuzz.exec");
      stats.results.push_back(exec(input, trace, stats));
      stats.exec_ms.push_back(s.stop() * 1e3);
      if (stats.restore_broken) {
        break;
      }
      if (i >= pass_inputs && !(stats.results[i] == stats.results[i % pass_inputs])) {
        ++stats.repeat_mismatches;
      }
    }
    stats.total_s = seconds_since(start);
    const sim::DecodeCache::Stats& dc = platform_->machine().decode_cache().stats();
    stats.sim.dcache_hits = dc.hits;
    stats.sim.dcache_builds = dc.builds;
    stats.sim.dcache_invalidations = dc.invalidations;
    stats.sim.dcache_code_writes = dc.code_writes;
    return stats;
  }

 private:
  ExecResult exec(const ByteVec& input, Trace& trace, Stats& stats) {
    ExecResult result;
    core::Platform& p = *platform_;
    try {
      {
        Trace::Scope s(trace, "snap.restore");
        if (!p.restore(pristine_).is_ok()) {
          stats.restore_broken = true;
          result.failed = true;
          stats.failure_kinds["restore failed"] += 1;
          return result;
        }
      }
      const sim::Machine& m = p.machine();
      const std::uint64_t c0 = m.cycles();
      const std::uint64_t i0 = m.instructions_executed();
      const std::uint64_t irq0 = m.interrupts_dispatched();
      auto object = [&] {
        Trace::Scope s(trace, "tbf.read");
        return tbf::read(input);
      }();
      if (object.is_ok()) {
        auto task = [&] {
          Trace::Scope s(trace, "core.load_task");
          return p.load_task(object.take(), {.name = "fuzz"});
        }();
        if (task.is_ok()) {
          result.outcome = Outcome::kLoaded;
          Trace::Scope s(trace, "sim.run_for");
          p.run_for(kBudgetCycles);
        } else {
          result.outcome = Outcome::kLoadReject;
        }
      }
      stats.sim.cycles += m.cycles() - c0;
      stats.sim.instructions += m.instructions_executed() - i0;
      stats.sim.interrupts += m.interrupts_dispatched() - irq0;
      stats.sim.faults += m.fault_count();
      result.guest_fault = m.fault_count() != 0;
      // Invariants the trusted state must hold after any input.
      if (m.halted() || !p.mpu().port_locked()) {
        result.failed = true;
        stats.failure_kinds["trusted-state invariant broken"] += 1;
      }
    } catch (const std::exception& e) {
      result.failed = true;
      stats.failure_kinds[e.what()] += 1;
    } catch (...) {
      result.failed = true;
      stats.failure_kinds["non-standard exception"] += 1;
    }
    return result;
  }

  std::vector<ByteVec> corpus_;
  std::unique_ptr<core::Platform> platform_;
  snap::Snapshot pristine_;
};

/// Operations are the execs of the first pass: their number and outcomes
/// depend on the seed only.  A later exec that fails repeats a counted
/// failure, or it breaks the repeat check.
void count_ops(const Stats& stats, Report& report) {
  report.attempted += stats.distinct();
  report.failed += stats.failures();
  report.check(!stats.restore_broken, "fork_fuzz: restore(pristine) failed");
  report.check(stats.repeat_mismatches == 0,
               "fork_fuzz: " + std::to_string(stats.repeat_mismatches) +
                   " repeated execs changed their input's outcome");
}

/// Counts as "loaded/rejected/guest-faults/failures" for messages.
std::string counts(const Stats& s) {
  return std::to_string(s.count(Outcome::kLoaded)) + "/" +
         std::to_string(s.count(Outcome::kParseReject) + s.count(Outcome::kLoadReject)) +
         "/" + std::to_string(s.guest_faults()) + "/" + std::to_string(s.failures());
}

/// snap/tbf/core/sim per-layer metrics of the traced execs.
void fuzz_layers(const Stats& stats, const Trace& trace, const std::string& source,
                 Report& report) {
  const std::vector<double> restore = trace.durations_us("snap.restore");
  report.add("snap.restore_us_p50", median(restore), "us", source);
  const Tail t = tail(restore);
  char note[96];
  std::snprintf(note, sizeof note, "%s; p%g of n=%zu", source.c_str(), t.pct, t.count);
  report.add("snap.restore_us_tail", t.value, "us", note);
  report.add("tbf.read_us", median(trace.durations_us("tbf.read")), "us", source);
  const double execs = static_cast<double>(stats.results.size());
  const double parsed = execs - static_cast<double>(stats.count(Outcome::kParseReject));
  report.add("tbf.parse_ok_ratio", parsed / execs, "ratio", source);
  report.add("core.load_accept_ratio",
             parsed == 0 ? 0.0 : static_cast<double>(stats.count(Outcome::kLoaded)) / parsed,
             "ratio", source + "; loaded / load_task calls");
  report.add("sim.budget_run_us", median(trace.durations_us("sim.run_for")), "us", source);
}

}  // namespace

std::vector<std::string> fuzz_seed_sources() {
  return {std::begin(kSeedPrograms), std::end(kSeedPrograms)};
}

Report run_fork_fuzz(const Options& options, Trace& trace) {
  Report report;
  Trace off(false);

  if (!options.trace) {
    // Set-up (assemble, construct, boot, pristine snapshot) is repeated; the
    // last harness runs the loop.
    std::vector<double> setup_s;
    std::unique_ptr<Harness> harness;
    for (const Clock::time_point start = Clock::now(); more_setups(setup_s.size(), start);) {
      harness = std::make_unique<Harness>();
      const Clock::time_point t0 = Clock::now();
      report.check(harness->set_up(off), "fork_fuzz: set-up failed");
      setup_s.push_back(seconds_since(t0));
    }
    const std::size_t pass = options.smoke ? kSmokePassInputs : kPassInputs;
    const Stats stats = harness->run(options.seed, off, options.seconds, 0, pass);
    const long rss_kb = peak_rss_kb();
    count_ops(stats, report);

    // Determinism: a second harness replays the first execs of the seed and
    // must reach the same outcome for each.
    const std::size_t replay_n = std::min<std::size_t>(stats.results.size(), 2000);
    Harness replay;
    report.check(replay.set_up(off), "fork_fuzz: set-up failed");
    const Stats again = replay.run(options.seed, off, 0.0, replay_n, pass);
    report.check(std::equal(again.results.begin(), again.results.end(),
                            stats.results.begin()),
                 "fork_fuzz: replay of the first execs disagrees: " + counts(again) +
                     " vs the loop's prefix");

    std::vector<double> exec_us;
    for (const double ms : stats.exec_ms) {
      exec_us.push_back(ms * 1e3);
    }
    const double execs = static_cast<double>(stats.results.size());
    report.add("setup_s", median(setup_s), "s",
               "assemble+construct+boot+snapshot, median of " +
                   std::to_string(setup_s.size()));
    report.add("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
    // Rates over the whole loop: every run of a seed execs the same first
    // pass, so the loop's mix of cheap rejects and full-budget runs is fixed.
    // A rate per 1000-exec chunk moved with how many full-budget runs the
    // chunk held, and a low percentile of it spread wider across seeds.
    const std::string loop = "mean over the loop, " + std::to_string(stats.results.size()) +
                             " execs";
    report.add("ops_per_s", execs / stats.total_s, "1/s", loop);
    report.add("guest_mips", static_cast<double>(stats.sim.instructions) / stats.total_s / 1e6,
               "MIPS", "instructions of loaded inputs, " + loop);
    report.add_tail("step_ms_tail", tail(stats.exec_ms), "ms");
    report.add_info("fuzz_execs_per_s", execs / stats.total_s, "1/s", "= ops_per_s");
    report.add_info("fuzz_exec_us_p50", median(exec_us), "us",
                    "n=" + std::to_string(exec_us.size()));
    report.add_tail("fuzz_exec_us_tail", tail(exec_us), "us", /*as_info=*/true);
    report.add_info("loaded", static_cast<double>(stats.count(Outcome::kLoaded)), "count");
    report.add_info("rejected",
                    static_cast<double>(stats.count(Outcome::kParseReject) +
                                        stats.count(Outcome::kLoadReject)),
                    "count");
    report.add_info("guest_faults", static_cast<double>(stats.guest_faults()), "count");
    report.add_info("inputs", static_cast<double>(stats.distinct()), "count",
                    std::to_string(execs / static_cast<double>(stats.distinct())) +
                        " execs each");
    report.add_info("failures_per_100k",
                    1e5 * static_cast<double>(stats.failures()) /
                        static_cast<double>(stats.distinct()),
                    "1/100k", "of inputs; known defect, see README");
    for (const auto& [what, n] : stats.failure_kinds) {
      report.add_info("failure", static_cast<double>(n), "count", what);
    }
    return report;
  }

  // Traced run: untraced execs for half the time, then the same execs traced
  // on a fresh harness; loaded, rejected, guest-fault and failure outcomes
  // must agree exec by exec.
  Harness bare;
  report.check(bare.set_up(off), "fork_fuzz: set-up failed");
  const std::size_t pass = options.smoke ? kSmokePassInputs : kPassInputs;
  const Stats untraced = bare.run(options.seed, off, options.seconds / 2.0, 0, pass);
  Harness harness;
  Stats traced;
  {
    Trace::Scope root(trace, "workload.fork_fuzz");
    report.check(harness.set_up(trace), "fork_fuzz: set-up failed");
    traced = harness.run(options.seed, trace, 0.0, untraced.results.size(), pass);
  }
  // The traced and untraced runs exec the same inputs; they count once.
  count_ops(traced, report);
  report.check(untraced.repeat_mismatches == 0 && !untraced.restore_broken,
               "fork_fuzz: untraced run broke restore or repeated an input differently");
  report.check(traced.results == untraced.results,
               "fork_fuzz: traced and untraced outcomes differ: " + counts(traced) +
                   " vs " + counts(untraced));
  report.add("trace.overhead_pct", 100.0 * (traced.total_s / untraced.total_s - 1.0), "%",
             std::to_string(traced.results.size()) + " execs each way");
  fuzz_layers(traced, trace, "loop", report);
  add_sim_layers(traced.sim, report);
  return report;
}

void fuzz_mini(const Options& options, Trace& trace, Report& report) {
  Trace::Scope root(trace, "probe.fuzz");
  Harness harness;
  report.check(harness.set_up(trace), "probe fuzz: set-up failed");
  const std::size_t n = options.smoke ? 50 : 1000;
  const Stats stats = harness.run(options.seed, trace, 0.0, n, n);
  report.check(!stats.restore_broken, "probe fuzz: restore(pristine) failed");
  fuzz_layers(stats, trace, "probe: 1000 execs", report);
}

}  // namespace perfbench

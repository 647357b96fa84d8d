// Idle fast-forward: Machine::run() charges every idle pass up to the next
// observable event in one call (Machine::spin).  The contract is that this is
// invisible — a run_for(N) lands every simulated quantity, and every snapshot
// byte, exactly where a step() loop to the same limit puts them.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.h"

namespace tytan {
namespace {

using core::Platform;

// A normal task that prints and sleeps, and a secure task that sleeps: idle
// stretches between ticks, syscalls and secure context switches around them.
constexpr std::string_view kBlink = R"(
    .stack 128
    .entry main
main:
    movi r0, 4
    movi r1, 46
    int  0x21
    movi r0, 2
    movi r1, 2
    int  0x21
    jmp  main
)";

constexpr std::string_view kSleeper = R"(
    .secure
    .stack 256
    .entry main
main:
    movi r0, 2
    movi r1, 3
    int  0x21
    jmp  main
)";

struct Case {
  std::string name;
  bool tasks = true;
  bool profiler = false;
  bool tracer = false;
  std::string fault_plan;
};

std::unique_ptr<Platform> make_platform(const Case& c, sim::DispatchMode mode) {
  Platform::Config config;
  config.dispatch = mode;
  if (!c.fault_plan.empty()) {
    auto plan = fault::FaultPlan::parse(c.fault_plan);
    EXPECT_TRUE(plan.is_ok());
    config.fault_plan = *plan;
  }
  return std::make_unique<Platform>(config);
}

void bring_up(Platform& platform, const Case& c) {
  if (c.profiler) {
    platform.machine().enable_profiler(obs::SampleProfiler::kDefaultInterval);
  }
  if (c.tracer) {
    platform.machine().enable_trace(64);
  }
  ASSERT_TRUE(platform.boot().is_ok());
  if (c.tasks) {
    ASSERT_TRUE(platform.load_task_source(kBlink, {.name = "blink"}).is_ok());
    ASSERT_TRUE(platform.load_task_source(kSleeper, {.name = "sleeper"}).is_ok());
  }
}

// The reference: what run() did before the fast-forward — one step() per
// pass (step() never skips).
void step_to(Platform& platform, std::uint64_t limit) {
  sim::Machine& machine = platform.machine();
  while (!machine.halted() && machine.cycles() < limit) {
    machine.step();
  }
}

std::uint64_t idle_cpu_cycles(Platform& platform) {
  const rtos::Tcb* idle = platform.scheduler().get(platform.kernel().idle_task());
  return idle == nullptr ? 0 : idle->cpu_cycles;
}

void expect_same(Platform& fast, Platform& stepped) {
  EXPECT_EQ(fast.machine().cycles(), stepped.machine().cycles());
  EXPECT_EQ(fast.machine().firmware_invocations(), stepped.machine().firmware_invocations());
  EXPECT_EQ(fast.machine().instructions_executed(),
            stepped.machine().instructions_executed());
  EXPECT_EQ(fast.machine().interrupts_dispatched(),
            stepped.machine().interrupts_dispatched());
  EXPECT_EQ(idle_cpu_cycles(fast), idle_cpu_cycles(stepped));
  EXPECT_EQ(fast.kernel().tick_count(), stepped.kernel().tick_count());
  EXPECT_EQ(fast.serial().output(), stepped.serial().output());
  if (const obs::SampleProfiler* profiler = fast.machine().profiler(); profiler != nullptr) {
    EXPECT_EQ(profiler->taken(), stepped.machine().profiler()->taken());
    EXPECT_EQ(profiler->folded(), stepped.machine().profiler()->folded());
  }
  if (sim::Tracer* tracer = fast.machine().tracer(); tracer != nullptr) {
    EXPECT_EQ(tracer->format(), stepped.machine().tracer()->format());
  }
  auto a = fast.save();
  auto b = stepped.save();
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(a->serialize(), b->serialize());
}

// A run limit, computed from the reference's state when it is reached.
using Limit = std::function<std::uint64_t(Platform& stepped)>;

Limit after(std::uint64_t cycles) {
  return [cycles](Platform& p) { return p.machine().cycles() + cycles; };
}

// Runs a fresh fast/stepped pair through `limits` and compares the two after
// each run.
void check_pair(const Case& c, sim::DispatchMode mode, const std::vector<Limit>& limits) {
  auto fast = make_platform(c, mode);
  auto stepped = make_platform(c, mode);
  bring_up(*fast, c);
  bring_up(*stepped, c);
  ASSERT_NO_FATAL_FAILURE(expect_same(*fast, *stepped));
  for (const Limit& limit_of : limits) {
    const std::uint64_t limit = limit_of(*stepped);
    SCOPED_TRACE("limit " + std::to_string(limit));
    ASSERT_GT(limit, stepped->machine().cycles());
    fast->run_for(limit - fast->machine().cycles());
    step_to(*stepped, limit);
    ASSERT_NO_FATAL_FAILURE(expect_same(*fast, *stepped));
  }
  EXPECT_EQ(stepped->machine().idle_passes_skipped(), 0u);
  if (c.tracer) {
    EXPECT_EQ(fast->machine().idle_passes_skipped(), 0u) << "the tracer sees every pass";
  } else {
    EXPECT_GT(fast->machine().idle_passes_skipped(), 0u) << "idle was never skipped";
  }
}

TEST(IdleFastForward, MatchesSingleStepping) {
  const std::vector<Case> cases = {
      {.name = "idle only", .tasks = false},
      {.name = "tasks"},
      {.name = "profiler", .profiler = true},
      {.name = "tracer", .tracer = true},
      {.name = "task-stall", .fault_plan = "task-stall:blink"},
  };
  for (const sim::DispatchMode mode :
       {sim::DispatchMode::kCached, sim::DispatchMode::kInterpreter}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name + (mode == sim::DispatchMode::kCached ? " / cached" : " / interp"));
      // Consecutive limits that are not multiples of the 20-cycle pass, many
      // of them spanning ticks that interrupt idle.  The 3M-cycle stretch
      // outlasts the task-stall watchdog (8 ticks).
      check_pair(c, mode,
                 {after(1), after(19), after(21), after(1'000), after(47'999), after(48'001),
                  after(123'457), after(500'003), after(3'000'017)});
      // Limits one cycle either side of the first two ticks (and a pass
      // either side), each from a fresh pair, then on past the tick.
      for (const std::uint64_t tick : {0, 1}) {
        for (const std::int64_t offset : {-20, -1, 0, 1, 19}) {
          SCOPED_TRACE("tick " + std::to_string(tick) + " offset " + std::to_string(offset));
          const Limit edge = [tick, offset](Platform& p) {
            return p.timer().next_tick_due() + tick * p.timer().period() + offset;
          };
          check_pair(c, mode, {edge, after(100'003)});
        }
      }
      if (!c.fault_plan.empty()) {
        auto p = make_platform(c, mode);
        bring_up(*p, c);
        p->run_for(3'000'000);
        EXPECT_GT(p->kernel().watchdog_restarts(), 0u) << "the stall never recovered";
      }
    }
  }
}

TEST(IdleFastForward, SaveMidIdleRestoreAndContinue) {
  const Case c{.name = "tasks"};
  for (const sim::DispatchMode mode :
       {sim::DispatchMode::kCached, sim::DispatchMode::kInterpreter}) {
    auto fast = make_platform(c, mode);
    auto stepped = make_platform(c, mode);
    bring_up(*fast, c);
    bring_up(*stepped, c);
    // Stop mid-idle, 7 cycles short of the second tick: not a pass boundary.
    const std::uint64_t limit = stepped->timer().next_tick_due() + 48'000 - 7;
    fast->run_for(limit - fast->machine().cycles());
    step_to(*stepped, limit);
    ASSERT_EQ(fast->scheduler().current_handle(), fast->kernel().idle_task());
    auto snapshot = fast->save();
    ASSERT_TRUE(snapshot.is_ok());
    auto restored = make_platform(c, mode);
    ASSERT_TRUE(restored->restore(*snapshot).is_ok());
    for (const std::uint64_t cycles : {13ull, 48'000ull, 777'777ull}) {
      restored->run_for(cycles);
      step_to(*stepped, stepped->machine().cycles() + cycles);
      ASSERT_NO_FATAL_FAILURE(expect_same(*restored, *stepped));
    }
    EXPECT_GT(restored->machine().idle_passes_skipped(), 0u);
  }
}

TEST(IdleFastForward, StepAndRunUntilNeverSkip) {
  Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  for (int i = 0; i < 10'000; ++i) {
    platform.machine().step();
  }
  const std::uint64_t before = platform.machine().cycles();
  EXPECT_FALSE(platform.run_until([] { return false; }, 100'000));
  EXPECT_GE(platform.machine().cycles(), before + 100'000);
  EXPECT_EQ(platform.machine().idle_passes_skipped(), 0u);
  platform.run_for(100'000);
  EXPECT_GT(platform.machine().idle_passes_skipped(), 0u);
}

}  // namespace
}  // namespace tytan

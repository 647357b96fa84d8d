// guest_mix / guest_mix_observed: one booted platform running the four busy
// bench_host_perf kernels (memory, call_branch, jump_table, alu_block) as
// concurrent equal-priority secure tasks plus the heartbeat, advanced in
// fixed simulated-cycle windows.  Nearly all host time is cached dispatch,
// EA-MPU data checks, ticks and secure context switches.  The observed
// variant turns the execution observatory on before boot (the tytan-run
// --heat-out mode) and exports the profile at the end.
#include <array>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench.h"
#include "core/platform.h"
#include "fleet/verifier_workload.h"
#include "isa/isa.h"

namespace perfbench {

using namespace tytan;
namespace {

/// The bench_host_perf kernels.  "@" is replaced by a seed-derived 15-bit
/// constant: the seed changes the data the kernels compute on, not the work.
constexpr std::array<const char*, 4> kKernels = {
    // memory: the load/store EA-MPU check path.
    R"(
      .secure
      .stack 128
      .entry main
  main:
      li   r2, data
  loop:
      ldw  r3, [r2]
      addi r3, 1
      stw  r3, [r2]
      jmp  loop
  data:
      .word @
  )",
    // call_branch: call/ret stack traffic.
    R"(
      .secure
      .stack 256
      .entry start
  start:
      li   r5, @
  main:
      call bump
      cmpi r5, 0
      jnz  main
      jmp  main
  bump:
      addi r5, 1
      ret
  )",
    // jump_table: computed jumps through a table (indirect-edge path).
    R"(
      .secure
      .stack 128
      .entry start
  start:
      li   r1, @
  main:
      addi r1, 1
      andi r1, 3
      shli r1, 2
      li   r2, table
      add  r2, r1
      ldw  r2, [r2]
      shri r1, 2
      jmpr r2
  case0:
      jmp  main
  case1:
      jmp  main
  case2:
      jmp  main
  case3:
      jmp  main
  table:
      .word case0, case1, case2, case3
  )",
    // alu_block: a 32-op straight-line block, the decode cache's best case.
    R"(
      .secure
      .stack 128
      .entry start
  start:
      li   r1, @
  main:
      addi r1, 1
      xor  r2, r1
      shli r3, 1
      ori  r3, 5
      add  r4, r1
      andi r4, 255
      sub  r5, r2
      shri r5, 3
      addi r1, 7
      xor  r2, r4
      shli r3, 2
      ori  r3, 9
      add  r4, r2
      andi r4, 1023
      sub  r5, r1
      shri r5, 1
      addi r1, 3
      xor  r2, r3
      shli r3, 1
      ori  r3, 17
      add  r4, r3
      andi r4, 4095
      sub  r5, r4
      shri r5, 2
      addi r1, 11
      xor  r2, r5
      shli r3, 3
      ori  r3, 33
      add  r4, r5
      andi r4, 65535
      sub  r5, r3
      shri r5, 4
      jmp  main
  )",
};
constexpr std::array<const char*, 4> kKernelNames = {"memory", "call_branch",
                                                     "jump_table", "alu_block"};

std::uint64_t window_cycles(const Options& options) {
  return options.smoke ? 500'000 : 2'000'000;
}

/// Simulated state after one window; compared bit for bit across runs,
/// across the traced/untraced passes, and between bare and observed.
struct WindowState {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t faults = 0;
  std::array<std::uint32_t, 8> regs{};
  std::uint32_t eip = 0;
  std::uint32_t eflags = 0;
  bool operator==(const WindowState&) const = default;
};

WindowState state_of(const core::Platform& platform) {
  const sim::Machine& machine = platform.machine();
  WindowState state;
  state.cycles = machine.cycles();
  state.instructions = machine.instructions_executed();
  state.faults = machine.fault_count();
  for (std::size_t i = 0; i < state.regs.size(); ++i) {
    state.regs[i] = machine.cpu().regs[i];
  }
  state.eip = machine.cpu().eip;
  state.eflags = machine.cpu().eflags;
  return state;
}

std::unique_ptr<core::Platform> setup(std::uint64_t seed, bool observed, Trace& trace,
                                      Report& report) {
  Trace::Scope root(trace, "guest.setup");
  std::unique_ptr<core::Platform> platform;
  {
    Trace::Scope s(trace, "core.platform_new");
    platform = std::make_unique<core::Platform>();
  }
  if (observed) {
    platform->machine().enable_heat();
  }
  {
    Trace::Scope s(trace, "core.boot");
    auto boot = platform->boot();
    report.check(boot.is_ok(), "guest: boot failed");
  }
  const std::vector<std::string> sources = guest_sources(seed);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    Trace::Scope s(trace, "core.load_task_source");
    const std::string name = i < kKernelNames.size() ? kKernelNames[i] : "heartbeat";
    auto task = platform->load_task_source(sources[i], {.name = name});
    report.check(task.is_ok(), "guest: loading " + name + " failed: " +
                                   task.status().to_string());
  }
  return platform;
}

struct Windows {
  std::vector<double> ms;
  std::vector<double> mips;
  std::vector<WindowState> states;
  std::uint64_t failed = 0;
  double total_s = 0.0;
};

/// Windows until `seconds` pass (at least `min_windows`), or exactly `count`.
Windows run_windows(core::Platform& platform, std::uint64_t window, Trace& trace,
                    double seconds, std::size_t count, std::size_t min_windows) {
  Windows out;
  WindowState prev = state_of(platform);
  const Clock::time_point start = Clock::now();
  while (count != 0 ? out.ms.size() < count
                    : out.ms.size() < min_windows || seconds_since(start) < seconds) {
    Trace::Scope s(trace, "guest.window");
    platform.run_for(window);
    const double secs = s.stop();
    const WindowState state = state_of(platform);
    out.total_s += secs;
    out.ms.push_back(secs * 1e3);
    out.mips.push_back(static_cast<double>(state.instructions - prev.instructions) /
                       secs / 1e6);
    if (state.faults != prev.faults || platform.machine().halted()) {
      out.failed += 1;
    }
    out.states.push_back(state);
    prev = state;
  }
  return out;
}

std::uint64_t states_digest(const std::vector<WindowState>& states, std::size_t n) {
  Digest digest;
  for (std::size_t i = 0; i < n && i < states.size(); ++i) {
    const WindowState& s = states[i];
    for (const std::uint64_t v : {s.cycles, s.instructions, s.faults,
                                  static_cast<std::uint64_t>(s.eip),
                                  static_cast<std::uint64_t>(s.eflags)}) {
      digest.add_u64(v);
    }
    for (const std::uint32_t r : s.regs) {
      digest.add_u64(r);
    }
  }
  return digest.value;
}

/// Flush and export the heat profile (heat-schema JSONL, host ns included,
/// as tytan-run --heat-out writes it); returns the export's host seconds.
double export_heat(obs::HeatRecorder& heat, const Options& options, Trace& trace) {
  Trace::Scope s(trace, "obs.heat_export");
  heat.flush();
  const obs::OpcodeNamer namer = [](std::uint8_t op) {
    return std::string(isa::mnemonic(static_cast<isa::Opcode>(op)));
  };
  std::ofstream out(options.out_dir + "/heat-" + options.workload + ".jsonl",
                    std::ios::binary);
  out << heat.profile().to_jsonl(/*include_host_ns=*/true, namer);
  return s.stop();
}

/// Exports the observed platform's profile and reports the obs/hw layers.
void heat_layers(core::Platform& platform, const Options& options, Trace& trace,
                 const std::string& source, Report& report) {
  obs::HeatRecorder* heat = platform.machine().heat();
  if (heat == nullptr) {
    report.check(false, "guest: observatory not enabled");
    return;
  }
  const double export_s = export_heat(*heat, options, trace);
  const obs::HeatProfile& profile = heat->profile();
  const std::uint64_t instructions = profile.total_instructions();
  report.add("hw.eampu.checks_per_instr",
             instructions == 0 ? 0.0
                               : static_cast<double>(profile.total_checks()) /
                                     static_cast<double>(instructions),
             "checks/instr", source);
  report.add("obs.heat_export_ms", export_s * 1e3, "ms", source);
  report.add("obs.heat.blocks", static_cast<double>(profile.blocks.size()), "count",
             source);
}

SimCounters sim_of(const core::Platform& platform) {
  const sim::Machine& machine = platform.machine();
  const sim::DecodeCache::Stats& dc = machine.decode_cache().stats();
  return {machine.cycles(),      machine.instructions_executed(),
          machine.interrupts_dispatched(), machine.fault_count(),
          dc.hits,               dc.builds,
          dc.invalidations,      dc.code_writes};
}

/// Windows the correctness check replays in the other observatory mode.
constexpr std::size_t kCheckWindows = 4;

}  // namespace

std::vector<std::string> guest_sources(std::uint64_t seed) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < kKernels.size(); ++i) {
    std::string source = kKernels[i];
    const std::uint64_t value = ((seed * 0x9e37'79b9ull) >> (8 * i)) & 0x7fff;
    source.replace(source.find('@'), 1, std::to_string(value));
    out.push_back(std::move(source));
  }
  out.push_back(fleet::default_task_source());
  return out;
}

Report run_guest_mix(const Options& options, Trace& trace, bool observed) {
  Report report;
  const std::uint64_t window = window_cycles(options);
  const char* name = observed ? "guest_mix_observed" : "guest_mix";

  if (!options.trace) {
    // Set-up (construct, boot, load five tasks) is repeated; the last
    // platform runs the loop.
    std::vector<double> setup_s;
    std::unique_ptr<core::Platform> platform;
    Trace off(false);
    for (const Clock::time_point start = Clock::now(); more_setups(setup_s.size(), start);) {
      platform.reset();
      const Clock::time_point t0 = Clock::now();
      platform = setup(options.seed, observed, off, report);
      setup_s.push_back(seconds_since(t0));
    }
    const Windows w = run_windows(*platform, window, off, options.seconds, 0, 20);
    const long rss_kb = peak_rss_kb();
    report.attempted += w.ms.size();
    report.failed += w.failed;
    report.check(w.failed == 0, std::string(name) + ": guest fault in a window");

    // The observatory must cost zero simulated cycles: the other mode, from
    // a fresh platform, must reach the same state after every window.
    const std::unique_ptr<core::Platform> other = setup(options.seed, !observed, off, report);
    const Windows ref =
        run_windows(*other, window, off, 0.0, std::min(kCheckWindows, w.states.size()), 0);
    for (std::size_t i = 0; i < ref.states.size(); ++i) {
      report.check(ref.states[i] == w.states[i],
                   std::string(name) + ": bare and observed runs diverge at window " +
                       std::to_string(i));
    }
    if (observed) {
      // The profile is exported at the end, as tytan-run does; not timed here.
      export_heat(*platform->machine().heat(), options, off);
    }

    report.add("setup_s", median(setup_s), "s",
               "construct+boot+5 loads, median of " + std::to_string(setup_s.size()));
    report.add("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
    // Window times switch between host-speed regimes for seconds at a time,
    // so a median or mean moves with the regime mix between runs; the rates
    // 90% of windows reach stay put.
    const std::string windows = "reached by 90% of " + std::to_string(w.ms.size()) +
                                " windows of " + std::to_string(window) + " cycles";
    report.add("ops_per_s", 1e3 / percentile(w.ms, 90.0), "1/s", "windows " + windows);
    report.add("guest_mips", percentile(w.mips, 10.0), "MIPS", windows);
    report.add_tail("step_ms_tail", tail(w.ms), "ms");
    report.add_info("guest_mips_p50", median(w.mips), "MIPS",
                    "median of " + std::to_string(w.mips.size()) + " windows");
    report.add_info("windows_per_s", static_cast<double>(w.ms.size()) / w.total_s, "1/s",
                    "mean over the loop");
    report.add_info("window_ms_p50", median(w.ms), "ms",
                    "n=" + std::to_string(w.ms.size()));
    report.add_tail("window_ms_tail", tail(w.ms), "ms", /*as_info=*/true);
    char digest[64];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(states_digest(w.states, kCheckWindows)));
    report.add_info("sim_digest_first_windows", static_cast<double>(kCheckWindows),
                    "windows", digest);
    return report;
  }

  // Traced run: untraced windows for half the time, then as many traced
  // windows on a fresh platform; every window's state must match.
  Trace off(false);
  const std::unique_ptr<core::Platform> bare = setup(options.seed, observed, off, report);
  const Windows untraced = run_windows(*bare, window, off, options.seconds / 2.0, 0, 20);
  std::unique_ptr<core::Platform> platform;
  Windows traced;
  {
    Trace::Scope root(trace, observed ? "workload.guest_mix_observed"
                                      : "workload.guest_mix");
    platform = setup(options.seed, observed, trace, report);
    traced = run_windows(*platform, window, trace, 0.0, untraced.ms.size(), 0);
  }
  report.attempted += untraced.ms.size() + traced.ms.size();
  report.failed += untraced.failed + traced.failed;
  report.check(untraced.failed + traced.failed == 0,
               std::string(name) + ": guest fault in a window");
  report.check(untraced.states == traced.states,
               std::string(name) + ": traced and untraced windows diverge");
  report.add("trace.overhead_pct", 100.0 * (traced.total_s / untraced.total_s - 1.0), "%",
             std::to_string(traced.ms.size()) + " windows each way");
  add_sim_layers(sim_of(*platform), report);
  if (observed) {
    heat_layers(*platform, options, trace, "loop", report);
  }
  return report;
}

void guest_mini(const Options& options, Trace& trace, Report& report) {
  Trace::Scope root(trace, "probe.guest_observed");
  const std::unique_ptr<core::Platform> platform =
      setup(options.seed, /*observed=*/true, trace, report);
  const Windows w = run_windows(*platform, 1'000'000, trace, 0.0, 4, 0);
  report.check(w.failed == 0, "probe guest: guest fault in a window");
  heat_layers(*platform, options, trace, "probe: 4M cycles observed", report);
}

}  // namespace perfbench

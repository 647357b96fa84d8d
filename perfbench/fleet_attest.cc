// fleet_attest: one fleet lifecycle per repetition, on FleetConfig defaults
// (obs on; spans, heat and telemetry off), driving the built-in heartbeat:
// Fleet construction -> bring_up -> deploy -> run -> N x attest_all ->
// teardown.  Bring-up dominates; the run phase is mostly idle heartbeat.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "fleet/fleet.h"
#include "fleet/verifier_workload.h"

namespace perfbench {

using namespace tytan;
namespace {

constexpr const char kRelease[] = "fleet-fw";
/// The attest-phase tail needs 20 samples (p50 with 10 beyond); a run goes
/// on past --seconds rather than report a tail of fewer.
constexpr std::size_t kMinLifecycles = 20;

struct Shape {
  std::size_t devices;
  std::uint64_t cycles;
  unsigned sweeps;
  unsigned threads;
};

Shape full_shape(const Options& options) {
  if (options.smoke) {
    return {32, 200'000, 2, options.threads};
  }
  return {1024, 500'000, 32, options.threads};
}

/// The fixed fleet the probe runs for workloads that do not drive the fleet.
Shape mini_shape(const Options& options) { return {32, 200'000, 2, options.threads}; }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e37'79b9'7f4a'7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebull;
  return x ^ (x >> 31);
}

fleet::FleetConfig config_for(const Shape& shape, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.device_count = shape.devices;
  config.threads = shape.threads;
  // The seed picks the fleet's keys and nonce streams; its shape is fixed.
  config.manufacturer_seed = splitmix(seed);
  config.rng_seed_base = splitmix(seed + 1) | 1;
  return config;
}

struct Lifecycle {
  double construct_s = 0.0;
  double bring_up_s = 0.0;
  double deploy_s = 0.0;
  double run_s = 0.0;
  double attest_s = 0.0;
  double teardown_s = 0.0;
  std::vector<double> sweep_ms;
  std::uint64_t devices_failed = 0;
  std::uint64_t attests = 0;  ///< sum of FleetDevice::attest_total()
  std::uint64_t digest = 0;   ///< every attestation report + simulated totals
  double rss_kb = 0.0;  ///< process RSS with every device alive, before teardown
  SimCounters sim;
  std::string first_error;

  /// Host time of the whole lifecycle: the phases, not the benchmark's own
  /// report folding between them.
  [[nodiscard]] double total_s() const {
    return construct_s + bring_up_s + deploy_s + run_s + attest_s + teardown_s;
  }
};

Lifecycle lifecycle(const Shape& shape, std::uint64_t seed, Trace& trace) {
  Lifecycle life;
  const fleet::FleetConfig config = config_for(shape, seed);
  Trace::Scope root(trace, "fleet.lifecycle");
  std::unique_ptr<fleet::Fleet> devices;
  {
    Trace::Scope s(trace, "fleet.construct");
    devices = std::make_unique<fleet::Fleet>(config);
    life.construct_s = s.stop();
  }
  Status status;
  {
    Trace::Scope s(trace, "fleet.bring_up");
    status = devices->bring_up();
    life.bring_up_s = s.stop();
  }
  if (status.is_ok()) {
    Trace::Scope s(trace, "fleet.deploy");
    status = devices->deploy(fleet::default_task_source(), kRelease, 1);
    life.deploy_s = s.stop();
  }

  Digest digest;
  if (status.is_ok()) {
    const std::uint64_t quantum = config.quantum;
    {
      Trace::Scope run(trace, "fleet.run");
      for (std::uint64_t done = 0; done < shape.cycles; done += quantum) {
        Trace::Scope round(trace, "fleet.round");
        devices->run(std::min(quantum, shape.cycles - done));
      }
      life.run_s = run.stop();
    }
    for (unsigned sweep = 0; sweep < shape.sweeps; ++sweep) {
      Trace::Scope s(trace, "fleet.attest_sweep");
      devices->attest_all(kRelease);
      const double secs = s.stop();
      life.attest_s += secs;
      life.sweep_ms.push_back(secs * 1e3);
      for (std::size_t i = 0; i < devices->size(); ++i) {
        const fleet::FleetDevice& device = devices->device(i);
        if (device.attested()) {
          const ByteVec bytes = device.report().serialize();
          digest.add(bytes.data(), bytes.size());
        }
      }
    }
  } else {
    life.first_error = status.to_string();
  }

  for (std::size_t i = 0; i < devices->size(); ++i) {
    fleet::FleetDevice& device = devices->device(i);
    life.attests += device.attest_total();
    const bool ok = device.status().is_ok() && device.attest_total() == shape.sweeps &&
                    device.attest_verified() == shape.sweeps;
    if (!ok) {
      life.devices_failed += 1;
      if (life.first_error.empty()) {
        life.first_error = "device " + std::to_string(device.id()) + ": " +
                           device.status().to_string() + ", verified " +
                           std::to_string(device.attest_verified()) + "/" +
                           std::to_string(device.attest_total());
      }
    }
    if (device.status().is_ok()) {
      const sim::Machine& machine = device.platform().machine();
      const sim::DecodeCache::Stats& dc = machine.decode_cache().stats();
      life.sim.dcache_hits += dc.hits;
      life.sim.dcache_builds += dc.builds;
      life.sim.dcache_invalidations += dc.invalidations;
      life.sim.dcache_code_writes += dc.code_writes;
    }
  }
  const fleet::Fleet::Totals totals = devices->totals();
  life.sim.cycles = totals.cycles;
  life.sim.instructions = totals.instructions;
  life.sim.interrupts = totals.interrupts;
  life.sim.faults = totals.faults;
  for (const std::uint64_t v :
       {totals.cycles, totals.instructions, totals.interrupts, totals.faults,
        static_cast<std::uint64_t>(totals.verified), life.attests}) {
    digest.add_u64(v);
  }
  life.digest = digest.value;
  life.rss_kb = static_cast<double>(current_rss_kb());

  {
    Trace::Scope s(trace, "fleet.teardown");
    devices.reset();
    life.teardown_s = s.stop();
  }
  // Hand the freed guest memory back, so every lifecycle's RSS counts only
  // what its own fleet touches, not allocator slack left by earlier ones.
  malloc_trim(0);
  return life;
}

/// Lifecycles until `seconds` have passed (at least `min_reps`), or exactly
/// `reps` when that is non-zero.
std::vector<Lifecycle> repeat(const Shape& shape, std::uint64_t seed, Trace& trace,
                              double seconds, std::size_t reps, std::size_t min_reps) {
  std::vector<Lifecycle> lives;
  const Clock::time_point start = Clock::now();
  while (reps != 0 ? lives.size() < reps
                   : lives.size() < min_reps || seconds_since(start) < seconds) {
    lives.push_back(lifecycle(shape, seed, trace));
  }
  return lives;
}

/// Every repetition of one seed must produce the same simulated output.
void check_digests(const std::vector<Lifecycle>& lives, std::uint64_t expected,
                   const char* what, Report& report) {
  for (const Lifecycle& life : lives) {
    if (life.digest != expected) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "fleet_attest: report digest %016llx differs from %016llx (%s)",
                    static_cast<unsigned long long>(life.digest),
                    static_cast<unsigned long long>(expected), what);
      report.check(false, msg);
      return;
    }
  }
}

void count_ops(const Shape& shape, const std::vector<Lifecycle>& lives, Report& report) {
  for (const Lifecycle& life : lives) {
    report.attempted += shape.devices;
    report.failed += life.devices_failed;
    report.check(life.devices_failed == 0,
                 "fleet_attest: a device did not verify: " + life.first_error);
  }
}

/// fleet.* per-layer metrics from the traced lifecycles' spans.
void fleet_layers(const Shape& shape, const std::vector<Lifecycle>& lives,
                  const Trace& trace, const std::string& source, Report& report) {
  const auto p50_s = [&](const char* name) { return median(trace.durations_us(name)) / 1e6; };
  report.add("fleet.bring_up_s", p50_s("fleet.bring_up"), "s", source);
  report.add("fleet.deploy_s", p50_s("fleet.deploy"), "s", source);
  report.add("fleet.teardown_s", p50_s("fleet.teardown"), "s", source);
  report.add("fleet.run_s", p50_s("fleet.run"), "s", source);
  report.add("fleet.round_ms_p50", median(trace.durations_us("fleet.round")) / 1e3, "ms",
             source);
  std::vector<double> mcps;
  std::vector<double> rss;
  for (const Lifecycle& life : lives) {
    if (life.run_s > 0.0) {
      mcps.push_back(static_cast<double>(shape.devices * shape.cycles) / life.run_s / 1e6);
    }
    rss.push_back(life.rss_kb / static_cast<double>(shape.devices));
  }
  report.add("fleet.run_sim_mcycles_per_s", median(mcps), "Mcycles/s", source);
  report.add("fleet.attest_sweep_ms_p50",
             median(trace.durations_us("fleet.attest_sweep")) / 1e3, "ms", source);
  report.add("fleet.rss_kb_per_device", median(rss), "kB", source);
}

}  // namespace

Report run_fleet_attest(const Options& options, Trace& trace) {
  Report report;
  const Shape shape = full_shape(options);

  if (!options.trace) {
    // Set-up is Fleet construction.  It is repeated on its own before the
    // loop, and once inside every lifecycle; setup_s is the median.
    std::vector<double> construct_s;
    for (const Clock::time_point start = Clock::now();
         more_setups(construct_s.size(), start);) {
      const Clock::time_point t0 = Clock::now();
      const fleet::Fleet constructed(config_for(shape, options.seed));
      construct_s.push_back(seconds_since(t0));
    }
    Trace off(false);
    const std::vector<Lifecycle> lives =
        repeat(shape, options.seed, off, options.seconds, 0, kMinLifecycles);
    const long rss_kb = peak_rss_kb();
    count_ops(shape, lives, report);
    check_digests(lives, lives.front().digest, "across repetitions", report);

    std::vector<double> devices_per_s;
    std::vector<double> mips;
    std::vector<double> sweep_ms;
    std::vector<double> attest_phase_ms;
    double sweep_s = 0.0;
    std::uint64_t attests = 0;
    double bring_up_share = 0.0;
    for (const Lifecycle& life : lives) {
      construct_s.push_back(life.construct_s);
      devices_per_s.push_back(static_cast<double>(shape.devices) / life.total_s());
      mips.push_back(static_cast<double>(life.sim.instructions) / life.total_s() / 1e6);
      sweep_ms.insert(sweep_ms.end(), life.sweep_ms.begin(), life.sweep_ms.end());
      attest_phase_ms.push_back(life.attest_s * 1e3);
      sweep_s += life.attest_s;
      attests += life.attests;
      bring_up_share += life.bring_up_s / life.total_s();
    }
    const double n = static_cast<double>(lives.size());
    const std::string reps = "median of " + std::to_string(lives.size()) + " lifecycles";
    report.add("setup_s", median(construct_s), "s",
               "Fleet construction, median of " + std::to_string(construct_s.size()));
    report.add("peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
    report.add("ops_per_s", median(devices_per_s), "1/s", "devices; " + reps);
    report.add("guest_mips", median(mips), "MIPS", reps);
    // The step is a lifecycle's attest phase (all sweeps): a 4-thread sweep
    // of a few ms is at the mercy of one descheduled worker.
    report.add_tail("step_ms_tail", tail(attest_phase_ms), "ms");

    report.add_info("fleet_devices_per_s", median(devices_per_s), "1/s", reps);
    report.add_info("attests_per_s", static_cast<double>(attests) / sweep_s, "1/s",
                    std::to_string(attests) + " attestations (sum of attest_total)");
    report.add_info("attest_sweep_ms_p50", median(sweep_ms), "ms",
                    "n=" + std::to_string(sweep_ms.size()));
    // WorkloadResult::attests_per_sec() divides devices attested by the time
    // of all sweeps; printed beside the correct count so the defect shows.
    report.add_info("attests_per_s_workload_result",
                    static_cast<double>(shape.devices) * n / sweep_s, "1/s",
                    "known defect: under-reports by the sweep count");
    report.add_info("bring_up_share", bring_up_share / n, "ratio", reps);
    return report;
  }

  // Traced run: an untraced pass for half the time, then the same number of
  // lifecycles traced.  Both must produce the untraced pass's digest.
  Trace off(false);
  const std::vector<Lifecycle> untraced =
      repeat(shape, options.seed, off, options.seconds / 2.0, 0, 2);
  std::vector<Lifecycle> traced;
  {
    Trace::Scope root(trace, "workload.fleet_attest");
    traced = repeat(shape, options.seed, trace, 0.0, untraced.size(), 0);
  }
  count_ops(shape, untraced, report);
  count_ops(shape, traced, report);
  check_digests(untraced, untraced.front().digest, "untraced repetitions", report);
  check_digests(traced, untraced.front().digest, "traced vs untraced", report);

  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    untraced_s += untraced[i].total_s();
    traced_s += traced[i].total_s();
  }
  report.add("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%",
             std::to_string(traced.size()) + " lifecycles each way");
  fleet_layers(shape, traced, trace, "loop", report);
  add_sim_layers(traced.back().sim, report);
  return report;
}

void fleet_mini(const Options& options, Trace& trace, Report& report) {
  const Shape shape = mini_shape(options);
  std::vector<Lifecycle> lives;
  {
    Trace::Scope root(trace, "probe.fleet");
    lives = repeat(shape, options.seed, trace, 0.0, 3, 0);
  }
  check_digests(lives, lives.front().digest, "probe fleet", report);
  for (const Lifecycle& life : lives) {
    report.check(life.devices_failed == 0,
                 "probe fleet: a device did not verify: " + life.first_error);
  }
  fleet_layers(shape, lives, trace, "probe: 32 devices", report);
}

}  // namespace perfbench

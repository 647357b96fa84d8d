// The single-threaded probe.  Some layers cannot be split out of a parallel
// or nested call (a fleet bring-up is construct + manifest + boot on four
// threads), so after the measured loop the traced run times single public
// calls on a small sample.  Probe time is kept out of every end-to-end metric.
#include <memory>

#include "analysis/analyzer.h"
#include "bench.h"
#include "core/platform.h"
#include "core/secure_boot.h"
#include "fleet/verifier_workload.h"
#include "isa/assembler.h"
#include "verifier/verifier.h"

namespace perfbench {

using namespace tytan;

void run_probe(const Options& options, Trace& trace, Report& report) {
  Trace::Scope root(trace, "probe.calls");
  const int samples = options.smoke ? 3 : 24;
  constexpr const char kRelease[] = "probe-fw";

  auto object = isa::assemble(fleet::default_task_source());
  report.check(object.is_ok(), "probe: heartbeat does not assemble");
  if (!object.is_ok()) {
    return;
  }
  verifier::Manufacturer manufacturer(options.seed);
  verifier::GoldenDatabase golden;
  golden.add_release(kRelease, 1, *object);

  std::size_t manifest_components = 0;
  int verified = 0;
  for (int i = 0; i < samples; ++i) {
    const verifier::DeviceId id = manufacturer.provision_device();
    core::Platform::Config config;
    config.kp = *manufacturer.device_kp(id);
    config.rng_seed = options.seed + static_cast<std::uint64_t>(i) + 1;

    std::unique_ptr<core::Platform> platform;
    {
      Trace::Scope s(trace, "probe.platform_new");
      platform = std::make_unique<core::Platform>(config);
    }
    {
      Trace::Scope s(trace, "probe.manifest");
      manifest_components += core::default_manifest().size();
    }
    {
      Trace::Scope s(trace, "probe.boot");
      report.check(platform->boot().is_ok(), "probe: boot failed");
    }
    {
      std::unique_ptr<core::Platform> clone;
      {
        Trace::Scope s(trace, "probe.clone");
        auto result = platform->clone();
        report.check(result.is_ok(), "probe: clone failed");
        if (result.is_ok()) {
          clone = result.take();
        }
      }
    }
    auto task = [&] {
      Trace::Scope s(trace, "probe.load_task");
      return platform->load_task(isa::ObjectFile(*object), {.name = kRelease});
    }();
    report.check(task.is_ok(), "probe: load_task failed");
    if (!task.is_ok()) {
      continue;
    }
    verifier::Challenger challenger(*manufacturer.attestation_key(id), golden,
                                    options.seed + static_cast<std::uint64_t>(i) + 1);
    const std::uint64_t nonce = challenger.issue_challenge();
    auto attestation = [&] {
      Trace::Scope s(trace, "probe.attest_task");
      return platform->remote_attest().attest_task(*task, nonce);
    }();
    report.check(attestation.is_ok(), "probe: attest_task failed");
    if (!attestation.is_ok()) {
      continue;
    }
    Trace::Scope s(trace, "probe.verify");
    verified += challenger.verify(*attestation, kRelease).ok() ? 1 : 0;
  }
  report.check(manifest_components > 0, "probe: empty boot manifest");
  report.check(verified == samples, "probe: a report did not verify");

  // The lint gate the loader runs, over every program the benchmark loads.
  std::vector<isa::ObjectFile> programs;
  std::vector<std::string> sources = guest_sources(options.seed);
  for (std::string& source : fuzz_seed_sources()) {
    sources.push_back(std::move(source));
  }
  for (const std::string& source : sources) {
    auto program = isa::assemble(source);
    report.check(program.is_ok(), "probe: a benchmark program does not assemble");
    if (program.is_ok()) {
      programs.push_back(program.take());
    }
  }
  std::size_t findings = 0;
  for (int round = 0; round < samples / 3 + 1; ++round) {
    for (const isa::ObjectFile& program : programs) {
      Trace::Scope s(trace, "probe.lint");
      findings += analysis::analyze(program).findings.size();
    }
  }

  const auto p50_us = [&](const char* name) { return median(trace.durations_us(name)); };
  const std::string note = "probe, n=" + std::to_string(samples);
  report.add("core.platform_new_us", p50_us("probe.platform_new"), "us", note);
  report.add("core.manifest_us", p50_us("probe.manifest"), "us", note);
  report.add("core.boot_us", p50_us("probe.boot"), "us", note);
  report.add("snap.clone_us", p50_us("probe.clone"), "us", note);
  report.add("core.load_task_us", p50_us("probe.load_task"), "us", note);
  report.add("core.attest_task_us", p50_us("probe.attest_task"), "us", note);
  report.add("verifier.verify_us", p50_us("probe.verify"), "us", note);
  report.add("verifier.verified_ratio",
             static_cast<double>(verified) / static_cast<double>(samples), "ratio", note);
  report.add("analysis.lint_us", p50_us("probe.lint"), "us",
             "probe, " + std::to_string(programs.size()) + " programs, " +
                 std::to_string(findings) + " findings");
}

}  // namespace perfbench

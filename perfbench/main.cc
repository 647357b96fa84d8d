// perfbench — the repo benchmark binary.  run.py builds and runs it;
// see README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out-dir DIR]
//
// Prints a human-readable report, then one line "RESULT {json}" with the
// keys correct, attempted, failed and metrics.  Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

using namespace perfbench;

namespace {

constexpr const char kUsage[] =
    "usage: perfbench --workload fleet_attest|guest_mix|guest_mix_observed|fork_fuzz\n"
    "                 --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n";

[[noreturn]] void usage() {
  std::fputs(kUsage, stderr);
  std::exit(2);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) {
    return;
  }
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-13s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") {
          usage();
        }
        options.trace = t == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else {
        usage();
      }
    } catch (const std::exception&) {
      usage();
    }
  }
  if (options.workload.empty() || !have_seconds || !have_trace || options.seconds <= 0) {
    usage();
  }
  if (options.out_dir.empty()) {
    options.out_dir = ".";
  }
  std::filesystem::create_directories(options.out_dir);
  options.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d threads=%u%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.threads,
              options.smoke ? " (smoke)" : "");

  Trace trace(options.trace);
  Report report;
  const std::string& w = options.workload;
  if (w == "fleet_attest") {
    report = run_fleet_attest(options, trace);
  } else if (w == "guest_mix" || w == "guest_mix_observed") {
    report = run_guest_mix(options, trace, w == "guest_mix_observed");
  } else if (w == "fork_fuzz") {
    report = run_fork_fuzz(options, trace);
  } else {
    usage();
  }

  if (options.trace) {
    // Per-layer metrics of layers this workload does not drive come from
    // small fixed runs of the workload that does, then the single-call probe.
    if (w != "fleet_attest") {
      fleet_mini(options, trace, report);
    }
    if (w != "guest_mix_observed") {
      guest_mini(options, trace, report);
    }
    if (w != "fork_fuzz") {
      fuzz_mini(options, trace, report);
    }
    run_probe(options, trace, report);

    std::printf("self time by span (traced pass + probe)\n");
    std::printf("  %-28s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const Trace::SelfTime& st : trace.self_times()) {
      std::printf("  %-28s %10llu %12.3f %12.3f\n", st.name.c_str(),
                  static_cast<unsigned long long>(st.count), st.total_ms, st.self_ms);
    }
    const std::string path =
        options.out_dir + "/spans-" + w + "-" + std::to_string(options.seed) + ".jsonl";
    if (trace.write_jsonl(path)) {
      std::printf("spans written to %s (%zu spans)\n", path.c_str(), trace.spans().size());
    } else {
      report.check(false, "cannot write " + path);
    }
  }

  print_metrics(options.trace ? "per-layer metrics" : "end-to-end metrics", report.metrics);
  print_metrics("also reported (not in the result line)", report.info);
  std::printf("operations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& error : report.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("correctness: %s\n", report.correct ? "ok" : "FAILED");

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", m.value);
    json += (i == 0 ? "" : ", ");
    // Names and units are identifier-like constants: no escaping needed.
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return report.correct ? 0 : 1;
}

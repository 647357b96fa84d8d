#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.h"

namespace perfbench {

Trace::Scope::Scope(Trace& trace, const char* name)
    : trace_(trace), start_(Clock::now()) {
  if (trace_.enabled_) {
    index_ = static_cast<std::int32_t>(trace_.spans_.size());
    const std::int32_t parent = trace_.open_.empty() ? -1 : trace_.open_.back();
    const auto start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start_ - trace_.epoch_)
            .count();
    trace_.spans_.push_back({name, start_ns, start_ns, parent});
    trace_.open_.push_back(index_);
  }
}

double Trace::Scope::stop() {
  if (elapsed_ >= 0.0) {
    return elapsed_;
  }
  const Clock::time_point end = Clock::now();
  elapsed_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    trace_.spans_[static_cast<std::size_t>(index_)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - trace_.epoch_)
            .count();
    // Scopes nest lexically, so the span closing is the innermost open one.
    trace_.open_.pop_back();
  }
  return elapsed_;
}

std::vector<double> Trace::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<Trace::SelfTime> Trace::self_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    SelfTime& entry = by_name[spans_[i].name];
    entry.name = spans_[i].name;
    entry.count += 1;
    entry.total_ms += static_cast<double>(dur) / 1e6;
    entry.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) {
    out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.self_ms > b.self_ms; });
  return out;
}

bool Trace::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent << "}\n";
  }
  return static_cast<bool>(out);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

Tail tail(std::vector<double> values) {
  Tail out;
  out.count = values.size();
  if (values.empty()) {
    return out;
  }
  const double n = static_cast<double>(values.size());
  out.value = *std::max_element(values.begin(), values.end());
  for (const double pct : {99.9, 99.0, 90.0, 50.0}) {
    if (n * (1.0 - pct / 100.0) >= 10.0) {
      out.value = percentile(std::move(values), pct);
      out.pct = pct;
      break;
    }
  }
  return out;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool more_setups(std::size_t done, Clock::time_point start) {
  return done < 5 || (done < 200 && seconds_since(start) < 0.5);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

long current_rss_kb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r"); f != nullptr) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) {
      pages = 0;
    }
    std::fclose(f);
  }
  return pages * (sysconf(_SC_PAGESIZE) / 1024);
}

void Digest::add(const std::uint8_t* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    value = (value ^ data[i]) * 0x100'0000'01b3ull;
  }
}

void Digest::add_u64(std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  add(bytes, sizeof bytes);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    errors.push_back(what);
  }
}

void Report::add(std::string name, double value, std::string unit, std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::add_info(std::string name, double value, std::string unit,
                      std::string note) {
  info.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::add_tail(std::string name, const Tail& t, std::string unit, bool as_info) {
  char note[64];
  std::snprintf(note, sizeof note, "p%g of n=%zu", t.pct, t.count);
  if (as_info) {
    add_info(std::move(name), t.value, std::move(unit), note);
  } else {
    add(std::move(name), t.value, std::move(unit), note);
  }
}

void add_sim_layers(const SimCounters& sim, Report& report) {
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  report.add("sim.cpi", ratio(sim.cycles, sim.instructions), "cycles/instr",
             "simulated; must never move");
  report.add("sim.interrupts", static_cast<double>(sim.interrupts), "count");
  report.add("sim.faults", static_cast<double>(sim.faults), "count");
  report.add("sim.decode_cache.hit_ratio",
             ratio(sim.dcache_hits, sim.dcache_hits + sim.dcache_builds), "ratio");
  report.add("sim.decode_cache.builds", static_cast<double>(sim.dcache_builds), "count");
  report.add("sim.decode_cache.invalidations",
             static_cast<double>(sim.dcache_invalidations), "count");
  report.add("sim.decode_cache.code_writes",
             static_cast<double>(sim.dcache_code_writes), "count");
}

}  // namespace perfbench

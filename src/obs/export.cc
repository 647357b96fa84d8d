#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace tytan::obs {

namespace {

std::string us(std::uint64_t cycles) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", cycles_to_us(cycles));
  return buf;
}

std::string task_label(const EventBus& bus, std::int32_t task) {
  if (task < 0) {
    return "platform";
  }
  const std::string_view name = bus.task_name(task);
  return name.empty() ? "task " + std::to_string(task) : std::string(name);
}

}  // namespace

std::string export_chrome_trace(const EventBus& bus, const SampleProfiler* profiler,
                                const SpanRecorder* spans) {
  const std::vector<Event> events = bus.snapshot();
  std::vector<std::string> lines;
  lines.reserve(events.size() * 2 + 8);

  lines.push_back(R"({"ph":"M","pid":1,"name":"process_name","args":{"name":"tytan"}})");
  {
    // Eviction metadata: readers surface a warning when dropped > 0.
    std::ostringstream os;
    os << R"({"ph":"M","pid":1,"name":"tytan_event_bus","args":{"recorded":)"
       << bus.size() << R"(,"dropped":)" << bus.dropped() << "}}";
    lines.push_back(os.str());
  }
  lines.push_back(R"({"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"platform"}})");
  for (const auto& [task, name] : bus.task_names()) {
    std::ostringstream os;
    os << R"({"ph":"M","pid":1,"tid":)" << trace_tid(task)
       << R"(,"name":"thread_name","args":{"name":")" << json_escape(name) << R"("}})";
    lines.push_back(os.str());
  }

  // Run slices: a dispatch opens a slice on the task's track; the next
  // dispatch, irq entry, or destruction of that task closes it.
  std::int32_t open_task = -1;
  std::uint64_t open_cycle = 0;
  auto close_slice = [&](std::uint64_t end_cycle) {
    if (open_task < 0 || end_cycle <= open_cycle) {
      open_task = -1;
      return;
    }
    std::ostringstream os;
    os << R"({"ph":"X","pid":1,"tid":)" << trace_tid(open_task) << R"(,"name":")"
       << json_escape(task_label(bus, open_task)) << R"(","cat":"run","ts":)"
       << us(open_cycle) << R"(,"dur":)" << us(end_cycle - open_cycle)
       << R"(,"args":{"cycle":)" << open_cycle << R"(,"dur_cycles":)"
       << (end_cycle - open_cycle) << "}}";
    lines.push_back(os.str());
    open_task = -1;
  };
  for (const Event& event : events) {
    switch (event.kind) {
      case EventKind::kSchedDispatch:
        close_slice(event.cycle);
        open_task = event.task;
        open_cycle = event.cycle;
        break;
      case EventKind::kIrqEnter:
        close_slice(event.cycle);
        break;
      case EventKind::kTaskDestroy:
        if (event.task == open_task) {
          close_slice(event.cycle);
        }
        break;
      default:
        break;
    }
  }
  if (!events.empty()) {
    close_slice(events.back().cycle);
  }

  for (const Event& event : events) {
    std::ostringstream os;
    os << R"({"ph":"i","pid":1,"tid":)" << trace_tid(event.task) << R"(,"name":")"
       << kind_name(event.kind) << R"(","cat":"event","s":"t","ts":)" << us(event.cycle)
       << R"(,"args":{"cycle":)" << event.cycle << R"(,"task":)" << event.task
       << R"(,"a":)" << event.a << R"(,"b":)" << event.b << "}}";
    lines.push_back(os.str());
  }

  if (profiler != nullptr) {
    for (const SampleProfiler::Sample& sample : profiler->samples()) {
      const SampleProfiler::Frame frame = profiler->resolve(sample);
      std::ostringstream os;
      os << R"({"ph":"i","pid":1,"tid":)" << trace_tid(sample.task)
         << R"(,"name":"prof-sample","cat":"prof","s":"t","ts":)" << us(sample.cycle)
         << R"(,"args":{"cycle":)" << sample.cycle << R"(,"pc":)" << sample.pc
         << R"(,"task":)" << sample.task << R"(,"frame":")"
         << json_escape(frame.task + ";" + frame.symbol) << R"("}})";
      lines.push_back(os.str());
    }
  }

  if (spans != nullptr) {
    // Async begin/end pairs: id = trace id, so every phase of a round nests
    // under the same async track; cat+name must match between "b" and "e".
    for (const Span& span : spans->spans()) {
      std::ostringstream begin;
      begin << R"({"ph":"b","cat":"span","id":)" << span.trace_id << R"(,"pid":1,"tid":)"
            << trace_tid(span.task) << R"(,"name":")" << span_phase_name(span.phase)
            << R"(","ts":)" << us(span.begin_cycle) << R"(,"args":{"cycle":)"
            << span.begin_cycle << R"(,"span":)" << span.span_id << R"(,"parent":)"
            << span.parent_id << "}}";
      lines.push_back(begin.str());
      std::ostringstream end;
      end << R"({"ph":"e","cat":"span","id":)" << span.trace_id << R"(,"pid":1,"tid":)"
          << trace_tid(span.task) << R"(,"name":")" << span_phase_name(span.phase)
          << R"(","ts":)" << us(span.end_cycle) << R"(,"args":{"cycle":)"
          << span.end_cycle << R"(,"outcome":")" << span_outcome_name(span.outcome)
          << R"("}})";
      lines.push_back(end.str());
    }
  }

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    os << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return os.str();
}

Status write_chrome_trace(const std::string& path, const EventBus& bus,
                          const SampleProfiler* profiler, const SpanRecorder* spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error(Err::kUnavailable, "cannot open trace output '" + path + "'");
  }
  out << export_chrome_trace(bus, profiler, spans);
  if (!out.good()) {
    return make_error(Err::kInternal, "short write to '" + path + "'");
  }
  return Status::ok();
}

std::string export_timeline(const EventBus& bus) {
  std::ostringstream os;
  for (const Event& event : bus.snapshot()) {
    os << "cycle " << event.cycle << "  [" << task_label(bus, event.task) << "] "
       << kind_name(event.kind) << " a=" << event.a << " b=" << event.b << '\n';
  }
  return os.str();
}

std::string format_accounting(const TaskAccounting& accounting, const EventBus& bus) {
  std::ostringstream os;
  os << "  task                    run cycles     irq cycles   faults\n";
  std::uint64_t total = accounting.platform_cycles();
  for (const auto& [task, cycles] : accounting.tasks()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %-20s %13llu  %13llu  %7llu\n",
                  task_label(bus, task).c_str(),
                  static_cast<unsigned long long>(cycles.run),
                  static_cast<unsigned long long>(cycles.irq),
                  static_cast<unsigned long long>(cycles.faults));
    os << buf;
    total += cycles.run + cycles.irq;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %-20s %13llu\n  %-20s %13llu\n", "platform",
                static_cast<unsigned long long>(accounting.platform_cycles()), "total",
                static_cast<unsigned long long>(total));
  os << buf;
  return os.str();
}

std::string export_metrics_summary(const Hub& hub) {
  std::ostringstream os;
  os << "--- per-task cycle accounting ---\n"
     << format_accounting(hub.accounting(), hub.bus()) << "--- event bus ---\n"
     << "  events recorded       " << hub.bus().size() << "\n"
     << "  events dropped        " << hub.bus().dropped()
     << (hub.bus().dropped() != 0 ? "   (ring full — oldest events evicted)" : "")
     << "\n--- metrics ---\n"
     << hub.metrics().format_table();
  return os.str();
}

}  // namespace tytan::obs

#include "obs/trace_reader.h"

#include <fstream>
#include <sstream>

#include "common/json.h"

namespace tytan::obs {

Result<Trace> parse_chrome_trace(std::string_view json) {
  if (json.find("\"traceEvents\"") == std::string_view::npos) {
    return make_error(Err::kCorrupt, "not a Chrome trace-event file");
  }
  Trace trace;
  std::istringstream in{std::string(json)};
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = json_str_field(line, "ph");
    if (ph == "M") {
      const std::string name = json_str_field(line, "name");
      if (name == "thread_name") {
        trace.thread_names[static_cast<int>(json_int_field(line, "tid", 0))] =
            json_str_field(line, "args\":{\"name");
      } else if (name == "tytan_event_bus") {
        trace.recorded_events = static_cast<std::uint64_t>(json_int_field(line, "recorded", 0));
        trace.dropped_events = static_cast<std::uint64_t>(json_int_field(line, "dropped", 0));
      }
    } else if (ph == "X") {
      trace.slices.push_back({static_cast<int>(json_int_field(line, "tid", 0)),
                              static_cast<std::uint64_t>(json_int_field(line, "cycle", 0)),
                              static_cast<std::uint64_t>(json_int_field(line, "dur_cycles", 0))});
    } else if (ph == "i") {
      if (json_str_field(line, "name") == "prof-sample") {
        trace.samples.push_back({static_cast<std::uint64_t>(json_int_field(line, "cycle", 0)),
                                 static_cast<std::uint32_t>(json_int_field(line, "pc", 0)),
                                 static_cast<std::int32_t>(json_int_field(line, "task", -1)),
                                 json_str_field(line, "frame")});
      } else {
        trace.events.push_back({json_str_field(line, "name"),
                                static_cast<std::uint64_t>(json_int_field(line, "cycle", 0)),
                                static_cast<std::int32_t>(json_int_field(line, "task", -1)),
                                static_cast<std::uint32_t>(json_int_field(line, "a", 0)),
                                static_cast<std::uint32_t>(json_int_field(line, "b", 0))});
      }
    }
  }
  return trace;
}

Result<Trace> read_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(Err::kNotFound, "cannot open trace '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_chrome_trace(buffer.str());
}

}  // namespace tytan::obs

#include "obs/span.h"

#include <array>
#include <charconv>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace tytan::obs {

namespace {

constexpr std::array<std::string_view, kNumSpanPhases> kPhaseNames = {
    "attest-round", "nonce-gen",     "challenge-deliver", "rtm-measure",
    "hmac-compute", "report-return", "verify",            "retry-backoff",
};

constexpr std::array<std::string_view, 4> kOutcomeNames = {
    "open",
    "ok",
    "failed",
    "retried",
};

}  // namespace

std::string_view span_phase_name(SpanPhase phase) {
  const auto index = static_cast<std::size_t>(phase);
  return index < kPhaseNames.size() ? kPhaseNames[index] : "?";
}

std::optional<SpanPhase> span_phase_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kPhaseNames.size(); ++i) {
    if (kPhaseNames[i] == name) {
      return static_cast<SpanPhase>(i);
    }
  }
  return std::nullopt;
}

std::string_view span_outcome_name(SpanOutcome outcome) {
  const auto index = static_cast<std::size_t>(outcome);
  return index < kOutcomeNames.size() ? kOutcomeNames[index] : "?";
}

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

SpanRecorder::SpanId SpanRecorder::begin_trace(std::uint64_t trace_id, SpanPhase phase,
                                               std::int32_t task) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.trace_id = trace_id;
  span.span_id = static_cast<SpanId>(spans_.size() + 1);
  span.parent_id = current();
  span.phase = phase;
  span.task = task;
  span.begin_cycle = now_cycles();
  span.begin_host_ns = now_host_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().span_id);
  return spans_.back().span_id;
}

SpanRecorder::SpanId SpanRecorder::begin(SpanPhase phase, std::int32_t task) {
  if (!enabled_) {
    return 0;
  }
  const SpanId parent = current();
  const std::uint64_t trace = parent != 0 ? spans_[parent - 1].trace_id : 0;
  return begin_trace(trace, phase, task);
}

void SpanRecorder::end(SpanId id, SpanOutcome outcome) {
  if (!enabled_ || id == 0 || id > spans_.size()) {
    return;
  }
  Span& span = spans_[id - 1];
  if (span.outcome != SpanOutcome::kOpen) {
    return;  // already closed
  }
  span.end_cycle = now_cycles();
  span.end_host_ns = now_host_ns();
  span.outcome = outcome;
  // Usually the innermost open span; search from the back so an out-of-order
  // close (a task restart mid-measurement) still unwinds correctly.
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i] == id) {
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (on_end_) {
    on_end_(span);
  }
}

void SpanRecorder::annotate(const Event& event) {
  if (!enabled_ || open_.empty()) {
    return;
  }
  Span& span = spans_[open_.back() - 1];
  span.notes.push_back(SpanNote{event.cycle, event.kind, event.a, event.b});
}

void append_span_json(std::string& out, std::uint32_t device, const Span& span) {
  std::ostringstream os;
  os << R"({"type":"span","device":)" << device << R"(,"trace":)" << span.trace_id
     << R"(,"span":)" << span.span_id << R"(,"parent":)" << span.parent_id
     << R"(,"phase":")" << span_phase_name(span.phase) << R"(","task":)" << span.task
     << R"(,"begin":)" << span.begin_cycle << R"(,"end":)" << span.end_cycle
     << R"(,"cycles":)" << (span.end_cycle - span.begin_cycle) << R"(,"outcome":")"
     << span_outcome_name(span.outcome) << R"(","notes":[)";
  for (std::size_t i = 0; i < span.notes.size(); ++i) {
    const SpanNote& note = span.notes[i];
    os << (i == 0 ? "" : ",") << R"({"cycle":)" << note.cycle << R"(,"kind":")"
       << kind_name(note.kind) << R"(","a":)" << note.a << R"(,"b":)" << note.b << "}";
  }
  os << "]}\n";
  out += os.str();
}

std::string SpanRecorder::to_jsonl() const {
  std::string out;
  for (const Span& span : spans_) {
    append_span_json(out, device_, span);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Span-file reading
// ---------------------------------------------------------------------------

namespace {

std::uint64_t find_u64(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) {
    return 0;
  }
  const std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') {
    ++end;
  }
  std::uint64_t value = 0;
  std::from_chars(line.data() + begin, line.data() + end, value);
  return value;
}

}  // namespace

Result<SpanLog> parse_spans_jsonl(std::string_view text) {
  SpanLog log;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line.front() != '{' || line.back() != '}') {
      return make_error(Err::kCorrupt, "span line " + std::to_string(line_no) +
                                           " is truncated or not JSONL");
    }
    if (json_str_field(line, "type") != "span") {
      return make_error(Err::kCorrupt, "span line " + std::to_string(line_no) +
                                           " has no span record type");
    }
    ParsedSpan s;
    s.device = static_cast<std::uint32_t>(find_u64(line, "device"));
    s.trace = find_u64(line, "trace");
    s.span = static_cast<std::uint32_t>(find_u64(line, "span"));
    s.parent = static_cast<std::uint32_t>(find_u64(line, "parent"));
    s.phase = json_str_field(line, "phase");
    s.task = static_cast<std::int32_t>(json_int_field(line, "task", -1));
    s.begin = find_u64(line, "begin");
    s.end = find_u64(line, "end");
    s.cycles = find_u64(line, "cycles");
    s.outcome = json_str_field(line, "outcome");
    if (s.phase.empty() || s.outcome.empty() || s.span == 0) {
      return make_error(Err::kCorrupt, "span line " + std::to_string(line_no) +
                                           " is missing required span fields");
    }
    // Note kinds, scanned inside the "notes" array only.
    const std::size_t notes_pos = line.find("\"notes\":[");
    if (notes_pos != std::string::npos) {
      std::string_view rest = std::string_view(line).substr(notes_pos);
      std::size_t at = 0;
      while ((at = rest.find("\"kind\":\"", at)) != std::string_view::npos) {
        at += 8;
        const std::size_t stop = rest.find('"', at);
        if (stop == std::string_view::npos) {
          break;
        }
        s.note_kinds.emplace_back(rest.substr(at, stop - at));
        at = stop;
      }
    }
    log.spans.push_back(std::move(s));
  }
  return log;
}

Result<SpanLog> read_spans_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(Err::kUnavailable, "cannot open span file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_spans_jsonl(buffer.str());
}

}  // namespace tytan::obs

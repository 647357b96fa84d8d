#include "common/json.h"

#include <charconv>
#include <cstdio>

namespace tytan {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_str_field(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) {
    return {};
  }
  std::string out;
  for (std::size_t i = pos + needle.size(); i < line.size() && line[i] != '"'; ++i) {
    if (line[i] != '\\' || i + 1 == line.size()) {
      out += line[i];
      continue;
    }
    const char c = line[++i];
    unsigned code = 0;
    if (c == 'n') {
      out += '\n';
    } else if (c == 't') {
      out += '\t';
    } else if (c == 'u' && i + 4 < line.size() &&
               std::from_chars(line.data() + i + 1, line.data() + i + 5, code, 16).ptr ==
                   line.data() + i + 5 &&
               code < 0x100) {
      out += static_cast<char>(code);
      i += 4;
    } else {
      out += c;  // \" and \\ (and anything unknown) decode to the character
    }
  }
  return out;
}

std::int64_t json_int_field(std::string_view line, std::string_view key,
                            std::int64_t fallback) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) {
    return fallback;
  }
  const std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  while (end < line.size() &&
         (line[end] == '-' || (line[end] >= '0' && line[end] <= '9'))) {
    ++end;
  }
  std::int64_t value = fallback;
  std::from_chars(line.data() + begin, line.data() + end, value);
  return value;
}

}  // namespace tytan

// JSON string helpers shared by every JSONL writer and line reader in the
// tree (obs exports, tool --json output).  The readers are key lookups over
// one flat JSON object per line, not a general parser.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tytan {

/// `text` as the body of a JSON string literal: `"` and `\` escaped, `\n` and
/// `\t` by name, every other control character as `\u00XX`.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Value of the first `"key":"..."` field in `line` with json_escape()'s
/// escapes decoded; empty when the key is absent.
[[nodiscard]] std::string json_str_field(std::string_view line, std::string_view key);

/// Value of the first `"key":<integer>` field in `line`, or `fallback` when
/// the key is absent.
[[nodiscard]] std::int64_t json_int_field(std::string_view line, std::string_view key,
                                          std::int64_t fallback);

}  // namespace tytan

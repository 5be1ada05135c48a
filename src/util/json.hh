#ifndef PUFFER_UTIL_JSON_HH
#define PUFFER_UTIL_JSON_HH

#include <string>
#include <string_view>

namespace puffer {

/// Append `text` as a JSON string body per RFC 8259: backslash, double
/// quote, and every control character below 0x20 (named escapes where they
/// exist, \u00XX otherwise). Keeps emitted JSON parseable when a path,
/// trace name or scenario id carries quotes, Windows separators or stray
/// control bytes.
void append_json_escaped(std::string& out, std::string_view text);

/// The escaped string body of `text` (see append_json_escaped).
std::string json_escape(std::string_view text);

}  // namespace puffer

#endif  // PUFFER_UTIL_JSON_HH

// The one string builder every export writes with: the ppgr.*.v1 JSON
// schemas, the Chrome traces, the OpenMetrics page and the text tables.
#pragma once

#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace ppgr::runtime {

/// printf onto the end of `out`. Formats straight into the string's tail,
/// growing it to the length vsnprintf reports, so no field is ever cut.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& out,
                                                 const char* fmt, ...) {
  constexpr std::size_t kGuess = 128;
  const std::size_t at = out.size();
  out.resize(at + kGuess);
  va_list args;
  va_list again;
  va_start(args, fmt);
  va_copy(again, args);
  // kGuess + 1: the terminator lands on out's own, at out[out.size()].
  const int n = std::vsnprintf(out.data() + at, kGuess + 1, fmt, args);
  va_end(args);
  const std::size_t len = n < 0 ? 0 : static_cast<std::size_t>(n);
  out.resize(at + len);
  if (len > kGuess) std::vsnprintf(out.data() + at, len + 1, fmt, again);
  va_end(again);
}

/// `s` as a quoted JSON string. Fault causes and labels embed channel-error
/// text, so quotes, backslashes and control characters are escaped.
inline void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      appendf(out, "\\u%04x", static_cast<unsigned>(c));
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

/// `[a, b, ...]`: ranks, submitted ids.
inline void append_index_list(std::string& out,
                              const std::vector<std::size_t>& v) {
  out.push_back('[');
  for (std::size_t i = 0; i < v.size(); ++i)
    appendf(out, "%s%zu", i == 0 ? "" : ", ", v[i]);
  out.push_back(']');
}

}  // namespace ppgr::runtime

// The two string builders every engine export (rollup, audit, session log,
// introspection) writes its JSON with.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace ppgr::engine {

/// printf into the end of `out`; one formatted field at a time, so a
/// 320-byte buffer holds every call.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& out,
                                                 const char* fmt, ...) {
  char buf[320];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
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

}  // namespace ppgr::engine

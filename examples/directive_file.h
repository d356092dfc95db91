// The directive files of the command-line front ends (ppgr_cli instances,
// ppgr_party spec and input files, ppgr_server request batches): one
// directive per line, a word followed by its arguments; '#' starts a comment
// and blank lines are skipped.
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/spec.h"

namespace ppgr::cli {

/// Calls handle(directive, line) for every directive line of `path`, `line`
/// positioned after the directive word. An exception out of handle becomes
/// the message "path:N: what" (N the 1-based line number) and goes to
/// on_error; the read goes on when on_error returns.
template <typename Handle, typename OnError>
void read_directives(const std::string& path, Handle&& handle,
                     OnError&& on_error) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto comment = raw.find('#');
    if (comment != std::string::npos) raw.resize(comment);
    std::istringstream line{raw};
    std::string directive;
    if (!(line >> directive)) continue;  // blank line
    try {
      handle(directive, line);
    } catch (const std::exception& e) {
      on_error(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
  }
}

/// read_directives that stops at the first bad line, throwing its message
/// as a std::runtime_error.
template <typename Handle>
void read_directives(const std::string& path, Handle&& handle) {
  read_directives(path, handle, [](const std::string& message) {
    throw std::runtime_error(message);
  });
}

[[noreturn]] inline void unknown_directive(const std::string& directive) {
  throw std::invalid_argument("unknown directive '" + directive + "'");
}

/// The rest of the line as attribute values.
inline core::AttrVec parse_values(std::istringstream& line) {
  core::AttrVec values;
  std::uint64_t v;
  while (line >> v) values.push_back(v);
  if (!line.eof()) throw std::invalid_argument("non-numeric attribute value");
  return values;
}

/// The arguments of `spec m t d1 d2 h`, not yet validated.
inline core::ProblemSpec parse_spec(std::istringstream& line) {
  core::ProblemSpec spec;
  if (!(line >> spec.m >> spec.t >> spec.d1 >> spec.d2 >> spec.h))
    throw std::invalid_argument("spec needs: m t d1 d2 h");
  return spec;
}

/// The one number a directive such as `k 2` takes.
inline std::size_t parse_count(std::istringstream& line,
                               const std::string& directive) {
  std::size_t value = 0;
  if (!(line >> value))
    throw std::invalid_argument(directive + " needs a number");
  return value;
}

/// Opens an output path for writing, failing fast (before the protocol
/// runs) so a typo'd directory doesn't cost a full run.
inline std::ofstream open_out(const std::string& path) {
  std::ofstream out{path};
  if (!out)
    throw std::runtime_error("cannot open '" + path + "' for writing");
  return out;
}

}  // namespace ppgr::cli

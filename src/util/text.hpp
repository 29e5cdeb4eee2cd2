// Small ASCII string helpers shared across layers (CSV parsing, netlist
// parsing, cell-name canonicalization).
#pragma once

#include <string>
#include <string_view>

namespace charlie::util {

/// Copy of `s` with ASCII letters upper-cased (locale-independent).
std::string to_upper_ascii(std::string s);

/// Copy of `s` with ASCII letters lower-cased (locale-independent).
std::string to_lower_ascii(std::string s);

/// `text` without its leading/trailing spaces, tabs, CR, and LF: a view
/// into the same characters.
std::string_view trim_ascii(std::string_view text);

}  // namespace charlie::util

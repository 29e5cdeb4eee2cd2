#include "cell/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <unordered_set>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/text.hpp"

namespace charlie::cell {

namespace {

using util::to_upper_ascii;
using util::trim_ascii;

[[noreturn]] void syntax_error(const std::string& source, int line,
                               const std::string& why) {
  throw ConfigError(source + ":" + std::to_string(line) + ": " + why);
}

std::string quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  out += text;
  out += '"';
  return out;
}

bool is_identifier(std::string_view name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  });
}

// One `head(arg, arg, ...)` statement, already comment-stripped and
// trimmed. Arguments are either net identifiers or `key=value` parameter
// assignments (WIRE statements only; validated by the caller). Every field
// is a view into the netlist text.
struct Argument {
  std::string_view text;   // identifier, or the key for assignments
  std::string_view value;  // assignment value; empty means plain identifier
  bool is_assignment = false;
};

struct Statement {
  std::string_view head;
  std::vector<Argument> args;
};

// Parses `text` into `s`, reusing its argument storage across lines.
void parse_statement(std::string_view text, int line,
                     const std::string& source, Statement& s) {
  const auto open = text.find('(');
  if (open == std::string_view::npos) {
    syntax_error(source, line,
                 "expected `cell(out, in, ...)`, got " + quoted(text));
  }
  s.head = trim_ascii(text.substr(0, open));
  s.args.clear();
  if (!is_identifier(s.head)) {
    syntax_error(source, line, "bad cell name " + quoted(s.head));
  }
  const auto close = text.find(')', open);
  if (close == std::string_view::npos) {
    syntax_error(source, line, "missing `)`");
  }
  const std::string_view tail = trim_ascii(text.substr(close + 1));
  if (!tail.empty() && tail != ";") {
    syntax_error(source, line, "trailing text after `)`: " + quoted(tail));
  }

  const std::string_view args = text.substr(open + 1, close - open - 1);
  std::size_t pos = 0;
  while (true) {
    const auto comma = args.find(',', pos);
    const std::string_view arg = trim_ascii(
        comma == std::string_view::npos ? args.substr(pos)
                                        : args.substr(pos, comma - pos));
    if (arg.empty() && comma == std::string_view::npos && s.args.empty()) {
      break;  // empty argument list: `cell()`
    }
    Argument parsed;
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      parsed.is_assignment = true;
      parsed.text = trim_ascii(arg.substr(0, eq));
      parsed.value = trim_ascii(arg.substr(eq + 1));
      if (!is_identifier(parsed.text)) {
        syntax_error(source, line, "bad parameter name " + quoted(parsed.text));
      }
      if (parsed.value.empty()) {
        syntax_error(source, line,
                     "parameter " + quoted(parsed.text) + " needs a value");
      }
    } else {
      parsed.text = arg;
      if (!is_identifier(parsed.text)) {
        syntax_error(source, line, "bad net name " + quoted(arg));
      }
    }
    s.args.push_back(parsed);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
}

// The i-th argument as a plain net identifier (rejects assignments).
std::string_view net_argument(const Statement& s, std::size_t i, int line,
                              const std::string& source) {
  const Argument& arg = s.args[i];
  if (arg.is_assignment) {
    syntax_error(source, line,
                 "expected a net name, got parameter assignment \"" +
                     std::string(arg.text) + "=" + std::string(arg.value) +
                     "\"");
  }
  return arg.text;
}

NetlistWire parse_wire(const Statement& s, int line,
                       const std::string& source) {
  if (s.args.size() < 2) {
    syntax_error(source, line, "WIRE needs two nets: WIRE(out, in, r=.., c=..)");
  }
  NetlistWire wire;
  wire.output = net_argument(s, 0, line, source);
  wire.input = net_argument(s, 1, line, source);
  wire.line = line;
  bool have_r = false;
  bool have_c = false;
  std::unordered_set<std::string> seen;
  for (std::size_t i = 2; i < s.args.size(); ++i) {
    const Argument& arg = s.args[i];
    if (!arg.is_assignment) {
      syntax_error(source, line, "WIRE takes key=value parameters after the two "
                         "nets, got net name " +
                             quoted(arg.text));
    }
    const std::string key = util::to_lower_ascii(std::string(arg.text));
    if (!seen.insert(key).second) {
      syntax_error(source, line, "WIRE parameter \"" + key + "\" given twice");
    }
    const std::string value(arg.value);
    const std::string context =
        source + ":" + std::to_string(line) + ": WIRE parameter " + key;
    if (key == "r") {
      wire.r_total = util::parse_double_field(value, context);
      have_r = true;
    } else if (key == "c") {
      wire.c_total = util::parse_double_field(value, context);
      have_c = true;
    } else if (key == "sections") {
      wire.sections = static_cast<int>(
          util::parse_long_field(value, context));
    } else if (key == "rdrive") {
      wire.r_drive = util::parse_double_field(value, context);
    } else if (key == "cload") {
      wire.c_load = util::parse_double_field(value, context);
    } else if (key == "tdrive") {
      wire.t_drive = util::parse_double_field(value, context);
    } else if (key == "vdd") {
      wire.vdd = util::parse_double_field(value, context);
    } else {
      syntax_error(source, line, "unknown WIRE parameter \"" + key +
                             "\" (expected r, c, sections, rdrive, cload, "
                             "tdrive, vdd)");
    }
  }
  if (!have_r || !have_c) {
    syntax_error(source, line, "WIRE requires both r= and c= parameters");
  }
  return wire;
}

// Appends a declaration's nets to `nets`, rejecting a name `declared`
// already holds; `kind` names the declaration in messages.
void declare_nets(const Statement& s, int line, const std::string& source,
                  const char* kind,
                  std::unordered_set<std::string_view>& declared,
                  std::vector<std::string>& nets) {
  for (std::size_t i = 0; i < s.args.size(); ++i) {
    const std::string_view name = net_argument(s, i, line, source);
    if (!declared.insert(name).second) {
      syntax_error(source, line, std::string("primary ") + kind + " " +
                                     quoted(name) + " declared twice");
    }
    nets.emplace_back(name);
  }
}

}  // namespace

NetlistDesc parse_netlist(const std::string& text,
                          const std::string& source) {
  NetlistDesc desc;
  // Views into `text`, which outlives the parse.
  std::unordered_set<std::string_view> declared_inputs;
  std::unordered_set<std::string_view> declared_outputs;
  Statement s;

  int line_no = 0;
  const std::string_view all(text);
  std::size_t pos = 0;
  while (pos <= all.size()) {
    const auto eol = all.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? all.substr(pos)
                                : all.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? all.size() + 1 : eol + 1;
    ++line_no;

    // A comment runs from the first `#` or `//` to the end of the line.
    line = line.substr(0, std::min(line.find('#'), line.find("//")));
    line = trim_ascii(line);
    if (line.empty()) continue;

    parse_statement(line, line_no, source, s);
    const std::string head = to_upper_ascii(std::string(s.head));
    if (head == "INPUT") {
      if (s.args.empty()) {
        syntax_error(source, line_no, "input() needs at least one net name");
      }
      declare_nets(s, line_no, source, "input", declared_inputs, desc.inputs);
      continue;
    }
    if (head == "OUTPUT") {
      if (s.args.empty()) {
        syntax_error(source, line_no, "output() needs at least one net name");
      }
      declare_nets(s, line_no, source, "output", declared_outputs,
                   desc.outputs);
      continue;
    }
    if (head == "WIRE") {
      desc.wires.push_back(parse_wire(s, line_no, source));
      continue;
    }
    if (s.args.empty()) {
      syntax_error(source, line_no, "instance needs an output net: " +
                                        std::string(s.head) + "(...)");
    }
    NetlistInstance& inst = desc.instances.emplace_back();
    inst.cell = head;
    inst.output = net_argument(s, 0, line_no, source);
    inst.inputs.reserve(s.args.size() - 1);
    for (std::size_t i = 1; i < s.args.size(); ++i) {
      inst.inputs.emplace_back(net_argument(s, i, line_no, source));
    }
    inst.line = line_no;
  }
  return desc;
}

NetlistDesc read_netlist_file(const std::string& path) {
  // Parse errors carry `path:line:` via the source name; read_text_file's
  // own I/O errors already name the path.
  return parse_netlist(util::read_text_file(path), path);
}

namespace {

// Full-precision doubles so write/parse round-trips bit-exact wire params.
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_net_list_stmt(std::string& out, const char* head,
                         const std::vector<std::string>& nets) {
  // Long declarations wrap at 16 nets per statement for readability.
  constexpr std::size_t kPerLine = 16;
  for (std::size_t begin = 0; begin < nets.size(); begin += kPerLine) {
    out += head;
    out += '(';
    const std::size_t end = std::min(nets.size(), begin + kPerLine);
    for (std::size_t i = begin; i < end; ++i) {
      if (i > begin) out += ", ";
      out += nets[i];
    }
    out += ")\n";
  }
}

}  // namespace

std::string write_netlist(const NetlistDesc& desc) {
  std::string out;
  write_net_list_stmt(out, "input", desc.inputs);
  write_net_list_stmt(out, "output", desc.outputs);
  for (const auto& inst : desc.instances) {
    out += inst.cell;
    out += '(';
    out += inst.output;
    for (const auto& input : inst.inputs) {
      out += ", ";
      out += input;
    }
    out += ")\n";
  }
  for (const auto& wire : desc.wires) {
    out += "WIRE(" + wire.output + ", " + wire.input;
    out += ", r=" + number(wire.r_total);
    out += ", c=" + number(wire.c_total);
    out += ", sections=" + std::to_string(wire.sections);
    if (wire.r_drive != 0.0) out += ", rdrive=" + number(wire.r_drive);
    if (wire.c_load != 0.0) out += ", cload=" + number(wire.c_load);
    if (wire.t_drive != 0.0) out += ", tdrive=" + number(wire.t_drive);
    out += ", vdd=" + number(wire.vdd);
    out += ")\n";
  }
  return out;
}

void write_netlist_file(const NetlistDesc& desc, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    throw ConfigError("netlist: cannot open \"" + path + "\" for writing");
  }
  file << write_netlist(desc);
  file.close();
  if (!file) {
    throw ConfigError("netlist: failed writing \"" + path + "\"");
  }
}

}  // namespace charlie::cell

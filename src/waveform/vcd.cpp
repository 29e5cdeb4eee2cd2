#include "waveform/vcd.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/error.hpp"

namespace charlie::waveform {

namespace {

// VCD id codes: shortest base-94 strings over the printable ASCII range
// '!'..'~', the same scheme real simulators emit.
std::string id_code(std::size_t index) {
  std::string id;
  do {
    id += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index > 0);
  return id;
}

// The writer's tick: 1 fs.
constexpr double kTimescale = 1e-15;

long long to_tick(double t) {
  return static_cast<long long>(std::llround(t / kTimescale));
}

double timescale_seconds(const std::string& magnitude,
                         const std::string& unit) {
  double m = 0.0;
  if (magnitude == "1") {
    m = 1.0;
  } else if (magnitude == "10") {
    m = 10.0;
  } else if (magnitude == "100") {
    m = 100.0;
  } else {
    throw ConfigError("vcd: bad timescale magnitude '" + magnitude + "'");
  }
  double u = 0.0;
  if (unit == "s") {
    u = 1.0;
  } else if (unit == "ms") {
    u = 1e-3;
  } else if (unit == "us") {
    u = 1e-6;
  } else if (unit == "ns") {
    u = 1e-9;
  } else if (unit == "ps") {
    u = 1e-12;
  } else if (unit == "fs") {
    u = 1e-15;
  } else {
    throw ConfigError("vcd: bad timescale unit '" + unit + "'");
  }
  return m * u;
}

struct Change {
  long long tick;
  std::size_t order;  // original emit order; stable tiebreak within a tick
  std::size_t signal;
  bool bit;
};

}  // namespace

void write_vcd(std::ostream& os, const std::vector<VcdDigitalSignal>& digital) {
  // Header. Deliberately no $date: output must be bit-identical across runs
  // (the determinism lint and the round-trip test both rely on it).
  os << "$version charlie write_vcd $end\n";
  os << "$timescale 1 fs $end\n";
  os << "$scope module charlie $end\n";
  std::vector<std::string> ids;
  ids.reserve(digital.size());
  for (std::size_t i = 0; i < digital.size(); ++i) {
    ids.push_back(id_code(i));
    os << "$var wire 1 " << ids.back() << " " << digital[i].name << " $end\n";
  }
  os << "$upscope $end\n";
  os << "$enddefinitions $end\n";

  // Initial values at time 0.
  os << "$dumpvars\n";
  for (std::size_t i = 0; i < digital.size(); ++i) {
    const bool v0 = digital[i].trace != nullptr && digital[i].trace->initial_value();
    os << (v0 ? '1' : '0') << ids[i] << "\n";
  }
  os << "$end\n";

  // Gather all value changes, sort by (tick, emit order), emit grouped under
  // #tick markers. Changes landing on tick 0 still get a #0 group (after
  // $dumpvars), matching common simulator output.
  std::vector<Change> changes;
  for (std::size_t i = 0; i < digital.size(); ++i) {
    if (digital[i].trace == nullptr) continue;
    const DigitalTrace& trace = *digital[i].trace;
    for (std::size_t k = 0; k < trace.n_transitions(); ++k) {
      changes.push_back({to_tick(trace.transitions()[k]), changes.size(), i,
                         trace.is_rising(k)});
    }
  }
  std::stable_sort(changes.begin(), changes.end(),
                   [](const Change& a, const Change& b) {
                     if (a.tick != b.tick) return a.tick < b.tick;
                     return a.order < b.order;
                   });

  long long current_tick = -1;
  for (const Change& change : changes) {
    if (change.tick != current_tick) {
      current_tick = change.tick;
      os << '#' << current_tick << "\n";
    }
    os << (change.bit ? '1' : '0') << ids[change.signal] << "\n";
  }
}

void write_vcd(const std::string& path,
               const std::vector<VcdDigitalSignal>& digital) {
  std::ofstream os(path);
  if (!os) throw ConfigError("vcd: cannot write " + path);
  write_vcd(os, digital);
}

VcdData parse_vcd(std::istream& is) {
  VcdData data;
  bool saw_timescale = false;
  bool saw_enddefinitions = false;

  struct Signal {
    std::string name;
    bool is_real = false;
    bool value = false;
    bool has_initial = false;
    std::vector<double> transitions;
  };
  std::map<std::string, Signal> by_id;  // id code -> signal state

  long long current_tick = 0;
  std::string token;
  auto read_until_end = [&](std::vector<std::string>& words) {
    words.clear();
    std::string w;
    while (is >> w) {
      if (w == "$end") return;
      words.push_back(w);
    }
    throw ConfigError("vcd: unterminated $ directive");
  };

  std::vector<std::string> words;
  while (is >> token) {
    if (token.empty()) continue;
    if (token[0] == '$') {
      if (token == "$timescale") {
        read_until_end(words);
        // Either "$timescale 1 fs $end" or "$timescale 1fs $end".
        std::string magnitude, unit;
        if (words.size() == 2) {
          magnitude = words[0];
          unit = words[1];
        } else if (words.size() == 1) {
          std::size_t split = 0;
          while (split < words[0].size() &&
                 std::isdigit(static_cast<unsigned char>(words[0][split]))) {
            ++split;
          }
          magnitude = words[0].substr(0, split);
          unit = words[0].substr(split);
        } else {
          throw ConfigError("vcd: malformed $timescale");
        }
        data.timescale = timescale_seconds(magnitude, unit);
        saw_timescale = true;
      } else if (token == "$var") {
        read_until_end(words);
        // $var <type> <width> <id> <name...> $end
        if (words.size() < 4) throw ConfigError("vcd: malformed $var");
        Signal signal;
        signal.is_real = words[0] == "real";
        signal.name = words[3];
        for (std::size_t i = 4; i < words.size(); ++i) {
          signal.name += words[i];  // bit-range suffixes like "[3:0]"
        }
        if (!signal.is_real && words[1] != "1") {
          throw ConfigError("vcd: only 1-bit wires supported, got width " +
                            words[1]);
        }
        by_id[words[2]] = std::move(signal);
      } else if (token == "$enddefinitions") {
        read_until_end(words);
        saw_enddefinitions = true;
      } else if (token == "$dumpvars" || token == "$dumpall" ||
                 token == "$dumpon" || token == "$dumpoff" || token == "$end") {
        // Value-change sections: their contents parse via the normal
        // value-change path below; bare $end closes them.
        continue;
      } else {
        read_until_end(words);  // $date, $version, $comment, $scope, $upscope
      }
      continue;
    }
    if (token[0] == '#') {
      current_tick = std::stoll(token.substr(1));
      continue;
    }
    if (token[0] == '0' || token[0] == '1' || token[0] == 'x' ||
        token[0] == 'X' || token[0] == 'z' || token[0] == 'Z') {
      const std::string id = token.substr(1);
      const auto it = by_id.find(id);
      if (it == by_id.end()) {
        throw ConfigError("vcd: value change for unknown id '" + id + "'");
      }
      const bool value = token[0] == '1';  // x/z collapse to 0
      Signal& signal = it->second;
      if (!signal.has_initial) {
        signal.has_initial = true;
        signal.value = value;
        // An initial change at tick > 0 is also a transition from the
        // (unknown, taken-as-!value) pre-dump state only if the dump says
        // so; write_vcd always dumps initials at tick 0, so treat the first
        // change as the initial value.
      } else if (value != signal.value) {
        signal.value = value;
        const double t = static_cast<double>(current_tick) * data.timescale;
        if (!signal.transitions.empty() && signal.transitions.back() == t) {
          // Two flips on one tick cancel: a sub-tick pulse quantizes away
          // (DigitalTrace requires strictly increasing transition times).
          signal.transitions.pop_back();
        } else {
          signal.transitions.push_back(t);
        }
      }
      continue;
    }
    if (token[0] == 'r' || token[0] == 'R') {
      // Real value change: "r<value> <id>" -- consume the id, ignore.
      std::string id;
      if (!(is >> id)) throw ConfigError("vcd: truncated real value change");
      if (by_id.find(id) == by_id.end()) {
        throw ConfigError("vcd: value change for unknown id '" + id + "'");
      }
      continue;
    }
    if (token[0] == 'b' || token[0] == 'B') {
      throw ConfigError("vcd: vector value changes not supported");
    }
    throw ConfigError("vcd: unrecognized token '" + token + "'");
  }

  if (!saw_timescale) throw ConfigError("vcd: missing $timescale");
  if (!saw_enddefinitions) throw ConfigError("vcd: missing $enddefinitions");

  for (auto& [id, signal] : by_id) {
    if (signal.is_real) continue;
    // Initial value is the dumped value minus the parity of transitions
    // recorded after it -- i.e. the value at the $dumpvars point.
    bool initial = signal.value;
    if (signal.transitions.size() % 2 == 1) initial = !initial;
    data.digital.emplace(signal.name,
                         DigitalTrace(initial, std::move(signal.transitions)));
  }
  return data;
}

VcdData parse_vcd_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw ConfigError("vcd: cannot read " + path);
  return parse_vcd(is);
}

}  // namespace charlie::waveform

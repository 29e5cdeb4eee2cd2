// Value Change Dump (IEEE 1364 §18) export of simulation traces.
//
// write_vcd() serializes DigitalTraces into the standard VCD text format
// GTKWave and every other waveform viewer load directly: one 1-bit wire
// per trace in a single `charlie` scope, times quantized to a 1 fs
// timescale (comfortably below the engine's crossing-solve resolution).
//
// parse_vcd() reads the digital subset of VCD (single flat scope, 1-bit
// wires, any legal timescale, real vars skipped): enough to round-trip our
// own output and diff edges against the source traces, which is how
// tests/waveform/test_vcd.cpp locks the format.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "waveform/digital_trace.hpp"

namespace charlie::waveform {

struct VcdDigitalSignal {
  std::string name;
  const DigitalTrace* trace = nullptr;  // borrowed; must outlive the call
};

/// Write header + $dumpvars + time-ordered value changes. Transition times
/// are rounded to the nearest 1 fs tick (< 0.5 fs quantization error).
/// Signal names must be unique; traces quantizing two transitions of one
/// signal onto the same tick keep both (the later change wins visually, as
/// in any VCD).
void write_vcd(std::ostream& os, const std::vector<VcdDigitalSignal>& digital);
void write_vcd(const std::string& path,
               const std::vector<VcdDigitalSignal>& digital);

struct VcdData {
  double timescale = 1e-15;  // seconds per tick
  /// Digital signals by name; transition times are tick * timescale.
  std::map<std::string, DigitalTrace> digital;
};

/// Parse the digital subset of VCD. Throws ConfigError on
/// structurally invalid input (unknown id codes, missing header sections).
VcdData parse_vcd(std::istream& is);
VcdData parse_vcd_file(const std::string& path);

}  // namespace charlie::waveform

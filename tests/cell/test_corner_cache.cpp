// The corner pipeline of the cell library: analytic corner derivation
// (CellLibrary::at_corner), corner identity in the CSV format, schema/
// fingerprint versioning, and the nominal cache file's
// corruption-regenerates-silently guarantees (characterize_cached). SPICE
// runs at nominal only -- every test here pins that with
// n_characterization_runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cell/cell_library.hpp"
#include "core/process_point.hpp"
#include "spice/technology.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace charlie {
namespace {

const spice::Technology& tech() {
  static const spice::Technology t = spice::Technology::freepdk15_like();
  return t;
}

// Characterized once per test process (each ctest entry is its own process).
const cell::CellLibrary& nominal_library() {
  static const cell::CellLibrary lib = [] {
    cell::CellLibrary::reset_characterization_cache();
    return cell::CellLibrary::characterize(tech());
  }();
  return lib;
}

core::ProcessPoint slow_corner() {
  core::ProcessPoint p;
  p.vdd_scale = 0.95;
  p.vth_shift = 0.02;
  p.drive_scale = 0.9;
  return p;
}

core::ProcessPoint fast_corner() {
  core::ProcessPoint p;
  p.vdd_scale = 1.05;
  p.vth_shift = -0.02;
  p.drive_scale = 1.1;
  return p;
}

long total_runs() {
  long n = 0;
  for (const char* cell : {"NOR2", "NOR3", "NAND2", "NAND3", "INV"}) {
    n += cell::CellLibrary::n_characterization_runs(cell);
  }
  return n;
}

// TempDir() persists across test invocations; each cache-file test starts
// from a missing file so its SPICE-run accounting is self-contained (a
// stale warm cache would skip the characterize that primes the in-process
// fit memo).
std::string fresh_cache_path(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::filesystem::remove(path);
  return path;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

std::string read_file(const std::string& path) {
  return util::read_text_file(path);
}

TEST(TechnologyFingerprint, CarriesFormatVersion) {
  const std::string fp = tech().fingerprint();
  const std::string prefix =
      "v" + std::to_string(spice::Technology::kFingerprintVersion) + ";";
  EXPECT_EQ(fp.rfind(prefix, 0), 0u) << fp;
}

TEST(AtCorner, DerivesAnalyticallyFromNominal) {
  const auto& nominal = nominal_library();
  const core::ProcessPoint p = slow_corner();
  const long runs_before = total_runs();
  const cell::CellLibrary corner = nominal.at_corner(p);
  EXPECT_EQ(total_runs(), runs_before);  // no SPICE for a corner

  EXPECT_EQ(corner.tech_fingerprint(), nominal.tech_fingerprint());
  EXPECT_EQ(corner.corner_fingerprint(), p.fingerprint());

  const double s = p.resistance_scale(nominal.spec("NOR2").params.vdd);
  ASSERT_GT(s, 1.0);  // the slow corner really is slow
  for (const char* name : {"NOR2", "NAND3"}) {
    const auto& n = nominal.spec(name).params;
    const auto& c = corner.spec(name).params;
    for (int i = 0; i < n.n_inputs(); ++i) {
      EXPECT_DOUBLE_EQ(c.r_series[i], n.r_series[i] * s);
    }
    EXPECT_EQ(c.c_int, n.c_int);
    EXPECT_DOUBLE_EQ(c.vdd, n.vdd * p.vdd_scale);
  }
  // SIS cells ride the same resistance factor.
  EXPECT_DOUBLE_EQ(corner.spec("INV").rise_delay,
                   nominal.spec("INV").rise_delay * s);
  EXPECT_DOUBLE_EQ(corner.spec("AND2").fall_delay,
                   nominal.spec("AND2").fall_delay * s);
}

TEST(AtCorner, NominalPointIsIdentityAndCornersDoNotCompose) {
  const auto& nominal = nominal_library();
  const cell::CellLibrary same = nominal.at_corner(core::ProcessPoint());
  // Identity: the shared mode tables are literally the same objects.
  EXPECT_EQ(same.spec("NOR2").tables.get(), nominal.spec("NOR2").tables.get());

  const cell::CellLibrary corner = nominal.at_corner(slow_corner());
  EXPECT_THROW(corner.at_corner(fast_corner()), ConfigError);
}

TEST(CornerCsv, RoundTripsBitExactWithCornerIdentity) {
  const std::string path = ::testing::TempDir() + "corner_rt.csv";
  const cell::CellLibrary corner = nominal_library().at_corner(fast_corner());
  corner.save_csv(path);
  const cell::CellLibrary loaded = cell::CellLibrary::load_csv(path);
  EXPECT_EQ(loaded.corner_fingerprint(), fast_corner().fingerprint());
  EXPECT_EQ(loaded.tech_fingerprint(), corner.tech_fingerprint());
  for (const char* name : {"NOR2", "NOR3", "NAND2", "NAND3"}) {
    EXPECT_EQ(loaded.spec(name).params.r_series,
              corner.spec(name).params.r_series);
    EXPECT_EQ(loaded.spec(name).params.vdd, corner.spec(name).params.vdd);
    EXPECT_EQ(loaded.spec(name).params.delta_min,
              corner.spec(name).params.delta_min);
  }
  EXPECT_EQ(loaded.spec("XOR2").rise_delay, corner.spec("XOR2").rise_delay);
  std::remove(path.c_str());
}

TEST(CornerCsv, StaleSchemaVersionRegeneratesSilently) {
  const std::string path = fresh_cache_path("corner_stale_schema.csv");
  nominal_library();  // primes the fit memo: no SPICE below
  cell::CellLibrary::characterize_cached(path, tech());  // warm file

  // Rewrite the schema row to an older version: the file must stop loading
  // and regenerate, without a SPICE re-run.
  std::string text = read_file(path);
  const std::string current =
      "_format,version,0," +
      std::to_string(cell::CellLibrary::kCsvFormatVersion);
  const auto at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, current.size(), "_format,version,0,1");
  write_file(path, text);
  EXPECT_THROW(cell::CellLibrary::load_csv(path), ConfigError);

  const long runs_before = total_runs();
  const cell::CellLibrary regenerated =
      cell::CellLibrary::characterize_cached(path, tech());
  EXPECT_EQ(total_runs(), runs_before);
  EXPECT_EQ(regenerated.tech_fingerprint(), tech().fingerprint());
  // The rewritten file is healthy again.
  EXPECT_EQ(cell::CellLibrary::load_csv(path).tech_fingerprint(),
            tech().fingerprint());
  std::remove(path.c_str());
}

TEST(CornerCsv, PreVersioningFilesRegenerate) {
  // A v1-era file had no _format row at all; it must fail load and be
  // replaced, not silently match.
  const std::string path = fresh_cache_path("corner_prever.csv");
  nominal_library();  // primes the fit memo: no SPICE below
  cell::CellLibrary::characterize_cached(path, tech());
  std::string text = read_file(path);
  const auto at = text.find("_format");
  ASSERT_NE(at, std::string::npos);
  const auto eol = text.find('\n', at);
  text.erase(at, eol - at + 1);
  write_file(path, text);
  EXPECT_THROW(cell::CellLibrary::load_csv(path), ConfigError);
  const long runs_before = total_runs();
  const cell::CellLibrary regenerated =
      cell::CellLibrary::characterize_cached(path, tech());
  EXPECT_EQ(total_runs(), runs_before);
  EXPECT_EQ(regenerated.corner_fingerprint(),
            core::ProcessPoint::nominal().fingerprint());
  std::remove(path.c_str());
}

TEST(CornerCsv, CachedLibraryServesFromDiskWithoutSpice) {
  const std::string path = fresh_cache_path("corner_cache_a.csv");
  const auto& nominal = nominal_library();
  const cell::CellLibrary written =
      cell::CellLibrary::characterize_cached(path, tech());
  ASSERT_TRUE(std::filesystem::exists(path));

  // A later call loads the file: same values, no SPICE -- and the file is
  // left as written.
  const std::string text = read_file(path);
  const long runs_before = total_runs();
  const cell::CellLibrary reloaded =
      cell::CellLibrary::characterize_cached(path, tech());
  EXPECT_EQ(total_runs(), runs_before);
  EXPECT_EQ(read_file(path), text);
  for (const char* name : {"NOR2", "NAND3"}) {
    EXPECT_EQ(reloaded.spec(name).params.r_series,
              nominal.spec(name).params.r_series);
    EXPECT_EQ(reloaded.spec(name).params.r_series,
              written.spec(name).params.r_series);
  }
  // A corner derived from the reloaded library matches one derived from the
  // characterized library bit for bit.
  EXPECT_EQ(reloaded.at_corner(slow_corner()).spec("NOR2").params.r_series,
            nominal.at_corner(slow_corner()).spec("NOR2").params.r_series);
  std::remove(path.c_str());
}

TEST(CornerCsv, CorruptOrWrongCornerFilesRegenerateWithoutSpice) {
  const std::string path = fresh_cache_path("corner_cache_b.csv");
  const auto& nominal = nominal_library();
  cell::CellLibrary::characterize_cached(path, tech());  // warm file
  const std::string healthy = read_file(path);
  const std::string corner_path = fresh_cache_path("corner_cache_b_slow.csv");
  nominal.at_corner(slow_corner()).save_csv(corner_path);

  const struct {
    const char* label;
    std::string content;
  } corruptions[] = {
      {"truncated", healthy.substr(0, 60)},
      {"garbage", std::string("\x7f\x03garbage\x00binary", 16)},
      {"corner-mismatch", read_file(corner_path)},  // valid CSV, wrong corner
      {"empty", ""},
  };
  for (const auto& c : corruptions) {
    write_file(path, c.content);
    const long runs_before = total_runs();
    const cell::CellLibrary lib =
        cell::CellLibrary::characterize_cached(path, tech());
    EXPECT_EQ(total_runs(), runs_before) << c.label;  // never re-runs SPICE
    EXPECT_EQ(lib.corner_fingerprint(),
              core::ProcessPoint::nominal().fingerprint())
        << c.label;
    EXPECT_EQ(lib.spec("NOR2").params.r_series,
              nominal.spec("NOR2").params.r_series)
        << c.label;
    // Regeneration healed the file.
    EXPECT_EQ(read_file(path), healthy) << c.label;
  }
  std::remove(path.c_str());
  std::remove(corner_path.c_str());
}

}  // namespace
}  // namespace charlie

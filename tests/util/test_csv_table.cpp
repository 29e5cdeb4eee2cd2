#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace charlie::util {
namespace {

// A directory of the test's own under the test temp dir: ctest runs every
// test as its own process in one working directory, so tests that shared a
// relative directory could delete each other's files.
std::string test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "csv_" + info->test_suite_name() + "_" +
         info->name();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string dir = test_dir();
  const std::string path = dir + "/csv_basic.csv";
  {
    CsvWriter csv(path, {"delta_ps", "delay_ps"});
    csv.row({-60.0, 37.9});
    csv.row({0.0, 28.0});
  }
  const std::string content = slurp(path);
  EXPECT_NE(content.find("delta_ps,delay_ps\n"), std::string::npos);
  EXPECT_NE(content.find("-60,37.9"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CsvWriter, CreatesParentDirectories) {
  const std::string dir = test_dir();
  const std::string path = dir + "/nested/deeper/file.csv";
  { CsvWriter csv(path, {"x"}); }
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(CsvWriter, RejectsMismatchedRowWidth) {
  const std::string dir = test_dir();
  CsvWriter csv(dir + "/width.csv", {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), AssertionError);
  EXPECT_THROW(csv.row_text({"1", "2", "3"}), AssertionError);
  std::filesystem::remove_all(dir);
}

TEST(CsvParse, StrictDoubleFieldAcceptsValidNumbers) {
  EXPECT_DOUBLE_EQ(parse_double_field("1.5", "ctx"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double_field("-3e-12", "ctx"), -3e-12);
  EXPECT_DOUBLE_EQ(parse_double_field("  42 ", "ctx"), 42.0);  // trimmed
  EXPECT_DOUBLE_EQ(parse_double_field("0x10", "ctx"), 16.0);   // C hex form
}

TEST(CsvParse, StrictDoubleFieldRejectsMalformedInput) {
  // Trailing garbage after a valid prefix must be rejected -- a plain
  // strtod/stod would silently accept "1.5abc" as 1.5.
  EXPECT_THROW(parse_double_field("1.5abc", "ctx"), ConfigError);
  EXPECT_THROW(parse_double_field("1.2.3", "ctx"), ConfigError);
  EXPECT_THROW(parse_double_field("3e", "ctx"), ConfigError);
  EXPECT_THROW(parse_double_field("", "ctx"), ConfigError);
  EXPECT_THROW(parse_double_field("   ", "ctx"), ConfigError);
  EXPECT_THROW(parse_double_field("12 34", "ctx"), ConfigError);
  EXPECT_THROW(parse_double_field("1e99999", "ctx"), ConfigError);  // range
  // strtod consumes these literals; the strict parser must not.
  EXPECT_THROW(parse_double_field("nan", "ctx"), ConfigError);
  EXPECT_THROW(parse_double_field("inf", "ctx"), ConfigError);
  EXPECT_THROW(parse_double_field("-infinity", "ctx"), ConfigError);
}

TEST(CsvParse, StrictLongField) {
  EXPECT_EQ(parse_long_field("-17", "ctx"), -17);
  EXPECT_EQ(parse_long_field(" 8 ", "ctx"), 8);
  EXPECT_THROW(parse_long_field("5x", "ctx"), ConfigError);
  EXPECT_THROW(parse_long_field("1.5", "ctx"), ConfigError);
  EXPECT_THROW(parse_long_field("", "ctx"), ConfigError);
  EXPECT_THROW(parse_long_field("99999999999999999999", "ctx"), ConfigError);
}

TEST(CsvReader, RoundTripsWriterOutput) {
  const std::string dir = test_dir();
  const std::string path = dir + "/csv_roundtrip.csv";
  {
    CsvWriter csv(path, {"delta_ps", "delay_ps"});
    csv.row({-60.0, 37.9});
    csv.row({0.0, 28.0});
    csv.row({60.0, 55.25});
  }
  const CsvData data = read_numeric_csv(path);
  ASSERT_EQ(data.columns.size(), 2u);
  EXPECT_EQ(data.columns[0], "delta_ps");
  EXPECT_EQ(data.columns[1], "delay_ps");
  ASSERT_EQ(data.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(data.rows[0][0], -60.0);
  EXPECT_DOUBLE_EQ(data.rows[2][1], 55.25);
  std::filesystem::remove_all(dir);
}

TEST(CsvReader, RejectsMalformedFilesWithClearErrors) {
  const std::string dir = test_dir();
  ensure_directory(dir);
  const std::string path = dir + "/csv_bad.csv";
  auto write = [&](const std::string& content) {
    std::ofstream out(path);
    out << content;
  };
  write("a,b\n1,2garbage\n");
  EXPECT_THROW(read_numeric_csv(path), ConfigError);
  write("a,b\n1\n");  // ragged row
  EXPECT_THROW(read_numeric_csv(path), ConfigError);
  write("");  // missing header
  EXPECT_THROW(read_numeric_csv(path), ConfigError);
  write("a,b\n1,2\n\n3,4\n");  // blank lines are tolerated
  const CsvData data = read_numeric_csv(path);
  EXPECT_EQ(data.rows.size(), 2u);
  EXPECT_THROW(read_numeric_csv(dir + "/does_not_exist.csv"), ConfigError);
  std::filesystem::remove_all(dir);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({std::string("x"), std::string("1")});
  t.add_row({std::string("longer"), std::string("2")});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Both data lines must have the second column starting at the same offset.
  const auto lines_start = out.find("x ");
  ASSERT_NE(lines_start, std::string::npos);
  EXPECT_NE(out.find("longer  2"), std::string::npos);
  EXPECT_EQ(t.n_rows(), 2u);
}

TEST(TextTable, NumericRowFormatting) {
  TextTable t({"v"});
  t.add_row(std::vector<double>{1.23456}, 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), AssertionError);
}

TEST(Formatting, Helpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(-0.2801), "-28.01 %");
  EXPECT_EQ(fmt_percent(0.0726), "+7.26 %");
  EXPECT_NE(fmt_sci(1234.5, 3).find("e+03"), std::string::npos);
}

}  // namespace
}  // namespace charlie::util

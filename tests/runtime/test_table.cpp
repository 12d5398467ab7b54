#include "runtime/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace nav {
namespace {

TEST(Table, RequiresHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowWidthMustMatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, AsciiContainsHeaderRuleAndCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const auto s = t.to_ascii();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, MarkdownShape) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  const auto md = t.to_markdown();
  EXPECT_NE(md.find("| x | y |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"a"});
  t.add_row({"hello, world"});
  t.add_row({"say \"hi\""});
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, world\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvPlainCellsUnquoted) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_NE(t.to_csv().find("1,2"), std::string::npos);
}

TEST(Table, SaveCsvRoundTrip) {
  Table t({"k", "v"});
  t.add_row({"n", "42"});
  const std::string path = ::testing::TempDir() + "nav_table_test.csv";
  t.save_csv(path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), t.to_csv());
  std::remove(path.c_str());
}

TEST(Table, SaveCsvBadPathThrows) {
  Table t({"a"});
  EXPECT_THROW(t.save_csv("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::integer(123456), "123456");
}

TEST(Table, WithCiFormat) {
  EXPECT_EQ(Table::with_ci(10.5, 0.25, 2), "10.50 +- 0.25");
}

TEST(Table, RowAccess) {
  Table t({"a"});
  t.add_row({"x"});
  EXPECT_EQ(t.row(0)[0], "x");
  EXPECT_THROW((void)t.row(1), std::invalid_argument);
}

}  // namespace
}  // namespace nav

#include "whart/report/csv.hpp"

#include <sstream>

#include <gtest/gtest.h>

namespace whart::report {
namespace {

TEST(Csv, PlainFieldsUnquoted) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, FieldsWithCommasAreQuoted) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a,b", "c"});
  EXPECT_EQ(out.str(), "\"a,b\",c\n");
}

TEST(Csv, QuotesAreDoubled) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"say \"hi\"", "x"});
  EXPECT_EQ(out.str(), "\"say \"\"hi\"\"\",x\n");
}

TEST(Csv, NewlinesAreQuoted) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"two\nlines", "cr\r", "plain"});
  EXPECT_EQ(out.str(), "\"two\nlines\",\"cr\r\",plain\n");
}

TEST(Csv, EmptyRowAndField) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({});
  writer.write_row({""});
  EXPECT_EQ(out.str(), "\n\n");
}

TEST(Csv, MultipleRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"h1", "h2"});
  writer.write_row({"1", "2"});
  EXPECT_EQ(out.str(), "h1,h2\n1,2\n");
}

}  // namespace
}  // namespace whart::report

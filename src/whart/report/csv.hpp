// Minimal CSV output (RFC 4180 quoting) for exporting series to external
// plotting tools.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>

namespace whart::report {

/// Incremental CSV writer.
class CsvWriter {
 public:
  /// Write to `out`, which must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Write one row; fields are quoted when they contain separators,
  /// quotes or newlines.  The row is built in a buffer the writer reuses
  /// and reaches the stream in one write.
  void write_row(std::initializer_list<std::string_view> fields);

 private:
  std::ostream* out_;
  std::string row_;
};

}  // namespace whart::report

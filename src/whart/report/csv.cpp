#include "whart/report/csv.hpp"

#include <ostream>

namespace whart::report {

void CsvWriter::write_row(std::initializer_list<std::string_view> fields) {
  row_.clear();
  for (const std::string_view* field = fields.begin(); field != fields.end();
       ++field) {
    if (field != fields.begin()) row_ += ',';
    if (field->find_first_of(",\"\n\r") == std::string_view::npos) {
      row_ += *field;
      continue;
    }
    row_ += '"';
    for (const char c : *field) {
      if (c == '"') row_ += '"';
      row_ += c;
    }
    row_ += '"';
  }
  row_ += '\n';
  out_->write(row_.data(), static_cast<std::streamsize>(row_.size()));
}

}  // namespace whart::report

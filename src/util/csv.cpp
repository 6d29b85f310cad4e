#include "util/csv.hpp"

#include <fstream>

namespace edacloud::util {

std::string csv_field(const std::string& cell, bool always_quote) {
  if (!always_quote && cell.find_first_of(",\"\n\r") == std::string::npos) {
    return cell;
  }
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += "\"";
  return out;
}

namespace {

void emit_row(std::string& out, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out += ",";
    out += csv_field(cells[i]);
  }
  out += "\n";
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void CsvWriter::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::str() const {
  std::string out;
  emit_row(out, headers_);
  for (const auto& row : rows_) emit_row(out, row);
  return out;
}

bool CsvWriter::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << str();
  return static_cast<bool>(file);
}

}  // namespace edacloud::util

#pragma once
// Tiny CSV writer for exporting experiment series (figures) so downstream
// plotting tools can regenerate the paper's charts.

#include <string>
#include <vector>

namespace edacloud::util {

/// `cell` as one RFC 4180 field: inside quotes with each `"` doubled when
/// it holds a comma, a quote or a line break, or when `always_quote` is
/// set; as is otherwise.
[[nodiscard]] std::string csv_field(const std::string& cell,
                                    bool always_quote = false);

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Serialize with RFC-4180 quoting where needed.
  [[nodiscard]] std::string str() const;

  /// Write to a file; returns false on IO failure.
  bool write(const std::string& path) const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace edacloud::util

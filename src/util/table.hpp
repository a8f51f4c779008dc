// Aligned plain-text tables for bench output — the experiment binaries print
// paper-style result rows with this.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hp {

/// Collects rows of string cells and prints them with right-aligned numeric
/// columns under a header, e.g.
///
///     n     k   steps   bound   ratio
///    16   256     143   7239    0.020
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  class Row {
   public:
    explicit Row(TablePrinter& table) : table_(table) {}
    Row& add(std::string_view value);
    Row& add(double value, int precision = 3);
    Row& add(std::int64_t value);
    Row& add(std::uint64_t value);
    /// Commits the row; throws hp::CheckError on arity mismatch.
    ~Row() noexcept(false);
    Row(const Row&) = delete;
    Row& operator=(const Row&) = delete;

   private:
    TablePrinter& table_;
    std::vector<std::string> cells_;
  };

  Row row() { return Row(*this); }

  /// Renders the header and all rows, space-padded, two spaces between
  /// columns, to `out`.
  void print(std::ostream& out) const;

 private:
  friend class Row;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hp

// Minimal CSV emitter for experiment output (per-step time series, sweep
// results). Values containing commas/quotes/newlines are quoted per RFC 4180.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hp {

class CsvWriter {
 public:
  /// Writes to `out`, which must outlive the writer. The header row is
  /// emitted immediately; every subsequent row must have the same arity.
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  /// Appends one row. Mixed field types supported via overloaded add().
  class Row {
   public:
    explicit Row(CsvWriter& writer) : writer_(writer) {}
    Row& add(std::string_view value);
    Row& add(double value);
    Row& add(std::int64_t value);
    Row& add(std::uint64_t value);
    /// Commits the row; checked against the header arity (throws
    /// hp::CheckError on mismatch, hence noexcept(false)).
    ~Row() noexcept(false);
    Row(const Row&) = delete;
    Row& operator=(const Row&) = delete;

   private:
    CsvWriter& writer_;
    std::vector<std::string> fields_;
  };

  Row row() { return Row(*this); }

 private:
  friend class Row;
  void write_row(const std::vector<std::string>& fields);
  static std::string escape(std::string_view value);

  std::ostream& out_;
  std::size_t arity_;
  bool header_written_ = false;
};

}  // namespace hp

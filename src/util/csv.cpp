#include "util/csv.hpp"

#include <sstream>

#include "util/check.hpp"

namespace hp {

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), arity_(header.size()) {
  HP_REQUIRE(!header.empty(), "CSV header must be nonempty");
  write_row(header);
  header_written_ = true;
}

CsvWriter::Row& CsvWriter::Row::add(std::string_view value) {
  fields_.emplace_back(value);
  return *this;
}

CsvWriter::Row& CsvWriter::Row::add(double value) {
  std::ostringstream os;
  os << value;
  fields_.push_back(os.str());
  return *this;
}

CsvWriter::Row& CsvWriter::Row::add(std::int64_t value) {
  fields_.push_back(std::to_string(value));
  return *this;
}

CsvWriter::Row& CsvWriter::Row::add(std::uint64_t value) {
  fields_.push_back(std::to_string(value));
  return *this;
}

CsvWriter::Row::~Row() noexcept(false) {
  writer_.write_row(fields_);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  HP_CHECK(!header_written_ || fields.size() == arity_,
           "CSV row arity mismatch with header");
  bool first = true;
  for (const auto& f : fields) {
    if (!first) out_ << ',';
    out_ << escape(f);
    first = false;
  }
  out_ << '\n';
}

std::string CsvWriter::escape(std::string_view value) {
  const bool needs_quote =
      value.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(value);
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace hp

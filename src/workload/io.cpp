#include "workload/io.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace hp::workload {

void write_problem(std::ostream& out, const Problem& problem) {
  out << "problem " << (problem.name.empty() ? "unnamed" : problem.name)
      << "\n";
  for (const auto& spec : problem.packets) {
    out << "packet " << spec.src << " " << spec.dst << "\n";
  }
}

Problem read_problem(std::istream& in) {
  Problem problem;
  bool saw_header = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // blank line
    const std::string where = " at line " + std::to_string(line_no);
    if (keyword == "problem") {
      HP_CHECK(!saw_header, "duplicate 'problem' header" + where);
      HP_CHECK(static_cast<bool>(fields >> problem.name),
               "'problem' needs a name" + where);
      saw_header = true;
    } else if (keyword == "packet") {
      long long src = 0, dst = 0;
      HP_CHECK(static_cast<bool>(fields >> src >> dst),
               "'packet' needs <src> <dst>" + where);
      HP_CHECK(std::in_range<net::NodeId>(src) &&
                   std::in_range<net::NodeId>(dst),
               "'packet' node id outside the 32-bit NodeId range" + where);
      problem.packets.push_back({static_cast<net::NodeId>(src),
                                 static_cast<net::NodeId>(dst)});
    } else {
      HP_CHECK(false, "unknown keyword '" + keyword + "'" + where);
    }
    std::string extra;
    HP_CHECK(!(fields >> extra), "trailing tokens" + where);
  }
  HP_CHECK(saw_header, "missing 'problem' header");
  return problem;
}

void save_problem(const std::string& path, const Problem& problem) {
  std::ofstream out(path);
  HP_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  write_problem(out, problem);
  HP_CHECK(out.good(), "write to '" + path + "' failed");
}

Problem load_problem(const std::string& path) {
  std::ifstream in(path);
  HP_REQUIRE(in.good(), "cannot open '" + path + "' for reading");
  return read_problem(in);
}

}  // namespace hp::workload

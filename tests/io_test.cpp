// Problem text-format round-trip and error handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "util/check.hpp"
#include "workload/io.hpp"

namespace hp::workload {
namespace {

TEST(ProblemIo, RoundTripsThroughStreams) {
  Problem p;
  p.name = "demo";
  p.packets = {{0, 5}, {3, 3}, {7, 1}};
  std::stringstream buffer;
  write_problem(buffer, p);
  const Problem q = read_problem(buffer);
  EXPECT_EQ(q.name, "demo");
  ASSERT_EQ(q.packets.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(q.packets[i].src, p.packets[i].src);
    EXPECT_EQ(q.packets[i].dst, p.packets[i].dst);
  }
}

TEST(ProblemIo, EmptyNameBecomesUnnamed) {
  Problem p;
  std::stringstream buffer;
  write_problem(buffer, p);
  EXPECT_EQ(read_problem(buffer).name, "unnamed");
}

TEST(ProblemIo, ParsesCommentsAndBlankLines) {
  std::istringstream in(
      "# a routing instance\n"
      "problem commented\n"
      "\n"
      "packet 1 2   # inline comment\n"
      "   \n"
      "packet 3 4\n");
  const Problem p = read_problem(in);
  EXPECT_EQ(p.name, "commented");
  EXPECT_EQ(p.size(), 2u);
}

TEST(ProblemIo, RejectsMalformedDocuments) {
  {
    std::istringstream in("packet 1 2\n");  // missing header
    EXPECT_THROW(read_problem(in), CheckError);
  }
  {
    std::istringstream in("problem a\nproblem b\n");  // duplicate header
    EXPECT_THROW(read_problem(in), CheckError);
  }
  {
    std::istringstream in("problem a\npacket 1\n");  // missing dst
    EXPECT_THROW(read_problem(in), CheckError);
  }
  {
    std::istringstream in("problem a\npacket 1 2 3\n");  // trailing token
    EXPECT_THROW(read_problem(in), CheckError);
  }
  {
    std::istringstream in("problem a\nfrobnicate 1 2\n");  // bad keyword
    EXPECT_THROW(read_problem(in), CheckError);
  }
  {
    // Ids that would wrap into range if narrowed to 32 bits.
    std::istringstream in("problem a\npacket 4294967296 1\n");
    EXPECT_THROW(read_problem(in), CheckError);
  }
  {
    std::istringstream in("problem a\npacket -4294967295 1\n");
    EXPECT_THROW(read_problem(in), CheckError);
  }
  {
    std::istringstream in("problem a\npacket 1 4294967298\n");
    EXPECT_THROW(read_problem(in), CheckError);
  }
}

TEST(ProblemIo, FileRoundTrip) {
  Problem p;
  p.name = "file-test";
  p.packets = {{10, 20}, {30, 40}};
  const std::string path = "/tmp/hp_io_test_problem.txt";
  save_problem(path, p);
  const Problem q = load_problem(path);
  EXPECT_EQ(q.name, "file-test");
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.packets[1].dst, 40);
  std::remove(path.c_str());
}

TEST(ProblemIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_problem("/nonexistent/dir/x.txt"), CheckError);
}

}  // namespace
}  // namespace hp::workload

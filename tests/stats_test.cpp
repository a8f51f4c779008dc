// Stats layer tests: per-step recording, latency summaries and the
// distance-bucketed profile used by the §1 motivation experiments.
#include <gtest/gtest.h>

#include <sstream>

#include "routing/restricted_priority.hpp"
#include "stats/recorder.hpp"
#include "test_support.hpp"
#include "workload/generators.hpp"

namespace hp::stats {
namespace {

using test::make_problem;
using test::xy;

TEST(RunRecorder, OneRowPerStep) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(3, 0))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  RunRecorder recorder;
  engine.add_observer(&recorder);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  const auto rows = test::recorded_rows(recorder);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].step, 0u);
  EXPECT_EQ(rows[0].in_flight, 1);
  EXPECT_EQ(rows[0].advanced, 1);
  EXPECT_EQ(rows[0].deflected, 0);
  EXPECT_EQ(rows[0].total_distance, 3);
  EXPECT_EQ(rows[2].step, 2u);
  EXPECT_EQ(rows[2].arrived, 1);
  EXPECT_EQ(rows[2].total_distance, 1);
}

TEST(RunRecorder, CsvHasHeaderAndAllRows) {
  net::Mesh mesh(2, 6);
  Rng rng(3);
  auto problem = workload::random_many_to_many(mesh, 20, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  RunRecorder recorder;
  engine.add_observer(&recorder);
  const auto result = engine.run();
  std::ostringstream out;
  recorder.write_csv(out);
  const std::string csv = out.str();
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(static_cast<std::uint64_t>(lines), result.steps_executed + 1);
  EXPECT_EQ(csv.substr(0, 4), "step");
}

TEST(LatencySummary, CountsAndStretch) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(4, 0))},
       {mesh.node_at(xy(0, 1)), mesh.node_at(xy(0, 1))}});  // trivial
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  const auto summary = summarize_latency(result);
  EXPECT_EQ(summary.delivered, 2u);
  // Lone packet: latency = distance ⇒ stretch exactly 1; trivial packet
  // contributes stretch 0 (latency 0 over max(1, 0)).
  EXPECT_DOUBLE_EQ(summary.stretch.max(), 1.0);
  EXPECT_DOUBLE_EQ(summary.latency.max(), 4.0);
  EXPECT_DOUBLE_EQ(summary.deflections.max(), 0.0);
}

TEST(DistanceProfile, BucketsByInitialDistance) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(2, 0))},    // dist 2
       {mesh.node_at(xy(0, 1)), mesh.node_at(xy(5, 1))},    // dist 5
       {mesh.node_at(xy(1, 2)), mesh.node_at(xy(3, 2))}});  // dist 2
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  const auto profile = profile_by_distance(result);
  ASSERT_GE(profile.by_distance.size(), 6u);
  EXPECT_EQ(profile.by_distance[2].count(), 2u);
  EXPECT_EQ(profile.by_distance[5].count(), 1u);
  EXPECT_DOUBLE_EQ(profile.by_distance[2].mean(), 2.0);
  EXPECT_DOUBLE_EQ(profile.by_distance[5].mean(), 5.0);
}

TEST(DistanceProfile, SkipsUndelivered) {
  sim::RunResult result;
  sim::Packet p;
  p.initial_distance = 3;  // never arrived
  result.packets.push_back(p);
  const auto profile = profile_by_distance(result);
  for (const auto& stat : profile.by_distance) {
    EXPECT_EQ(stat.count(), 0u);
  }
}

}  // namespace
}  // namespace hp::stats

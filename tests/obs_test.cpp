// Observability layer tests: JSON helpers, metrics registry, trace ring,
// phase profiler and the EngineMetrics observer — including the snapshot
// determinism contract the layer documents (same values => same bytes).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "obs/engine_metrics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp::obs {
namespace {

using test::make_problem;
using test::xy;

// --- JSON helpers -----------------------------------------------------------

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("\b\f")), "\\b\\f");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape(std::string("\x1f", 1)), "\\u001f");
  // Bytes >= 0x80 pass through (UTF-8 payloads stay untouched).
  EXPECT_EQ(json_escape("Φ"), "Φ");
}

TEST(JsonNumber, ShortestRoundTripAndNonFinite) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(2.0), "2");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-3.5), "-3.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesDistributions) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());

  Counter& c = registry.counter("events");
  c.add();
  c.add(4);
  EXPECT_EQ(registry.counter("events").value(), 5u);

  registry.gauge("level").set(2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("level").value(), 2.5);

  Distribution& d = registry.distribution("lat", 0.0, 10.0, 5);
  d.add(1.0);
  d.add(25.0);  // clamps into the last bin; stats stay exact
  EXPECT_EQ(d.stat().count(), 2u);
  EXPECT_DOUBLE_EQ(d.stat().max(), 25.0);
  EXPECT_EQ(d.histogram().bin_count(4), 1u);

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_FALSE(registry.empty());
}

TEST(MetricsRegistry, FindReturnsNullForUnknownNames) {
  MetricsRegistry registry;
  registry.counter("present");
  registry.distribution("lat", 0.0, 10.0, 5);
  EXPECT_NE(registry.find_distribution("lat"), nullptr);
  EXPECT_EQ(registry.find_distribution("absent"), nullptr);
  EXPECT_EQ(registry.find_distribution("present"), nullptr);
}

TEST(MetricsRegistry, DistributionShapeIsFixedByFirstCall) {
  MetricsRegistry registry;
  registry.distribution("lat", 0.0, 10.0, 5);
  EXPECT_NO_THROW(registry.distribution("lat", 0.0, 10.0, 5));
  EXPECT_THROW(registry.distribution("lat", 0.0, 20.0, 5), CheckError);
  EXPECT_THROW(registry.distribution("lat", 0.0, 10.0, 8), CheckError);
}

TEST(MetricsRegistry, SnapshotIsIndependentOfRegistrationOrder) {
  MetricsRegistry first;
  first.counter("b").add(2);
  first.counter("a").add(1);
  first.gauge("z").set(0.5);

  MetricsRegistry second;
  second.gauge("z").set(0.5);
  second.counter("a").add(1);
  second.counter("b").add(2);

  std::ostringstream ja, jb, ca, cb;
  first.write_json(ja);
  second.write_json(jb);
  first.write_csv(ca);
  second.write_csv(cb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ca.str(), cb.str());
}

TEST(MetricsRegistry, EmptySnapshotsAreWellFormed) {
  MetricsRegistry registry;
  std::ostringstream json, csv;
  registry.write_json(json);
  registry.write_csv(csv);
  EXPECT_NE(json.str().find("\"schema\": \"hp-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"counters\": {}"), std::string::npos);
  EXPECT_EQ(csv.str(), "kind,name,value,count,mean,min,max,sum\n");
}

// --- TraceRing --------------------------------------------------------------

TraceEvent make_event(std::uint64_t ts) {
  TraceEvent e;
  e.name = "e" + std::to_string(ts);
  e.ts = ts;
  return e;
}

TEST(TraceRing, RejectsZeroCapacity) {
  EXPECT_THROW(TraceRing ring(0), CheckError);
}

TEST(TraceRing, KeepsNewestEventsOnOverflow) {
  TraceRing ring(4);
  EXPECT_TRUE(ring.empty());
  for (std::uint64_t t = 0; t < 10; ++t) ring.push(make_event(t));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Oldest-first iteration over the retained suffix (events 6..9).
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).ts, 6 + i);
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, ChromeExportRecordsDrops) {
  TraceRing ring(2);
  for (std::uint64_t t = 0; t < 5; ++t) ring.push(make_event(t));
  std::ostringstream out;
  write_chrome_trace(out, ring);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dropped_events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"e4\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\": \"e2\""), std::string::npos);
}

// --- PhaseProfiler ----------------------------------------------------------

TEST(PhaseProfiler, AccumulatesCallsAndSteps) {
  PhaseProfiler profiler;
  {
    PhaseScope scope(&profiler, Phase::kRoute);
  }
  {
    PhaseScope scope(&profiler, Phase::kRoute);
  }
  profiler.note_step();
  EXPECT_EQ(profiler.stat(Phase::kRoute).calls, 2u);
  EXPECT_EQ(profiler.stat(Phase::kInject).calls, 0u);
  std::ostringstream report;
  profiler.write_report(report);
  EXPECT_NE(report.str().find("(1 steps"), std::string::npos) << report.str();
}

TEST(PhaseProfiler, NullProfilerScopesAreNoOps) {
  PhaseScope scope(nullptr, Phase::kApply);  // must not crash
  SUCCEED();
}

TEST(PhaseProfiler, ShardImbalanceIsMaxOverMean) {
  PhaseProfiler profiler;
  const std::uint64_t even[] = {100, 100};
  const std::uint64_t skewed[] = {300, 100};
  profiler.add_shard_epoch(Phase::kRoute, even, 2);
  EXPECT_DOUBLE_EQ(profiler.shard_imbalance(Phase::kRoute), 1.0);
  profiler.add_shard_epoch(Phase::kRoute, skewed, 2);
  EXPECT_DOUBLE_EQ(profiler.shard_imbalance(Phase::kRoute), (1.0 + 1.5) / 2.0);
  EXPECT_EQ(profiler.epochs(Phase::kRoute), 2u);
  EXPECT_EQ(profiler.shard_stat(Phase::kRoute).totals[0], 400u);
  EXPECT_EQ(profiler.shard_stat(Phase::kRoute).totals[1], 200u);
}

TEST(PhaseProfiler, ReportMentionsEveryPhase) {
  PhaseProfiler profiler;
  std::ostringstream out;
  profiler.write_report(out);
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_NE(out.str().find(phase_name(static_cast<Phase>(i))),
              std::string::npos);
  }
}

TEST(PhaseProfiler, TraceSinkReceivesPhaseSpans) {
  PhaseProfiler profiler;
  TraceRing ring(8);
  profiler.set_trace_sink(&ring);
  {
    PhaseScope scope(&profiler, Phase::kObserve);
  }
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.at(0).name, "observe");
  EXPECT_EQ(ring.at(0).cat, "phase");
}

// --- EngineMetrics ----------------------------------------------------------

TEST(EngineMetrics, CountersMatchTheRunResult) {
  net::Mesh mesh(2, 8);
  Rng rng(7);
  auto problem = workload::random_many_to_many(mesh, 40, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  MetricsRegistry registry;
  EngineMetrics metrics(registry);
  engine.add_observer(&metrics);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);

  EXPECT_EQ(registry.counter("engine.steps").value(), result.steps_executed);
  EXPECT_EQ(registry.counter("packets.advances").value(),
            result.total_advances);
  EXPECT_EQ(registry.counter("packets.deflections").value(),
            result.total_deflections);
  // Trivial src == dst packets are delivered at injection and never cross
  // an observer, so delivered counts routed packets only.
  std::uint64_t routed = 0;
  for (const auto& p : result.packets) {
    if (p.initial_distance > 0) ++routed;
  }
  EXPECT_EQ(registry.counter("packets.delivered").value(), routed);
  EXPECT_EQ(registry.distribution("packet.latency", 0.0, 4096.0, 64)
                .stat()
                .count(),
            routed);
  EXPECT_DOUBLE_EQ(registry.gauge("engine.in_flight").value(), 0.0);
}

TEST(EngineMetrics, LatencyMatchesThePacketRecords) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(5, 0))},
       {mesh.node_at(xy(2, 2)), mesh.node_at(xy(2, 6))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  MetricsRegistry registry;
  EngineMetrics metrics(registry);
  engine.add_observer(&metrics);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);

  const Distribution* latency = registry.find_distribution("packet.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->stat().count(), 2u);
  double sum = 0;
  for (const auto& p : result.packets) {
    sum += static_cast<double>(p.arrived_at - p.injected_at);
  }
  EXPECT_DOUBLE_EQ(latency->stat().sum(), sum);
}

TEST(EngineMetrics, EmptyRunStillSnapshotsCleanly) {
  net::Mesh mesh(2, 4);
  // Only trivial packets: the engine delivers them at injection and run()
  // executes zero steps.
  auto problem =
      make_problem({{mesh.node_at(xy(1, 1)), mesh.node_at(xy(1, 1))}});
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  MetricsRegistry registry;
  EngineMetrics metrics(registry);
  engine.add_observer(&metrics);
  const auto result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(registry.counter("engine.steps").value(), 0u);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_NE(out.str().find("\"packet.latency\""), std::string::npos);
}

}  // namespace
}  // namespace hp::obs

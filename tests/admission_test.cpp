// Closed-loop admission controller tests: the stability verdict, probe
// convergence on synthetic known-capacity systems, guaranteed termination
// on pathological systems, and byte-identical probe trajectories across
// engine thread counts and reruns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "routing/greedy_variants.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/admission.hpp"
#include "stats/sweep.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/traffic.hpp"

namespace hp {
namespace {

/// Synthetic system with a sharp capacity edge: any rate at or below the
/// capacity is perfectly served, anything above collapses. No state, no
/// randomness — the probe's behavior against it is pure controller logic.
class SharpCapacitySystem final : public sim::LoadableSystem {
 public:
  explicit SharpCapacitySystem(double capacity) : capacity_(capacity) {}

  sim::WindowMeasurement run_window(double rate, std::uint64_t,
                                    std::uint64_t) override {
    ++windows_;
    sim::WindowMeasurement m;
    m.offered_rate = rate;
    if (rate <= capacity_) {
      m.throughput = rate;
      m.admit_fraction = 1.0;
      m.admitted_rate = rate;
    } else {
      m.throughput = 0.5 * capacity_;
      m.admit_fraction = 0.5;
      m.admitted_rate = rate;
    }
    m.mean_latency = 4.0;
    return m;
  }

  int windows() const { return windows_; }

 private:
  double capacity_;
  int windows_ = 0;
};

/// A system that never delivers anything: every window is unstable.
class BlackHoleSystem final : public sim::LoadableSystem {
 public:
  sim::WindowMeasurement run_window(double rate, std::uint64_t,
                                    std::uint64_t) override {
    ++windows_;
    sim::WindowMeasurement m;
    m.offered_rate = rate;
    m.throughput = 0.0;
    m.admit_fraction = 0.0;
    return m;
  }

  int windows() const { return windows_; }

 private:
  int windows_ = 0;
};

TEST(Admission, StableVerdict) {
  sim::AdmissionController controller;
  const double floor = sim::ProbeConfig{}.stable_fraction;

  sim::WindowMeasurement m;
  m.offered_rate = 0.0;
  EXPECT_TRUE(controller.stable(m));  // nothing offered, nothing owed

  m.offered_rate = 0.5;
  m.admit_fraction = 1.0;
  m.admitted_rate = 0.5;
  m.throughput = 0.5;
  EXPECT_TRUE(controller.stable(m));

  m.admit_fraction = floor - 0.01;  // capacity rule pushing back
  EXPECT_FALSE(controller.stable(m));

  m.admit_fraction = 1.0;
  m.throughput = 0.5 * (floor - 0.01);  // deliveries not keeping up
  EXPECT_FALSE(controller.stable(m));

  m.throughput = 0.5 * floor;  // exactly at the floor counts as stable
  EXPECT_TRUE(controller.stable(m));

  // The comparison base is the *realized* admitted rate: a pattern whose
  // sources produce less than the nominal knob (e.g. a transpose
  // diagonal never sends) is still stable when deliveries match what was
  // actually admitted.
  m.admitted_rate = 0.4;
  m.throughput = 0.4;
  EXPECT_TRUE(controller.stable(m));
}

TEST(Admission, ConfigValidation) {
  auto with = [](auto mutate) {
    sim::ProbeConfig config;
    mutate(config);
    return config;
  };
  EXPECT_THROW(sim::AdmissionController(
                   with([](sim::ProbeConfig& c) { c.min_rate = 0.0; })),
               CheckError);
  EXPECT_THROW(sim::AdmissionController(with([](sim::ProbeConfig& c) {
                 c.max_rate = c.min_rate;
               })),
               CheckError);
  EXPECT_THROW(sim::AdmissionController(
                   with([](sim::ProbeConfig& c) { c.growth = 1.0; })),
               CheckError);
  EXPECT_THROW(sim::AdmissionController(
                   with([](sim::ProbeConfig& c) { c.tolerance = 0.0; })),
               CheckError);
  EXPECT_THROW(sim::AdmissionController(
                   with([](sim::ProbeConfig& c) { c.stable_fraction = 1.5; })),
               CheckError);
  EXPECT_THROW(sim::AdmissionController(
                   with([](sim::ProbeConfig& c) { c.window_steps = 0; })),
               CheckError);
  EXPECT_THROW(sim::AdmissionController(
                   with([](sim::ProbeConfig& c) { c.max_windows = 0; })),
               CheckError);
}

TEST(Admission, ConvergesOnKnownCapacity) {
  for (double capacity : {0.013, 0.21, 0.47, 0.93}) {
    SharpCapacitySystem system(capacity);
    sim::AdmissionController controller;
    const auto result = controller.probe(system);

    EXPECT_TRUE(result.converged) << "capacity " << capacity;
    EXPECT_LE(result.saturation_rate, capacity);
    // The bracket closed to hi − lo ≤ tol·hi with hi just above capacity,
    // so lo lands within tolerance of the true edge.
    EXPECT_GE(result.saturation_rate,
              capacity * (1.0 - sim::ProbeConfig{}.tolerance) * 0.999)
        << "capacity " << capacity;
    EXPECT_DOUBLE_EQ(result.throughput_at_saturation, result.saturation_rate);
    EXPECT_EQ(result.windows, system.windows());
    EXPECT_LE(result.windows, sim::ProbeConfig{}.max_windows);
  }
}

TEST(Admission, CeilingStableSystemConvergesToMaxRate) {
  SharpCapacitySystem system(/*capacity=*/2.0);  // above the probe ceiling
  sim::AdmissionController controller;
  const auto result = controller.probe(system);
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.saturation_rate, sim::ProbeConfig{}.max_rate);
}

TEST(Admission, BracketIsMonotoneAndConsistent) {
  SharpCapacitySystem system(/*capacity=*/0.37);
  sim::AdmissionController controller;
  const auto result = controller.probe(system);

  double prev_lo = 0.0;
  double prev_hi = std::numeric_limits<double>::infinity();
  int expected_window = 0;
  for (const auto& step : result.trajectory) {
    EXPECT_EQ(step.window, expected_window++);
    EXPECT_GE(step.lo, prev_lo);                  // lo never retreats
    EXPECT_LE(step.hi, prev_hi);                  // hi never retreats
    EXPECT_LT(step.lo, step.hi);                  // bracket stays open
    EXPECT_EQ(step.stable, controller.stable(step.measurement));
    EXPECT_DOUBLE_EQ(step.rate, step.measurement.offered_rate);
    prev_lo = step.lo;
    prev_hi = step.hi;
  }
  EXPECT_DOUBLE_EQ(result.saturation_rate, prev_lo);
}

TEST(Admission, BlackHoleReportsNonConvergenceAndTerminates) {
  BlackHoleSystem system;
  sim::AdmissionController controller;
  const auto result = controller.probe(system);

  EXPECT_FALSE(result.converged);
  EXPECT_DOUBLE_EQ(result.saturation_rate, 0.0);
  EXPECT_DOUBLE_EQ(result.throughput_at_saturation, 0.0);
  // Terminates via the dead-floor exit well before the hard cap: bisection
  // halves the bracket from initial_rate down to min_rate.
  EXPECT_LT(result.windows, sim::ProbeConfig{}.max_windows);
  EXPECT_EQ(result.windows, system.windows());
  for (const auto& step : result.trajectory) EXPECT_FALSE(step.stable);
}

// --- engine-backed determinism ---------------------------------------------

/// Full-precision serialization of a probe trajectory. Two runs are
/// equivalent iff their serializations are byte-identical.
std::string serialize(const sim::ProbeResult& result) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf), "converged=%d saturation=%.17g windows=%d\n",
                result.converged ? 1 : 0, result.saturation_rate,
                result.windows);
  out += buf;
  for (const auto& step : result.trajectory) {
    const auto& m = step.measurement;
    std::snprintf(buf, sizeof(buf),
                  "w=%d rate=%.17g stable=%d lo=%.17g hi=%.17g "
                  "tp=%.17g admit=%.17g adm_rate=%.17g lat=%.17g p99=%.17g "
                  "pop=%.17g peak=%.17g backlog=%.17g/%.17g delivered=%llu\n",
                  step.window, step.rate, step.stable ? 1 : 0, step.lo,
                  step.hi, m.throughput, m.admit_fraction, m.admitted_rate,
                  m.mean_latency,
                  m.p99_latency, m.mean_population, m.peak_in_flight,
                  m.start_backlog, m.end_backlog,
                  static_cast<unsigned long long>(m.delivered));
    out += buf;
  }
  return out;
}

sim::ProbeResult probe_mesh(int num_threads, bool pareto) {
  net::Mesh mesh(2, 6);
  routing::RestrictedPriorityPolicy policy;
  workload::TrafficConfig traffic;
  traffic.pattern = workload::DestPattern::kTranspose;
  traffic.pareto = pareto;
  sim::EngineConfig engine_config;
  engine_config.num_threads = num_threads;
  stats::EngineTrafficSystem system(mesh, policy, traffic, /*seed=*/7,
                                    engine_config);
  sim::ProbeConfig probe_config;
  probe_config.window_steps = 300;
  probe_config.warmup_steps = 100;
  return sim::AdmissionController(probe_config).probe(system);
}

TEST(Admission, ProbeTrajectoryIsThreadCountInvariant) {
  for (bool pareto : {false, true}) {
    const std::string baseline = serialize(probe_mesh(1, pareto));
    EXPECT_GT(baseline.size(), 0u);
    for (int threads : {2, 4, 8}) {
      EXPECT_EQ(baseline, serialize(probe_mesh(threads, pareto)))
          << "threads=" << threads << " pareto=" << pareto;
    }
  }
}

TEST(Admission, ProbeTrajectoryIsRerunStable) {
  const std::string first = serialize(probe_mesh(1, true));
  const std::string second = serialize(probe_mesh(1, true));
  EXPECT_EQ(first, second);
}

TEST(Admission, EngineProbeConvergesToPlausibleRate) {
  const auto result = probe_mesh(1, false);
  EXPECT_TRUE(result.converged);
  // Transpose on a 6×6 mesh must sustain something strictly positive but
  // cannot exceed the 1 packet/node/step injection ceiling.
  EXPECT_GT(result.saturation_rate, 0.01);
  EXPECT_LE(result.saturation_rate, 1.0);
  EXPECT_GT(result.throughput_at_saturation, 0.0);
  EXPECT_GT(result.latency_at_saturation, 0.0);
}

TEST(Sweep, CellCurveIsConsistent) {
  net::Mesh mesh(2, 6);
  routing::GreedyRandomPolicy policy;
  workload::TrafficConfig traffic;  // uniform, fixed flow sizes
  stats::SweepConfig config;
  config.probe.window_steps = 300;
  config.probe.warmup_steps = 100;
  config.curve_warmup = 150;
  config.curve_measure = 600;
  config.load_fractions = {0.25, 0.5, 1.0};
  const auto cell = stats::run_sweep_cell(mesh, policy, traffic, config);

  ASSERT_TRUE(cell.probe.converged);
  ASSERT_EQ(cell.curve.size(), config.load_fractions.size());
  for (std::size_t i = 0; i < cell.curve.size(); ++i) {
    const auto& point = cell.curve[i];
    EXPECT_DOUBLE_EQ(point.load_fraction, config.load_fractions[i]);
    EXPECT_DOUBLE_EQ(point.offered_rate,
                     config.load_fractions[i] * cell.probe.saturation_rate);
    EXPECT_GT(point.throughput, 0.0);
    EXPECT_GT(point.delivered, 0u);
    EXPECT_GT(point.peak_in_flight, 0u);
    EXPECT_LE(point.admit_fraction, 1.0);
    EXPECT_GE(point.p99_latency, point.mean_latency * 0.99);
  }
  // Offered rate rises along the curve; delivered throughput follows while
  // the system is below saturation.
  EXPECT_GT(cell.curve.back().throughput, cell.curve.front().throughput);
}

}  // namespace
}  // namespace hp

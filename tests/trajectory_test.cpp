// Per-step trajectory pins for every shipped routing policy.
//
// The golden corpus in determinism_test.cpp fingerprints final arrival
// times of six priority configurations on the mesh. This file pins more:
// a digest of every step's full StepRecord — each Assignment with every
// value an observer can read, and each arrival record — for every policy
// hpsim accepts plus BounceBackPolicy and HajekHypercubePolicy, on every
// topology each policy supports (8×8 mesh, 8×8 torus, 6-cube), under a
// batch permutation, under a saturated batch (four packets per node, capped
// by the degree) and under continuous uniform injection. Each row runs
// at 1 and at 4 threads and must reproduce the same pinned digest, so a
// change of representation anywhere between Network and StepObserver that
// alters a single routing decision, random draw or history bit fails here.
//
// On the 64-node networks the engine routes inline (it shards route only
// from 128 occupied nodes up), so the 16×16 mesh rows are the ones where
// the 4-thread run really splits routing across workers.
//
// The pins were taken from the engine itself. The naive §2 model in
// reference_engine.hpp explains them independently: its own records must
// hash to every pinned digest, and the engine must match it record for
// record at 1, 2, 4 and 8 threads, on these rows and on a 48×48 mesh that
// crosses every parallel cutoff.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "routing/brassil_cruz.hpp"
#include "routing/ddim_priority.hpp"
#include "routing/greedy_variants.hpp"
#include "routing/hajek_hypercube.hpp"
#include "routing/perverse.hpp"
#include "routing/restricted_priority.hpp"
#include "routing/single_target.hpp"
#include "sim/engine.hpp"
#include "sim/injection.hpp"
#include "reference_engine.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

constexpr std::uint64_t kBatchSteps = 150;   // BounceBack never finishes
constexpr std::uint64_t kInjectSteps = 60;
constexpr double kInjectRate = 0.15;

/// FNV-1a over every value the observers see, one 64-bit word per value
/// (signed values sign-extended, so -1 and kInvalidDir hash alike).
class TrajectoryHasher : public sim::StepObserver {
 public:
  void on_step(const sim::Engine& /*engine*/,
               const sim::StepRecord& r) override {
    add(r);
  }

  void add(const sim::StepRecord& r) {
    mix(r.step);
    mix(r.assignments.size());
    for (const sim::Assignment& a : r.assignments) {
      mix(a.pkt);
      mix(a.node);
      mix(a.out);
      mix(a.good_mask);
      mix(a.advances());
      mix(a.num_good());
      mix(a.was_type_a());
      mix(a.prev_advanced);
      mix(a.prev_num_good);
    }
    assignments_ += r.assignments.size();
    mix(r.arrivals.size());
    for (const sim::Packet& p : r.arrivals) {
      mix(p.id);
      mix(p.src);
      mix(p.dst);
      mix(p.pos);
      mix(p.last_move_dir);
      mix(p.prev_advanced);
      mix(p.prev_num_good);
      mix(p.injected_at);
      mix(p.arrived_at);
      mix(p.deflections);
      mix(p.initial_distance);
    }
    arrivals_ += r.arrivals.size();
    mix(r.in_flight_after);
  }

  std::uint64_t digest() const { return h_; }
  std::uint64_t assignments() const { return assignments_; }
  std::uint64_t arrivals() const { return arrivals_; }

 private:
  template <typename T>
  void mix(T v) {
    std::uint64_t word;
    if constexpr (std::is_signed_v<T>) {
      word = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    } else {
      word = static_cast<std::uint64_t>(v);
    }
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t assignments_ = 0;
  std::uint64_t arrivals_ = 0;
};

std::unique_ptr<net::Network> make_topology(const std::string& name) {
  if (name == "mesh8") return std::make_unique<net::Mesh>(2, 8);
  if (name == "torus8") return std::make_unique<net::Mesh>(2, 8, true);
  if (name == "cube6") return std::make_unique<net::Hypercube>(6);
  if (name == "mesh16") return std::make_unique<net::Mesh>(2, 16);
  throw CheckError("unknown topology " + name);
}

/// The hpsim --policy names plus the two policies hpsim does not expose.
std::unique_ptr<sim::RoutingPolicy> make_policy(const std::string& name,
                                                const net::Network& network) {
  using routing::RestrictedPriorityPolicy;
  if (name == "restricted") {
    return std::make_unique<RestrictedPriorityPolicy>();
  }
  if (name == "restricted-random") {
    RestrictedPriorityPolicy::Params params;
    params.tie_break = RestrictedPriorityPolicy::TieBreak::kRandom;
    params.deflect = routing::DeflectRule::kRandom;
    return std::make_unique<RestrictedPriorityPolicy>(params);
  }
  if (name == "ddim") return std::make_unique<routing::DdimPriorityPolicy>();
  if (name == "greedy-random") {
    return std::make_unique<routing::GreedyRandomPolicy>();
  }
  if (name == "furthest-first") {
    return std::make_unique<routing::FurthestFirstPolicy>();
  }
  if (name == "closest-first") {
    return std::make_unique<routing::ClosestFirstPolicy>();
  }
  if (name == "id-priority") {
    return std::make_unique<routing::IdPriorityPolicy>();
  }
  if (name == "brassil-cruz") {
    const auto& mesh = dynamic_cast<const net::Mesh&>(network);
    return std::make_unique<routing::BrassilCruzPolicy>(
        routing::snake_rank(mesh));
  }
  if (name == "single-target") {
    return std::make_unique<routing::SingleTargetPolicy>();
  }
  if (name == "perverse") {
    return std::make_unique<routing::PerverseGreedyPolicy>();
  }
  if (name == "bounce-back") {
    return std::make_unique<routing::BounceBackPolicy>();
  }
  if (name == "hajek-hypercube") {
    return std::make_unique<routing::HajekHypercubePolicy>();
  }
  throw CheckError("unknown policy " + name);
}

struct Row {
  const char* policy;
  const char* topology;
  const char* workload;  ///< "perm", "sat" (batch) or "inject" (continuous)
  std::uint64_t digest;
};

struct Outcome {
  std::uint64_t digest;
  std::uint64_t assignments;
  std::uint64_t arrivals;
};

/// The row's batch problem; empty for continuous injection.
workload::Problem row_problem(const Row& row, const net::Network& network) {
  Rng rng(11);
  if (std::string(row.workload) == "perm") {
    return workload::random_permutation(network, rng);
  }
  if (std::string(row.workload) == "sat") {
    return workload::saturated_random(network, 4, rng);
  }
  return {};
}

Outcome run_row(const Row& row, int num_threads) {
  const auto network = make_topology(row.topology);
  const auto policy = make_policy(row.policy, *network);
  const bool inject = std::string(row.workload) == "inject";
  const workload::Problem problem = row_problem(row, *network);
  sim::EngineConfig config;
  config.seed = 23;
  config.num_threads = num_threads;
  config.detect_livelock = false;
  sim::Engine engine(*network, problem, *policy, config);
  sim::BernoulliInjector injector(kInjectRate, 31);
  if (inject) engine.set_injector(&injector);
  TrajectoryHasher hasher;
  engine.add_observer(&hasher);
  const std::uint64_t cap = inject ? kInjectSteps : kBatchSteps;
  while (engine.now() < cap && engine.step()) {
  }
  return Outcome{hasher.digest(), hasher.assignments(), hasher.arrivals()};
}

// Pinned from the engine as of the commit that added this file. Rows that
// share a digest are runs in which no two packets ever competed for one
// arc, so every priority rule produced the same trajectory.
constexpr Row kRows[] = {
    {"restricted", "mesh8", "perm", 0xa8431be6dc2fd5a5ULL},
    {"restricted", "mesh8", "sat", 0xd7f2f7a01b6f3e08ULL},
    {"restricted", "mesh8", "inject", 0xdffb70811a4959a7ULL},
    {"restricted", "torus8", "perm", 0x4dc972a6f002fe60ULL},
    {"restricted", "torus8", "sat", 0xf25ffdabad9a58c5ULL},
    {"restricted", "torus8", "inject", 0xdb1446233cf758a4ULL},
    {"restricted", "cube6", "perm", 0xa132312db0729a7bULL},
    {"restricted", "cube6", "sat", 0xf223a4ba4038b7ULL},
    {"restricted", "cube6", "inject", 0x58336a49f6e8ec50ULL},
    {"restricted-random", "mesh8", "perm", 0x9b889a94e816469bULL},
    {"restricted-random", "mesh8", "sat", 0x2cadacc16832aae4ULL},
    {"restricted-random", "mesh8", "inject", 0x2c8b3ebb57c1ce47ULL},
    {"restricted-random", "torus8", "perm", 0x7af83612b4eb3401ULL},
    {"restricted-random", "torus8", "sat", 0x8b7d3855a36be7beULL},
    {"restricted-random", "torus8", "inject", 0x37afb025152f6577ULL},
    {"restricted-random", "cube6", "perm", 0xa132312db0729a7bULL},
    {"restricted-random", "cube6", "sat", 0x7c1cd8724dc26ff4ULL},
    {"restricted-random", "cube6", "inject", 0xbe06ad80eeba10f7ULL},
    {"ddim", "mesh8", "perm", 0xa8431be6dc2fd5a5ULL},
    {"ddim", "mesh8", "sat", 0x4bc08674e1b68867ULL},
    {"ddim", "mesh8", "inject", 0xe4cf8e913b14c02eULL},
    {"ddim", "torus8", "perm", 0x4dc972a6f002fe60ULL},
    {"ddim", "torus8", "sat", 0x7d0b500503312d52ULL},
    {"ddim", "torus8", "inject", 0x13f3f330bb4ea900ULL},
    {"ddim", "cube6", "perm", 0xa132312db0729a7bULL},
    {"ddim", "cube6", "sat", 0xc391b2dd40d2139bULL},
    {"ddim", "cube6", "inject", 0x88243ea33d47f53fULL},
    {"greedy-random", "mesh8", "perm", 0x9b889a94e816469bULL},
    {"greedy-random", "mesh8", "sat", 0x2a39322676c98b31ULL},
    {"greedy-random", "mesh8", "inject", 0x873e7faf242266bULL},
    {"greedy-random", "torus8", "perm", 0x6e10ce446cbac202ULL},
    {"greedy-random", "torus8", "sat", 0x11f38235dae451ccULL},
    {"greedy-random", "torus8", "inject", 0x36243a486f834c74ULL},
    {"greedy-random", "cube6", "perm", 0xaec74d02365be4dfULL},
    {"greedy-random", "cube6", "sat", 0x85251ebb62e10636ULL},
    {"greedy-random", "cube6", "inject", 0x2ba6b6daf027b3a7ULL},
    {"furthest-first", "mesh8", "perm", 0x7d6a39305b042b26ULL},
    {"furthest-first", "mesh8", "sat", 0xfb886e4148804467ULL},
    {"furthest-first", "mesh8", "inject", 0x3dd54b64eff88a23ULL},
    {"furthest-first", "torus8", "perm", 0x70c77543bd0cd865ULL},
    {"furthest-first", "torus8", "sat", 0xd1b5db409e67504aULL},
    {"furthest-first", "torus8", "inject", 0x2819e40999df6cc0ULL},
    {"furthest-first", "cube6", "perm", 0xa02f0e0b7659a219ULL},
    {"furthest-first", "cube6", "sat", 0x4dd13aba109d76d1ULL},
    {"furthest-first", "cube6", "inject", 0x9226e937581c65ccULL},
    {"closest-first", "mesh8", "perm", 0xbcb39f8f4f66afe7ULL},
    {"closest-first", "mesh8", "sat", 0xa9f8563e81c80abfULL},
    {"closest-first", "mesh8", "inject", 0x94a6e7343562ace5ULL},
    {"closest-first", "torus8", "perm", 0x4dc972a6f002fe60ULL},
    {"closest-first", "torus8", "sat", 0x5ea9b384905a0329ULL},
    {"closest-first", "torus8", "inject", 0x305e8221b2ff5a60ULL},
    {"closest-first", "cube6", "perm", 0xa132312db0729a7bULL},
    {"closest-first", "cube6", "sat", 0x94d77197feb7697bULL},
    {"closest-first", "cube6", "inject", 0x921790242b0fbbf1ULL},
    {"id-priority", "mesh8", "perm", 0xa8431be6dc2fd5a5ULL},
    {"id-priority", "mesh8", "sat", 0x41ae6cbf253a73a6ULL},
    {"id-priority", "mesh8", "inject", 0x645590c1d7f379deULL},
    {"id-priority", "torus8", "perm", 0xe48eff309bca1663ULL},
    {"id-priority", "torus8", "sat", 0x7038c164601f1f31ULL},
    {"id-priority", "torus8", "inject", 0x251e01f9e5b48d98ULL},
    {"id-priority", "cube6", "perm", 0xa132312db0729a7bULL},
    {"id-priority", "cube6", "sat", 0xcb7f1196f4d888d7ULL},
    {"id-priority", "cube6", "inject", 0xac6c7a5c35211927ULL},
    {"brassil-cruz", "mesh8", "perm", 0x4f02a6ab36e8a3e8ULL},
    {"brassil-cruz", "mesh8", "sat", 0x4ccd64f7b099deeaULL},
    {"brassil-cruz", "mesh8", "inject", 0xd5a0508eb8e67c3bULL},
    {"brassil-cruz", "torus8", "perm", 0xc51498fc0b391e0eULL},
    {"brassil-cruz", "torus8", "sat", 0xa22f68b6adcbd64fULL},
    {"brassil-cruz", "torus8", "inject", 0x11540d72f391bc29ULL},
    {"single-target", "mesh8", "perm", 0xbcb39f8f4f66afe7ULL},
    {"single-target", "mesh8", "sat", 0xadf313812ed17d8aULL},
    {"single-target", "mesh8", "inject", 0xbaa3a10379162a69ULL},
    {"single-target", "torus8", "perm", 0x4dc972a6f002fe60ULL},
    {"single-target", "torus8", "sat", 0xcfb4c53c9ab0795ULL},
    {"single-target", "torus8", "inject", 0xaf2e81bf1702f1a3ULL},
    {"single-target", "cube6", "perm", 0xa132312db0729a7bULL},
    {"single-target", "cube6", "sat", 0xc391b2dd40d2139bULL},
    {"single-target", "cube6", "inject", 0x88243ea33d47f53fULL},
    {"perverse", "mesh8", "perm", 0x638ae5afdbc59ceULL},
    {"perverse", "mesh8", "sat", 0x922e71f10b9c1af3ULL},
    {"perverse", "mesh8", "inject", 0x1c09918d00774a52ULL},
    {"perverse", "torus8", "perm", 0x64b783bcc48baabfULL},
    {"perverse", "torus8", "sat", 0x7f33ba8e012f728fULL},
    {"perverse", "torus8", "inject", 0x8ab8cf7f75eb2b13ULL},
    {"perverse", "cube6", "perm", 0xa02f0e0b7659a219ULL},
    {"perverse", "cube6", "sat", 0x230c5bac14c04fecULL},
    {"perverse", "cube6", "inject", 0xbb3dd95dae76c3b0ULL},
    {"bounce-back", "mesh8", "perm", 0x7480ad89c7536ab4ULL},
    {"bounce-back", "mesh8", "sat", 0x4bd46c352d6ada3fULL},
    {"bounce-back", "mesh8", "inject", 0x5e83828c27f5c659ULL},
    {"bounce-back", "torus8", "perm", 0x5822a14f7163c622ULL},
    {"bounce-back", "torus8", "sat", 0x6eae6133dbe209f0ULL},
    {"bounce-back", "torus8", "inject", 0x245aedcb27c054bdULL},
    {"bounce-back", "cube6", "perm", 0x19d4b9dbb4d39714ULL},
    {"bounce-back", "cube6", "sat", 0xab90f1bc8b190ab3ULL},
    {"bounce-back", "cube6", "inject", 0x103238606ee5441ULL},
    {"hajek-hypercube", "cube6", "perm", 0xa132312db0729a7bULL},
    {"hajek-hypercube", "cube6", "sat", 0xcb7f1196f4d888d7ULL},
    {"hajek-hypercube", "cube6", "inject", 0xac6c7a5c35211927ULL},
    {"restricted", "mesh16", "perm", 0xa98d545876dfb039ULL},
    {"restricted", "mesh16", "sat", 0x68f66f5d8f1d087cULL},
    {"restricted-random", "mesh16", "perm", 0x934baaca0d85ccabULL},
    {"restricted-random", "mesh16", "sat", 0x982decb8550790b2ULL},
    {"greedy-random", "mesh16", "perm", 0x934baaca0d85ccabULL},
    {"greedy-random", "mesh16", "sat", 0x6ccf638891a534f7ULL},
};

class Trajectory : public ::testing::TestWithParam<Row> {};

TEST_P(Trajectory, DigestIsPinnedAtOneAndFourThreads) {
  const Row& row = GetParam();
  for (int threads : {1, 4}) {
    const Outcome got = run_row(row, threads);
    EXPECT_GT(got.assignments, 0u);
    // BounceBack livelocks almost every packet it is given.
    if (std::string(row.policy) != "bounce-back") {
      EXPECT_GT(got.arrivals, 0u);
    }
    EXPECT_EQ(got.digest, row.digest)
        << "threads=" << threads << " pin: {\"" << row.policy << "\", \""
        << row.topology << "\", \"" << row.workload << "\", 0x" << std::hex
        << got.digest << "ULL},";
  }
}

// --- reference-model oracle (reference_engine.hpp) ------------------------

/// Copies the record of the engine's last step.
class StepCapture : public sim::StepObserver {
 public:
  void on_step(const sim::Engine& /*engine*/,
               const sim::StepRecord& r) override {
    last.step = r.step;
    last.assignments.assign(r.assignments.begin(), r.assignments.end());
    last.arrivals.assign(r.arrivals.begin(), r.arrivals.end());
    last.in_flight_after = r.in_flight_after;
  }

  test::ReferenceEngine::Step last;
};

bool same(const sim::Assignment& a, const sim::Assignment& b) {
  return a.pkt == b.pkt && a.node == b.node && a.good_mask == b.good_mask &&
         a.out == b.out && a.prev_advanced == b.prev_advanced &&
         a.prev_num_good == b.prev_num_good;
}

bool same(const sim::Packet& a, const sim::Packet& b) {
  return a.id == b.id && a.src == b.src && a.dst == b.dst && a.pos == b.pos &&
         a.last_move_dir == b.last_move_dir &&
         a.prev_advanced == b.prev_advanced &&
         a.prev_num_good == b.prev_num_good && a.injected_at == b.injected_at &&
         a.arrived_at == b.arrived_at && a.deflections == b.deflections &&
         a.initial_distance == b.initial_distance;
}

/// The first difference between two step records, or "" if none.
std::string first_difference(const test::ReferenceEngine::Step& want,
                             const test::ReferenceEngine::Step& got) {
  if (want.step != got.step) return "step clock";
  if (want.assignments.size() != got.assignments.size()) {
    return "assignment count";
  }
  for (std::size_t i = 0; i < want.assignments.size(); ++i) {
    if (!same(want.assignments[i], got.assignments[i])) {
      return "assignment " + std::to_string(i) + " (packet " +
             std::to_string(want.assignments[i].pkt) + ")";
    }
  }
  if (want.arrivals.size() != got.arrivals.size()) return "arrival count";
  for (std::size_t i = 0; i < want.arrivals.size(); ++i) {
    if (!same(want.arrivals[i], got.arrivals[i])) {
      return "arrival " + std::to_string(i) + " (packet " +
             std::to_string(want.arrivals[i].id) + ")";
    }
  }
  if (want.in_flight_after != got.in_flight_after) return "in-flight count";
  return "";
}

sim::StepRecord as_record(const test::ReferenceEngine::Step& s) {
  sim::StepRecord r;
  r.step = s.step;
  r.assignments = s.assignments;
  r.arrivals = s.arrivals;
  r.in_flight_after = s.in_flight_after;
  return r;
}

/// Runs the engine and the reference model side by side for `steps` steps
/// (Bernoulli arrivals at `rate` when rate > 0) and fails on the first
/// step whose records differ. Returns the injections both refused.
std::uint64_t expect_lockstep(const net::Network& network, const char* policy,
                              const workload::Problem& problem, double rate,
                              std::uint64_t steps, int threads) {
  SCOPED_TRACE(std::string(policy) + " on " + network.name() + ", threads " +
               std::to_string(threads));
  const auto engine_policy = make_policy(policy, network);
  const auto model_policy = make_policy(policy, network);
  sim::EngineConfig config;
  config.seed = 23;
  config.num_threads = threads;
  config.detect_livelock = false;
  sim::Engine engine(network, problem, *engine_policy, config);
  test::ReferenceEngine model(network, problem, *model_policy, config.seed);
  sim::BernoulliInjector injector(rate, 31);
  if (rate > 0) {
    engine.set_injector(&injector);
    model.set_injection(rate, 31);
  }
  StepCapture got;
  engine.add_observer(&got);
  test::ReferenceEngine::Step want;
  while (engine.now() < steps) {
    const bool stepped = engine.step();
    EXPECT_EQ(model.step(want), stepped);
    if (!stepped) break;
    const std::string diff = first_difference(want, got.last);
    if (!diff.empty()) {
      ADD_FAILURE() << "engine and reference model differ at step "
                    << want.step << ": " << diff;
      break;
    }
  }
  EXPECT_EQ(model.refused(), injector.offered() - injector.admitted());
  return model.refused();
}

TEST_P(Trajectory, ReferenceModelReproducesThePin) {
  const Row& row = GetParam();
  const auto network = make_topology(row.topology);
  const auto policy = make_policy(row.policy, *network);
  const bool inject = std::string(row.workload) == "inject";
  test::ReferenceEngine model(*network, row_problem(row, *network), *policy,
                              23);
  if (inject) model.set_injection(kInjectRate, 31);
  TrajectoryHasher hasher;
  test::ReferenceEngine::Step step;
  const std::uint64_t cap = inject ? kInjectSteps : kBatchSteps;
  while (model.now() < cap && model.step(step)) hasher.add(as_record(step));
  EXPECT_EQ(hasher.digest(), row.digest);
}

TEST_P(Trajectory, EngineMatchesReferenceModelStepByStep) {
  const Row& row = GetParam();
  const auto network = make_topology(row.topology);
  const bool inject = std::string(row.workload) == "inject";
  for (const int threads : {1, 2, 4, 8}) {
    expect_lockstep(*network, row.policy, row_problem(row, *network),
                    inject ? kInjectRate : 0.0,
                    inject ? kInjectSteps : kBatchSteps, threads);
  }
}

TEST(ReferenceModel, RefusedInjectionsAgreeAtRateNinetyPercent) {
  // At rate 0.9 on the 8×8 mesh nodes fill to their degree, so the
  // capacity rule refuses arrivals; both sides must refuse the same ones.
  net::Mesh mesh(2, 8);
  for (const int threads : {1, 2, 4, 8}) {
    EXPECT_GT(expect_lockstep(mesh, "restricted", {}, 0.9, 60, threads), 0u);
  }
}

TEST(ReferenceModel, ShardedOccupancyAgrees) {
  // 2304 nodes make nine occupancy owners, and ~9000 saturated packets
  // cross every parallel cutoff: the owner-range occupancy pass, route and
  // move. At 12 threads the occupancy tasks are capped at the nine owners.
  net::Mesh mesh(2, 48);
  Rng rng(5);
  const workload::Problem saturated = workload::saturated_random(mesh, 4, rng);
  for (const int threads : {1, 2, 4, 8, 12}) {
    expect_lockstep(mesh, "greedy-random", saturated, 0.0, 25, threads);
    expect_lockstep(mesh, "restricted", {}, 0.3, 25, threads);
  }
  // 1024 nodes make four owners on a network that is not a mesh.
  net::Hypercube cube(10);
  const workload::Problem cube_saturated =
      workload::saturated_random(cube, 8, rng);
  for (const int threads : {1, 2, 4, 8}) {
    expect_lockstep(cube, "greedy-random", cube_saturated, 0.0, 25, threads);
  }
  // 2500 nodes make nine owners that do not divide the node count, so
  // owner ranges differ in length and their bounds must round up.
  net::Mesh torus(2, 50, true);
  const workload::Problem torus_saturated =
      workload::saturated_random(torus, 4, rng);
  for (const int threads : {1, 2, 4, 8}) {
    expect_lockstep(torus, "restricted", torus_saturated, 0.0, 25, threads);
  }
}

std::string row_name(const ::testing::TestParamInfo<Row>& info) {
  std::string name = std::string(info.param.policy) + "_" +
                     info.param.topology + "_" + info.param.workload;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, Trajectory, ::testing::ValuesIn(kRows),
                         row_name);

}  // namespace
}  // namespace hp

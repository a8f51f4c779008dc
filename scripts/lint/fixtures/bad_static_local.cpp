// Fixture: mutable function-local statics in policy code. Hidden cross-call
// state makes a node's routing decision depend on global execution history,
// breaking both replayability and the sharded-routing purity argument.
// Expected findings: static-local (x3).
#include <cstdint>

namespace fixture {

inline int next_tiebreak() {
  // BAD: mutates across calls; order of calls differs across shardings.
  static int counter = 0;
  return counter++;
}

inline std::uint64_t remembered_step() {
  // BAD: same problem, thread_local flavor.
  static thread_local std::uint64_t last_step = 0;
  return ++last_step;
}

// BAD: the same, with the static on the function's opening line.
inline int one_line_counter() { static int z = 0; return ++z; }

// OK: immutable statics carry no cross-call state.
inline int table_lookup(int i) {
  static constexpr int kTable[4] = {1, 2, 3, 4};
  return kTable[i & 3];
}
inline int one_line_lookup() { static constexpr int kV = 3; return kV; }

// OK: a static member function declared on one line is no local.
struct Helper { static int twice(int v) { return 2 * v; } };

}  // namespace fixture

#include "util/lib.hpp"

namespace hp {
namespace detail {
void fail_if(bool bad) {
  if (bad) throw bad;
}
}  // namespace detail

int shipped_helper(int x) { return x + 1; }

int report_stat() { return 7; }

int paper_bound(int d) { return 4 * d; }
}  // namespace hp

#include "util/lib.hpp"

namespace {
// Not called by main: still shipped code, so what it reaches is shipped.
int print_report() { return hp::report_stat(); }
}  // namespace

int main() {
  LIB_CHECK(false);
  return hp::shipped_helper(0);
}

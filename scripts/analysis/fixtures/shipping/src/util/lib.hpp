// Shipping-gate fixture: a miniature src/ whose functions are reached by a
// shipped binary in every way the gate must see, plus one test-only one.
#pragma once

#define LIB_CHECK(bad) \
  ::hp::detail::fail_if(bad)

namespace hp {
namespace detail {
void fail_if(bool bad);  // reached only through the LIB_CHECK body
}  // namespace detail

class Vec {
 public:
  explicit Vec(int n) : n_(n) {}  // constructor: reached, never named
  ~Vec() { n_ = 0; }
  int operator[](int i) const { return i < n_ ? i : 0; }  // operator

 private:
  int n_;
};

int shipped_helper(int x);
int report_stat();
int paper_bound(int d);  // allowlisted paper artifact
}  // namespace hp

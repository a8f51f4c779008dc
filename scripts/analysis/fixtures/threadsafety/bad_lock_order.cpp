// Fixture: two mutexes with a declared acquisition order, locked in the
// WRONG order (the classic AB/BA deadlock shape). Must FAIL to compile
// under -Wthread-safety-beta -Werror (acquired_before/after checking lives
// behind the beta flag) with a "must be acquired" ordering diagnostic.
#include "sync.hpp"
#include "util/thread_annotations.hpp"

namespace {

class TwoLocks {
 public:
  void wrong_order() {
    b_mu_.lock();
    a_mu_.lock();  // BAD: a_mu_ is declared acquired_before b_mu_
    ++both_;
    a_mu_.unlock();
    b_mu_.unlock();
  }

 private:
  hp::util::Mutex a_mu_ HP_ACQUIRED_BEFORE(b_mu_);
  hp::util::Mutex b_mu_;
  int both_ HP_GUARDED_BY(a_mu_) HP_GUARDED_BY(b_mu_) = 0;
};

}  // namespace

int fixture_entry() {
  TwoLocks t;
  t.wrong_order();
  return 0;
}

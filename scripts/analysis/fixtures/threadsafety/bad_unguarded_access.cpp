// Fixture: a guarded member read WITHOUT holding its mutex — what the
// engine would look like if a maintainer dropped a MutexLock (or, dually,
// what goes uncaught if the HP_GUARDED_BY annotation is removed). Must FAIL
// to compile under -Wthread-safety -Werror with a
// "requires holding mutex 'mu_'" diagnostic.
#include "sync.hpp"
#include "util/thread_annotations.hpp"

namespace {

class Pool {
 public:
  void bump() HP_EXCLUDES(mu_) {
    hp::util::MutexLock lock(&mu_);
    ++epoch_;
  }

  unsigned long racy_read() {
    return epoch_;  // BAD: no lock held
  }

 private:
  hp::util::Mutex mu_;
  unsigned long epoch_ HP_GUARDED_BY(mu_) = 0;
};

}  // namespace

int fixture_entry() {
  Pool pool;
  pool.bump();
  return static_cast<int>(pool.racy_read());
}

// Fixture: the engine's pool discipline in miniature — scoped MutexLock,
// guarded members, condition_variable_any waiting on the annotated Mutex,
// explicit wait loops. Must compile CLEAN under
//   clang++ -fsyntax-only -Wthread-safety -Wthread-safety-beta -Werror
// (compile-only fixture; never executed).
#include <condition_variable>

#include "sync.hpp"
#include "util/thread_annotations.hpp"

namespace {

class Pool {
 public:
  void publish_epoch(int shards) HP_EXCLUDES(mu_) {
    hp::util::MutexLock lock(&mu_);
    pending_ = shards;
    ++epoch_;
    cv_.notify_all();
    while (pending_ != 0) {
      cv_.wait(mu_);
    }
  }

  void finish_one() HP_EXCLUDES(mu_) {
    hp::util::MutexLock lock(&mu_);
    if (--pending_ == 0) {
      cv_.notify_all();
    }
  }

  unsigned long epoch() HP_EXCLUDES(mu_) {
    hp::util::MutexLock lock(&mu_);
    return epoch_;
  }

 private:
  hp::util::Mutex mu_;
  std::condition_variable_any cv_;
  unsigned long epoch_ HP_GUARDED_BY(mu_) = 0;
  int pending_ HP_GUARDED_BY(mu_) = 0;
};

}  // namespace

int fixture_entry() {
  Pool pool;
  pool.finish_one();
  return static_cast<int>(pool.epoch());
}

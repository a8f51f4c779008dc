// Clang thread-safety (capability) annotations, HP_-prefixed.
//
// These expand to Clang's attributes when compiling with a compiler that
// understands them and to nothing otherwise (gcc builds are unaffected).
// Together with the annotated util::Mutex wrapper of the thread-safety
// fixtures (scripts/analysis/fixtures/threadsafety/sync.hpp) they turn
// `clang++ -Wthread-safety -Werror` into a *static* race detector over the
// sharded engine's pool state — the compile-time counterpart of the TSan CI
// job, in the same way the determinism lint is the compile-time counterpart
// of the golden-fingerprint tests. The macro set and spellings follow the
// Clang Thread Safety Analysis documentation; HP_ACQUIRED_BEFORE/AFTER
// additionally need -Wthread-safety-beta to be enforced.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define HP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HP_THREAD_ANNOTATION(x)  // no-op
#endif

#define HP_CAPABILITY(x) HP_THREAD_ANNOTATION(capability(x))
#define HP_SCOPED_CAPABILITY HP_THREAD_ANNOTATION(scoped_lockable)

#define HP_GUARDED_BY(x) HP_THREAD_ANNOTATION(guarded_by(x))
#define HP_PT_GUARDED_BY(x) HP_THREAD_ANNOTATION(pt_guarded_by(x))

#define HP_ACQUIRED_BEFORE(...) \
  HP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define HP_ACQUIRED_AFTER(...) \
  HP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define HP_REQUIRES(...) \
  HP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define HP_ACQUIRE(...) \
  HP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define HP_RELEASE(...) \
  HP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define HP_TRY_ACQUIRE(...) \
  HP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define HP_EXCLUDES(...) HP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define HP_RETURN_CAPABILITY(x) HP_THREAD_ANNOTATION(lock_returned(x))
#define HP_NO_THREAD_SAFETY_ANALYSIS \
  HP_THREAD_ANNOTATION(no_thread_safety_analysis)

// Marker for the phase-effects analyzer (scripts/analysis/phase_effects.py):
// placed on — or directly above — a statement in a *parallel* phase that
// writes state the analyzer cannot prove owner-derived. The reason string is
// mandatory and explains why the write is nonetheless safe (e.g. a barrier
// ticket hands the slot exactly one owner). Compiles to nothing; the
// statement form keeps it legal anywhere a statement is.
#define HP_SHARED_WRITE(reason) static_assert(true, "")

#ifndef PUFFER_UTIL_THREAD_ANNOTATIONS_HH
#define PUFFER_UTIL_THREAD_ANNOTATIONS_HH

/// Thread-safety annotations, following the clang -Wthread-safety attribute
/// vocabulary (the same scheme Abseil ships). Under clang the macros expand
/// to real attributes and the CI clang job compiles with
/// `-Wthread-safety -Werror`, turning lock-discipline violations into build
/// failures; under GCC (which has no such analysis) they expand to nothing.
///
/// Two extra macros are documentation-only under every compiler and exist
/// for the determinism linter (tools/detlint, rule R6 `unannotated-sync`),
/// which requires every mutex/atomic member to state its protocol:
///
///   GUARDS(...)       on a mutex member: the fields this mutex protects.
///                     (The inverse of GUARDED_BY; clang needs only the
///                     per-field direction, humans read better this way.)
///   ATOMIC_SAFE(...)  on a std::atomic member: why lock-free access keeps
///                     the bitwise-determinism contract (e.g. monotonic
///                     flag whose release pairs with an acquire).
///
/// Use util::Mutex / util::MutexLock (util/sync.hh) rather
/// than std::mutex directly: the std:: types carry no attributes in
/// libstdc++, so clang cannot see their acquire/release and every
/// GUARDED_BY access would falsely warn.

#if defined(__clang__) && !defined(SWIG)
#define PUFFER_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PUFFER_THREAD_ANNOTATION(x)
#endif

#define CAPABILITY(x) PUFFER_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY PUFFER_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) PUFFER_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) PUFFER_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) PUFFER_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) PUFFER_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) PUFFER_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  PUFFER_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) PUFFER_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) PUFFER_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define EXCLUDES(...) PUFFER_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) PUFFER_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  PUFFER_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Documentation-only (see header comment): consumed by detlint R6, empty
/// under every compiler.
#define GUARDS(...)
#define ATOMIC_SAFE(...)

#endif  // PUFFER_UTIL_THREAD_ANNOTATIONS_HH

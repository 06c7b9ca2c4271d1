// Portable Clang Thread Safety Analysis annotations.
//
// The concurrent core (iblt::ParamCache, obs::Registry / TraceSink /
// FlightRecorder, daemon::RelayDaemon's intake queue,
// testkit::FaultyChannel) documents its lock discipline with these macros;
// clang's -Wthread-safety then proves at compile time that every access to
// a GUARDED_BY member happens with the named capability held. GCC and MSVC
// see empty macros, so the annotations cost nothing outside the clang CI
// legs (which build with -Wthread-safety -Werror — see
// docs/STATIC_ANALYSIS.md).
//
// The macro set mirrors the standard names from the clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Annotate with the
// uppercase macros; never spell the underlying attributes directly — the
// macros are the single portability seam.
//
// std::mutex / std::shared_mutex are NOT annotated types, so the analysis
// cannot see their acquire/release through std::lock_guard /
// std::unique_lock. util/sync.hpp provides the thin annotated wrappers
// (util::Mutex, util::SharedMutex, util::MutexLock, ...) that the codebase
// uses instead.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define GRAPHENE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GRAPHENE_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a type as a capability ("mutex", "shared_mutex", ...).
#define CAPABILITY(x) GRAPHENE_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose lifetime equals a capability hold.
#define SCOPED_CAPABILITY GRAPHENE_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with the capability held.
#define GUARDED_BY(x) GRAPHENE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the capability.
#define PT_GUARDED_BY(x) GRAPHENE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering: this capability must be acquired before / after others.
#define ACQUIRED_BEFORE(...) GRAPHENE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) GRAPHENE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function requires the capability held (exclusively / shared) on entry.
#define REQUIRES(...) GRAPHENE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  GRAPHENE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define ACQUIRE(...) GRAPHENE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) GRAPHENE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (held on entry).
#define RELEASE(...) GRAPHENE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) GRAPHENE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) GRAPHENE_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// Function acquires the capability only when returning `ret`.
#define TRY_ACQUIRE(...) GRAPHENE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  GRAPHENE_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard).
#define EXCLUDES(...) GRAPHENE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function asserts the capability is already held (runtime-checked lock).
#define ASSERT_CAPABILITY(x) GRAPHENE_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) GRAPHENE_THREAD_ANNOTATION(assert_shared_capability(x))

/// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) GRAPHENE_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot model; every use needs a
/// justification comment — keep these as rare as tidy suppressions (which
/// tools/lint.py holds to the same standard).
#define NO_THREAD_SAFETY_ANALYSIS GRAPHENE_THREAD_ANNOTATION(no_thread_safety_analysis)

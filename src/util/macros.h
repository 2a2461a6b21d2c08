#ifndef DATABLOCKS_UTIL_MACROS_H_
#define DATABLOCKS_UTIL_MACROS_H_

#include <cstdio>
#include <cstdlib>

/// Internal invariant check. Active in all build types: the library is a
/// research artifact and silent corruption is worse than an abort.
#define DB_CHECK(cond)                                                      \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "DB_CHECK failed: %s at %s:%d\n", #cond,         \
                   __FILE__, __LINE__);                                     \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

/// Debug-only check for hot paths.
#ifdef NDEBUG
#define DB_DCHECK(cond) ((void)0)
#else
#define DB_DCHECK(cond) DB_CHECK(cond)
#endif

/// 1 in AddressSanitizer builds (GCC defines __SANITIZE_ADDRESS__, Clang
/// answers __has_feature), else 0.
#if defined(__SANITIZE_ADDRESS__)
#define DB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DB_ASAN 1
#endif
#endif
#ifndef DB_ASAN
#define DB_ASAN 0
#endif

#endif  // DATABLOCKS_UTIL_MACROS_H_

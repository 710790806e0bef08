#ifndef MBTA_OBS_THREADING_H_
#define MBTA_OBS_THREADING_H_

/// Compile-time thread-safety switch for the obs registries.
///
/// By default (MBTA_OBS_THREADSAFE undefined/0) CounterRegistry and
/// PhaseTimings are plain single-threaded objects with zero locking
/// overhead — the hot-path contract in CONTRIBUTING.md stays intact.
/// Configuring with -DMBTA_OBS_THREADSAFE=ON gives both an internal
/// mbta::Mutex so N threads may publish into one registry concurrently
/// (e.g. a cancellation watchdog next to the solve); scripts/check.sh
/// exercises that mode under -DMBTA_SANITIZE=thread.
///
/// The MBTA_OBS_* macros below compile away entirely in the default
/// mode, so annotated members and locked scopes cost nothing there.

#if MBTA_OBS_THREADSAFE

#include "util/thread_annotations.h"

#define MBTA_OBS_GUARDED_BY(x) MBTA_GUARDED_BY(x)
#define MBTA_OBS_NO_TSA MBTA_NO_THREAD_SAFETY_ANALYSIS
/// Declares a scoped lock on `mu` for the rest of the enclosing block.
#define MBTA_OBS_LOCK(mu) ::mbta::MutexLock mbta_obs_scoped_lock(&(mu))

#else

#define MBTA_OBS_GUARDED_BY(x)
#define MBTA_OBS_NO_TSA
#define MBTA_OBS_LOCK(mu) ((void)0)

#endif  // MBTA_OBS_THREADSAFE

#endif  // MBTA_OBS_THREADING_H_

/// Allocation-counting hook asserting the arena-scratch contract from
/// CONTRIBUTING.md ("Memory & allocation"): after a warm-up solve has
/// sized the solver's ScratchPool pages, every further Solve on the same
/// solver performs no heap allocation beyond the returned Assignment's
/// edge vector. The global operator new/delete overrides below apply to
/// this whole test binary, so the test lives alone in its own file.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "core/problem.h"
#include "tests/test_markets.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

// Replaceable global allocation functions, counting every heap
// acquisition. Frees are not counted: the contract under test is about
// acquiring memory in the hot path.
// [[gnu::noinline]] on all twelve keeps GCC from inlining a replaced
// new into its caller and then pairing that malloc with a (sized or
// array) delete it cannot see through, which -Wmismatched-new-delete
// reports as a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mbta {
namespace {

class WarmSolveAllocationTest
    : public ::testing::TestWithParam<GreedySolver::Mode> {};

TEST_P(WarmSolveAllocationTest, WarmSolveOnlyAllocatesTheResult) {
  Rng rng(5);
  const LaborMarket market = RandomTestMarket(rng, 40, 40, 0.5);
  const MbtaProblem problem{&market,
                            {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const GreedySolver solver(GetParam());

  // Cold solve: the scratch arena acquires its pages from the heap.
  const std::uint64_t before_cold = g_new_calls.load();
  const Assignment cold = solver.Solve(problem);
  ASSERT_FALSE(cold.empty()) << "test market too sparse to exercise a solve";
  EXPECT_GT(g_new_calls.load(), before_cold)
      << "the counting hook is not engaged";

  // One more warm-up in case the first solve left any lazily-grown page
  // partially sized.
  const Assignment warmup = solver.Solve(problem);
  ASSERT_EQ(warmup.edges, cold.edges);

  // Warm solve: the only permitted allocation is the returned
  // Assignment's edge vector (a single reserve in ToAssignment) — the
  // solver's own state must come entirely from the reused arena.
  const std::uint64_t before_warm = g_new_calls.load();
  const Assignment warm = solver.Solve(problem);
  const std::uint64_t warm_allocs = g_new_calls.load() - before_warm;
  ASSERT_EQ(warm.edges, cold.edges);
  EXPECT_EQ(warm_allocs, 1u)
      << "a warm Solve must be heap-allocation-free apart from the result";
}

INSTANTIATE_TEST_SUITE_P(Modes, WarmSolveAllocationTest,
                         ::testing::Values(GreedySolver::Mode::kLazy,
                                           GreedySolver::Mode::kPlain),
                         [](const auto& info) {
                           return info.param == GreedySolver::Mode::kLazy
                                      ? "Lazy"
                                      : "Plain";
                         });

}  // namespace
}  // namespace mbta

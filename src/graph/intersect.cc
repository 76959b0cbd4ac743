// SIMD intersection kernels + runtime dispatch for graph/intersect.h.
//
// Kernel scheme (Schlegel/Katsogridakis-style block compare, adapted to the
// 8-byte {nbr, slot} entry layout): load W entries from each block,
// deinterleave the nbr lanes with a fixed shuffle, compare the A keys
// against all W rotations of the B keys, then advance whichever block's
// maximum is smaller. Every key pair within the two blocks is compared, and
// a block is only discarded once the other block's remaining keys are
// provably larger, so no match is missed; matched A lanes are emitted in
// lane order (= ascending key order), preserving the emission contract of
// intersect.h. Distinct sorted keys guarantee no lane matches twice.
//
// Two widths: SSE2 (4x4, the x86-64 baseline — no runtime check needed)
// and AVX2 (8x8, selected by CPUID at static init). Both fall through to a
// scalar two-pointer tail for the sub-block remainders.

#include "graph/intersect.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if GPS_INTERSECT_X86
#include <immintrin.h>
#endif

namespace gps {
namespace intersect_detail {
namespace {

#if GPS_INTERSECT_X86

/// Scalar two-pointer tail shared by the vector kernels: finishes the
/// intersection from positions (i, j), emitting through the kernel's
/// callback. Returns matches; adds its comparisons to *steps.
size_t ScalarTailEmit(const AdjEntry* a, size_t na, const AdjEntry* b,
                      size_t nb, size_t i, size_t j, EmitFn fn, void* ctx,
                      uint64_t* steps) {
  size_t matches = 0;
  uint64_t local = 0;
  while (i < na && j < nb) {
    ++local;
    const NodeId x = a[i].nbr;
    const NodeId y = b[j].nbr;
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      fn(ctx, x, a[i].slot, b[j].slot);
      ++matches;
      ++i;
      ++j;
    }
  }
  *steps += local;
  return matches;
}

size_t ScalarTailCount(const AdjEntry* a, size_t na, const AdjEntry* b,
                       size_t nb, size_t i, size_t j, uint64_t* steps) {
  size_t matches = 0;
  uint64_t local = 0;
  while (i < na && j < nb) {
    ++local;
    const NodeId x = a[i].nbr;
    const NodeId y = b[j].nbr;
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      ++matches;
      ++i;
      ++j;
    }
  }
  *steps += local;
  return matches;
}

/// Deinterleaves the nbr lanes of 4 consecutive AdjEntries starting at p:
/// [n0 s0 n1 s1][n2 s2 n3 s3] -> [n0 n1 n2 n3].
inline __m128i LoadKeys4(const AdjEntry* p) {
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 2));
  return _mm_castps_si128(_mm_shuffle_ps(_mm_castsi128_ps(lo),
                                         _mm_castsi128_ps(hi),
                                         _MM_SHUFFLE(2, 0, 2, 0)));
}

/// All-pairs 4x4 equality: a bit per A lane that matched any B lane.
inline int MatchMask4(__m128i va, __m128i vb) {
  __m128i m = _mm_cmpeq_epi32(va, vb);
  m = _mm_or_si128(
      m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
  m = _mm_or_si128(
      m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
  m = _mm_or_si128(
      m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
  return _mm_movemask_ps(_mm_castsi128_ps(m));
}

size_t SimdEmitSse2(const AdjEntry* a, size_t na, const AdjEntry* b,
                    size_t nb, EmitFn fn, void* ctx, uint64_t* steps) {
  size_t i = 0, j = 0, matches = 0;
  uint64_t local = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va = LoadKeys4(a + i);
    const __m128i vb = LoadKeys4(b + j);
    int mask = MatchMask4(va, vb);
    local += 4;  // four 4-wide compares ~ four scalar-equivalent steps
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      const NodeId key = a[i + static_cast<size_t>(lane)].nbr;
      for (size_t t = 0; t < 4; ++t) {
        if (b[j + t].nbr == key) {
          fn(ctx, key, a[i + static_cast<size_t>(lane)].slot, b[j + t].slot);
          ++matches;
          break;
        }
      }
    }
    const NodeId amax = a[i + 3].nbr;
    const NodeId bmax = b[j + 3].nbr;
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  *steps += local;
  return matches + ScalarTailEmit(a, na, b, nb, i, j, fn, ctx, steps);
}

size_t SimdCountSse2(const AdjEntry* a, size_t na, const AdjEntry* b,
                     size_t nb, uint64_t* steps) {
  size_t i = 0, j = 0, matches = 0;
  uint64_t local = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va = LoadKeys4(a + i);
    const __m128i vb = LoadKeys4(b + j);
    matches += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(MatchMask4(va, vb))));
    local += 4;
    const NodeId amax = a[i + 3].nbr;
    const NodeId bmax = b[j + 3].nbr;
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  *steps += local;
  return matches + ScalarTailCount(a, na, b, nb, i, j, steps);
}

/// Deinterleaves the nbr lanes of 8 consecutive AdjEntries:
/// shuffle_ps picks lanes [n0 n1 n4 n5 | n2 n3 n6 n7] (per 128-bit half),
/// the 64-bit permute restores ascending order.
__attribute__((target("avx2"))) inline __m256i LoadKeys8(const AdjEntry* p) {
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
  const __m256 packed = _mm256_shuffle_ps(_mm256_castsi256_ps(lo),
                                          _mm256_castsi256_ps(hi),
                                          _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_permute4x64_epi64(_mm256_castps_si256(packed),
                                  _MM_SHUFFLE(3, 1, 2, 0));
}

/// All-pairs 8x8 equality via 7 cyclic rotations of the B keys.
__attribute__((target("avx2"))) inline int MatchMask8(__m256i va,
                                                      __m256i vb) {
  __m256i m = _mm256_cmpeq_epi32(va, vb);
  __m256i rot = vb;
  const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  for (int r = 1; r < 8; ++r) {
    rot = _mm256_permutevar8x32_epi32(rot, rotate1);
    m = _mm256_or_si256(m, _mm256_cmpeq_epi32(va, rot));
  }
  return _mm256_movemask_ps(_mm256_castsi256_ps(m));
}

__attribute__((target("avx2"))) size_t SimdEmitAvx2(
    const AdjEntry* a, size_t na, const AdjEntry* b, size_t nb, EmitFn fn,
    void* ctx, uint64_t* steps) {
  size_t i = 0, j = 0, matches = 0;
  uint64_t local = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va = LoadKeys8(a + i);
    const __m256i vb = LoadKeys8(b + j);
    int mask = MatchMask8(va, vb);
    local += 8;
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      const NodeId key = a[i + static_cast<size_t>(lane)].nbr;
      for (size_t t = 0; t < 8; ++t) {
        if (b[j + t].nbr == key) {
          fn(ctx, key, a[i + static_cast<size_t>(lane)].slot, b[j + t].slot);
          ++matches;
          break;
        }
      }
    }
    const NodeId amax = a[i + 7].nbr;
    const NodeId bmax = b[j + 7].nbr;
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  *steps += local;
  return matches + ScalarTailEmit(a, na, b, nb, i, j, fn, ctx, steps);
}

__attribute__((target("avx2"))) size_t SimdCountAvx2(
    const AdjEntry* a, size_t na, const AdjEntry* b, size_t nb,
    uint64_t* steps) {
  size_t i = 0, j = 0, matches = 0;
  uint64_t local = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va = LoadKeys8(a + i);
    const __m256i vb = LoadKeys8(b + j);
    matches += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(MatchMask8(va, vb))));
    local += 8;
    const NodeId amax = a[i + 7].nbr;
    const NodeId bmax = b[j + 7].nbr;
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  *steps += local;
  return matches + ScalarTailCount(a, na, b, nb, i, j, steps);
}

constexpr SimdOps kSse2Ops = {&SimdEmitSse2, &SimdCountSse2, "sse2"};
constexpr SimdOps kAvx2Ops = {&SimdEmitAvx2, &SimdCountAvx2, "avx2"};

#endif  // GPS_INTERSECT_X86

const SimdOps* ResolveSimdOps() {
#if GPS_INTERSECT_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &kAvx2Ops;
  return &kSse2Ops;  // SSE2 is architectural on x86-64
#else
  return nullptr;
#endif
}

/// Reads GPS_INTERSECT_KERNEL once at startup. Unknown values warn (to
/// stderr, once) and keep adaptive dispatch rather than refusing: kernel
/// choice can never change results, only speed.
uint8_t InitialForcedKernel() {
  const char* env = std::getenv("GPS_INTERSECT_KERNEL");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return static_cast<uint8_t>(IntersectKernel::kAuto);
  }
  if (std::strcmp(env, "merge") == 0) {
    return static_cast<uint8_t>(IntersectKernel::kMerge);
  }
  if (std::strcmp(env, "gallop") == 0) {
    return static_cast<uint8_t>(IntersectKernel::kGallop);
  }
  if (std::strcmp(env, "simd") == 0) {
    return static_cast<uint8_t>(IntersectKernel::kSimd);
  }
  std::fprintf(stderr,
               "warning: GPS_INTERSECT_KERNEL='%s' is not one of "
               "auto|merge|gallop|simd; using adaptive dispatch\n",
               env);
  return static_cast<uint8_t>(IntersectKernel::kAuto);
}

}  // namespace

const SimdOps* const g_simd_ops = ResolveSimdOps();
std::atomic<uint8_t> g_forced_kernel{InitialForcedKernel()};

}  // namespace intersect_detail

const char* IntersectSimdLevel() {
  return intersect_detail::g_simd_ops != nullptr
             ? intersect_detail::g_simd_ops->level
             : "off";
}

const char* IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kAuto:
      return "auto";
    case IntersectKernel::kMerge:
      return "merge";
    case IntersectKernel::kGallop:
      return "gallop";
    case IntersectKernel::kSimd:
      return "simd";
  }
  return "auto";
}

void SetIntersectKernel(IntersectKernel kernel) {
  intersect_detail::g_forced_kernel.store(static_cast<uint8_t>(kernel),
                                          std::memory_order_relaxed);
}

size_t IntersectCountSorted(const AdjEntry* a, size_t na, const AdjEntry* b,
                            size_t nb, IntersectMetrics* metrics) {
  namespace d = intersect_detail;
  if (na == 0 || nb == 0) return 0;
  const IntersectKernel kernel = d::EffectiveKernel(na, nb);
  uint64_t steps = 0;
  size_t matches = 0;
  const auto count_only = [](NodeId, SlotId, SlotId) {};
  switch (kernel) {
    case IntersectKernel::kGallop:
      matches = d::GallopEmit(a, na, b, nb, &steps, count_only);
      break;
    case IntersectKernel::kSimd:
      matches = d::g_simd_ops->count(a, na, b, nb, &steps);
      break;
    default:
      matches = d::MergeEmit(a, na, b, nb, &steps, count_only);
      break;
  }
  d::RecordCall(metrics, kernel, na, nb, steps);
  return matches;
}

}  // namespace gps

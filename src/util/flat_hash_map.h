// Open-addressing hash containers used throughout the sampler hot paths.
//
// The GPS reservoir (Algorithm 1) needs, per arriving edge, the number of
// sampled triangles the edge would complete: |Γ̂(v1) ∩ Γ̂(v2)| (paper
// Section 3.2). That requires a neighbor-set membership query that is fast
// *and* cheap to mutate under eviction churn. std::unordered_map's
// node-based buckets are a poor fit, so we provide a compact linear-probing
// table with power-of-two capacity and max load factor 7/8 before
// tombstone-aware rehash.
//
// Control bytes. Every table position has one control byte beside its
// slot: 0 empty, 1 tombstone, 0x80 | tag when full, where the tag is the
// top 7 bits of the key's hash (the low bits pick the home position). A
// probe compares tags and reads a slot only where the tag matches, so
// walking past other keys' positions costs no slot reads; an absent key
// reads a slot for about 1 in 128 full positions it passes.
//
// Group scan. On x86-64 (SSE2 is its baseline) a probe loads the 16
// control bytes that start at its current position and matches the tag,
// the empties and the non-full bytes with one compare each. A position
// whose 16 bytes would run past the end of the table — one of the last 15,
// or any position of a table smaller than 16 — is probed one byte at a
// time, and so is every position in builds with -DGPS_SIMD=OFF or off
// x86-64. Both walks visit positions in the same order and stop at the
// same empty.
//
// Positions. Iteration order is part of the contract: the com-amazon-sim
// generator writes its edges in FlatHashSet order and SampleView divides
// in FlatHashMap order, so where a key lands must stay a pure function of
// its hash and the operation sequence. A key's home is hash & (capacity-1);
// it probes linearly from there, an insert takes the first tombstone before
// the first empty (else that empty), Insert() grows or rehashes first when
// live + tombstones would reach 7/8 (doubling, or the same size when
// tombstones dominate), and a rehash re-inserts in old position order.
// Tags and group scans change how fast a probe gets there, never where a
// key lands. Every operation probes once.
//
// The containers intentionally support only what the code base needs:
// trivially-copyable-ish keys with user-provided hash, insert/find/erase,
// iteration, reserve, clear. Iterators are invalidated by rehash.

#ifndef GPS_UTIL_FLAT_HASH_MAP_H_
#define GPS_UTIL_FLAT_HASH_MAP_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

// -DGPS_SIMD=OFF (CMake) defines GPS_SIMD=0: every probe then takes the
// byte-at-a-time walk, as off x86-64.
#ifndef GPS_SIMD
#define GPS_SIMD 1
#endif
#if GPS_SIMD && defined(__x86_64__)
#include <emmintrin.h>
#define GPS_FLAT_HASH_SSE2 1
#else
#define GPS_FLAT_HASH_SSE2 0
#endif

namespace gps {

/// Default hash: identity-strength mixing for integer keys.
/// std::hash for integers is the identity on libstdc++, which interacts
/// badly with power-of-two capacity tables; we always finalize with a
/// Fibonacci/murmur-style mixer.
struct MixHash {
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }
  size_t operator()(uint64_t key) const {
    return static_cast<size_t>(Mix(key));
  }
  size_t operator()(uint32_t key) const {
    return static_cast<size_t>(Mix(key));
  }
  size_t operator()(int key) const {
    return static_cast<size_t>(Mix(static_cast<uint64_t>(key)));
  }
};

/// Flat open-addressing hash map with linear probing.
template <typename K, typename V, typename Hash = MixHash>
class FlatHashMap {
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kTombstone = 1;
  static constexpr uint8_t kFullBit = 0x80;
  static constexpr size_t kNoPosition = SIZE_MAX;
#if GPS_FLAT_HASH_SSE2
  static constexpr size_t kGroupWidth = 16;

  /// The kGroupWidth control bytes from one position; each mask has bit i
  /// set for the byte at that position + i.
  class Group {
   public:
    explicit Group(const uint8_t* ctrl)
        : bytes_(_mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl))) {}
    uint32_t Match(uint8_t byte) const {
      return static_cast<uint32_t>(_mm_movemask_epi8(
          _mm_cmpeq_epi8(bytes_, _mm_set1_epi8(static_cast<char>(byte)))));
    }
    uint32_t NonFull() const {
      return ~static_cast<uint32_t>(_mm_movemask_epi8(bytes_)) & 0xffffu;
    }

   private:
    __m128i bytes_;
  };
#endif

  struct Slot {
    K key;
    V value;
  };

 public:
  using value_type = std::pair<const K&, V&>;

  FlatHashMap() = default;

  explicit FlatHashMap(size_t initial_capacity) {
    Rehash(NormalizeCapacity(initial_capacity));
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return ctrl_.size(); }

  /// Removes all elements, keeping capacity.
  void clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
    size_ = 0;
    used_ = 0;
  }

  /// Ensures capacity for at least n elements without rehash.
  void reserve(size_t n) {
    size_t needed = NormalizeCapacity(n + n / 7 + 1);
    if (needed > ctrl_.size()) Rehash(needed);
  }

  /// Inserts (key, value) if absent. Returns pointer to the stored value and
  /// whether insertion happened. The table grows first when it is at its
  /// load cap, even if key is present.
  std::pair<V*, bool> Insert(const K& key, V value) {
    MaybeGrow();
    const size_t hash = hash_(key);
    const auto [idx, found] = Probe<true>(key, hash);
    if (found) return {&slots_[idx].value, false};
    V* stored = Claim(idx, hash, key);
    *stored = std::move(value);
    return {stored, true};
  }

  /// Returns the value for key and whether it was inserted (as V{}). Unlike
  /// Insert, the table grows only when key is absent: the same table as
  /// Find followed, on a miss, by Insert, in one probe.
  std::pair<V*, bool> FindOrInsert(const K& key) {
    const size_t hash = hash_(key);
    size_t idx = kNoPosition;
    if (!ctrl_.empty()) {
      const auto [pos, found] = Probe<true>(key, hash);
      if (found) return {&slots_[pos].value, false};
      idx = pos;
    }
    if (MaybeGrow()) idx = FirstNonFull(hash);
    V* stored = Claim(idx, hash, key);
    *stored = V{};
    return {stored, true};
  }

  /// Returns the value for key, default-inserting if absent.
  V& operator[](const K& key) {
    auto [ptr, inserted] = Insert(key, V{});
    (void)inserted;
    return *ptr;
  }

  /// Returns pointer to value or nullptr.
  V* Find(const K& key) {
    size_t idx;
    if (!FindIndex(key, &idx)) return nullptr;
    return &slots_[idx].value;
  }
  const V* Find(const K& key) const {
    size_t idx;
    if (!FindIndex(key, &idx)) return nullptr;
    return &slots_[idx].value;
  }

  bool Contains(const K& key) const {
    size_t idx;
    return FindIndex(key, &idx);
  }

  /// Erases key; returns true if it was present.
  bool Erase(const K& key) {
    size_t idx;
    if (!FindIndex(key, &idx)) return false;
    ctrl_[idx] = kTombstone;
    --size_;
    return true;
  }

  /// Erases the element `value` points at — a pointer Find, Insert or
  /// FindOrInsert returned, with no insert since — without probing again.
  void EraseAt(const V* value) {
    const size_t idx =
        static_cast<size_t>(reinterpret_cast<const char*>(value) -
                            reinterpret_cast<const char*>(slots_.data())) /
        sizeof(Slot);
    assert(idx < ctrl_.size() && IsFull(ctrl_[idx]));
    ctrl_[idx] = kTombstone;
    --size_;
  }

  /// Calls fn(key, value&) for every element. Mutation of values is allowed;
  /// structural mutation is not.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (IsFull(ctrl_[i])) fn(slots_[i].key, slots_[i].value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachInRange(0, ctrl_.size(), std::forward<Fn>(fn));
  }

  /// ForEach restricted to the elements at table positions [begin, end)
  /// (clamped to capacity()). Consecutive ranges covering [0, capacity())
  /// visit every element once, so a parallel walk can cut the table into
  /// fixed ranges.
  template <typename Fn>
  void ForEachInRange(size_t begin, size_t end, Fn&& fn) const {
    end = std::min(end, ctrl_.size());
    for (size_t i = begin; i < end; ++i) {
      if (IsFull(ctrl_[i])) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Live-element fill fraction of the table (0 when unallocated). The
  /// growth policy caps live + tombstones at 7/8, so this never exceeds
  /// 0.875.
  double load_factor() const {
    return ctrl_.empty()
               ? 0.0
               : static_cast<double>(size_) / static_cast<double>(ctrl_.size());
  }

  /// Calls fn(probe_length) for every live element, where probe_length is
  /// the number of positions between the key's home bucket and where it
  /// actually resides (0 = home). O(capacity) full-table walk — intended
  /// for metrics snapshots, never per-arrival hot paths.
  template <typename Fn>
  void ForEachProbeLength(Fn&& fn) const {
    if (ctrl_.empty()) return;
    const size_t mask = ctrl_.size() - 1;
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (!IsFull(ctrl_[i])) continue;
      const size_t home = hash_(slots_[i].key) & mask;
      fn((i - home) & mask);
    }
  }

 private:
  static bool IsFull(uint8_t ctrl) { return (ctrl & kFullBit) != 0; }

  /// The control byte of a full position holding a key with this hash.
  static uint8_t FullCtrl(size_t hash) {
    return static_cast<uint8_t>(
        kFullBit | (hash >> (std::numeric_limits<size_t>::digits - 7)));
  }

  static size_t NormalizeCapacity(size_t n) {
    size_t cap = 8;
    while (cap < n) cap <<= 1;
    return cap;
  }

  /// Rehashes when live + tombstone occupancy would cross 7/8 — to twice
  /// the size, or to the same size when tombstones dominate — and says
  /// whether it did.
  bool MaybeGrow() {
    if (ctrl_.empty()) {
      Rehash(8);
      return true;
    }
    if ((used_ + 1) * 8 < ctrl_.size() * 7) return false;
    Rehash((size_ + 1) * 8 >= ctrl_.size() * 7 ? ctrl_.size() * 2
                                                : ctrl_.size());
    return true;
  }

  /// Re-places every live key, in old position order, into a fresh table
  /// of new_cap positions. The keys are unique and the table has no
  /// tombstones, so each goes to the first empty from its home.
  void Rehash(size_t new_cap) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, kEmpty);
    slots_.resize(new_cap);
    used_ = size_;
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (!IsFull(old_ctrl[i])) continue;
      const size_t idx = FirstNonFull(hash_(old_slots[i].key));
      ctrl_[idx] = old_ctrl[i];
      slots_[idx] = std::move(old_slots[i]);
    }
  }

  /// Fills non-full position idx with key; the caller stores the value.
  V* Claim(size_t idx, size_t hash, const K& key) {
    if (ctrl_[idx] == kEmpty) ++used_;
    ctrl_[idx] = FullCtrl(hash);
    slots_[idx].key = key;
    ++size_;
    return &slots_[idx].value;
  }

  bool FindIndex(const K& key, size_t* out) const {
    if (size_ == 0) return false;
    const auto [idx, found] = Probe<false>(key, hash_(key));
    *out = idx;
    return found;
  }

  /// Walks key's probe sequence from its home to the first empty. Returns
  /// {position, true} when key is present. Otherwise returns {p, false},
  /// where p (computed only when kInsertPos) is the first non-full
  /// position passed — the first tombstone before the first empty, or that
  /// empty — where an insert of key goes.
  template <bool kInsertPos>
  std::pair<size_t, bool> Probe(const K& key, size_t hash) const {
    const size_t cap = ctrl_.size();
    const size_t mask = cap - 1;
    const uint8_t full = FullCtrl(hash);
    size_t idx = hash & mask;
    // Below the load cap most probes end at the home byte: read it alone
    // first, before a group load that may straddle two cache lines.
    const uint8_t home = ctrl_[idx];
    if (home == full && slots_[idx].key == key) return {idx, true};
    if (home == kEmpty) return {idx, false};
    size_t insert_at = kNoPosition;
    while (true) {
#if GPS_FLAT_HASH_SSE2
      if (idx + kGroupWidth <= cap) {
        const Group group(ctrl_.data() + idx);
        const uint32_t empty = group.Match(kEmpty);
        // Tag matches at or past the first empty belong to other chains.
        const uint32_t before_empty = (empty & (0u - empty)) - 1u;
        for (uint32_t match = group.Match(full) & before_empty; match != 0;
             match &= match - 1) {
          const size_t pos = idx + std::countr_zero(match);
          if (slots_[pos].key == key) return {pos, true};
        }
        if constexpr (kInsertPos) {
          const uint32_t non_full = group.NonFull();
          if (insert_at == kNoPosition && non_full != 0) {
            insert_at = idx + std::countr_zero(non_full);
          }
        }
        if (empty != 0) return {insert_at, false};
        idx = (idx + kGroupWidth) & mask;
        continue;
      }
#endif
      const uint8_t ctrl = ctrl_[idx];
      if (ctrl == full && slots_[idx].key == key) return {idx, true};
      if (kInsertPos && insert_at == kNoPosition && !IsFull(ctrl)) {
        insert_at = idx;
      }
      if (ctrl == kEmpty) return {insert_at, false};
      idx = (idx + 1) & mask;
    }
  }

  /// The first non-full position (tombstone or empty) from hash's home.
  size_t FirstNonFull(size_t hash) const {
    const size_t cap = ctrl_.size();
    const size_t mask = cap - 1;
    size_t idx = hash & mask;
    while (true) {
#if GPS_FLAT_HASH_SSE2
      if (idx + kGroupWidth <= cap) {
        const uint32_t non_full = Group(ctrl_.data() + idx).NonFull();
        if (non_full != 0) return idx + std::countr_zero(non_full);
        idx = (idx + kGroupWidth) & mask;
        continue;
      }
#endif
      if (!IsFull(ctrl_[idx])) return idx;
      idx = (idx + 1) & mask;
    }
  }

  std::vector<uint8_t> ctrl_;
  std::vector<Slot> slots_;
  size_t size_ = 0;  // live elements
  size_t used_ = 0;  // live + tombstones
  Hash hash_;
};

/// Flat open-addressing hash set built on FlatHashMap.
template <typename K, typename Hash = MixHash>
class FlatHashSet {
  struct Empty {};

 public:
  FlatHashSet() = default;
  explicit FlatHashSet(size_t initial_capacity) : map_(initial_capacity) {}

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(size_t n) { map_.reserve(n); }

  /// Inserts key; returns true if it was not present.
  bool Insert(const K& key) { return map_.Insert(key, Empty{}).second; }
  bool Contains(const K& key) const { return map_.Contains(key); }
  bool Erase(const K& key) { return map_.Erase(key); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&](const K& key, const Empty&) { fn(key); });
  }

 private:
  FlatHashMap<K, Empty, Hash> map_;
};

}  // namespace gps

#endif  // GPS_UTIL_FLAT_HASH_MAP_H_

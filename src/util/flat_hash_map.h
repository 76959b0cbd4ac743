// Open-addressing hash containers used throughout the sampler hot paths.
//
// The GPS reservoir (Algorithm 1) needs, per arriving edge, the number of
// sampled triangles the edge would complete: |Γ̂(v1) ∩ Γ̂(v2)| (paper
// Section 3.2). That requires a neighbor-set membership query that is fast
// *and* cheap to mutate under eviction churn. std::unordered_map's
// node-based buckets are a poor fit, so we provide a compact linear-probing
// table with byte control metadata (empty / full / tombstone), power-of-two
// capacity, and max load factor 7/8 before tombstone-aware rehash.
//
// The containers intentionally support only what the code base needs:
// trivially-copyable-ish keys with user-provided hash, insert/find/erase,
// iteration, reserve, clear. Iterators are invalidated by rehash.

#ifndef GPS_UTIL_FLAT_HASH_MAP_H_
#define GPS_UTIL_FLAT_HASH_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

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
  enum class Ctrl : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

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
    std::fill(ctrl_.begin(), ctrl_.end(), Ctrl::kEmpty);
    size_ = 0;
    used_ = 0;
  }

  /// Ensures capacity for at least n elements without rehash.
  void reserve(size_t n) {
    size_t needed = NormalizeCapacity(n + n / 7 + 1);
    if (needed > ctrl_.size()) Rehash(needed);
  }

  /// Inserts (key, value) if absent. Returns pointer to the stored value and
  /// whether insertion happened.
  std::pair<V*, bool> Insert(const K& key, V value) {
    MaybeGrow();
    size_t idx;
    if (FindIndex(key, &idx)) return {&slots_[idx].value, false};
    idx = FindInsertIndex(key);
    if (ctrl_[idx] == Ctrl::kEmpty) ++used_;
    ctrl_[idx] = Ctrl::kFull;
    slots_[idx].key = key;
    slots_[idx].value = std::move(value);
    ++size_;
    return {&slots_[idx].value, true};
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
    ctrl_[idx] = Ctrl::kTombstone;
    --size_;
    return true;
  }

  /// Calls fn(key, value&) for every element. Mutation of values is allowed;
  /// structural mutation is not.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == Ctrl::kFull) fn(slots_[i].key, slots_[i].value);
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
      if (ctrl_[i] == Ctrl::kFull) fn(slots_[i].key, slots_[i].value);
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
  /// the number of slots between the key's home bucket and where it
  /// actually resides (0 = home). O(capacity) full-table walk — intended
  /// for metrics snapshots, never per-arrival hot paths.
  template <typename Fn>
  void ForEachProbeLength(Fn&& fn) const {
    if (ctrl_.empty()) return;
    const size_t mask = ctrl_.size() - 1;
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] != Ctrl::kFull) continue;
      const size_t home = hash_(slots_[i].key) & mask;
      fn((i - home) & mask);
    }
  }

 private:
  static size_t NormalizeCapacity(size_t n) {
    size_t cap = 8;
    while (cap < n) cap <<= 1;
    return cap;
  }

  void MaybeGrow() {
    if (ctrl_.empty()) {
      Rehash(8);
      return;
    }
    // Grow when live + tombstone occupancy crosses 7/8. If tombstones
    // dominate, rehash at the same size to reclaim them.
    if ((used_ + 1) * 8 >= ctrl_.size() * 7) {
      size_t target = (size_ + 1) * 8 >= ctrl_.size() * 7 ? ctrl_.size() * 2
                                                          : ctrl_.size();
      Rehash(target);
    }
  }

  void Rehash(size_t new_cap) {
    std::vector<Ctrl> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, Ctrl::kEmpty);
    slots_.resize(new_cap);
    size_ = 0;
    used_ = 0;
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == Ctrl::kFull) {
        Insert(old_slots[i].key, std::move(old_slots[i].value));
      }
    }
  }

  bool FindIndex(const K& key, size_t* out) const {
    if (ctrl_.empty()) return false;
    const size_t mask = ctrl_.size() - 1;
    size_t idx = hash_(key) & mask;
    while (true) {
      if (ctrl_[idx] == Ctrl::kEmpty) return false;
      if (ctrl_[idx] == Ctrl::kFull && slots_[idx].key == key) {
        *out = idx;
        return true;
      }
      idx = (idx + 1) & mask;
    }
  }

  size_t FindInsertIndex(const K& key) const {
    const size_t mask = ctrl_.size() - 1;
    size_t idx = hash_(key) & mask;
    size_t first_tombstone = SIZE_MAX;
    while (true) {
      if (ctrl_[idx] == Ctrl::kEmpty) {
        return first_tombstone != SIZE_MAX ? first_tombstone : idx;
      }
      if (ctrl_[idx] == Ctrl::kTombstone && first_tombstone == SIZE_MAX) {
        first_tombstone = idx;
      }
      idx = (idx + 1) & mask;
    }
  }

  std::vector<Ctrl> ctrl_;
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

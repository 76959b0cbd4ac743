// Tests for the open-addressing hash containers, including a randomized
// differential test against std::unordered_map and a layout-identity test
// against a scalar reference table.

#include "util/flat_hash_map.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace gps {
namespace {

TEST(FlatHashMapTest, EmptyMap) {
  FlatHashMap<uint64_t, int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_FALSE(map.Contains(42));
  EXPECT_FALSE(map.Erase(42));
}

TEST(FlatHashMapTest, InsertFind) {
  FlatHashMap<uint64_t, int> map;
  auto [ptr, inserted] = map.Insert(1, 10);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*ptr, 10);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Contains(1));
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 10);
}

TEST(FlatHashMapTest, InsertDuplicateKeepsOriginal) {
  FlatHashMap<uint64_t, int> map;
  map.Insert(1, 10);
  auto [ptr, inserted] = map.Insert(1, 20);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*ptr, 10);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, SubscriptDefaultInserts) {
  FlatHashMap<uint32_t, int> map;
  map[5] = 99;
  EXPECT_EQ(map[5], 99);
  EXPECT_EQ(map[6], 0);  // default
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatHashMapTest, EraseAndReinsert) {
  FlatHashMap<uint64_t, int> map;
  map.Insert(7, 70);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Contains(7));
  EXPECT_EQ(map.size(), 0u);
  map.Insert(7, 71);
  EXPECT_EQ(*map.Find(7), 71);
}

TEST(FlatHashMapTest, GrowthPreservesContents) {
  FlatHashMap<uint64_t, uint64_t> map;
  const uint64_t n = 10000;
  for (uint64_t i = 0; i < n; ++i) map.Insert(i * 7919, i);
  EXPECT_EQ(map.size(), n);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_NE(map.Find(i * 7919), nullptr) << i;
    EXPECT_EQ(*map.Find(i * 7919), i);
  }
}

TEST(FlatHashMapTest, TombstoneChurnDoesNotDegrade) {
  // Insert/erase repeatedly at the same size; with naive tombstone handling
  // the table would fill with tombstones and probe chains would explode.
  FlatHashMap<uint64_t, int> map;
  for (uint64_t round = 0; round < 200; ++round) {
    for (uint64_t i = 0; i < 100; ++i) map.Insert(round * 100 + i, 1);
    for (uint64_t i = 0; i < 100; ++i) EXPECT_TRUE(map.Erase(round * 100 + i));
  }
  EXPECT_EQ(map.size(), 0u);
  EXPECT_LT(map.capacity(), 4096u);
}

TEST(FlatHashMapTest, ClearKeepsCapacity) {
  FlatHashMap<uint64_t, int> map;
  for (uint64_t i = 0; i < 1000; ++i) map.Insert(i, 1);
  const size_t cap = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_FALSE(map.Contains(0));
}

TEST(FlatHashMapTest, ReserveAvoidsRehash) {
  FlatHashMap<uint64_t, int> map;
  map.reserve(1000);
  const size_t cap = map.capacity();
  for (uint64_t i = 0; i < 1000; ++i) map.Insert(i, 1);
  EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatHashMapTest, ForEachVisitsAllLiveEntries) {
  FlatHashMap<uint64_t, int> map;
  for (uint64_t i = 0; i < 100; ++i) map.Insert(i, static_cast<int>(i));
  for (uint64_t i = 0; i < 50; ++i) map.Erase(i * 2);
  size_t visited = 0;
  map.ForEach([&](uint64_t key, int value) {
    EXPECT_EQ(key % 2, 1u);
    EXPECT_EQ(static_cast<int>(key), value);
    ++visited;
  });
  EXPECT_EQ(visited, 50u);
}

TEST(FlatHashMapTest, DifferentialAgainstStdUnorderedMap) {
  FlatHashMap<uint64_t, uint64_t> ours;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(99);
  for (int op = 0; op < 200000; ++op) {
    const uint64_t key = rng.UniformU64(5000);
    const int action = static_cast<int>(rng.UniformU64(3));
    if (action == 0) {
      const uint64_t value = rng.NextU64();
      const bool inserted = ours.Insert(key, value).second;
      const bool ref_inserted = ref.emplace(key, value).second;
      ASSERT_EQ(inserted, ref_inserted);
    } else if (action == 1) {
      ASSERT_EQ(ours.Erase(key), ref.erase(key) > 0);
    } else {
      const uint64_t* found = ours.Find(key);
      auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end());
      if (found) {
        ASSERT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(ours.size(), ref.size());
  }
}

TEST(FlatHashSetTest, BasicOperations) {
  FlatHashSet<uint64_t> set;
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Erase(3));
  EXPECT_FALSE(set.Erase(3));
  EXPECT_TRUE(set.empty());
}

TEST(FlatHashSetTest, ForEach) {
  FlatHashSet<uint32_t> set;
  for (uint32_t i = 0; i < 500; ++i) set.Insert(i);
  std::unordered_set<uint32_t> seen;
  set.ForEach([&](uint32_t key) { seen.insert(key); });
  EXPECT_EQ(seen.size(), 500u);
}

// ---- Layout identity ------------------------------------------------------
//
// Iteration order is part of FlatHashMap's contract (generators write edges
// in FlatHashSet order, SampleView divides in FlatHashMap order), so tags
// and group scans must leave every key where the plain scalar table below
// puts it: one state byte per position, a linear probe from
// hash & (capacity - 1), an insert at the first tombstone before the first
// empty, Insert growing (or rehashing tombstones away) at 7/8 before it
// probes, and a rehash that re-inserts in old position order.
template <typename K, typename V, typename Hash>
class ScalarReferenceMap {
  enum class Ctrl : uint8_t { kEmpty, kFull, kTombstone };

 public:
  explicit ScalarReferenceMap(size_t initial_capacity) {
    Rehash(NormalizeCapacity(initial_capacity));
  }

  size_t size() const { return size_; }
  size_t capacity() const { return ctrl_.size(); }

  void clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), Ctrl::kEmpty);
    size_ = 0;
    used_ = 0;
  }

  void reserve(size_t n) {
    const size_t needed = NormalizeCapacity(n + n / 7 + 1);
    if (needed > ctrl_.size()) Rehash(needed);
  }

  std::pair<V*, bool> Insert(const K& key, V value) {
    MaybeGrow();
    size_t idx;
    if (FindIndex(key, &idx)) return {&values_[idx], false};
    idx = FindInsertIndex(key);
    if (ctrl_[idx] == Ctrl::kEmpty) ++used_;
    ctrl_[idx] = Ctrl::kFull;
    keys_[idx] = key;
    values_[idx] = std::move(value);
    ++size_;
    return {&values_[idx], true};
  }

  V* Find(const K& key) {
    size_t idx;
    return FindIndex(key, &idx) ? &values_[idx] : nullptr;
  }

  bool Erase(const K& key) {
    size_t idx;
    if (!FindIndex(key, &idx)) return false;
    ctrl_[idx] = Ctrl::kTombstone;
    --size_;
    return true;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == Ctrl::kFull) fn(keys_[i], values_[i]);
    }
  }

  template <typename Fn>
  void ForEachProbeLength(Fn&& fn) const {
    const size_t mask = ctrl_.size() - 1;
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == Ctrl::kFull) fn((i - (hash_(keys_[i]) & mask)) & mask);
    }
  }

 private:
  static size_t NormalizeCapacity(size_t n) {
    size_t cap = 8;
    while (cap < n) cap <<= 1;
    return cap;
  }

  void MaybeGrow() {
    if ((used_ + 1) * 8 >= ctrl_.size() * 7) {
      Rehash((size_ + 1) * 8 >= ctrl_.size() * 7 ? ctrl_.size() * 2
                                                  : ctrl_.size());
    }
  }

  void Rehash(size_t new_cap) {
    std::vector<Ctrl> old_ctrl = std::move(ctrl_);
    std::vector<K> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    ctrl_.assign(new_cap, Ctrl::kEmpty);
    keys_.assign(new_cap, K{});
    values_.assign(new_cap, V{});
    size_ = 0;
    used_ = 0;
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == Ctrl::kFull) {
        Insert(old_keys[i], std::move(old_values[i]));
      }
    }
  }

  bool FindIndex(const K& key, size_t* out) const {
    const size_t mask = ctrl_.size() - 1;
    for (size_t idx = hash_(key) & mask;; idx = (idx + 1) & mask) {
      if (ctrl_[idx] == Ctrl::kEmpty) return false;
      if (ctrl_[idx] == Ctrl::kFull && keys_[idx] == key) {
        *out = idx;
        return true;
      }
    }
  }

  size_t FindInsertIndex(const K& key) const {
    const size_t mask = ctrl_.size() - 1;
    size_t first_tombstone = SIZE_MAX;
    for (size_t idx = hash_(key) & mask;; idx = (idx + 1) & mask) {
      if (ctrl_[idx] == Ctrl::kEmpty) {
        return first_tombstone != SIZE_MAX ? first_tombstone : idx;
      }
      if (ctrl_[idx] == Ctrl::kTombstone && first_tombstone == SIZE_MAX) {
        first_tombstone = idx;
      }
    }
  }

  std::vector<Ctrl> ctrl_;
  std::vector<K> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
  size_t used_ = 0;
  Hash hash_;
};

/// Every hash's top 7 bits are zero: every key carries the same tag, so
/// each full position passed is a tag match.
struct ConstantTagHash {
  size_t operator()(uint64_t key) const {
    return static_cast<size_t>(MixHash::Mix(key) & (~uint64_t{0} >> 7));
  }
};

/// Bits 4..39 set: in a table of 32 to 2^40 positions every key is homed
/// in the last 16, where probes run byte by byte before they wrap.
struct TailHomeHash {
  size_t operator()(uint64_t key) const {
    return static_cast<size_t>(MixHash::Mix(key) |
                               (((uint64_t{1} << 40) - 1) & ~uint64_t{0xf}));
  }
};

template <typename Map>
std::vector<std::pair<uint64_t, uint64_t>> EntriesInOrder(const Map& map) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  map.ForEach([&](uint64_t key, uint64_t value) {
    entries.emplace_back(key, value);
  });
  return entries;
}

template <typename Map>
std::vector<size_t> ProbeLengthsInOrder(const Map& map) {
  std::vector<size_t> lengths;
  map.ForEachProbeLength([&](size_t length) { lengths.push_back(length); });
  return lengths;
}

template <typename Hash>
::testing::AssertionResult SameLayout(
    const FlatHashMap<uint64_t, uint64_t, Hash>& map,
    const ScalarReferenceMap<uint64_t, uint64_t, Hash>& ref) {
  if (map.capacity() != ref.capacity()) {
    return ::testing::AssertionFailure()
           << "capacity " << map.capacity() << " vs " << ref.capacity();
  }
  if (map.size() != ref.size()) {
    return ::testing::AssertionFailure()
           << "size " << map.size() << " vs " << ref.size();
  }
  if (EntriesInOrder(map) != EntriesInOrder(ref)) {
    return ::testing::AssertionFailure() << "ForEach order differs";
  }
  if (ProbeLengthsInOrder(map) != ProbeLengthsInOrder(ref)) {
    return ::testing::AssertionFailure() << "probe lengths differ";
  }
  return ::testing::AssertionSuccess();
}

/// Seeded churn over a pool of 2 * initial_capacity keys. Even phases
/// mostly insert, odd phases mostly erase, and no phase lets the live
/// count pass 7/8 of the table less two, the most that never doubles it,
/// so tombstones pile up into same-size rehashes; a last phase only
/// inserts and doubles the table. Inserts go through Insert, FindOrInsert
/// and operator[], erases through Erase and EraseAt. After every step the
/// layouts must match, and so must lookups of a pool key and an absent key.
template <typename Hash>
void ExpectChurnMatchesReference(size_t initial_capacity, uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(initial_capacity) + " seed " +
               std::to_string(seed));
  FlatHashMap<uint64_t, uint64_t, Hash> map(initial_capacity);
  ScalarReferenceMap<uint64_t, uint64_t, Hash> ref(initial_capacity);
  ASSERT_TRUE(SameLayout(map, ref));
  Rng rng(seed);
  std::vector<uint64_t> pool(2 * initial_capacity);
  for (uint64_t& key : pool) key = rng.NextU64() | 1;  // even keys are absent
  const size_t below_cap = initial_capacity * 7 / 8 - 2;
  const int kPhases = 7;
  for (int phase = 0; phase < kPhases; ++phase) {
    const bool last = phase == kPhases - 1;
    for (size_t step = 0; step < 2 * initial_capacity + 64; ++step) {
      const uint64_t key = pool[rng.UniformU64(pool.size())];
      const uint64_t value = rng.NextU64();
      const uint64_t roll = rng.UniformU64(4);
      const bool insert =
          last || (map.size() < below_cap && roll < (phase % 2 == 0 ? 3 : 1));
      if (insert) {
        const uint64_t route = rng.UniformU64(3);
        if (route == 0) {
          const auto [stored, inserted] = map.Insert(key, value);
          const auto [ref_stored, ref_inserted] = ref.Insert(key, value);
          ASSERT_EQ(inserted, ref_inserted);
          ASSERT_EQ(*stored, *ref_stored);
        } else if (route == 1) {
          const auto [stored, inserted] = map.FindOrInsert(key);
          ASSERT_EQ(inserted, ref.Find(key) == nullptr);
          if (inserted) {
            ASSERT_EQ(*stored, 0u);
            ref.Insert(key, 0);
          }
          *stored = value;
          *ref.Find(key) = value;
        } else {
          map[key] = value;
          *ref.Insert(key, 0).first = value;
        }
      } else if (roll % 2 == 0) {
        ASSERT_EQ(map.Erase(key), ref.Erase(key));
      } else {
        uint64_t* found = map.Find(key);
        ASSERT_EQ(found != nullptr, ref.Find(key) != nullptr);
        if (found != nullptr) {
          map.EraseAt(found);
          ref.Erase(key);
        }
      }
      ASSERT_TRUE(SameLayout(map, ref)) << "phase " << phase << " step "
                                        << step;
      const uint64_t probe = pool[rng.UniformU64(pool.size())];
      const uint64_t* found = map.Find(probe);
      const uint64_t* ref_found = ref.Find(probe);
      ASSERT_EQ(found != nullptr, ref_found != nullptr);
      if (found != nullptr) {
        ASSERT_EQ(*found, *ref_found);
      }
      ASSERT_EQ(map.Contains(probe), found != nullptr);
      ASSERT_EQ(map.Find(rng.NextU64() & ~uint64_t{1}), nullptr);
    }
  }
  ASSERT_GT(map.capacity(), initial_capacity);
  map.clear();
  ref.clear();
  ASSERT_TRUE(SameLayout(map, ref));
  map.reserve(3 * initial_capacity);
  ref.reserve(3 * initial_capacity);
  for (const uint64_t key : pool) {
    map.Insert(key, key);
    ref.Insert(key, key);
    ASSERT_TRUE(SameLayout(map, ref));
  }
}

TEST(FlatHashMapLayoutTest, MixHashChurnMatchesScalarReference) {
  for (const size_t capacity : {8u, 16u, 256u}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ExpectChurnMatchesReference<MixHash>(capacity, seed);
    }
  }
}

TEST(FlatHashMapLayoutTest, ConstantTagChurnMatchesScalarReference) {
  for (const size_t capacity : {8u, 16u, 256u}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ExpectChurnMatchesReference<ConstantTagHash>(capacity, seed);
    }
  }
}

TEST(FlatHashMapLayoutTest, TailHomedChurnMatchesScalarReference) {
  for (const size_t capacity : {8u, 16u, 32u, 256u}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ExpectChurnMatchesReference<TailHomeHash>(capacity, seed);
    }
  }
}

TEST(MixHashTest, AvalanchesConsecutiveKeys) {
  // Consecutive integers must map to well-separated hash values so linear
  // probing does not cluster in power-of-two tables.
  MixHash hash;
  size_t collisions_low_bits = 0;
  for (uint64_t i = 0; i + 1 < 4096; ++i) {
    if ((hash(i) & 0xfff) == (hash(i + 1) & 0xfff)) ++collisions_low_bits;
  }
  EXPECT_LT(collisions_low_bits, 16u);
}

}  // namespace
}  // namespace gps

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "log/segment.hpp"

namespace rc::hash {

/// A (table, key) pair — the unit of addressing in RAMCloud.
struct Key {
  std::uint64_t tableId = 0;
  std::uint64_t keyId = 0;

  bool operator==(const Key&) const = default;
};

/// 64-bit mix (splitmix64 finaliser) over both components. The same hash
/// routes requests to tablets, so it is exposed here.
std::uint64_t keyHash(const Key& k);

/// Where an object currently lives.
struct ObjectLocation {
  log::LogRef ref;
  std::uint64_t version = 0;
  std::uint32_t sizeBytes = 0;
};

/// Open-addressing hash table from Key to ObjectLocation.
///
/// Linear probing over 40-byte {key, location} slots; a slot is empty when
/// its log reference is invalid, so there is no state byte and no
/// tombstone: erase shifts the rest of the probe run back. The home slot
/// comes from the low hash bits (the high bits pick tablets) and the table
/// doubles past load factor 0.7. Like RAMCloud's in-DRAM index it is sized
/// up front when the object count is known (`reserve`), and every
/// find-and-modify probes it once.
class ObjectMap {
 public:
  explicit ObjectMap(std::size_t initialBuckets = 64);

  /// Grows once to the capacity that `n` distinct puts would reach by
  /// doubling, so `n` objects then fit without a rehash. Never shrinks.
  void reserve(std::size_t n);

  /// Insert or overwrite; `loc.ref` must be valid. Returns true if the key
  /// was newly inserted; on overwrite the old location goes to `prev`.
  bool put(const Key& k, const ObjectLocation& loc,
           ObjectLocation* prev = nullptr);

  /// nullptr if absent.
  const ObjectLocation* get(const Key& k) const;
  ObjectLocation* getMutable(const Key& k);

  /// Returns true if the key was present.
  bool erase(const Key& k);

  /// Hints the cache to fetch `k`'s home slot; bulk loops issue it a few
  /// keys ahead so their DRAM misses overlap.
  void prefetch(const Key& k) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bucketCount() const { return slots_.size(); }
  double loadFactor() const {
    return static_cast<double>(size_) / static_cast<double>(slots_.size());
  }

  /// Visit every live entry (order unspecified).
  void forEach(const std::function<void(const Key&, const ObjectLocation&)>&
                   fn) const;

 private:
  struct Slot {
    Key key;
    ObjectLocation loc;  // !loc.ref.valid() marks an empty slot
  };

  std::size_t home(const Key& k) const;
  /// Index of `k`'s slot, or of the empty slot that ends its probe run.
  std::size_t find(const Key& k) const;
  void rehash(std::size_t buckets);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace rc::hash

#include "hash/object_map.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace rc::hash {

std::uint64_t keyHash(const Key& k) {
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return mix(mix(k.tableId) ^ (k.keyId + 0x632be59bd9b4e019ULL));
}

namespace {

/// Load-factor bound: `n` objects fit in `buckets` slots.
bool fits(std::size_t n, std::size_t buckets) {
  return static_cast<double>(n) <= 0.7 * static_cast<double>(buckets);
}

}  // namespace

ObjectMap::ObjectMap(std::size_t initialBuckets)
    : slots_(std::bit_ceil(std::max<std::size_t>(initialBuckets, 8))) {}

std::size_t ObjectMap::home(const Key& k) const {
  return static_cast<std::size_t>(keyHash(k)) & (slots_.size() - 1);
}

std::size_t ObjectMap::find(const Key& k) const {
  // The load bound keeps an empty slot in every probe run.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(k);
  while (slots_[i].loc.ref.valid() && !(slots_[i].key == k)) {
    i = (i + 1) & mask;
  }
  return i;
}

void ObjectMap::rehash(std::size_t buckets) {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(buckets));
  for (const Slot& s : old) {
    if (s.loc.ref.valid()) slots_[find(s.key)] = s;
  }
}

void ObjectMap::reserve(std::size_t n) {
  std::size_t buckets = slots_.size();
  while (!fits(n, buckets)) buckets *= 2;
  if (buckets != slots_.size()) rehash(buckets);
}

bool ObjectMap::put(const Key& k, const ObjectLocation& loc,
                    ObjectLocation* prev) {
  assert(loc.ref.valid());
  if (!fits(size_ + 1, slots_.size())) rehash(slots_.size() * 2);
  Slot& s = slots_[find(k)];
  if (s.loc.ref.valid()) {
    if (prev != nullptr) *prev = s.loc;
    s.loc = loc;
    return false;
  }
  s = Slot{k, loc};
  ++size_;
  return true;
}

const ObjectLocation* ObjectMap::get(const Key& k) const {
  const Slot& s = slots_[find(k)];
  return s.loc.ref.valid() ? &s.loc : nullptr;
}

ObjectLocation* ObjectMap::getMutable(const Key& k) {
  return const_cast<ObjectLocation*>(
      static_cast<const ObjectMap*>(this)->get(k));
}

bool ObjectMap::erase(const Key& k) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = find(k);
  if (!slots_[hole].loc.ref.valid()) return false;
  // Backward-shift deletion: walk the rest of the run and move each entry
  // whose home lies cyclically at or before the hole into it.
  for (std::size_t j = (hole + 1) & mask; slots_[j].loc.ref.valid();
       j = (j + 1) & mask) {
    if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

void ObjectMap::prefetch(const Key& k) const {
  __builtin_prefetch(&slots_[home(k)]);
}

void ObjectMap::forEach(
    const std::function<void(const Key&, const ObjectLocation&)>& fn) const {
  for (const Slot& s : slots_) {
    if (s.loc.ref.valid()) fn(s.key, s.loc);
  }
}

}  // namespace rc::hash

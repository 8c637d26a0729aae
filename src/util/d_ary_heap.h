/// \file d_ary_heap.h
/// Cache-friendly addressable d-ary min-heap (default arity 4) plus a plain
/// (non-addressable) d-ary priority queue.
///
/// A 4-ary heap stores siblings contiguously: one cache line holds all
/// children of a node, so sift-down touches ~half as many lines as a binary
/// heap at the price of three extra key comparisons per level. On the
/// Dijkstra-shaped workloads of this repo (push/decrease-heavy, m = O(n))
/// that trade wins — see bench_heaps' DAryHeapChurn row. The addressable
/// variant mirrors BinaryHeap's API exactly; the arity-2 instance is
/// BinaryHeap itself (the search kernel's heap) and the 4-ary instance backs
/// the two-level structure.

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace cdst {

/// Addressable d-ary min-heap over (id, key) pairs with O(1) contains and
/// decrease-key lookup via a position map. Each id may be present at most
/// once. API-compatible with BinaryHeap.
template <typename Key, unsigned Arity = 4>
class DAryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  using Id = std::uint32_t;
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  DAryHeap() = default;
  explicit DAryHeap(std::size_t capacity) { reserve(capacity); }

  void reserve(std::size_t capacity) {
    heap_.reserve(capacity);
    if (pos_.size() < capacity) pos_.resize(capacity, kNpos);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  bool contains(Id id) const { return id < pos_.size() && pos_[id] != kNpos; }

  const Key& key_of(Id id) const {
    CDST_ASSERT(contains(id));
    return heap_[pos_[id]].key;
  }

  /// Smallest key in the heap. Precondition: !empty().
  const Key& min_key() const {
    CDST_ASSERT(!empty());
    return heap_[0].key;
  }

  /// Id with the smallest key. Precondition: !empty().
  Id min_id() const {
    CDST_ASSERT(!empty());
    return heap_[0].id;
  }

  /// Inserts id with the given key. Precondition: !contains(id).
  void push(Id id, const Key& key) {
    ensure_pos(id);
    CDST_ASSERT(pos_[id] == kNpos);
    heap_.push_back(Entry{key, id});
    pos_[id] = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
  }

  /// Inserts or lowers the key of id; returns true if the heap changed.
  bool push_or_decrease(Id id, const Key& key) {
    if (!contains(id)) {
      push(id, key);
      return true;
    }
    if (key < heap_[pos_[id]].key) {
      heap_[pos_[id]].key = key;
      sift_up(pos_[id]);
      return true;
    }
    return false;
  }

  /// Lowers the key of an existing id. Precondition: key <= current key.
  void decrease_key(Id id, const Key& key) {
    CDST_ASSERT(contains(id));
    CDST_ASSERT(!(heap_[pos_[id]].key < key));
    heap_[pos_[id]].key = key;
    sift_up(pos_[id]);
  }

  /// Removes and returns the id with the smallest key.
  Id pop_min() {
    CDST_ASSERT(!empty());
    const Id top = heap_[0].id;
    remove_at(0);
    return top;
  }

  /// Removes an arbitrary contained id.
  void erase(Id id) {
    CDST_ASSERT(contains(id));
    remove_at(pos_[id]);
  }

  void clear() {
    for (const Entry& e : heap_) pos_[e.id] = kNpos;
    heap_.clear();
  }

 private:
  struct Entry {
    Key key;
    Id id;
  };

  void ensure_pos(Id id) {
    if (id >= pos_.size()) [[unlikely]] grow_pos(id);
  }
  // Out of line so that push_or_decrease stays small enough for the
  // compiler to inline into the search loops. Grows geometrically: heaps
  // that are never reserve()d (the cost-distance solver's per-search
  // sub-heaps, keyed by ever-growing label ids) would otherwise resize once
  // per new id.
  [[gnu::noinline]] void grow_pos(Id id) {
    pos_.resize(std::max(static_cast<std::size_t>(id) + 1, 2 * pos_.size()),
                kNpos);
  }

  static std::size_t parent(std::size_t i) { return (i - 1) / Arity; }

  void remove_at(std::size_t i) {
    pos_[heap_[i].id] = kNpos;
    if (i + 1 != heap_.size()) {
      heap_[i] = heap_.back();
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      heap_.pop_back();
      // The moved element may need to go either way.
      if (i > 0 && heap_[i].key < heap_[parent(i)].key) {
        sift_up(i);
      } else {
        sift_down(i);
      }
    } else {
      heap_.pop_back();
    }
  }

  void sift_up(std::size_t i) {
    Entry e = heap_[i];
    while (i > 0 && e.key < heap_[parent(i)].key) {
      heap_[i] = heap_[parent(i)];
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      i = parent(i);
    }
    heap_[i] = e;
    pos_[e.id] = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i) {
    Entry e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + Arity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (heap_[c].key < heap_[best].key) best = c;
      }
      if (!(heap_[best].key < e.key)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      i = best;
    }
    heap_[i] = e;
    pos_[e.id] = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> pos_;
};

/// Plain d-ary min-queue over values ordered by operator<: push/top/pop only,
/// duplicates allowed. The lazy-deletion variant of the solver queue pushes
/// many duplicate entries per label, so it needs exactly this (an
/// addressable heap's position map would be wasted work there).
template <typename T, unsigned Arity = 4>
class DAryQueue {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  void reserve(std::size_t capacity) { heap_.reserve(capacity); }
  void clear() { heap_.clear(); }

  const T& top() const {
    CDST_ASSERT(!empty());
    return heap_[0];
  }

  void push(T value) {
    std::size_t i = heap_.size();
    heap_.push_back(std::move(value));
    while (i > 0) {
      const std::size_t p = (i - 1) / Arity;
      if (!(heap_[i] < heap_[p])) break;
      std::swap(heap_[i], heap_[p]);
      i = p;
    }
  }

  void pop() {
    CDST_ASSERT(!empty());
    heap_[0] = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + Arity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
      if (!(heap_[best] < heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

 private:
  std::vector<T> heap_;
};

}  // namespace cdst

// Coarse-grained baseline for bench_concurrent and the stress tests: the
// single-threaded FitingTree behind one std::mutex. Every operation —
// including pure lookups — serializes on the global lock, so its aggregate
// throughput is flat (or worse, with contention) as threads are added.
// That is the yardstick the epoch/latch design in
// concurrent_fiting_tree.h has to beat.

#ifndef FITREE_CONCURRENCY_MUTEX_FITING_TREE_H_
#define FITREE_CONCURRENCY_MUTEX_FITING_TREE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/fiting_tree.h"
#include "telemetry/structural.h"

namespace fitree {

template <typename K, typename V = uint64_t>
class MutexFitingTree {
 public:
  using Key = K;
  using Payload = V;
  using Tree = FitingTree<K, V>;

  static std::unique_ptr<MutexFitingTree<K, V>> Create(
      const std::vector<K>& keys, const FitingTreeConfig& config) {
    return Create(keys, {}, config);
  }

  static std::unique_ptr<MutexFitingTree<K, V>> Create(
      const std::vector<K>& keys, const std::vector<V>& values,
      const FitingTreeConfig& config) {
    auto wrapper = std::make_unique<MutexFitingTree<K, V>>();
    wrapper->tree_ = Tree::Create(keys, values, config);
    return wrapper;
  }

  bool Contains(const K& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->Contains(key);
  }

  std::optional<V> Lookup(const K& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->Lookup(key);
  }

  bool Insert(const K& key, const V& value = V{}) {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->Insert(key, value);
  }

  bool Update(const K& key, const V& value) {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->Update(key, value);
  }

  bool Delete(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->Delete(key);
  }

  template <typename Fn>
  size_t ScanRange(const K& lo, const K& hi, Fn fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->ScanRange(lo, hi, fn);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->size();
  }

  size_t SegmentCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->SegmentCount();
  }

  // Delegates to the wrapped tree; this baseline's registry traffic lands
  // under the buffered engine for the same reason.
  telemetry::StructuralStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tree_->Stats();
  }

 private:
  mutable std::mutex mu_;
  std::unique_ptr<Tree> tree_;
};

}  // namespace fitree

#endif  // FITREE_CONCURRENCY_MUTEX_FITING_TREE_H_

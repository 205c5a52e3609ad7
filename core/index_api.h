// The unified engine contract: one documented surface that every
// FITing-Tree engine exposes identically, so generic layers (the sharded
// server in server/, the differential oracle in tests/oracle.h) compile
// against a concept instead of a particular tree. The engines:
//   StaticFitingTree       read-only pages (core/static_fiting_tree.h);
//   FitingTree             per-segment delta buffers, single writer
//                          (core/fiting_tree.h);
//   ConcurrentFitingTree   the same tree under the Concurrent sync policy:
//                          lock-free readers, latched writers
//                          (concurrency/concurrent_fiting_tree.h);
//   DiskFitingTree         pages in a file behind a buffer pool, with an
//                          in-memory delta overlay
//                          (storage/disk_fiting_tree.h).
//
// The read surface (IndexApi):
//   using Key / using Payload     the key and payload value types
//   Lookup(key)  const            -> std::optional<Payload>
//   Contains(key) const           -> bool
//   ScanRange(lo, hi, fn) const   -> size_t  (entries emitted, inclusive
//                                   bounds; fn sees (key, payload) in key
//                                   order)
//   size() const                  -> size_t  (live entries)
//
// The write surface (MutableIndexApi adds):
//   Insert(key, payload)          -> bool (false on duplicate key)
//   Update(key, payload)          -> bool (false when key is absent)
//   Delete(key)                   -> bool (false when key is absent)
//
// ScanRange is templated on the visitor in every engine, so the concept
// probes it with a concrete do-nothing sink (detail::ScanProbe). Engines
// may accept single-argument (key-only) visitors too; the contract only
// pins the two-argument form.
//
// The contract has no batched or prefetch form: each engine prefetches
// inside its own Lookup, and the one batched read,
// DiskFitingTree::LookupBatch, is a plain method of the disk tree.
//
// StaticFitingTree models IndexApi plus Update (payload override on a
// read-only key set) but not Insert/Delete, so it deliberately fails
// MutableIndexApi — the static checks in tests/test_index_api.cc assert
// both directions.

#ifndef FITREE_CORE_INDEX_API_H_
#define FITREE_CORE_INDEX_API_H_

#include <concepts>
#include <cstddef>
#include <optional>

namespace fitree {

namespace detail {

// Concrete visitor used to instantiate an engine's templated ScanRange
// inside the concept's requires-expression.
template <typename K, typename V>
struct ScanProbe {
  void operator()(const K&, const V&) const {}
};

}  // namespace detail

template <typename T>
concept IndexApi =
    requires(const T& index, const typename T::Key& key) {
      typename T::Key;
      typename T::Payload;
      { index.Lookup(key) }
          -> std::same_as<std::optional<typename T::Payload>>;
      { index.Contains(key) } -> std::same_as<bool>;
      {
        index.ScanRange(
            key, key,
            detail::ScanProbe<typename T::Key, typename T::Payload>{})
      } -> std::same_as<size_t>;
      { index.size() } -> std::same_as<size_t>;
    };

template <typename T>
concept MutableIndexApi =
    IndexApi<T> && requires(T& index, const typename T::Key& key,
                            const typename T::Payload& payload) {
      { index.Insert(key, payload) } -> std::same_as<bool>;
      { index.Update(key, payload) } -> std::same_as<bool>;
      { index.Delete(key) } -> std::same_as<bool>;
    };

}  // namespace fitree

#endif  // FITREE_CORE_INDEX_API_H_

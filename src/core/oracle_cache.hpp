// Thread-safe, shareable memoization of degradation queries.
//
// The offline solvers build one Problem, query its model single-threaded,
// and throw everything away. The online service (src/online) rebuilds a
// Problem at every replan — same live processes, new local numbering — and
// may evaluate candidate placements from several threads. DegradationCache
// is the piece that makes this cheap and safe:
//
//  * the cache is keyed by caller-supplied *stable* ids (the online
//    service's global process ids), so entries survive Problem rebuilds and
//    local renumbering;
//  * the table is striped into mutex-guarded shards, so concurrent replan
//    evaluation scales instead of serializing on one lock;
//  * keys are packed integers (subject id, then sorted co-runner ids) held
//    inline for up to Key::kInlineIds ids (u <= 8), so neither a lookup nor
//    a stored entry allocates on the heap;
//  * CachingDegradationModel is a drop-in DegradationModel decorator: wrap
//    any base model, hand several wrappers the same DegradationCache;
//  * stable ids are only ever retired, never reused, across a service
//    lifetime — so evict_dead() can drop every entry that mentions a
//    finished process id and keep a long-lived server's cache bounded by
//    the live set instead of by everything that ever ran.
#pragma once

#include <atomic>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/degradation_model.hpp"

namespace cosched {

/// Striped concurrent map from (stable id, stable co-runner set) to a
/// degradation value. Safe for concurrent lookup/insert from any number of
/// threads.
class DegradationCache {
 public:
  /// Packed key of one query: the subject's stable id, then its co-runners'
  /// stable ids ascending, negative ids (inert padding) dropped — the
  /// DegradationModel contract says they contribute nothing. Up to
  /// kInlineIds ids are stored in place; a longer set (any co-runner count
  /// the contract allows) spills into one heap block.
  class Key {
   public:
    static constexpr std::size_t kInlineIds = 8;

    Key(ProcessId subject, std::span<const ProcessId> co);
    Key(const Key& other);
    Key(Key&& other) noexcept;
    Key& operator=(const Key&) = delete;  ///< a key is an immutable value
    ~Key();

    std::span<const ProcessId> ids() const {
      return {spilled() ? heap_ : inline_, size_};
    }
    bool operator==(const Key& other) const;
    std::size_t hash() const noexcept;

   private:
    bool spilled() const { return size_ > kInlineIds; }
    ProcessId* storage() { return spilled() ? heap_ : inline_; }

    std::uint32_t size_ = 0;
    union {
      ProcessId inline_[kInlineIds];
      ProcessId* heap_;
    };
  };

  /// `shard_count` is rounded up to a power of two (at least 1).
  explicit DegradationCache(std::size_t shard_count = 16);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    std::uint64_t evictions = 0;    ///< entries dropped by evict_dead()
    std::uint64_t compactions = 0;  ///< evict_dead() passes run
    Real hit_rate() const {
      std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<Real>(hits) /
                                    static_cast<Real>(total);
    }
  };
  Stats stats() const;
  std::size_t shard_count() const { return shards_.size(); }

  /// Returns true and fills `out` on a hit. Counts a hit/miss either way.
  bool lookup(const Key& key, Real& out) const;
  /// Inserts (idempotent: the first value stored for a key wins).
  void insert(Key key, Real value);
  void clear();

  /// Epoch compaction: erases every entry whose key mentions a stable id
  /// NOT in `live_ids` (subject or co-runner). Callers hand in the ids of
  /// the processes still running; everything about finished processes —
  /// including live-process entries keyed against finished co-runners — is
  /// dead weight, because retired stable ids never come back. Safe against
  /// concurrent lookup/insert. Returns the number of entries evicted.
  std::size_t evict_dead(std::span<const ProcessId> live_ids);

  /// Packs (stable id, stable co ids) into a map key. `co_stable` need not
  /// be sorted; negative ids are dropped.
  static Key make_key(ProcessId stable_i,
                      std::span<const ProcessId> co_stable) {
    return Key(stable_i, co_stable);
  }
  static Key make_key(ProcessId stable_i,
                      std::initializer_list<ProcessId> co_stable) {
    return Key(stable_i, std::span<const ProcessId>(co_stable));
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return key.hash();
    }
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, Real, KeyHash> map;
  };
  Shard& shard_for(const Key& key);
  const Shard& shard_for(const Key& key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> compactions_{0};
};

using DegradationCachePtr = std::shared_ptr<DegradationCache>;

/// Whether a base model's degradation() may be invoked from several threads
/// at once. Closed-form models (Synthetic, Tabular after construction) are
/// safe; SdcDegradationModel memoizes internally without locks and is not.
enum class BaseModelConcurrency {
  Serialized,      ///< miss computations are serialized behind one mutex
  ConcurrentSafe,  ///< base model may be called concurrently
};

/// Decorator memoizing degradation() into a shared DegradationCache.
///
/// `stable_ids` maps the wrapped model's local process ids to the stable
/// ids used for cache keys (empty = identity: local ids are already
/// stable). A negative stable id marks an inert process (padding): its own
/// degradation bypasses the cache and it is dropped from co-runner keys.
class CachingDegradationModel final : public DegradationModel {
 public:
  CachingDegradationModel(
      DegradationModelPtr base, DegradationCachePtr cache,
      std::vector<ProcessId> stable_ids = {},
      BaseModelConcurrency concurrency = BaseModelConcurrency::Serialized);

  Real degradation(ProcessId i, std::span<const ProcessId> co) const override;
  Real solo_time(ProcessId i) const override { return base_->solo_time(i); }
  Real pressure(ProcessId i) const override { return base_->pressure(i); }

  const DegradationCache& cache() const { return *cache_; }

 private:
  ProcessId stable_of(ProcessId local) const {
    if (stable_ids_.empty()) return local;
    COSCHED_EXPECTS(local >= 0 &&
                    static_cast<std::size_t>(local) < stable_ids_.size());
    return stable_ids_[static_cast<std::size_t>(local)];
  }

  DegradationModelPtr base_;
  DegradationCachePtr cache_;
  std::vector<ProcessId> stable_ids_;
  BaseModelConcurrency concurrency_;
  mutable std::mutex base_mutex_;  ///< guards base_ in Serialized mode
};

}  // namespace cosched

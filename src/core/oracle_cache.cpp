#include "core/oracle_cache.hpp"

#include <algorithm>
#include <cstring>

namespace cosched {

namespace {

std::size_t round_up_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

DegradationCache::Key::Key(ProcessId subject, std::span<const ProcessId> co) {
  std::size_t size = 1;
  for (ProcessId p : co)
    if (p >= 0) ++size;
  size_ = static_cast<std::uint32_t>(size);
  if (spilled()) heap_ = new ProcessId[size];
  ProcessId* ids = storage();
  ids[0] = subject;
  std::size_t at = 1;
  for (ProcessId p : co)
    if (p >= 0) ids[at++] = p;
  std::sort(ids + 1, ids + size);
}

DegradationCache::Key::Key(const Key& other) : size_(other.size_) {
  if (spilled()) heap_ = new ProcessId[size_];
  std::memcpy(storage(), other.ids().data(), size_ * sizeof(ProcessId));
}

DegradationCache::Key::Key(Key&& other) noexcept : size_(other.size_) {
  if (spilled()) {
    heap_ = other.heap_;
    other.size_ = 0;
  } else {
    std::memcpy(inline_, other.inline_, size_ * sizeof(ProcessId));
  }
}

DegradationCache::Key::~Key() {
  if (spilled()) delete[] heap_;
}

bool DegradationCache::Key::operator==(const Key& other) const {
  return size_ == other.size_ &&
         std::memcmp(ids().data(), other.ids().data(),
                     size_ * sizeof(ProcessId)) == 0;
}

std::size_t DegradationCache::Key::hash() const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ size_;
  for (ProcessId id : ids()) {
    h ^= static_cast<std::uint32_t>(id);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h);
}

DegradationCache::DegradationCache(std::size_t shard_count) {
  std::size_t n = round_up_pow2(std::max<std::size_t>(shard_count, 1));
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

DegradationCache::Shard& DegradationCache::shard_for(const Key& key) {
  return *shards_[key.hash() & (shards_.size() - 1)];
}

const DegradationCache::Shard& DegradationCache::shard_for(
    const Key& key) const {
  return *shards_[key.hash() & (shards_.size() - 1)];
}

bool DegradationCache::lookup(const Key& key, Real& out) const {
  const Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  out = it->second;
  return true;
}

void DegradationCache::insert(Key key, Real value) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.map.emplace(std::move(key), value);
}

void DegradationCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

std::size_t DegradationCache::evict_dead(std::span<const ProcessId> live_ids) {
  // Erase an entry on the first dead id of its key (subject or co-runner).
  std::vector<bool> alive;
  for (ProcessId id : live_ids) {
    if (id < 0) continue;
    std::size_t idx = static_cast<std::size_t>(id);
    if (idx >= alive.size()) alive.resize(idx + 1, false);
    alive[idx] = true;
  }
  auto is_live = [&](ProcessId id) {
    return id >= 0 && static_cast<std::size_t>(id) < alive.size() &&
           alive[static_cast<std::size_t>(id)];
  };
  std::size_t evicted = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (!std::ranges::all_of(it->first.ids(), is_live)) {
        it = shard->map.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return evicted;
}

DegradationCache::Stats DegradationCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    s.entries += shard->map.size();
  }
  return s;
}

CachingDegradationModel::CachingDegradationModel(
    DegradationModelPtr base, DegradationCachePtr cache,
    std::vector<ProcessId> stable_ids, BaseModelConcurrency concurrency)
    : base_(std::move(base)),
      cache_(std::move(cache)),
      stable_ids_(std::move(stable_ids)),
      concurrency_(concurrency) {
  COSCHED_EXPECTS(base_ != nullptr);
  COSCHED_EXPECTS(cache_ != nullptr);
}

Real CachingDegradationModel::degradation(
    ProcessId i, std::span<const ProcessId> co) const {
  ProcessId stable_i = stable_of(i);
  if (stable_i < 0) return base_->degradation(i, co);  // inert padding

  // Reused per thread: the key itself is inline for u <= 8, so a lookup
  // allocates nothing once this buffer has grown.
  thread_local std::vector<ProcessId> co_stable;
  co_stable.clear();
  for (ProcessId p : co) co_stable.push_back(stable_of(p));
  DegradationCache::Key key = DegradationCache::make_key(stable_i, co_stable);

  Real value = 0.0;
  if (cache_->lookup(key, value)) return value;
  if (concurrency_ == BaseModelConcurrency::Serialized) {
    std::lock_guard<std::mutex> lock(base_mutex_);
    value = base_->degradation(i, co);
  } else {
    value = base_->degradation(i, co);
  }
  cache_->insert(std::move(key), value);
  return value;
}

}  // namespace cosched

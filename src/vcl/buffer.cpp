#include "vcl/buffer.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "vcl/device.hpp"

namespace dfg::vcl {

namespace {

struct Block {
  StoragePool* owner;
  std::unique_ptr<float[]> storage;
};

/// The process-wide free list and its accounting.
struct FreeList {
  std::mutex mutex;
  std::multimap<std::size_t, Block> blocks;  // keyed by element count
  std::size_t live = 0;
  std::size_t retained = 0;
  std::size_t peak = 0;
};

/// Never destroyed: buffers released during static destruction still
/// find it.
FreeList& free_list() {
  static FreeList* const instance = new FreeList;
  return *instance;
}

}  // namespace

StoragePool::~StoragePool() {
  FreeList& list = free_list();
  // Declared before the lock: the blocks are freed after it is dropped.
  std::vector<std::unique_ptr<float[]>> freed;
  std::lock_guard<std::mutex> lock(list.mutex);
  for (auto it = list.blocks.begin(); it != list.blocks.end();) {
    if (it->second.owner != this) {
      ++it;
      continue;
    }
    freed.push_back(std::move(it->second.storage));
    it = list.blocks.erase(it);
  }
  list.retained -= retained_;
}

std::unique_ptr<float[]> StoragePool::acquire(std::size_t elements) {
  if (elements == 0) return nullptr;
  const std::size_t bytes = elements * sizeof(float);
  FreeList& list = free_list();
  std::vector<std::unique_ptr<float[]>> trimmed;  // freed unlocked
  {
    std::lock_guard<std::mutex> lock(list.mutex);
    list.live += bytes;
    list.peak = std::max(list.peak, list.live);
    if (const auto it = list.blocks.find(elements);
        it != list.blocks.end()) {
      it->second.owner->retained_ -= bytes;
      list.retained -= bytes;
      std::unique_ptr<float[]> storage = std::move(it->second.storage);
      list.blocks.erase(it);
      return storage;
    }
    while (list.retained + list.live > list.peak) {
      const auto largest = std::prev(list.blocks.end());
      const std::size_t freed = largest->first * sizeof(float);
      largest->second.owner->retained_ -= freed;
      list.retained -= freed;
      trimmed.push_back(std::move(largest->second.storage));
      list.blocks.erase(largest);
    }
  }
  try {
    return std::unique_ptr<float[]>(new float[elements]);
  } catch (...) {
    std::lock_guard<std::mutex> lock(list.mutex);
    list.live -= bytes;
    throw;
  }
}

void StoragePool::recycle(std::unique_ptr<float[]> storage,
                          std::size_t elements) {
  if (!storage) return;
  const std::size_t bytes = elements * sizeof(float);
  FreeList& list = free_list();
  std::lock_guard<std::mutex> lock(list.mutex);
  list.live -= bytes;
  list.retained += bytes;
  retained_ += bytes;
  list.blocks.emplace(elements, Block{this, std::move(storage)});
}

std::size_t StoragePool::retained_bytes() const {
  std::lock_guard<std::mutex> lock(free_list().mutex);
  return retained_;
}

StoragePool::Totals StoragePool::totals() {
  FreeList& list = free_list();
  std::lock_guard<std::mutex> lock(list.mutex);
  return Totals{list.live, list.retained, list.peak};
}

Buffer::Buffer(Device& device, std::size_t elements) : device_(&device) {
  const std::size_t bytes = elements * sizeof(float);
  // The fault injector sees the allocation before the tracker commits, so
  // an injected DeviceOutOfMemory (scheduled or synthetic-capacity) leaves
  // the tracker untouched, exactly like a real over-capacity failure.
  device_->fault().on_alloc(bytes, device_->memory().in_use(),
                            device_->memory().capacity());
  device_->memory().reserve(bytes);
  {
    obs::MetricsRegistry& reg = obs::metrics();
    reg.gauge_max(reg.gauge("dfgen_vcl_buffer_high_water_bytes",
                            {{"device", device_->spec().name}}),
                  device_->memory().high_water());
  }
  // Reserve happened first: if it throws, no storage is taken and the
  // tracker is untouched; if the host allocation fails, the reservation is
  // returned.
  try {
    storage_ = device_->storage().acquire(elements);
  } catch (...) {
    device_->memory().release(bytes);
    throw;
  }
  size_ = elements;
}

Buffer::~Buffer() { release(); }

Buffer::Buffer(Buffer&& other) noexcept
    : device_(std::exchange(other.device_, nullptr)),
      storage_(std::move(other.storage_)),
      size_(std::exchange(other.size_, 0)) {}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    release();
    device_ = std::exchange(other.device_, nullptr);
    storage_ = std::move(other.storage_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void Buffer::release() {
  if (device_ != nullptr) {
    device_->memory().release(bytes());
    device_->storage().recycle(std::move(storage_), size_);
    device_ = nullptr;
    size_ = 0;
  }
}

Buffer Device::allocate(std::size_t elements) {
  for (;;) {
    try {
      return Buffer(*this, elements);
    } catch (const DeviceOutOfMemory&) {
      // Only genuine capacity pressure (real or synthetic) justifies
      // shrinking the resident pool. A quota veto or a scheduled alloc
      // fault throws the same type while the device itself has room —
      // evicting residents would not change their outcome, so those
      // surface unchanged.
      if (elements * sizeof(float) <= effective_available()) throw;
      if (resident_.evict_lru_unpinned() == 0) throw;
    }
  }
}

}  // namespace dfg::vcl

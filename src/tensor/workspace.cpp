#include "tensor/workspace.hpp"

#include <atomic>
#include <new>
#include <stdexcept>

namespace salnov {
namespace {

// Alignment of every returned buffer; also the rounding unit of allocation
// sizes so consecutive buffers stay aligned.
constexpr int64_t kAlignBytes = 64;
constexpr int64_t kAlignFloats = kAlignBytes / static_cast<int64_t>(sizeof(float));

// Smallest chunk the arena will request: 256 KiB. Small allocations share
// one chunk; a request larger than this gets a chunk of exactly its size.
constexpr int64_t kMinChunkFloats = int64_t{1} << 16;

std::atomic<int64_t> g_heap_allocations{0};

int64_t round_up(int64_t count) {
  return (count + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

}  // namespace

Workspace::~Workspace() {
  for (Chunk& chunk : chunks_) {
    ::operator delete(chunk.data, std::align_val_t{kAlignBytes});
  }
}

float* Workspace::alloc_floats(int64_t count) {
  if (count < 0) throw std::invalid_argument("Workspace: negative allocation");
  const int64_t need = round_up(count);
  // Advance through existing chunks looking for room. Skipped space in a
  // partially-filled chunk is reclaimed when the enclosing scope releases.
  while (cur_chunk_ < chunks_.size()) {
    Chunk& chunk = chunks_[cur_chunk_];
    if (chunk.capacity - cur_offset_ >= need) {
      float* ptr = chunk.data + cur_offset_;
      cur_offset_ += need;
      return ptr;
    }
    ++cur_chunk_;
    cur_offset_ = 0;
  }
  // Geometric growth: a new chunk is at least as large as everything
  // reserved so far, so total capacity at least doubles per heap trip. A
  // pipeline whose shapes grow (batch-1 warm-up followed by batch-B panels
  // in the serving cluster) reaches its new high-water mark in O(log B)
  // allocations instead of one chunk per enlarged request.
  int64_t reserved_floats = 0;
  for (const Chunk& existing : chunks_) reserved_floats += existing.capacity;
  int64_t capacity = need > kMinChunkFloats ? need : kMinChunkFloats;
  if (reserved_floats > capacity) capacity = reserved_floats;
  Chunk chunk;
  chunk.data = static_cast<float*>(::operator new(
      static_cast<size_t>(capacity) * sizeof(float), std::align_val_t{kAlignBytes}));
  chunk.capacity = capacity;
  chunks_.push_back(chunk);
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  cur_chunk_ = chunks_.size() - 1;
  cur_offset_ = need;
  return chunk.data;
}

Workspace& Workspace::tls() {
  static thread_local Workspace workspace;
  return workspace;
}

int64_t Workspace::heap_allocation_count() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

}  // namespace salnov

// Batched page-read backends for the storage layer (ISSUE 10 tentpole).
//
// A BatchReadEngine takes a batch of page reads against one fd and resolves
// all of them, submitting every read before waiting on any, so a batch of
// independent lookups overlaps its page faults instead of serializing them:
//
//   io_uring  raw io_uring syscalls (no liburing dependency): one
//             io_uring_enter submits the wave and waits for all of its
//             completions. Kernels or sandboxes that refuse
//             io_uring_setup make the factory fall back at runtime.
//   threads   a small pread thread pool — the portable fallback with the
//             same submit-all-then-wait shape (hosted CI runners disable
//             io_uring, so this is the backend CI forces). A one-page
//             batch runs as a plain pread (SyncReadEngine).
//
// Selection is runtime, via the FITREE_IO_BACKEND knob (common/options.h):
// kAuto probes io_uring once and falls back to the thread pool; kThreads
// skips the probe. Engines only move bytes — page verification
// (CRC/type/id) stays in the caller (SegmentFileReader), exactly as on
// the synchronous path.

#ifndef FITREE_STORAGE_ASYNC_IO_H_
#define FITREE_STORAGE_ASYNC_IO_H_

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/options.h"
#include "storage/page.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#define FITREE_HAS_IO_URING 1
#else
#define FITREE_HAS_IO_URING 0
#endif

namespace fitree::storage {

// Batched-read queue depth: the io_uring ring's entry count (larger
// batches submit in waves) and the cap on the pread pool's fan-out.
inline constexpr size_t kIoDepth = 64;

// Executes one batch of page reads against `fd`. Implementations are bound
// to a single caller at a time (the pool and reader are single-threaded per
// instance); the thread-pool engine owns threads but its ReadBatch is still
// one-batch-at-a-time.
class BatchReadEngine {
 public:
  virtual ~BatchReadEngine() = default;

  // The backend actually in effect (after runtime fallback), for stats and
  // bench labels.
  virtual const char* name() const = 0;

  // Reads page_bytes at offset reqs[i].page_id * page_bytes into
  // reqs[i].out for all i, setting each request's `ok` to "full page read".
  virtual void ReadBatch(int fd, size_t page_bytes, PageReadRequest* reqs,
                         size_t n) = 0;
};

// Sequential preads: the thread pool's one-page path.
class SyncReadEngine final : public BatchReadEngine {
 public:
  const char* name() const override { return "sync"; }

  void ReadBatch(int fd, size_t page_bytes, PageReadRequest* reqs,
                 size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      const off_t off = static_cast<off_t>(reqs[i].page_id) *
                        static_cast<off_t>(page_bytes);
      reqs[i].ok = ::pread(fd, reqs[i].out, page_bytes, off) ==
                   static_cast<ssize_t>(page_bytes);
    }
  }
};

// pread thread pool: submit-all-then-wait with portable syscalls. Threads
// start lazily on the first batch, so instances that never batch (or pools
// over in-memory fakes) cost nothing.
class ThreadPoolReadEngine final : public BatchReadEngine {
 public:
  ThreadPoolReadEngine() : threads_(std::min<size_t>(kIoDepth, 8)) {}

  ~ThreadPoolReadEngine() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  const char* name() const override { return "threads"; }

  void ReadBatch(int fd, size_t page_bytes, PageReadRequest* reqs,
                 size_t n) override {
    if (n == 0) return;
    if (n == 1) {  // no overlap to win; skip the handoff
      SyncReadEngine{}.ReadBatch(fd, page_bytes, reqs, n);
      return;
    }
    Start();
    {
      std::lock_guard<std::mutex> lock(mu_);
      fd_ = fd;
      page_bytes_ = page_bytes;
      for (size_t i = 0; i < n; ++i) queue_.push_back(&reqs[i]);
      pending_ = n;
    }
    work_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
  }

 private:
  void Start() {
    if (!workers_.empty()) return;
    workers_.reserve(threads_);
    for (size_t i = 0; i < threads_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      PageReadRequest* req = queue_.back();
      queue_.pop_back();
      const int fd = fd_;
      const size_t page_bytes = page_bytes_;
      lock.unlock();
      const off_t off =
          static_cast<off_t>(req->page_id) * static_cast<off_t>(page_bytes);
      req->ok = ::pread(fd, req->out, page_bytes, off) ==
                static_cast<ssize_t>(page_bytes);
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  const size_t threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<PageReadRequest*> queue_;
  std::vector<std::thread> workers_;
  size_t pending_ = 0;
  int fd_ = -1;
  size_t page_bytes_ = 0;
  bool stop_ = false;
};

#if FITREE_HAS_IO_URING

// io_uring over raw syscalls (the container/toolchain has the kernel UAPI
// header but no liburing). One ring per engine instance; batches larger
// than the ring submit in waves. Single-threaded use only, matching the
// reader/pool contract.
class UringReadEngine final : public BatchReadEngine {
 public:
  // Factory: returns nullptr when the kernel (or a seccomp sandbox)
  // refuses io_uring_setup, so callers can fall back at runtime.
  static std::unique_ptr<UringReadEngine> TryCreate() {
    auto engine =
        std::unique_ptr<UringReadEngine>(new UringReadEngine());
    if (!engine->Init(kIoDepth)) return nullptr;
    return engine;
  }

  ~UringReadEngine() override {
    if (sq_ring_ != MAP_FAILED) ::munmap(sq_ring_, sq_ring_bytes_);
    if (cq_ring_ != MAP_FAILED && cq_ring_ != sq_ring_) {
      ::munmap(cq_ring_, cq_ring_bytes_);
    }
    if (sqes_ != MAP_FAILED) ::munmap(sqes_, sqe_bytes_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  const char* name() const override { return "uring"; }

  void ReadBatch(int fd, size_t page_bytes, PageReadRequest* reqs,
                 size_t n) override {
    size_t next = 0;
    while (next < n) {
      const size_t wave = std::min<size_t>(n - next, sq_entries_);
      unsigned tail = *sq_tail_;
      for (size_t i = 0; i < wave; ++i) {
        const unsigned idx = tail & *sq_mask_;
        io_uring_sqe& sqe = sqes_typed_[idx];
        std::memset(&sqe, 0, sizeof(sqe));
        sqe.opcode = IORING_OP_READ;
        sqe.fd = fd;
        sqe.addr = reinterpret_cast<uint64_t>(reqs[next + i].out);
        sqe.len = static_cast<uint32_t>(page_bytes);
        sqe.off = static_cast<uint64_t>(reqs[next + i].page_id) *
                  static_cast<uint64_t>(page_bytes);
        sqe.user_data = next + i;
        sq_array_[idx] = idx;
        ++tail;
      }
      __atomic_store_n(sq_tail_, tail, __ATOMIC_RELEASE);
      size_t completed = 0;
      while (completed < wave) {
        const unsigned to_submit =
            completed == 0 ? static_cast<unsigned>(wave) : 0;
        const long ret = ::syscall(
            __NR_io_uring_enter, ring_fd_, to_submit,
            static_cast<unsigned>(wave - completed), IORING_ENTER_GETEVENTS,
            nullptr, 0);
        if (ret < 0 && errno != EINTR) {
          // Ring wedged: fail the wave's unresolved requests and bail.
          for (size_t i = 0; i < wave; ++i) reqs[next + i].ok = false;
          DrainCompletions(reqs, page_bytes);
          return;
        }
        completed += DrainCompletions(reqs, page_bytes);
      }
      next += wave;
    }
  }

 private:
  UringReadEngine() = default;

  bool Init(size_t depth) {
    io_uring_params params{};
    ring_fd_ = static_cast<int>(
        ::syscall(__NR_io_uring_setup, static_cast<unsigned>(depth), &params));
    if (ring_fd_ < 0) return false;

    sq_ring_bytes_ =
        params.sq_off.array + params.sq_entries * sizeof(unsigned);
    cq_ring_bytes_ =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    const bool single_mmap =
        (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap) {
      sq_ring_bytes_ = cq_ring_bytes_ = std::max(sq_ring_bytes_,
                                                 cq_ring_bytes_);
    }
    sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) return false;
    cq_ring_ = single_mmap
                   ? sq_ring_
                   : ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ring_fd_,
                            IORING_OFF_CQ_RING);
    if (cq_ring_ == MAP_FAILED) return false;
    sqe_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
    sqes_ = ::mmap(nullptr, sqe_bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
    if (sqes_ == MAP_FAILED) return false;

    auto* sq = static_cast<unsigned char*>(sq_ring_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    auto* cq = static_cast<unsigned char*>(cq_ring_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    sq_entries_ = params.sq_entries;
    sqes_typed_ = static_cast<io_uring_sqe*>(sqes_);
    return true;
  }

  size_t DrainCompletions(PageReadRequest* reqs, size_t page_bytes) {
    size_t drained = 0;
    unsigned head = *cq_head_;
    const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    while (head != tail) {
      const io_uring_cqe& cqe = cqes_[head & *cq_mask_];
      reqs[cqe.user_data].ok =
          cqe.res == static_cast<int32_t>(page_bytes);
      ++head;
      ++drained;
    }
    __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
    return drained;
  }

  int ring_fd_ = -1;
  void* sq_ring_ = MAP_FAILED;
  void* cq_ring_ = MAP_FAILED;
  void* sqes_ = MAP_FAILED;
  size_t sq_ring_bytes_ = 0;
  size_t cq_ring_bytes_ = 0;
  size_t sqe_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;
  io_uring_sqe* sqes_typed_ = nullptr;
  size_t sq_entries_ = 0;
};

#endif  // FITREE_HAS_IO_URING

// Runtime backend selection with graceful degradation: kAuto probes
// io_uring and falls back to the thread pool when the kernel or sandbox
// refuses it (hosted CI runners do).
inline std::unique_ptr<BatchReadEngine> MakeBatchReadEngine(
    [[maybe_unused]] IoBackend requested) {
#if FITREE_HAS_IO_URING
  if (requested == IoBackend::kAuto) {
    if (auto uring = UringReadEngine::TryCreate()) return uring;
  }
#endif
  return std::make_unique<ThreadPoolReadEngine>();
}

}  // namespace fitree::storage

#endif  // FITREE_STORAGE_ASYNC_IO_H_

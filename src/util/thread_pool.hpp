#pragma once
// Deterministic work-sharing thread pool behind the ML kernels, the tuner's
// lattice and leaf fan-outs, and the fleet engine. The front end is a chunked
// `parallel_for` / `parallel_reduce` pair with *static chunking*: chunk
// boundaries are a pure function of (begin, end, grain) and never of the
// thread count, so any computation whose chunks write disjoint outputs — and
// any reduction, since partials are combined in ascending chunk order —
// produces bit-identical results at 1, 2, 4 or 8 threads. Load balancing is
// dynamic (idle threads steal the next unclaimed chunk off a shared counter),
// which only changes *who* runs a chunk, never *what* the chunk computes.
//
// The submitting thread always participates: it drains chunks of its own job
// before blocking on completion, so a worker that submits a nested
// parallel_for can finish the nested job single-handedly even when every
// other worker is busy — nested submission cannot deadlock.
//
// Exceptions thrown by chunk bodies are captured per chunk; once a chunk has
// failed, unclaimed chunks are skipped, and the exception of the
// lowest-indexed failed chunk is rethrown on the submitting thread, which
// also releases every captured exception.
//
// A job wakes at most min(chunks, width) - 1 parked workers, each on its own
// condition variable; a worker outside a job's width stays parked.
//
// Engines address thread-private scratch (e.g. per-worker maze arrays)
// through the `worker_slot` argument of the chunk body: slot 0 is the
// submitting thread, slots 1..thread_count()-1 are pool workers. Slots are
// stable for the lifetime of the pool, which also gives observability a
// deterministic trace-lane assignment (see obs::Tracer::kPoolLaneBase).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace edacloud::util {

/// Worker slot of the calling thread: 0 for any thread outside a pool
/// (including every parallel_for submitter), 1.. for pool worker threads.
[[nodiscard]] int this_thread_pool_slot();

class ThreadPool {
 public:
  /// Chunk body: [chunk_begin, chunk_end) with its chunk index and the
  /// executing thread's worker slot. Determinism contract: outputs may
  /// depend on the range and chunk index, never on the slot (use the slot
  /// only to address scratch space that does not influence results).
  using ForBody = std::function<void(std::size_t chunk_begin,
                                     std::size_t chunk_end,
                                     std::size_t chunk_index,
                                     unsigned worker_slot)>;

  /// `threads` is the total width including the submitting thread; a pool of
  /// width N spawns N-1 workers. threads <= 1 spawns none (all inline).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total width: worker threads + the submitting thread.
  [[nodiscard]] int thread_count() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  [[nodiscard]] static std::size_t chunk_count(std::size_t begin,
                                               std::size_t end,
                                               std::size_t grain) {
    if (end <= begin) return 0;
    if (grain == 0) grain = 1;
    return (end - begin + grain - 1) / grain;
  }

  /// Run body over [begin, end) split into fixed chunks of `grain` indices
  /// (last chunk may be short). Blocks until every chunk completed.
  /// `max_threads` caps participation (0 = full width) without changing the
  /// chunking — results are identical under any cap.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const ForBody& body, int max_threads = 0);

  /// Ordered reduction: `chunk_fn(chunk_begin, chunk_end) -> T` runs per
  /// chunk in parallel; partials are folded left-to-right in chunk order
  /// starting from `init`, so floating-point results are bit-identical at
  /// any thread count (for a fixed grain).
  template <class T, class ChunkFn, class CombineFn>
  T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                    T init, const ChunkFn& chunk_fn,
                    const CombineFn& combine, int max_threads = 0) {
    const std::size_t chunks = chunk_count(begin, end, grain);
    if (chunks == 0) return init;
    std::vector<T> partials(chunks, init);
    parallel_for(
        begin, end, grain,
        [&](std::size_t b, std::size_t e, std::size_t c, unsigned) {
          partials[c] = chunk_fn(b, e);
        },
        max_threads);
    T accumulator = std::move(init);
    for (std::size_t c = 0; c < chunks; ++c) {
      accumulator = combine(std::move(accumulator), std::move(partials[c]));
    }
    return accumulator;
  }

 private:
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t chunk_total = 0;
    int width = 0;  // caller + workers with slot < width participate
    const ForBody* body = nullptr;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> chunks_done{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable done_cv;
    // (chunk index, exception) pairs, guarded by `mutex`.
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  };

  /// A parked worker's wake-up channel, guarded by queue_mutex_.
  struct Sleeper {
    std::condition_variable wake;
    bool parked = false;
  };

  void worker_loop(unsigned slot);
  /// First queued job `slot` may join, dropping jobs with no unclaimed
  /// chunks on the way; null when there is none. Caller holds queue_mutex_.
  std::shared_ptr<Job> joinable_job(unsigned slot);
  /// Claim and run chunks until none are left unclaimed.
  static void run_chunks(Job& job, unsigned slot);

  std::vector<std::thread> workers_;
  // One per worker (index slot - 1): a submitter wakes only parked workers
  // its job can use, at most one per chunk beyond its own.
  std::unique_ptr<Sleeper[]> sleepers_;
  std::mutex queue_mutex_;
  std::vector<std::shared_ptr<Job>> queue_;
  bool stop_ = false;
};

// ---- process-global pool ----------------------------------------------------
// The ML kernels, the tuner and the fleet engine share one process-global
// pool so that worker threads (and their trace lanes) are reused across
// calls. Resizing is only safe between parallel regions (CLI startup, bench
// harnesses) — never from inside a chunk body.

/// Default width used when a call site passes threads <= 0. Starts at 1, so
/// everything is serial until someone opts in (--threads,
/// set_global_thread_count).
[[nodiscard]] int global_thread_count();
void set_global_thread_count(int threads);

/// The global pool, grown (recreated) on demand so it can run `threads`-wide
/// jobs; never shrunk by this call.
ThreadPool& global_pool(int threads);

/// Scratch-array size an engine needs for per-slot state when running
/// `threads`-wide (0 = global default): max worker slot + 1.
[[nodiscard]] int parallel_slot_count(int threads);

/// parallel_for on the global pool. threads <= 0 uses the global default;
/// width 1 runs inline without instantiating the pool.
void parallel_for(int threads, std::size_t begin, std::size_t end,
                  std::size_t grain, const ThreadPool::ForBody& body);

/// Ordered parallel_reduce on the global pool (same determinism contract as
/// ThreadPool::parallel_reduce).
template <class T, class ChunkFn, class CombineFn>
T parallel_reduce(int threads, std::size_t begin, std::size_t end,
                  std::size_t grain, T init, const ChunkFn& chunk_fn,
                  const CombineFn& combine) {
  const std::size_t chunks = ThreadPool::chunk_count(begin, end, grain);
  if (chunks == 0) return init;
  std::vector<T> partials(chunks, init);
  parallel_for(threads, begin, end, grain,
               [&](std::size_t b, std::size_t e, std::size_t c, unsigned) {
                 partials[c] = chunk_fn(b, e);
               });
  T accumulator = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c) {
    accumulator = combine(std::move(accumulator), std::move(partials[c]));
  }
  return accumulator;
}

}  // namespace edacloud::util

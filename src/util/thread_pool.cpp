#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace edacloud::util {

namespace {

thread_local int t_pool_slot = 0;

}  // namespace

int this_thread_pool_slot() { return t_pool_slot; }

ThreadPool::ThreadPool(int threads) {
  const int worker_count = std::max(0, threads - 1);
  sleepers_ =
      std::make_unique<Sleeper[]>(static_cast<std::size_t>(worker_count));
  workers_.reserve(static_cast<std::size_t>(worker_count));
  for (int w = 0; w < worker_count; ++w) {
    workers_.emplace_back(
        [this, slot = static_cast<unsigned>(w) + 1] { worker_loop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    sleepers_[w].wake.notify_one();
  }
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_chunks(Job& job, unsigned slot) {
  for (;;) {
    const std::size_t chunk = job.next_chunk.fetch_add(1);
    if (chunk >= job.chunk_total) return;
    if (!job.failed.load(std::memory_order_acquire)) {
      const std::size_t chunk_begin = job.begin + chunk * job.grain;
      const std::size_t chunk_end = std::min(job.end, chunk_begin + job.grain);
      try {
        (*job.body)(chunk_begin, chunk_end, chunk, slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.mutex);
        job.errors.emplace_back(chunk, std::current_exception());
        job.failed.store(true, std::memory_order_release);
      }
    }
    if (job.chunks_done.fetch_add(1) + 1 == job.chunk_total) {
      {
        std::lock_guard<std::mutex> lock(job.mutex);
      }
      job.done_cv.notify_all();
    }
  }
}

std::shared_ptr<ThreadPool::Job> ThreadPool::joinable_job(unsigned slot) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->next_chunk.load() >= (*it)->chunk_total) {
      it = queue_.erase(it);
      continue;
    }
    if (static_cast<int>(slot) < (*it)->width) return *it;
    ++it;
  }
  return nullptr;
}

void ThreadPool::worker_loop(unsigned slot) {
  t_pool_slot = static_cast<int>(slot);
  Sleeper& self = sleepers_[slot - 1];
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      while (!stop_ && !(job = joinable_job(slot))) {
        self.parked = true;
        self.wake.wait(lock);
        self.parked = false;
      }
      if (stop_) return;
    }
    run_chunks(*job, slot);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, const ForBody& body,
                              int max_threads) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(begin, end, grain);
  int width = max_threads <= 0 ? thread_count()
                               : std::min(max_threads, thread_count());
  const unsigned caller_slot = static_cast<unsigned>(t_pool_slot);
  if (width <= 1 || chunks == 1 || workers_.empty()) {
    // Inline path: identical chunking, same-thread execution. The first
    // failing chunk's exception propagates directly (later chunks don't run,
    // matching the pooled path's skip-after-failure policy).
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const std::size_t chunk_begin = begin + chunk * grain;
      const std::size_t chunk_end = std::min(end, chunk_begin + grain);
      body(chunk_begin, chunk_end, chunk, caller_slot);
    }
    return;
  }

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->chunk_total = chunks;
  job->width = width;
  job->body = &body;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(job);
    // Wake parked workers the job can use, one per chunk beyond the
    // caller's; a worker already awake joins on its own.
    std::size_t helpers =
        std::min(chunks, static_cast<std::size_t>(width)) - 1;
    for (int slot = 1; slot < width && helpers > 0; ++slot) {
      Sleeper& sleeper = sleepers_[slot - 1];
      if (!sleeper.parked) continue;
      sleeper.parked = false;
      sleeper.wake.notify_one();
      --helpers;
    }
  }

  run_chunks(*job, caller_slot);
  // Captured exceptions move here, so this thread releases them whichever
  // thread drops the last reference to the job.
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done_cv.wait(
        lock, [&] { return job->chunks_done.load() == job->chunk_total; });
    errors = std::move(job->errors);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job), queue_.end());
  }
  if (!errors.empty()) {
    auto lowest = std::min_element(
        errors.begin(), errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(lowest->second);
  }
}

// ---- process-global pool ----------------------------------------------------

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
int g_default_threads = 1;

/// Caller must hold g_pool_mutex. Recreates the pool only when it is too
/// narrow; a running pool is never resized (see header: resizing is only
/// safe between parallel regions).
ThreadPool& pool_with_width(int threads) {
  if (!g_pool || g_pool->thread_count() < threads) {
    g_pool.reset();  // join old workers before spawning the wider pool
    g_pool = std::make_unique<ThreadPool>(std::max(threads, g_default_threads));
  }
  return *g_pool;
}

/// Caller must hold g_pool_mutex.
int resolve_width_locked(int threads) {
  return threads > 0 ? threads : g_default_threads;
}

}  // namespace

int global_thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return g_default_threads;
}

void set_global_thread_count(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_default_threads = std::max(1, threads);
  if (g_pool && g_pool->thread_count() != g_default_threads) g_pool.reset();
}

ThreadPool& global_pool(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return pool_with_width(std::max(1, resolve_width_locked(threads)));
}

int parallel_slot_count(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  const int width = resolve_width_locked(threads);
  if (width <= 1) return std::max(1, this_thread_pool_slot() + 1);
  return pool_with_width(width).thread_count();
}

void parallel_for(int threads, std::size_t begin, std::size_t end,
                  std::size_t grain, const ThreadPool::ForBody& body) {
  int width = threads;
  ThreadPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    width = resolve_width_locked(threads);
    if (width > 1) pool = &pool_with_width(width);
  }
  if (width <= 1) {
    // Serial fast path: never instantiates the pool, same chunking.
    if (end <= begin) return;
    if (grain == 0) grain = 1;
    const std::size_t chunks = ThreadPool::chunk_count(begin, end, grain);
    const unsigned caller_slot = static_cast<unsigned>(this_thread_pool_slot());
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const std::size_t chunk_begin = begin + chunk * grain;
      const std::size_t chunk_end = std::min(end, chunk_begin + grain);
      body(chunk_begin, chunk_end, chunk, caller_slot);
    }
    return;
  }
  pool->parallel_for(begin, end, grain, body, width);
}

}  // namespace edacloud::util

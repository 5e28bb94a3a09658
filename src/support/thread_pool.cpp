#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "support/types.hpp"

namespace mcgp {

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::clamp(num_threads - 1, 0, 256);
  workers_.reserve(to_size(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool::Task ThreadPool::pop_task() {
  Task task = std::move(queue_.back());
  queue_.pop_back();
  return task;
}

void ThreadPool::worker_loop() {
  // Hand-over-hand locking: hold mu_ while inspecting the queue, drop it
  // around the task body. The spurious-wakeup loop is written out so the
  // reads of stop_/queue_ it tests stay visible to the static analysis.
  mu_.lock();
  for (;;) {
    while (!stop_ && queue_.empty()) cv_.wait(mu_);
    if (stop_) break;  // pool is destroyed only after all groups joined
    Task task = pop_task();
    mu_.unlock();
    execute(std::move(task));
    mu_.lock();
  }
  mu_.unlock();
}

void ThreadPool::execute(Task task) {
  std::exception_ptr err;
  try {
    task.fn();
  } catch (...) {
    err = std::current_exception();
  }
  {
    MutexLock lk(mu_);
    // Tasks only ever enter their own pool's queue, so the group behind
    // this task was built on this pool: holding mu_ IS holding
    // task.group->pool_->mu_. Spell that out for the analysis.
    task.group->pool_->mu_.AssertHeld();
    if (err != nullptr && task.group->error_ == nullptr) {
      task.group->error_ = err;
    }
    --task.group->pending_;
  }
  // Wake both idle workers and any thread blocked in TaskGroup::wait().
  cv_.notify_all();
}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destructor join: errors were abandoned by not calling wait().
  }
}

void TaskGroup::run_serial(std::function<void()> fn) {
  // Serial mode: execute inline, surface errors at wait() like the
  // pooled mode does.
  try {
    fn();
  } catch (...) {
    if (error_ == nullptr) error_ = std::current_exception();
  }
}

void TaskGroup::wait_serial() {
  if (error_ != nullptr) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void TaskGroup::run(std::function<void()> fn) {
  if (pool_ == nullptr) {
    run_serial(std::move(fn));
    return;
  }
  {
    MutexLock lk(pool_->mu_);
    ++pending_;
    pool_->queue_.push_back(ThreadPool::Task{std::move(fn), this});
  }
  pool_->cv_.notify_one();
}

void TaskGroup::wait() {
  if (pool_ == nullptr) {
    wait_serial();
    return;
  }
  pool_->mu_.lock();
  while (pending_ > 0) {
    if (!pool_->queue_.empty()) {
      ThreadPool::Task task = pool_->pop_task();
      pool_->mu_.unlock();
      pool_->execute(std::move(task));
      pool_->mu_.lock();
      continue;
    }
    pool_->cv_.wait(pool_->mu_);
  }
  std::exception_ptr err = error_;
  error_ = nullptr;
  pool_->mu_.unlock();
  if (err != nullptr) std::rethrow_exception(err);
}

}  // namespace mcgp

// Minimal task-based thread pool for the fork/join parallelism of the
// recursive-bisection driver.
//
// One shared LIFO task queue (newest-first keeps the working set of a
// deep recursion hot), N-1 worker threads, and the submitting thread as
// the N-th executor: TaskGroup::wait() does not block idly — it pops and
// runs queued tasks until its own tasks are done ("work helping"), so
// nested fork/join from inside a task can never deadlock the pool.
//
// Determinism contract: the pool makes NO ordering guarantees between
// tasks of a group. Callers that need reproducible results must make each
// task's output independent of execution order (the partitioner does this
// by deriving every task's RNG stream from the structural position of its
// subproblem, never from a shared generator).
//
// A TaskGroup constructed with a null pool runs every task inline in
// run(), which is the serial mode: identical code path, no threads, no
// queue, exceptions still surfaced at wait().
//
// Lock discipline (statically checked under clang -Wthread-safety): the
// queue, the stop flag, and every group's pending/error bookkeeping are
// guarded by the pool's one mutex. Group state is declared guarded by
// pool_->mu_; tasks only ever enter their own pool's queue, so the pool
// executing a task holds exactly that mutex.
#pragma once

#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"
#include "support/types.hpp"

namespace mcgp {

class TaskGroup;

class ThreadPool {
 public:
  /// Spawns num_threads - 1 workers; the caller is the remaining executor.
  /// num_threads <= 1 yields a pool with no workers (still correct: every
  /// task runs inside TaskGroup::wait() on the submitting thread).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that can execute tasks: workers plus the caller in wait().
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void worker_loop();
  /// Pop the newest queued task. Caller must hold mu_ and have checked
  /// that the queue is non-empty.
  Task pop_task() MCGP_REQUIRES(mu_);
  /// Run the task and do the group completion bookkeeping.
  void execute(Task task) MCGP_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;  ///< queue activity + task completions
  std::deque<Task> queue_ MCGP_GUARDED_BY(mu_);
  bool stop_ MCGP_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// A set of forked tasks joined with wait(). Must not be destroyed with
/// tasks still pending (the destructor joins, swallowing errors — call
/// wait() to observe them). Groups may nest freely: a task may create its
/// own group and wait on it.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Fork a task (or run it inline when the pool is null). The first
  /// exception thrown by any task of the group is rethrown from wait().
  void run(std::function<void()> fn);

  /// Join: executes queued tasks on the calling thread while this group
  /// has tasks in flight elsewhere.
  void wait();

 private:
  friend class ThreadPool;

  /// Serial-mode bodies of run()/wait(). pool_ == nullptr means this
  /// group never leaves the constructing thread, so there is no mutex to
  /// hold over pending_/error_ — invisible to the static analysis, hence
  /// the opt-out.
  void run_serial(std::function<void()> fn) MCGP_NO_THREAD_SAFETY_ANALYSIS;
  void wait_serial() MCGP_NO_THREAD_SAFETY_ANALYSIS;

  ThreadPool* pool_;
  int pending_ MCGP_GUARDED_BY(pool_->mu_) = 0;  ///< serial mode: unused
  std::exception_ptr error_ MCGP_GUARDED_BY(pool_->mu_);  ///< first failure
};

}  // namespace mcgp

#pragma once

// Fork-join work-stealing runtime with continuation stealing.
//
// This is the substrate PINT runs on - a library-level reproduction of the
// Cilk execution model:
//
//  * `spawn(f)` pushes the *continuation* of the caller onto the worker's
//    deque and runs the child immediately (work-first).  An un-stolen
//    continuation is popped and resumed by the same worker, so execution
//    between successful steals follows the 1-worker (sequential) order.
//  * `sync()` waits for the children of the innermost SpawnScope.  A sync is
//    *trivial* (a no-op) when no continuation of the scope was stolen.
//  * Every spawned task runs on a pooled fiber; per-task stacks stand in for
//    the cactus stack, and fiber reuse reproduces the stack-reuse hazard the
//    detector must handle (paper §III-F).
//
// Detectors observe execution through SchedulerHooks, whose callbacks map
// 1:1 onto Algorithm 1 of the paper (Spawn / SpawnReturn / Continuation /
// Sync / AfterSync) plus task-retire, where a detector may take ownership of
// a finished task's fiber to defer its reuse until the access history has
// processed the return strand.
//
// THREADING RULE: user code may migrate between OS threads at any spawn or
// sync.  Never cache the current Worker (or anything reached through
// thread_local) across those calls; always re-fetch via current_worker(),
// which is deliberately noinline in scheduler.cpp.  The one inline TLS read
// is the access hook's detail::cursor() (detect/instrument.hpp): it reads
// the thread pointer in an `asm volatile`, which cannot be cached.

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/deque.hpp"
#include "support/assert.hpp"
#include "support/fiber.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"

namespace pint::rt {

class Scheduler;
class Worker;
struct TaskFrame;
struct SyncBlock;

/// Detector callbacks; every method corresponds to a runtime event the
/// paper's Algorithm 1 instruments. All default to no-ops.
class SchedulerHooks {
 public:
  virtual ~SchedulerHooks() = default;
  virtual void on_run_begin(Scheduler&) {}
  virtual void on_run_end(Scheduler&) {}
  /// Root strand begins (before the root closure runs).
  virtual void on_root_start(Worker&, TaskFrame&) {}
  /// Root closure finished; its final strand ends.
  virtual void on_root_end(Worker&, TaskFrame&) {}
  /// Strand of the parent (2nd arg) ends at a spawn; the child (4th arg) is
  /// about to run.
  virtual void on_spawn(Worker&, TaskFrame& /*parent*/, SyncBlock&,
                        TaskFrame& /*child*/) {}
  /// Final strand of the child (the return node) ends. The bool says whether
  /// the parent's continuation for this spawn was stolen.
  virtual void on_spawn_return(Worker&, TaskFrame& /*child*/,
                               bool /*continuation_stolen*/) {}
  /// The continuation strand of the parent frame is about to execute; on a
  /// thief if stolen, else on the same worker right after the child returned.
  virtual void on_continuation(Worker&, TaskFrame& /*parent*/, bool /*stolen*/) {}
  /// Strand leading into a sync ends (before any wait).
  virtual void on_sync(Worker&, TaskFrame&, SyncBlock&, bool /*trivial*/) {}
  /// Sync passed; the sync-node strand begins.
  virtual void on_after_sync(Worker&, TaskFrame&, SyncBlock&, bool /*trivial*/) {}
  /// Called from the worker loop after a finished task's fiber has been
  /// switched away from. Return true to take ownership of the frame (defer
  /// its reuse); the owner must eventually call Scheduler::release_frame.
  virtual bool on_task_retire(Worker&, TaskFrame&) { return false; }
};

/// One sync block (one Cilk "sync region") of an executing task. Lives on
/// the task's fiber stack inside a SpawnScope; shared with children and
/// thieves, hence the atomics.
struct SyncBlock {
  /// 1 (parent's token, released at sync) + number of outstanding children.
  std::atomic<std::uint32_t> join{1};
  /// Set by a thief that steals a continuation belonging to this block.
  std::atomic<bool> steal_happened{false};
  /// Parent fiber fully suspended at the sync; last child may resume it.
  std::atomic<bool> parked{false};
  TaskFrame* frame = nullptr;  // owning frame
  SyncBlock* prev = nullptr;   // enclosing scope
  void* det_sync = nullptr;    // detector slot: the block's sync-node strand
};

/// Runtime state of one task (root or spawned child), paired 1:1 with a
/// fiber. Pooled; may be held back by a detector via on_task_retire.
struct TaskFrame {
  Fiber* fiber = nullptr;
  Scheduler* sched = nullptr;
  TaskFrame* parent_frame = nullptr;  // spawner (null for root)
  SyncBlock* parent_scope = nullptr;  // scope in the parent this task joins
  SyncBlock* scope = nullptr;         // innermost active scope of this task
  void* det_strand = nullptr;         // detector slot: current strand
  void* det_cont = nullptr;           // detector slot: pending continuation strand
  /// Optional user label for this task (set via the named spawn overloads;
  /// must point at storage outliving the run, e.g. a string literal).
  /// Race reports carry it so a report reads "strand 'merge-left' ...".
  const char* task_name = nullptr;

  // Type-erased closure (inline storage; heap fallback for big captures).
  static constexpr std::size_t kInlineClosure = 256;
  alignas(std::max_align_t) unsigned char closure_buf[kInlineClosure];
  void* closure_heap = nullptr;
  void (*invoke)(TaskFrame*) = nullptr;

  template <class F>
  void set_closure(F&& f) {
    using Fn = std::decay_t<F>;
    void* mem;
    if constexpr (sizeof(Fn) <= kInlineClosure) {
      mem = closure_buf;
    } else {
      closure_heap = ::operator new(sizeof(Fn));
      mem = closure_heap;
    }
    new (mem) Fn(std::forward<F>(f));
    invoke = [](TaskFrame* self) {
      void* p = self->closure_heap ? self->closure_heap : self->closure_buf;
      Fn* fn = static_cast<Fn*>(p);
      (*fn)();
      fn->~Fn();
      if (self->closure_heap) {
        ::operator delete(self->closure_heap);
        self->closure_heap = nullptr;
      }
    };
  }
};

/// Returns the worker executing the calling code. noinline on purpose: the
/// result must never be cached across a spawn/sync (fiber migration).
Worker* current_worker();

class Worker {
 public:
  Worker(Scheduler& s, int id, std::uint64_t seed)
      : sched_(&s), id_(id), rng_(seed) {}

  int id() const { return id_; }
  Scheduler& scheduler() { return *sched_; }
  TaskFrame* current_frame() { return cur_frame_; }
  WsDeque& deque() { return deque_; }
  std::uint64_t steals() const { return steals_; }

  /// Detector slot: per-core-worker state (e.g. PINT's trace list).
  void* det_worker = nullptr;

 private:
  friend class Scheduler;
  friend struct SpawnScope;
  friend void spawn_prepared(TaskFrame* child);
  friend void task_entry_trampoline(void* arg);

  void loop();
  void switch_into(TaskFrame* f);

  Scheduler* sched_;
  int id_;
  Xoshiro256 rng_;
  WsDeque deque_;
  TaskFrame* cur_frame_ = nullptr;
  Context loop_ctx_;

  // "Action" slots: set by fiber-side code before switching back to the
  // worker loop; consumed at the top of the loop.
  TaskFrame* retire_frame_ = nullptr;   // finished task to retire
  TaskFrame* resume_next_ = nullptr;    // frame to switch into next
  SyncBlock* resume_wait_ = nullptr;    // spin until parked before resuming
  SyncBlock* park_pending_ = nullptr;   // mark parked after switching away

  std::uint64_t steals_ = 0;
};

class Scheduler {
 public:
  struct Options {
    int workers = 1;
    std::size_t stack_bytes = std::size_t(1) << 18;  // 256 KiB usable / task
    SchedulerHooks* hooks = nullptr;
    std::uint64_t seed = 0xC0FFEE;
  };

  explicit Scheduler(const Options& opt);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Runs `root()` to completion (including all its spawned descendants)
  /// across the configured workers. The calling thread acts as worker 0.
  template <class F>
  void run(F&& root) {
    TaskFrame* rf = checkout_frame();
    rf->parent_frame = nullptr;
    rf->parent_scope = nullptr;
    rf->set_closure(std::forward<F>(root));
    run_frame(rf);
  }

  int num_workers() const { return int(workers_.size()); }
  Worker& worker(int i) { return *workers_[i]; }
  SchedulerHooks* hooks() { return hooks_; }
  std::uint64_t total_steals() const;

  /// Frame/fiber pool. release_frame is thread-safe: detectors return
  /// deferred frames from treap-worker threads.
  TaskFrame* checkout_frame();
  void release_frame(TaskFrame* f);

 private:
  friend class Worker;
  friend struct SpawnScope;
  friend void spawn_prepared(TaskFrame* child);
  friend void task_entry_trampoline(void* arg);

  void run_frame(TaskFrame* root);

  Options opt_;
  SchedulerHooks* hooks_;
  SchedulerHooks default_hooks_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{true};

  Spinlock pool_lock_;
  std::vector<TaskFrame*> frame_pool_;
  std::vector<TaskFrame*> all_frames_;  // for destruction
};

/// Prepared-child handoff used by SpawnScope::spawn (defined in .cpp so the
/// template below stays small).
void spawn_prepared(TaskFrame* child);

/// RAII sync block. Construct inside a task; spawn children through it; it
/// syncs on destruction (Cilk's implicit sync at function end).
struct SpawnScope {
  SpawnScope();
  ~SpawnScope();
  SpawnScope(const SpawnScope&) = delete;
  SpawnScope& operator=(const SpawnScope&) = delete;

  template <class F>
  void spawn(F&& f) {
    spawn(nullptr, std::forward<F>(f));
  }

  /// Named spawn: `name` labels the task in race reports (string literal or
  /// other storage outliving the run).
  template <class F>
  void spawn(const char* name, F&& f) {
    Worker* w = current_worker();
    TaskFrame* parent = w->current_frame();
    PINT_ASSERT(parent->scope == &block_);
    TaskFrame* child = parent->sched->checkout_frame();
    child->parent_frame = parent;
    child->parent_scope = &block_;
    child->task_name = name;
    child->set_closure(std::forward<F>(f));
    spawn_prepared(child);
    // NOTE: when spawn_prepared returns, this code may be running on a
    // different worker (the continuation may have been stolen).
  }

  void sync();

 private:
  SyncBlock block_;
};

/// Convenience: spawn into the innermost scope of the current task. The
/// named overload labels the task in race reports.
template <class F>
void spawn(const char* name, F&& f) {
  Worker* w = current_worker();
  TaskFrame* parent = w->current_frame();
  SyncBlock* b = parent->scope;
  PINT_CHECK_MSG(b != nullptr, "spawn() requires an enclosing SpawnScope");
  TaskFrame* child = parent->sched->checkout_frame();
  child->parent_frame = parent;
  child->parent_scope = b;
  child->task_name = name;
  child->set_closure(std::forward<F>(f));
  spawn_prepared(child);
}

template <class F>
void spawn(F&& f) {
  spawn(nullptr, std::forward<F>(f));
}

}  // namespace pint::rt

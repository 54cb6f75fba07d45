#include "runtime/scheduler.hpp"

#include <cstdio>

#include "detect/instrument.hpp"
#include "support/telemetry.hpp"

namespace pint::rt {

namespace {
thread_local Worker* t_worker = nullptr;

// Core workers are "core<i>" tracks in the exported trace.  The calling
// thread (worker 0) may later be renamed by a detector running its phased
// history on it - role changes split the track, they don't fight.
void set_core_role(int id) {
  if (!telem::enabled()) return;
  char role[16];
  std::snprintf(role, sizeof(role), "core%d", id);
  telem::set_thread_role(role);
}
}  // namespace

// noinline so the TLS address is recomputed on every call: user code can
// migrate between OS threads at spawn/sync points, and a cached TLS slot
// would read the *previous* thread's worker.
PINT_NOINLINE Worker* current_worker() { return t_worker; }

void task_entry_trampoline(void* arg);

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

Scheduler::Scheduler(const Options& opt) : opt_(opt) {
  PINT_CHECK(opt_.workers >= 1);
  hooks_ = opt_.hooks ? opt_.hooks : &default_hooks_;
  std::uint64_t seed = opt_.seed;
  for (int i = 0; i < opt_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i, splitmix64(seed)));
  }
}

Scheduler::~Scheduler() {
  for (TaskFrame* f : all_frames_) {
    f->fiber->destroy();
    delete f;
  }
}

TaskFrame* Scheduler::checkout_frame() {
  TaskFrame* f = nullptr;
  {
    LockGuard<Spinlock> g(pool_lock_);
    if (!frame_pool_.empty()) {
      f = frame_pool_.back();
      frame_pool_.pop_back();
    }
  }
  if (!f) {
    f = new TaskFrame();
    f->sched = this;
    f->fiber = Fiber::create(opt_.stack_bytes, &task_entry_trampoline, f);
    f->fiber->user = f;
    LockGuard<Spinlock> g(pool_lock_);
    all_frames_.push_back(f);
  }
  f->parent_frame = nullptr;
  f->parent_scope = nullptr;
  f->scope = nullptr;
  f->det_strand = nullptr;
  f->det_cont = nullptr;
  f->task_name = nullptr;
  f->fiber->reset(&task_entry_trampoline, f);
  return f;
}

void Scheduler::release_frame(TaskFrame* f) {
  LockGuard<Spinlock> g(pool_lock_);
  frame_pool_.push_back(f);
}

std::uint64_t Scheduler::total_steals() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->steals();
  return n;
}

void Scheduler::run_frame(TaskFrame* root) {
  stop_.store(false, std::memory_order_relaxed);
  hooks_->on_run_begin(*this);

  std::vector<std::thread> threads;
  threads.reserve(workers_.size() - 1);
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    Worker* w = workers_[i].get();
    threads.emplace_back([w, i] {
      t_worker = w;
      set_core_role(int(i));
      // Fresh OS thread: make sure no stale AccessCursor state is live
      // before any strand installs one here.  Worker 0 is deliberately NOT
      // reset: it runs on the caller's thread, which may belong to an outer
      // nested scheduler whose cursor must survive this run.
      detect::cursor_reset();
      san::adopt_current_thread_stack(w->loop_ctx_.san);
      w->loop();
      t_worker = nullptr;
    });
  }

  Worker* w0 = workers_[0].get();
  Worker* saved = t_worker;  // allow nested schedulers in tests
  if (saved != nullptr && saved->cur_frame_ != nullptr) {
    // Nested scheduler: worker 0's loop runs on the outer task's fiber, so
    // the sanitizers must identify this loop context with that fiber stack.
    Fiber* fb = saved->cur_frame_->fiber;
    san::adopt_current_stack(w0->loop_ctx_.san,
                             reinterpret_cast<const void*>(fb->stack_lo()),
                             fb->stack_hi() - fb->stack_lo());
  } else {
    san::adopt_current_thread_stack(w0->loop_ctx_.san);
  }
  t_worker = w0;
  set_core_role(0);
  w0->resume_next_ = root;
  w0->loop();
  t_worker = saved;

  for (auto& th : threads) th.join();
  hooks_->on_run_end(*this);
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

void Worker::switch_into(TaskFrame* f) {
  cur_frame_ = f;
  ctx_switch(loop_ctx_, f->fiber->context());
  cur_frame_ = nullptr;
}

void Worker::loop() {
  Backoff bo;
  for (;;) {
    if (park_pending_ != nullptr) {
      // The fiber that just switched away is now fully suspended at its
      // sync; let the last-returning child resume it.
      park_pending_->parked.store(true, std::memory_order_release);
      park_pending_ = nullptr;
    }
    if (retire_frame_ != nullptr) {
      TaskFrame* f = retire_frame_;
      retire_frame_ = nullptr;
      if (!sched_->hooks()->on_task_retire(*this, *f)) {
        sched_->release_frame(f);
      }
    }
    if (resume_next_ != nullptr) {
      TaskFrame* f = resume_next_;
      resume_next_ = nullptr;
      if (resume_wait_ != nullptr) {
        // We won the join race; wait until the parent's context is saved.
        Backoff wb;
        while (!resume_wait_->parked.load(std::memory_order_acquire)) wb.pause();
        resume_wait_ = nullptr;
      }
      bo.reset();
      switch_into(f);
      continue;
    }
    if (sched_->stop_.load(std::memory_order_acquire)) break;

    const int n = sched_->num_workers();
    if (n > 1) {
      const int victim =
          int((std::uint64_t(id_) + 1 + rng_.next_below(std::uint64_t(n - 1))) %
              std::uint64_t(n));
      TaskFrame* pf = sched_->workers_[victim]->deque_.steal();
      if (pf != nullptr) {
        ++steals_;
        PINT_TCOUNT("steals");
        // The frame is suspended at a spawn; its innermost scope is the one
        // this continuation belongs to.
        pf->scope->steal_happened.store(true, std::memory_order_release);
        sched_->hooks()->on_continuation(*this, *pf, /*stolen=*/true);
        bo.reset();
        switch_into(pf);
        continue;
      }
    }
    bo.pause();
  }
}

// ---------------------------------------------------------------------------
// Task entry / return protocol (runs on task fibers)
// ---------------------------------------------------------------------------

void task_entry_trampoline(void* arg) {
  // (sanitizer entry annotation already done by fiber_entry_shim)
  TaskFrame* f = static_cast<TaskFrame*>(arg);
  Scheduler* s = f->sched;
  if (f->parent_frame == nullptr) {
    s->hooks()->on_root_start(*current_worker(), *f);
  } else {
    // Publish the parent's continuation ONLY NOW: we are on the child fiber,
    // so the ctx_switch in spawn_prepared has fully saved the parent's
    // context. Publishing before the switch would let a thief resume the
    // parent from a stale context. (The deque push's release fence orders
    // the context stores before any thief's read.)
    current_worker()->deque().push(f->parent_frame);
  }

  f->invoke(f);

  // --- epilogue: the task's final strand (its return node) ends here ---
  Worker* w = current_worker();
  if (f->parent_frame == nullptr) {
    s->hooks()->on_root_end(*w, *f);
    w->retire_frame_ = f;
    w->resume_next_ = nullptr;
    w->resume_wait_ = nullptr;
    s->stop_.store(true, std::memory_order_release);
    Context dummy;
    ctx_switch_final(dummy, w->loop_ctx_);
  }

  TaskFrame* parent = f->parent_frame;
  SyncBlock* pb = f->parent_scope;
  TaskFrame* popped = w->deque_.pop();
  const bool stolen = (popped == nullptr);
  PINT_ASSERT(stolen || popped == parent);
  s->hooks()->on_spawn_return(*w, *f, stolen);
  w->retire_frame_ = f;

  if (!stolen) {
    // Fast path: resume the parent's continuation on this worker, exactly
    // the sequential order.
    s->hooks()->on_continuation(*w, *parent, /*stolen=*/false);
    const std::uint32_t prev = pb->join.fetch_sub(1, std::memory_order_acq_rel);
    PINT_ASSERT(prev >= 2);
    (void)prev;
    w->resume_next_ = parent;
    w->resume_wait_ = nullptr;
  } else {
    const std::uint32_t prev = pb->join.fetch_sub(1, std::memory_order_acq_rel);
    if (prev == 1) {
      // Last returning child of a non-trivial sync: resume the parent past
      // its sync (after waiting for it to finish parking).
      w->resume_next_ = parent;
      w->resume_wait_ = pb;
    } else {
      w->resume_next_ = nullptr;
      w->resume_wait_ = nullptr;
    }
  }
  Context dummy;
  ctx_switch_final(dummy, w->loop_ctx_);
}

void spawn_prepared(TaskFrame* child) {
  Worker* w = current_worker();
  TaskFrame* parent = w->cur_frame_;
  SyncBlock* b = child->parent_scope;
  PINT_ASSERT(parent == b->frame || b->frame == nullptr || b->frame == parent);
  b->join.fetch_add(1, std::memory_order_relaxed);
  parent->sched->hooks()->on_spawn(*w, *parent, *b, *child);
  w->cur_frame_ = child;
  // NOTE: the continuation is NOT in the deque yet - the child's trampoline
  // publishes it after this switch has saved the parent's context.
  ctx_switch(parent->fiber->context(), child->fiber->context());
  // Resumed here after the child returned (same worker) or after a steal
  // (different worker). `w` and `parent->...` caches are stale; re-fetch
  // anything needed via current_worker().
}

// ---------------------------------------------------------------------------
// SpawnScope
// ---------------------------------------------------------------------------

SpawnScope::SpawnScope() {
  Worker* w = current_worker();
  PINT_CHECK_MSG(w != nullptr && w->cur_frame_ != nullptr,
                 "SpawnScope must be constructed inside a running task");
  TaskFrame* f = w->cur_frame_;
  block_.frame = f;
  block_.prev = f->scope;
  block_.join.store(1, std::memory_order_relaxed);
  block_.steal_happened.store(false, std::memory_order_relaxed);
  block_.parked.store(false, std::memory_order_relaxed);
  block_.det_sync = nullptr;
  f->scope = &block_;
}

SpawnScope::~SpawnScope() {
  sync();
  Worker* w = current_worker();
  TaskFrame* f = w->cur_frame_;
  PINT_ASSERT(f->scope == &block_);
  f->scope = block_.prev;
}

void SpawnScope::sync() {
  Worker* w = current_worker();
  TaskFrame* f = w->cur_frame_;
  SyncBlock* b = &block_;
  Scheduler* s = f->sched;

  const bool nontrivial = b->steal_happened.load(std::memory_order_acquire);
  if (!nontrivial) {
    // All children (if any) returned on this worker; the sync is a no-op.
    PINT_ASSERT(b->join.load(std::memory_order_relaxed) == 1);
    s->hooks()->on_sync(*w, *f, *b, /*trivial=*/true);
    s->hooks()->on_after_sync(*w, *f, *b, /*trivial=*/true);
    return;
  }

  s->hooks()->on_sync(*w, *f, *b, /*trivial=*/false);
  const std::uint32_t prev = b->join.fetch_sub(1, std::memory_order_acq_rel);
  if (prev != 1) {
    // Outstanding children: park this fiber; the last child resumes it.
    w->park_pending_ = b;
    ctx_switch(f->fiber->context(), w->loop_ctx_);
    // Resumed (possibly on a different worker).
  }
  Worker* w2 = current_worker();
  b->join.store(1, std::memory_order_relaxed);
  b->steal_happened.store(false, std::memory_order_relaxed);
  b->parked.store(false, std::memory_order_relaxed);
  s->hooks()->on_after_sync(*w2, *f, *b, /*trivial=*/false);
}

}  // namespace pint::rt

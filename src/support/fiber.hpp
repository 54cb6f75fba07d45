#pragma once

// Stackful fibers (user-level execution contexts).
//
// The work-stealing runtime gives every spawned task its own fiber so that a
// suspended parent frame (its continuation) can migrate to a thief worker —
// the library-level equivalent of the cactus stack in Cilk.  Stacks are
// mmap'd with a PROT_NONE guard page below the usable region so overflow
// faults instead of corrupting a neighbour.
//
// The context switch is a hand-rolled x86-64 SysV switch (callee-saved GPRs
// + rsp), in the style of boost::context's fcontext.  It deliberately does
// not save the x87/MXCSR control words: no code in this project alters them.
//
// IMPORTANT: code that may be suspended and resumed on a *different* OS
// thread must never cache thread_local addresses across a suspension point.
// TLS is therefore reached only from noinline functions in .cpp files (see
// runtime/scheduler.cpp), with one sanctioned inline form: the access
// hook's detail::cursor() (detect/instrument.hpp), which re-reads the thread
// pointer inside an `asm volatile` at every call - an asm the compiler can
// neither merge with another nor hoist across a call.

#include <cstddef>
#include <cstdint>

#include "support/sanitizer.hpp"

namespace pint {

/// Saved execution context: the stack pointer plus (in sanitizer lanes) the
/// metadata TSan/ASan need to follow the stack switch (see
/// support/sanitizer.hpp).
struct Context {
  void* sp = nullptr;
  san::ContextMeta san;
};

/// Switches from the current context (saved into `save`) to `load`.
/// Returns when something later switches back into `save`.
void ctx_switch(Context& save, Context& load);

/// Final switch out of a context that will never be resumed (a task fiber
/// whose entry function is done).  Identical to ctx_switch except that the
/// sanitizer annotations treat the current stack as dying, so ASan releases
/// its fake frames instead of keeping them for a resume that never comes.
void ctx_switch_final(Context& save, Context& load);

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// Allocates a fiber with `stack_bytes` of usable stack (rounded up to the
  /// page size) and prepares it to run entry(arg) on first switch-in.
  static Fiber* create(std::size_t stack_bytes, Entry entry, void* arg);

  /// Re-arms a finished fiber to run entry(arg) again (pool reuse).
  void reset(Entry entry, void* arg);

  /// Unmaps the stack and frees the descriptor.
  void destroy();

  Context& context() { return ctx_; }

  /// Usable stack range [stack_lo, stack_hi): the byte range a race detector
  /// must clear from its access history when this stack is recycled.
  std::uintptr_t stack_lo() const { return reinterpret_cast<std::uintptr_t>(stack_base_); }
  std::uintptr_t stack_hi() const { return stack_lo() + stack_size_; }

  /// Opaque per-fiber slot for the scheduler (points at its TaskFrame).
  void* user = nullptr;

 private:
  friend void fiber_entry_shim(void* p);
  Fiber() = default;
  Context ctx_;
  Entry entry_ = nullptr;  // user entry, invoked via the internal shim
  void* arg_ = nullptr;
  void* stack_base_ = nullptr;  // usable base (above the guard page)
  std::size_t stack_size_ = 0;  // usable bytes
  void* map_base_ = nullptr;    // mmap base (guard page included)
  std::size_t map_size_ = 0;
};

}  // namespace pint

#include "stint/stint_detector.hpp"

#include <cstdlib>
#include <memory>

#include "detect/instrument.hpp"
#include "support/telemetry.hpp"

namespace pint::stint {

using detect::Strand;

StintDetector::StintDetector(const Options& opt)
    : opt_(opt) {
  rep_.set_verbose(opt_.verbose_races);
}

Strand* StintDetector::alloc_strand() {
  Strand* s = free_list_;
  if (s != nullptr) {
    free_list_ = s->pool_next;
  } else {
    owned_.push_back(std::make_unique<Strand>());
    s = owned_.back().get();
  }
  s->reset(++next_sid_);
  ++tally_.strands;
  return s;
}

void StintDetector::recycle_strand(Strand* s) {
  s->pool_next = free_list_;
  free_list_ = s;
}

void StintDetector::process_strand(Strand* s) {
  // Pending cursor intervals land in s before the seal.
  detect::cursor_flush(tally_);
  s->seal(opt_.coalesce, tally_);
  // Empty-strand skip (DESIGN.md §13): no accesses, clears or frees means
  // the history phases would be no-ops - skip their stopwatch reads and
  // spans entirely.
  if (!s->has_work()) {
    stats_.empty_strand_skips.fetch_add(1, std::memory_order_relaxed);
    recycle_strand(s);
    return;
  }
  // STINT's history runs inline on the execution thread; the two spans make
  // its writer/reader phases comparable with PINT's asynchronous tracks.
  writer_watch_.start();
  {
    // Span nested inside the watch so the CPU-clock reads stay out of it
    // (same reasoning as PintDetector::process_writer).
    PINT_TSPAN("stint.writer");
    if (opt_.history == detect::HistoryKind::kTreap) {
      detect::process_writer_treap(writer_treap_, *s, reach_, rep_, stats_);
    } else {
      detect::process_writer_treap(writer_map_, *s, reach_, rep_, stats_);
    }
  }
  writer_watch_.stop();
  reader_watch_.start();
  {
    PINT_TSPAN("stint.reader");
    if (opt_.history == detect::HistoryKind::kTreap) {
      detect::process_reader_treap(reader_treap_, *s, reach_, rep_, stats_,
                                   detect::ReaderSide::kSerial);
    } else {
      detect::process_reader_treap(reader_map_, *s, reach_, rep_, stats_,
                                   detect::ReaderSide::kSerial);
    }
  }
  reader_watch_.stop();
  recycle_strand(s);
}

// --- lock events (DESIGN.md §12) ---------------------------------------

void StintDetector::on_lock_event(rt::TaskFrame& f, detect::addr_t lock,
                                  bool acquire) {
  auto* u = static_cast<Strand*>(f.det_strand);
  PINT_ASSERT(u != nullptr);
  auto& tbl = detect::LocksetTable::instance();
  const detect::lockset_t nid =
      acquire ? tbl.acquire(u->lsid, lock) : tbl.release(u->lsid, lock);
  if (nid == u->lsid) return;  // recursive acquire / unmatched release
  detect::cursor_flush(tally_);
  if (!u->has_work()) {
    // Nothing recorded under the old lockset: relabel the segment in place.
    u->lsid = nid;
    detect::cursor_install(&u->reads, &u->writes, opt_.coalesce);
    return;
  }
  // Seal the segment recorded under the old lockset and continue at the
  // same DAG position: the successor keeps u's label (equal labels are
  // ordered by neither order, so sibling segments can never race with each
  // other) under a fresh sid + the new lockset id.
  Strand* v = alloc_strand();
  v->label = u->label;
  v->tag = u->tag;
  v->lsid = nid;
  f.det_strand = v;
  process_strand(u);
  detect::cursor_install(&v->reads, &v->writes, opt_.coalesce);
}

void StintDetector::on_lock_acquire(rt::Worker&, rt::TaskFrame& f,
                                    detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  on_lock_event(f, lock, true);
}

void StintDetector::on_lock_release(rt::Worker&, rt::TaskFrame& f,
                                    detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  on_lock_event(f, lock, false);
}

// --- memory events -----------------------------------------------------

void StintDetector::on_access(rt::Worker&, rt::TaskFrame& f, detect::addr_t lo,
                              detect::addr_t hi, bool is_write) {
  // Classic route: only taken when the AccessCursor fast path is disabled.
  auto* s = static_cast<Strand*>(f.det_strand);
  PINT_ASSERT(s != nullptr);
  ++tally_.slowpath_accesses;
  if (is_write) {
    ++tally_.raw_writes;
    if (opt_.coalesce) {
      s->writes.add(lo, hi);
    } else {
      s->writes.add_raw(lo, hi);
    }
  } else {
    ++tally_.raw_reads;
    if (opt_.coalesce) {
      s->reads.add(lo, hi);
    } else {
      s->reads.add_raw(lo, hi);
    }
  }
}

void StintDetector::on_heap_free(rt::Worker&, rt::TaskFrame& f, void* base,
                                 detect::addr_t lo, detect::addr_t hi) {
  // Synchronous detector: the memory may be handed back to the allocator at
  // once - any strand that reuses it is processed after this strand (serial
  // order), by which point the range below has been erased.
  std::free(base);
  auto* s = static_cast<Strand*>(f.det_strand);
  s->frees.push_back({nullptr, lo, hi});
}

// --- control events (serial execution: nothing is ever stolen) ---------

void StintDetector::on_root_start(rt::Worker&, rt::TaskFrame& f) {
  Strand* r = alloc_strand();
  r->label = reach_.root_label();
  r->tag = f.task_name;
  f.det_strand = r;
  detect::cursor_install(&r->reads, &r->writes, opt_.coalesce);
}

void StintDetector::on_root_end(rt::Worker&, rt::TaskFrame& f) {
  auto* u = static_cast<Strand*>(f.det_strand);
  u->clears.push_back({f.fiber->stack_lo(), f.fiber->stack_hi() - 1});
  process_strand(u);
  f.det_strand = nullptr;
}

void StintDetector::on_spawn(rt::Worker&, rt::TaskFrame& parent,
                             rt::SyncBlock& blk, rt::TaskFrame& child) {
  auto* u = static_cast<Strand*>(parent.det_strand);
  auto* j = static_cast<Strand*>(blk.det_sync);
  if (j == nullptr) {
    j = alloc_strand();
    blk.det_sync = j;
  }
  if (j->tag == nullptr) j->tag = parent.task_name;
  const auto labels = reach_.on_spawn(u->label, &j->label);
  Strand* g = alloc_strand();
  g->label = labels.child;
  g->tag = child.task_name;
  Strand* t = alloc_strand();
  t->label = labels.cont;
  t->tag = parent.task_name;
  // The continuation still holds whatever the parent held at the spawn; the
  // child starts with an empty lockset (it may run on another worker that
  // does NOT hold the parent's mutexes - inheriting would hide real races).
  t->lsid = u->lsid;
  child.det_strand = g;
  parent.det_cont = t;
  process_strand(u);
  // The spawned child runs next (serial elision order).
  detect::cursor_install(&g->reads, &g->writes, opt_.coalesce);
}

void StintDetector::on_spawn_return(rt::Worker&, rt::TaskFrame& child,
                                    bool continuation_stolen) {
  PINT_CHECK_MSG(!continuation_stolen, "STINT must run on one worker");
  auto* u = static_cast<Strand*>(child.det_strand);
  u->clears.push_back({child.fiber->stack_lo(), child.fiber->stack_hi() - 1});
  process_strand(u);
  child.det_strand = nullptr;
}

void StintDetector::on_continuation(rt::Worker&, rt::TaskFrame& parent,
                                    bool stolen) {
  PINT_CHECK_MSG(!stolen, "STINT must run on one worker");
  auto* t = static_cast<Strand*>(parent.det_cont);
  parent.det_strand = t;
  parent.det_cont = nullptr;
  detect::cursor_install(&t->reads, &t->writes, opt_.coalesce);
}

void StintDetector::on_sync(rt::Worker&, rt::TaskFrame& f, rt::SyncBlock& blk,
                            bool trivial) {
  PINT_CHECK_MSG(trivial, "STINT must run on one worker");
  if (blk.det_sync == nullptr) return;  // no spawn since the last sync
  process_strand(static_cast<Strand*>(f.det_strand));
  f.det_strand = nullptr;
}

void StintDetector::on_after_sync(rt::Worker&, rt::TaskFrame& f,
                                  rt::SyncBlock& blk, bool) {
  auto* j = static_cast<Strand*>(blk.det_sync);
  if (j == nullptr) return;  // cursor of the continuing strand stays live
  f.det_strand = j;
  blk.det_sync = nullptr;
  detect::cursor_install(&j->reads, &j->writes, opt_.coalesce);
}

// --- run ----------------------------------------------------------------

detect::RunResult StintDetector::run(std::function<void()> fn) {
  PINT_CHECK_MSG(!used_, "StintDetector instances are single-use");
  used_ = true;
  opt_.tuning.apply_globals();

  rt::Scheduler::Options so;
  so.workers = 1;  // STINT executes the computation sequentially
  so.hooks = this;
  so.stack_bytes = opt_.stack_bytes;
  so.seed = opt_.seed;
  rt::Scheduler sched(so);

  detect::set_active_detector(this);
  Timer total;
  sched.run([&] { fn(); });
  stats_.total_ns.store(total.elapsed_ns());
  detect::set_active_detector(nullptr);

  stats_.add(tally_);
  stats_.writer_ns.store(writer_watch_.total_ns());
  stats_.lreader_ns.store(reader_watch_.total_ns());
  stats_.core_ns.store(total.elapsed_ns() - writer_watch_.total_ns() -
                       reader_watch_.total_ns());
  return {};
}

}  // namespace pint::stint

#include "sparql/vectorized_runner.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "sparql/ebv.h"
#include "util/failpoint.h"

namespace re2xolap::sparql {

namespace {

// Scanned index entries between full guard polls (clock read, cancellation
// and deadline): amortizes the poll over enough work that it stays off the
// profile, while bounding how long an expired deadline goes unnoticed.
constexpr uint64_t kGuardCheckInterval = 8192;

using rdf::kMaxTermId;
using rdf::Perm;

inline rdf::TermId Comp(const rdf::EncodedTriple& t, int pos) {
  return pos == 0 ? t.s : pos == 1 ? t.p : t.o;
}

inline void SetComp(rdf::EncodedTriple* t, int pos, rdf::TermId v) {
  if (pos == 0) {
    t->s = v;
  } else if (pos == 1) {
    t->p = v;
  } else {
    t->o = v;
  }
}

/// A per-row probe key: up to three (triple position, value) components in
/// the index permutation's key order, following the step's constant-prefix
/// run. Candidate triples within the run are sorted by exactly these
/// components, so the matching sub-run is a contiguous equal range. The
/// actual index searches run on full lo/hi sentinel triples (the key
/// stamped into the step's const-prefix templates) so they compare with
/// the permutation's total order, as every IndexRange bound does; the
/// ProbeKey itself only drives the duplicate / merge-order detection
/// between consecutive rows.
struct ProbeKey {
  size_t n = 0;
  int pos[3] = {0, 0, 0};
  rdf::TermId val[3] = {0, 0, 0};
};

/// Lexicographic compare of two probe keys over the same part layout.
inline int CompareKeys(const ProbeKey& a, const ProbeKey& b) {
  for (size_t i = 0; i < a.n; ++i) {
    if (a.val[i] != b.val[i]) return a.val[i] < b.val[i] ? -1 : 1;
  }
  return 0;
}

/// Accumulates inclusive wall time into `*acc`; null disables the clock.
class TimeGuard {
 public:
  explicit TimeGuard(double* acc) : acc_(acc) {
    if (acc_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~TimeGuard() {
    if (acc_ != nullptr) {
      *acc_ += std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    }
  }
  TimeGuard(const TimeGuard&) = delete;
  TimeGuard& operator=(const TimeGuard&) = delete;

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::string TermShortName(const rdf::TripleStore& store, rdf::TermId id) {
  const rdf::TermView t = store.term(id);
  if (t.is_iri()) {
    size_t cut = t.value.find_last_of("/#");
    return std::string(cut == std::string::npos ? t.value
                                                : t.value.substr(cut + 1));
  }
  return "\"" + std::string(t.value) + "\"";
}

std::string PatternLabel(const rdf::TripleStore& store,
                         const std::vector<std::string>& slot_names,
                         const PhysicalPattern& pp, const char* prefix) {
  auto pos = [&](rdf::TermId id, int slot) -> std::string {
    if (id != rdf::kInvalidTermId) return TermShortName(store, id);
    if (slot >= 0 && static_cast<size_t>(slot) < slot_names.size()) {
      return "?" + slot_names[slot];
    }
    return "?_";
  };
  return std::string(prefix) + " (" + pos(pp.s_id, pp.s_slot) + " " +
         pos(pp.p_id, pp.p_slot) + " " + pos(pp.o_id, pp.o_slot) + ")";
}

VectorizedRunner::VectorizedRunner(const rdf::TripleStore& store,
                                   const Plan& plan,
                                   const ExecOptions& options,
                                   ExecStats* stats)
    : store_(store),
      plan_(plan),
      options_(options),
      stats_(stats),
      profiling_(stats != nullptr),
      timing_(stats != nullptr && options.profile) {}

void VectorizedRunner::CompileSteps() {
  steps_.clear();
  steps_.resize(plan_.steps.size());
  std::vector<bool> bound(plan_.slot_count, false);
  for (size_t i = 0; i < plan_.steps.size(); ++i) {
    const PhysicalPattern& pp = plan_.steps[i];
    CompiledStep& cs = steps_[i];
    const rdf::TermId ids[3] = {pp.s_id, pp.p_id, pp.o_id};
    const int slots[3] = {pp.s_slot, pp.p_slot, pp.o_slot};
    for (size_t s = 0; s < plan_.slot_count; ++s) {
      if (bound[s]) cs.broadcast_slots.push_back(static_cast<int>(s));
    }
    bool known[3];
    for (int pos = 0; pos < 3; ++pos) {
      known[pos] = ids[pos] != rdf::kInvalidTermId ||
                   (slots[pos] >= 0 && bound[slots[pos]]);
    }
    // Index selection mirrors TripleStore::Match exactly: every known
    // position forms a prefix of the chosen permutation's key order, so
    // the matching triples are one contiguous sorted range, and a step's
    // scanned count is exactly the size of the ranges it probes.
    const bool bs = known[0], bp = known[1], bo = known[2];
    int key_pos[3];
    size_t nkey = 0;
    if (bs && !bp && bo) {
      cs.perm = Perm::kOsp;  // key (o, s, p), prefix [o, s]
      key_pos[nkey++] = 2;
      key_pos[nkey++] = 0;
    } else if (bs) {
      cs.perm = Perm::kSpo;  // prefix [s], [s,p] or [s,p,o]
      key_pos[nkey++] = 0;
      if (bp) key_pos[nkey++] = 1;
      if (bp && bo) key_pos[nkey++] = 2;
    } else if (bp) {
      cs.perm = Perm::kPos;  // prefix [p] or [p,o]
      key_pos[nkey++] = 1;
      if (bo) key_pos[nkey++] = 2;
    } else if (bo) {
      cs.perm = Perm::kOsp;  // prefix [o]
      key_pos[nkey++] = 2;
    } else {
      cs.perm = Perm::kSpo;  // full scan
    }
    for (size_t j = 0; j < nkey; ++j) {
      KeyPart kp;
      kp.pos = key_pos[j];
      if (ids[kp.pos] != rdf::kInvalidTermId) {
        kp.is_const = true;
        kp.cid = ids[kp.pos];
      } else {
        kp.slot = slots[kp.pos];
      }
      cs.key.push_back(kp);
    }
    while (cs.const_prefix < cs.key.size() &&
           cs.key[cs.const_prefix].is_const) {
      ++cs.const_prefix;
    }
    // Unknown positions bind their slot on first occurrence; a repeated
    // variable within the same pattern becomes a component-equality check
    // against its first occurrence (candidates are only constrained on
    // known positions, so repeats must be verified per triple).
    for (int pos = 0; pos < 3; ++pos) {
      if (known[pos]) continue;
      int first_pos = -1;
      for (int q = 0; q < pos; ++q) {
        if (!known[q] && slots[q] == slots[pos]) {
          first_pos = q;
          break;
        }
      }
      if (first_pos >= 0) {
        cs.check_pairs.emplace_back(pos, first_pos);
      } else {
        cs.bind_slot[pos] = slots[pos];
      }
    }
    for (int pos = 0; pos < 3; ++pos) {
      if (slots[pos] >= 0) bound[slots[pos]] = true;
    }
    for (const PlannedFilter& pf : plan_.filters) {
      if (pf.apply_after_step == i + 1) cs.has_filters = true;
    }
  }
  if (!steps_.empty()) {
    // `bound` now covers every slot some mandatory pattern mentions; the
    // rest are OPTIONAL-only and must read as unbound downstream.
    for (size_t s = 0; s < plan_.slot_count; ++s) {
      if (!bound[s]) steps_.back().invalidate_slots.push_back(
          static_cast<int>(s));
    }
  }
}

util::Status VectorizedRunner::Run(RowSink on_row, uint64_t row_cap) {
  on_row_ = &on_row;
  row_cap_ = row_cap;
  rows_emitted_ = 0;
  emitted_ = 0;
  ops_ = 0;
  stopped_ = false;
  if (profiling_) {
    step_prof_.assign(plan_.steps.size(), StepProf{});
    opt_prof_.assign(plan_.optionals.size(), StepProf{});
  }
  timer_.Restart();
  CompileSteps();
  // Row-capped runs (LIMIT probes, ASK) degrade to single-row blocks: a
  // full block per stage would produce, scan and charge up to
  // kDefaultCapacity bindings per step past the row that meets the cap.
  // With capacity 1 every row reaches the emit path as soon as it exists,
  // so the early exit stops the scans right behind the last needed row.
  const size_t cap = row_cap != 0 ? 1 : BindingBlock::kDefaultCapacity;
  blocks_.resize(plan_.steps.size());
  for (BindingBlock& b : blocks_) b.Reset(plan_.slot_count, cap);
  opt_blocks_.resize(plan_.optionals.size());
  for (BindingBlock& b : opt_blocks_) b.Reset(plan_.slot_count, cap);
  scratch_rows_.resize(plan_.optionals.size());
  opt_cursors_.resize(plan_.optionals.size());
  for (size_t b = 0; b < plan_.optionals.size(); ++b) {
    opt_cursors_[b].resize(plan_.optionals[b].steps.size());
  }

  BindingBlock seed;
  seed.Reset(plan_.slot_count, 1);
  seed.AppendUnboundRow();
  // Variable-free filters (apply_after_step == 0) gate the whole query.
  bool pass = true;
  for (const PlannedFilter& pf : plan_.filters) {
    if (pf.apply_after_step != 0) continue;
    Ebv v = EvalExpr(store_, *pf.expr,
                     [](const std::string&) { return Cell::Null(); });
    if (v != Ebv::kTrue) {
      pass = false;
      break;
    }
  }
  util::Status st = util::Status::OK();
  if (pass) st = RunStage(0, seed);
  FlushStats();
  on_row_ = nullptr;
  return st;
}

void VectorizedRunner::FlushStats() {
  if (!profiling_) return;
  uint64_t scanned = 0;
  uint64_t produced = 0;
  for (const StepProf& sp : step_prof_) {
    scanned += sp.scanned;
    produced += sp.rows_out;
  }
  for (const StepProf& op : opt_prof_) {
    scanned += op.scanned;
    produced += op.matched;
  }
  stats_->triples_scanned += scanned;
  stats_->intermediate_bindings += produced;
}

util::Status VectorizedRunner::BumpOps(uint64_t n) {
  const util::ExecGuard* guard = options_.guard;
  if (options_.timeout_millis == 0 && guard == nullptr) {
    return util::Status::OK();
  }
  // Poll once per crossed interval so one large charge cannot widen the
  // deadline/cancellation window past kGuardCheckInterval scanned entries
  // (callers charge at most a block's worth per call, so this loop runs
  // at most twice in practice).
  while (n > 0) {
    const uint64_t to_boundary =
        kGuardCheckInterval - ops_ % kGuardCheckInterval;
    const uint64_t step = std::min(n, to_boundary);
    ops_ += step;
    n -= step;
    if (step < to_boundary) break;
    if (options_.timeout_millis != 0 &&
        timer_.ElapsedMillis() >
            static_cast<double>(options_.timeout_millis)) {
      return util::Status::Timeout("query exceeded " +
                                   std::to_string(options_.timeout_millis) +
                                   " ms");
    }
    if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  }
  return util::Status::OK();
}

util::Status VectorizedRunner::ApplyStepFilters(size_t after_step,
                                                BindingBlock* out,
                                                size_t from,
                                                uint64_t* survivors) {
  keep_.clear();
  for (size_t r = from; r < out->size(); ++r) {
    bool pass = true;
    for (const PlannedFilter& pf : plan_.filters) {
      if (pf.apply_after_step != after_step) continue;
      Ebv v = EvalExpr(store_, *pf.expr, [&](const std::string& n) {
        int slot = pf.slots.SlotOf(n);
        rdf::TermId val =
            slot < 0 ? rdf::kInvalidTermId : out->at(r, slot);
        return val == rdf::kInvalidTermId ? Cell::Null() : Cell::OfTerm(val);
      });
      if (v != Ebv::kTrue) {
        pass = false;
        break;
      }
    }
    if (pass) keep_.push_back(static_cast<uint32_t>(r));
  }
  *survivors = keep_.size();
  if (keep_.size() != out->size() - from) out->Compact(from, keep_);
  return util::Status::OK();
}

util::Status VectorizedRunner::RunStage(size_t stage,
                                        const BindingBlock& in) {
  if (stopped_ || in.empty()) return util::Status::OK();
  if (stage == plan_.steps.size()) return RunOptionalStage(0, in);
  TimeGuard time_guard(timing_ ? &step_prof_[stage].micros : nullptr);
  if (profiling_) step_prof_[stage].rows_in += in.size();
  CompiledStep& cs = steps_[stage];

  if (!cs.run_located) {
    rdf::IndexRange index = store_.PermutationRange(cs.perm);
    cs.lo_base = {rdf::kInvalidTermId, rdf::kInvalidTermId,
                  rdf::kInvalidTermId};
    cs.hi_base = {kMaxTermId, kMaxTermId, kMaxTermId};
    for (size_t i = 0; i < cs.const_prefix; ++i) {
      SetComp(&cs.lo_base, cs.key[i].pos, cs.key[i].cid);
      SetComp(&cs.hi_base, cs.key[i].pos, cs.key[i].cid);
    }
    if (cs.const_prefix == 0) {
      cs.run = index;
    } else {
      const uint64_t first = index.LowerBound(cs.lo_base);
      uint64_t last = index.GallopUpperBound(first, cs.hi_base);
      if (last < first) last = first;
      cs.run = index.Slice(first, last);
    }
    cs.run_located = true;
  }

  BindingBlock& out = blocks_[stage];
  out.Clear();
  ProbeKey prev;
  bool prev_valid = false;
  uint64_t prev_lb = 0;
  uint64_t prev_ub = 0;
  std::vector<uint32_t> sel;  // passing candidates when checks apply

  // Fault-injection site at the executor's index-scan boundary.
  RE2X_FAILPOINT("store.scan");
  for (size_t r = 0; r < in.size() && !stopped_; ++r) {
    ProbeKey k;
    k.n = cs.key.size() - cs.const_prefix;
    for (size_t i = 0; i < k.n; ++i) {
      const KeyPart& part = cs.key[cs.const_prefix + i];
      k.pos[i] = part.pos;
      k.val[i] = part.is_const ? part.cid : in.at(r, part.slot);
    }
    uint64_t lb;
    uint64_t ub;
    const int cmp = prev_valid && k.n != 0 ? CompareKeys(k, prev) : 0;
    if (k.n == 0) {
      lb = 0;
      ub = cs.run.size();
    } else if (prev_valid && cmp == 0) {
      // Duplicate probe key: reuse the previous equal range verbatim.
      lb = prev_lb;
      ub = prev_ub;
    } else {
      // Stamp the row's key values into the const-prefix sentinel
      // templates; unconstrained trailing components stay 0 / kMaxTermId,
      // so the full-triple searches land exactly on the key equal range.
      rdf::EncodedTriple lo = cs.lo_base;
      rdf::EncodedTriple hi = cs.hi_base;
      for (size_t i = 0; i < k.n; ++i) {
        SetComp(&lo, k.pos[i], k.val[i]);
        SetComp(&hi, k.pos[i], k.val[i]);
      }
      if (prev_valid && cmp > 0) {
        // Merge path: the block's probe keys advance in the run's sort
        // order, so the next range starts at or after the previous one.
        lb = cs.run.GallopLowerBound(prev_ub, lo);
      } else {
        // Out-of-order probe: binary search for the range start, then
        // gallop to its end (ranges are small relative to the run).
        lb = cs.run.LowerBound(lo);
      }
      ub = cs.run.GallopUpperBound(lb, hi);
    }
    prev = k;
    prev_valid = true;
    prev_lb = lb;
    prev_ub = ub;

    uint64_t cur = lb;
    while (cur < ub && !stopped_) {
      if (out.full()) {
        RE2X_RETURN_IF_ERROR(RunStage(stage + 1, out));
        out.Clear();
        continue;
      }
      const uint64_t want =
          std::min<uint64_t>(ub - cur, out.capacity() - out.size());
      // Raw runs hand back the whole remaining sub-span at once; merged
      // runs stop at the end of their materialized window, so `chunk` may
      // fall short of `want` and the loop fetches the next window.
      const std::span<const rdf::EncodedTriple> tri =
          cs.run.Fetch(cur, want, &cs.fetch_scratch);
      const size_t chunk = tri.size();
      // Scanned entries are counted and charged as they are consumed, in
      // chunks bounded by the block capacity: guard polling granularity
      // stays within kGuardCheckInterval even for one huge equal range,
      // and a row-capped early exit stops the count mid-range.
      if (profiling_) step_prof_[stage].scanned += chunk;
      RE2X_RETURN_IF_ERROR(BumpOps(chunk));
      size_t appended;
      if (cs.check_pairs.empty()) {
        size_t first = out.GrowRows(chunk);
        // Broadcast only the already-bound parent columns, then write the
        // bind columns from the sorted run; later-bound columns get
        // written by their own stage before anything reads them.
        for (int s : cs.broadcast_slots) {
          std::fill_n(out.column(s) + first, chunk, in.at(r, s));
        }
        for (int s : cs.invalidate_slots) {
          std::fill_n(out.column(s) + first, chunk, rdf::kInvalidTermId);
        }
        for (int pos = 0; pos < 3; ++pos) {
          if (cs.bind_slot[pos] < 0) continue;
          rdf::TermId* col = out.column(cs.bind_slot[pos]) + first;
          for (size_t j = 0; j < chunk; ++j) col[j] = Comp(tri[j], pos);
        }
        appended = chunk;
      } else {
        sel.clear();
        for (size_t j = 0; j < chunk; ++j) {
          bool ok = true;
          for (const auto& [pos, fp] : cs.check_pairs) {
            if (Comp(tri[j], pos) != Comp(tri[j], fp)) {
              ok = false;
              break;
            }
          }
          if (ok) sel.push_back(static_cast<uint32_t>(j));
        }
        size_t first = out.GrowRows(sel.size());
        for (int s : cs.broadcast_slots) {
          std::fill_n(out.column(s) + first, sel.size(), in.at(r, s));
        }
        for (int s : cs.invalidate_slots) {
          std::fill_n(out.column(s) + first, sel.size(), rdf::kInvalidTermId);
        }
        for (int pos = 0; pos < 3; ++pos) {
          if (cs.bind_slot[pos] < 0) continue;
          rdf::TermId* col = out.column(cs.bind_slot[pos]) + first;
          for (size_t j = 0; j < sel.size(); ++j) {
            col[j] = Comp(tri[sel[j]], pos);
          }
        }
        appended = sel.size();
      }
      cur += chunk;
      if (appended == 0) continue;
      uint64_t survivors = appended;
      if (cs.has_filters) {
        RE2X_RETURN_IF_ERROR(ApplyStepFilters(
            stage + 1, &out, out.size() - appended, &survivors));
      }
      if (survivors != 0) {
        if (profiling_) step_prof_[stage].rows_out += survivors;
        if (options_.guard != nullptr) {
          options_.guard->ChargeRows(survivors);
          // Budget-only recheck at the charge site: a row-budget overrun
          // surfaces within one batch even when no row ever reaches the
          // emit path (e.g. a highly selective later step).
          RE2X_RETURN_IF_ERROR(options_.guard->CheckBudgets());
        }
      }
    }
  }
  if (!out.empty() && !stopped_) {
    util::Status st = RunStage(stage + 1, out);
    out.Clear();
    return st;
  }
  return util::Status::OK();
}

// Left-join extension at block granularity: each parent row either gets
// its matched extensions appended (in index order) or falls through
// unchanged.
util::Status VectorizedRunner::RunOptionalStage(size_t block,
                                                const BindingBlock& in) {
  if (stopped_ || in.empty()) return util::Status::OK();
  if (block == plan_.optionals.size()) return EmitBlock(in);
  TimeGuard time_guard(timing_ ? &opt_prof_[block].micros : nullptr);
  if (profiling_) opt_prof_[block].rows_in += in.size();
  const PlannedOptional& po = plan_.optionals[block];
  if (po.never_matches || po.steps.empty()) {
    if (profiling_) opt_prof_[block].rows_out += in.size();
    return RunOptionalStage(block + 1, in);
  }
  BindingBlock& out = opt_blocks_[block];
  out.Clear();
  // This block's own scratch row: the mid-loop flushes here and in
  // OptionalPattern recurse into later blocks, whose ExtractRow would
  // clobber a shared row while this block's iteration still reads it.
  std::vector<rdf::TermId>& scratch = scratch_rows_[block];
  for (size_t r = 0; r < in.size() && !stopped_; ++r) {
    in.ExtractRow(r, &scratch);
    bool matched = false;
    RE2X_RETURN_IF_ERROR(OptionalPattern(block, 0, &matched, &out));
    if (!matched && !stopped_) {
      if (profiling_) ++opt_prof_[block].rows_out;
      out.AppendRow(scratch);
      // Flush as soon as the block fills (not lazily before the next
      // append): under a row cap the block holds one row, and flushing it
      // at once lets the cap stop this scan before it overproduces.
      if (out.full()) {
        RE2X_RETURN_IF_ERROR(RunOptionalStage(block + 1, out));
        out.Clear();
      }
    }
  }
  if (!out.empty() && !stopped_) {
    util::Status st = RunOptionalStage(block + 1, out);
    out.Clear();
    return st;
  }
  return util::Status::OK();
}

// Per-pattern OPTIONAL matching stays row-at-a-time over the scratch row:
// variables bound by *earlier OPTIONAL blocks* are only known per row
// (left-join fall-throughs leave them unbound), so the probe shape cannot
// be compiled statically the way mandatory steps can.
util::Status VectorizedRunner::OptionalPattern(size_t block, size_t idx,
                                               bool* matched,
                                               BindingBlock* out) {
  const PlannedOptional& po = plan_.optionals[block];
  std::vector<rdf::TermId>& scratch = scratch_rows_[block];
  if (idx == po.steps.size()) {
    *matched = true;
    if (profiling_) {
      ++opt_prof_[block].matched;
      ++opt_prof_[block].rows_out;
    }
    if (options_.guard != nullptr) {
      options_.guard->ChargeRows(1);
      RE2X_RETURN_IF_ERROR(options_.guard->CheckBudgets());
    }
    if (stopped_) return util::Status::OK();
    out->AppendRow(scratch);
    // Flush as soon as the block fills (not lazily before the next
    // append): under a row cap the block holds one row, and flushing it
    // at once lets the cap stop this scan before it overproduces.
    if (out->full()) {
      RE2X_RETURN_IF_ERROR(RunOptionalStage(block + 1, *out));
      out->Clear();
    }
    return util::Status::OK();
  }
  const PhysicalPattern& pp = po.steps[idx];
  rdf::TriplePattern q;
  auto fix = [&](rdf::TermId cid, int slot) -> rdf::TermId {
    if (cid != rdf::kInvalidTermId) return cid;
    if (slot >= 0 && scratch[slot] != rdf::kInvalidTermId) {
      return scratch[slot];
    }
    return rdf::kInvalidTermId;
  };
  q.s = fix(pp.s_id, pp.s_slot);
  q.p = fix(pp.p_id, pp.p_slot);
  q.o = fix(pp.o_id, pp.o_slot);
  // Pooled per (block, step) recursion depth — each depth is on the stack
  // at most once, so reattaching here cannot clobber a live scan.
  rdf::IndexCursor& cursor = opt_cursors_[block][idx];
  cursor.Attach(store_.Match(q));
  for (std::span<const rdf::EncodedTriple> tri = cursor.NextChunk();
       !tri.empty(); tri = cursor.NextChunk()) {
    for (const rdf::EncodedTriple& t : tri) {
      if (stopped_) return util::Status::OK();
      if (profiling_) ++opt_prof_[block].scanned;
      RE2X_RETURN_IF_ERROR(BumpOps(1));
      int newly_bound[3];
      int n_new = 0;
      bool consistent = true;
      auto bind = [&](int slot, rdf::TermId value) {
        if (slot < 0) return;
        if (scratch[slot] == rdf::kInvalidTermId) {
          scratch[slot] = value;
          newly_bound[n_new++] = slot;
        } else if (scratch[slot] != value) {
          consistent = false;
        }
      };
      bind(pp.s_slot, t.s);
      if (consistent) bind(pp.p_slot, t.p);
      if (consistent) bind(pp.o_slot, t.o);
      if (consistent) {
        util::Status st = OptionalPattern(block, idx + 1, matched, out);
        if (!st.ok()) {
          for (int i = 0; i < n_new; ++i) {
            scratch[newly_bound[i]] = rdf::kInvalidTermId;
          }
          return st;
        }
      }
      for (int i = 0; i < n_new; ++i) {
        scratch[newly_bound[i]] = rdf::kInvalidTermId;
      }
    }
  }
  return util::Status::OK();
}

util::Status VectorizedRunner::EmitBlock(const BindingBlock& in) {
  for (size_t r = 0; r < in.size() && !stopped_; ++r) {
    bool pass = true;
    for (const PlannedFilter& pf : plan_.post_optional_filters) {
      Ebv v = EvalExpr(store_, *pf.expr, [&](const std::string& n) {
        int slot = pf.slots.SlotOf(n);
        rdf::TermId val = slot < 0 ? rdf::kInvalidTermId : in.at(r, slot);
        return val == rdf::kInvalidTermId ? Cell::Null() : Cell::OfTerm(val);
      });
      if (v != Ebv::kTrue) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    in.ExtractRow(r, &row_buf_);
    ++emitted_;
    (*on_row_)(row_buf_);
    if (row_cap_ != 0 && ++rows_emitted_ >= row_cap_) stopped_ = true;
    // Re-check budgets on every emitted row: the sink may have charged
    // result bytes / group-state bytes against the guard just now.
    if (options_.guard != nullptr) {
      RE2X_RETURN_IF_ERROR(options_.guard->CheckBudgets());
    }
    RE2X_RETURN_IF_ERROR(BumpOps(1));
  }
  return util::Status::OK();
}

}  // namespace re2xolap::sparql

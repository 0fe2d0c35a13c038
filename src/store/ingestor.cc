#include "store/ingestor.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/delta_layer.h"
#include "rdf/ntriples.h"
#include "util/exec_guard.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace re2xolap::store {

using rdf::DeltaLayer;
using rdf::EncodedTriple;
using rdf::EpochChain;
using rdf::kInvalidTermId;
using rdf::Perm;
using rdf::TermId;
using util::ExecGuard;
using util::Result;
using util::Status;

Ingestor::Ingestor(rdf::TripleStore* store, util::ThreadPool* pool,
                   IngestorConfig config)
    : store_(store), pool_(pool), config_(config) {}

Ingestor::~Ingestor() {
  std::unique_lock<std::mutex> lk(compact_mu_);
  compact_cv_.wait(lk, [this] { return !compact_inflight_; });
}

bool Ingestor::compaction_inflight() const {
  std::lock_guard<std::mutex> lk(compact_mu_);
  return compact_inflight_;
}

Result<IngestReceipt> Ingestor::IngestText(std::string_view text, IngestOp op,
                                           const ExecGuard* guard) {
  RE2X_FAILPOINT("store.ingest");
  if (!store_->live()) {
    return Status::InvalidArgument("store is not in live mode");
  }
  if (guard != nullptr) {
    Status st = guard->Check();
    if (!st.ok()) return st;
  }
  obs::Span span(op == IngestOp::kInsert ? "store.ingest.insert"
                                         : "store.ingest.delete");
  std::vector<std::array<rdf::Term, 3>> stmts;
  Status parse = rdf::ParseNTriplesTerms(text, &stmts);
  if (!parse.ok()) return parse;
  if (guard != nullptr) {
    guard->ChargeRows(stmts.size());
    Status st = guard->Check();
    if (!st.ok()) return st;
  }
  span.SetAttr("statements", static_cast<uint64_t>(stmts.size()));

  std::shared_ptr<const EpochChain> next;
  IngestReceipt receipt;
  {
    std::lock_guard<std::mutex> lk(ingest_mu_);
    // The chain is stable under ingest_mu_: ingest and the compaction
    // publish step are the only writers, and both hold it.
    std::shared_ptr<const EpochChain> chain = store_->live_chain();
    rdf::Dictionary& dict = store_->dictionary();

    std::vector<EncodedTriple> batch;
    batch.reserve(stmts.size());
    if (op == IngestOp::kInsert) {
      for (const auto& t : stmts) {
        batch.push_back(EncodedTriple{dict.InternLive(t[0]),
                                      dict.InternLive(t[1]),
                                      dict.InternLive(t[2])});
      }
    } else {
      for (const auto& t : stmts) {
        // A statement with any unknown term cannot be visible: skip it
        // without interning (deletes must never grow the dictionary).
        const TermId s = dict.Lookup(t[0]);
        const TermId p = dict.Lookup(t[1]);
        const TermId o = dict.Lookup(t[2]);
        if (s == kInvalidTermId || p == kInvalidTermId ||
            o == kInvalidTermId) {
          continue;
        }
        batch.push_back(EncodedTriple{s, p, o});
      }
    }
    std::sort(batch.begin(), batch.end(), rdf::SpoLess());
    batch.erase(std::unique(batch.begin(), batch.end()), batch.end());

    // Visibility filter, establishing the delta-layer invariants: inserts
    // keep only not-yet-visible triples, deletes only visible ones. The
    // batch is SPO-sorted, so one merged SPO view probed in order serves
    // every lookup with galloping bounds.
    std::vector<EncodedTriple> final_batch;
    final_batch.reserve(batch.size());
    if (!batch.empty()) {
      rdf::IndexRange spo = store_->ChainPermutationRange(chain, Perm::kSpo);
      uint64_t from = 0;
      for (const EncodedTriple& t : batch) {
        from = spo.GallopLowerBound(from, t);
        const bool visible =
            from < spo.size() && !rdf::SpoLess()(t, spo[from]);
        if (visible == (op == IngestOp::kDelete)) final_batch.push_back(t);
      }
    }

    if (final_batch.empty()) {
      // No net effect: publish nothing, keep the epoch (and with it every
      // cached plan and result) untouched.
      receipt.epoch = chain->epoch;
      receipt.chain_depth = chain->depth();
      return receipt;
    }

    auto layer = std::make_shared<DeltaLayer>();
    layer->batch_id = ++batch_seq_;
    auto& spo_arr = op == IngestOp::kInsert ? layer->add_spo : layer->del_spo;
    auto& pos_arr = op == IngestOp::kInsert ? layer->add_pos : layer->del_pos;
    spo_arr = std::move(final_batch);
    pos_arr = spo_arr;
    std::sort(pos_arr.begin(), pos_arr.end(), rdf::PosLess());
    layer->RebuildPredicateDelta();

    std::vector<std::shared_ptr<const DeltaLayer>> layers = chain->layers;
    layers.push_back(layer);
    next = rdf::MakeEpochChain(chain->base, std::move(layers),
                               chain->epoch + 1);

    receipt.epoch = next->epoch;
    receipt.added = layer->add_count();
    receipt.deleted = layer->del_count();
    receipt.chain_depth = next->depth();
    store_->PublishChain(next);
  }

  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("store.delta.ingest.batches").Inc();
  reg.GetCounter("store.delta.ingest.triples").Inc(receipt.added);
  reg.GetCounter("store.delta.ingest.deletes").Inc(receipt.deleted);
  MaybeScheduleCompaction(*next);
  return receipt;
}

bool Ingestor::CompactionDue(const EpochChain& chain) const {
  const bool depth_due = config_.compact_threshold_layers != 0 &&
                         chain.depth() >= config_.compact_threshold_layers;
  const bool size_due =
      config_.compact_threshold_triples != 0 &&
      chain.delta_adds + chain.delta_dels >= config_.compact_threshold_triples;
  return depth_due || size_due;
}

void Ingestor::MaybeScheduleCompaction(const EpochChain& chain) {
  if (!config_.auto_compact || pool_ == nullptr) return;
  if (!CompactionDue(chain)) return;
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    if (compact_inflight_) return;
    compact_inflight_ = true;
  }
  SubmitCompaction();
}

void Ingestor::SubmitCompaction() {
  // A workerless pool runs the task inline on this thread; CompactNow
  // takes ingest_mu_, which is why this is never called while holding it.
  pool_->Submit([this] {
    Status st = BackgroundCompact();
    if (!st.ok()) {
      obs::MetricsRegistry::Global()
          .GetCounter("store.delta.compact_failures")
          .Inc();
    }
    // Batches published while the fold ran found the flag set and
    // scheduled nothing: re-check the chain they left. The flag stays set
    // across the resubmission, so the destructor keeps waiting. A failed
    // fold is not retried here (the next ingest batch re-checks).
    bool again = false;
    {
      std::lock_guard<std::mutex> lk(compact_mu_);
      again = st.ok() && CompactionDue(*store_->live_chain());
      if (!again) {
        compact_inflight_ = false;
        compact_cv_.notify_all();
      }
    }
    if (again) SubmitCompaction();
  });
}

util::Status Ingestor::BackgroundCompact() {
  RE2X_FAILPOINT("store.compact");
  // Serial merge: this already runs ON a pool worker, and ParallelFor
  // from inside a worker deadlocks when no other worker is free (the
  // helper task would wait behind this very compaction).
  return CompactNow(nullptr, /*merge_pool=*/nullptr);
}

util::Status Ingestor::Compact(const ExecGuard* guard) {
  RE2X_FAILPOINT("store.compact");
  std::unique_lock<std::mutex> lk(compact_mu_);
  compact_cv_.wait(lk, [this] { return !compact_inflight_; });
  compact_inflight_ = true;
  lk.unlock();
  Status st = CompactNow(guard, pool_);
  lk.lock();
  compact_inflight_ = false;
  compact_cv_.notify_all();
  lk.unlock();
  return st;
}

util::Status Ingestor::CompactNow(const ExecGuard* guard,
                                  util::ThreadPool* merge_pool) {
  const auto started = std::chrono::steady_clock::now();
  std::shared_ptr<const EpochChain> snap;
  {
    std::lock_guard<std::mutex> lk(ingest_mu_);
    snap = store_->live_chain();
  }
  if (snap == nullptr) {
    return Status::InvalidArgument("store is not in live mode");
  }
  if (snap->layers.empty()) return Status::OK();
  obs::Span span("store.compact");
  span.SetAttr("layers", snap->depth());
  span.SetAttr("delta_triples", snap->delta_adds + snap->delta_dels);

  // Fold the snapshotted chain into fresh arrays, one stored permutation
  // at a time. The merged view already annihilates tombstones, so a plain
  // sequential drain of each permutation IS the fold. No lock is held:
  // ingest keeps publishing on top, and readers keep serving whichever
  // chain they pinned.
  std::array<std::vector<EncodedTriple>, 2> folded;
  std::array<Status, 2> merge_status;
  auto merge_one = [&](size_t i) {
    const Perm perm = i == 0 ? Perm::kSpo : Perm::kPos;
    std::vector<EncodedTriple>& out = folded[i];
    rdf::IndexRange range = store_->ChainPermutationRange(snap, perm);
    out.reserve(range.size());
    rdf::IndexCursor cur(range);
    while (!cur.done()) {
      std::span<const EncodedTriple> chunk = cur.NextChunk(4096);
      out.insert(out.end(), chunk.begin(), chunk.end());
      if (guard != nullptr) {
        Status st = guard->Check();
        if (!st.ok()) {
          merge_status[i] = st;
          return;
        }
      }
    }
  };
  if (merge_pool != nullptr && merge_pool->size() > 0) {
    merge_pool->ParallelFor(2, merge_one);
  } else {
    for (size_t i = 0; i < 2; ++i) merge_one(i);
  }
  for (const Status& st : merge_status) {
    if (!st.ok()) return st;
  }
  auto stats = rdf::ComputePredicateStats(folded[0], folded[1]);
  std::shared_ptr<const rdf::IndexBase> base = rdf::IndexBase::Build(
      std::move(folded[0]), std::move(folded[1]), std::move(stats));

  {
    std::lock_guard<std::mutex> lk(ingest_mu_);
    std::shared_ptr<const EpochChain> cur_chain = store_->live_chain();
    // Layers are append-only and compactions are serialized, so the
    // current chain starts with exactly the layers the snapshot folded.
    assert(cur_chain->layers.size() >= snap->layers.size());
    std::shared_ptr<const EpochChain> fresh = rdf::MakeEpochChain(
        std::move(base),
        {cur_chain->layers.begin() + snap->layers.size(),
         cur_chain->layers.end()},
        cur_chain->epoch + 1);
    assert(fresh->visible_triples == cur_chain->visible_triples);
    store_->PublishChain(std::move(fresh));
  }

  const double millis =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("store.delta.compactions").Inc();
  reg.GetHistogram("store.delta.compact_millis").Observe(millis);
  return Status::OK();
}

}  // namespace re2xolap::store

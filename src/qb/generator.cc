#include "qb/generator.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <set>
#include <span>
#include <unordered_map>

#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace re2xolap::qb {

size_t DatasetSpec::hierarchy_count() const {
  size_t n = 0;
  for (const DimensionSpec& d : dimensions) {
    // A dimension with no branch still has one (trivial) hierarchy made of
    // its base level only.
    n += d.branches.empty() ? 1 : d.branches.size();
  }
  return n;
}

size_t DatasetSpec::total_members() const {
  std::set<const LevelSpec*> used;
  for (const DimensionSpec& d : dimensions) {
    const LevelSpec* base = FindLevel(d.base_level);
    if (base) used.insert(base);
    for (const BranchSpec& b : d.branches) {
      for (const HierarchyStep& s : b.steps) {
        const LevelSpec* to = FindLevel(s.to_level);
        if (to) used.insert(to);
      }
    }
  }
  size_t n = 0;
  for (const LevelSpec* l : used) n += l->member_count();
  return n;
}

namespace {

// Measure values are 1 + Skewed(kMeasureRange).
constexpr uint64_t kMeasureRange = 10000;

// Decimal digits of the largest index below `n` (1 for n <= 10).
size_t IndexDigits(uint64_t n) {
  size_t digits = 1;
  for (uint64_t v = n > 1 ? n - 1 : 0; v >= 10; v /= 10) ++digits;
  return digits;
}

// What Generate() will load for `spec`: the exact number of triples it
// adds, and upper bounds on its distinct terms and their text (shared
// labels and unused measure values are counted as if distinct), so the
// store can be sized once instead of regrown while loading.
struct LoadSize {
  size_t triples = 0;
  size_t terms = 0;
  size_t text_bytes = 0;
  // Of `terms`, the member and observation IRIs, which are appended.
  size_t appends = 0;
};

LoadSize PlanLoad(const DatasetSpec& spec) {
  LoadSize load;
  auto terms = [&load](size_t count, size_t bytes) {
    load.terms += count;
    load.text_bytes += bytes;
  };
  auto iri = [&](const std::string& local) {
    terms(1, spec.iri_base.size() + local.size());
  };
  terms(3, std::strlen(kHasLabel) + std::strlen(kRdfType) +
               spec.observation_class.size());
  load.triples += spec.predicate_labels.size();
  for (const auto& [local, text] : spec.predicate_labels) {
    iri(local);
    terms(1, text.size());
  }
  // Levels are emitted once each, whichever dimensions reach them.
  std::set<const LevelSpec*> levels;
  for (const DimensionSpec& d : spec.dimensions) {
    levels.insert(spec.FindLevel(d.base_level));
    for (const BranchSpec& b : d.branches) {
      for (const HierarchyStep& step : b.steps) {
        const LevelSpec* from = spec.FindLevel(step.from_level);
        const LevelSpec* to = spec.FindLevel(step.to_level);
        levels.insert(from);
        levels.insert(to);
        iri(step.predicate);
        if (from != nullptr && to != nullptr) {
          load.triples += from->member_count() *
                          std::min(step.parents_per_member, to->member_count());
        }
      }
    }
  }
  levels.erase(nullptr);
  for (const LevelSpec* l : levels) {
    const size_t n = l->member_count();
    load.triples += n;
    terms(n, n * (spec.iri_base.size() + l->name.size() + 1 + IndexDigits(n)));
    load.appends += n;
    for (const std::string& label : l->labels) terms(1, label.size());
  }
  const uint64_t obs = spec.observations;
  load.triples +=
      obs * (1 + spec.dimensions.size() + spec.measure_predicates.size() +
             spec.observation_attrs.size());
  terms(obs, obs * (spec.iri_base.size() + 4 + IndexDigits(obs)));
  load.appends += obs;
  for (const DimensionSpec& d : spec.dimensions) iri(d.predicate);
  for (const std::string& m : spec.measure_predicates) iri(m);
  const size_t measure_values = static_cast<size_t>(
      std::min(kMeasureRange, obs * spec.measure_predicates.size()));
  terms(measure_values, measure_values * IndexDigits(kMeasureRange + 1));
  for (const ObservationAttrSpec& a : spec.observation_attrs) {
    iri(a.predicate);
    for (const std::string& v : a.values) terms(1, v.size());
  }
  return load;
}

// The IRIs `<prefix>0`, `<prefix>1`, ... in turn. Next() increments the
// decimal digits in place, at a fraction of the cost of formatting each
// index afresh.
class CountingIri {
 public:
  explicit CountingIri(std::string prefix)
      : text_(std::move(prefix)), digits_at_(text_.size()) {
    text_.reserve(digits_at_ + 20);
    text_ += '0';
  }

  rdf::TermView view() const {
    return rdf::TermView(rdf::TermKind::kIri, text_);
  }

  void Next() {
    for (size_t i = text_.size(); i-- > digits_at_;) {
      if (text_[i] != '9') {
        ++text_[i];
        return;
      }
      text_[i] = '0';
    }
    text_.insert(digits_at_, 1, '1');
  }

 private:
  std::string text_;
  const size_t digits_at_;
};

// Deterministic fallback parent mapping: spreads children roughly evenly
// over parents while avoiding trivial modulo clustering.
size_t HashedParent(size_t child, size_t parent_count, size_t salt) {
  uint64_t h = child * 2654435761ULL + salt * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  return static_cast<size_t>(h % parent_count);
}

}  // namespace

util::Result<GeneratedDataset> Generate(DatasetSpec spec) {
  // Everything before the observations: the up-front sizing, the level
  // members and their labels, predicate labels and hierarchy edges.
  obs::Span levels_span("qb.generate.levels");
  auto store = std::make_unique<rdf::TripleStore>();
  const LoadSize load = PlanLoad(spec);
  store->Reserve(load.triples);
  rdf::Dictionary& dict = store->dictionary();
  dict.Reserve(load.terms, load.text_bytes, load.appends);

  // --- memoized interning ----------------------------------------------------
  // Each distinct term gets its id once, the first time a triple needs it.
  // Every triple resolves its terms in s, p, o order, so new ids are
  // assigned in exactly the order per-triple Add() calls would assign
  // them. Member and observation IRIs are new by construction: they are
  // Append()-ed, unprobed, and indexed in one IndexAppended() call before
  // Freeze, which also rejects any other term equal to one of them. The
  // other terms may repeat and are interned. The dictionary copies each
  // lexical form into its text buffer, sized up front by PlanLoad(), so
  // the bulk terms go in as views: labels straight from the spec, member
  // and observation IRIs counted up in one CountingIri per level and one
  // for the observations.
  auto memo = [&store](rdf::TermId* slot, auto&& make_term) {
    if (*slot == rdf::kInvalidTermId) *slot = store->Intern(make_term());
    return *slot;
  };
  auto string_literal = [](std::string_view text) {
    return rdf::TermView(rdf::TermKind::kLiteral, text);
  };
  rdf::TermId label_pred = rdf::kInvalidTermId;
  rdf::TermId type_pred = rdf::kInvalidTermId;
  rdf::TermId obs_class = rdf::kInvalidTermId;
  auto label_pred_id = [&] {
    return memo(&label_pred, [] { return rdf::Term::Iri(kHasLabel); });
  };

  // Validate level references and index levels by name.
  std::unordered_map<std::string, const LevelSpec*> levels;
  for (const LevelSpec& l : spec.levels) {
    if (l.name == "obs") {
      return util::Status::InvalidArgument(
          "level 'obs' would name its members like the observations");
    }
    if (l.labels.empty()) {
      return util::Status::InvalidArgument("level '" + l.name +
                                           "' has no members");
    }
    if (!levels.emplace(l.name, &l).second) {
      return util::Status::InvalidArgument("duplicate level '" + l.name + "'");
    }
  }
  auto require_level = [&](const std::string& name)
      -> util::Result<const LevelSpec*> {
    auto it = levels.find(name);
    if (it == levels.end()) {
      return util::Status::InvalidArgument("unknown level '" + name + "'");
    }
    return it->second;
  };

  // Member ids per level (indexed like spec.levels), then member index;
  // filled when the level is emitted, which precedes every other use.
  std::vector<std::vector<rdf::TermId>> member_ids(spec.levels.size());
  auto member_id = [&](const LevelSpec& level, size_t i) {
    const std::vector<rdf::TermId>& ids =
        member_ids[&level - spec.levels.data()];
    assert(i < ids.size());
    return ids[i];
  };

  // --- emit level members and their labels ---------------------------------
  // Track which levels are actually reachable from some dimension, emitting
  // members once even when shared by several branches.
  std::set<std::string> emitted;
  auto emit_level = [&](const LevelSpec& level) {
    if (!emitted.insert(level.name).second) return;
    std::vector<rdf::TermId>& ids = member_ids[&level - spec.levels.data()];
    ids.resize(level.labels.size());
    CountingIri member(spec.iri_base + level.name + "/");
    for (size_t i = 0; i < level.labels.size(); ++i, member.Next()) {
      rdf::TermId s = ids[i] = dict.Append(member.view());
      rdf::TermId p = label_pred_id();
      rdf::TermId o = store->Intern(string_literal(level.labels[i]));
      store->AddEncoded({s, p, o});
    }
  };

  // --- predicate labels --------------------------------------------------------
  for (const auto& [local, text] : spec.predicate_labels) {
    rdf::TermId s = store->Intern(rdf::Term::Iri(spec.iri_base + local));
    rdf::TermId p = label_pred_id();
    rdf::TermId o = store->Intern(string_literal(text));
    store->AddEncoded({s, p, o});
  }

  // --- hierarchy edges -------------------------------------------------------
  size_t salt = 1;
  for (const DimensionSpec& dim : spec.dimensions) {
    RE2X_ASSIGN_OR_RETURN(const LevelSpec* base, require_level(dim.base_level));
    emit_level(*base);
    for (const BranchSpec& branch : dim.branches) {
      std::string from = dim.base_level;
      for (const HierarchyStep& step : branch.steps) {
        if (step.from_level != from) {
          return util::Status::InvalidArgument(
              "branch step for dimension '" + dim.name + "' starts at '" +
              step.from_level + "' but previous level is '" + from + "'");
        }
        RE2X_ASSIGN_OR_RETURN(const LevelSpec* from_level,
                              require_level(step.from_level));
        RE2X_ASSIGN_OR_RETURN(const LevelSpec* to_level,
                              require_level(step.to_level));
        emit_level(*from_level);
        emit_level(*to_level);
        rdf::TermId pred = rdf::kInvalidTermId;
        const size_t parents = to_level->member_count();
        for (size_t i = 0; i < from_level->member_count(); ++i) {
          size_t fanout = std::min(step.parents_per_member, parents);
          for (size_t k = 0; k < fanout; ++k) {
            size_t parent;
            if (step.parent_of && k == 0) {
              parent = step.parent_of(i);
            } else if (k == 0 && i < parents) {
              // Coverage guarantee: the first |parents| children map onto
              // distinct parents, so every parent member is reachable.
              parent = i;
            } else {
              parent = HashedParent(i, parents, salt + k);
            }
            rdf::TermId s = member_id(*from_level, i);
            rdf::TermId p = memo(&pred, [&] {
              return rdf::Term::Iri(spec.iri_base + step.predicate);
            });
            rdf::TermId o = member_id(*to_level, parent % parents);
            store->AddEncoded({s, p, o});
          }
        }
        from = step.to_level;
        ++salt;
      }
    }
  }

  levels_span.End();

  // --- observations ----------------------------------------------------------
  // Observation n owns the k slots of the load buffer from n * k, in
  // emission order: its type triple, then one triple per dimension,
  // measure and attribute. Three passes fill them, and one call indexes
  // the appended IRIs; the pool serves the parallel ones and is gone
  // before Freeze() starts its own.
  //  1. Draw, in chunks on the pool: each chunk jumps the RNG to its first
  //     observation's first draw and writes the drawn base member, measure
  //     value and attribute value indices into the slots' objects.
  //  2. Walk, on the calling thread, in observation order: append each
  //     observation IRI and store its id as the type triple's subject, and
  //     make the memo calls one serial loop would make (first uses of the
  //     predicates, the class, measure literals and attribute values), so
  //     term ids do not depend on the pool. It probes no observation IRI.
  //  3. Write, in chunks on the pool: rewrite each observation's slots in
  //     place with ids, reading only the memos and the subject id.
  //  4. Index: IndexAppended() hashes the member and observation IRIs on
  //     the pool and slots them.
  // Every base level was validated, and emitted, by the hierarchy pass.
  std::vector<const LevelSpec*> dim_base;
  std::vector<const rdf::TermId*> dim_members;
  for (const DimensionSpec& dim : spec.dimensions) {
    const LevelSpec* base = levels.at(dim.base_level);
    dim_base.push_back(base);
    dim_members.push_back(member_ids[base - spec.levels.data()].data());
  }
  const size_t dims = spec.dimensions.size();
  const size_t measures = spec.measure_predicates.size();
  const size_t attrs = spec.observation_attrs.size();
  const size_t k = 1 + dims + measures + attrs;
  const uint64_t obs_count = spec.observations;
  const std::span<rdf::EncodedTriple> slots =
      store->AppendUnwritten(obs_count * k);
  const size_t chunks = (obs_count + kObservationChunk - 1) / kObservationChunk;
  {
    util::ThreadPool pool(rdf::LoadThreads(slots.size()));
    {
      obs::Span span("qb.generate.draw");
      // Draws made before observation n: one per measure and attribute of
      // each earlier observation, plus one per dimension for each earlier
      // observation past that dimension's coverage pass, which draws
      // nothing while n < |base|.
      auto first_draw = [&](uint64_t n) {
        uint64_t draws = n * (measures + attrs);
        for (const LevelSpec* base : dim_base) {
          if (n > base->member_count()) draws += n - base->member_count();
        }
        return draws;
      };
      pool.ParallelFor(chunks, [&](size_t c) {
        const uint64_t begin = c * kObservationChunk;
        const uint64_t end = std::min(obs_count, begin + kObservationChunk);
        util::Rng rng(spec.seed);
        rng.Advance(first_draw(begin));
        for (uint64_t n = begin; n < end; ++n) {
          rdf::EncodedTriple* t = &slots[n * k + 1];
          for (const LevelSpec* base : dim_base) {
            // Coverage pass: the first |base| observations cycle through
            // every member so that each base member is referenced at least
            // once (the real KGs are dense in this sense); afterwards,
            // skewed sampling.
            const size_t members = base->member_count();
            uint64_t member = n;
            if (n >= members) {
              member = std::min<uint64_t>(rng.Skewed(members), members - 1);
            }
            (t++)->o = static_cast<rdf::TermId>(member);
          }
          for (size_t m = 0; m < measures; ++m) {
            // Skewed positive integer measure (long tail of large values).
            (t++)->o = static_cast<rdf::TermId>(1 + rng.Skewed(kMeasureRange));
          }
          for (const ObservationAttrSpec& attr : spec.observation_attrs) {
            (t++)->o =
                static_cast<rdf::TermId>(rng.Uniform(attr.values.size()));
          }
        }
      });
    }
    {
      obs::Span span("qb.generate.intern");
      std::vector<rdf::TermId> dim_pred(dims);
      std::vector<rdf::TermId> measure_pred(measures);
      std::vector<rdf::TermId> attr_pred(attrs);
      std::vector<std::vector<rdf::TermId>> attr_value(attrs);
      for (size_t a = 0; a < attrs; ++a) {
        attr_value[a].assign(spec.observation_attrs[a].values.size(),
                             rdf::kInvalidTermId);
      }
      // Measure literals by value.
      std::vector<rdf::TermId> measure_literal(kMeasureRange + 1);
      CountingIri obs_iri(spec.iri_base + "obs/");
      for (uint64_t n = 0; n < obs_count; ++n, obs_iri.Next()) {
        rdf::EncodedTriple* t = &slots[n * k];
        (t++)->s = dict.Append(obs_iri.view());
        memo(&type_pred, [] { return rdf::Term::Iri(kRdfType); });
        memo(&obs_class,
             [&] { return rdf::Term::Iri(spec.observation_class); });
        for (size_t d = 0; d < dims; ++d, ++t) {
          memo(&dim_pred[d], [&] {
            return rdf::Term::Iri(spec.iri_base + spec.dimensions[d].predicate);
          });
        }
        for (size_t m = 0; m < measures; ++m, ++t) {
          const int64_t value = t->o;
          memo(&measure_pred[m], [&] {
            return rdf::Term::Iri(spec.iri_base + spec.measure_predicates[m]);
          });
          memo(&measure_literal[value],
               [value] { return rdf::Term::IntegerLiteral(value); });
        }
        for (size_t a = 0; a < attrs; ++a, ++t) {
          const ObservationAttrSpec& attr = spec.observation_attrs[a];
          const size_t v = t->o;
          memo(&attr_pred[a], [&] {
            return rdf::Term::Iri(spec.iri_base + attr.predicate);
          });
          memo(&attr_value[a][v],
               [&] { return string_literal(attr.values[v]); });
        }
      }
      pool.ParallelFor(chunks, [&](size_t c) {
        const uint64_t begin = c * kObservationChunk;
        const uint64_t end = std::min(obs_count, begin + kObservationChunk);
        for (uint64_t n = begin; n < end; ++n) {
          rdf::EncodedTriple* t = &slots[n * k];
          const rdf::TermId obs = t->s;
          *t++ = {obs, type_pred, obs_class};
          for (size_t d = 0; d < dims; ++d, ++t) {
            *t = {obs, dim_pred[d], dim_members[d][t->o]};
          }
          for (size_t m = 0; m < measures; ++m, ++t) {
            *t = {obs, measure_pred[m], measure_literal[t->o]};
          }
          for (size_t a = 0; a < attrs; ++a, ++t) {
            *t = {obs, attr_pred[a], attr_value[a][t->o]};
          }
        }
      });
    }
    obs::Span span("qb.generate.index");
    if (util::Status st = dict.IndexAppended(&pool); !st.ok()) {
      return util::Status::InvalidArgument(
          "a generated member or observation IRI collides with another "
          "term: " + st.message());
    }
  }

  store->Freeze();
  GeneratedDataset out;
  out.store = std::move(store);
  out.spec = std::move(spec);
  return out;
}

}  // namespace re2xolap::qb

#include "qb/generator.h"

#include <set>
#include <unordered_map>

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

// Deterministic fallback parent mapping: spreads children roughly evenly
// over parents while avoiding trivial modulo clustering.
size_t HashedParent(size_t child, size_t parent_count, size_t salt) {
  uint64_t h = child * 2654435761ULL + salt * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  return static_cast<size_t>(h % parent_count);
}

}  // namespace

util::Result<GeneratedDataset> Generate(DatasetSpec spec,
                                        util::ThreadPool* freeze_pool) {
  auto store = std::make_unique<rdf::TripleStore>();
  util::Rng rng(spec.seed);

  // --- memoized interning ----------------------------------------------------
  // Each distinct term is interned once, the first time a triple needs it.
  // Every triple resolves its terms in s, p, o order, so first interns
  // happen in exactly the order per-triple Add() calls would make them and
  // the dictionary assigns the same ids. Interning goes through the
  // copying TripleStore::Intern: the dictionary then keeps an exact-size
  // copy of each concatenated IRI rather than its growth slack.
  auto memo = [&store](rdf::TermId* slot, auto&& make_term) {
    if (*slot == rdf::kInvalidTermId) *slot = store->Intern(make_term());
    return *slot;
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

  // Member ids per level (indexed like spec.levels), then member index.
  std::vector<std::vector<rdf::TermId>> member_ids(spec.levels.size());
  for (size_t l = 0; l < spec.levels.size(); ++l) {
    member_ids[l].assign(spec.levels[l].member_count(), rdf::kInvalidTermId);
  }
  auto member_id = [&](const LevelSpec& level, size_t i) {
    return memo(&member_ids[&level - spec.levels.data()][i], [&] {
      return rdf::Term::Iri(spec.iri_base + level.name + "/" +
                            std::to_string(i));
    });
  };

  // --- emit level members and their labels ---------------------------------
  // Track which levels are actually reachable from some dimension, emitting
  // members once even when shared by several branches.
  std::set<std::string> emitted;
  auto emit_level = [&](const LevelSpec& level) {
    if (!emitted.insert(level.name).second) return;
    for (size_t i = 0; i < level.labels.size(); ++i) {
      rdf::TermId s = member_id(level, i);
      rdf::TermId p = label_pred_id();
      rdf::TermId o =
          store->Intern(rdf::Term::StringLiteral(level.labels[i]));
      store->AddEncoded({s, p, o});
    }
  };

  // --- predicate labels --------------------------------------------------------
  for (const auto& [local, text] : spec.predicate_labels) {
    rdf::TermId s = store->Intern(rdf::Term::Iri(spec.iri_base + local));
    rdf::TermId p = label_pred_id();
    rdf::TermId o = store->Intern(rdf::Term::StringLiteral(text));
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

  // --- observations ----------------------------------------------------------
  // Every base level was validated by the hierarchy pass above.
  std::vector<const LevelSpec*> dim_base;
  for (const DimensionSpec& dim : spec.dimensions) {
    dim_base.push_back(levels.at(dim.base_level));
  }
  std::vector<rdf::TermId> dim_pred(spec.dimensions.size());
  std::vector<rdf::TermId> measure_pred(spec.measure_predicates.size());
  std::vector<rdf::TermId> attr_pred(spec.observation_attrs.size());
  std::vector<std::vector<rdf::TermId>> attr_value(
      spec.observation_attrs.size());
  for (size_t a = 0; a < spec.observation_attrs.size(); ++a) {
    attr_value[a].assign(spec.observation_attrs[a].values.size(),
                         rdf::kInvalidTermId);
  }
  // Measure literals by value: values are 1 + Skewed(kMeasureRange).
  constexpr uint64_t kMeasureRange = 10000;
  std::vector<rdf::TermId> measure_literal(kMeasureRange + 1);
  for (uint64_t n = 0; n < spec.observations; ++n) {
    const rdf::TermId obs = store->Intern(
        rdf::Term::Iri(spec.iri_base + "obs/" + std::to_string(n)));
    rdf::TermId p =
        memo(&type_pred, [] { return rdf::Term::Iri(kRdfType); });
    rdf::TermId o = memo(&obs_class, [&] {
      return rdf::Term::Iri(spec.observation_class);
    });
    store->AddEncoded({obs, p, o});
    for (size_t d = 0; d < spec.dimensions.size(); ++d) {
      const LevelSpec* base = dim_base[d];
      // Coverage pass: the first |base| observations cycle through every
      // member so that each base member is referenced at least once (the
      // real KGs are dense in this sense); afterwards, skewed sampling.
      size_t member;
      if (n < base->member_count()) {
        member = static_cast<size_t>(n);
      } else {
        member = static_cast<size_t>(rng.Skewed(base->member_count()));
        if (member >= base->member_count()) member = base->member_count() - 1;
      }
      p = memo(&dim_pred[d], [&] {
        return rdf::Term::Iri(spec.iri_base + spec.dimensions[d].predicate);
      });
      o = member_id(*base, member);
      store->AddEncoded({obs, p, o});
    }
    for (size_t m = 0; m < spec.measure_predicates.size(); ++m) {
      // Skewed positive integer measure (long tail of large values).
      int64_t value = 1 + static_cast<int64_t>(rng.Skewed(kMeasureRange));
      p = memo(&measure_pred[m], [&] {
        return rdf::Term::Iri(spec.iri_base + spec.measure_predicates[m]);
      });
      o = memo(&measure_literal[value],
               [value] { return rdf::Term::IntegerLiteral(value); });
      store->AddEncoded({obs, p, o});
    }
    for (size_t a = 0; a < spec.observation_attrs.size(); ++a) {
      const ObservationAttrSpec& attr = spec.observation_attrs[a];
      const size_t v = rng.Uniform(attr.values.size());
      p = memo(&attr_pred[a], [&] {
        return rdf::Term::Iri(spec.iri_base + attr.predicate);
      });
      o = memo(&attr_value[a][v],
               [&] { return rdf::Term::StringLiteral(attr.values[v]); });
      store->AddEncoded({obs, p, o});
    }
  }

  store->Freeze(freeze_pool);
  GeneratedDataset out;
  out.store = std::move(store);
  out.spec = std::move(spec);
  return out;
}

}  // namespace re2xolap::qb

#ifndef RE2XOLAP_RDF_TERM_H_
#define RE2XOLAP_RDF_TERM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace re2xolap::rdf {

/// Kind of an RDF term (Definition 3.1 of the paper: IRIs, literals, blank
/// nodes).
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlankNode = 2,
};

/// Datatype tag for literals. We model the XSD types that statistical KGs
/// actually use; anything else is kOther (datatype IRI kept in the lexical
/// form's sibling field).
enum class LiteralType : uint8_t {
  kString = 0,
  kInteger = 1,
  kDouble = 2,
  kBoolean = 3,
  kDate = 4,
  kOther = 5,
};

struct Term;

/// A non-owning view of a term: what Dictionary::term() and
/// TripleStore::term() hand out, so reading a term copies nothing. Views
/// from a dictionary or a Term have a NUL byte right after `value` (the
/// dictionary's text and std::string both guarantee it), which lets
/// AsDouble() hand the bytes to strtod exactly as Term::AsDouble() does; a
/// view built over other bytes (a snapshot entry being interned) is fine
/// to intern, hash and compare but not to call AsDouble() on. A view of an
/// interned term stays valid until the dictionary's next Intern() while
/// loading, and for the dictionary's lifetime once the store is frozen or
/// live (see Dictionary).
struct TermView {
  TermKind kind = TermKind::kIri;
  LiteralType literal_type = LiteralType::kString;
  std::string_view value = "";

  TermView() = default;
  TermView(TermKind k, std::string_view v,
           LiteralType lt = LiteralType::kString)
      : kind(k), literal_type(lt), value(v) {}
  /// Views a Term, which must outlive the view.
  TermView(const Term& t);  // NOLINT: implicit, like std::string_view

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlankNode; }
  bool is_numeric_literal() const {
    return is_literal() && (literal_type == LiteralType::kInteger ||
                            literal_type == LiteralType::kDouble);
  }

  /// Numeric value of a numeric literal (strtod of the lexical form, up to
  /// its first NUL); 0 for anything else.
  double AsDouble() const;

  /// N-Triples-style rendering: <iri>, "literal"^^type-suffix, _:label.
  std::string ToString() const;

  /// An owning copy.
  Term ToTerm() const;

  friend bool operator==(const TermView& a, const TermView& b) {
    return a.kind == b.kind && a.literal_type == b.literal_type &&
           a.value == b.value;
  }
};

/// An RDF term: an IRI, a typed literal, or a blank node. Terms are plain
/// value types; the store interns them in a Dictionary and works with
/// integer ids.
struct Term {
  TermKind kind = TermKind::kIri;
  /// IRI string, literal lexical form, or blank node label.
  std::string value;
  /// Only meaningful for literals.
  LiteralType literal_type = LiteralType::kString;

  Term() = default;
  Term(TermKind k, std::string v, LiteralType lt = LiteralType::kString)
      : kind(k), value(std::move(v)), literal_type(lt) {}
  /// Copies a view's lexical form (explicit: a copy is never silent).
  explicit Term(TermView v)
      : kind(v.kind), value(v.value), literal_type(v.literal_type) {}

  /// Factory helpers.
  static Term Iri(std::string iri) {
    return Term(TermKind::kIri, std::move(iri));
  }
  static Term StringLiteral(std::string s) {
    return Term(TermKind::kLiteral, std::move(s), LiteralType::kString);
  }
  static Term IntegerLiteral(int64_t v) {
    return Term(TermKind::kLiteral, std::to_string(v), LiteralType::kInteger);
  }
  static Term DoubleLiteral(double v);
  static Term BooleanLiteral(bool v) {
    return Term(TermKind::kLiteral, v ? "true" : "false",
                LiteralType::kBoolean);
  }
  static Term DateLiteral(std::string iso) {
    return Term(TermKind::kLiteral, std::move(iso), LiteralType::kDate);
  }
  static Term Blank(std::string label) {
    return Term(TermKind::kBlankNode, std::move(label));
  }

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlankNode; }
  bool is_numeric_literal() const {
    return is_literal() && (literal_type == LiteralType::kInteger ||
                            literal_type == LiteralType::kDouble);
  }

  /// Numeric value of a numeric literal; 0 for anything else.
  double AsDouble() const { return TermView(*this).AsDouble(); }

  /// N-Triples-style rendering: <iri>, "literal"^^type-suffix, _:label.
  std::string ToString() const { return TermView(*this).ToString(); }

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind == b.kind && a.literal_type == b.literal_type &&
           a.value == b.value;
  }
  friend bool operator<(const Term& a, const Term& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.literal_type != b.literal_type) return a.literal_type < b.literal_type;
    return a.value < b.value;
  }
};

inline TermView::TermView(const Term& t)
    : kind(t.kind), literal_type(t.literal_type), value(t.value) {}

inline Term TermView::ToTerm() const { return Term(*this); }

/// Hash functor so Term can key unordered containers. Transparent: a
/// TermView hashes like the Term it views, so Term-keyed containers can be
/// probed with a view (pair with std::equal_to<>).
struct TermHash {
  using is_transparent = void;
  size_t operator()(TermView t) const {
    size_t h = std::hash<std::string_view>()(t.value);
    h ^= (static_cast<size_t>(t.kind) * 0x9E3779B97F4A7C15ULL) +
         (static_cast<size_t>(t.literal_type) << 16);
    return h;
  }
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_TERM_H_

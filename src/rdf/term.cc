#include "rdf/term.h"

#include <cstdio>
#include <cstdlib>

namespace re2xolap::rdf {

Term Term::DoubleLiteral(double v) {
  // %.17g guarantees the lexical form round-trips to the same double —
  // filter thresholds computed from aggregates must compare exactly.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return Term(TermKind::kLiteral, buf, LiteralType::kDouble);
}

double TermView::AsDouble() const {
  if (!is_literal()) return 0.0;
  switch (literal_type) {
    case LiteralType::kInteger:
    case LiteralType::kDouble:
      // The byte after `value` is a NUL, so strtod reads what
      // Term::AsDouble() reads through c_str().
      return std::strtod(value.data(), nullptr);
    default:
      return 0.0;
  }
}

std::string TermView::ToString() const {
  auto wrap = [this](std::string_view open, std::string_view close) {
    std::string out;
    out.reserve(open.size() + value.size() + close.size());
    out.append(open).append(value).append(close);
    return out;
  };
  switch (kind) {
    case TermKind::kIri:
      return wrap("<", ">");
    case TermKind::kBlankNode:
      return wrap("_:", "");
    case TermKind::kLiteral:
      switch (literal_type) {
        case LiteralType::kString:
          return wrap("\"", "\"");
        case LiteralType::kInteger:
          return wrap("\"", "\"^^xsd:integer");
        case LiteralType::kDouble:
          return wrap("\"", "\"^^xsd:double");
        case LiteralType::kBoolean:
          return wrap("\"", "\"^^xsd:boolean");
        case LiteralType::kDate:
          return wrap("\"", "\"^^xsd:date");
        case LiteralType::kOther:
          return wrap("\"", "\"^^<unknown>");
      }
  }
  return std::string(value);
}

}  // namespace re2xolap::rdf

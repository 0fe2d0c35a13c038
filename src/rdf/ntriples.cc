#include "rdf/ntriples.h"

#include <string>

#include "util/string_utils.h"

namespace re2xolap::rdf {

namespace {

// Parses one term starting at position `i` of `line`; advances `i` past the
// term and any following spaces. Returns false on malformed input with
// `error` set.
bool ParseTerm(std::string_view line, size_t* i, Term* out,
               std::string* error) {
  while (*i < line.size() && line[*i] == ' ') ++*i;
  if (*i >= line.size()) {
    *error = "unexpected end of line";
    return false;
  }
  char c = line[*i];
  if (c == '<') {
    size_t end = line.find('>', *i);
    if (end == std::string_view::npos) {
      *error = "unterminated IRI";
      return false;
    }
    *out = Term::Iri(std::string(line.substr(*i + 1, end - *i - 1)));
    *i = end + 1;
    return true;
  }
  if (c == '_' && *i + 1 < line.size() && line[*i + 1] == ':') {
    size_t end = *i + 2;
    while (end < line.size() && line[end] != ' ') ++end;
    *out = Term::Blank(std::string(line.substr(*i + 2, end - *i - 2)));
    *i = end;
    return true;
  }
  if (c == '"') {
    size_t end = *i + 1;
    std::string lex;
    while (end < line.size() && line[end] != '"') {
      if (line[end] == '\\' && end + 1 < line.size()) {
        ++end;
        switch (line[end]) {
          case 'n': lex += '\n'; break;
          case 'r': lex += '\r'; break;
          case 't': lex += '\t'; break;
          default: lex += line[end]; break;  // \\ and \" decode here too
        }
        ++end;
        continue;
      }
      lex += line[end];
      ++end;
    }
    if (end >= line.size()) {
      *error = "unterminated literal";
      return false;
    }
    size_t after = end + 1;
    LiteralType lt = LiteralType::kString;
    if (after + 1 < line.size() && line[after] == '^' &&
        line[after + 1] == '^') {
      size_t type_end = after + 2;
      while (type_end < line.size() && line[type_end] != ' ') ++type_end;
      std::string_view dt = line.substr(after + 2, type_end - after - 2);
      if (dt == "xsd:integer") {
        lt = LiteralType::kInteger;
      } else if (dt == "xsd:double" || dt == "xsd:decimal") {
        lt = LiteralType::kDouble;
      } else if (dt == "xsd:boolean") {
        lt = LiteralType::kBoolean;
      } else if (dt == "xsd:date") {
        lt = LiteralType::kDate;
      } else {
        lt = LiteralType::kOther;
      }
      after = type_end;
    }
    *out = Term(TermKind::kLiteral, std::move(lex), lt);
    *i = after;
    return true;
  }
  *error = "unexpected character '" + std::string(1, c) + "'";
  return false;
}

}  // namespace

namespace {

// Escapes a literal lexical form for embedding between the writer's quotes.
std::string EscapeLexical(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

}  // namespace

std::string ToNTriples(TermView term) {
  switch (term.kind) {
    case TermKind::kIri:
      return "<" + std::string(term.value) + ">";
    case TermKind::kBlankNode:
      return "_:" + std::string(term.value);
    case TermKind::kLiteral: {
      std::string quoted = "\"" + EscapeLexical(term.value) + "\"";
      switch (term.literal_type) {
        case LiteralType::kString: return quoted;
        case LiteralType::kInteger: return quoted + "^^xsd:integer";
        case LiteralType::kDouble: return quoted + "^^xsd:double";
        case LiteralType::kBoolean: return quoted + "^^xsd:boolean";
        case LiteralType::kDate: return quoted + "^^xsd:date";
        case LiteralType::kOther: return quoted + "^^<unknown>";
      }
      return quoted;
    }
  }
  return std::string(term.value);
}

void WriteNTriples(const TripleStore& store, std::ostream& os) {
  for (const EncodedTriple& t : store.Match(TriplePattern{})) {
    os << ToNTriples(store.term(t.s)) << " " << ToNTriples(store.term(t.p))
       << " " << ToNTriples(store.term(t.o)) << " .\n";
  }
}

namespace {

// Shared statement walk for the two parse entry points: calls
// emit(s, p, o) per valid statement.
template <typename Emit>
util::Status ParseStatements(std::string_view text, Emit&& emit) {
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    line = util::Trim(line);
    if (line.empty() || line[0] == '#') continue;
    size_t i = 0;
    Term s, p, o;
    std::string error;
    if (!ParseTerm(line, &i, &s, &error) || !ParseTerm(line, &i, &p, &error) ||
        !ParseTerm(line, &i, &o, &error)) {
      return util::Status::ParseError("line " + std::to_string(line_no) +
                                      ": " + error);
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size() || line[i] != '.') {
      return util::Status::ParseError("line " + std::to_string(line_no) +
                                      ": missing terminating '.'");
    }
    if (!s.is_iri() && !s.is_blank()) {
      return util::Status::ParseError("line " + std::to_string(line_no) +
                                      ": literal subject");
    }
    if (!p.is_iri()) {
      return util::Status::ParseError("line " + std::to_string(line_no) +
                                      ": predicate must be an IRI");
    }
    emit(std::move(s), std::move(p), std::move(o));
  }
  return util::Status::OK();
}

}  // namespace

util::Status ParseNTriples(std::string_view text, TripleStore* store) {
  return ParseStatements(text, [store](Term&& s, Term&& p, Term&& o) {
    store->Add(s, p, o);
  });
}

util::Status ParseNTriplesTerms(std::string_view text,
                                std::vector<std::array<Term, 3>>* out) {
  return ParseStatements(text, [out](Term&& s, Term&& p, Term&& o) {
    out->push_back({std::move(s), std::move(p), std::move(o)});
  });
}

}  // namespace re2xolap::rdf

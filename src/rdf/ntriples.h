#ifndef RE2XOLAP_RDF_NTRIPLES_H_
#define RE2XOLAP_RDF_NTRIPLES_H_

#include <array>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/triple_store.h"
#include "util/status.h"

namespace re2xolap::rdf {

/// Renders one term in the writer's N-Triples-like syntax: <iri>, _:label,
/// or "literal"^^type-suffix with backslash escapes (\\ \" \n \r \t) in the
/// lexical form, so literals containing quotes or newlines survive a
/// write → parse round trip (unlike Term::ToString(), which is display-
/// oriented and escapes nothing).
std::string ToNTriples(TermView term);

/// Serializes the store's triples (canonical SPO order) in an N-Triples-
/// like line format:
///   <s-iri> <p-iri> <o-term> .
/// The store must be frozen. Together with ParseNTriples this round-trips:
/// parse(write(store)) reproduces the exact same term values and triple
/// set, so any loaded snapshot can be exported back to text.
void WriteNTriples(const TripleStore& store, std::ostream& os);

/// Parses N-Triples-like text (one `<s> <p> o .` statement per line; `#`
/// comments and blank lines allowed) into `store`. Supported object forms:
/// <iri>, _:blank, "string", "lex"^^xsd:integer|xsd:double|xsd:boolean|
/// xsd:date. Backslash escapes \\ \" \n \r \t in literals are decoded;
/// an unknown escape keeps the escaped character. The caller still needs
/// to Freeze() the store.
util::Status ParseNTriples(std::string_view text, TripleStore* store);

/// Same grammar as ParseNTriples, but appends parsed (s, p, o) term
/// triples to `out` instead of mutating a store — the live-ingest path
/// (store::Ingestor) parses first and interns later, under its own
/// concurrency rules, so parsing must not touch the store. On error,
/// `out` keeps the statements parsed before the bad line.
util::Status ParseNTriplesTerms(std::string_view text,
                                std::vector<std::array<Term, 3>>* out);

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_NTRIPLES_H_

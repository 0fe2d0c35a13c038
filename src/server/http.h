#ifndef RE2XOLAP_SERVER_HTTP_H_
#define RE2XOLAP_SERVER_HTTP_H_

// Minimal, dependency-free HTTP/1.1 message layer for the server front
// door: request-head parsing with hard byte bounds and response
// serialization. No sockets here — the connection loop in server.cc owns
// all I/O; this layer turns bounded byte buffers into typed requests and
// responses back into bytes, so it is unit-testable without a network.
//
// Scope (deliberate): methods GET/POST/DELETE, Content-Length bodies
// only (Transfer-Encoding is rejected with kInvalidArgument), no
// multipart, no TLS. Every parse failure is a typed util::Status — a
// malformed head can never crash the server or allocate unboundedly.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/result.h"

namespace re2xolap::server {

/// Bounds on one request's resident bytes. A head that exceeds
/// `max_head_bytes` before its terminating CRLFCRLF, or a declared
/// Content-Length above `max_body_bytes`, is rejected before any further
/// buffering (431 / 413 at the HTTP layer).
struct HttpLimits {
  size_t max_head_bytes = 16u << 10;
  size_t max_body_bytes = 1u << 20;
};

/// One parsed request. Header names are lowercased at parse time; the
/// target is split into `path` and decoded `query_params`.
struct HttpRequest {
  std::string method;  // "GET", "POST", "DELETE"
  std::string target;  // raw request target, e.g. "/query?timeout_ms=50"
  std::string path;    // "/query"
  std::vector<std::pair<std::string, std::string>> query_params;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// HTTP/1.1 defaults to keep-alive; "Connection: close" (or HTTP/1.0
  /// without "Connection: keep-alive") clears it.
  bool keep_alive = true;
  /// Declared Content-Length (0 when absent).
  uint64_t content_length = 0;

  /// Value of header `name` (lowercase), or "" when absent.
  std::string_view Header(std::string_view name) const;
  /// Value of query parameter `name` (percent-decoded), or "" when absent.
  std::string_view QueryParam(std::string_view name) const;
  /// Numeric query parameter with fallback; non-numeric values fall back.
  uint64_t QueryParamUint(std::string_view name, uint64_t fallback) const;
};

/// One response under construction. SerializeResponse adds the status
/// line, Content-Type, Content-Length, Connection, and `extra_headers`.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string body;
};

/// Canonical reason phrase for the status codes the server emits
/// ("Service Unavailable" for 503, ...); "Unknown" otherwise.
const char* HttpStatusText(int status);

/// Parses a request head (everything before the CRLFCRLF, which `head`
/// must not include). The body is read separately by the caller using
/// the returned `content_length`. Failures are typed:
///   kInvalidArgument  malformed request line / header / length,
///                     unsupported Transfer-Encoding
///   kResourceExhausted declared Content-Length > limits.max_body_bytes
util::Result<HttpRequest> ParseRequestHead(std::string_view head,
                                           const HttpLimits& limits);

/// Serializes `resp` into wire bytes. `keep_alive` selects the
/// Connection header ("keep-alive" / "close"); Content-Length always
/// matches the body.
std::string SerializeResponse(const HttpResponse& resp, bool keep_alive);

/// Percent-decodes a URL component ('+' becomes space; invalid escapes
/// pass through verbatim).
std::string UrlDecode(std::string_view s);

/// The JSON string escaper, shared with the observability layer.
using obs::JsonEscape;

/// Builds the uniform JSON error body: {"error": <msg>, "code": <code>}.
std::string JsonError(std::string_view code, std::string_view message);

}  // namespace re2xolap::server

#endif  // RE2XOLAP_SERVER_HTTP_H_

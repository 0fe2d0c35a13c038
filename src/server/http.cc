#include "server/http.h"

#include <algorithm>
#include <cctype>

#include "util/string_utils.h"

namespace re2xolap::server {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return v;
  }
  return {};
}

std::string_view HttpRequest::QueryParam(std::string_view name) const {
  for (const auto& [k, v] : query_params) {
    if (k == name) return v;
  }
  return {};
}

uint64_t HttpRequest::QueryParamUint(std::string_view name,
                                     uint64_t fallback) const {
  std::string_view v = QueryParam(name);
  if (v.empty()) return fallback;
  uint64_t out = 0;
  for (char c : v) {
    if (c < '0' || c > '9') return fallback;
    if (out > (UINT64_MAX - 9) / 10) return fallback;
    out = out * 10 + static_cast<uint64_t>(c - '0');
  }
  return out;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Unknown";
  }
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size() && HexValue(s[i + 1]) >= 0 &&
               HexValue(s[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexValue(s[i + 1]) * 16 +
                                      HexValue(s[i + 2])));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonError(std::string_view code, std::string_view message) {
  return "{\"error\": \"" + JsonEscape(message) + "\", \"code\": \"" +
         JsonEscape(code) + "\"}\n";
}

util::Result<HttpRequest> ParseRequestHead(std::string_view head,
                                           const HttpLimits& limits) {
  if (head.size() > limits.max_head_bytes) {
    return util::Status::InvalidArgument("request head too large");
  }
  HttpRequest req;

  // Request line: METHOD SP target SP HTTP/1.x
  size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) line_end = head.size();
  std::string_view line = head.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return util::Status::InvalidArgument("malformed request line");
  }
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  std::string_view version = line.substr(sp2 + 1);
  bool http10 = version == "HTTP/1.0";
  if (!http10 && version != "HTTP/1.1") {
    return util::Status::InvalidArgument("unsupported HTTP version \"" +
                                         std::string(version) + "\"");
  }
  req.keep_alive = !http10;
  if (req.method != "GET" && req.method != "POST" && req.method != "DELETE") {
    return util::Status::InvalidArgument("unsupported method \"" +
                                         req.method + "\"");
  }
  if (req.target.empty() || req.target[0] != '/') {
    return util::Status::InvalidArgument("request target must be absolute");
  }

  // Split target into path + query parameters.
  size_t qpos = req.target.find('?');
  req.path = req.target.substr(0, qpos);
  if (qpos != std::string::npos) {
    for (const std::string& pair :
         util::Split(std::string_view(req.target).substr(qpos + 1), '&')) {
      if (pair.empty()) continue;
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        req.query_params.emplace_back(UrlDecode(pair), "");
      } else {
        req.query_params.emplace_back(
            UrlDecode(std::string_view(pair).substr(0, eq)),
            UrlDecode(std::string_view(pair).substr(eq + 1)));
      }
    }
  }

  // Header fields.
  size_t pos = line_end;
  while (pos < head.size()) {
    pos += 2;  // skip CRLF
    size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = head.size();
    std::string_view field = head.substr(pos, next - pos);
    pos = next;
    if (field.empty()) continue;
    size_t colon = field.find(':');
    if (colon == std::string_view::npos) {
      return util::Status::InvalidArgument("malformed header field");
    }
    std::string name = util::ToLower(util::Trim(field.substr(0, colon)));
    std::string value(util::Trim(field.substr(colon + 1)));
    if (name.empty()) {
      return util::Status::InvalidArgument("empty header name");
    }
    req.headers.emplace_back(std::move(name), std::move(value));
  }

  std::string_view connection = req.Header("connection");
  if (EqualsIgnoreCase(connection, "close")) req.keep_alive = false;
  if (http10 && EqualsIgnoreCase(connection, "keep-alive")) {
    req.keep_alive = true;
  }

  if (!req.Header("transfer-encoding").empty()) {
    return util::Status::InvalidArgument(
        "Transfer-Encoding is not supported; use Content-Length");
  }
  std::string_view length = req.Header("content-length");
  if (!length.empty()) {
    uint64_t n = 0;
    for (char c : length) {
      if (c < '0' || c > '9') {
        return util::Status::InvalidArgument("malformed Content-Length");
      }
      if (n > (UINT64_MAX - 9) / 10) {
        return util::Status::InvalidArgument("malformed Content-Length");
      }
      n = n * 10 + static_cast<uint64_t>(c - '0');
    }
    if (n > limits.max_body_bytes) {
      return util::Status::ResourceExhausted(
          "request body of " + std::string(length) + " bytes exceeds the " +
          std::to_string(limits.max_body_bytes) + "-byte limit");
    }
    req.content_length = n;
  }
  return req;
}

std::string SerializeResponse(const HttpResponse& resp, bool keep_alive) {
  std::string out;
  out.reserve(resp.body.size() + 256);
  out += "HTTP/1.1 ";
  out += std::to_string(resp.status);
  out += ' ';
  out += HttpStatusText(resp.status);
  out += "\r\nContent-Type: ";
  out += resp.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(resp.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n";
  for (const auto& [k, v] : resp.extra_headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "\r\n";
  out += resp.body;
  return out;
}

}  // namespace re2xolap::server

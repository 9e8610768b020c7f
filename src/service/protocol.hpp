// kgdd wire protocol (schema_version = io::kSchemaVersion; v2 added the
// solver counter surfaces to `stats` bodies and verdict objects; v3
// added the `route` method, the request-side `schema_version` field,
// and serves every reply through the unified Envelope below; v4 added
// the fleet `lease`/`lease.release` methods and the `stats` fleet
// block; v5 added `fleet.join`/`fleet.leave` (elastic membership), the
// durable-coordinator grant params `generation`/`refenced`, and their
// `stats` fleet counters; v6 added the `stats` solver `kernel` block and
// v7 removed it again — servers still accept v1..v6 requests on the
// wire).
//
// Transport: newline-delimited JSON frames (see docs/service.md for the
// full schema reference). A request is one object:
//
//   {"method": "verify", "params": {...}, "tag": "optional-client-tag",
//    "schema_version": 3}
//
// `schema_version` declares the client's dialect; it is optional
// (defaults to the server's version) and must be in [1, server version]
// — anything newer is rejected with `bad_request` rather than answered
// in a shape the client cannot have meant.
//
// Every reply frame carries {"schema_version", "req"} where `req` is the
// server-assigned request id ("r<N>", monotone per daemon), plus the
// client's `tag` verbatim when one was given, and a "type":
//
//   "result"    terminal success frame (exactly one per request)
//   "error"     terminal failure frame {"code", "message"}
//   "accepted"  a streaming verify was admitted {"session": "s<N>"}
//   "progress"  streaming progress {"session", "items_done", "items_total"}
//
// Error codes are a closed enum (ErrorCode) so clients can switch on
// them; the human-readable message is advisory only.
#pragma once

#include <string>

#include "io/json.hpp"

namespace kgdp::service {

enum class ErrorCode {
  kBadFrame,       // not a JSON object / unparsable
  kBadRequest,     // missing or ill-typed method/params/schema_version
  kUnknownMethod,
  kUnsupported,    // (n, k) outside the paper's construction coverage
  kNotFound,       // unknown session / campaign dir
  kOverloaded,     // admission queue or session registry full
  kShuttingDown,   // daemon is draining
  kFrameTooLarge,
  kInternal,
};

const char* error_code_name(ErrorCode code);

// One parsed, validated request plus everything needed to stamp its
// replies. Every kgdd method builds its frames through this one type,
// so request-id/tag propagation and version stamping cannot drift
// between methods. Copyable: streaming sessions keep their envelope for
// the lifetime of the reply stream.
struct Envelope {
  std::string req_id;  // server-assigned ("r<N>")
  std::string tag;     // client tag, propagated verbatim when non-empty
  std::string method;
  // The client's declared dialect (validated to [1, io::kSchemaVersion]
  // by parse_envelope; defaults to the server's version when absent).
  int schema_version = io::kSchemaVersion;
  // The full parsed request frame; params() points into it.
  io::Json request;

  const io::Json* params() const { return request.find("params"); }

  // Reply builders, all stamped {schema_version, req, type [, tag]}.
  io::Json result(io::JsonObject body) const;
  io::Json error(ErrorCode code, const std::string& message) const;
  io::Json event(const std::string& type, io::JsonObject body) const;
};

// Parses one wire frame into *env (whose req_id the caller has already
// assigned). On failure fills *reply with the terminal error frame —
// built from whatever method/tag were recovered before the reject — and
// returns false.
bool parse_envelope(const std::string& frame, Envelope* env,
                    io::Json* reply);

// Low-level frame builders underlying Envelope's; `tag` is propagated
// when non-empty. Exposed for replies that have no envelope (abuse
// notices) and for tests that forge frames.
io::Json make_result(const std::string& req_id, const std::string& tag,
                     io::JsonObject body);
io::Json make_error(const std::string& req_id, const std::string& tag,
                    ErrorCode code, const std::string& message);
io::Json make_event(const std::string& req_id, const std::string& tag,
                    const std::string& type, io::JsonObject body);

// True for the frame types that end a request's reply stream.
bool is_terminal_frame(const io::Json& frame);

}  // namespace kgdp::service

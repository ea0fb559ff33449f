// Synchronous client for the object server (DESIGN.md §13).
//
// One ObjClient is one TCP connection, used from one thread at a time
// (open several clients for concurrency — the server multiplexes them).
// Call() is strict request/response: it frames and writes the request,
// then blocks reading frames until the response with the matching id
// arrives. Because this client never pipelines, matching is trivial; the
// id is still checked so a desynced server (or a buggy one) is detected
// instead of silently mis-pairing answers.
//
// All failures come back as Status — a refused connection, a short read
// on a dying socket, a corrupt frame — and any of them leaves the client
// closed (the stream cannot be trusted after a framing error).
#ifndef OBJREP_NET_CLIENT_H_
#define OBJREP_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "objstore/oid.h"
#include "util/status.h"

namespace objrep {
namespace net {

class ObjClient {
 public:
  ObjClient() = default;
  ~ObjClient() { Close(); }

  ObjClient(const ObjClient&) = delete;
  ObjClient& operator=(const ObjClient&) = delete;

  /// Connects (blocking) to host:port. TCP_NODELAY is set: requests are
  /// small and latency-bound.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends `req` and blocks for its response. The request id is assigned
  /// automatically (monotonic per client) unless `req.id` is nonzero.
  /// A transport or framing failure closes the connection; a server-side
  /// rejection (SERVER_BUSY, BAD_REQUEST, ...) is a *successful* call —
  /// inspect `out->status`.
  ///
  /// Tracing: each call mints a trace id (or adopts the ambient one when
  /// the caller already established a ScopedTraceId) and carries it in
  /// the v3 frame header, so the client_call span and every server-side
  /// span for this request share one id. Read it back via last_trace_id().
  Status Call(Request req, Response* out);

  /// Trace id carried by the most recent Call() (0 before the first).
  uint64_t last_trace_id() const { return last_trace_id_; }

  // Convenience wrappers. Each returns non-OK either on transport failure
  // or when the server answered with a non-OK RespStatus (the response is
  // still filled in when `out`/`resp` is non-null, so callers that care
  // can distinguish SERVER_BUSY from a dead socket).

  /// RETRIEVE [lo_parent, lo_parent+num_top) on ret<attr_index+1>.
  Status Retrieve(uint32_t lo_parent, uint32_t num_top, uint8_t attr_index,
                  std::vector<int32_t>* values,
                  uint8_t strategy = kDefaultStrategyByte,
                  Response* resp = nullptr);
  /// RETRIEVE with the PROFILE flag: on success `*profile_json` holds the
  /// server's RetrieveProfile (EXPLAIN ANALYZE) for this one request.
  Status RetrieveProfiled(uint32_t lo_parent, uint32_t num_top,
                          uint8_t attr_index, std::vector<int32_t>* values,
                          std::string* profile_json,
                          uint8_t strategy = kDefaultStrategyByte);
  /// UPDATE: set ret1 of every OID in `targets` to `new_ret1`.
  Status Update(const std::vector<Oid>& targets, int32_t new_ret1,
                uint8_t strategy = kDefaultStrategyByte,
                Response* resp = nullptr);
  Status Ping();
  Status Stats(std::string* stats_json);
  /// Asks the server to drain and exit (it answers OK first).
  Status Shutdown();

 private:
  Status WriteAll(const char* data, size_t len);
  Status ReadResponse(Response* out);

  int fd_ = -1;
  uint64_t next_id_ = 1;
  uint64_t last_trace_id_ = 0;
  FrameDecoder decoder_;
};

}  // namespace net
}  // namespace objrep

#endif  // OBJREP_NET_CLIENT_H_

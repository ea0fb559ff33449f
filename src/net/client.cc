#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "obs/trace_context.h"

namespace objrep {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Status ObjClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  decoder_ = FrameDecoder();
  return Status::OK();
}

void ObjClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ObjClient::WriteAll(const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd_, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ObjClient::ReadResponse(Response* out) {
  char buf[65536];
  for (;;) {
    std::string payload;
    bool ready = false;
    OBJREP_RETURN_NOT_OK(decoder_.Next(&payload, &ready));
    if (ready) return DecodeResponse(payload, out);
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      return Status::IOError("connection closed mid-response");
    }
    decoder_.Feed(buf, static_cast<size_t>(n));
  }
}

Status ObjClient::Call(Request req, Response* out) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  if (req.id == 0) req.id = next_id_++;
  const uint64_t want_id = req.id;

  // The client owns trace identity: adopt the ambient id when the caller
  // already opened one (a driver loop tracing several calls as one
  // request), otherwise mint a fresh one. The id rides the frame header,
  // so the server-side spans stitch to this client_call span by id.
  uint64_t trace_id = CurrentTraceId();
  if (trace_id == 0) trace_id = TraceIdGen::Next();
  last_trace_id_ = trace_id;
  ScopedTraceId trace_scope(trace_id);
  TraceSpan span("client_call", "client");
  span.SetArg("verb", static_cast<uint64_t>(req.verb));

  std::string frame = EncodeFrame(EncodeRequest(req), trace_id);
  Status s = WriteAll(frame.data(), frame.size());
  if (s.ok()) s = ReadResponse(out);
  if (s.ok() && out->id != want_id) {
    s = Status::Corruption("response id mismatch (stream desynced)");
  }
  if (!s.ok()) {
    // Transport or framing failure: the byte stream can no longer be
    // trusted to carry aligned frames.
    Close();
  }
  return s;
}

namespace {

/// Convenience-wrapper contract: a non-OK RespStatus becomes a non-OK
/// Status carrying the server's error text.
Status AsStatus(const Response& resp) {
  if (resp.status == RespStatus::kOk) return Status::OK();
  std::string msg = std::string(RespStatusName(resp.status)) +
                    (resp.error.empty() ? "" : ": " + resp.error);
  return resp.status == RespStatus::kBadRequest
             ? Status::InvalidArgument(std::move(msg))
             : Status::IOError(std::move(msg));
}

}  // namespace

Status ObjClient::Retrieve(uint32_t lo_parent, uint32_t num_top,
                           uint8_t attr_index, std::vector<int32_t>* values,
                           uint8_t strategy, Response* resp) {
  Request req;
  req.verb = Verb::kRetrieve;
  req.strategy = strategy;
  req.lo_parent = lo_parent;
  req.num_top = num_top;
  req.attr_index = attr_index;
  Response local;
  Response* r = resp != nullptr ? resp : &local;
  OBJREP_RETURN_NOT_OK(Call(std::move(req), r));
  OBJREP_RETURN_NOT_OK(AsStatus(*r));
  if (values != nullptr) *values = std::move(r->values);
  return Status::OK();
}

Status ObjClient::RetrieveProfiled(uint32_t lo_parent, uint32_t num_top,
                                   uint8_t attr_index,
                                   std::vector<int32_t>* values,
                                   std::string* profile_json,
                                   uint8_t strategy) {
  Request req;
  req.verb = Verb::kRetrieve;
  req.strategy = strategy;
  req.flags = kReqFlagProfile;
  req.lo_parent = lo_parent;
  req.num_top = num_top;
  req.attr_index = attr_index;
  Response resp;
  OBJREP_RETURN_NOT_OK(Call(std::move(req), &resp));
  OBJREP_RETURN_NOT_OK(AsStatus(resp));
  if (values != nullptr) *values = std::move(resp.values);
  if (profile_json != nullptr) *profile_json = std::move(resp.profile_json);
  return Status::OK();
}

Status ObjClient::Update(const std::vector<Oid>& targets, int32_t new_ret1,
                         uint8_t strategy, Response* resp) {
  Request req;
  req.verb = Verb::kUpdate;
  req.strategy = strategy;
  req.update_targets = targets;
  req.new_ret1 = new_ret1;
  Response local;
  Response* r = resp != nullptr ? resp : &local;
  OBJREP_RETURN_NOT_OK(Call(std::move(req), r));
  return AsStatus(*r);
}

Status ObjClient::Ping() {
  Request req;
  req.verb = Verb::kPing;
  Response resp;
  OBJREP_RETURN_NOT_OK(Call(std::move(req), &resp));
  return AsStatus(resp);
}

Status ObjClient::Stats(std::string* stats_json) {
  Request req;
  req.verb = Verb::kStats;
  Response resp;
  OBJREP_RETURN_NOT_OK(Call(std::move(req), &resp));
  OBJREP_RETURN_NOT_OK(AsStatus(resp));
  if (stats_json != nullptr) *stats_json = std::move(resp.stats_json);
  return Status::OK();
}

Status ObjClient::Shutdown() {
  Request req;
  req.verb = Verb::kShutdown;
  Response resp;
  OBJREP_RETURN_NOT_OK(Call(std::move(req), &resp));
  return AsStatus(resp);
}

}  // namespace net
}  // namespace objrep

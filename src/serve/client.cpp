#include "serve/client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "base/error.h"

namespace esl::serve {

namespace {

int connectOnce(const std::string& socketPath, std::string& why) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ESL_CHECK(fd >= 0, std::string("cannot create socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socketPath.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    why = std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int connectTo(const std::string& socketPath, const Client::Options& options) {
  ESL_CHECK(socketPath.size() < sizeof(sockaddr_un{}.sun_path),
            "socket path too long: '" + socketPath + "'");
  std::string why;
  std::uint64_t delayMs = options.backoffMs == 0 ? 1 : options.backoffMs;
  for (unsigned attempt = 0;; ++attempt) {
    const int fd = connectOnce(socketPath, why);
    if (fd >= 0) {
      if (options.timeoutMs > 0) {
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(options.timeoutMs / 1000);
        tv.tv_usec = static_cast<suseconds_t>((options.timeoutMs % 1000) * 1000);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
      }
      return fd;
    }
    if (attempt >= options.retries)
      throw ConnectError("cannot connect to '" + socketPath + "' after " +
                         std::to_string(attempt + 1) + " attempt(s): " + why);
    std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
    delayMs = std::min<std::uint64_t>(delayMs * 2, 10'000);  // bounded backoff
  }
}

void setOptionFields(json::Value& head, const SimSession::Options& options) {
  const SimSession::Options defaults;
  // Always sent: the request then means the same whatever the default.
  const bool compiled = options.backend == SimContext::Backend::kCompiled;
  head.set("backend", json::Value::str(compiled ? "compiled" : "interpreted"));
  if (options.shards != defaults.shards)
    head.set("shards", json::Value::number(std::uint64_t{options.shards}));
  if (options.seed != defaults.seed)
    head.set("seed", json::Value::number(options.seed));
  if (options.checkProtocol != defaults.checkProtocol)
    head.set("check", json::Value::boolean(options.checkProtocol));
  if (options.crossCheck != defaults.crossCheck)
    head.set("cross-check", json::Value::boolean(options.crossCheck));
}

std::string textOf(const json::Value& reply) {
  const json::Value* text = reply.find("text");
  return text != nullptr ? text->asString() : std::string();
}

}  // namespace

Client::Client(const std::string& socketPath, const Options& options)
    : fd_(connectTo(socketPath, options)), reader_(fd_) {
  try {
    Frame greeting;
    if (!reader_.read(greeting))
      throw ConnectionLostError("server hung up before greeting");
    const json::Value* proto = greeting.head.find("proto");
    ESL_CHECK(proto != nullptr, "malformed server greeting");
    json::Value hello = json::Value::object();
    hello.set("op", json::Value::str("hello"));
    hello.set("proto", json::Value::number(kProtocolVersion));
    request(std::move(hello));
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

json::Value Client::request(json::Value head, const std::string& payload,
                            std::string* payloadOut) {
  const std::uint64_t id = nextId_++;
  head.set("id", json::Value::number(id));
  Frame reply;
  // Transport damage (EPIPE on the send, a torn or missing reply) means the
  // daemon died mid-command: surface it as ConnectionLostError so callers
  // can retry against a restarted daemon. A reply deadline (TimeoutError)
  // passes through untouched.
  try {
    writeFrame(fd_, std::move(head), payload);
    if (!reader_.read(reply))
      throw ConnectionLostError("server hung up mid-request");
  } catch (const TimeoutError&) {
    throw;
  } catch (const ProtocolError& e) {
    throw ConnectionLostError(std::string("connection lost mid-request: ") +
                              e.what());
  }
  const json::Value* rid = reply.head.find("id");
  ESL_CHECK(rid != nullptr && rid->asU64() == id,
            "response id does not match the request");
  const json::Value* ok = reply.head.find("ok");
  ESL_CHECK(ok != nullptr, "malformed response (no 'ok')");
  if (!ok->asBool()) {
    std::string kind = "error";
    std::string message = "unknown server error";
    if (const json::Value* err = reply.head.find("error")) {
      if (const json::Value* k = err->find("kind")) kind = k->asString();
      if (const json::Value* m = err->find("message")) message = m->asString();
    }
    throw ServerError(kind, message);
  }
  if (payloadOut != nullptr) *payloadOut = std::move(reply.payload);
  return std::move(reply.head);
}

json::Value Client::sessionHead(const std::string& op, const std::string& sid) {
  json::Value head = json::Value::object();
  head.set("op", json::Value::str(op));
  head.set("session", json::Value::str(sid));
  return head;
}

std::string Client::openDesign(const std::string& sid, const std::string& design,
                               const SimSession::Options& options) {
  json::Value head = sessionHead("open", sid);
  head.set("design", json::Value::str(design));
  setOptionFields(head, options);
  return textOf(request(std::move(head)));
}

std::string Client::openEsl(const std::string& sid, const std::string& eslText,
                            const std::string& origin,
                            const SimSession::Options& options) {
  json::Value head = sessionHead("open", sid);
  head.set("origin", json::Value::str(origin));
  setOptionFields(head, options);
  return textOf(request(std::move(head), eslText));
}

std::string Client::cmd(const std::string& sid, const std::string& line) {
  json::Value head = sessionHead("cmd", sid);
  head.set("line", json::Value::str(line));
  return textOf(request(std::move(head)));
}

std::string Client::step(const std::string& sid, std::uint64_t cycles) {
  json::Value head = sessionHead("step", sid);
  head.set("cycles", json::Value::number(cycles));
  return textOf(request(std::move(head)));
}

std::string Client::sinks(const std::string& sid) {
  json::Value head = sessionHead("query", sid);
  head.set("what", json::Value::str("sinks"));
  return textOf(request(std::move(head)));
}

std::string Client::tput(const std::string& sid, const std::string& channel) {
  json::Value head = sessionHead("query", sid);
  head.set("what", json::Value::str("tput"));
  head.set("channel", json::Value::str(channel));
  return textOf(request(std::move(head)));
}

std::uint64_t Client::cycle(const std::string& sid) {
  json::Value head = sessionHead("query", sid);
  head.set("what", json::Value::str("cycle"));
  const json::Value reply = request(std::move(head));
  const json::Value* cycle = reply.find("cycle");
  ESL_CHECK(cycle != nullptr, "malformed cycle reply");
  return cycle->asU64();
}

std::vector<std::uint8_t> Client::snapshot(const std::string& sid) {
  std::string payload;
  request(sessionHead("snapshot", sid), {}, &payload);
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

void Client::restore(const std::string& sid,
                     const std::vector<std::uint8_t>& bytes) {
  request(sessionHead("restore", sid),
          std::string(bytes.begin(), bytes.end()));
}

void Client::watch(const std::string& sid,
                   const std::vector<std::string>& channels) {
  json::Value head = sessionHead("watch", sid);
  json::Value chs = json::Value::array();
  for (const std::string& ch : channels) chs.push(json::Value::str(ch));
  head.set("channels", std::move(chs));
  request(std::move(head));
}

bool Client::drainOnce(const std::string& sid, std::string& out,
                       std::uint64_t maxBytes) {
  json::Value head = sessionHead("drain", sid);
  head.set("max", json::Value::number(maxBytes));
  std::string payload;
  const json::Value reply = request(std::move(head), {}, &payload);
  out += payload;
  const json::Value* more = reply.find("more");
  return more != nullptr && more->asBool();
}

std::string Client::drainAll(const std::string& sid) {
  std::string out;
  while (drainOnce(sid, out)) {
  }
  return out;
}

void Client::close(const std::string& sid) { request(sessionHead("close", sid)); }

json::Value Client::stats() {
  json::Value head = json::Value::object();
  head.set("op", json::Value::str("stats"));
  return request(std::move(head));
}

void Client::shutdownServer() {
  json::Value head = json::Value::object();
  head.set("op", json::Value::str("shutdown"));
  request(std::move(head));
}

}  // namespace esl::serve

#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "telemetry/trace_sink.h"
#include "util/error.h"
#include "util/exec_context.h"
#include "util/log.h"
#include "util/thread_id.h"

namespace pviz::service {

namespace {

constexpr int kPollMillis = 100;  // shutdown-check cadence for all polls

double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), engine_(config_.engine) {
  PVIZ_REQUIRE(config_.workers >= 1, "server needs at least one worker");
  PVIZ_REQUIRE(config_.maxQueueDepth >= 1, "queue depth must be >= 1");
  PVIZ_REQUIRE(config_.maxConnections >= 1, "connection bound must be >= 1");
  PVIZ_REQUIRE(config_.maxFrameBytes >= 64,
               "frame bound must fit at least a minimal request");
  PVIZ_REQUIRE(config_.maxJsonDepth >= 1, "JSON depth bound must be >= 1");
  PVIZ_REQUIRE(config_.idleTimeoutMs >= 0 && config_.frameTimeoutMs >= 0 &&
                   config_.requestTimeoutMs >= 0,
               "deadlines must be >= 0 (0 disables)");
  for (const auto& [opName, p99Ms] : config_.sloP99Ms) {
    parseOpToken(opName);  // reject unknown op tokens at boot
    PVIZ_REQUIRE(p99Ms > 0.0, "SLO p99 objective must be positive ms");
    metrics_.slo().setObjective(opName, p99Ms);
  }
  traceBuffer_.setCapacity(config_.traceBufferSpans);
  engine_.setEnergyAttributor(&metrics_.energy());
}

Server::~Server() { stop(); }

void Server::start() {
  PVIZ_REQUIRE(!started_, "server already started");

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  PVIZ_REQUIRE(listenFd_ >= 0, "cannot create listen socket");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  PVIZ_REQUIRE(::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) == 1,
               "invalid listen address '" + config_.host + "'");
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("cannot bind " + config_.host + ":" +
                std::to_string(config_.port) + ": " + why);
  }
  PVIZ_REQUIRE(::listen(listenFd_, 128) == 0, "listen failed");

  socklen_t addrLen = sizeof addr;
  PVIZ_REQUIRE(
      ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &addrLen) ==
          0,
      "getsockname failed");
  boundPort_ = ntohs(addr.sin_port);

  started_ = true;
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
  PVIZ_LOG_INFO("service listening on " << config_.host << ':' << boundPort_
                                        << " (" << config_.workers
                                        << " workers, queue "
                                        << config_.maxQueueDepth << ")");
}

void Server::stop() {
  if (!started_ || stopped_.exchange(true)) return;
  stopping_ = true;

  // 1. Stop taking new connections and new requests.
  if (acceptThread_.joinable()) acceptThread_.join();
  reapReaders(/*joinAll=*/true);

  // 2. Drain: workers finish every request already admitted and write
  //    the responses (connections are kept alive by the tasks' refs).
  queueCv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // 3. Tear the listener down.
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  PVIZ_LOG_INFO("service on port " << boundPort_ << " drained and stopped");
}

Json Server::statsJson() const {
  Json out = metrics_.statsJson(engine_.cache().stats());
  const std::string id = workerId();
  if (!id.empty()) out.set("worker", id);
  return out;
}

std::string Server::prometheusText() {
  return metrics_.prometheusText(engine_.cache().stats());
}

std::string Server::workerId() const {
  std::lock_guard lock(workerIdMutex_);
  return workerId_;
}

Json Server::handleFleetOp(const Request& request) {
  Json out = Json::object();
  switch (request.op) {
    case Op::Register: {
      if (!request.worker.empty()) {
        std::lock_guard lock(workerIdMutex_);
        workerId_ = request.worker;
      }
      metrics_.events().emit(telemetry::EventKind::Lifecycle, "register",
                             "assigned fleet identity " + workerId());
      out.set("worker", workerId());
      out.set("pid", static_cast<double>(::getpid()));
      out.set("workers", config_.workers);
      out.set("max_queue_depth", static_cast<double>(config_.maxQueueDepth));
      return out;
    }
    case Op::Heartbeat: {
      std::size_t depth = 0;
      {
        std::lock_guard lock(queueMutex_);
        depth = queue_.size();
      }
      out.set("worker", workerId());
      out.set("seq", request.seq);
      out.set("queue_depth", static_cast<double>(depth));
      out.set("connections_active",
              static_cast<double>(activeConnections_.load()));
      out.set("uptime_ms", metrics_.uptimeMs());
      out.set("total_requests",
              static_cast<double>(metrics_.totalRequests()));
      // The worker's steady-clock reading lets the coordinator estimate
      // this process's clock offset from the beat's RTT midpoint.
      out.set("now_us", static_cast<double>(telemetry::traceNowUs()));
      return out;
    }
    case Op::Claim: {
      // Admission handshake: grant while the queue has room right now.
      // The grant is advisory (no reservation is held) — it tells the
      // coordinator this worker would accept the unit if sent
      // immediately, so an overloaded worker is skipped instead of
      // queueing a deep backlog behind it.
      std::size_t depth = 0;
      {
        std::lock_guard lock(queueMutex_);
        depth = queue_.size();
      }
      const bool granted = !stopping_ && depth < config_.maxQueueDepth;
      metrics_.recordClaim(granted);
      out.set("granted", granted);
      out.set("queue_depth", static_cast<double>(depth));
      out.set("worker", workerId());
      return out;
    }
    default:
      break;
  }
  throw Error("not a fleet op");
}

Json Server::handleTraceDump(const Request& request) {
  Json spans = Json::array();
  std::size_t count = 0;
  for (const telemetry::TraceSpan& span : traceBuffer_.spans()) {
    spans.push(traceSpanToJson(span));
    ++count;
  }
  Json out = Json::object();
  out.set("worker", workerId());
  out.set("pid", static_cast<double>(::getpid()));
  // The dumping process's steady-clock reading: a collector can sanity-
  // check its heartbeat-derived offset estimate against the dump.
  out.set("now_us", static_cast<double>(telemetry::traceNowUs()));
  out.set("count", static_cast<double>(count));
  out.set("dropped", static_cast<double>(traceBuffer_.dropped()));
  out.set("spans", std::move(spans));
  if (request.clearTrace) traceBuffer_.clear();
  return out;
}

Json Server::handleEvents(const Request& request) {
  const std::size_t limit =
      request.eventsLimit > 0 ? static_cast<std::size_t>(request.eventsLimit)
                              : std::size_t{256};
  Json events = Json::array();
  std::size_t count = 0;
  for (const telemetry::Event& event : metrics_.events().recent(limit)) {
    Json e = Json::object();
    e.set("seq", static_cast<double>(event.seq));
    e.set("time_us", static_cast<double>(event.timeUs));
    e.set("kind", telemetry::eventKindToken(event.kind));
    if (event.op[0] != '\0') e.set("op", event.op);
    if (event.detail[0] != '\0') e.set("detail", event.detail);
    if (event.value != 0.0) e.set("value", event.value);
    events.push(std::move(e));
    ++count;
  }
  Json out = Json::object();
  out.set("worker", workerId());
  out.set("count", static_cast<double>(count));
  out.set("emitted", static_cast<double>(metrics_.events().totalEmitted()));
  out.set("capacity", static_cast<double>(metrics_.events().capacity()));
  out.set("events", std::move(events));
  return out;
}

void Server::acceptLoop() {
  while (!stopping_) {
    pollfd pfd{listenFd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) {
      reapReaders(/*joinAll=*/false);
      continue;
    }
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;

    auto conn = std::make_shared<Connection>(fd);
    if (activeConnections_.load() >= config_.maxConnections) {
      // Accept-time shedding: one overloaded line, then the Connection
      // destructor closes the socket.
      metrics_.recordShedConnection();
      respondStatus(*conn, "", "overloaded",
                    "connection limit reached, retry later");
      continue;
    }

    activeConnections_.fetch_add(1);
    metrics_.connectionOpened();
    std::lock_guard lock(readersMutex_);
    readers_.emplace_back(
        std::thread([this, conn] { readerLoop(conn); }), conn);
  }
}

void Server::reapReaders(bool joinAll) {
  std::lock_guard lock(readersMutex_);
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (joinAll || it->second->readerDone.load()) {
      it->first.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::readerLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[16384];

  // Deadline bookkeeping: lastByteAt tracks any received byte (idle
  // deadline); frameStartedAt is set while a partial frame sits in the
  // buffer (stalled-frame deadline — a slow-loris writer keeps the
  // connection "busy" without ever completing a frame, so idleness
  // alone cannot catch it).
  auto lastByteAt = std::chrono::steady_clock::now();
  auto frameStartedAt = lastByteAt;

  while (!stopping_) {
    const auto now = std::chrono::steady_clock::now();
    if (config_.idleTimeoutMs > 0 && buffer.empty() &&
        millisSince(lastByteAt) > config_.idleTimeoutMs) {
      metrics_.recordTimeout();
      respondStatus(*conn, "", "error",
                    "idle timeout: no request within " +
                        std::to_string(config_.idleTimeoutMs) + " ms");
      break;
    }
    if (config_.frameTimeoutMs > 0 && !buffer.empty() &&
        millisSince(frameStartedAt) > config_.frameTimeoutMs) {
      metrics_.recordTimeout();
      respondStatus(*conn, "", "error",
                    "frame timeout: frame not completed within " +
                        std::to_string(config_.frameTimeoutMs) + " ms");
      break;
    }

    pollfd pfd{conn->fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;

    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF or error: the client is gone
    if (buffer.empty()) frameStartedAt = now;
    lastByteAt = now;
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t lineStart = 0;
    for (std::size_t nl = buffer.find('\n', lineStart);
         nl != std::string::npos; nl = buffer.find('\n', lineStart)) {
      std::string line = buffer.substr(lineStart, nl - lineStart);
      lineStart = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      if (line.size() > config_.maxFrameBytes) {
        // A complete frame over the bound still has a clean boundary,
        // so reject just the frame and keep the connection.
        metrics_.recordRejectedFrame();
        respondStatus(*conn, "", "error",
                      "frame exceeds " + std::to_string(config_.maxFrameBytes) +
                          " bytes");
        continue;
      }
      Task task{conn, line, std::chrono::steady_clock::now()};
      if (!tryEnqueue(std::move(task))) {
        // Backpressure: answer now instead of buffering unboundedly.
        metrics_.recordOverloaded();
        respondOverloaded(*conn, line);
      }
    }
    buffer.erase(0, lineStart);

    if (buffer.size() > config_.maxFrameBytes) {
      // A partial frame already over the bound: the only way to regain
      // framing would be to buffer without limit, so reply and drop the
      // connection — this is what bounds per-connection memory.
      PVIZ_LOG_WARN("dropping connection: frame exceeds "
                    << config_.maxFrameBytes << " bytes");
      metrics_.recordRejectedFrame();
      respondStatus(*conn, "", "error",
                    "frame exceeds " + std::to_string(config_.maxFrameBytes) +
                        " bytes");
      break;
    }
  }

  metrics_.connectionClosed();
  activeConnections_.fetch_sub(1);
  conn->readerDone = true;
}

bool Server::tryEnqueue(Task task) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(queueMutex_);
    if (queue_.size() >= config_.maxQueueDepth) return false;
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  metrics_.recordQueueDepth(depth);
  queueCv_.notify_one();
  return true;
}

void Server::workerLoop() {
  // One long-lived context per worker: the scratch arena warms up over
  // the worker's lifetime and is reused across requests; the cancel
  // token is reset and re-armed per request in process().  Every worker
  // runs its kernels on the one process pool, whose admission mutex
  // serializes concurrent loops.
  util::ExecutionContext ctx(util::ThreadPool::global());
  for (;;) {
    Task task;
    {
      std::unique_lock lock(queueMutex_);
      queueCv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;  // drained
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      metrics_.recordQueueDepth(queue_.size());
    }
    process(task, ctx);
  }
}

void Server::process(Task& task, util::ExecutionContext& ctx) {
  // Request budget, checked at dispatch: a request that sat in the queue
  // past its budget gets an `error` reply instead of stale work — under
  // overload this sheds exactly the requests whose clients have likely
  // given up waiting.
  if (config_.requestTimeoutMs > 0 &&
      millisSince(task.enqueued) > config_.requestTimeoutMs) {
    metrics_.recordTimeout();
    respondStatus(*task.conn, task.line, "error",
                  "deadline exceeded: request queued longer than " +
                      std::to_string(config_.requestTimeoutMs) + " ms");
    return;
  }

  // A request dispatched in time carries its remaining budget into the
  // engine: the kernel polls the deadline at phase and chunk boundaries
  // and aborts mid-run if it expires (the `cancelled` counter below).
  ctx.beginRun();
  ctx.cancel().reset();
  if (config_.requestTimeoutMs > 0) {
    ctx.cancel().setDeadline(
        task.enqueued + std::chrono::milliseconds(config_.requestTimeoutMs));
  }

  const std::uint64_t requestStartUs = telemetry::traceNowUs();
  Response response;
  bool cancelled = false;
  try {
    const Request request =
        requestFromJson(Json::parse(task.line, config_.maxJsonDepth));
    response.id = request.id;
    response.op = request.op;
    // Trace-context propagation: a request carrying a coordinator-minted
    // trace_id keeps it (every span of this request tags with the fleet
    // id); otherwise mint a local one.
    ctx.setTraceId(request.traceId != 0
                       ? request.traceId
                       : nextTraceId_.fetch_add(1, std::memory_order_relaxed));
    try {
      if (request.op == Op::Stats) {
        response.result = statsJson();
      } else if (request.op == Op::Register || request.op == Op::Heartbeat ||
                 request.op == Op::Claim) {
        response.result = handleFleetOp(request);
      } else if (request.op == Op::Metrics) {
        Json result = Json::object();
        result.set("exposition",
                   metrics_.prometheusText(engine_.cache().stats()));
        response.result = std::move(result);
      } else if (request.op == Op::TraceDump) {
        response.result = handleTraceDump(request);
      } else if (request.op == Op::Events) {
        response.result = handleEvents(request);
      } else {
        // Engine-bound op: bracket it for energy attribution — study
        // runs executed inside credit their joules to this request's
        // trace id (cache hits run nothing, so they credit nothing).
        metrics_.energy().beginRequest(ctx.traceId(), opToken(request.op));
        try {
          ServiceEngine::Outcome outcome = engine_.handle(ctx, request);
          response.result = std::move(outcome.result);
          response.cached = outcome.cached;
        } catch (...) {
          metrics_.energy().endRequest(ctx.traceId());
          throw;
        }
        metrics_.energy().endRequest(ctx.traceId());
      }
    } catch (const util::CancelledError& e) {
      cancelled = true;
      response.status = "error";
      response.error = e.what();
    } catch (const std::exception& e) {
      response.status = "error";
      response.error = e.what();
    }
    response.elapsedMs = millisSince(task.enqueued);
    metrics_.recordRequest(request.op, response.elapsedMs, response.cached,
                           !response.ok());
    if (cancelled) metrics_.recordCancelled();

    const bool fleetTraced = request.traceId != 0;
    if (request.trace || fleetTraced) {
      // Request-level span wrapping the whole dispatch; the propagated
      // parent_span (the coordinator's dispatch span) keeps the causal
      // edge across the process boundary in a merged trace.
      telemetry::TraceSpan span;
      span.name = std::string("request/") + opToken(request.op);
      span.category = "service";
      span.traceId = ctx.traceId();
      span.parentSpan = request.parentSpan;
      span.threadId = util::threadIndex();
      span.startUs = requestStartUs;
      span.durationUs = telemetry::traceNowUs() - requestStartUs;
      span.args.emplace_back("op", opToken(request.op));
      span.args.emplace_back("status", response.status);
      span.args.emplace_back("cache_hit", response.cached ? "true" : "false");
      if (cancelled) span.args.emplace_back("cancelled", "true");
      const std::string id = workerId();
      if (!id.empty()) span.args.emplace_back("worker", id);

      if (request.trace) {
        // In-band span dump for this request: every kernel phase the
        // run recorded (none survive from earlier requests — beginRun
        // cleared the tracer, so a cancelled run leaves no orphan spans
        // either) plus the request-level span.
        telemetry::TraceSink sink;
        sink.addPhases(ctx.tracer(), ctx.traceId());
        sink.add(span);
        response.trace = Json::parse(sink.toChromeJson());
      }
      if (fleetTraced && !cancelled) {
        // Retain for `trace_dump`.  Cancelled fleet requests retain
        // nothing: the coordinator re-dispatches the unit under the
        // same trace id, and the completed attempt must be the only
        // one in the merged trace (no orphan spans).
        traceBuffer_.addPhases(ctx.tracer(), ctx.traceId());
        traceBuffer_.add(std::move(span));
      }
    }
  } catch (const std::exception& e) {
    // The frame itself did not parse to a request.
    metrics_.recordBadRequest();
    response.status = "error";
    response.error = e.what();
    response.elapsedMs = millisSince(task.enqueued);
  }
  writeLine(*task.conn, toJson(response).dump());
}

void Server::writeLine(Connection& conn, const std::string& line) {
  std::lock_guard lock(conn.writeMutex);
  std::string frame = line;
  frame += '\n';
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(conn.fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // client gone; drop the response
    sent += static_cast<std::size_t>(n);
  }
}

void Server::respondOverloaded(Connection& conn, const std::string& line) {
  respondStatus(conn, line, "overloaded", "request queue is full, retry later");
}

void Server::respondStatus(Connection& conn, const std::string& line,
                           const std::string& status,
                           const std::string& message) {
  Response response;
  response.status = status;
  response.error = message;
  // Best-effort id echo so the client can correlate the rejection.
  try {
    const Json json = Json::parse(line, config_.maxJsonDepth);
    if (const Json* id = json.find("id")) response.id = id->asString();
    if (const Json* op = json.find("op")) {
      response.op = parseOpToken(op->asString());
    }
  } catch (const std::exception&) {
    // Unparseable or empty: reply without correlation fields.
  }
  writeLine(conn, toJson(response).dump());
}

}  // namespace pviz::service

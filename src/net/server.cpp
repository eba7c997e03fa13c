#include "net/server.hpp"

#include <sstream>
#include <utility>

#include "atpg/fault.hpp"
#include "atpg/pattern.hpp"
#include "compact/signature_log.hpp"
#include "diag/response.hpp"
#include "techmap/techmap.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scanpower::net {

// ---------- CommandSession ---------------------------------------------------

namespace {

/// Most patterns one `patterns` command may request: what a session's
/// good-block cache holds (kDefaultMaxCachedBlocks blocks of kSweepLanes
/// patterns). A larger count is refused before anything is allocated, so
/// one command line cannot make the server allocate without bound.
constexpr std::size_t kMaxWirePatterns =
    GoodBlockCache::kDefaultMaxCachedBlocks * kSweepLanes;

}  // namespace

CommandSession::CommandSession(DiagnosisQueue& queue, Telemetry* telemetry,
                               ServiceOptions opts, Sink out)
    : queue_(queue),
      telemetry_(telemetry),
      opts_(std::move(opts)),
      out_(std::move(out)) {
  SP_CHECK(out_ != nullptr, "CommandSession: out sink is required");
}

CommandSession::~CommandSession() = default;

void CommandSession::error(std::string_view msg, std::uint64_t line_no) {
  out_(error_json(msg, line_no));
}

void CommandSession::ok(std::string_view what,
                        const std::function<void(JsonWriter&)>& extra) {
  out_(json_object_line([&](JsonWriter& j) {
    j.field("ok", what);
    if (extra) extra(j);
  }));
}

void CommandSession::cmd_design(std::istream& in, std::uint64_t line_no) {
  std::string path, opt;
  if (!(in >> path)) {
    error("design needs a file path", line_no);
    return;
  }
  in >> opt;
  auto nl = std::make_unique<Netlist>(
      load_design(path, /*do_map=*/opt != "nomap"));
  const std::string name = nl->name();
  auto it = designs_.find(name);
  if (it != designs_.end()) {
    // Registered designs are keyed by name: a same-named netlist of a
    // different structure must not silently switch to the old design.
    if (DesignContext::hash_design(*nl) != it->second.ctx->design_hash()) {
      error(strprintf("design '%s' is already registered with a different "
                      "structure",
                      name.c_str()),
            line_no);
      return;
    }
    current_ = &it->second;  // already registered: just switch
    loaded_.reset();
  } else {
    loaded_ = std::move(nl);
    current_ = nullptr;  // registered by the next 'patterns'
  }
  ok("design", [&](JsonWriter& j) { j.field("circuit", name); });
}

void CommandSession::cmd_patterns(std::istream& in, std::uint64_t line_no) {
  std::size_t n = 0;
  std::uint64_t seed = 0xd1a6ULL;
  if (!(in >> n) || n == 0) {
    error("patterns needs a count >= 1", line_no);
    return;
  }
  if (n > kMaxWirePatterns) {
    error(strprintf("patterns count %zu exceeds the limit of %zu", n,
                    kMaxWirePatterns),
          line_no);
    return;
  }
  in >> seed;
  const Netlist* nl = loaded_   ? loaded_.get()
                      : current_ ? &current_->ctx->netlist()
                                 : nullptr;
  if (!nl) {
    error("no design loaded (use: design <path>)", line_no);
    return;
  }
  Rng rng(seed);
  std::vector<TestPattern> patterns;
  patterns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    patterns.push_back(random_pattern(*nl, rng));
  }
  // Rebinding different patterns needs the design idle, and a shared
  // queue must not stall every other client to get there, so open()
  // decides: identical patterns are a no-op, different patterns require
  // this design idle (flush first).
  const auto key = queue_.open(*nl, opts_.flow, patterns);
  Design& d = designs_[nl->name()];
  d.key = key;
  if (!d.ctx) {
    d.ctx = queue_.contexts().acquire(*nl, opts_.flow);
    d.front = std::make_unique<ScanSession>(d.ctx, opts_.flow);
  }
  d.front->bind_patterns(patterns);
  d.num_patterns = n;
  current_ = &d;
  loaded_.reset();
  ok("patterns", [&](JsonWriter& j) {
    j.field("circuit", d.ctx->netlist().name());
    j.field("num_patterns", static_cast<std::uint64_t>(n));
  });
}

void CommandSession::cmd_evidence(const std::string& cmd, std::istream& in,
                                  std::uint64_t line_no) {
  if (!current_) {
    error("no design registered (use: design <path>, then patterns <n>)",
          line_no);
    return;
  }
  std::string arg;
  if (!(in >> arg)) {
    error(cmd + " needs an argument", line_no);
    return;
  }
  Evidence ev;
  if (cmd == "log") {
    ev = load_failure_log_file(arg, &current_->ctx->netlist(),
                               &current_->ctx->points());
  } else if (cmd == "signature-log") {
    ev = load_signature_log_file(arg);
  } else {
    const Fault f = cmd == "inject"
                        ? parse_fault(current_->ctx->netlist(), arg)
                        : parse_fault_index(current_->ctx->faults(), arg);
    ev = current_->front->inject(f);
  }
  Pending p;
  p.source = cmd + " " + arg;
  p.num_patterns = current_->num_patterns;
  p.ctx = current_->ctx;
  try {
    p.result = queue_.submit(current_->key, std::move(ev));
  } catch (const OverloadError& e) {
    // The admission-control reject: the client backs off and resends.
    out_(overloaded_json(e.retry_after_ms()));
    return;
  }
  pending_.push_back(std::move(p));
  ok("queued", [&](JsonWriter& j) {
    j.field("pending", static_cast<std::uint64_t>(pending_.size()));
  });
}

void CommandSession::cmd_stats() {
  if (telemetry_ == nullptr) {
    error("stats: no telemetry attached");
    return;
  }
  const MetricsSnapshot snap = telemetry_->metrics.snapshot();
  ok("stats", [&](JsonWriter& j) { snap.write_json(j); });
}

void CommandSession::write_pending(Pending& p) {
  const Netlist& nl = p.ctx->netlist();
  DiagnosisResult res;
  try {
    res = p.result.get();
  } catch (const std::exception& e) {
    // The result's metadata with an "error" field instead of counters
    // and rankings.
    out_(json_object_line([&](JsonWriter& j) {
      j.field("circuit", nl.name());
      j.field("source", p.source);
      j.field("error", e.what());
    }));
    return;
  }
  out_(result_json(res, nl, nl.name(), p.source, p.num_patterns, opts_.top));
}

void CommandSession::flush() {
  for (Pending& p : pending_) write_pending(p);
  const std::size_t n = pending_.size();
  pending_.clear();
  ok("flush",
     [&](JsonWriter& j) { j.field("results", static_cast<std::uint64_t>(n)); });
}

bool CommandSession::handle_line(const std::string& line,
                                 std::uint64_t line_no) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return true;  // blank / comment
  try {
    if (cmd == "design") {
      cmd_design(in, line_no);
    } else if (cmd == "patterns") {
      cmd_patterns(in, line_no);
    } else if (cmd == "log" || cmd == "signature-log" || cmd == "inject" ||
               cmd == "inject-index") {
      cmd_evidence(cmd, in, line_no);
    } else if (cmd == "flush") {
      flush();
    } else if (cmd == "stats") {
      cmd_stats();
    } else if (cmd == "quit") {
      flush();
      ok("quit");
      return false;
    } else {
      error("unknown command: " + cmd, line_no);
    }
  } catch (const std::exception& e) {
    error(e.what(), line_no);
  }
  return true;
}

// ---------- NetServer --------------------------------------------------------

NetServer::NetServer(DiagnosisQueue& queue, Telemetry* telemetry, Options opts)
    : queue_(queue),
      telemetry_(telemetry),
      opts_(opts),
      listener_(opts.port) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

NetServer::~NetServer() { shutdown(); }

void NetServer::set_conn_gauge(std::size_t n) {
  if (telemetry_) {
    telemetry_->metrics.set_gauge(GaugeId::kNetActiveConns,
                                  static_cast<std::int64_t>(n));
  }
}

void NetServer::reap_finished() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->reader.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t NetServer::active_connections() const {
  return active_.load(std::memory_order_acquire);
}

void NetServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::optional<Connection> conn;
    try {
      conn = listener_.accept(/*timeout_ms=*/100);
    } catch (const NetError&) {
      if (stop_.load(std::memory_order_acquire)) return;
      continue;  // transient accept failure; keep serving
    }
    if (!conn.has_value()) continue;  // timeout: re-check the stop flag
    conn->set_write_timeout(opts_.write_timeout_ms);
    std::lock_guard<std::mutex> lock(conns_mu_);
    reap_finished();
    if (conns_.size() >= opts_.max_connections) {
      SP_TELEM_ADD(telemetry_, 0, CounterId::kNetConnRejected, 1);
      try {
        conn->write_all(
            error_json(strprintf("too many connections (cap %zu)",
                                 opts_.max_connections)) +
            "\n");
      } catch (const NetError&) {
      }
      continue;  // destructor closes the socket
    }
    SP_TELEM_ADD(telemetry_, 0, CounterId::kNetAccepted, 1);
    auto slot = std::make_unique<Conn>();
    slot->conn = std::move(*conn);
    Conn* c = slot.get();
    conns_.push_back(std::move(slot));
    active_.fetch_add(1, std::memory_order_acq_rel);
    set_conn_gauge(active_connections());
    c->reader = std::thread([this, c] {
      serve(*c);
      active_.fetch_sub(1, std::memory_order_acq_rel);
      set_conn_gauge(active_connections());
      c->done.store(true, std::memory_order_release);
    });
  }
}

void NetServer::serve(Conn& c) {
  LineReader reader(opts_.max_line);
  CommandSession session(
      queue_, telemetry_, opts_.service,
      /*out=*/[this, &c](std::string_view line) {
        std::string framed(line);
        framed.push_back('\n');
        c.conn.write_all(framed);
        SP_TELEM_ADD(telemetry_, 0, CounterId::kNetBytesOut, framed.size());
      });
  char buf[4096];
  bool open = true;
  try {
    while (open) {
      const std::size_t n = c.conn.read_some(buf, sizeof(buf));
      if (n == 0) break;  // EOF: peer closed, or shutdown() half-closed us
      SP_TELEM_ADD(telemetry_, 0, CounterId::kNetBytesIn, n);
      reader.feed(std::string_view(buf, n));
      for (;;) {
        std::string line;
        try {
          std::optional<std::string> next = reader.next();
          if (!next.has_value()) break;
          line = std::move(*next);
        } catch (const LineTooLongError& e) {
          SP_TELEM_ADD(telemetry_, 0, CounterId::kNetFramingErrors, 1);
          session.error(e.what(), e.line_no());
          continue;
        }
        SP_TELEM_ADD(telemetry_, 0, CounterId::kNetRequests, 1);
        const std::uint64_t t0 = telemetry_now_us();
        open = session.handle_line(line, reader.line_no() - 1);
        if (telemetry_) {
          telemetry_->metrics.record_hist(HistId::kNetRequestUs,
                                          telemetry_now_us() - t0);
        }
        if (!open) break;
      }
    }
    if (open) {
      // EOF without `quit`. A half-written command is an abrupt
      // disconnect -- drop it, but still answer everything the client
      // fully submitted (shutdown() relies on this drain).
      if (!reader.take_partial().empty()) {
        SP_TELEM_ADD(telemetry_, 0, CounterId::kNetFramingErrors, 1);
      }
      if (session.pending() > 0) session.flush();
    }
  } catch (const NetError&) {
    // Peer vanished mid-read or mid-write: abandon the connection. Any
    // still-pending futures die with the session; the dispatcher keeps
    // running everyone else's work.
  }
  // Half-close only: shutdown() may still hold a pointer to this
  // connection for its own shutdown_read(), so the fd is released by the
  // Conn slot's destruction (reap or shutdown), never by this thread.
  c.conn.shutdown_both();
}

void NetServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  stop_.store(true, std::memory_order_release);
  acceptor_.join();
  listener_.close();
  {
    // Half-close: every reader wakes with EOF, drains the commands it
    // already buffered, flushes its pending futures (the queue is still
    // dispatching) and writes the responses before closing.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) c->conn.shutdown_read();
    for (auto& c : conns_) c->reader.join();
    conns_.clear();
  }
  set_conn_gauge(0);
}

}  // namespace scanpower::net

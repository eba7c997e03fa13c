// Network transport subsystem: framing hardening, DiagnosisQueue
// admission control / shutdown semantics, and the TCP diagnosis service
// end to end over loopback.
//
// House rule under test, extended across the wire: a diagnosis response
// carried over TCP must be byte-identical to the in-process
// ScanSession::diagnose() result serialized through the same
// result_json(), for mixed full/compacted evidence at every
// (block_words, num_threads) in {1,4} x {1,4}. The suite runs under
// TSan in CI (ctest -R test_net) -- the accept loop, per-connection
// readers, shutdown drain and the queue dispatcher all cross threads.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/pattern.hpp"
#include "benchgen/benchgen.hpp"
#include "compact/signature_log.hpp"
#include "core/session.hpp"
#include "core/work_queue.hpp"
#include "diag/response.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "netlist/bench_io.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

using net::DiagClient;
using net::LineReader;
using net::LineTooLongError;

std::vector<TestPattern> random_patterns(const Netlist& nl, int n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> pats;
  pats.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pats.push_back(random_pattern(nl, rng));
  return pats;
}

/// This process's scratch directory under the test temp dir, made before
/// and removed after each run of the suite. The process id keeps
/// concurrent test_net processes that share one TEST_TMPDIR off each
/// other's files.
std::filesystem::path scratch_dir() {
  return std::filesystem::path(testing::TempDir()) /
         ("test_net_" + std::to_string(::getpid()));
}

struct ScratchDir : testing::Environment {
  void SetUp() override { std::filesystem::create_directories(scratch_dir()); }
  void TearDown() override { std::filesystem::remove_all(scratch_dir()); }
};
[[maybe_unused]] testing::Environment* const kScratchDir =
    testing::AddGlobalTestEnvironment(new ScratchDir);

std::string temp_path(const std::string& name) {
  return (scratch_dir() / name).string();
}

/// Writes `name` as a mapped .bench file and re-parses it, so the test
/// and the server (which loads from the same file) agree on the exact
/// netlist -- byte-identity starts at the design bytes.
struct Dut {
  std::string bench_path;
  Netlist nl;
  std::vector<Fault> faults;
};

Dut make_dut(const std::string& name) {
  Dut d;
  d.bench_path = temp_path(name + ".bench");
  {
    std::ofstream f(d.bench_path);
    write_bench(f, map_to_nand_nor_inv(make_circuit(name)));
  }
  d.nl = parse_bench_file(d.bench_path);
  d.faults = collapse_faults(d.nl);
  return d;
}

FlowOptions make_opts(int block_words, int threads) {
  FlowOptions o;
  o.diag.block_words = block_words;
  o.diag.num_threads = threads;
  return o;
}

// ---------- LineReader -------------------------------------------------------

TEST(LineReaderTest, SplitCoalescedAndCrlfWrites) {
  LineReader r;
  // One command split byte-by-byte (worst-case TCP segmentation).
  const std::string cmd = "design a.bench\n";
  for (char c : cmd) {
    EXPECT_FALSE(r.next().has_value());
    r.feed(std::string_view(&c, 1));
  }
  EXPECT_EQ(r.next(), std::optional<std::string>("design a.bench"));
  // Three commands coalesced into one segment, CRLF included.
  r.feed("patterns 8 7\r\nflush\nqu");
  EXPECT_EQ(r.next(), std::optional<std::string>("patterns 8 7"));
  EXPECT_EQ(r.next(), std::optional<std::string>("flush"));
  EXPECT_FALSE(r.next().has_value());  // "qu" still unterminated
  r.feed("it\n");
  EXPECT_EQ(r.next(), std::optional<std::string>("quit"));
  EXPECT_EQ(r.line_no(), 5u);
  EXPECT_TRUE(r.take_partial().empty());
}

TEST(LineReaderTest, OversizedLineIsRejectedOnceAndStreamSurvives) {
  LineReader r(/*max_line=*/8);
  r.feed("0123456789abcdef\nok\n");
  try {
    r.next();
    FAIL() << "expected LineTooLongError";
  } catch (const LineTooLongError& e) {
    EXPECT_EQ(e.line_no(), 1u);
    EXPECT_EQ(e.limit(), 8u);
    EXPECT_NE(std::string(e.what()).find("request line 1"), std::string::npos);
  }
  // The stream continues at the next line; numbering includes the reject.
  EXPECT_EQ(r.next(), std::optional<std::string>("ok"));
  EXPECT_EQ(r.line_no(), 3u);
  // An oversized line still open (no newline yet) is also rejected, and
  // its late-arriving tail is discarded without a second throw.
  r.feed("xxxxxxxxxxxxxxxxxxxx");
  EXPECT_THROW(r.next(), LineTooLongError);
  r.feed("yyyy\nafter\n");
  EXPECT_EQ(r.next(), std::optional<std::string>("after"));
}

TEST(LineReaderTest, TakePartialReportsAbruptDisconnect) {
  LineReader r;
  r.feed("flush\ninject G1");
  EXPECT_EQ(r.next(), std::optional<std::string>("flush"));
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.take_partial(), "inject G1");
  EXPECT_TRUE(r.take_partial().empty());  // consumed
}

TEST(LineReaderTest, GarbageBytesComeOutAsLines) {
  LineReader r;
  const std::string garbage = "\x01\x02\xff binary \x00 soup";
  r.feed(std::string(garbage) + "\n");
  EXPECT_EQ(r.next(), std::optional<std::string>(garbage));
}

// ---------- JSON field extraction -------------------------------------------

TEST(JsonFieldTest, ExtractsFlatStringAndIntegerFields) {
  const std::string line =
      "{\"ok\":\"queued\",\"pending\":3,\"msg\":\"a \\\"b\\\"\\n\"}";
  EXPECT_EQ(net::json_string_field(line, "ok"),
            std::optional<std::string>("queued"));
  EXPECT_EQ(net::json_u64_field(line, "pending"),
            std::optional<std::uint64_t>(3));
  EXPECT_EQ(net::json_string_field(line, "msg"),
            std::optional<std::string>("a \"b\"\n"));
  EXPECT_FALSE(net::json_string_field(line, "absent").has_value());
  EXPECT_FALSE(net::json_u64_field(line, "ok").has_value());
  const std::string overload = net::overloaded_json(17);
  EXPECT_EQ(net::json_string_field(overload, "error"),
            std::optional<std::string>("overloaded"));
  EXPECT_EQ(net::json_u64_field(overload, "retry_after_ms"),
            std::optional<std::uint64_t>(17));
}

// ---------- DiagnosisQueue admission control / shutdown ---------------------

TEST(QueueShutdownTest, DestructionPoisonsPendingJobsWithTypedError) {
  const Dut dut = make_dut("s344");
  const FlowOptions opts = make_opts(4, 1);
  const auto pats = random_patterns(dut.nl, 48, 7);
  ScanSession inj(dut.nl, opts);
  inj.bind_patterns(pats);

  std::vector<std::future<DiagnosisResult>> futures;
  {
    DiagnosisQueue::Options qo;
    qo.max_batch = 1;  // one job per dispatcher round: a real backlog
    DiagnosisQueue queue(qo);
    const auto key = queue.open(dut.nl, opts, pats);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(
          queue.submit(key, inj.inject(dut.faults[(i * 37 + 5) %
                                                  dut.faults.size()])));
    }
    // Destroyed here with most of the backlog still queued.
  }
  std::size_t completed = 0, poisoned = 0;
  for (auto& f : futures) {
    // Every future must be ready NOW -- a broken promise or a hang is
    // the bug this guards against.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    try {
      (void)f.get().num_candidates;
      ++completed;
    } catch (const QueueShutdownError& e) {
      EXPECT_NE(std::string(e.what()).find("drain()"), std::string::npos);
      ++poisoned;
    }
  }
  EXPECT_EQ(completed + poisoned, 16u);
  EXPECT_GE(poisoned, 1u) << "queue drained 16 jobs before its destructor "
                             "ran; backlog construction is broken";
}

TEST(QueueAdmissionTest, OpenWithIdenticalPatternsIsANoOpMidTraffic) {
  const Dut dut = make_dut("s344");
  const FlowOptions opts = make_opts(4, 1);
  const auto pats = random_patterns(dut.nl, 48, 7);
  ScanSession inj(dut.nl, opts);
  inj.bind_patterns(pats);

  DiagnosisQueue queue;
  const auto key = queue.open(dut.nl, opts, pats);
  std::vector<std::future<DiagnosisResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(queue.submit(key, inj.inject(dut.faults[i * 31 + 2])));
  }
  // Re-registering the same design with the same patterns while jobs are
  // in flight must neither throw nor disturb them (every TCP connection
  // replays design+patterns on connect).
  EXPECT_EQ(queue.open(dut.nl, opts, pats), key);
  for (auto& f : futures) EXPECT_GT(f.get().num_faults, 0u);
  // Different patterns do require the design idle -- drain() makes it so.
  queue.drain();
  const auto pats2 = random_patterns(dut.nl, 48, 8);
  EXPECT_EQ(queue.open(dut.nl, opts, pats2), key);
}

// A batch is retired before its futures are answered, so a client that
// holds every result may rebind different patterns at once -- what a
// `flush` then `patterns` command pair does. Answering first left a
// window in which open() still saw the design busy.
TEST(QueueAdmissionTest, RebindRightAfterEveryResultIsAccepted) {
  const Dut dut = make_dut("s27");
  const FlowOptions opts = make_opts(1, 1);
  const std::vector<TestPattern> pats[2] = {random_patterns(dut.nl, 16, 1),
                                            random_patterns(dut.nl, 16, 2)};
  ScanSession inj(dut.nl, opts);
  Evidence ev[2];
  for (int k = 0; k < 2; ++k) {
    inj.bind_patterns(pats[k]);
    ev[k] = inj.inject(dut.faults[3]);
  }
  DiagnosisQueue queue;
  for (int round = 0; round < 2000; ++round) {
    const auto key = queue.open(dut.nl, opts, pats[round % 2]);
    (void)queue.submit(key, ev[round % 2]).get();
    ASSERT_NO_THROW(queue.open(dut.nl, opts, pats[(round + 1) % 2]))
        << "round " << round;
  }
}

TEST(QueueAdmissionTest, RejectPolicyThrowsTypedOverloadWithRetryHint) {
  const Dut dut = make_dut("s344");
  const FlowOptions opts = make_opts(4, 1);
  const auto pats = random_patterns(dut.nl, 96, 7);
  ScanSession inj(dut.nl, opts);
  inj.bind_patterns(pats);
  ScanSession ref(dut.nl, opts);
  ref.bind_patterns(pats);

  DiagnosisQueue::Options qo;
  qo.max_batch = 1;
  qo.max_pending = 1;
  qo.overload = DiagnosisQueue::OverloadPolicy::Reject;
  qo.retry_hint_ms = 3;
  DiagnosisQueue queue(qo);
  const auto key = queue.open(dut.nl, opts, pats);

  std::uint64_t rejects = 0;
  std::vector<std::future<DiagnosisResult>> futures;
  std::vector<Evidence> evs;
  for (int i = 0; i < 12; ++i) {
    evs.push_back(inj.inject(dut.faults[(i * 53 + 11) % dut.faults.size()]));
  }
  for (const Evidence& ev : evs) {
    for (;;) {  // the retry loop DiagClient implements over the wire
      try {
        futures.push_back(queue.submit(key, ev));
        break;
      } catch (const OverloadError& e) {
        EXPECT_EQ(e.retry_after_ms(), 3u);
        ++rejects;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  EXPECT_GE(rejects, 1u) << "a 1-deep queue absorbed 12 back-to-back "
                            "submissions without a single reject";
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const DiagnosisResult got = futures[i].get();
    const DiagnosisResult want = ref.diagnose(evs[i]);
    ASSERT_EQ(got.num_candidates, want.num_candidates) << i;
    ASSERT_EQ(got.ranked.size(), want.ranked.size()) << i;
    for (std::size_t k = 0; k < got.ranked.size(); ++k) {
      EXPECT_EQ(got.ranked[k].fault_index, want.ranked[k].fault_index);
      EXPECT_EQ(got.ranked[k].tfsf, want.ranked[k].tfsf);
    }
  }
}

TEST(QueueAdmissionTest, BlockPolicyParksSubmittersAndLosesNothing) {
  const Dut dut = make_dut("s344");
  const FlowOptions opts = make_opts(4, 1);
  const auto pats = random_patterns(dut.nl, 48, 7);
  ScanSession ref(dut.nl, opts);
  ref.bind_patterns(pats);

  DiagnosisQueue::Options qo;
  qo.max_batch = 1;
  qo.max_pending = 2;  // Block is the default policy
  DiagnosisQueue queue(qo);
  const auto key = queue.open(dut.nl, opts, pats);

  constexpr int kThreads = 4, kPer = 4;
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ScanSession inj(dut.nl, opts);
      inj.bind_patterns(pats);
      for (int i = 0; i < kPer; ++i) {
        const Fault& f =
            dut.faults[static_cast<std::size_t>(t * 131 + i * 17 + 3) %
                       dut.faults.size()];
        const DiagnosisResult got = queue.submit(key, inj.inject(f)).get();
        ScanSession check(dut.nl, opts);
        check.bind_patterns(pats);
        const DiagnosisResult want = check.diagnose(check.inject(f));
        EXPECT_EQ(got.num_candidates, want.num_candidates);
        ASSERT_EQ(got.ranked.size(), want.ranked.size());
        for (std::size_t k = 0; k < got.ranked.size(); ++k) {
          EXPECT_EQ(got.ranked[k].fault_index, want.ranked[k].fault_index);
        }
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(done.load(), static_cast<std::size_t>(kThreads * kPer));
}

TEST(QueueAdmissionTest, RoundRobinDispatchAvoidsHeadOfLineBlocking) {
  const Dut a = make_dut("s344");
  const Dut b = make_dut("s27");
  const FlowOptions opts = make_opts(4, 1);
  const auto pats_a = random_patterns(a.nl, 96, 7);
  const auto pats_b = random_patterns(b.nl, 32, 7);
  ScanSession inj_a(a.nl, opts);
  inj_a.bind_patterns(pats_a);
  ScanSession inj_b(b.nl, opts);
  inj_b.bind_patterns(pats_b);

  DiagnosisQueue::Options qo;
  qo.max_batch = 1;
  qo.pool_capacity = 2;
  DiagnosisQueue queue(qo);
  const auto key_a = queue.open(a.nl, opts, pats_a);
  const auto key_b = queue.open(b.nl, opts, pats_b);

  // A deep backlog for design A, then one job for design B. Round-robin
  // dispatch must slot B in after at most one more A batch -- under the
  // old oldest-first global FIFO, B waited behind all 24.
  std::vector<std::future<DiagnosisResult>> backlog;
  for (int i = 0; i < 24; ++i) {
    backlog.push_back(
        queue.submit(key_a, inj_a.inject(a.faults[(i * 37 + 5) %
                                                  a.faults.size()])));
  }
  std::future<DiagnosisResult> fb =
      queue.submit(key_b, inj_b.inject(b.faults[3]));
  EXPECT_GT(fb.get().num_faults, 0u);
  std::size_t a_still_pending = 0;
  for (auto& f : backlog) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++a_still_pending;
    }
  }
  EXPECT_GE(a_still_pending, 1u)
      << "design B's job finished only after A's entire backlog -- "
         "round-robin dispatch is not interleaving designs";
  for (auto& f : backlog) EXPECT_GT(f.get().num_faults, 0u);
}

// ---------- CommandSession design registry --------------------------------

// Designs are registered by netlist name. Re-opening the same file
// without technology mapping yields a different structure under the same
// name: that must be refused, naming the circuit, instead of silently
// switching the session to the registered (mapped) design.
TEST(CommandSessionTest, SameNameDifferentStructureIsRefused) {
  const std::string path = temp_path("unmapped.bench");
  {
    std::ofstream f(path);
    write_bench(f, make_circuit("s27"));
  }
  const Netlist raw = parse_bench_file(path);
  ASSERT_FALSE(is_mapped(raw));
  DiagnosisQueue queue;
  std::vector<std::string> out;
  net::CommandSession session(
      queue, nullptr, {}, [&](std::string_view line) { out.emplace_back(line); });
  session.handle_line("design " + path, 1);
  session.handle_line("patterns 16 7", 2);
  session.handle_line("design " + path + " nomap", 3);
  session.handle_line("design " + path, 4);  // same structure: switches
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(net::json_string_field(out[0], "ok"),
            std::optional<std::string>("design"));
  EXPECT_EQ(net::json_string_field(out[1], "ok"),
            std::optional<std::string>("patterns"));
  const std::optional<std::string> err = net::json_string_field(out[2], "error");
  ASSERT_TRUE(err.has_value()) << out[2];
  EXPECT_NE(err->find("'" + raw.name() + "'"), std::string::npos) << *err;
  EXPECT_EQ(net::json_u64_field(out[2], "line"),
            std::optional<std::uint64_t>(3));
  EXPECT_EQ(net::json_string_field(out[3], "ok"),
            std::optional<std::string>("design"));
}

// `inject-index` takes a full non-negative decimal below the fault count;
// anything else is one error frame naming the valid range and the line,
// nothing is queued, and the session keeps serving.
void expect_inject_index_refused(const std::string& arg) {
  const std::string path = temp_path("inject_index.bench");
  {
    std::ofstream f(path);
    write_bench(f, map_to_nand_nor_inv(make_circuit("s27")));
  }
  const std::size_t num_faults = collapse_faults(parse_bench_file(path)).size();
  DiagnosisQueue queue;
  std::vector<std::string> out;
  net::CommandSession session(queue, nullptr, {}, [&](std::string_view line) {
    out.emplace_back(line);
  });
  session.handle_line("design " + path, 1);
  session.handle_line("patterns 16 7", 2);
  session.handle_line("inject-index " + arg, 3);
  ASSERT_EQ(out.size(), 3u);
  const std::optional<std::string> err =
      net::json_string_field(out[2], "error");
  ASSERT_TRUE(err.has_value()) << out[2];
  EXPECT_NE(err->find("[0, " + std::to_string(num_faults) + ")"),
            std::string::npos)
      << *err;
  EXPECT_NE(err->find("'" + arg + "'"), std::string::npos) << *err;
  EXPECT_EQ(net::json_u64_field(out[2], "line"),
            std::optional<std::uint64_t>(3));
  EXPECT_EQ(session.pending(), 0u);
  session.handle_line("inject-index 0", 4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(net::json_string_field(out[3], "ok"),
            std::optional<std::string>("queued"));
  session.flush();
}

TEST(CommandSessionTest, InjectIndexWithTrailingGarbageIsRefused) {
  expect_inject_index_refused("5abc");  // not fault 5
}

TEST(CommandSessionTest, InjectIndexNonNumericIsRefused) {
  expect_inject_index_refused("x");
}

TEST(CommandSessionTest, InjectIndexNegativeIsRefused) {
  expect_inject_index_refused("-1");
}

// Rebinding different patterns while the design still has queued work is
// refused with an error frame that names the circuit and tells a wire
// client to collect its results (a `flush`) -- not to call the library's
// drain(), which no client can reach. After the flush the rebind goes
// through.
TEST(CommandSessionTest, RebindWithResultsPendingNamesTheCircuit) {
  const Dut dut = make_dut("s1423");
  DiagnosisQueue::Options qo;
  qo.max_batch = 1;  // one diagnosis per dispatch: a backlog persists
  DiagnosisQueue queue(qo);
  std::vector<std::string> out;
  net::CommandSession session(queue, nullptr, {}, [&](std::string_view line) {
    out.emplace_back(line);
  });
  session.handle_line("design " + dut.bench_path, 1);
  session.handle_line("patterns 128 7", 2);
  // The dispatcher may (rarely) clear the backlog before the rebind
  // arrives; a few rounds make the refusal certain without a sleep.
  std::optional<std::string> err;
  for (int round = 0; round < 8 && !err; ++round) {
    for (int i = 0; i < 16; ++i) {
      session.handle_line("inject-index " + std::to_string(i * 37 + round),
                          3);
    }
    const std::size_t at = out.size();
    session.handle_line("patterns 128 " + std::to_string(100 + round), 4);
    ASSERT_EQ(out.size(), at + 1);
    err = net::json_string_field(out[at], "error");
    session.flush();
  }
  ASSERT_TRUE(err.has_value()) << "no rebind ever met pending work";
  EXPECT_NE(err->find("'" + dut.nl.name() + "'"), std::string::npos) << *err;
  EXPECT_NE(err->find("collect their results"), std::string::npos) << *err;
  EXPECT_EQ(err->find("drain()"), std::string::npos) << *err;
  // Every result is collected now, so the same rebind is accepted.
  const std::size_t at = out.size();
  session.handle_line("patterns 128 200", 5);
  ASSERT_EQ(out.size(), at + 1);
  EXPECT_EQ(net::json_string_field(out[at], "ok"),
            std::optional<std::string>("patterns"));
}

// ---------- TCP end to end ---------------------------------------------------

/// Raw line-oriented wire access for the framing/shutdown tests (the
/// DiagClient hides exactly the failure modes these tests create).
struct RawWire {
  net::Connection conn;
  LineReader reader;

  explicit RawWire(std::uint16_t port)
      : conn(net::Connection::connect("127.0.0.1", port, 5'000)) {
    conn.set_read_timeout(30'000);
    conn.set_write_timeout(30'000);
  }
  void send(std::string_view bytes) { conn.write_all(bytes); }
  /// Next response line; empty optional on EOF.
  std::optional<std::string> read_line() {
    char buf[4096];
    for (;;) {
      if (auto line = reader.next(); line.has_value()) return line;
      const std::size_t n = conn.read_some(buf, sizeof(buf));
      if (n == 0) return std::nullopt;
      reader.feed(std::string_view(buf, n));
    }
  }
};

TEST(NetServerTest, TcpResultsByteIdenticalToInProcessAcrossConfigs) {
  const Dut dut = make_dut("s344");
  const int grid[] = {1, 4};
  for (int bw : grid) {
    for (int th : grid) {
      SCOPED_TRACE("W=" + std::to_string(bw) + " T=" + std::to_string(th));
      const FlowOptions opts = make_opts(bw, th);
      const auto pats = random_patterns(dut.nl, 64, 11);

      // In-process reference: sequential session + the shared serializer.
      ScanSession ref(dut.nl, opts);
      ref.bind_patterns(pats);
      const Fault& f_log = dut.faults[5];
      const Fault& f_sig = dut.faults[42 % dut.faults.size()];
      const Fault& f_inj = dut.faults[77 % dut.faults.size()];
      const std::string flog_path = temp_path("id.flog");
      const std::string slog_path = temp_path("id.slog");
      save_failure_log_file(flog_path, ref.inject(f_log));
      save_signature_log_file(slog_path, ref.inject_compacted(f_sig));
      const std::string inj_str = f_inj.to_string(dut.nl);

      std::vector<std::string> expected;
      expected.push_back(net::result_json(
          ref.diagnose(ref.inject(f_log)), dut.nl, dut.nl.name(),
          "log " + flog_path, pats.size(), 5));
      expected.push_back(net::result_json(
          ref.diagnose(ref.inject_compacted(f_sig)), dut.nl, dut.nl.name(),
          "signature-log " + slog_path, pats.size(), 5));
      expected.push_back(net::result_json(
          ref.diagnose(ref.inject(f_inj)), dut.nl, dut.nl.name(),
          "inject " + inj_str, pats.size(), 5));
      expected.push_back(net::result_json(
          ref.diagnose(ref.inject(dut.faults[9])), dut.nl, dut.nl.name(),
          "inject-index 9", pats.size(), 5));

      // The same traffic over loopback TCP.
      DiagnosisQueue queue;
      net::NetServer::Options nopts;
      nopts.service.flow = opts;
      net::NetServer server(queue, nullptr, nopts);
      DiagClient client("127.0.0.1", server.port());
      EXPECT_EQ(net::json_string_field(client.design(dut.bench_path), "ok"),
                std::optional<std::string>("design"));
      EXPECT_EQ(net::json_u64_field(client.patterns(pats.size(), 11),
                                    "num_patterns"),
                std::optional<std::uint64_t>(pats.size()));
      client.submit("log " + flog_path);
      client.submit("signature-log " + slog_path);
      client.submit("inject " + inj_str);
      client.submit("inject-index 9");
      EXPECT_EQ(client.queued(), 4u);
      const std::vector<std::string> got = client.flush();
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]) << "result " << i;
      }
      client.quit();
      server.shutdown();
    }
  }
}

TEST(NetServerTest, FramingHardeningOverTcp) {
  const Dut dut = make_dut("s27");
  DiagnosisQueue queue;
  Telemetry telem;
  net::NetServer::Options nopts;
  nopts.max_line = 128;
  net::NetServer server(queue, &telem, nopts);

  {
    RawWire w(server.port());
    // Garbage bytes are a framed line: answered, not fatal.
    w.send("\x01\xfegarbage\x7f\n");
    auto resp = w.read_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(net::json_string_field(*resp, "error").has_value());
    EXPECT_EQ(net::json_u64_field(*resp, "line"),
              std::optional<std::uint64_t>(1));
    // An oversized line: typed reject naming its line number, stream
    // survives.
    w.send(std::string(300, 'x') + "\n");
    resp = w.read_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_NE(resp->find("exceeds 128 bytes"), std::string::npos);
    EXPECT_EQ(net::json_u64_field(*resp, "line"),
              std::optional<std::uint64_t>(2));
    // Split writes: one command drip-fed across segments.
    const std::string cmd = "design " + dut.bench_path + "\n";
    for (std::size_t i = 0; i < cmd.size(); i += 3) {
      w.send(std::string_view(cmd).substr(i, 3));
    }
    resp = w.read_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(net::json_string_field(*resp, "ok"),
              std::optional<std::string>("design"));
    // Coalesced writes: several commands in one segment, answered in
    // order with correct line attribution.
    w.send("patterns 16 7\nbogus-command\nstats\n");
    resp = w.read_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(net::json_string_field(*resp, "ok"),
              std::optional<std::string>("patterns"));
    resp = w.read_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(net::json_string_field(*resp, "error"),
              std::optional<std::string>("unknown command: bogus-command"));
    EXPECT_EQ(net::json_u64_field(*resp, "line"),
              std::optional<std::uint64_t>(5));
    resp = w.read_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(net::json_string_field(*resp, "ok"),
              std::optional<std::string>("stats"));
    // Mid-command disconnect: a half-written line, then gone.
    w.send("inject N1");
    w.conn.shutdown_both();
  }
  // The server survived all of it: a fresh connection still works.
  {
    RawWire w2(server.port());
    w2.send("stats\n");
    auto resp = w2.read_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(net::json_string_field(*resp, "ok"),
              std::optional<std::string>("stats"));
    // The torn command was counted as a framing error, not executed.
    EXPECT_NE(resp->find("\"net.framing_errors\":"), std::string::npos);
  }
  server.shutdown();
}

TEST(NetServerTest, ConnectionCapRejectsExcessClients) {
  DiagnosisQueue queue;
  Telemetry telem;
  net::NetServer::Options nopts;
  nopts.max_connections = 1;
  net::NetServer server(queue, &telem, nopts);

  RawWire first(server.port());
  first.send("stats\n");
  ASSERT_TRUE(first.read_line().has_value());  // slot is live and serving
  RawWire second(server.port());
  auto resp = second.read_line();
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(net::json_string_field(*resp, "error")
                .value_or("")
                .find("too many connections"),
            std::string::npos);
  EXPECT_FALSE(second.read_line().has_value());  // then closed
  // Releasing the slot admits the next client.
  first.conn.shutdown_both();
  for (int attempt = 0;; ++attempt) {
    RawWire retry(server.port());
    retry.send("stats\n");
    auto r = retry.read_line();
    ASSERT_TRUE(r.has_value());
    if (net::json_string_field(*r, "ok").has_value()) break;
    ASSERT_LT(attempt, 100) << "slot never freed after disconnect";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.shutdown();
}

TEST(NetServerTest, OverloadFloodBackoffClientCompletesEverything) {
  const Dut dut = make_dut("s344");
  const FlowOptions opts = make_opts(4, 1);
  const auto pats = random_patterns(dut.nl, 96, 7);
  ScanSession ref(dut.nl, opts);
  ref.bind_patterns(pats);

  Telemetry telem;
  DiagnosisQueue::Options qo;
  qo.max_batch = 1;
  qo.max_pending = 1;  // pathologically tight: every burst must reject
  qo.overload = DiagnosisQueue::OverloadPolicy::Reject;
  qo.retry_hint_ms = 2;
  DiagnosisQueue queue(qo, &telem);

  net::NetServer::Options nopts;
  nopts.service.flow = opts;
  net::NetServer server(queue, &telem, nopts);

  // Per-client fault picks and their sequential reference results,
  // computed up front -- `ref` is a single-threaded session and must not
  // be shared by the worker threads below.
  constexpr int kClients = 4, kPer = 5;
  std::vector<std::vector<std::size_t>> idx(kClients);
  std::vector<std::vector<std::string>> expect(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPer; ++i) {
      const std::size_t p = static_cast<std::size_t>(c * 101 + i * 37 + 5) %
                            dut.faults.size();
      idx[static_cast<std::size_t>(c)].push_back(p);
      expect[static_cast<std::size_t>(c)].push_back(net::result_json(
          ref.diagnose(ref.inject(dut.faults[p])), dut.nl, dut.nl.name(),
          "inject-index " + std::to_string(p), pats.size(), 5));
    }
  }

  std::atomic<std::uint64_t> total_retries{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      DiagClient::Options copts;
      copts.seed = 0xbeef + static_cast<std::uint64_t>(c);
      copts.max_retries = 500;  // the flood outlasts the default budget
      copts.backoff_base_ms = 1;
      copts.backoff_max_ms = 20;
      DiagClient client("127.0.0.1", server.port(), copts);
      client.design(dut.bench_path);
      client.patterns(pats.size(), 7);
      for (const std::size_t p : idx[static_cast<std::size_t>(c)]) {
        const std::string resp =
            client.submit("inject-index " + std::to_string(p));
        EXPECT_EQ(net::json_string_field(resp, "ok"),
                  std::optional<std::string>("queued"));
      }
      const std::vector<std::string> results = client.flush();
      ASSERT_EQ(results.size(), static_cast<std::size_t>(kPer));
      for (int i = 0; i < kPer; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)],
                  expect[static_cast<std::size_t>(c)]
                        [static_cast<std::size_t>(i)]);
      }
      total_retries.fetch_add(client.overload_retries(),
                              std::memory_order_relaxed);
      client.quit();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_GE(total_retries.load(), 1u)
      << "4 clients flooding a 1-deep Reject queue never got rejected";
  EXPECT_GE(telem.metrics.snapshot().counter(CounterId::kQueueRejected),
            total_retries.load());
  server.shutdown();
}

TEST(NetServerTest, GracefulShutdownDrainsAndAnswersPendingWork) {
  const Dut dut = make_dut("s344");
  const FlowOptions opts = make_opts(4, 1);
  const auto pats = random_patterns(dut.nl, 64, 7);
  ScanSession ref(dut.nl, opts);
  ref.bind_patterns(pats);

  DiagnosisQueue::Options qo;
  qo.max_batch = 1;
  DiagnosisQueue queue(qo);
  net::NetServer::Options nopts;
  nopts.service.flow = opts;
  net::NetServer server(queue, nullptr, nopts);

  RawWire w(server.port());
  w.send("design " + dut.bench_path + "\npatterns 64 7\n");
  ASSERT_TRUE(w.read_line().has_value());
  ASSERT_TRUE(w.read_line().has_value());
  w.send("inject-index 5\ninject-index 9\n");
  for (int i = 0; i < 2; ++i) {
    auto ack = w.read_line();
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(net::json_string_field(*ack, "ok"),
              std::optional<std::string>("queued"));
  }

  // Shut down with two futures pending and no flush sent. The drain
  // must answer both (plus a flush terminator), then close cleanly.
  server.shutdown();
  EXPECT_EQ(server.active_connections(), 0u);

  std::vector<std::string> lines;
  for (;;) {
    auto line = w.read_line();
    if (!line.has_value()) break;  // EOF: server closed after the drain
    lines.push_back(std::move(*line));
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], net::result_json(ref.diagnose(ref.inject(dut.faults[5])),
                                       dut.nl, dut.nl.name(), "inject-index 5",
                                       pats.size(), 5));
  EXPECT_EQ(lines[1], net::result_json(ref.diagnose(ref.inject(dut.faults[9])),
                                       dut.nl, dut.nl.name(), "inject-index 9",
                                       pats.size(), 5));
  EXPECT_EQ(net::json_string_field(lines[2], "ok"),
            std::optional<std::string>("flush"));
  EXPECT_EQ(net::json_u64_field(lines[2], "results"),
            std::optional<std::uint64_t>(2));
}

TEST(NetServerTest, StatsExposesQueueDepthAndNetCounters) {
  const Dut dut = make_dut("s344");
  const FlowOptions opts = make_opts(4, 1);
  const auto pats = random_patterns(dut.nl, 96, 7);
  ScanSession inj(dut.nl, opts);
  inj.bind_patterns(pats);

  Telemetry telem;
  DiagnosisQueue::Options qo;
  qo.max_batch = 1;
  DiagnosisQueue queue(qo, &telem);

  // The queue.depth gauge tracks queued + in-flight jobs: nonzero while
  // a backlog exists, back to zero once everything is answered. (The
  // stats serializers omit zero-valued metrics, so the gauge is only
  // visible on the wire while work is pending -- assert on the snapshot
  // where the timing is deterministic.)
  const auto key = queue.open(dut.nl, opts, pats);
  std::vector<std::future<DiagnosisResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(queue.submit(key, inj.inject(dut.faults[i * 29 + 1])));
  }
  EXPECT_GE(telem.metrics.snapshot().gauge(GaugeId::kQueueDepth), 1);
  for (auto& f : futures) (void)f.get();
  queue.drain();
  EXPECT_EQ(telem.metrics.snapshot().gauge(GaugeId::kQueueDepth), 0);

  net::NetServer::Options nopts;
  nopts.service.flow = opts;
  net::NetServer server(queue, &telem, nopts);
  DiagClient client("127.0.0.1", server.port());
  client.design(dut.bench_path);
  client.patterns(16, 7);
  client.submit("inject-index 1");
  client.flush();
  const std::string stats = client.request("stats");
  EXPECT_EQ(net::json_string_field(stats, "ok"),
            std::optional<std::string>("stats"));
  for (const char* k :
       {"\"queue.submitted\":", "\"net.accepted\":", "\"net.requests\":",
        "\"net.bytes_in\":", "\"net.bytes_out\":",
        "\"net.active_connections\":", "\"net.request_us\":"}) {
    EXPECT_NE(stats.find(k), std::string::npos) << k << "\n" << stats;
  }
  client.quit();
  server.shutdown();
}

}  // namespace
}  // namespace scanpower

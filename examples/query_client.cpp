// A client of the Mirror query-serving daemon, speaking the framed wire
// protocol end to end: it starts a server over the in-process ByteChannel
// transport (pass --tcp to go through a real loopback socket instead),
// loads a small annotated library, and then either runs a scripted demo
// session or — with --interactive — reads commands from stdin:
//
//   bind <name> <term[:weight]> [term[:weight] ...]   set query bindings
//   query <moa query text>                            run a query
//   set <key> <int>                                   session override
//   stats [reset]                                     server statistics
//   trace                                             last traced query
//   quit                                              close the session
//
// Example queries against the demo schema (set Lib):
//   query count(select[THIS.year >= 1998](Lib));
//   bind q sunset:2 beach
//   query map[sum(THIS)](map[getBL(THIS.doc, q, stats)](Lib));

#include <cstdio>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "mirror/mirror_db.h"

namespace {

using namespace mirror;  // NOLINT(build/namespaces)

void LoadDemoDb(db::MirrorDb* database) {
  MIRROR_CHECK(database
                   ->Define("define Lib as SET<TUPLE<Atomic<URL>: u, "
                            "Atomic<int>: year, CONTREP<Text>: doc>>;")
                   .ok());
  struct Doc {
    const char* url;
    int year;
    const char* text;
  };
  const Doc docs[] = {
      {"u0", 1996, "sunset over the beach"},
      {"u1", 1997, "city streets at night"},
      {"u2", 1998, "waves break on the sunny beach"},
      {"u3", 1999, "red sunset behind the dunes"},
      {"u4", 2000, "night market in the old city"},
      {"u5", 2001, "sunny afternoon at the beach cafe"},
  };
  std::vector<moa::MoaValue> objects;
  for (const Doc& d : docs) {
    objects.push_back(moa::MoaValue::Tuple({moa::MoaValue::Str(d.url),
                                            moa::MoaValue::Int(d.year),
                                            moa::MoaValue::Str(d.text)}));
  }
  MIRROR_CHECK(database->Load("Lib", std::move(objects)).ok());
}

void PrintResult(const daemon::wire::ResultReply& result) {
  if (result.is_scalar) {
    std::printf("scalar: %s\n", result.scalar.ToString().c_str());
    return;
  }
  std::printf("%zu rows\n%s", result.bat->size(),
              result.bat->DebugString(12).c_str());
}

/// One latency line: count, p50/p90/p99 and max of the end-to-end stage.
void PrintLatencyLine(const char* label,
                      const daemon::wire::RequestClassLatency& lat) {
  if (lat.total.count == 0) return;  // class never saw a request
  std::printf(
      "  %-7s %llu requests, total p50/p90/p99 %llu/%llu/%llu us "
      "(max %llu), exec p99 %llu us, queue p99 %llu us\n",
      label, static_cast<unsigned long long>(lat.total.count),
      static_cast<unsigned long long>(lat.total.p50_micros),
      static_cast<unsigned long long>(lat.total.p90_micros),
      static_cast<unsigned long long>(lat.total.p99_micros),
      static_cast<unsigned long long>(lat.total.max_micros),
      static_cast<unsigned long long>(lat.exec.p99_micros),
      static_cast<unsigned long long>(lat.queue_wait.p99_micros));
}

/// Every knob's effective value, as SET_OK and STATS echo them.
void PrintKnobs(const daemon::wire::KnobValues& knobs) {
  for (const auto& [key, value] : knobs) {
    std::printf(" %s=%lld", key.c_str(), static_cast<long long>(value));
  }
  std::printf("\n");
}

/// Server statistics grouped by subsystem, in a stable order: one
/// `group: name=value ...` line per counter group (kernel, serving,
/// durability, recycler; rows in table order), then latency and
/// per-session lines.
void PrintStats(const daemon::wire::StatsReply& stats) {
  namespace wire = daemon::wire;
  const auto& s = stats.server;
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  for (size_t g = 0; g < std::size(wire::kCounterGroupNames); ++g) {
    std::printf("%s:", wire::kCounterGroupNames[g]);
    for (const wire::ServerCounter& c : wire::kServerCounters) {
      if (static_cast<size_t>(c.group) == g) {
        std::printf(" %s=%llu", c.name, u(s.*c.field));
      }
    }
    std::printf("\n");
  }
  std::printf("latency:\n");
  PrintLatencyLine("query", s.latency_query);
  PrintLatencyLine("append", s.latency_append);
  PrintLatencyLine("delete", s.latency_delete);
  if (s.latency_query.total.count == 0 &&
      s.latency_append.total.count == 0 &&
      s.latency_delete.total.count == 0) {
    std::printf("  (no requests recorded)\n");
  }
  for (const auto& e : s.slow_queries) {
    std::printf("  slow: session %llu, %llu us total (%llu exec): %s\n",
                u(e.session_id), u(e.total_micros), u(e.exec_micros),
                e.query.c_str());
  }
  for (const auto& s : stats.sessions) {
    std::printf(
        "  session %llu (%s): %llu requests, %llu errors, plan cache "
        "%llu entries (%llu/%llu hits), knobs:",
        static_cast<unsigned long long>(s.session_id),
        s.client_name.c_str(),
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.errors),
        static_cast<unsigned long long>(s.plan_cache_size),
        static_cast<unsigned long long>(s.plan_cache_hits),
        static_cast<unsigned long long>(s.plan_cache_lookups));
    PrintKnobs(s.options);
  }
}

/// The session's last traced query (run `set exec.trace 1` first), one
/// line per span, capped so a big trace stays readable — export the
/// full thing with the trace_perfetto example.
void PrintTrace(const daemon::wire::TraceReply& trace) {
  if (trace.rows == 0) {
    std::printf("no trace recorded: run `set exec.trace 1`, then a query\n");
    return;
  }
  auto col = [&trace](const char* name) -> const monet::Bat* {
    for (size_t i = 0; i < trace.names.size(); ++i) {
      if (trace.names[i] == name) return &trace.cols[i];
    }
    return nullptr;
  };
  const monet::Bat* opcode = col("opcode");
  const monet::Bat* shard = col("shard");
  const monet::Bat* thread = col("thread");
  const monet::Bat* dur = col("dur_ns");
  const monet::Bat* tuples_out = col("tuples_out");
  if (opcode == nullptr || shard == nullptr || thread == nullptr ||
      dur == nullptr || tuples_out == nullptr) {
    std::printf("trace is missing expected columns\n");
    return;
  }
  std::printf("trace of query #%llu: %llu spans\n",
              static_cast<unsigned long long>(trace.query_seq),
              static_cast<unsigned long long>(trace.rows));
  constexpr uint64_t kMaxLines = 40;
  for (uint64_t i = 0; i < trace.rows && i < kMaxLines; ++i) {
    std::printf("  %-18s shard=%-3lld thread=%-2lld %8.1f us  out=%lld\n",
                std::string(opcode->tail().StrAt(i)).c_str(),
                static_cast<long long>(shard->tail().IntAt(i)),
                static_cast<long long>(thread->tail().IntAt(i)),
                static_cast<double>(dur->tail().IntAt(i)) / 1000.0,
                static_cast<long long>(tuples_out->tail().IntAt(i)));
  }
  if (trace.rows > kMaxLines) {
    std::printf("  ... %llu more spans (see examples/trace_perfetto)\n",
                static_cast<unsigned long long>(trace.rows - kMaxLines));
  }
}

/// Parses "term" or "term:weight".
moa::WeightedTerm ParseTerm(const std::string& token) {
  moa::WeightedTerm t;
  size_t colon = token.rfind(':');
  if (colon == std::string::npos) {
    t.term = token;
    return t;
  }
  t.term = token.substr(0, colon);
  t.weight = std::atof(token.c_str() + colon + 1);
  if (t.weight == 0) t.weight = 1.0;
  return t;
}

int RunCommandLoop(daemon::wire::WireClient* client, std::istream& in,
                   bool echo) {
  moa::QueryContext bindings;
  std::string line;
  if (echo) std::printf("mirror> ");
  while (std::getline(in, line)) {
    if (echo && !in.eof()) std::fflush(stdout);
    std::istringstream tokens(line);
    std::string cmd;
    tokens >> cmd;
    if (cmd.empty()) {
      if (echo) std::printf("mirror> ");
      continue;
    }
    if (!echo) std::printf("mirror> %s\n", line.c_str());
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "bind") {
      std::string name;
      tokens >> name;
      std::vector<moa::WeightedTerm> terms;
      std::string token;
      while (tokens >> token) terms.push_back(ParseTerm(token));
      if (name.empty() || terms.empty()) {
        std::printf("usage: bind <name> <term[:weight]> ...\n");
      } else {
        bindings.Bind(name, std::move(terms));
        std::printf("bound \"%s\"\n", name.c_str());
      }
    } else if (cmd == "query") {
      std::string text;
      std::getline(tokens, text);
      auto result = client->Query(text, bindings);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
      } else {
        PrintResult(result.value());
      }
    } else if (cmd == "set") {
      std::string key;
      long long value = 0;
      tokens >> key >> value;
      auto reply = client->Set({{key, value}});
      if (!reply.ok()) {
        std::printf("error: %s\n", reply.status().ToString().c_str());
      } else {
        std::printf("session options:");
        PrintKnobs(reply.value().options);
      }
    } else if (cmd == "stats") {
      std::string arg;
      tokens >> arg;
      auto stats = client->Stats(/*reset=*/arg == "reset");
      if (!stats.ok()) {
        std::printf("error: %s\n", stats.status().ToString().c_str());
      } else {
        PrintStats(stats.value());
        if (arg == "reset") std::printf("(histograms and counters reset)\n");
      }
    } else if (cmd == "trace") {
      auto trace = client->Trace();
      if (!trace.ok()) {
        std::printf("error: %s\n", trace.status().ToString().c_str());
      } else {
        PrintTrace(trace.value());
      }
    } else {
      std::printf("unknown command \"%s\"\n", cmd.c_str());
    }
    if (echo) std::printf("mirror> ");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool interactive = false;
  bool use_tcp = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--interactive" || arg == "-i") interactive = true;
    if (arg == "--tcp") use_tcp = true;
  }

  db::MirrorDb database;
  LoadDemoDb(&database);
  daemon::QueryServer server(&database);

  std::unique_ptr<daemon::wire::Transport> conn;
  if (use_tcp) {
    auto port = server.ListenTcp(0);
    MIRROR_CHECK(port.ok()) << port.status().ToString();
    std::printf("server listening on 127.0.0.1:%d\n", port.value());
    auto tcp = daemon::wire::TcpConnect("127.0.0.1", port.value());
    MIRROR_CHECK(tcp.ok()) << tcp.status().ToString();
    conn = tcp.TakeValue();
  } else {
    auto [client_end, server_end] = daemon::wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    conn = std::move(client_end);
  }

  daemon::wire::WireClient client(std::move(conn));
  auto hello = client.Hello("query_client_example");
  MIRROR_CHECK(hello.ok()) << hello.status().ToString();
  std::printf("connected to %s (session %llu)\n",
              hello.value().server_name.c_str(),
              static_cast<unsigned long long>(hello.value().session_id));

  int rc = 0;
  if (interactive) {
    rc = RunCommandLoop(&client, std::cin, /*echo=*/true);
  } else {
    std::istringstream script(
        "query count(select[THIS.year >= 1998](Lib));\n"
        "bind q sunset:2 beach\n"
        "query map[sum(THIS)](map[getBL(THIS.doc, q, stats)](Lib));\n"
        "query select[THIS.year >= 1997 and THIS.year <= 2000](Lib);\n"
        "set num_threads 1\n"
        "query count(select[THIS.year >= 1998](Lib));\n"
        // A fresh query text: a repeat would be served from the result
        // cache without executing, and an unexecuted query has no trace.
        "set exec.trace 1\n"
        "query count(select[THIS.year >= 1996](Lib));\n"
        "trace\n"
        "stats\n"
        "quit\n");
    rc = RunCommandLoop(&client, script, /*echo=*/false);
  }
  client.Close();
  server.Shutdown();
  return rc;
}
